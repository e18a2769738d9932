"""Exact linear programming over the rationals.

A two-phase dense simplex with Bland's pivoting rule (no cycling, no
tolerances).  Systems are conjunctions of affine constraints:

    inequality rows (w, c) assert  w·x + c >= 0
    equality rows   (w, c) assert  w·x + c == 0

Strict feasibility (selected rows satisfied with > 0) is decided by a single
auxiliary LP that maximizes a shared slack variable, capped at 1; the system
admits a point with the selected rows strict iff the optimum is positive.

Each system becomes the standard form  min c·y  s.t.  A·y = b, y >= 0  (free
x split as u - v), and each row of A, b and c is scaled by the lcm of its
denominators, so the simplex runs over Python ``int``.  The tableau is kept
fraction-free as ``M / d``: an integer matrix ``M`` over one common
denominator ``d > 0``.  A pivot on ``p = M[r][j]`` sets every other row to
``(p·a - f·b) // d`` and ``d`` to ``|p|`` (Edmonds-Bareiss; the division is
exact because every entry is a minor of the scaled ``[A | I | b]``).  Bland's
choices depend only on signs and on ratios, which the scaling keeps, so the
pivots are those of the textbook ``Fraction`` tableau.

Every answer carries a certificate, checked by :func:`check_certificate` in
exact integer arithmetic against the scaled rows before it is returned (after
Applegate, Cook, Dash & Espinoza, "Exact solutions to linear programming
problems", 2007): an optimal point with a dual vector of equal value, a
Farkas vector for infeasibility, or a feasible point with an improving ray
for unboundedness.  A certificate that fails raises
:class:`CertificateError`; no unchecked answer is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .linalg import ONE, ZERO, Vec, dot, is_zero_vec, unit, vec

Row = tuple[Vec, Fraction]


@dataclass(frozen=True)
class LinearSystem:
    dim: int
    inequalities: tuple[Row, ...] = ()
    equalities: tuple[Row, ...] = ()

    def __post_init__(self):
        for w, _ in self.inequalities + self.equalities:
            if len(w) != self.dim:
                raise ValueError(
                    f"dimension mismatch: row has {len(w)} coefficients in R^{self.dim}"
                )

    @staticmethod
    def of(dim: int, inequalities: Iterable = (), equalities: Iterable = ()) -> "LinearSystem":
        return LinearSystem(
            dim,
            tuple((vec(w), Fraction(c)) for w, c in inequalities),
            tuple((vec(w), Fraction(c)) for w, c in equalities),
        )


OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpResult:
    status: str
    value: Fraction | None = None
    point: Vec | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


class CertificateError(RuntimeError):
    """An LP certificate failed its exact check."""


class StandardLP(NamedTuple):
    """min cost·y  subject to  rows·y = rhs, y >= 0, all over the integers.

    Row i is a rational constraint row (rhs included) times ``scales[i]``,
    the lcm of its denominators with the sign that makes ``rhs[i] >= 0``;
    ``cost`` is a rational cost times ``cost_scale > 0``.  Both scalings are
    exact, so this is the rational LP itself.
    """

    rows: list[list[int]]
    rhs: list[int]
    cost: list[int]
    scales: list[int]
    cost_scale: int


class Certificate(NamedTuple):
    """Exact evidence for one answer about a :class:`StandardLP`.

    Vectors hold integer numerators over ``den > 0``.
      OPTIMAL:    ``point`` y and ``dual`` pi with y >= 0, A·y = b,
                  cost - piᵀA >= 0 and piᵀb = cost·y.
      INFEASIBLE: ``dual`` is a Farkas vector: piᵀA <= 0 and piᵀb > 0.
      UNBOUNDED:  ``point`` is feasible as above, and ``ray`` z has z >= 0,
                  A·z = 0 and cost·z < 0.
    """

    status: str
    den: int = 1
    point: list[int] | None = None
    dual: list[int] | None = None
    ray: list[int] | None = None


def _combine(rows, weights, start: list[int]) -> list[int]:
    """start + Σ weights[i]·rows[i]."""
    acc = start
    for w, row in zip(weights, rows):
        if w:
            acc = [a + w * x for a, x in zip(acc, row)]
    return acc


def _check_point(lp: StandardLP, y, den: int, what: str) -> None:
    """Check y >= 0 and rows·y = rhs·den."""
    if y is None or len(y) != len(lp.cost):
        raise CertificateError(f"{what}: expected {len(lp.cost)} coordinates")
    if any(v < 0 for v in y):
        raise CertificateError(f"{what}: negative coordinate")
    support = [(j, v) for j, v in enumerate(y) if v]
    for i, (row, bi) in enumerate(zip(lp.rows, lp.rhs)):
        if sum(row[j] * v for j, v in support) != bi * den:
            raise CertificateError(f"{what}: violates row {i}")


def check_certificate(lp: StandardLP, cert: Certificate) -> None:
    """Verify ``cert`` against ``lp`` exactly; raise CertificateError if it fails."""
    m, n = len(lp.rows), len(lp.cost)
    if cert.den <= 0:
        raise CertificateError("denominator must be positive")
    if cert.status == INFEASIBLE:
        pi = cert.dual
        if pi is None or len(pi) != m:
            raise CertificateError(f"Farkas vector: expected {m} entries")
        if any(v > 0 for v in _combine(lp.rows, pi, [0] * n)):
            raise CertificateError("Farkas vector: some entry of piᵀA is positive")
        if sum(p * bi for p, bi in zip(pi, lp.rhs)) <= 0:
            raise CertificateError("Farkas vector: piᵀb is not positive")
        return
    if cert.status not in (OPTIMAL, UNBOUNDED):
        raise CertificateError(f"unknown status {cert.status!r}")
    y = cert.point
    _check_point(lp, y, cert.den, "point")
    if cert.status == OPTIMAL:
        pi = cert.dual
        if pi is None or len(pi) != m:
            raise CertificateError(f"dual: expected {m} entries")
        reduced = _combine(lp.rows, (-p for p in pi), [c * cert.den for c in lp.cost])
        if any(v < 0 for v in reduced):
            raise CertificateError("dual: some reduced cost is negative")
        if sum(p * bi for p, bi in zip(pi, lp.rhs)) != sum(c * v for c, v in zip(lp.cost, y)):
            raise CertificateError("dual: objective values differ")
        return
    z = cert.ray
    _check_point(lp, z, 0, "ray")
    if sum(c * v for c, v in zip(lp.cost, z)) >= 0:
        raise CertificateError("ray: objective does not decrease")


def _pivot(
    rows: list[list[int]], objs: list[list[int]], basis: list[int], d: int, r: int, j: int
) -> int:
    """Fraction-free pivot on rows[r][j]; returns the new common denominator.

    The objective rows in ``objs`` take part like any other non-pivot row.
    """
    prow = rows[r]
    p = prow[j]
    if p < 0:  # flip the whole tableau so that the denominator stays positive
        p = -p
        prow = rows[r] = [-a for a in prow]
    for tab in (rows, objs):
        for i, row in enumerate(tab):
            if row is prow:
                continue
            f = row[j]
            if f:
                tab[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
            elif p != d:
                tab[i] = [p * a // d for a in row]
    basis[r] = j
    return p


def _bland_minimize(
    rows: list[list[int]], objs: list[list[int]], basis: list[int], d: int, ncols: int
) -> tuple[int, int]:
    """Run simplex on objs[0] from a basic-feasible tableau.

    Entering: lowest column below ``ncols`` with negative reduced cost;
    leaving: lowest basis index among minimal ratios (Bland), compared by
    cross-multiplying.  Returns ``(d, enter)``, where ``enter`` is -1 at an
    optimum and otherwise a column that no row bounds.
    """
    while True:
        cost = objs[0]
        enter = -1
        for j in range(ncols):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return d, -1
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave >= 0:  # ratio row[-1]/a against the best so far, best_b/best_a
                    lhs = row[-1] * best_a
                    rhs = best_b * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, best_b, best_a = i, row[-1], a
        if leave < 0:
            return d, enter
        d = _pivot(rows, objs, basis, d, leave, enter)


def _simplex(lp: StandardLP) -> Certificate:
    """Two-phase Bland simplex on the integer tableau, with a certificate."""
    m, n = len(lp.rows), len(lp.cost)
    rows = []
    for i, (row, bi) in enumerate(zip(lp.rows, lp.rhs)):
        art = [0] * (m + 1)
        art[i] = 1  # artificial i is scaled with its row, so its column stays a unit
        art[m] = bi
        rows.append(list(row) + art)
    basis = list(range(n, n + m))

    # Phase 1 minimizes Σ a_i/|scales[i]|, the artificial mass of the unscaled
    # rows, times L = lcm(scales) to stay integral: its reduced costs have the
    # signs of the Fraction tableau's.  The phase-2 objective rides along, so
    # that it takes part in every pivot and every division stays exact.
    big = lcm(*lp.scales)
    weights = [big // abs(s) for s in lp.scales]
    phase1 = [-sum(w * row[j] for w, row in zip(weights, lp.rows)) for j in range(n)]
    phase1 += [0] * m + [-sum(w * bi for w, bi in zip(weights, lp.rhs))]
    objs = [phase1, list(lp.cost) + [0] * (m + 1)]
    d, _ = _bland_minimize(rows, objs, basis, 1, n + m)
    phase1 = objs.pop(0)
    if phase1[-1] < 0:  # residual artificial mass
        # The phase-1 row is [0 | w | 0] - muᵀ[A | I | b] with its structural
        # part >= 0 and its last entry < 0, so mu = w - (artificial part)/d.
        farkas = [d * w - phase1[n + i] for i, w in enumerate(weights)]
        return Certificate(INFEASIBLE, d, dual=farkas)
    # Artificials still basic sit at zero: pivot each out on the first nonzero
    # structural column of its row, or drop the row as redundant.
    for i in range(m - 1, -1, -1):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j]), None)
            if col is None:
                del rows[i]
                del basis[i]
            else:
                d = _pivot(rows, objs, basis, d, i, col)

    # Phase 2: the real objective over the structural columns.
    d, enter = _bland_minimize(rows, objs, basis, d, n)
    point = [0] * n
    for row, bv in zip(rows, basis):
        point[bv] = row[-1]
    if enter >= 0:
        ray = [0] * n
        ray[enter] = d
        for row, bv in zip(rows, basis):
            ray[bv] = -row[enter]
        return Certificate(UNBOUNDED, d, point, ray=ray)
    cost = objs[0]
    # The objective row is cost - piᵀ[A | I | b], so its artificial part is -pi.
    return Certificate(OPTIMAL, d, point, dual=[-cost[n + i] for i in range(m)])


def _solve_standard(lp: StandardLP) -> Certificate:
    """Solve ``lp``; the certificate has passed :func:`check_certificate`."""
    cert = _simplex(lp)
    check_certificate(lp, cert)
    return cert


def _columns(system: LinearSystem, strict: frozenset[int], with_eps: bool):
    """Standard-form encoding with free x split as u - v, in integer rows.

    Column layout: u (dim), v (dim), [eps], one surplus per inequality,
    [cap slack].  Returns (rows, rhs, scales, ncols, eps_col), scaled as
    :class:`StandardLP` describes.
    """
    n = system.dim
    n_in = len(system.inequalities)
    eps_col = 2 * n if with_eps else -1
    ncols = 2 * n + (1 if with_eps else 0) + n_in + (1 if with_eps else 0)
    rows: list[list[int]] = []
    rhs: list[int] = []
    scales: list[int] = []
    surplus0 = 2 * n + (1 if with_eps else 0)
    for k, (w, c) in enumerate(system.inequalities + system.equalities):
        s = lcm(c.denominator, *(wj.denominator for wj in w))
        if c.numerator > 0:  # the rhs -c must become nonnegative
            s = -s
        row = [0] * ncols
        for j, wj in enumerate(w):
            if wj:
                row[j] = wj.numerator * (s // wj.denominator)
                row[n + j] = -row[j]
        if k < n_in:
            if with_eps and k in strict:
                row[eps_col] = -s
            row[surplus0 + k] = -s
        rows.append(row)
        rhs.append(-c.numerator * (s // c.denominator))
        scales.append(s)
    if with_eps:
        cap = [0] * ncols
        cap[eps_col] = 1
        cap[-1] = 1
        rows.append(cap)
        rhs.append(1)
        scales.append(1)
    return rows, rhs, scales, ncols, eps_col


def _feasibility_lp(system: LinearSystem, strict: frozenset[int]) -> tuple[StandardLP, int]:
    """The LP that maximizes the shared slack eps of the strict rows, and
    the column of eps."""
    rows, rhs, scales, ncols, eps_col = _columns(system, strict, with_eps=True)
    cost = [0] * ncols
    cost[eps_col] = -1  # maximize eps
    return StandardLP(rows, rhs, cost, scales, 1), eps_col


def _optimize_lp(
    system: LinearSystem, objective: Sequence[Fraction], maximize: bool = False
) -> StandardLP:
    """The LP that minimizes (or maximizes) objective·x over the system."""
    rows, rhs, scales, ncols, _ = _columns(system, frozenset(), with_eps=False)
    n = system.dim
    cs = lcm(*(oj.denominator for oj in objective))
    cost = [0] * ncols
    for j, oj in enumerate(objective):
        v = oj.numerator * (cs // oj.denominator)
        cost[j] = -v if maximize else v
        cost[n + j] = -cost[j]
    return StandardLP(rows, rhs, cost, scales, cs)


def _x_of(cert: Certificate, n: int) -> Vec:
    """The point x = u - v of a certificate's standard-form point."""
    y, den = cert.point, cert.den
    return tuple(Fraction(y[j] - y[n + j], den) for j in range(n))


def feasible_point(system: LinearSystem, strict: Iterable[int] = ()) -> Vec | None:
    """A rational point satisfying the system with the given inequality rows
    strict, or None when no such point exists."""
    strict_set = frozenset(strict)
    bad = [k for k in strict_set if not 0 <= k < len(system.inequalities)]
    if bad:
        raise ValueError(f"strict index out of range: {bad[0]}")
    std, eps_col = _feasibility_lp(system, strict_set)
    cert = _solve_standard(std)
    if cert.status != OPTIMAL or cert.point[eps_col] <= 0:
        return None
    return _x_of(cert, system.dim)


def lp_feasible(system: LinearSystem, strict: Iterable[int] = ()) -> bool:
    """Whether some rational point satisfies the system, with the listed
    inequality rows required to hold strictly."""
    return feasible_point(system, strict) is not None


def lp_optimize(system: LinearSystem, objective: Sequence[Fraction], maximize: bool = False) -> LpResult:
    """Exact simplex optimum of objective·x over the system."""
    if len(objective) != system.dim:
        raise ValueError(
            f"dimension mismatch: objective has {len(objective)} coefficients in R^{system.dim}"
        )
    cert = _solve_standard(_optimize_lp(system, objective, maximize))
    if cert.status != OPTIMAL:
        return LpResult(cert.status)
    point = _x_of(cert, system.dim)
    return LpResult(OPTIMAL, dot(objective, point), point)


def recession_cone(system: LinearSystem) -> LinearSystem:
    """The cone of directions along which the closed solution set recedes."""
    n = system.dim
    return LinearSystem(
        n,
        tuple((w, ZERO) for w, _ in system.inequalities if not is_zero_vec(w)),
        tuple((w, ZERO) for w, _ in system.equalities if not is_zero_vec(w)),
    )


def _cone_is_trivial(system: LinearSystem) -> bool:
    """Whether the recession cone of the system is {0} (no feasibility check)."""
    cone = recession_cone(system)
    n = system.dim
    box = tuple((unit(n, i), ONE) for i in range(n)) + tuple(
        (tuple(-x for x in unit(n, i)), ONE) for i in range(n)
    )
    boxed = LinearSystem(n, cone.inequalities + box, cone.equalities)
    for i in range(n):
        e = unit(n, i)
        for obj in (e, tuple(-x for x in e)):
            res = lp_optimize(boxed, obj, maximize=True)
            if res.value > 0:
                return False
    return True


def recession_cone_is_trivial(system: LinearSystem) -> bool:
    """Whether the (nonempty) solution set is bounded.

    Decided by 2·dim LPs maximizing each signed coordinate over the recession
    cone intersected with the unit box.  Raises on an infeasible system.
    """
    if not lp_feasible(system):
        raise ValueError("recession cone of an infeasible system is undefined")
    return _cone_is_trivial(system)
