"""Exact rational vectors, matrices, and Gaussian elimination.

All geometric computation in this package is exact: it runs over
``fractions.Fraction``, and the simplex in ``lp`` over scaled integers; there
is no floating point anywhere in the core.  Vectors are plain tuples of
Fractions, matrices are tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Parse a rational from an int, Fraction, or string.

    Strings may be integers ("7"), fractions ("3/4", "-12/5"), or decimals
    ("0.25"), all converted exactly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"refusing boolean {value!r} as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational string: {value!r}") from exc
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass a string or Fraction")
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def rat_str(q: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return str(q)


def vec(values: Iterable) -> Vec:
    return tuple(rat(v) for v in values)


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix rows")
    return out


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def unit(n: int, i: int) -> Vec:
    return tuple(ONE if k == i else ZERO for k in range(n))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    total = ZERO
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(u: Vec, a: Fraction) -> Vec:
    return tuple(a * x for x in u)


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in u)


def mat_vec(m: Mat, x: Sequence[Fraction]) -> Vec:
    return tuple(dot(row, x) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in matrix product")
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Mat) -> Mat:
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


class RowBasis:
    """Incremental row-echelon basis for span membership and rank queries."""

    __slots__ = ("dim", "_rows")

    def __init__(self, dim: int, rows: list[tuple[int, Vec]] | None = None):
        self.dim = dim
        # list of (pivot column, row with leading 1), kept sorted by pivot
        self._rows: list[tuple[int, Vec]] = list(rows) if rows else []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def copy(self) -> "RowBasis":
        return RowBasis(self.dim, self._rows)

    def _reduce(self, w: Sequence[Fraction]) -> list[Fraction]:
        r = list(w)
        for piv, row in self._rows:
            f = r[piv]
            if f:
                for j in range(piv, self.dim):
                    if row[j]:
                        r[j] -= f * row[j]
        return r

    def contains(self, w: Sequence[Fraction]) -> bool:
        return all(x == 0 for x in self._reduce(w))

    def add(self, w: Sequence[Fraction]) -> bool:
        """Add w to the span. Returns True iff the rank grew."""
        r = self._reduce(w)
        for piv in range(self.dim):
            if r[piv]:
                inv = ONE / r[piv]
                row = tuple(x * inv for x in r)
                self._rows.append((piv, row))
                self._rows.sort(key=lambda pr: pr[0])
                return True
        return False


def rank(m: Iterable[Sequence[Fraction]]) -> int:
    """Row rank by exact Gaussian elimination."""
    rows = [tuple(r) for r in m]
    if not rows:
        return 0
    basis = RowBasis(len(rows[0]))
    for r in rows:
        basis.add(r)
    return basis.rank


def affine_solution(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], dim: int
) -> tuple[Vec, list[Vec]] | None:
    """Solve rows·x = rhs exactly.

    Returns (particular solution, nullspace basis), or None when inconsistent.
    Free variables are set to 0 in the particular solution.
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []  # (row, col)
    row_i = 0
    for col in range(dim):
        piv = next((i for i in range(row_i, len(aug)) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row_i], aug[piv] = aug[piv], aug[row_i]
        inv = ONE / aug[row_i][col]
        aug[row_i] = [x * inv for x in aug[row_i]]
        for i in range(len(aug)):
            if i != row_i and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row_i])]
        pivots.append((row_i, col))
        row_i += 1
        if row_i == len(aug):
            break
    for i in range(row_i, len(aug)):
        if aug[i][dim] != 0:
            return None
    point = [ZERO] * dim
    for r, c in pivots:
        point[c] = aug[r][dim]
    pivot_cols = {c for _, c in pivots}
    null: list[Vec] = []
    for free in range(dim):
        if free in pivot_cols:
            continue
        d = [ZERO] * dim
        d[free] = ONE
        for r, c in pivots:
            d[c] = -aug[r][free]
        null.append(tuple(d))
    return tuple(point), null


def solve_square(m: Mat, rhs: Vec) -> Vec | None:
    """Unique solution of a square system, or None when singular."""
    n = len(m)
    if n != len(rhs) or any(len(r) != n for r in m):
        raise ValueError("solve_square needs a square system")
    res = affine_solution(m, rhs, n)
    if res is None:
        return None
    point, null = res
    if null:
        return None
    return point


def nullspace(m: Mat, dim: int) -> list[Vec]:
    """Basis of {x : m·x = 0}."""
    res = affine_solution(m, [ZERO] * len(m), dim)
    assert res is not None
    return res[1]
