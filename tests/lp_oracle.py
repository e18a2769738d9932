"""Reference two-phase simplex over ``fractions.Fraction``.

This is the tableau simplex, and the standard-form encoding, that
``relugeom.lp`` ran before it moved to a fraction-free integer tableau.  It
is kept only as a test oracle: the integer simplex must make the same Bland
pivots, so it must return the same status, point and value on every LP.
"""

from __future__ import annotations

from fractions import Fraction

from relugeom.linalg import dot

ZERO = Fraction(0)
ONE = Fraction(1)


def bland_minimize(rows: list[list[Fraction]], cost: list[Fraction], basis: list[int]) -> bool:
    """Run simplex on a basic-feasible tableau. Returns False iff unbounded.

    rows[i] holds constraint coefficients with the rhs in the last slot; cost
    is the reduced-cost row.  Entering: lowest index with negative reduced
    cost; leaving: lowest basis index among minimal ratios (Bland).
    """
    ncols = len(cost) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return True
        leave = -1
        best: Fraction | None = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return False
        pivot(rows, cost, basis, leave, enter)


def pivot(rows, cost, basis, r, j):
    prow = rows[r]
    piv = prow[j]
    if piv != ONE:
        inv = ONE / piv
        prow = [a * inv for a in prow]
        rows[r] = prow
    for i, row in enumerate(rows):
        if i != r and row[j]:
            f = row[j]
            rows[i] = [a - f * b for a, b in zip(row, prow)]
    if cost[j]:
        f = cost[j]
        cost[:] = [a - f * b for a, b in zip(cost, prow)]
    basis[r] = j


def solve_standard(
    a_rows: list[list[Fraction]], b: list[Fraction], costs: list[Fraction]
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """min costs·y  subject to  a_rows·y = b, y >= 0."""
    m = len(a_rows)
    n = len(costs)
    rows: list[list[Fraction]] = []
    for i in range(m):
        if b[i] < 0:
            rows.append([-x for x in a_rows[i]] + [ZERO] * m + [-b[i]])
        else:
            rows.append(list(a_rows[i]) + [ZERO] * m + [b[i]])
        rows[i][n + i] = ONE
    basis = list(range(n, n + m))

    # Phase 1: drive the artificial variables to zero.
    cost = [ZERO] * (n + m + 1)
    for row in rows:
        for j in range(n):
            cost[j] -= row[j]
        cost[-1] -= row[-1]
    bland_minimize(rows, cost, basis)
    if cost[-1] < 0:  # residual artificial mass: objective = -cost[-1] > 0
        return "infeasible", None, None
    for i in range(m - 1, -1, -1):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j]), None)
            if col is None:
                del rows[i]
                del basis[i]
            else:
                pivot(rows, cost, basis, i, col)

    # Phase 2: the real objective, with artificial columns dropped.
    rows = [row[:n] + [row[-1]] for row in rows]
    cost = list(costs) + [ZERO]
    for i, bv in enumerate(basis):
        if cost[bv]:
            f = cost[bv]
            cost = [a - f * bb for a, bb in zip(cost, rows[i])]
    if not bland_minimize(rows, cost, basis):
        return "unbounded", None, None
    y = [ZERO] * n
    for i, bv in enumerate(basis):
        y[bv] = rows[i][-1]
    return "optimal", y, -cost[-1]


def columns(system, strict: frozenset[int], with_eps: bool):
    """Standard-form encoding with free x split as u - v.

    Column layout: u (dim), v (dim), [eps], one surplus per inequality,
    [cap slack].  Returns (rows, rhs, ncols, eps_col).
    """
    n = system.dim
    n_in = len(system.inequalities)
    eps_col = 2 * n if with_eps else -1
    ncols = 2 * n + (1 if with_eps else 0) + n_in + (1 if with_eps else 0)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    surplus0 = 2 * n + (1 if with_eps else 0)
    for k, (w, c) in enumerate(system.inequalities):
        row = [ZERO] * ncols
        for j, wj in enumerate(w):
            if wj:
                row[j] = wj
                row[n + j] = -wj
        if with_eps and k in strict:
            row[eps_col] = -ONE
        row[surplus0 + k] = -ONE
        rows.append(row)
        rhs.append(-c)
    for w, c in system.equalities:
        row = [ZERO] * ncols
        for j, wj in enumerate(w):
            if wj:
                row[j] = wj
                row[n + j] = -wj
        rows.append(row)
        rhs.append(-c)
    if with_eps:
        cap = [ZERO] * ncols
        cap[eps_col] = ONE
        cap[-1] = ONE
        rows.append(cap)
        rhs.append(ONE)
    return rows, rhs, ncols, eps_col


def feasibility_costs(ncols: int, eps_col: int) -> list[Fraction]:
    costs = [ZERO] * ncols
    costs[eps_col] = -ONE  # maximize eps
    return costs


def objective_costs(ncols: int, n: int, objective, maximize: bool) -> list[Fraction]:
    costs = [ZERO] * ncols
    for j, oj in enumerate(objective):
        costs[j] = -oj if maximize else oj
        costs[n + j] = oj if maximize else -oj
    return costs


def feasible_point(system, strict=()):
    rows, rhs, ncols, eps_col = columns(system, frozenset(strict), with_eps=True)
    status, y, _ = solve_standard(rows, rhs, feasibility_costs(ncols, eps_col))
    if status != "optimal" or y[eps_col] <= 0:
        return None
    n = system.dim
    return tuple(y[j] - y[n + j] for j in range(n))


def lp_optimize(system, objective, maximize=False):
    """(status, value, point) of the optimum of objective·x over the system."""
    rows, rhs, ncols, _ = columns(system, frozenset(), with_eps=False)
    n = system.dim
    status, y, _ = solve_standard(rows, rhs, objective_costs(ncols, n, objective, maximize))
    if status != "optimal":
        return status, None, None
    point = tuple(y[j] - y[n + j] for j in range(n))
    return status, dot(objective, point), point
