import itertools
import random
from fractions import Fraction

import pytest

from matrix_oracle import nullspace
from relugeom import lp
from relugeom.linalg import unit, vec
from relugeom.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearSystem,
    feasible_point,
    lp_feasible,
    lp_optimize,
    recession_cone_is_trivial,
)


def sys_of(dim, ineqs=(), eqs=()):
    return LinearSystem.of(dim, ineqs, eqs)


@pytest.fixture(autouse=True)
def every_answer_is_certified(monkeypatch):
    """Every LP that a test here solves returns only after its certificate
    passed check_certificate."""
    made, passed = [], []
    simplex, check = lp._simplex, lp.check_certificate

    def spy_simplex(std):
        cert = simplex(std)
        made.append(cert)
        return cert

    def spy_check(std, cert):
        check(std, cert)
        passed.append(cert)

    monkeypatch.setattr(lp, "_simplex", spy_simplex)
    monkeypatch.setattr(lp, "check_certificate", spy_check)
    yield
    assert len(passed) == len(made)
    assert all(p is m for p, m in zip(passed, made))


# --- independent oracle: vertex+ray enumeration for recession cones -------


def cone_is_nontrivial_bruteforce(system: LinearSystem) -> bool:
    """Whether {d : w·d >= 0 for ineqs, w·d == 0 for eqs} contains d != 0.

    A polyhedral cone is nonzero iff its lineality space is nonzero or it has
    an extreme ray; extreme rays lie in one-dimensional nullspaces of active
    constraint subsets.
    """
    rows = [w for w, _ in system.inequalities] + [w for w, _ in system.equalities]
    eq_rows = [w for w, _ in system.equalities]
    n = system.dim
    if nullspace(tuple(rows), n):
        return True

    def in_cone(d):
        return all(
            sum(a * b for a, b in zip(w, d)) >= 0 for w, _ in system.inequalities
        ) and all(sum(a * b for a, b in zip(w, d)) == 0 for w, _ in system.equalities)

    ineq_rows = [w for w, _ in system.inequalities]
    for size in range(len(ineq_rows) + 1):
        for subset in itertools.combinations(ineq_rows, size):
            null = nullspace(tuple(subset) + tuple(eq_rows), n)
            if len(null) != 1:
                continue
            d = null[0]
            if in_cone(d) or in_cone(tuple(-x for x in d)):
                return True
    return False


# --- spec examples ---------------------------------------------------------


def test_feasible_unit_interval():
    s = sys_of(1, [((1,), 0), ((-1,), 1)])  # 0 <= x <= 1
    assert lp_feasible(s)


def test_strict_feasibility_fails_on_a_point():
    s = sys_of(1, [((1,), 0), ((-1,), 0)])  # only x = 0
    assert lp_feasible(s)
    assert not lp_feasible(s, strict=[0, 1])


def test_infeasible_sum_constraint():
    # x+y >= 1 with x <= 0, y <= 0
    s = sys_of(2, [((1, 1), -1), ((-1, 0), 0), ((0, -1), 0)])
    assert not lp_feasible(s)


def test_feasible_point_is_strict_witness():
    s = sys_of(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)])
    p = feasible_point(s, strict=[0, 1, 2])
    assert p is not None
    assert p[0] > 0 and p[1] > 0 and -p[0] - p[1] + 1 > 0


def test_optimize_unit_interval():
    s = sys_of(1, [((1,), 0), ((-1,), 1)])
    res = lp_optimize(s, vec([1]), maximize=True)
    assert res.status == OPTIMAL
    assert res.value == 1
    assert res.point == vec([1])


def test_optimize_unbounded():
    s = sys_of(1, [((1,), 0)])
    assert lp_optimize(s, vec([1]), maximize=True).status == UNBOUNDED
    assert lp_optimize(s, vec([1]), maximize=False).status == OPTIMAL


def test_optimize_triangle_vertex():
    # triangle x >= 0, y >= 0, x + y <= 1
    s = sys_of(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)])
    res = lp_optimize(s, vec([1, 1]), maximize=True)
    assert res.status == OPTIMAL
    assert res.value == 1


def test_optimize_infeasible():
    s = sys_of(1, [((1,), -1), ((-1,), 0)])  # x >= 1 and x <= 0
    assert lp_optimize(s, vec([1])).status == INFEASIBLE


def test_optimize_dimension_mismatch():
    with pytest.raises(ValueError):
        lp_optimize(sys_of(2), vec([1]))


def test_system_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        LinearSystem.of(2, [((1,), 0)])
    with pytest.raises(ValueError):
        lp_feasible(sys_of(1), strict=[3])


def test_recession_triangle_is_bounded():
    s = sys_of(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)])
    assert recession_cone_is_trivial(s)


def test_recession_halfplane_unbounded():
    assert not recession_cone_is_trivial(sys_of(2, [((1, 0), 0)]))


def test_recession_strip_unbounded():
    # 0 <= y <= 1 in the plane recedes along (1, 0)
    s = sys_of(2, [((0, 1), 0), ((0, -1), 1)])
    assert not recession_cone_is_trivial(s)


def test_recession_requires_feasibility():
    s = sys_of(1, [((1,), -1), ((-1,), 0)])
    with pytest.raises(ValueError):
        recession_cone_is_trivial(s)


# --- invariants -------------------------------------------------------------


def random_system(rng, dim, n_ineq, n_eq=0):
    ineqs = [
        (tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)), Fraction(rng.randint(-4, 4)))
        for _ in range(n_ineq)
    ]
    eqs = [
        (tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim)), Fraction(rng.randint(-2, 2)))
        for _ in range(n_eq)
    ]
    return LinearSystem.of(dim, ineqs, eqs)


def test_feasibility_agrees_with_zero_objective_optimum():
    rng = random.Random(7)
    for _ in range(80):
        dim = rng.randint(1, 3)
        s = random_system(rng, dim, rng.randint(0, 5), rng.randint(0, 1))
        res = lp_optimize(s, vec([0] * dim))
        assert lp_feasible(s) == (res.status != INFEASIBLE)


def test_boundedness_matches_coordinate_optima_and_bruteforce():
    rng = random.Random(99)
    checked = 0
    while checked < 50:
        dim = rng.randint(1, 3)
        s = random_system(rng, dim, rng.randint(1, 2 * dim + 2), rng.randint(0, 1))
        if not lp_feasible(s):
            continue
        checked += 1
        trivial = recession_cone_is_trivial(s)
        all_optimal = all(
            lp_optimize(s, obj, maximize=True).status == OPTIMAL
            for i in range(dim)
            for obj in (unit(dim, i), tuple(-x for x in unit(dim, i)))
        )
        assert trivial == all_optimal
        assert trivial == (not cone_is_nontrivial_bruteforce(s))


def test_optimal_point_attains_value():
    rng = random.Random(13)
    for _ in range(40):
        dim = rng.randint(1, 3)
        s = random_system(rng, dim, rng.randint(1, 5))
        obj = vec([rng.randint(-3, 3) for _ in range(dim)])
        res = lp_optimize(s, obj, maximize=True)
        if res.status != OPTIMAL:
            continue
        assert sum(a * b for a, b in zip(obj, res.point)) == res.value
        for w, c in s.inequalities:
            assert sum(a * b for a, b in zip(w, res.point)) + c >= 0
