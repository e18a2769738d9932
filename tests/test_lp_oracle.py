"""Differential test: the integer simplex against the Fraction oracle.

Both encode each system in the same standard form and pivot by Bland's rule,
so they must agree exactly: same status, same point, same value.
"""

import random
from fractions import Fraction

import pytest

import cellhelpers
import lp_oracle
from relugeom import arrangement, complexes, lp, topology
from relugeom.harness import ExperimentConfig, run_trial
from relugeom.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearSystem, StandardLP


def standard_answer(cert: lp.Certificate, std: StandardLP):
    """(status, y, value) of a certificate, as the oracle reports them."""
    if cert.status != OPTIMAL:
        return cert.status, None, None
    y = [Fraction(v, cert.den) for v in cert.point]
    value = Fraction(sum(c * v for c, v in zip(std.cost, cert.point)), cert.den * std.cost_scale)
    return OPTIMAL, y, value


def feasibility_pair(system, strict):
    """Both solvers' answers to the strict-feasibility LP of the system."""
    std, _ = lp._feasibility_lp(system, frozenset(strict))
    f_rows, f_rhs, f_ncols, f_eps = lp_oracle.columns(system, frozenset(strict), with_eps=True)
    old = lp_oracle.solve_standard(f_rows, f_rhs, lp_oracle.feasibility_costs(f_ncols, f_eps))
    return standard_answer(lp._solve_standard(std), std), old


def assert_agree_on(system, strict=(), objective=None, maximize=False):
    """Assert agreement in standard form and through the public functions;
    returns the standard-form status of the feasibility LP."""
    new, old = feasibility_pair(system, strict)
    assert new == old
    assert lp.feasible_point(system, strict) == lp_oracle.feasible_point(system, strict)
    if objective is not None:
        res = lp.lp_optimize(system, objective, maximize)
        old = lp_oracle.lp_optimize(system, objective, maximize)
        assert (res.status, res.value, res.point) == old
        return res.status
    return new[0]


def rand_q(rng, lo, hi, dens=(1, 1, 2, 3)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def random_rows(rng, dim, count, lo=-3, hi=3):
    return [
        (tuple(rand_q(rng, lo, hi) for _ in range(dim)), rand_q(rng, -4, 4)) for _ in range(count)
    ]


def random_objective(rng, dim):
    return tuple(rand_q(rng, -3, 3) for _ in range(dim))


def test_random_systems_agree():
    rng = random.Random(2024)
    statuses = {}
    for _ in range(150):
        dim = rng.randint(1, 3)
        ineqs = random_rows(rng, dim, rng.randint(0, 6))
        s = LinearSystem.of(dim, ineqs, random_rows(rng, dim, rng.randint(0, 1)))
        maximize = rng.random() < 0.5
        status = assert_agree_on(s, objective=random_objective(rng, dim), maximize=maximize)
        statuses[status] = statuses.get(status, 0) + 1
    assert all(statuses.get(k, 0) >= 10 for k in (OPTIMAL, UNBOUNDED, INFEASIBLE)), statuses


def test_degenerate_systems_agree():
    # Many rows through one vertex, duplicated and scaled rows: ties in the
    # ratio test that only Bland's lowest-basis-index rule breaks.
    rng = random.Random(31)
    for _ in range(60):
        dim = rng.randint(2, 3)
        x0 = tuple(rand_q(rng, -2, 2) for _ in range(dim))
        rows = []
        for _ in range(rng.randint(dim + 1, 2 * dim + 3)):
            w = tuple(rand_q(rng, -3, 3) for _ in range(dim))
            c = -sum(a * b for a, b in zip(w, x0))  # tight at x0
            rows.append((w, c))
            if rng.random() < 0.3:
                k = Fraction(rng.randint(1, 4), rng.randint(1, 3))
                rows.append((tuple(k * a for a in w), k * c))
        s = LinearSystem.of(dim, rows)
        assert_agree_on(s, objective=random_objective(rng, dim), maximize=rng.random() < 0.5)
        assert_agree_on(s, strict=[0])


def test_equality_heavy_systems_agree():
    rng = random.Random(77)
    for _ in range(60):
        dim = rng.randint(1, 3)
        n_eq = rng.randint(dim, dim + 2)  # square or over-determined, often redundant
        eqs = random_rows(rng, dim, n_eq, -2, 2)
        if rng.random() < 0.5 and eqs:
            w, c = eqs[0]
            eqs.append((tuple(2 * a for a in w), 2 * c))  # a redundant copy
        s = LinearSystem.of(dim, random_rows(rng, dim, rng.randint(0, 3)), eqs)
        assert_agree_on(s, objective=random_objective(rng, dim))


def test_strict_feasibility_agrees():
    rng = random.Random(5)
    found = {True: 0, False: 0}
    for _ in range(80):
        dim = rng.randint(1, 3)
        rows = random_rows(rng, dim, rng.randint(1, 6))
        if rng.random() < 0.4:
            w, c = rows[0]
            rows.append((tuple(-a for a in w), -c))  # pins rows[0] to equality
        s = LinearSystem.of(dim, rows)
        strict = [k for k in range(len(rows)) if rng.random() < 0.6]
        assert_agree_on(s, strict=strict)
        found[lp.feasible_point(s, strict) is not None] += 1
    assert min(found.values()) >= 10, found


def test_unbounded_and_infeasible_agree():
    rng = random.Random(11)
    for _ in range(40):
        dim = rng.randint(1, 3)
        # A cone at a point is feasible and, for most objectives, unbounded.
        cone = LinearSystem.of(dim, random_rows(rng, dim, rng.randint(1, dim)))
        assert_agree_on(cone, objective=random_objective(rng, dim), maximize=True)
        # A row and its negation shifted apart cannot both hold.
        w, c = random_rows(rng, dim, 1)[0]
        clash = LinearSystem.of(
            dim, random_rows(rng, dim, 2) + [(w, c), (tuple(-a for a in w), -c - 1)]
        )
        assert assert_agree_on(clash, objective=random_objective(rng, dim)) == INFEASIBLE


@pytest.fixture
def trial_lps(monkeypatch):
    """Record the LP calls that the first seeded (3,3,1,1) Johnson trials
    make, plus those of the LP boundedness oracle on every cell of each
    trial's refined complex, plus the strict system of every such cell.
    The trials themselves make no LP: they build, refine and decide
    boundedness from the face lattice.  The strict cell systems keep
    trial-shaped strict-feasibility LPs under test."""
    calls = []
    refined = []
    refine = topology.refine_by_threshold

    def spy_refine(cpx, t):
        refined.append(refine(cpx, t))
        return refined[-1]

    feasible, optimize = lp.feasible_point, lp.lp_optimize

    def spy_feasible(system, strict=()):
        strict = tuple(strict)
        calls.append((system, strict, None, False))
        return feasible(system, strict)

    def spy_optimize(system, objective, maximize=False):
        calls.append((system, (), tuple(objective), maximize))
        return optimize(system, objective, maximize)

    for module in (lp, complexes, arrangement):
        if hasattr(module, "feasible_point"):
            monkeypatch.setattr(module, "feasible_point", spy_feasible)
    monkeypatch.setattr(lp, "lp_optimize", spy_optimize)
    monkeypatch.setattr(topology, "refine_by_threshold", spy_refine)
    cfg = ExperimentConfig(
        architecture=(3, 3, 1, 1), trials=3, seed=64002, check="johnson", bound=9
    )
    for index in range(3):
        run_trial(cfg, index)
    for cpx in refined:
        for cell in cpx.sorted_cells():
            lp.recession_cone_is_trivial(cellhelpers.system(cpx, cell, closed=True)[0])
            system, strict = cellhelpers.system(cpx, cell)
            calls.append((system, strict, None, False))
    monkeypatch.undo()
    return calls


def test_seeded_trial_lps_agree(trial_lps):
    assert len(trial_lps) > 50
    assert any(objective is not None for _, _, objective, _ in trial_lps)
    for system, strict, objective, maximize in trial_lps:
        assert_agree_on(system, strict, objective, maximize)
