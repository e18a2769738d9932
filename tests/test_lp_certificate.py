"""The LP certificate checker accepts what the simplex proves and rejects
tampered certificates, one condition at a time."""

import pytest

from relugeom import lp
from relugeom.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    Certificate,
    CertificateError,
    LinearSystem,
    StandardLP,
    check_certificate,
)


def solved(std: StandardLP, status: str) -> Certificate:
    cert = lp._simplex(std)
    assert cert.status == status
    check_certificate(std, cert)  # the untampered certificate passes
    return cert


# x >= 1 and x <= 0
CLASH = LinearSystem.of(1, [((1,), -1), ((-1,), 0)])
# the triangle x >= 0, y >= 0, x + y <= 2
TRIANGLE = LinearSystem.of(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 2)])
# the quadrant x >= 0, y >= 0
QUADRANT = LinearSystem.of(2, [((1, 0), 0), ((0, 1), 0)])


def test_flipped_farkas_entry_is_rejected():
    std = lp._optimize_lp(CLASH, (1,))
    cert = solved(std, INFEASIBLE)
    nonzero = [i for i, v in enumerate(cert.dual) if v]
    assert nonzero
    for i in nonzero:
        dual = list(cert.dual)
        dual[i] = -dual[i]
        with pytest.raises(CertificateError):
            check_certificate(std, cert._replace(dual=dual))


def test_nudged_optimal_point_is_rejected():
    std = lp._optimize_lp(TRIANGLE, (1, 2), maximize=True)
    cert = solved(std, OPTIMAL)
    for j, v in enumerate(cert.point):
        if any(row[j] for row in std.rows):
            point = list(cert.point)
            point[j] = v + 1
            with pytest.raises(CertificateError):
                check_certificate(std, cert._replace(point=point))


def test_nudged_dual_is_rejected():
    std = lp._optimize_lp(TRIANGLE, (1, 2), maximize=True)
    cert = solved(std, OPTIMAL)
    for i in range(len(cert.dual)):
        dual = list(cert.dual)
        dual[i] += 1
        with pytest.raises(CertificateError):
            check_certificate(std, cert._replace(dual=dual))


def test_ray_with_positive_objective_is_rejected():
    std = lp._optimize_lp(QUADRANT, (1, 1), maximize=True)
    cert = solved(std, UNBOUNDED)
    assert sum(c * z for c, z in zip(std.cost, cert.ray)) < 0
    # The same ray against the opposite objective goes uphill.
    uphill = std._replace(cost=[-c for c in std.cost])
    assert sum(c * z for c, z in zip(uphill.cost, cert.ray)) > 0
    with pytest.raises(CertificateError, match="ray"):
        check_certificate(uphill, cert)


def test_ray_that_leaves_the_system_is_rejected():
    std = lp._optimize_lp(QUADRANT, (1, 1), maximize=True)
    cert = solved(std, UNBOUNDED)
    ray = list(cert.ray)
    j = next(j for j, z in enumerate(ray) if z)
    ray[j] += 1
    with pytest.raises(CertificateError):
        check_certificate(std, cert._replace(ray=ray))


def test_status_must_match_its_evidence():
    std = lp._optimize_lp(TRIANGLE, (1, 2), maximize=True)
    cert = solved(std, OPTIMAL)
    # An optimal dual is no Farkas vector for a feasible system.
    with pytest.raises(CertificateError):
        check_certificate(std, cert._replace(status=INFEASIBLE))
    with pytest.raises(CertificateError):
        check_certificate(std, cert._replace(status=UNBOUNDED))
    with pytest.raises(CertificateError):
        check_certificate(std, cert._replace(den=0))


def test_feasibility_none_answers_are_certified():
    # No strict point: the optimal eps is 0, and its dual proves it.
    pinned = LinearSystem.of(1, [((1,), 0), ((-1,), 0)])
    std, eps_col = lp._feasibility_lp(pinned, frozenset({0, 1}))
    cert = solved(std, OPTIMAL)
    assert cert.point[eps_col] == 0
    assert lp.feasible_point(pinned, [0, 1]) is None
