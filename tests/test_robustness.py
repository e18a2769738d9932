"""Adversarial cases: coincident hyperplanes, degenerate rows, padded
networks, and randomized cross-checks between independent code paths."""

import random
from fractions import Fraction

import pytest

from cellhelpers import contains
from conftest import net_of, random_net
from relugeom.complexes import (
    activation_regions,
    bent_hyperplane_arrangement,
    build_complex,
    cell_bounded,
    locate,
    refine_by_threshold,
)
from relugeom.linalg import vec
from relugeom.lp import LinearSystem, feasible_point, lp_feasible
from relugeom.network import evaluate, pad_to_width
from relugeom.topology import decision_topology, verify_johnson
from relugeom.transversality import nontransversal_thresholds


def test_coincident_node_hyperplanes():
    # two units with proportional forms: x and 2x
    net = net_of(([[1, 0], [2, 0]], [0, 0]), ([[1, 1]], [0]))
    cpx = build_complex(net)
    # cells: two half-planes and the shared line, as distinct sign atoms
    assert set(cpx.cells) == {(1, 1), (-1, -1), (0, 0)}
    assert cpx.cells[(0, 0)].dim == 1
    for x in [vec([3, 1]), vec([-2, 5]), vec([0, -7])]:
        assert contains(cpx, locate(cpx, x), x)


def test_opposite_coorientations_share_line():
    net = net_of(([[1, 0], [-1, 0]], [0, 0]), ([[1, 1]], [0]))
    cpx = build_complex(net)
    assert set(cpx.cells) == {(1, -1), (-1, 1), (0, 0)}


def test_degenerate_rows_positive_and_negative_bias():
    net = net_of(([[0, 0], [1, 1], [0, 0]], [5, 0, -3]), ([[1, 2, 1]], [0]))
    cpx = build_complex(net)
    # only the nondegenerate middle unit splits; constants get fixed signs
    assert set(cpx.cells) == {(1, 1, -1), (1, 0, -1), (1, -1, -1)}
    # degenerate units contribute no bent hyperplane
    bha = bent_hyperplane_arrangement(cpx)
    assert {c.sign for c in bha} == {(1, 0, -1)}
    regions = activation_regions(cpx)
    assert {c.sign for c in regions} == {(1, 1, -1), (1, -1, -1)}


def test_padded_network_same_geometry():
    rng = random.Random(400)
    net = random_net(rng, (2, 3, 2, 1))
    padded = pad_to_width(net)
    cpx = build_complex(net)
    cpx_p = build_complex(padded)
    # padding inserts constant-zero coordinates but the geometry is unchanged
    assert len(activation_regions(cpx)) == len(activation_regions(cpx_p))
    assert len(bent_hyperplane_arrangement(cpx)) == len(bent_hyperplane_arrangement(cpx_p))
    dims = sorted(c.dim for c in cpx.cells.values())
    dims_p = sorted(c.dim for c in cpx_p.cells.values())
    assert dims == dims_p
    bad = nontransversal_thresholds(cpx)
    assert bad == nontransversal_thresholds(cpx_p)
    t = Fraction(1, 3)
    if t in bad:
        t = max(bad) + 1
    assert decision_topology(cpx, t).bounded_counts() == decision_topology(
        cpx_p, t
    ).bounded_counts()


def test_padding_keeps_johnson_applicability():
    rng = random.Random(401)
    net = random_net(rng, (2, 1, 2, 1))
    assert net.width == 2
    t = Fraction(1, 5)
    if t in nontransversal_thresholds(net):
        t = Fraction(2, 7)
    out = verify_johnson(build_complex(net), t)
    assert out.status == "pass"
    out_p = verify_johnson(build_complex(pad_to_width(net)), t)
    assert out_p.status == "pass"


def test_double_refinement_rejected():
    net = net_of(([[1]], [0]), ([[1]], [0]))
    refined = refine_by_threshold(build_complex(net), Fraction(1))
    with pytest.raises(ValueError):
        refine_by_threshold(refined, Fraction(2))


def test_zero_row_in_linear_system_is_handled():
    s = LinearSystem.of(2, [((0, 0), 1), ((1, 0), 0)])
    assert lp_feasible(s)
    s_bad = LinearSystem.of(2, [((0, 0), -1)])
    assert not lp_feasible(s_bad)


def test_duplicate_constraints_feasibility():
    s = LinearSystem.of(1, [((1,), 0), ((1,), 0), ((2,), 0)])
    p = feasible_point(s, strict=[0, 1, 2])
    assert p is not None and p[0] > 0


def test_deep_partition_and_boundedness():
    rng = random.Random(402)
    for _ in range(3):
        net = random_net(rng, (2, 2, 2, 2, 1), -4, 4)
        cpx = build_complex(net)
        for _ in range(40):
            x = vec([Fraction(rng.randint(-50, 50), 7) for _ in range(2)])
            cell = locate(cpx, x)
            assert contains(cpx, cell, x)
            assert cell.value(x) == evaluate(net, x)
        # a cell of full dimension with a bounded closure must have vertices
        for cell in cpx.cells.values():
            if cell.dim == 2 and cell_bounded(cpx, cell):
                faces = [
                    c
                    for c in cpx.cells.values()
                    if c.dim == 0 and contains(cpx, cell, c.witness, closed=True)
                ]
                assert len(faces) >= 3
