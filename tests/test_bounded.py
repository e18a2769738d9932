"""Boundedness from the face lattice, against the LP recession-cone oracle."""

import random

import pytest

from conftest import fig1_net, net_of, random_net
from relugeom.cli import auto_threshold
from relugeom.complexes import build_complex, cell_bounded, refine_by_threshold
from relugeom.lp import recession_cone_is_trivial

ARCHITECTURES = [
    (2, 3, 1), (2, 4, 1), (3, 4, 1), (2, 3, 3, 1), (3, 3, 1, 1),
    (2, 1, 1), (3, 2, 1), (3, 1, 2, 1), (2, 2, 2, 1),
]


def lp_bounded(cell) -> bool:
    return cell.dim == 0 or recession_cone_is_trivial(cell.system(closed=True)[0])


def test_face_lattice_matches_lp_oracle_on_random_complexes():
    rng = random.Random(2008)
    complexes = []
    for arch in ARCHITECTURES:
        for _ in range(3):
            cpx = build_complex(random_net(rng, arch, -5, 5))
            complexes += [cpx, refine_by_threshold(cpx, auto_threshold(cpx))]
    no_vertex = bounded_high = 0
    for cpx in complexes:
        if not any(cell.dim == 0 for cell in cpx.cells.values()):
            no_vertex += 1
        for cell in cpx.sorted_cells():
            flag = cell_bounded(cpx, cell)
            assert flag == lp_bounded(cell), (cpx.network, cell.sign)
            bounded_high += flag and cell.dim >= 2
    assert no_vertex >= 1 and bounded_high >= 1, (no_vertex, bounded_high)


@pytest.mark.parametrize(
    "net, dims",
    [
        # one plane in R^3: two half-spaces and the plane, no 0- or 1-cells
        (net_of(([[1, 0, 0]], [0]), ([[1]], [0])), [2, 3, 3]),
        # 1 + x > 0 and 1 - x > 0: the strip -1 < x < 1, its two edge lines
        # and the two outer half-planes
        (net_of(([[1, 0], [-1, 0]], [1, 1]), ([[1, 1]], [0])), [1, 1, 2, 2, 2]),
    ],
    ids=["plane-in-space", "strip"],
)
def test_complex_without_vertex_is_unbounded_everywhere(net, dims):
    cpx = build_complex(net)
    assert sorted(cell.dim for cell in cpx.cells.values()) == dims
    assert not any(cell_bounded(cpx, cell) for cell in cpx.cells.values())


def test_fig1_triangle_and_its_faces_are_the_bounded_cells():
    cpx = build_complex(fig1_net())
    bounded = {key for key, cell in cpx.cells.items() if cell_bounded(cpx, cell)}
    # x > 0, y > 0, x + y < 1 with its three edges and three vertices
    assert bounded == {
        (1, 1, -1),
        (0, 1, -1), (1, 0, -1), (1, 1, 0),
        (0, 0, -1), (0, 1, 0), (1, 0, 0),
    }
