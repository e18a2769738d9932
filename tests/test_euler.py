"""Euler–Poincaré invariants of the canonical complex: an exact check of a
whole complex that needs no geometry.

Every cell is relatively open, so its compactly supported Euler
characteristic is (-1)^dim, and χ_c is additive over a partition.  Hence
the cells of a complex of R^n sum to χ_c(R^n) = (-1)^n.  When the complex
has a vertex every closed cell is pointed, and a closed pointed polyhedron
has χ_c 1 when bounded (a ball) and 0 when not; so the closure of a cell
sums to 1 exactly when the edge walk it replaced in ``cell_bounded`` says
it is bounded.  At a transversal threshold the level set F = t is a PL
manifold of dimension n - 1, so in the plane each of its components is a
loop (χ_c 0) or a line (χ_c -1), and on the line a point (χ_c 1).
"""

import random
from collections import Counter
from fractions import Fraction

from cellhelpers import complex_with, edge_walk_bounded
from conftest import random_net
from relugeom.cli import auto_threshold
from relugeom.complexes import Cell, build_complex, cell_bounded, refine_by_threshold
from relugeom.topology import decision_topology

ARCHITECTURES = [
    (1, 3, 1), (2, 3, 1), (2, 4, 1), (2, 2, 2, 1), (3, 3, 1, 1), (2, 1, 1),
    (3, 4, 1), (2, 3, 3, 1), (3, 2, 2, 1), (4, 3, 1), (3, 1, 2, 1),
]


def euler_defects(cpx) -> list[str]:
    """The invariants the complex breaks: the total sum, then each cell
    whose closure sum disagrees with its boundedness."""
    defects = []
    n = cpx.ambient_dim
    if sum((-1) ** cell.dim for cell in cpx.cells.values()) != (-1) ** n:
        defects.append("total")
    index = cpx.index
    if index.of_dim(0):
        for cell in index.cells:
            chi = sum((-1) ** face.dim for face in index.members(index.closure(cell.sign)))
            if chi != int(edge_walk_bounded(cpx, cell)):
                defects.append(str(cell.sign))
    return defects


def sample_complexes():
    rng = random.Random(3003)
    for k in range(330):
        cpx = build_complex(random_net(rng, ARCHITECTURES[k % len(ARCHITECTURES)], -4, 4))
        yield cpx
        yield refine_by_threshold(cpx, auto_threshold(cpx))


def test_every_complex_keeps_the_invariants():
    complexes = bounded = pointed = 0
    for cpx in sample_complexes():
        assert euler_defects(cpx) == [], cpx.network
        complexes += 1
        flags = [cell_bounded(cpx, cell) for cell in cpx.index.cells]
        assert flags == [edge_walk_bounded(cpx, cell) for cell in cpx.index.cells], cpx.network
        if cpx.index.of_dim(0):
            pointed += 1
            bounded += sum(flags)
    assert complexes == 660 and pointed > 400 and bounded > 5000, (pointed, bounded)


def test_a_dropped_cell_or_a_wrong_dimension_breaks_them():
    rng = random.Random(3004)
    for k in range(22):
        cpx = build_complex(random_net(rng, ARCHITECTURES[k % len(ARCHITECTURES)], -4, 4))
        keys = sorted(cpx.cells)
        key = keys[rng.randrange(len(keys))]
        dropped = {k: c for k, c in cpx.cells.items() if k != key}
        assert euler_defects(complex_with(cpx, cells=dropped))
        cell = cpx.cells[key]
        dim = cell.dim + rng.choice([-1, 1])
        wrong = Cell(cell.sign, cell.point, dim, cell.prefix, cell.restriction)
        assert euler_defects(complex_with(cpx, cells={**cpx.cells, key: wrong}))


LEVEL_ARCHITECTURES = [(2, 3, 1), (2, 4, 1), (2, 2, 2, 1), (2, 1, 1), (2, 3, 3, 1), (1, 3, 1), (1, 2, 2, 1)]


def test_level_set_components_are_loops_lines_or_points():
    """Each component of B, with its boundedness from ``cell_bounded``,
    has the χ_c of its shape, at ``auto`` and at random transversal
    thresholds."""
    rng = random.Random(3005)
    shapes = Counter()
    for k in range(600):
        cpx = build_complex(random_net(rng, LEVEL_ARCHITECTURES[k % len(LEVEL_ARCHITECTURES)], -4, 4))
        thresholds = [auto_threshold(cpx)]
        while len(thresholds) < 3:
            t = Fraction(rng.randint(-64, 64), 8)
            if t not in cpx.constant_values:
                thresholds.append(t)
        for t in thresholds:
            topo = decision_topology(cpx, t)
            for comp in topo.boundary:
                chi = sum((-1) ** topo.complex.cells[key].dim for key in comp.cells)
                if cpx.ambient_dim == 1:
                    assert (chi, comp.bounded) == (1, True), (cpx.network, t)
                else:
                    assert chi == (0 if comp.bounded else -1), (cpx.network, t)
                shapes[cpx.ambient_dim, comp.bounded] += 1
    assert shapes[2, True] >= 30 and shapes[2, False] >= 900 and shapes[1, True] >= 400, shapes
