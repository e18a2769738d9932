"""Euler–Poincaré invariants of the canonical complex: an exact check of a
whole complex that needs no geometry.

Every cell is relatively open, so its compactly supported Euler
characteristic is (-1)^dim, and χ_c is additive over a partition.  Hence
the cells of a complex of R^n sum to χ_c(R^n) = (-1)^n.  When the complex
has a vertex every closed cell is pointed, and a closed pointed polyhedron
has χ_c 1 when bounded (a ball) and 0 when not; so the closure of a cell
sums to 1 exactly when ``cell_bounded`` says it is bounded.
"""

import random
from dataclasses import replace

from conftest import random_net
from relugeom.cli import auto_threshold
from relugeom.complexes import build_complex, cell_bounded, refine_by_threshold

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
            if chi != int(cell_bounded(cpx, cell)):
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
        if cpx.index.of_dim(0):
            pointed += 1
            bounded += sum(cell_bounded(cpx, cell) for cell in cpx.cells.values())
    assert complexes == 660 and pointed > 400 and bounded > 5000, (pointed, bounded)


def test_a_dropped_cell_or_a_wrong_dimension_breaks_them():
    rng = random.Random(3004)
    for k in range(22):
        cpx = build_complex(random_net(rng, ARCHITECTURES[k % len(ARCHITECTURES)], -4, 4))
        keys = sorted(cpx.cells)
        key = keys[rng.randrange(len(keys))]
        dropped = {k: c for k, c in cpx.cells.items() if k != key}
        assert euler_defects(replace(cpx, cells=dropped))
        cell = cpx.cells[key]
        wrong = replace(cell, dim=cell.dim + rng.choice([-1, 1]), bounded=None)
        assert euler_defects(replace(cpx, cells={**cpx.cells, key: wrong}))
