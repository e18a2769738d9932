"""Edges read off the face lattice against edges read off the H-rows, and
the recomposed H-rows of through-layer complexes.

``complexes.edge_geometry`` takes a segment's ends and a ray's vertex from
the 0-cells in the edge's closure, and a line's direction from L;
``cellhelpers.row_edge_geometry`` intersects the line through the witness
with the cell's rows.  Both must give the same kind, base, direction and
end, exactly.
"""

import random
from collections import Counter

from cellhelpers import cell_forms, contains, row_edge_geometry
from conftest import net_of, random_net, rational_net
from relugeom.cli import auto_threshold
from relugeom.complexes import build_complex, edge_geometry, refine_by_threshold

ARCHITECTURES = [(2, 3, 1), (2, 4, 1), (3, 3, 1, 1), (2, 2, 2, 1), (3, 4, 1), (2, 3, 3, 1), (1, 3, 1)]
NETS = 420


def low_rank_net(rng: random.Random, n: int, widths):
    """A net whose first-layer rows span n - 1 dimensions, so that L is a
    line: 1-cells without a vertex are lines along it."""
    basis = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
    first = []
    for _ in range(widths[0]):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        if basis and not any(coeffs):
            coeffs[0] = 1
        first.append([sum(a * row[i] for a, row in zip(coeffs, basis)) for i in range(n)])
    layers = [(first, [rng.randint(-3, 3) for _ in first])]
    for n_in, n_out in zip(widths, widths[1:]):
        layers.append((
            [[rng.randint(-3, 3) for _ in range(n_in)] for _ in range(n_out)],
            [rng.randint(-3, 3) for _ in range(n_out)],
        ))
    return net_of(*layers)


def sample_nets():
    """A third each: integer entries, entries k/3 or k/8, and a first layer
    of rank n - 1."""
    rng = random.Random(1616)
    for k in range(NETS):
        arch = ARCHITECTURES[k % len(ARCHITECTURES)]
        if k % 3 == 0:
            yield random_net(rng, arch, -4, 4)
        elif k % 3 == 1:
            yield rational_net(rng, arch, 3 if k % 2 else 8)
        else:
            yield low_rank_net(rng, arch[0], arch[1:])


def test_lattice_edges_match_the_row_oracle():
    kinds = Counter()
    for net in sample_nets():
        cpx = build_complex(net)
        for source in (cpx, refine_by_threshold(cpx, auto_threshold(cpx))):
            for cell in source.sorted_cells():
                if cell.dim == 1:
                    got = edge_geometry(source, cell)
                    assert got == row_edge_geometry(source, cell), (net, cell.sign)
                    kinds[got[0]] += 1
    assert all(kinds[kind] >= 100 for kind in ("segment", "ray", "line")), kinds


def test_forms_of_a_truncated_complex_are_the_leading_forms():
    """A complex built through fewer hidden layers has the leading
    coordinates of the full complex, and cell_forms recomposes only those:
    each of its cells has the leading forms of every full cell that refines
    it, and contains its own witness."""
    checked = 0
    for k, net in enumerate(sample_nets()):
        if k % 5 or net.hidden_count < 2:
            continue
        full = build_complex(net)
        part = build_complex(net, through_layers=1)
        width = len(part.coords)
        for cell in part.cells.values():
            assert contains(part, cell, cell.witness)
        for cell in full.cells.values():
            head = part.cells[cell.sign[:width]]
            assert cell_forms(part, head) == cell_forms(full, cell)[:width]
            checked += 1
    assert checked > 1000
