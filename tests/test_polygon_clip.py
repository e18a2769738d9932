"""The SVG's polygon clipper reads a 2-cell's polygon off the face lattice:
the clipped ends of the 1-cells in its closure and the box corners inside
it.  It must give exactly the points, in exactly the order, of the
clipper it replaced, which crosses every pair of the cell's rows and the
box's and keeps the crossings that satisfy them all."""

import random
from fractions import Fraction

from cellhelpers import pairwise_clip
from conftest import random_net, rank_one_net, rational_net
from relugeom.cli import auto_threshold
from relugeom.complexes import build_complex, refine_by_threshold
from relugeom.svg import _box_corners, _clip_cell_polygon, default_bbox


def planar_nets(rng):
    for k in range(15):
        arch = [(2, 3, 1), (2, 4, 1), (2, 2, 2, 1), (2, 3, 3, 1), (2, 1, 1)][k % 5]
        yield random_net(rng, arch, -4, 4)
        yield rational_net(rng, arch, 3)
        yield rank_one_net(rng, 1 + k % 4)


def boxes(rng, cpx):
    """The default box, one around a vertex, one with a vertex on its lower
    left corner and one with a vertex on its right side; a random point
    stands in for the vertex when the complex has none."""
    yield default_bbox(cpx)
    vertices = [c.witness for c in cpx.cells.values() if c.dim == 0]
    for anchor in range(3):
        if vertices:
            x, y = rng.choice(vertices)
        else:
            x, y = (Fraction(rng.randint(-16, 16), 4) for _ in range(2))
        w, h = (Fraction(rng.randint(1, 16), 4) for _ in range(2))
        if anchor == 1:  # the vertex on the box's lower left corner
            yield x, y, x + w, y + h
        elif anchor == 2:  # the vertex on the box's right side
            yield x - w, y - h / 2, x, y + h
        else:
            yield x - w, y - h, x + rng.randint(0, 3) * w, y + rng.randint(0, 3) * h


def test_lattice_clipper_matches_the_pairwise_oracle():
    rng = random.Random(1717)
    clips = polygons = cornered = 0
    for net in planar_nets(rng):
        base = build_complex(net)
        thresholds = [auto_threshold(base), Fraction(rng.randint(-40, 40), 8)]
        complexes = [base] + [
            refine_by_threshold(base, t) for t in thresholds if t not in base.constant_values
        ]
        for cpx in complexes:
            for bbox in boxes(rng, base):
                corners = _box_corners(cpx, bbox)
                for cell in cpx.sorted_cells():
                    if cell.dim == 2:
                        got = _clip_cell_polygon(cpx, cell, bbox, corners)
                        assert got == pairwise_clip(cpx, cell, bbox), (net, cell.sign, bbox)
                        clips += 1
                        polygons += bool(got)
                        cornered += any(p in got for p in corners.get(cell.sign, ()))
    assert clips > 4000 and 2000 < polygons < clips - 1000 and cornered > 500, (clips, polygons, cornered)
