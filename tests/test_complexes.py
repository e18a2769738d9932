import random
from fractions import Fraction

import pytest

from cellhelpers import contains, interior_points, is_face
from conftest import fig1_net, net_of, orthant_caveat_net, random_net, relu_of_x, simplex_net
from relugeom.complexes import (
    activation_regions,
    bent_hyperplane_arrangement,
    build_complex,
    cell_bounded,
    complex_to_json,
    face_pairs,
    locate,
    refine_by_threshold,
    skeleton,
)
from relugeom.linalg import vec
from relugeom.network import evaluate
from relugeom.transversality import nontransversal_thresholds


def dims_histogram(cpx):
    hist = {}
    for cell in cpx.cells.values():
        hist[cell.dim] = hist.get(cell.dim, 0) + 1
    return hist


def test_one_layer_complex_is_arrangement_decomposition():
    cpx = build_complex(fig1_net())
    assert dims_histogram(cpx) == {2: 7, 1: 9, 0: 3}


def test_single_relu_line_three_cells():
    cpx = build_complex(relu_of_x())
    assert dims_histogram(cpx) == {1: 2, 0: 1}


def test_witness_lies_in_its_cell():
    cpx = build_complex(fig1_net())
    for cell in cpx.cells.values():
        assert contains(cpx, cell, cell.witness)


def test_restriction_equals_evaluation_on_cells():
    rng = random.Random(101)
    net = random_net(rng, (2, 2, 2, 1))
    cpx = build_complex(net)
    for cell in cpx.cells.values():
        for p in interior_points(cpx, cell, rng, 3):
            assert cell.value(p) == evaluate(net, p)


@pytest.mark.parametrize("arch", [(2, 3, 3, 1), (3, 3, 1, 1)])
@pytest.mark.parametrize("den", [8, 3])
def test_restriction_equals_evaluation_on_rational_nets(arch, den):
    """As above, on nets with entries k/den, whose prefix maps gather a
    growing denominator through the layers."""
    rng = random.Random(1000 * den + arch[0])

    def entry():
        return Fraction(rng.randint(-2 * den, 2 * den), den)

    dens = set()
    for _ in range(3):
        net = net_of(*(
            ([[entry() for _ in range(n_in)] for _ in range(n_out)], [entry() for _ in range(n_out)])
            for n_in, n_out in zip(arch, arch[1:])
        ))
        cpx = build_complex(net)
        for cell in cpx.cells.values():
            dens.add(cell.restriction.den)
            assert cell.witness_value() == evaluate(net, cell.witness)
            for p in interior_points(cpx, cell, rng, 3):
                assert cell.value(p) == evaluate(net, p)
    assert max(dens) > den, dens


def test_partition_every_point_in_exactly_one_cell():
    rng = random.Random(102)
    net = random_net(rng, (2, 3, 1))
    cpx = build_complex(net)
    for _ in range(200):
        x = vec([Fraction(rng.randint(-60, 60), rng.randint(1, 4)) for _ in range(2)])
        hits = [c for c in cpx.cells.values() if contains(cpx, c, x)]
        assert len(hits) == 1
        assert locate(cpx, x) is hits[0]


def test_face_closure_zeroing_shrinks_dimension():
    rng = random.Random(103)
    net = random_net(rng, (2, 2, 2, 1))
    cpx = build_complex(net)
    for sign, cell in cpx.cells.items():
        for i, s in enumerate(sign):
            if s == 0:
                continue
            candidate = sign[:i] + (0,) + sign[i + 1 :]
            if candidate in cpx.cells:
                assert cpx.cells[candidate].dim < cell.dim


def test_orthant_caveat_bha_contains_a_two_cell():
    cpx = build_complex(orthant_caveat_net())
    bha = bent_hyperplane_arrangement(cpx)
    assert any(c.dim == 2 for c in bha)
    # the full-dimensional BHA cell is the (open) all-negative orthant
    fat = [c for c in bha if c.dim == 2]
    assert len(fat) == 1
    assert contains(cpx, fat[0], vec([-1, -1]))
    assert fat[0].sign[:2] == (-1, -1)


def test_orthant_caveat_regions_miss_negative_orthant():
    cpx = build_complex(orthant_caveat_net())
    regions = activation_regions(cpx)
    for cell in regions:
        assert not contains(cpx, cell, vec([-1, -1]))
    # the four remaining full-dimensional pieces around the other quadrants
    assert all(cell.dim == 2 for cell in regions)


def test_one_generic_layer_regions_count():
    # 2 hyperplanes in the plane: 4 activation regions
    net = net_of(([[1, 0], [0, 1]], [0, 0]), ([[1, 1]], [0]))
    cpx = build_complex(net)
    assert len(activation_regions(cpx)) == 4


def test_skeleton_bounds_checked():
    cpx = build_complex(fig1_net())
    with pytest.raises(ValueError):
        skeleton(cpx, 3)
    with pytest.raises(ValueError):
        skeleton(cpx, -1)


def test_skeleton_of_single_hyperplane():
    net = net_of(([[1, 2]], [1]), ([[1]], [0]))
    cpx = build_complex(net)
    edges = skeleton(cpx, 1)
    assert len(edges) == 1
    assert edges[0].dim == 1


def test_full_skeleton_is_all_cells():
    cpx = build_complex(fig1_net())
    assert len(skeleton(cpx, 2)) == len(cpx.cells)


def test_theorem2_shape_for_one_layer_nets():
    # with a single hidden layer the identification needs no transversality:
    # the complex is the arrangement decomposition itself
    rng = random.Random(104)
    for _ in range(8):
        net = random_net(rng, (2, 3, 1))
        cpx = build_complex(net)
        bha_keys = {tuple(c.sign) for c in bent_hyperplane_arrangement(cpx)}
        low_keys = {tuple(c.sign) for c in skeleton(cpx, 1)}
        assert bha_keys == low_keys
        no_zero = {k for k, c in cpx.cells.items() if 0 not in k}
        top = {k for k, c in cpx.cells.items() if c.dim == 2}
        assert no_zero == top


def test_vertex_cell_is_bounded():
    cpx = build_complex(fig1_net())
    for cell in cpx.cells.values():
        if cell.dim == 0:
            assert cell_bounded(cpx, cell)


def test_regions_of_few_hyperplanes_unbounded():
    net = net_of(([[1, 0], [0, 1]], [0, 0]), ([[1, 1]], [0]))
    cpx = build_complex(net)
    for cell in activation_regions(cpx):
        assert not cell_bounded(cpx, cell)


def test_central_triangle_is_bounded():
    cpx = build_complex(fig1_net())
    # x > 0, y > 0, x + y < 1
    triangle = cpx.cells[(1, 1, -1)]
    assert cell_bounded(cpx, triangle)
    assert contains(cpx, triangle, vec(["1/4", "1/4"]))


def test_refine_below_minimum_splits_nothing():
    cpx = build_complex(relu_of_x())
    refined = refine_by_threshold(cpx, Fraction(-1))
    assert len(refined.cells) == len(cpx.cells)
    assert all(k[-1] == 1 for k in refined.cells)


def test_refine_relu_at_one_creates_vertex():
    cpx = build_complex(relu_of_x())
    refined = refine_by_threshold(cpx, Fraction(1))
    new_vertices = [c for c in refined.cells.values() if c.dim == 0]
    assert {c.witness for c in new_vertices} == {vec([0]), vec([1])}


def test_refinement_is_a_subdivision():
    rng = random.Random(105)
    net = random_net(rng, (2, 3, 1))
    cpx = build_complex(net)
    refined = refine_by_threshold(cpx, Fraction(1, 3))
    for key, cell in refined.cells.items():
        parent = cpx.cells[key[:-1]]
        assert contains(cpx, parent, cell.witness, closed=True)
        assert cell.dim <= parent.dim


def test_transversal_level_set_cuts_cells():
    rng = random.Random(106)
    net = random_net(rng, (2, 3, 1))
    cpx = build_complex(net)
    bad = nontransversal_thresholds(cpx)
    t = Fraction(1, 3)
    assert t not in bad
    refined = refine_by_threshold(cpx, t)
    for key in refined.cells:
        if key[-1] == 0 and cpx.cells[key[:-1]].dim == 2:
            # a cut 2-cell has pieces on both sides
            assert key[:-1] + (1,) in refined.cells
            assert key[:-1] + (-1,) in refined.cells


def test_face_pairs_are_geometric_faces():
    cpx = build_complex(fig1_net())
    for kf, kc in face_pairs(cpx):
        face, cell = cpx.cells[kf], cpx.cells[kc]
        assert is_face(kf, kc)
        assert face.dim < cell.dim
        assert contains(cpx, cell, face.witness, closed=True)


def test_complex_json_is_sorted_and_complete():
    cpx = build_complex(fig1_net())
    data = complex_to_json(cpx)
    signs = [entry["sign"] for entry in data["cells"]]
    assert signs == sorted(signs)
    assert len(signs) == 19
    assert all("restriction" in entry for entry in data["cells"])


def test_activation_region_count_matches_grid_patterns():
    # grid-sampling oracle: distinct activation patterns seen on a fine grid
    # over the padded vertex box equal the number of activation regions
    from relugeom.network import activation_pattern_at
    from relugeom.transversality import is_transversal_network

    rng = random.Random(107)
    done = 0
    while done < 5:
        net = random_net(rng, (2, 3, 1))
        report = is_transversal_network(net)
        if not (report.generic and report.transversal):
            continue
        done += 1
        cpx = build_complex(net)
        regions = activation_regions(cpx)
        region_keys = {tuple(c.sign) for c in regions}

        def sampled_patterns(steps):
            points = [c.witness for c in cpx.cells.values() if c.dim == 0]
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            pad = max(max(xs) - min(xs), max(ys) - min(ys), Fraction(2)) / 2 + 1
            lo_x, hi_x = min(xs) - pad, max(xs) + pad
            lo_y, hi_y = min(ys) - pad, max(ys) + pad
            found = set()
            for i in range(steps + 1):
                for j in range(steps + 1):
                    x = (lo_x + i * (hi_x - lo_x) / steps, lo_y + j * (hi_y - lo_y) / steps)
                    pattern = activation_pattern_at(net, x)
                    bits = pattern[0]
                    if all(node_map_sign(net, x, u) != 0 for u in range(3)):
                        found.add(tuple(1 if b else -1 for b in bits))
            return found

        def node_map_sign(net, x, unit):
            from relugeom.network import NodeRef, node_map_value

            v = node_map_value(net, NodeRef(0, unit), x)
            return 1 if v > 0 else -1 if v < 0 else 0

        patterns = sampled_patterns(32)
        if len(patterns) != len(region_keys):
            patterns = sampled_patterns(128)
        assert patterns == region_keys


def test_simplex_net_flat_on_simplex():
    net = simplex_net()
    cpx = build_complex(net)
    inside = cpx.cells[(-1, -1, -1)]
    assert inside.dim == 2
    w, c = inside.restriction.row(0)
    assert all(x == 0 for x in w) and c == 0
    assert cell_bounded(cpx, inside)
