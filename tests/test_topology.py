import random
from fractions import Fraction

import pytest

from cellhelpers import is_face
from conftest import (
    negated_abs_net,
    net_of,
    random_net,
    relu_of_x,
    simplex_net,
    tilted_bump_net,
)
from relugeom.complexes import build_complex
from relugeom.linalg import dot, vec
from relugeom.network import masked_affine
from relugeom.topology import (
    BOUNDARY,
    NO,
    PASS,
    NOT_APPLICABLE,
    RAY,
    YES,
    NonTransversalThresholdError,
    decision_topology,
    max_subgraph,
    oriented_skeleton,
    verify_johnson,
    verify_one_bounded,
)
from relugeom.transversality import nontransversal_thresholds


from gridoracle import grid_region_counts

# --- decision_topology -------------------------------------------------------


def test_simplex_net_regions_at_quarter():
    topo = decision_topology(build_complex(simplex_net()), Fraction(1, 4))
    counts = topo.bounded_counts()
    assert counts == {YES: 0, BOUNDARY: 1, NO: 1}
    assert len(topo.no) == 1 and topo.no[0].bounded
    assert len(topo.yes) == 1 and not topo.yes[0].bounded
    assert len(topo.boundary) == 1 and topo.boundary[0].bounded


def test_narrow_net_regions_unbounded():
    rng = random.Random(300)
    checked = 0
    while checked < 5:
        net = random_net(rng, (2, 2, 1))
        bad = nontransversal_thresholds(net)
        t = Fraction(1, 3)
        if t in bad:
            continue
        topo = decision_topology(net, t)
        for region in (YES, BOUNDARY, NO):
            for comp in topo.components(region):
                assert not comp.bounded
        checked += 1


def test_empty_level_set_above_max():
    topo = decision_topology(negated_abs_net(), Fraction(1))
    assert topo.yes == ()
    assert topo.boundary == ()
    assert len(topo.no) == 1
    assert not topo.no[0].bounded


def test_non_transversal_threshold_rejected():
    with pytest.raises(NonTransversalThresholdError) as err:
        decision_topology(relu_of_x(), Fraction(0))
    assert err.value.threshold == 0


def test_regions_partition_refined_cells():
    rng = random.Random(301)
    net = random_net(rng, (2, 3, 1))
    t = Fraction(1, 3)
    if t in nontransversal_thresholds(net):
        t = Fraction(2, 7)
    topo = decision_topology(net, t)
    all_keys = set(topo.complex.cells)
    seen = set()
    for region in (YES, BOUNDARY, NO):
        for comp in topo.components(region):
            for k in comp.cells:
                assert k not in seen
                seen.add(k)
    assert seen == all_keys


def test_boundary_cells_sandwiched_between_regions():
    rng = random.Random(302)
    done = 0
    while done < 6:
        net = random_net(rng, (2, 3, 1))
        t = Fraction(1, 5)
        if t in nontransversal_thresholds(net):
            continue
        topo = decision_topology(net, t)
        refined = topo.complex
        yes_keys = {k for comp in topo.yes for k in comp.cells}
        no_keys = {k for comp in topo.no for k in comp.cells}
        for comp in topo.boundary:
            for bk in comp.cells:
                assert any(is_face(bk, yk) for yk in yes_keys)
                assert any(is_face(bk, nk) for nk in no_keys)
        done += 1


def test_component_counts_match_grid_oracle():
    rng = random.Random(303)
    done = 0
    while done < 4:
        net = random_net(rng, (2, 3, 1), -5, 5)
        t = Fraction(1, 3)
        if t in nontransversal_thresholds(net):
            continue
        done += 1
        topo = decision_topology(net, t)
        exact = (len(topo.yes), len(topo.no))
        approx = grid_region_counts(net, t, 64)
        if approx != exact:
            approx = grid_region_counts(net, t, 256)
        assert approx == exact


# --- oriented skeleton -------------------------------------------------------


def test_relu_skeleton_orientation():
    skel = oriented_skeleton(build_complex(relu_of_x()))
    assert len(skel.vertices) == 1
    assert len(skel.edges) == 2
    by_sign = {e.key: e for e in skel.edges.values()}
    left = by_sign[(-1,)]
    right = by_sign[(1,)]
    assert left.flat
    assert right.kind == RAY
    # the positive ray is oriented away from 0 (F increases)
    assert right.orientation == 1


def test_identity_layer_edges_follow_output_weights():
    # identity first layer, output weights (1, 1): the boundary rays of the
    # all-ones quadrant are oriented by the output weights; the other rays
    # are flat because the masked gradient vanishes on them
    net = net_of(([[1, 0], [0, 1]], [0, 0]), ([[1, 1]], [0]))
    skel = oriented_skeleton(build_complex(net))
    for edge in skel.edges.values():
        if -1 in edge.key:
            assert edge.flat
        else:
            slope = dot(vec([1, 1]), edge.direction)
            expected = 1 if slope > 0 else -1 if slope < 0 else 0
            assert edge.orientation == expected


def hadamard_orientation_sign(net, cpx, edge_key, direction):
    """Lemma-style combinatorial orientation: the masked product over the
    Hadamard AND of the activation patterns of all adjacent regions."""
    n0 = cpx.ambient_dim
    widths = net.hidden_dims
    adjacent = [
        key
        for key, cell in cpx.cells.items()
        if cell.dim == n0 and is_face(edge_key, key)
    ]
    assert adjacent
    combined = []
    offset = 0
    for w in widths:
        bits = []
        for u in range(w):
            bit = 1
            for key in adjacent:
                if key[offset + u] <= 0:
                    bit = 0
                    break
            bits.append(bit)
        combined.append(tuple(bits))
        offset += w
    grad = masked_affine(net, tuple(combined)).weights[0]
    v = dot(grad, direction)
    return 1 if v > 0 else -1 if v < 0 else 0


def test_orientation_matches_hadamard_formula():
    rng = random.Random(304)
    done = 0
    while done < 10:
        net = random_net(rng, (2, 3, 1))
        from relugeom.transversality import is_transversal_network

        report = is_transversal_network(net)
        if not (report.generic and report.transversal):
            continue
        done += 1
        cpx = build_complex(net)
        skel = oriented_skeleton(cpx)
        for key, edge in skel.edges.items():
            combinatorial = hadamard_orientation_sign(net, cpx, key, edge.direction)
            assert combinatorial == edge.orientation


# --- max_subgraph ------------------------------------------------------------


def test_simplex_min_subgraph_is_simplex_skeleton():
    topo = decision_topology(build_complex(simplex_net()), Fraction(1, 4))
    cert = max_subgraph(topo, NO, 0)
    assert cert.extreme_value == 0
    assert len(cert.flat_vertices) == 3
    assert len(cert.flat_edges) == 3
    # the flat graph is exactly the boundary 1-skeleton of the unit simplex
    points = {topo.base.cells[k].witness for k in cert.flat_vertices}
    assert points == {vec([0, 0]), vec([1, 0]), vec([0, 1])}
    assert cert.crossing_edges  # edges leave the component
    skel = oriented_skeleton(topo.base)
    graph_vertices = set(cert.graph_vertices)
    for ek in cert.crossing_edges:
        edge = skel.edges[ek]
        assert not edge.flat
        head = edge.head()
        # for an N component the edges point away from the subgraph
        if head is not None and head in skel.vertex_by_point:
            assert skel.vertex_by_point[head] not in graph_vertices


def test_tilted_bump_max_at_unique_vertex():
    net = tilted_bump_net()
    topo = decision_topology(build_complex(net), Fraction(1, 2))
    assert [c.bounded for c in topo.yes] == [True]
    cert = max_subgraph(topo, YES, 0)
    assert cert.extreme_value == 1
    assert len(cert.flat_vertices) == 1
    assert cert.flat_edges == ()
    assert topo.base.cells[cert.flat_vertices[0]].witness == vec([0, 0])
    # every crossing edge is oriented and points toward the subgraph
    skel = oriented_skeleton(topo.base)
    graph_vertices = set(cert.graph_vertices)
    assert cert.crossing_edges
    for ek in cert.crossing_edges:
        edge = skel.edges[ek]
        assert not edge.flat
        head = edge.head()
        assert head is not None
        assert skel.vertex_by_point[head] in graph_vertices


def test_flat_subgraph_stays_inside_component():
    # G' never meets the boundary at a transversal threshold
    topo = decision_topology(build_complex(simplex_net()), Fraction(1, 4))
    cert = max_subgraph(topo, NO, 0)
    member = set(topo.components(NO)[0].cells)
    for vk in cert.flat_vertices:
        assert vk + (-1,) in member
    assert set(cert.flat_vertices) <= set(cert.graph_vertices)
    assert set(cert.flat_edges) <= set(cert.graph_edges)


def test_max_subgraph_requires_bounded_component():
    topo = decision_topology(build_complex(simplex_net()), Fraction(1, 4))
    with pytest.raises(ValueError):
        max_subgraph(topo, YES, 0)  # the Y component is unbounded
    with pytest.raises(ValueError):
        max_subgraph(topo, BOUNDARY, 0)


# --- theorem verifiers -------------------------------------------------------


def test_johnson_on_narrow_nets():
    rng = random.Random(305)
    done = 0
    while done < 5:
        net = random_net(rng, (2, 2, 1))
        t = Fraction(1, 3)
        if t in nontransversal_thresholds(net):
            continue
        out = verify_johnson(build_complex(net), t)
        assert out.status == PASS
        assert all(v == 0 for v in out.bounded_counts.values())
        done += 1


def test_johnson_requires_narrow_width():
    out = verify_johnson(build_complex(simplex_net()), Fraction(1, 4))
    assert out.status == NOT_APPLICABLE


def test_johnson_declines_one_dimensional_input():
    out = verify_johnson(build_complex(relu_of_x()), Fraction(1))
    assert out.status == NOT_APPLICABLE


def test_one_bounded_simplex_passes_with_count_one():
    out = verify_one_bounded(build_complex(simplex_net()), Fraction(1, 4))
    assert out.status == PASS
    assert out.bounded_counts[NO] == 1
    assert out.bounded_counts[YES] == 0


def test_one_bounded_declines_wrong_architecture():
    out = verify_one_bounded(build_complex(tilted_bump_net()), Fraction(1, 2))
    assert out.status == NOT_APPLICABLE


def test_one_bounded_random_nets():
    rng = random.Random(306)
    done = 0
    while done < 5:
        net = random_net(rng, (2, 3, 1))
        t = Fraction(2, 5)
        if t in nontransversal_thresholds(net):
            continue
        out = verify_one_bounded(build_complex(net), t)
        assert out.status == PASS
        assert out.bounded_counts[YES] <= 1 and out.bounded_counts[NO] <= 1
        done += 1
