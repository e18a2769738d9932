"""Differential tests of the bit-sliced face index against the pair scan.

``complexes.SignIndex`` answers face-relation queries over all cells at
once; ``cellhelpers.mask_in_closure`` decides one pair at a time.  Both must
give the same closures, stars, covering pairs and components.  The shared
affine pieces of ``build_complex`` are checked against a layer-by-layer
recomputation, and the number of index queries against the cell count.
"""

import random
from collections import defaultdict
from fractions import Fraction

import pytest

from cellhelpers import components_oracle, mask_in_closure, sign_mask
from conftest import net_of, random_net
from relugeom.affine import AffineMap
from relugeom.cli import auto_threshold
from relugeom.complexes import SignIndex, build_complex, cell_bounded, refine_by_threshold
from relugeom.network import masked_affine
from relugeom.topology import _region_components, decision_topology

ARCHITECTURES = [
    (1, 3, 1), (2, 3, 1), (2, 4, 1), (2, 2, 2, 1), (3, 3, 1, 1), (3, 4, 1),
    (2, 3, 3, 1), (3, 2, 2, 1), (4, 3, 1), (3, 1, 2, 1), (2, 4, 4, 1), (2, 6, 1),
]
NETS = 240  # 20 per architecture, over four kinds of entries


def entry(rng: random.Random, kind: int) -> Fraction:
    if kind == 0:
        return Fraction(rng.randint(-2, 2))
    if kind == 1:
        return Fraction(rng.randint(-4, 4))
    den = 8 if kind == 2 else 3
    return Fraction(rng.randint(-2 * den, 2 * den), den)


def degenerate_net(rng: random.Random, arch, kind: int):
    """A net whose entries are integers or k/8 or k/3, and whose every other
    net has a zero weight row and a repeated row in each layer that has room
    for them."""
    layers = []
    for n_in, n_out in zip(arch, arch[1:]):
        w = [[entry(rng, kind) for _ in range(n_in)] for _ in range(n_out)]
        b = [entry(rng, kind) for _ in range(n_out)]
        if rng.random() < 0.5 and n_out >= 3:
            w[0] = [0] * n_in
            w[-1], b[-1] = list(w[1]), b[1]
        layers.append((w, b))
    return net_of(*layers)


def sample_complexes():
    """Per net: the built complex and its refinement at the auto threshold."""
    rng = random.Random(4401)
    for k in range(NETS):
        net = degenerate_net(rng, ARCHITECTURES[k % len(ARCHITECTURES)], (k // len(ARCHITECTURES)) % 4)
        cpx = build_complex(net)
        yield cpx
        yield refine_by_threshold(cpx, auto_threshold(cpx))


@pytest.fixture(scope="module")
def complexes():
    return list(sample_complexes())


def test_the_nets_are_degenerate_and_rational(complexes):
    nets = [cpx.network for cpx in complexes[::2]]
    zero_rows = sum(any(not any(r) for r in net.layers[0].weights) for net in nets)
    fractional = sum(any(layer.den > 1 for layer in net.layers) for net in nets)
    assert len(nets) >= 200 and zero_rows >= 40 and fractional >= 80


def test_closure_and_star_match_the_pair_scan(complexes):
    for cpx in complexes:
        index = cpx.index
        keys = sorted(cpx.cells)
        assert [cell.sign for cell in index.cells] == keys
        masks = {k: sign_mask(k) for k in keys}
        for k in keys:
            closure = [f for f in keys if mask_in_closure(masks[f], masks[k])]
            star = [c for c in keys if mask_in_closure(masks[k], masks[c])]
            assert [cell.sign for cell in index.members(index.closure(k))] == closure
            assert [cell.sign for cell in index.members(index.star(k))] == star


def test_covering_pairs_match_the_pair_scan(complexes):
    """The facets of a cell, closure & (dim - 1)-cells, are the pair scan
    restricted to a dimension difference of 1."""
    pairs = 0
    for cpx in complexes:
        index = cpx.index
        keys = sorted(cpx.cells)
        for k in keys:
            d = cpx.cells[k].dim
            facets = [
                f for f in keys
                if cpx.cells[f].dim == d - 1 and mask_in_closure(sign_mask(f), sign_mask(k))
            ]
            got = index.members(index.closure(k) & index.of_dim(d - 1))
            assert [cell.sign for cell in got] == facets
            pairs += len(facets)
    assert pairs > 10_000


def test_dimension_bitsets_partition_the_cells(complexes):
    for cpx in complexes:
        index = cpx.index
        seen = 0
        for d in range(cpx.ambient_dim + 1):
            bits = index.of_dim(d)
            assert bits & seen == 0
            assert all(cell.dim == d for cell in index.members(bits))
            seen |= bits
        assert seen == index.all == (1 << len(cpx.cells)) - 1


def test_an_empty_index_answers_nothing():
    index = SignIndex([])
    assert index.closure(()) == index.star(()) == index.of_dim(0) == 0
    assert index.members(index.all) == []


def region_keys(cpx):
    by_region = defaultdict(list)
    for key in cpx.cells:
        by_region[key[-1]].append(key)
    return by_region


def components(cpx, trailing: int):
    index = cpx.index
    region = {1: index.plus[-1], -1: index.minus[-1]}.get(trailing)
    if region is None:
        region = index.all & ~(index.plus[-1] | index.minus[-1])
    return [[cell.sign for cell in index.members(comp)] for comp in _region_components(cpx, region)]


def test_components_match_the_union_find_oracle(complexes):
    """At the auto threshold and at every transversal one of -1, 0, 1."""
    several = 0
    for cpx in complexes[::2]:
        thresholds = {auto_threshold(cpx)} | {Fraction(t) for t in (-1, 0, 1)}
        for t in sorted(thresholds - cpx.constant_values):
            refined = refine_by_threshold(cpx, t)
            for trailing, keys in region_keys(refined).items():
                comps = components(refined, trailing)
                assert comps == components_oracle(keys)
                several += len(comps) > 1
    assert several >= 40


def test_components_of_a_large_complex_match_the_oracle():
    net = random_net(random.Random(2), (3, 8, 8, 1), -4, 4)
    cpx = build_complex(net)
    refined = refine_by_threshold(cpx, auto_threshold(cpx))
    assert len(cpx.cells) >= 3000
    for trailing, keys in region_keys(refined).items():
        assert components(refined, trailing) == components_oracle(keys)


def layer_by_layer(net, pattern):
    """The masked composite of the hidden layers, recomputed."""
    current = AffineMap.identity(net.input_dim)
    for layer, bits in zip(net.layers, pattern):
        current = layer.compose(current).masked(bits)
    return current


def activation_pattern(net, sign):
    """The activation bits of the layers that the sign vector covers."""
    out, start = [], 0
    for width in net.hidden_dims:
        if start == len(sign):
            break
        out.append(tuple(1 if s > 0 else 0 for s in sign[start : start + width]))
        start += width
    return tuple(out)


def test_cells_of_one_pattern_share_their_affine_maps(complexes):
    shared = 0
    for cpx in complexes[::2]:
        net = cpx.network
        by_pattern = defaultdict(list)
        for cell in cpx.cells.values():
            pattern = activation_pattern(net, cell.sign)
            assert cell.prefix == layer_by_layer(net, pattern)
            assert cell.restriction == masked_affine(net, pattern)
            by_pattern[pattern].append(cell)
        for cells in by_pattern.values():
            assert len({id(cell.prefix) for cell in cells}) == 1
            assert len({id(cell.restriction) for cell in cells}) == 1
            shared += len(cells) > 1
    assert shared > 500


def test_truncated_complexes_share_their_prefixes():
    net = random_net(random.Random(7), (3, 4, 3, 1), -4, 4)
    cpx = build_complex(net, through_layers=1)
    by_pattern = defaultdict(set)
    for cell in cpx.cells.values():
        pattern = activation_pattern(net, cell.sign)
        assert cell.prefix == layer_by_layer(net, pattern)
        by_pattern[pattern].add(id(cell.prefix))
    assert all(len(ids) == 1 for ids in by_pattern.values())


def test_decision_topology_makes_linearly_many_index_queries():
    """Components and boundedness query the index of the unrefined complex
    a bounded number of times per cell: a closure and a star per region the
    cell meets (at most three), a star per minimal face, and a closure and
    a star per (dim L + 1)-cell, so at most 8 per cell.  A pair scan takes a
    number that grows with the square of the cell count."""
    net = random_net(random.Random(0), (3, 6, 4, 1), -4, 4)
    cpx = build_complex(net)
    t = auto_threshold(cpx)
    calls = 0
    with pytest.MonkeyPatch.context() as mp:
        for name in ("closure", "star"):
            original = getattr(SignIndex, name)

            def spy(self, sign, _original=original):
                nonlocal calls
                calls += 1
                return _original(self, sign)

            mp.setattr(SignIndex, name, spy)
        decision_topology(cpx, t)
    cells = len(cpx.cells)
    assert cells > 1400
    assert calls <= 8 * cells, (calls, cells)


def test_bounded_flags_match_the_pair_scan(complexes):
    """cell_bounded reads facets and vertices off the index; the pair scan
    finds the same edges and vertices."""
    for cpx in complexes[1::2]:
        keys = sorted(cpx.cells)
        vertices = [sign_mask(k) for k in keys if cpx.cells[k].dim == 0]
        edges = {k: sign_mask(k) for k in keys if cpx.cells[k].dim == 1}
        segment = {k: sum(mask_in_closure(v, m) for v in vertices) == 2 for k, m in edges.items()}
        for k in keys:
            cell = cpx.cells[k]
            if cell.dim == 0:
                expected = True
            elif cell.dim == 1:
                expected = segment[k]
            else:
                mask = sign_mask(k)
                expected = bool(vertices) and all(
                    ok for e, ok in segment.items() if mask_in_closure(edges[e], mask)
                )
            assert cell_bounded(cpx, cell) == expected
