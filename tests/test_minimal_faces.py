"""Differential test: constancy read off the minimal faces against the
per-cell equality bases of the row-based oracle.

Every closed cell of a complex shares the lineality space L, and F and the
node maps from layer 2 on are constant along L, so ``complexes`` answers
every constancy question at the minimal faces (the cells of dimension
dim L): the constant values of F, the failing nodes, and, through the
witness value, the flat edges of ``topology.max_subgraph``.
``complex_oracle`` keeps, per cell, the span of its equality normals and
calls a form constant on the cell iff its gradient lies in that span.  The
nets are degenerate on purpose: entries in {-1, 0, 1}, k/3 and k/8 with
many zeros, rank-one first layers (L != 0, no vertex) and zero rows.
"""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

import complex_oracle
from conftest import net_of
from relugeom.cli import auto_threshold
from relugeom.complexes import build_complex, complex_to_json, refine_by_threshold
from relugeom.topology import NO, YES, decision_topology, max_subgraph

ARCHITECTURES = [
    (1, 2, 1), (2, 2, 1), (2, 3, 1), (2, 2, 2, 1), (3, 2, 1), (1, 2, 2, 1), (3, 2, 2, 1),
]


def sparse_entry(rng, den):
    """k/den in [-2, 2], zero half of the time."""
    return Fraction(0) if rng.random() < 0.5 else Fraction(rng.randint(-2 * den, 2 * den), den)


def layers_of(rng, arch, entry, first=None):
    """Random layers of an architecture, with the first layer's weights
    given or drawn, and about one row in five of each layer set to zero
    (weights, and the bias half of the time)."""
    layers = []
    for k, (n_in, n_out) in enumerate(zip(arch, arch[1:])):
        if k == 0 and first is not None:
            w = [list(row) for row in first]
        else:
            w = [[entry() for _ in range(n_in)] for _ in range(n_out)]
        b = [entry() for _ in range(n_out)]
        if k + 2 < len(arch):  # a hidden layer
            for j in range(n_out):
                if rng.random() < 0.2:
                    w[j] = [0] * n_in
                    b[j] = 0 if rng.random() < 0.5 else b[j]
        layers.append((w, b))
    return net_of(*layers)


def rank_one_rows(rng, n_in, n_out):
    """First-layer rows that are all multiples of one vector, zero included."""
    u = [rng.randint(-2, 2) for _ in range(n_in)]
    u[rng.randrange(n_in)] = rng.choice([-1, 1])
    return [[a * x for x in u] for a in (rng.randint(-2, 2) for _ in range(n_out))]


def plateau_net(rng, n0, sign):
    """F = sign·(c - sum of a_k·ReLU(±u_k·x + b)): a flat top (sign 1) or
    bottom (sign -1) on a polytope cut out by pairs of opposite rows, or by
    fewer when some a_k is 0, so its super- or sublevel sets have bounded
    components with flat edges."""
    rows, bias = [], []
    for _ in range(n0 + rng.randint(0, 1)):
        u = [rng.randint(-2, 2) for _ in range(n0)]
        u[rng.randrange(n0)] = rng.choice([-1, 1])
        lo = rng.randint(-2, 1)
        hi = lo + rng.randint(0, 2)
        rows += [u, [-x for x in u]]
        bias += [-hi, lo]  # u·x - hi <= 0 and lo - u·x <= 0 on the strip
    out = [-sign * rng.choice([0, 1, 1, 2, Fraction(1, 3)]) for _ in rows]
    return net_of((rows, bias), ([out], [sign * rng.randint(1, 3)]))


def degenerate_nets():
    rng = random.Random(2207)
    for k in range(70):
        arch = ARCHITECTURES[k % len(ARCHITECTURES)]
        family = k % 5
        if family == 0:  # bound 1
            yield layers_of(rng, arch, lambda: rng.randint(-1, 1))
        elif family in (1, 2):  # k/3 and k/8
            den = 3 if family == 1 else 8
            yield layers_of(rng, arch, lambda: sparse_entry(rng, den))
        elif family == 3:  # rank-one first layer, integer entries
            first = rank_one_rows(rng, arch[0], arch[1])
            yield layers_of(rng, arch, lambda: rng.randint(-2, 2), first)
        else:  # rank-one first layer, entries k/3
            first = [[Fraction(x, 3) for x in row] for row in rank_one_rows(rng, arch[0], arch[1])]
            yield layers_of(rng, arch, lambda: sparse_entry(rng, 3), first)
    for k in range(40):
        yield plateau_net(rng, 1 + k % 3, 1 if k % 2 else -1)


def thresholds(cpx):
    """Two values of F on a constant cell, and thresholds off them: auto,
    past the largest, and between the two largest and the two smallest."""
    bad = sorted(cpx.constant_values)
    inside = [bad[0], bad[-1]]
    outside = {auto_threshold(cpx), bad[-1] + Fraction(1, 3)}
    if len(bad) > 1:
        outside |= {(bad[0] + bad[1]) / 2, (bad[-2] + bad[-1]) / 2}
    return inside, sorted(outside)


def dump(cpx) -> str:
    return json.dumps(complex_to_json(cpx), sort_keys=True)


def oracle_flat_edges(cert, comp, oracle_refined):
    """The 1-cells of the component on which F is constant, by the oracle's
    equality bases, and equal to the extreme value."""
    flat = []
    for key in comp.cells:
        cell = oracle_refined.cells[key]
        w, _ = cell.restriction.row(0)
        if cell.dim == 1 and cell.eq_basis.contains(w):
            if cell.value(cell.witness) == cert.extreme_value:
                flat.append(key[:-1])
    return tuple(sorted(flat))


@pytest.fixture(scope="module")
def runs():
    """Per net: the complex and the oracle's."""
    out = []
    for net in degenerate_nets():
        out.append((build_complex(net), complex_oracle.build_complex(net)))
    return out


def test_node_failures_match_the_equality_bases(runs):
    seen = Counter()
    for cpx, oracle in runs:
        assert cpx.node_failures == oracle.node_failures, cpx.network
        for ref in cpx.node_failures:
            seen[ref.layer] += 1
        seen["lineality", bool(cpx.lineality)] += bool(cpx.node_failures)
    # failures in both layers, on complexes with and without vertices
    assert seen[0] >= 10 and seen[1] >= 10, seen
    assert seen["lineality", True] >= 5 and seen["lineality", False] >= 5, seen


def test_constant_values_match_the_equality_bases(runs):
    """On the base complex, and refined at thresholds both on and off its
    constant values; the refined complexes equal the oracle's too."""
    seen = Counter()
    for cpx, oracle in runs:
        assert cpx.constant_values == complex_oracle.constant_values(oracle), cpx.network
        seen["no vertex"] += bool(cpx.lineality)
        inside, outside = thresholds(cpx)
        for t in inside + outside:
            refined = refine_by_threshold(cpx, t)
            expected = complex_oracle.refine_by_threshold(oracle, t)
            assert dump(refined) == dump(expected), (cpx.network, t)
            values = complex_oracle.constant_values(expected)
            assert refined.constant_values == values, (cpx.network, t)
            # the level set holds a whole cell iff t is a constant value
            whole = any(
                c.sign[-1] == 0 and c.dim == cpx.cells[c.sign[:-1]].dim
                for c in refined.cells.values()
            )
            assert whole == (t in cpx.constant_values), (cpx.network, t)
            seen["on" if whole else "off"] += 1
    assert seen["no vertex"] >= 15 and seen["on"] >= 100 and seen["off"] >= 100, seen


def test_flat_edges_match_the_equality_bases(runs):
    """max_subgraph's flat edges, read off the witness values, against the
    1-cells on which the oracle finds F constant at the extreme value."""
    seen = Counter()
    for cpx, oracle in runs:
        _, outside = thresholds(cpx)
        for t in outside:
            topo = decision_topology(cpx, t)
            expected = complex_oracle.refine_by_threshold(oracle, t)
            for region in (YES, NO):
                for index, comp in enumerate(topo.components(region)):
                    if not comp.bounded:
                        continue
                    cert = max_subgraph(topo, region, index)
                    flat = oracle_flat_edges(cert, comp, expected)
                    assert cert.flat_edges == flat, (cpx.network, t)
                    seen[region, bool(cert.flat_edges)] += 1
    # bounded components of both regions, with and without flat edges
    assert all(seen[region, flat] >= 5 for region in (YES, NO) for flat in (True, False)), seen
