"""What a build makes before anything reads it.

``build_complex`` gives the cells of its last layer their activation
pattern's maps on first read, once per pattern, and a split pass indexes
the minimal faces only when the lineality space L does not answer its side
test.  These tests count the maps and indexes that a trial makes.
"""

import random
from collections import Counter
from types import SimpleNamespace

import pytest

import complex_oracle
from conftest import random_net, rank_one_net
from relugeom import harness
from relugeom.affine import AffineMap
from relugeom.complexes import SignIndex, _ray_directions, build_complex
from relugeom.harness import DISTRIBUTIONS, ExperimentConfig, run_trial


@pytest.fixture
def made(monkeypatch):
    """Calls of AffineMap.compose and AffineMap.masked and SignIndex builds,
    and the (outer, inner) pair of each composition."""
    out = SimpleNamespace(calls=Counter(), composed=[], indexed=[])
    compose, masked, index = AffineMap.compose, AffineMap.masked, SignIndex.__init__

    def spy_compose(self, inner):
        out.calls["compose"] += 1
        out.composed.append((self, inner))
        return compose(self, inner)

    def spy_masked(self, bits):
        out.calls["masked"] += 1
        return masked(self, bits)

    def spy_index(self, cells):
        out.calls["index"] += 1
        out.indexed.append(cells)
        index(self, cells)

    monkeypatch.setattr(AffineMap, "compose", spy_compose)
    monkeypatch.setattr(AffineMap, "masked", spy_masked)
    monkeypatch.setattr(SignIndex, "__init__", spy_index)
    return out


def restrictions_made(made, net):
    """The prefixes that F's output layer was composed with."""
    return [inner for outer, inner in made.composed if outer is net.output_layer]


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_a_transversal_trial_makes_no_map_and_two_indexes(made, distribution):
    """The first two passes of a (2,3,1) build are answered along L, and
    only the third indexes its minimal faces and its rays; no prefix or
    restriction is made."""
    cfg = ExperimentConfig(
        (2, 3, 1), trials=1, seed=20240817, check="transversal", bound=100,
        distribution=distribution,
    )
    for index in range(40):
        made.calls.clear()
        run_trial(cfg, index)
        assert made.calls == {"index": 2}, (index, made.calls)


def test_passes_along_a_line_index_the_minimal_faces(made):
    """A rank-one planar net cuts R^2 into strips along one line L: every
    pass after the first is constant along L, so it finds the sides of a
    cell from the 1-cells, the minimal faces, which it indexes first."""
    rng = random.Random(25)
    for width in (2, 3, 4):
        net = rank_one_net(rng, width)
        made.indexed.clear()
        cpx = build_complex(net)
        oracle = complex_oracle.build_complex(net)
        assert len(cpx.lineality) == 1
        assert {k: c.dim for k, c in cpx.cells.items()} == {
            k: c.dim for k, c in oracle.cells.items()
        }
        minimal = made.indexed[0]
        assert minimal and all(c.dim == 1 for c in minimal)


def test_no_restriction_exists_until_one_is_read(made):
    net = random_net(random.Random(11), (2, 3, 2, 1), -4, 4)
    cpx = build_complex(net)
    cells = list(cpx.cells.values())
    assert not restrictions_made(made, net)
    assert not any("restriction" in c.__dict__ or "prefix" in c.__dict__ for c in cells)

    def pattern(cell):
        return tuple(s > 0 for s in cell.sign)

    first = cells[0]
    restriction = first.restriction
    assert restrictions_made(made, net) == [first.prefix]
    assert [c for c in cells if "restriction" in c.__dict__] == [first]
    # the other cells of the pattern get the same objects, and no new map
    calls = dict(made.calls)
    same = [c for c in cells if pattern(c) == pattern(first)]
    assert all(c.restriction is restriction and c.prefix is first.prefix for c in same)
    assert made.calls == calls
    assert len(same) > 1


def test_a_truncated_complex_has_prefixes_and_no_restriction():
    net = random_net(random.Random(12), (3, 4, 3, 1), -4, 4)
    cpx = build_complex(net, through_layers=1)
    for cell in cpx.cells.values():
        assert cell.prefix is not None and cell.restriction is None


def test_a_johnson_trial_composes_restrictions_only_at_minimal_faces_and_rays(
    made, monkeypatch
):
    built = []
    build = harness.build_complex

    def spy_build(net):
        built.append(build(net))
        return built[-1]

    monkeypatch.setattr(harness, "build_complex", spy_build)
    cfg = ExperimentConfig((3, 3, 1, 1), trials=1, seed=64002, check="johnson", bound=9)
    unread = 0
    for index in range(30):
        built.clear()
        made.composed.clear()
        record = run_trial(cfg, index)
        (cpx,) = built
        composed = restrictions_made(made, cpx.network)
        # the thresholds read F at the minimal faces, and the decision
        # topology its slope along the rays too
        k = len(cpx.lineality)
        read = [c for c in cpx.cells.values() if c.dim == k]
        if record.threshold is not None:
            read += _ray_directions(cpx.cells.values(), cpx.index, k)
        assert sorted(map(id, composed)) == sorted({id(c.prefix) for c in read})
        unread += sum("restriction" not in c.__dict__ for c in cpx.cells.values())
    assert unread > 0
