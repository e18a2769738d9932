"""Differential test: decision topology on the unrefined complex against the
refinement oracle, and the laziness of the refinement.

``topology.decision_topology`` reads which regions a cell meets, and
whether its pieces are bounded, off F at the minimal faces and F's slope
along the rays of the cell's closure; ``topology_oracle`` refines the
complex and asks ``cell_bounded`` about every refined cell.  Both must give
the same components, in the same order, with the same bounded flags, at a
threshold in every gap between consecutive constant values of F and
outside them all.  The nets include complexes without a vertex (width below
the input dimension), entries k/3 and k/8, and entries in {-1, 0, 1} with
zero rows, whose pieces have flat rays.
"""

import json
import random
import sys
from fractions import Fraction

import pytest

import topology_oracle
from conftest import net_of, random_net, rational_net, simplex_net
from relugeom import complexes
from relugeom.complexes import build_complex, complex_to_json
from relugeom.harness import ExperimentConfig, run_trial
from relugeom.svg import render_svg
from relugeom.topology import BOUNDARY, NO, YES, decision_topology, max_subgraph

ARCHITECTURES = [
    (1, 3, 1), (2, 3, 1), (2, 4, 1), (2, 2, 2, 1), (3, 3, 1, 1), (2, 1, 1),
    (3, 4, 1), (2, 3, 3, 1), (3, 2, 2, 1), (1, 2, 2, 1), (4, 3, 1), (3, 1, 2, 1),
]
NETS_PER_KIND = 10  # per architecture: entries in [-2, 2], [-4, 4], k/3, k/8, {-1, 0, 1}


def zero_row_net(rng: random.Random, arch):
    """Entries in {-1, 0, 1}, and about one hidden row in four zero."""
    layers = []
    for k, (n_in, n_out) in enumerate(zip(arch, arch[1:])):
        w = [[rng.randint(-1, 1) for _ in range(n_in)] for _ in range(n_out)]
        b = [rng.randint(-1, 1) for _ in range(n_out)]
        if k + 2 < len(arch):
            for j in range(n_out):
                if rng.random() < 0.25:
                    w[j] = [0] * n_in
        layers.append((w, b))
    return net_of(*layers)


def sample_nets():
    rng = random.Random(2311)
    for _ in range(NETS_PER_KIND):
        for arch in ARCHITECTURES:
            for bound in (2, 4):
                yield random_net(rng, arch, -bound, bound)
            for den in (3, 8):
                yield rational_net(rng, arch, den)
            yield zero_row_net(rng, arch)


def thresholds(cpx):
    """One threshold in every gap between consecutive constant values of F,
    and one below and one above them all."""
    values = sorted(cpx.constant_values)
    inside = [(a + b) / 2 for a, b in zip(values, values[1:])]
    return [values[0] - Fraction(1, 2)] + inside + [values[-1] + Fraction(1, 2)]


def dump(data) -> str:
    return json.dumps(data, sort_keys=True)


@pytest.fixture(scope="module")
def cases():
    """(complex, threshold) pairs."""
    out = []
    for net in sample_nets():
        cpx = build_complex(net)
        out += [(cpx, t) for t in thresholds(cpx)]
    return out


def test_the_cases_decide(cases):
    """Enough cases have a bounded component of each region, or a complex
    without a vertex, that a wrong rule shows."""
    seen = {YES: 0, BOUNDARY: 0, NO: 0, "no vertex": 0}
    for cpx, t in cases:
        topo = decision_topology(cpx, t)
        for region, count in topo.bounded_counts().items():
            seen[region] += bool(count)
        seen["no vertex"] += bool(cpx.lineality)
    assert len(cases) > 1500
    assert min(seen.values()) > 20, seen


def test_topology_matches_the_refinement_oracle(cases):
    for cpx, t in cases:
        topo = decision_topology(cpx, t)
        want, refined = topology_oracle.decision_topology(cpx, t)
        assert topo == want, (cpx.network, t)
        assert dump(topo.to_json()) == dump(want.to_json())
        assert dump(complex_to_json(topo.complex)) == dump(complex_to_json(refined))


def _spy(monkeypatch, name: str) -> list:
    """Count the calls of ``complexes.<name>`` through every relugeom module
    that binds it."""
    original = getattr(complexes, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "relugeom" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("check, architecture", [("johnson", (3, 3, 1, 1)), ("one_bounded", (2, 3, 1))])
def test_trials_neither_refine_nor_ask_cell_bounded(monkeypatch, check, architecture):
    refined = _spy(monkeypatch, "refine_by_threshold")
    asked = _spy(monkeypatch, "cell_bounded")
    cfg = ExperimentConfig(architecture=architecture, trials=20, seed=7, check=check)
    records = [run_trial(cfg, index) for index in range(cfg.trials)]
    assert sum(record.threshold is not None for record in records) >= 15
    assert refined == [] and asked == []


def test_the_refinement_runs_once_when_read(monkeypatch):
    refined = _spy(monkeypatch, "refine_by_threshold")
    topo = decision_topology(build_complex(simplex_net()), Fraction(1, 4))
    assert refined == []
    render_svg(topo)
    max_subgraph(topo, NO, 0)
    assert len(refined) == 1
    assert topo.complex is topo.complex
    assert len(refined) == 1
