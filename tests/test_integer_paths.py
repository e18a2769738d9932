"""The integer paths of an experiment trial against the paths they replace.

A trial draws its network straight into integer rows, decides genericity
on those rows, answers span membership from a basis's rank where the rank
decides it, and computes only the flags its record holds.  Each test checks
one of these against the slower path it replaced, kept here as an oracle.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import net_of, random_net, rational_net
from matrix_oracle import RowBasis
from relugeom.affine import AffineMap
from relugeom.arrangement import is_generic, layer_arrangement
from relugeom.complexes import CanonicalComplex
from relugeom.harness import (
    CHECKS,
    DISTRIBUTIONS,
    ExperimentConfig,
    _trial_rng,
    replay,
    run_experiment,
    run_trial,
    sample_network,
)
from relugeom.linalg import is_zero_vec, rank
from relugeom.network import ReluNetwork, classify_layers, network_hash, network_to_json
from relugeom.transversality import analyze_network


# --- the sampler -------------------------------------------------------------


def draw_parameter(cfg, rng):
    """One weight or bias as the Fraction sampler drew it."""
    if cfg.distribution == "integer":
        return Fraction(rng.randint(-cfg.bound, cfg.bound))
    q = 2**cfg.dyadic_exp
    return Fraction(rng.randint(-cfg.bound * q, cfg.bound * q), q)


def fraction_sample(cfg, rng):
    """The Fraction sampler: every weight, then every bias, of each layer."""
    layers = []
    arch = cfg.architecture
    for n_in, n_out in zip(arch, arch[1:]):
        w = [[draw_parameter(cfg, rng) for _ in range(n_in)] for _ in range(n_out)]
        b = [draw_parameter(cfg, rng) for _ in range(n_out)]
        layers.append(AffineMap.of(w, b))
    return ReluNetwork(tuple(layers))


ARCHITECTURES = [(1, 1, 1), (2, 3, 1), (3, 3, 1, 1), (2, 4, 2, 1), (4, 2, 3, 1)]


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_sampler_matches_the_fraction_sampler(distribution):
    reduced = 0
    for arch, seed, (bound, exp) in itertools.product(
        ARCHITECTURES, range(4), [(9, 3), (0, 3), (100, 0), (2, 5), (1, 1)]
    ):
        cfg = ExperimentConfig(
            arch, trials=3, seed=seed, distribution=distribution, bound=bound, dyadic_exp=exp
        )
        for index in range(3):
            ours, theirs = _trial_rng(cfg, index), _trial_rng(cfg, index)
            net = sample_network(cfg, index, ours)
            assert net == fraction_sample(cfg, theirs)
            # the thresholds drawn after the network come from the same stream
            assert ours.getstate() == theirs.getstate()
            assert sample_network(cfg, index) == net
            reduced += bound > 0 and any(layer.den < 2**exp for layer in net.layers)
    if distribution == "dyadic":
        assert reduced >= 30, reduced  # layers whose entries share a factor 2


# --- genericity ----------------------------------------------------------------


def fraction_is_generic(layer):
    """The Fraction path: ranks of the layer's Fraction weight and augmented
    rows, on the subsets that decide general position."""
    rows = layer_arrangement(layer).rows
    n = layer.in_dim
    if any(is_zero_vec(w) for w, _ in rows):
        return False
    p = min(len(rows), n)
    if any(rank(tuple(w for w, _ in s)) != p for s in itertools.combinations(rows, p)):
        return False
    subsets = itertools.combinations(rows, n + 1)
    return all(rank(tuple(w + (b,) for w, b in s)) != n for s in subsets)


# first layers of planar nets: a zero row, parallel rows, coincident rows,
# three concurrent rows, and a generic triple
HAND_BUILT = [
    ([[0, 0], [1, 2]], [3, 0]),
    ([[1, 2], [2, 4]], [0, 1]),
    ([["1/2", 1], [2, 4]], [1, 4]),
    ([[1, 0], [0, 1], [1, 1]], [0, 0, 0]),
    ([[1, 0], [0, 1], [1, 1]], [0, 0, -1]),
]


def genericity_nets():
    rng = random.Random(4821)
    for first in HAND_BUILT:
        yield net_of(first, ([[1] * len(first[1])], [0]))
    for distribution, bound in itertools.product(DISTRIBUTIONS, (1, 2, 9)):
        cfg = ExperimentConfig(
            (2, 3, 2, 1), trials=1, seed=bound, distribution=distribution, bound=bound, dyadic_exp=1
        )
        yield from (sample_network(cfg, index) for index in range(40))
    for _ in range(40):
        yield random_net(rng, rng.choice(ARCHITECTURES), -2, 2)
        yield rational_net(rng, rng.choice(ARCHITECTURES), rng.choice((3, 8)))


def test_classify_layers_matches_the_fraction_rows():
    seen = {True: 0, False: 0}
    degenerate = 0
    for net in genericity_nets():
        classes = classify_layers(net)
        for layer, got in zip(net.layers, classes.layers):
            want = fraction_is_generic(layer)
            assert got.generic == is_generic(layer_arrangement(layer)) == want
            assert got.degenerate == any(is_zero_vec(w) for w in layer.weights)
            seen[want] += 1
            degenerate += got.degenerate
        assert classes.generic == all(c.generic for c in classes.layers)
    assert min(seen.values()) > 50 and degenerate > 20, (seen, degenerate)


def test_hand_built_layers():
    nets = [net_of(first, ([[1] * len(first[1])], [0])) for first in HAND_BUILT]
    verdicts = [classify_layers(net).layers[0] for net in nets]
    assert [c.generic for c in verdicts] == [False, False, False, False, True]
    assert [c.degenerate for c in verdicts] == [True, False, False, False, False]


# --- span membership -------------------------------------------------------------


@pytest.mark.parametrize("den", [1, 6], ids=["int", "fraction"])
def test_contains_matches_full_elimination(den):
    """On bases of every rank 0..dim: zero, in-span and random probes."""
    rng = random.Random(1968 + den)

    def entry():
        k = rng.randint(-3 * den, 3 * den)
        return k if den == 1 else Fraction(k, den)

    answers = {True: 0, False: 0}
    for dim in range(1, 6):
        for target in range(dim + 1):
            for _ in range(6):
                basis, rows = RowBasis(dim), []
                while basis.rank < target:
                    row = tuple(entry() for _ in range(dim))
                    if basis.add(row):
                        rows.append(row)
                probes = [tuple(0 * entry() for _ in range(dim))]
                probes += [tuple(entry() for _ in range(dim)) for _ in range(4)]
                for a, b in itertools.combinations(rows, 2):
                    k = rng.randint(-3, 3)
                    probes.append(tuple(x + k * y for x, y in zip(a, b)))
                probes += rows
                for probe in probes:
                    inside = rank(rows + [probe]) == len(rows)
                    assert basis.contains(probe) == inside, (rows, probe)
                    answers[inside] += 1
    assert min(answers.values()) > 100, answers


# --- what a trial computes --------------------------------------------------------


def test_a_transversal_trial_reads_no_thresholds(monkeypatch):
    reads = []
    values = CanonicalComplex.constant_values.func

    def spy(cpx):
        reads.append(cpx)
        return values(cpx)

    monkeypatch.setattr(CanonicalComplex, "constant_values", property(spy))
    for distribution in DISTRIBUTIONS:
        cfg = ExperimentConfig(
            (2, 3, 1), trials=10, seed=5, check="transversal", distribution=distribution
        )
        run_experiment(cfg)
    assert reads == []
    run_trial(ExperimentConfig((2, 3, 1), trials=1, seed=5, check="one_bounded"), 0)
    assert reads  # the spy sees a trial that chooses a threshold


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
@pytest.mark.parametrize("check", CHECKS)
def test_trial_flags_match_the_report(check, distribution):
    # bound 1 draws many degenerate nets, so both values of each flag occur
    arch = (2, 2, 1) if check == "johnson" else (2, 3, 1)
    cfg = ExperimentConfig(
        arch, trials=30, seed=77, check=check, distribution=distribution, bound=1, dyadic_exp=1
    )
    _, records = run_experiment(cfg)
    flags = set()
    for record in records:
        net = sample_network(cfg, record.index)
        _, report = analyze_network(net)
        assert (record.generic, record.transversal) == (report.generic, report.transversal)
        assert record.network == network_to_json(net)
        assert record.net_hash == network_hash(net)
        assert replay(json.loads(json.dumps(record.to_json()))) == record.verdict
        flags.update((("generic", record.generic), ("transversal", record.transversal)))
    assert len(flags) == 4, flags
