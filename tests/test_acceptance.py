"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing the stated scale, exactness, and time budget.

Run with `pytest tests/test_acceptance.py -v` (add `-s` to see the summary
lines of passing criteria).
"""

import itertools
import random
import time
from fractions import Fraction

from cellhelpers import interior_points, is_face
from conftest import random_net, simplex_net
from gridoracle import grid_region_counts
from relugeom.arrangement import (
    CoorientedArrangement,
    SolutionSetArrangement,
    count_regions,
    is_generic,
    realizable_codes,
)
from relugeom.complexes import (
    bent_hyperplane_arrangement,
    build_complex,
    skeleton,
)
from relugeom.harness import ExperimentConfig, replay, run_experiment
from relugeom.lp import LinearSystem, recession_cone_is_trivial
from relugeom.network import evaluate, masked_affine
from relugeom.linalg import dot
from relugeom.topology import decision_topology, oriented_skeleton, verify_one_bounded
from relugeom.transversality import is_transversal_network, nontransversal_thresholds


class budget:
    """Asserts the criterion stays within its stated wall-clock budget."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"\n[acceptance] {self.name}: pass in {elapsed:.1f}s (budget {self.seconds}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded budget: {elapsed:.1f}s"
        return False


def random_generic_arrangement(rng, n, k):
    while True:
        rows = []
        for _ in range(k):
            w = tuple(rng.randint(-9, 9) for _ in range(n))
            rows.append((w, rng.randint(-9, 9)))
        s = SolutionSetArrangement.of(n, rows)
        if all(any(x != 0 for x in w) for w, _ in s.rows) and is_generic(s):
            return CoorientedArrangement.of(n, rows)


def random_arrangement(rng, n, k):
    rows = []
    while len(rows) < k:
        w = tuple(rng.randint(-9, 9) for _ in range(n))
        if any(w):
            rows.append((w, rng.randint(-9, 9)))
    return CoorientedArrangement.of(n, rows)


def test_criterion_01_region_counts():
    with budget("1: region counts (2^k and the 7-region figure)", 10):
        rng = random.Random(1001)
        for _ in range(100):
            n = rng.randint(1, 4)
            k = rng.randint(1, n)
            a = random_generic_arrangement(rng, n, k)
            assert count_regions(a) == 2**k
        fig1 = CoorientedArrangement.of(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), -1)])
        assert count_regions(fig1) == 7
        codes = realizable_codes(fig1)
        assert len(codes) == 7
        assert len(set(itertools.product((0, 1), repeat=3)) - codes) == 1


def test_criterion_02_no_bounded_regions_narrow():
    with budget("2: no bounded regions when k <= n", 30):
        rng = random.Random(1002)
        for _ in range(100):
            n = rng.randint(1, 4)
            k = rng.randint(1, n)
            a = random_arrangement(rng, n, k)
            for code in realizable_codes(a):
                ineqs = [
                    (w, b) if bit else (tuple(-x for x in w), -b)
                    for (w, b), bit in zip(a.hyperplanes, code)
                ]
                assert not recession_cone_is_trivial(LinearSystem.of(n, ineqs))


def test_criterion_03_linear_on_cells():
    with budget("3: F affine on every cell of 50 deep nets", 120):
        rng = random.Random(1003)
        for _ in range(50):
            net = random_net(rng, (2, 3, 2, 1), -9, 9)
            cpx = build_complex(net)
            for cell in cpx.cells.values():
                for p in interior_points(cpx, cell, rng, 3):
                    assert cell.value(p) == evaluate(net, p)


def test_criterion_04_skeleton_identification():
    with budget("4: BHA = low skeleton, regions = top cells (Theorem 2 shape)", 120):
        rng = random.Random(1004)
        for arch in ((2, 3, 1), (2, 2, 2, 1)):
            done = 0
            while done < 25:
                net = random_net(rng, arch, -9, 9)
                report = is_transversal_network(net)
                if not (report.generic and report.transversal):
                    continue
                done += 1
                cpx = build_complex(net)
                bha_keys = {c.sign for c in bent_hyperplane_arrangement(cpx)}
                low_keys = {c.sign for c in skeleton(cpx, 1)}
                assert bha_keys == low_keys
                no_zero = {k for k in cpx.cells if 0 not in k}
                top = {k for k, c in cpx.cells.items() if c.dim == 2}
                assert no_zero == top


def test_criterion_05_almost_every_net_transversal():
    with budget("5: 500 sampled nets, >= 499 generic and transversal", 300):
        cfg = ExperimentConfig(
            architecture=(2, 3, 1),
            trials=500,
            seed=20240817,
            check="transversal",
            bound=100,
        )
        summary, records = run_experiment(cfg)
        good = sum(1 for r in records if r.generic and r.transversal)
        assert good >= 499, f"only {good}/500 generic+transversal"
        for record in records:
            if record.verdict != "pass":
                # every failure must carry a replayable record
                assert replay(record.to_json()) == record.verdict


def test_criterion_06_johnson_no_bounded_components():
    with budget("6: zero bounded components for narrow nets (Theorem 4)", 600):
        for arch, trials, seed in (((2, 2, 1), 200, 64001), ((3, 3, 3, 1), 50, 64002)):
            cfg = ExperimentConfig(
                architecture=arch, trials=trials, seed=seed, check="johnson", bound=9
            )
            summary, records = run_experiment(cfg)
            assert summary.verdicts.get("fail", 0) == 0
            assert summary.verdicts.get("not_applicable", 0) == 0
            assert summary.max_bounded == {"yes": 0, "boundary": 0, "no": 0}
            threshold_hits = summary.verdicts.get("pass", 0)
            assert threshold_hits >= trials - 1  # random draws virtually never exhaust retries


def test_criterion_07_one_bounded_component():
    with budget("7: at most one bounded component for (n, n+1, 1) (Theorem 5)", 600):
        for arch, trials, seed in (((2, 3, 1), 200, 75001), ((3, 4, 1), 20, 75002)):
            cfg = ExperimentConfig(
                architecture=arch, trials=trials, seed=seed, check="one_bounded", bound=9
            )
            summary, _ = run_experiment(cfg)
            assert summary.verdicts.get("fail", 0) == 0
            assert summary.verdicts.get("not_applicable", 0) == 0
            assert summary.max_bounded["yes"] <= 1
            assert summary.max_bounded["no"] <= 1
        outcome = verify_one_bounded(build_complex(simplex_net()), Fraction(1, 4))
        assert outcome.status == "pass"
        assert outcome.bounded_counts["no"] == 1


def test_criterion_08_orientation_formula():
    with budget("8: two-point orientation equals the masked Hadamard sign", 60):
        rng = random.Random(1008)
        done = 0
        while done < 50:
            net = random_net(rng, (2, 3, 1), -9, 9)
            report = is_transversal_network(net)
            if not (report.generic and report.transversal):
                continue
            done += 1
            cpx = build_complex(net)
            skel = oriented_skeleton(cpx)
            for key, edge in skel.edges.items():
                adjacent = [
                    k for k, c in cpx.cells.items() if c.dim == 2 and is_face(key, k)
                ]
                assert adjacent
                bits = tuple(
                    1 if all(k[u] > 0 for k in adjacent) else 0 for u in range(3)
                )
                grad = masked_affine(net, (bits,)).weights[0]
                v = dot(grad, edge.direction)
                combinatorial = 1 if v > 0 else -1 if v < 0 else 0
                assert combinatorial == edge.orientation


def test_criterion_09_boundary_sandwich():
    with budget("9: every boundary cell is a face of a Y cell and an N cell", 60):
        rng = random.Random(1009)
        done = 0
        while done < 50:
            net = random_net(rng, (2, 3, 1), -9, 9)
            cpx = build_complex(net)
            bad = nontransversal_thresholds(cpx)
            t = Fraction(rng.randint(-64, 64), 16)
            if t in bad:
                continue
            done += 1
            topo = decision_topology(cpx, t)
            yes_keys = [k for comp in topo.yes for k in comp.cells]
            no_keys = [k for comp in topo.no for k in comp.cells]
            for comp in topo.boundary:
                for bk in comp.cells:
                    assert any(is_face(bk, yk) for yk in yes_keys)
                    assert any(is_face(bk, nk) for nk in no_keys)


def test_criterion_10_grid_oracle_equivalence():
    with budget("10: cell-graph component counts match grid flood fill", 120):
        rng = random.Random(1010)
        done = 0
        while done < 10:
            arch = (2, 3, 1) if done % 2 == 0 else (2, 2, 2, 1)
            net = random_net(rng, arch, -5, 5)
            cpx = build_complex(net)
            bad = nontransversal_thresholds(cpx)
            t = Fraction(rng.randint(-32, 32), 16)
            if t in bad:
                continue
            done += 1
            topo = decision_topology(cpx, t)
            exact = (len(topo.yes), len(topo.no))
            approx = grid_region_counts(net, t, 64, cpx)
            if approx != exact:
                approx = grid_region_counts(net, t, 256, cpx)
            assert approx == exact, f"grid oracle disagrees: {approx} vs {exact}"
