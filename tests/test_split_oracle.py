"""Differential test: the LP-free split against the per-cell LP oracle.

``complexes`` finds a point on each side of a cut from the face lattice of
the complex it cuts; ``complex_oracle`` asks an exact LP per side.  Both must
give the same complex, byte for byte, and the new split must make no LP.
"""

import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import complex_oracle
from cellhelpers import contains, mask_in_closure, sign_mask
from conftest import rational_net, random_net
from relugeom import complexes, lp, topology
from relugeom.cli import auto_threshold
from relugeom.complexes import cell_forms, complex_to_json
from relugeom.linalg import dot, idot

ARCHITECTURES = [
    (1, 3, 1), (2, 3, 1), (2, 4, 1), (2, 2, 2, 1), (3, 3, 1, 1), (2, 1, 1),
    (3, 4, 1), (2, 3, 3, 1), (3, 2, 2, 1), (1, 2, 2, 1), (4, 3, 1), (3, 1, 2, 1),
]
NETS = 240  # 20 per architecture, half with entries in [-2, 2], half in [-4, 4]
RATIONAL_NETS = 48  # 4 per architecture, entries k/8 or k/3 in [-2, 2]


def sample_nets():
    rng = random.Random(2027)
    for k in range(NETS):
        bound = 2 if (k // len(ARCHITECTURES)) % 2 else 4
        yield random_net(rng, ARCHITECTURES[k % len(ARCHITECTURES)], -bound, bound)
    for k in range(RATIONAL_NETS):
        den = 8 if (k // len(ARCHITECTURES)) % 2 else 3
        yield rational_net(rng, ARCHITECTURES[k % len(ARCHITECTURES)], den)


def split_case(faces, cell, f, side) -> int:
    """Which of the four cases decides a side: 1 the form moves along the
    lineality space, 2 a minimal face of the closure lies on that side, 3 a
    ray of the closure points into it, 4 the side misses the cell.  The
    minimal faces (the dim L-cells) and the rays (the (dim L + 1)-cells with
    one minimal face in their closure) are found here from the cells and
    the mask oracle, apart from the split's own index."""
    if any(idot(f, line) for line in faces.lineality):
        return 1
    k = len(faces.lineality)
    minimal = [(sign_mask(c.sign), c.point) for c in faces.cells if c.dim == k]
    mask = sign_mask(cell.sign)
    if any(mask_in_closure(m, mask) and side * idot(f, u) > 0 for m, u in minimal):
        return 2
    for ray in faces.cells:
        m = sign_mask(ray.sign)
        if ray.dim != k + 1 or not mask_in_closure(m, mask):
            continue
        ends = [u for mu, u in minimal if mask_in_closure(mu, m)]
        if len(ends) == 1:
            u, p = ends[0], ray.point
            direction = [u[-1] * x - p[-1] * y for x, y in zip(p, u)]
            if side * idot(f, direction) > 0:
                return 3
    return 4


def spy_on_lp(mp, calls):
    """Record every call of the LP entry points, under every name a loaded
    relugeom module binds them to."""
    for name in ("feasible_point", "lp_optimize"):
        original = getattr(lp, name)

        def spy(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "relugeom":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        mp.setattr(module, attr, spy)


@pytest.fixture(scope="module")
def runs():
    """Per net: the LP-free complex and its refinement at the auto
    threshold, then the oracle's; plus the split cases hit and the LP calls
    the LP-free construction made."""
    cases = Counter()
    lp_calls = []
    new_lps = 0
    split = complexes._Faces.side_witness

    def spy_split(faces, cell, f, v, side):
        point = split(faces, cell, f, v, side)
        case = split_case(faces, cell, f, side)
        assert (point is None) == (case == 4)
        cases[case] += 1
        if not any(other.dim == 0 for other in faces.cells):
            cases[case, "no vertex"] += 1
        return point

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes._Faces, "side_witness", spy_split)
        spy_on_lp(mp, lp_calls)
        for net in sample_nets():
            before = len(lp_calls)
            cpx = complexes.build_complex(net)
            t = auto_threshold(cpx)
            refined = complexes.refine_by_threshold(cpx, t)
            new_lps += len(lp_calls) - before
            expected = complex_oracle.build_complex(net)
            out.append((cpx, refined, expected, complex_oracle.refine_by_threshold(expected, t)))
    return out, cases, new_lps, len(lp_calls)


def dump(cpx) -> str:
    return json.dumps(complex_to_json(cpx), sort_keys=True)


def test_complexes_match_the_oracle(runs):
    pairs, _, _, _ = runs
    for cpx, refined, expected, expected_refined in pairs:
        assert dump(cpx) == dump(expected)
        assert dump(refined) == dump(expected_refined)
        assert cpx.node_failures == expected.node_failures


def test_witnesses_lie_in_their_cells(runs):
    pairs, _, _, _ = runs
    for cpx, refined, _, _ in pairs:
        for source in (cpx, refined):
            for cell in source.cells.values():
                assert contains(source, cell, cell.witness)


def test_cell_forms_match_the_oracle_rows(runs):
    """cell_forms recomposes, from the network and the sign vector, the
    rows that the oracle's cells were cut out by, the level form included."""
    pairs, _, _, _ = runs
    cells = 0
    for cpx, refined, expected, expected_refined in pairs:
        for source, oracle in ((cpx, expected), (refined, expected_refined)):
            for sign, cell in source.cells.items():
                assert cell_forms(source, cell) == oracle.cells[sign].rows, (source.network, sign)
                cells += 1
    assert cells > 10000


def test_every_split_case_is_hit(runs):
    _, cases, _, _ = runs
    assert all(cases[case] >= 100 for case in (1, 2, 3, 4)), cases
    assert cases[2, "no vertex"] >= 100 and cases[3, "no vertex"] >= 100, cases
    assert cases[1, "no vertex"] == cases[1], cases  # a moving form means L != 0


def test_construction_makes_no_lp(runs):
    _, _, new_lps, all_lps = runs
    assert new_lps == 0
    assert all_lps > 1000  # the spy sees the oracle's LPs


def test_bounded_checks_do_not_follow_the_witnesses(runs):
    """decision_topology asks cell_bounded about the same cells, in the same
    order, and gives the same answer on the LP-free complex as on the
    oracle's, whose witnesses and so whose cell order differ."""
    pairs, _, _, _ = runs
    original = topology.cell_bounded
    asked = []

    def spy(cpx, cell):
        asked.append(cell.sign)
        return original(cpx, cell)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "cell_bounded", spy)
        for cpx, refined, expected, _ in pairs:
            seen = []
            for source in (cpx, expected):
                asked.clear()
                out = topology.decision_topology(source, refined.threshold).to_json()
                seen.append((list(asked), json.dumps(out, sort_keys=True)))
            assert seen[0] == seen[1], cpx.network


def test_constant_values_match_the_fraction_views(runs):
    """constant_values reads F's integer row at the integer witness; the
    Fraction views of the restriction give the same values."""
    pairs, _, _, _ = runs
    nonempty = 0
    for cpx, refined, _, _ in pairs:
        for source in (cpx, refined):
            expected = set()
            for cell in source.cells.values():
                w, c = cell.restriction.row(0)
                if cell.eq_basis.contains(w):
                    expected.add(dot(w, cell.witness) + c)
            assert source.constant_values == expected
            nonempty += bool(expected)
    assert nonempty > 100


def test_refinement_at_a_fractional_threshold_matches_the_oracle(runs):
    """auto_threshold mostly picks integers; at t = p/q with 3 | q the level
    form (q·w', q·c' - p·den) of F - t is scaled by q > 1."""
    pairs, _, _, _ = runs
    for cpx, refined, expected, _ in pairs:
        t = refined.threshold + Fraction(1, 3 * refined.threshold.denominator)
        assert t.denominator % 3 == 0
        got = complexes.refine_by_threshold(cpx, t)
        assert dump(got) == dump(complex_oracle.refine_by_threshold(expected, t))
