import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from cellhelpers import mask_in_closure, rows_contain, sign_mask
from conftest import net_of
from relugeom.arrangement import (
    CoorientedArrangement,
    SolutionSetArrangement,
    arrangement_rank,
    count_regions,
    derive_arrangement,
    enumerate_vertices,
    face_of_positive_region,
    is_generic,
    realizable_codes,
    region_interior_point,
    vertices_adjacent,
)
from relugeom.complexes import build_complex
from matrix_oracle import solve_square
from relugeom.linalg import dot, rank, vec
from relugeom.lp import LinearSystem, recession_cone_is_trivial


def fig1_arrangement():
    """Three co-oriented lines with 7 regions, 7 of 8 codes realizable:
    x = 0, y = 0, and x + y = 1, all pointing to the positive side."""
    return CoorientedArrangement.of(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), -1)])


def random_arrangement(rng, n, k, bound=9):
    rows = []
    while len(rows) < k:
        w = tuple(rng.randint(-bound, bound) for _ in range(n))
        if any(w):
            rows.append((w, rng.randint(-bound, bound)))
    return CoorientedArrangement.of(n, rows)


# --- derive_arrangement ------------------------------------------------------


def test_derive_drops_degenerate_rows():
    s = SolutionSetArrangement.of(2, [((0, 0), 1), ((1, 0), 0)])
    a = derive_arrangement(s)
    assert len(a) == 1
    assert a.hyperplanes[0] == (vec([1, 0]), Fraction(0))
    assert a.provenance == (1,)
    assert a._replace(provenance=(0,)).provenance == (0,)
    with pytest.raises(ValueError):
        a._replace(hyperplanes=((vec([0, 0]), Fraction(1)),))


def test_derive_is_identity_on_nonzero_rows():
    s = SolutionSetArrangement.of(2, [((1, 2), 3), ((-1, 0), 1)])
    a = derive_arrangement(s)
    assert a.hyperplanes == s.rows
    assert a.provenance == (0, 1)


def test_derive_whole_space_row_is_degenerate():
    s = SolutionSetArrangement.of(2, [((0, 0), 0)])
    assert len(derive_arrangement(s)) == 0


# --- is_generic --------------------------------------------------------------


def test_coordinate_axes_generic():
    assert is_generic(SolutionSetArrangement.of(2, [((1, 0), 0), ((0, 1), 0)]))


def test_parallel_lines_not_generic():
    assert not is_generic(SolutionSetArrangement.of(2, [((1, 0), 0), ((1, 0), -1)]))


def test_three_generic_lines_in_plane():
    # pairwise intersections are points, the triple intersection is empty
    assert is_generic(
        SolutionSetArrangement.of(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), -1)])
    )


def test_three_concurrent_lines_not_generic():
    assert not is_generic(
        SolutionSetArrangement.of(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)])
    )


def test_generic_implies_nondegenerate():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(1, 3)
        k = rng.randint(1, 4)
        rows = [
            (tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-3, 3))
            for _ in range(k)
        ]
        s = SolutionSetArrangement.of(n, rows)
        if is_generic(s):
            assert len(derive_arrangement(s)) == len(s.rows)


def test_square_map_invertible_iff_generic():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(1, 4)
        w = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        b = [rng.randint(-3, 3) for _ in range(n)]
        s = SolutionSetArrangement.of(n, list(zip(w, b)))
        invertible = solve_square(tuple(vec(r) for r in w), vec([0] * n)) is not None
        assert invertible == is_generic(s)


def exhaustive_is_generic(s):
    """The definition checked on all 2^k - 1 row subsets: the oracle for
    is_generic, which checks only the subsets that decide it."""
    n = s.ambient_dim
    if any(not any(w) for w, _ in s.rows):
        return False
    for p in range(1, len(s.rows) + 1):
        for subset in itertools.combinations(s.rows, p):
            weights = tuple(w for w, _ in subset)
            augmented = tuple(w + (b,) for w, b in subset)
            if p <= n:
                if rank(weights) != p or rank(augmented) != p:
                    return False
            elif rank(augmented) == rank(weights):
                return False
    return True


def test_is_generic_matches_exhaustive_oracle():
    rng = random.Random(2529)
    found = {True: 0, False: 0}
    for _ in range(1500):
        n = rng.randint(1, 4)
        rows = [
            (tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-2, 2))
            for _ in range(rng.randint(0, 6))
        ]
        if rows and rng.random() < 0.2:
            w, b = rng.choice(rows)
            rows.append((tuple(2 * x for x in w), rng.choice((2 * b, b + 1))))
        s = SolutionSetArrangement.of(n, rows)
        verdict = is_generic(s)
        assert verdict == exhaustive_is_generic(s), rows
        found[verdict] += 1
    assert min(found.values()) >= 300, found


# --- count_regions / realizable_codes ---------------------------------------


def test_fig1_has_seven_regions_and_seven_codes():
    a = fig1_arrangement()
    assert count_regions(a) == 7
    codes = realizable_codes(a)
    assert len(codes) == 7
    missing = set(itertools.product((0, 1), repeat=3)) - codes
    assert len(missing) == 1


def test_single_hyperplane_two_regions():
    a = CoorientedArrangement.of(3, [((1, 2, 3), -4)])
    assert count_regions(a) == 2
    assert realizable_codes(a) == {(0,), (1,)}


def test_generic_k_at_most_n_gives_2k_regions():
    rng = random.Random(44)
    done = 0
    while done < 25:
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        a = random_arrangement(rng, n, k)
        if not is_generic(SolutionSetArrangement(n, a.hyperplanes)):
            continue
        done += 1
        assert count_regions(a) == 2**k
        assert len(realizable_codes(a)) == 2**k


def test_empty_arrangement_single_region():
    a = CoorientedArrangement.of(2, [])
    assert count_regions(a) == 1
    assert realizable_codes(a) == {()}


def test_duplicate_hyperplanes_do_not_change_region_count():
    a = CoorientedArrangement.of(2, [((1, 0), 0), ((2, 0), 0), ((0, 1), 0)])
    assert count_regions(a) == 4
    assert len(realizable_codes(a)) == 4


def test_codes_count_matches_regions_on_random_arrangements():
    rng = random.Random(45)
    for _ in range(40):
        n = rng.randint(1, 3)
        k = rng.randint(1, 5)
        a = random_arrangement(rng, n, k, bound=3)
        assert len(realizable_codes(a)) == count_regions(a)


def test_no_bounded_regions_when_k_at_most_n():
    rng = random.Random(46)
    for _ in range(25):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        a = random_arrangement(rng, n, k)
        for code in realizable_codes(a):
            ineqs = []
            for (w, b), bit in zip(a.hyperplanes, code):
                ineqs.append((w, b) if bit else (tuple(-x for x in w), -b))
            system = LinearSystem.of(n, ineqs)
            assert not recession_cone_is_trivial(system)


# --- vertices ----------------------------------------------------------------


def test_axes_vertex_is_origin():
    a = CoorientedArrangement.of(2, [((1, 0), 0), ((0, 1), 0)])
    assert enumerate_vertices(a) == {vec([0, 0])}


def test_three_generic_lines_three_vertices():
    assert len(enumerate_vertices(fig1_arrangement())) == 3


def test_concurrent_lines_collapse_to_one_vertex():
    a = CoorientedArrangement.of(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)])
    assert enumerate_vertices(a) == {vec([0, 0])}


def test_vertices_match_bruteforce_in_dim2():
    rng = random.Random(47)
    for _ in range(20):
        a = random_arrangement(rng, 2, rng.randint(2, 4), bound=3)
        vertices = enumerate_vertices(a)
        # brute force: points on >= 2 hyperplanes whose normals span R^2
        brute = set()
        for (w1, b1), (w2, b2) in itertools.combinations(a.hyperplanes, 2):
            if rank((w1, w2)) != 2:
                continue
            p = solve_square((w1, w2), vec([-b1, -b2]))
            brute.add(p)
        assert vertices == brute


def test_all_vertices_adjacent_with_n_plus_one_hyperplanes():
    a = fig1_arrangement()  # 3 = n + 1 lines in the plane
    verts = sorted(enumerate_vertices(a))
    for p, q in itertools.combinations(verts, 2):
        assert vertices_adjacent(a, p, q)


def test_adjacent_convention_p_equals_q():
    a = fig1_arrangement()
    p = sorted(enumerate_vertices(a))[0]
    assert not vertices_adjacent(a, p, p)


def test_nonadjacent_vertices_with_four_lines():
    # vertical lines x=0, x=1, x=2 and the x-axis: (0,0) and (2,0) are
    # separated by the line x=1
    a = CoorientedArrangement.of(
        2, [((1, 0), 0), ((1, 0), -1), ((1, 0), -2), ((0, 1), 0)]
    )
    assert not vertices_adjacent(a, vec([0, 0]), vec([2, 0]))
    assert vertices_adjacent(a, vec([0, 0]), vec([1, 0]))


def test_square_diagonal_is_not_adjacent():
    # x = 0, x = 1, y = 0, y = 1: no line separates opposite corners of the
    # unit square, yet no edge joins them
    a = CoorientedArrangement.of(
        2, [((1, 0), 0), ((1, 0), -1), ((0, 1), 0), ((0, 1), -1)]
    )
    assert not vertices_adjacent(a, vec([0, 0]), vec([1, 1]))
    assert vertices_adjacent(a, vec([0, 0]), vec([1, 0]))


def test_adjacency_matches_one_layer_complex():
    """Two vertices are adjacent iff the closure of some 1-cell of the
    arrangement's one-layer complex holds both of their sign vectors."""
    rng = random.Random(83)
    answers = Counter()
    for _ in range(150):
        n = rng.randint(1, 3)
        a = random_arrangement(rng, n, rng.randint(1, 6), bound=2)
        weights = [w for w, _ in a.hyperplanes]
        bias = [b for _, b in a.hyperplanes]
        cpx = build_complex(net_of((weights, bias), ([[1] * len(a)], [0])))
        masks = {c.witness: sign_mask(k) for k, c in cpx.cells.items() if c.dim == 0}
        edges = [sign_mask(k) for k, c in cpx.cells.items() if c.dim == 1]
        assert set(masks) == enumerate_vertices(a)
        for p, q in itertools.combinations(sorted(masks), 2):
            expected = any(
                mask_in_closure(masks[p], e) and mask_in_closure(masks[q], e) for e in edges
            )
            assert vertices_adjacent(a, p, q) == expected, (a, p, q)
            answers[expected] += 1
    assert answers[True] > 0 and answers[False] > 0


def test_adjacency_requires_vertices():
    a = fig1_arrangement()
    with pytest.raises(ValueError):
        vertices_adjacent(a, vec([5, 5]), vec([0, 0]))


# --- face stratification -----------------------------------------------------


def test_face_of_standard_all_ones_is_orthant():
    a = CoorientedArrangement.of(2, [((1, 0), 0), ((0, 1), 0)])
    cell = face_of_positive_region(a, (1, 1))
    assert cell.dim == 2
    assert rows_contain(a.hyperplanes, cell.sign, vec([1, 1]))
    assert not rows_contain(a.hyperplanes, cell.sign, vec([-1, 1]))


def test_face_of_zero_code_is_origin():
    a = CoorientedArrangement.of(2, [((1, 0), 0), ((0, 1), 0)])
    cell = face_of_positive_region(a, (0, 0))
    assert cell.dim == 0
    assert cell.witness == vec([0, 0])


def test_face_dimension_is_code_weight():
    a = CoorientedArrangement.of(2, [((1, 0), 0), ((0, 1), 0)])
    cell = face_of_positive_region(a, (1, 0))
    assert cell.dim == 1
    # the nonnegative x-axis
    assert rows_contain(a.hyperplanes, cell.sign, vec([3, 0]))
    # the relative interior excludes the origin
    assert not rows_contain(a.hyperplanes, cell.sign, vec([0, 0]))
    assert rows_contain(a.hyperplanes, cell.sign, vec([0, 0]), closed=True)


def test_face_of_general_arrangement_preimage():
    a = CoorientedArrangement.of(2, [((1, 1), 0), ((1, -1), 0)])
    cell = face_of_positive_region(a, (1, 0))
    assert cell.dim == 1
    # face lies on the second hyperplane, on the positive side of the first
    p = cell.witness
    assert dot(vec([1, -1]), p) == 0
    assert dot(vec([1, 1]), p) > 0


def test_face_requires_square_generic():
    with pytest.raises(ValueError):
        face_of_positive_region(fig1_arrangement(), (1, 1, 1))
    bad = CoorientedArrangement.of(2, [((1, 0), 0), ((2, 0), 1)])
    with pytest.raises(ValueError):
        face_of_positive_region(bad, (1, 1))


def test_arrangement_rank_helper():
    assert arrangement_rank(fig1_arrangement()) == 2
    a = CoorientedArrangement.of(3, [((1, 0, 0), 0), ((2, 0, 0), 5)])
    assert arrangement_rank(a) == 1


def test_region_interior_point_matches_code():
    a = fig1_arrangement()
    for code in realizable_codes(a):
        p = region_interior_point(a, code)
        for (w, b), bit in zip(a.hyperplanes, code):
            v = dot(w, p) + b
            assert (v > 0) == bool(bit)
