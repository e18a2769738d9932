import random
from fractions import Fraction

import pytest

from relugeom.linalg import (
    RowBasis,
    affine_solution,
    dot,
    mat,
    mat_mul,
    nullspace,
    rank,
    rat,
    rat_str,
    solve_square,
    transpose,
    vec,
)


def test_rat_parses_integers_fractions_and_decimals_exactly():
    assert rat("7") == 7
    assert rat("-12/5") == Fraction(-12, 5)
    assert rat("0.25") == Fraction(1, 4)
    assert rat("-1.1") == Fraction(-11, 10)
    assert rat(3) == 3
    assert rat(Fraction(2, 6)) == Fraction(1, 3)


def test_rat_rejects_garbage_and_floats():
    with pytest.raises(ValueError):
        rat("1/0")
    with pytest.raises(ValueError):
        rat("abc")
    with pytest.raises(TypeError):
        rat(0.25)
    with pytest.raises(TypeError):  # JSON true must not pass as the rational 1
        rat(True)


def test_rat_str_roundtrip():
    for s in ["3/4", "-2", "0", "7/3"]:
        assert rat_str(rat(s)) == s


def test_rank_identity_is_two():
    assert rank(mat([[1, 0], [0, 1]])) == 2


def test_rank_zero_matrix_is_zero():
    assert rank(mat([[0, 0, 0]] * 3)) == 0


def test_rank_dependent_rows():
    # hand elimination: (2,0) is a multiple of (1,0)
    assert rank(mat([[1, 0], [2, 0], [0, 1]])) == 2


def test_rank_equals_rank_of_transpose_on_random_matrices():
    rng = random.Random(20240)
    for _ in range(60):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        m = mat([[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)])
        assert rank(m) == rank(transpose(m))


def test_solve_square():
    m = mat([[2, 0], [1, 1]])
    assert solve_square(m, vec([4, 3])) == vec([2, 1])
    assert solve_square(mat([[1, 1], [2, 2]]), vec([1, 2])) is None


def test_affine_solution_inconsistent():
    assert affine_solution(mat([[1, 1], [1, 1]]), vec([1, 2]), 2) is None


def test_affine_solution_underdetermined():
    res = affine_solution(mat([[1, 1, 0]]), vec([2]), 3)
    assert res is not None
    point, null = res
    assert dot(vec([1, 1, 0]), point) == 2
    assert len(null) == 2
    for d in null:
        assert dot(vec([1, 1, 0]), d) == 0


def test_nullspace_dimension():
    null = nullspace(mat([[1, 0, 0], [0, 1, 0]]), 3)
    assert len(null) == 1
    assert null[0][2] != 0


def test_row_basis_membership():
    b = RowBasis(3)
    assert b.add(vec([1, 2, 0]))
    assert b.add(vec([0, 1, 1]))
    assert not b.add(vec([1, 3, 1]))  # sum of the first two
    assert b.rank == 2
    assert b.contains(vec([2, 4, 0]))
    assert not b.contains(vec([0, 0, 1]))


def test_mat_mul():
    a = mat([[1, 2], [0, 1]])
    b = mat([[1, 0], [3, 1]])
    assert mat_mul(a, b) == mat([[7, 2], [3, 1]])
