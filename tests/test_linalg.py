import random
from fractions import Fraction

import pytest

from matrix_oracle import RowBasis, mat_mul, nullspace, solve_square, transpose
from relugeom.linalg import (
    DigitLimitError,
    affine_solution,
    dot,
    mat,
    rank,
    rat,
    rat_str,
    ratio_str,
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


def test_rat_refuses_huge_decimal_exponents():
    # Fraction would expand 10**exp exactly: minutes for the larger ones
    for text in ("1e4301", "-3E-5000", "1e5000000", "1e999999999", "1e-999999999", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="decimal exponent"):
            rat(text)
    assert rat("2.5e3") == 2500
    assert rat(" 1e-0_2 ") == Fraction(1, 100)
    assert rat("1e4300") == 10**4300


def test_rat_str_roundtrip():
    for s in ["3/4", "-2", "0", "7/3"]:
        assert rat_str(rat(s)) == s


def test_ratio_str_writes_what_fraction_writes():
    rng = random.Random(5)
    for den in (1, 2, 3, 6, 8, 12, 2**40, 10**30 + 7):
        for num in [0, 1, -1, den, -den, 2 * den] + [rng.randint(-3 * den, 3 * den) for _ in range(20)]:
            assert ratio_str(num, den) == str(Fraction(num, den)) == rat_str(Fraction(num, den))


def test_ratio_str_refuses_a_part_too_long_to_write():
    big = 10**4300  # 4301 digits
    for num, den in ((big, 1), (-big, 3), (1, big), (2 * big, 2), (big + 1, big)):
        with pytest.raises(DigitLimitError, match="int-to-str limit"):
            ratio_str(num, den)
        with pytest.raises(DigitLimitError, match="int-to-str limit"):
            rat_str(Fraction(num, den))
    assert ratio_str(big * 7, 7 * 10) == "1" + "0" * 4299


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


def test_row_basis_matches_nullspace_dimension():
    """rank and contains of the fraction-free basis against dim - nullity
    from affine_solution, on integer and rational rows, dependent ones
    included."""
    rng = random.Random(1968)
    dependent = contained = 0
    for _ in range(300):
        dim = rng.randint(1, 5)
        den = rng.choice((1, 1, 3, 8))

        def entry():
            k = rng.randint(-4 * den, 4 * den)
            return k if den == 1 else Fraction(k, den)

        rows = []
        basis = RowBasis(dim)
        for _ in range(rng.randint(1, 7)):
            if rows and rng.random() < 0.4:  # a combination of earlier rows
                a, b = rng.choice(rows), rng.choice(rows)
                p, q = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
                row = tuple(p * x + q * y for x, y in zip(a, b))
                dependent += 1
            else:
                row = tuple(entry() for _ in range(dim))
            grew = basis.add(row)
            rows.append(row)
            rank_now = dim - len(nullspace(rows, dim))
            assert basis.rank == rank_now
            assert grew == (rank_now > dim - len(nullspace(rows[:-1], dim)))
            probe = tuple(entry() for _ in range(dim))
            inside = dim - len(nullspace(rows + [probe], dim)) == rank_now
            assert basis.contains(probe) == inside
            contained += inside
            assert basis.contains(rows[rng.randrange(len(rows))])
    assert dependent > 100 and contained > 100, (dependent, contained)


def test_mat_mul():
    a = mat([[1, 2], [0, 1]])
    b = mat([[1, 0], [3, 1]])
    assert mat_mul(a, b) == mat([[7, 2], [3, 1]])
