"""The integer AffineMap against the Fraction matrix products it replaced."""

import copy
import random
from fractions import Fraction
from math import gcd

import pytest

import matrix_oracle
from relugeom.affine import AffineMap
from relugeom.linalg import mat, vec

# entry denominators: integer, dyadic, thirds, and mixed sixths and sevenths
DENOMINATORS = [(1,), (8,), (3,), (6, 7)]


def random_map(rng, n_in, n_out, dens, zero_rows=0.2):
    """A map with entries k/q in [-3, 3], q drawn from dens, and some
    all-zero rows."""
    def entry():
        q = rng.choice(dens)
        return Fraction(rng.randint(-3 * q, 3 * q), q)

    weights, bias = [], []
    for _ in range(n_out):
        if rng.random() < zero_rows:
            weights.append([0] * n_in)
            bias.append(0)
        else:
            weights.append([entry() for _ in range(n_in)])
            bias.append(entry())
    return AffineMap.of(weights, bias)


def assert_canonical(m: AffineMap):
    assert m.den > 0
    assert all(type(x) is int for r in m.rows for x in r)
    assert gcd(m.den, *(x for r in m.rows for x in r)) == 1
    assert all(len(r) == m.in_dim + 1 for r in m.rows)


def same_map(m: AffineMap, weights, bias):
    assert m.weights == tuple(weights)
    assert m.bias == tuple(bias)
    # the same map built from its Fraction entries has the same form
    rebuilt = AffineMap.of(weights, bias)
    assert rebuilt == m and hash(rebuilt) == hash(m)


def chains(seed=9, count=200):
    """Seeded chains of 2-5 maps (so 1-4 compositions) of widths 0-4."""
    rng = random.Random(seed)
    for k in range(count):
        dens = DENOMINATORS[k % len(DENOMINATORS)]
        dims = [rng.randint(1, 4) for _ in range(rng.randint(3, 6))]
        if k % 17 == 0:
            # a first map with zero output rows; the next map reads no input
            dims[1] = 0
        yield rng, [random_map(rng, a, b, dens) for a, b in zip(dims, dims[1:])]


def test_compose_matches_the_fraction_product():
    compositions = zero_out = 0
    for _, maps in chains():
        current = maps[0]
        for layer in maps[1:]:
            expected = matrix_oracle.compose(layer, current)
            current = layer.compose(current)
            compositions += 1
            assert_canonical(current)
            same_map(current, *expected)
        zero_out += maps[0].out_dim == 0
    assert compositions > 400 and zero_out > 5


def test_masked_matches_the_fraction_rows():
    for rng, maps in chains(seed=10):
        for m in maps:
            bits = tuple(rng.randint(0, 1) for _ in range(m.out_dim))
            out = m.masked(bits)
            assert_canonical(out)
            same_map(out, *matrix_oracle.masked(m, bits))


def test_apply_matches_the_fraction_views():
    for rng, maps in chains(seed=11, count=80):
        for m in maps:
            x = vec(Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(m.in_dim))
            expected = tuple(
                v + b for v, b in zip(matrix_oracle.mat_vec(m.weights, x), m.bias)
            )
            assert m.apply(x) == expected


def test_a_map_has_one_form():
    # scaled rows reduce to the same form as the rational entries give
    half = AffineMap.of([["1/2", "-3/2"]], ["1"])
    assert half == AffineMap(((3, -9, 6),), 6) == AffineMap(((1, -3, 2),), 2)
    assert half.rows == ((1, -3, 2),) and half.den == 2
    assert AffineMap.of([[2, 4]], [6]).den == 1
    identity = AffineMap.identity(3)
    assert identity.den == 1 and identity.weights == mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # masking every row leaves the zero map over denominator 1
    zeroed = half.masked((0,))
    assert zeroed.rows == ((0, 0, 0),) and zeroed.den == 1
    # compositions in either grouping agree exactly
    rng = random.Random(12)
    for dens in DENOMINATORS:
        a, b, c = (random_map(rng, 3, 3, dens) for _ in range(3))
        assert c.compose(b).compose(a) == c.compose(b.compose(a))
        assert a.compose(AffineMap.identity(3)) == a == AffineMap.identity(3).compose(a)
    # a map hashes by value, survives a deep copy, and cannot be assigned to
    assert hash(half) == hash(AffineMap(((3, -9, 6),), 6))
    assert copy.deepcopy(half) == half
    with pytest.raises(AttributeError):
        half.rows = ((2, -6, 4),)


def test_of_rejects_malformed_input():
    with pytest.raises(ValueError, match="ragged"):
        AffineMap.of([[1, 2], [3]], [0, 0])
    with pytest.raises(ValueError, match="bias length"):
        AffineMap.of([[1, 2]], [0, 0])
    with pytest.raises(ValueError, match="positive"):
        AffineMap(((1, 2),), 0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        AffineMap.of([[1, 2]], [0]).compose(AffineMap.identity(3))
    with pytest.raises(ValueError, match="mask length"):
        AffineMap.identity(2).masked((1,))
