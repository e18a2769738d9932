"""Shared network factories for the test suite."""

import random
from fractions import Fraction

from relugeom.affine import AffineMap
from relugeom.network import ReluNetwork


def net_of(*layers):
    return ReluNetwork(tuple(AffineMap.of(w, b) for w, b in layers))


def random_net(rng: random.Random, arch, lo=-9, hi=9):
    layers = []
    for n_in, n_out in zip(arch, arch[1:]):
        w = [[rng.randint(lo, hi) for _ in range(n_in)] for _ in range(n_out)]
        b = [rng.randint(lo, hi) for _ in range(n_out)]
        layers.append((w, b))
    return net_of(*layers)


def rational_net(rng: random.Random, arch, den: int):
    """A net whose entries are k/den in [-2, 2]: its node forms need scaling
    to integers."""
    def entry():
        return Fraction(rng.randint(-2 * den, 2 * den), den)

    return net_of(*(
        ([[entry() for _ in range(n_in)] for _ in range(n_out)], [entry() for _ in range(n_out)])
        for n_in, n_out in zip(arch, arch[1:])
    ))


def relu_of_x():
    """F(x) = ReLU(x) on the line."""
    return net_of(([[1]], [0]), ([[1]], [0]))


def simplex_net():
    """F = ReLU(-x) + ReLU(-y) + ReLU(x+y-1): zero exactly on the unit
    simplex, positive and unbounded outside it."""
    return net_of(([[-1, 0], [0, -1], [1, 1]], [0, 0, -1]), ([[1, 1, 1]], [0]))


def fig1_net():
    """One hidden layer whose arrangement is three generic lines (x = 0,
    y = 0, x + y = 1)."""
    return net_of(([[1, 0], [0, 1], [1, 1]], [0, 0, -1]), ([[1, 1, 1]], [0]))


def tilted_bump_net():
    """F = 2 - ReLU(-x) - ReLU(-y) - ReLU(x+y-1) - ReLU(x/4 + y/8 + 1):
    decays in every direction, and on the unit simplex F = 1 - x/4 - y/8,
    so the bounded superlevel component at t = 1/2 has its unique maximum
    at the vertex (0, 0)."""
    return net_of(
        (
            [[-1, 0], [0, -1], [1, 1], ["1/4", "1/8"]],
            [0, 0, -1, 1],
        ),
        ([[-1, -1, -1, -1]], [2]),
    )


def negated_abs_net():
    """F(x) = -|x| on the line: bounded above by 0."""
    return net_of(([[1], [-1]], [0, 0]), ([[-1, -1]], [0]))


def orthant_caveat_net():
    """Identity first layer (coordinate arrangement), then one hyperplane
    through the origin: its second-layer bent hyperplane is the closed
    all-negative orthant, a codimension-0 set."""
    return net_of(
        ([[1, 0], [0, 1]], [0, 0]),
        ([[1, 1]], [0]),
        ([[1]], [0]),
    )
