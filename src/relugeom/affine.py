"""Affine maps W·x + b between rational coordinate spaces.

A map is stored over Python ``int``: one integer row (w', c') per output and
one positive denominator den, meaning x ↦ (w'·x + c')/den, with the gcd of
den and every entry 1, so each rational map has exactly one form.  A row is
then a positive multiple of its output's affine form, which is all a sign
test needs, and composition and masking stay in integers.  ``Fraction``
views of the weights and biases serve input, evaluation and output.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .linalg import IVec, Mat, Vec, dot, mat, vec


class AffineMap:
    """x ↦ (w'·x + c')/den for each integer row (w', c'), den > 0; reduced
    on construction so that den and the entries are coprime.  Immutable and
    compared by value; the ``__dict__`` slot holds the cached views."""

    __slots__ = ("rows", "den", "__dict__")

    def __init__(self, rows: tuple[IVec, ...], den: int):
        if den <= 0:
            raise ValueError("the denominator of an affine map must be positive")
        if den > 1:
            g = gcd(den, *chain.from_iterable(rows))
            if g > 1:
                rows = tuple(tuple(x // g for x in r) for r in rows)
                den //= g
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an AffineMap")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.den) == (other.rows, other.den)

    def __hash__(self):
        return hash((self.rows, self.den))

    def __repr__(self):
        return f"AffineMap(rows={self.rows!r}, den={self.den!r})"

    def __reduce__(self):
        return AffineMap, (self.rows, self.den)

    @property
    def out_dim(self) -> int:
        return len(self.rows)

    @property
    def in_dim(self) -> int:
        return len(self.rows[0]) - 1 if self.rows else 0

    @staticmethod
    def of(weights, bias) -> "AffineMap":
        w, b = mat(weights), vec(bias)
        if len(w) != len(b):
            raise ValueError("bias length must equal the number of weight rows")
        # a set and a list, not generators: CPython builds a tuple from a
        # generator in 10 slots and shrinks it, and each shrunk tuple then
        # stays on the free list of its new size (~0.3 MB on (2,3,1) nets)
        den = lcm(*{x.denominator for x in chain(b, *w)})
        rows = tuple(
            tuple([x.numerator * (den // x.denominator) for x in (*r, c)]) for r, c in zip(w, b)
        )
        return AffineMap(rows, den)

    @staticmethod
    def identity(n: int) -> "AffineMap":
        return AffineMap(tuple(tuple(int(i == j) for j in range(n + 1)) for i in range(n)), 1)

    @cached_property
    def weights(self) -> Mat:
        return tuple(tuple(Fraction(x, self.den) for x in r[:-1]) for r in self.rows)

    @cached_property
    def bias(self) -> Vec:
        return tuple(Fraction(r[-1], self.den) for r in self.rows)

    def apply(self, x: Sequence[Fraction]) -> Vec:
        if len(x) != self.in_dim:
            raise ValueError(f"dimension mismatch: point in R^{len(x)}, map on R^{self.in_dim}")
        return tuple((dot(r[:-1], x) + r[-1]) / self.den for r in self.rows)

    def row(self, j: int) -> tuple[Vec, Fraction]:
        """The affine form of output coordinate j, as (weight row, bias)."""
        return self.weights[j], self.bias[j]

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self ∘ inner: each row of self times the inner rows stacked over
        (0, ..., 0, inner.den), all over self.den·inner.den."""
        if inner.out_dim != self.in_dim:
            raise ValueError("dimension mismatch in composition")
        cols = list(zip(*inner.rows, (0,) * inner.in_dim + (inner.den,)))
        rows = tuple(tuple(sum(map(mul, r, col)) for col in cols) for r in self.rows)
        return AffineMap(rows, self.den * inner.den)

    def masked(self, bits: Sequence[int]) -> "AffineMap":
        """Zero out the output rows (weights and bias) whose bit is 0."""
        if len(bits) != self.out_dim:
            raise ValueError("mask length must equal the output dimension")
        zero = (0,) * (self.in_dim + 1)
        return AffineMap(tuple(r if bit else zero for r, bit in zip(self.rows, bits)), self.den)
