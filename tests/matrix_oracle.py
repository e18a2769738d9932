"""Matrix products over ``Fraction``, kept only as a test reference.

``relugeom.affine.AffineMap`` composes and masks integer rows over one
denominator; these are the plain rational products it replaced, and the
tests check the integer maps against them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from relugeom.linalg import ZERO, Mat, Vec, dot


def mat_vec(m: Mat, x: Sequence[Fraction]) -> Vec:
    return tuple(dot(row, x) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in matrix product")
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Mat) -> Mat:
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def compose(outer, inner) -> tuple[Mat, Vec]:
    """(weights, bias) of outer ∘ inner, from their Fraction views."""
    w = mat_mul(outer.weights, inner.weights)
    b = tuple(v + c for v, c in zip(mat_vec(outer.weights, inner.bias), outer.bias))
    return w, b


def masked(m, bits: Sequence[int]) -> tuple[Mat, Vec]:
    """(weights, bias) of m with the rows whose bit is 0 set to zero."""
    w = tuple(row if bit else (ZERO,) * m.in_dim for row, bit in zip(m.weights, bits))
    b = tuple(v if bit else ZERO for v, bit in zip(m.bias, bits))
    return w, b
