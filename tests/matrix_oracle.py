"""Matrix products, solves and span membership over ``Fraction``, kept
only as a test reference.

``relugeom.affine.AffineMap`` composes and masks integer rows over one
denominator; these are the plain rational products it replaced, and the
tests check the integer maps against them.  ``solve_square``,
``nullspace`` and ``RowBasis.contains`` are what the row-based oracles
(``cellhelpers``, ``complex_oracle``) solve and test constancy with; the
package reads the same facts off the face lattice.  ``RowBasis`` computed
the package's ranks before ``linalg.rank`` did, and is its reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from relugeom.linalg import ZERO, IVec, Mat, Vec, affine_solution, dot, primitive


class RowBasis:
    """Incremental row-echelon basis, with span membership: an oracle cell
    keeps the span of its equality normals, and a form is constant on the
    cell iff its gradient lies in that span.

    Fraction-free: each basis row is a primitive integer vector, and a row
    r is reduced against a basis row with pivot entry p by r <- p·r - f·row,
    f = r[pivot], after dividing p and f by their gcd (after E. H. Bareiss,
    Math. Comp. 22, 1968).  Rational input is scaled to integers on entry.
    """

    __slots__ = ("dim", "_rows")

    def __init__(self, dim: int):
        self.dim = dim
        # list of (pivot column, primitive integer row), kept sorted by pivot
        self._rows: list[tuple[int, IVec]] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, w: Sequence[Fraction]) -> Sequence[int]:
        r = w if all(type(x) is int for x in w) else primitive(w)
        for piv, row in self._rows:
            f = r[piv]
            if f:
                p = row[piv]
                g = gcd(p, f)
                if g > 1:
                    p //= g
                    f //= g
                r = [p * x - f * y for x, y in zip(r, row)]
        return r

    def add(self, w: Sequence[Fraction]) -> bool:
        """Add w to the span. Returns True iff the rank grew."""
        r = self._reduce(w)
        for piv in range(self.dim):
            if r[piv]:
                self._rows.append((piv, primitive(r)))
                self._rows.sort(key=lambda pr: pr[0])
                return True
        return False

    def copy(self) -> "RowBasis":
        out = RowBasis(self.dim)
        out._rows = list(self._rows)
        return out

    def contains(self, w: Sequence[Fraction]) -> bool:
        """Whether w lies in the span; the rank answers it when the span is
        0 or all of the space."""
        if not self._rows:
            return not any(w)
        if len(self._rows) == self.dim:
            return True
        return not any(self._reduce(w))


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def primitive_form(w: Sequence[Fraction], c: Fraction) -> IVec:
    """The affine form x -> w·x + c as the primitive integer vector (w', c'),
    which has the sign of the form at every point (X, d) with d > 0."""
    return primitive((*w, c))


def solve_square(m: Mat, rhs: Vec) -> Vec | None:
    """Unique solution of a square system, or None when singular."""
    n = len(m)
    if n != len(rhs) or any(len(r) != n for r in m):
        raise ValueError("solve_square needs a square system")
    res = affine_solution(m, rhs, n)
    if res is None:
        return None
    point, null = res
    if null:
        return None
    return point


def nullspace(m: Mat, dim: int) -> list[Vec]:
    """Basis of {x : m·x = 0}."""
    res = affine_solution(m, [ZERO] * len(m), dim)
    assert res is not None
    return res[1]


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
