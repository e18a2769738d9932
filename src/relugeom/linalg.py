"""Exact rational vectors, matrices, Gaussian elimination, and linear
systems of affine constraints.

All geometric computation in this package is exact, with no floating point
anywhere in the core.  Vectors are plain tuples of Fractions, matrices are
tuples of row tuples.  Where only signs matter, the work runs over Python
``int``: a form or a point is kept as a primitive integer vector (a positive
multiple of the rational one, with coprime entries), an affine map as
integer rows over one positive denominator (``affine.AffineMap``), so its
composition and masking need no fractions, ``RowBasis`` eliminates
fraction-free, and the simplex in ``lp`` pivots on a scaled integer tableau.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
IVec = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

# Largest decimal exponent rat() accepts: Fraction expands "1e<exp>" into
# 10**exp exactly, which takes minutes for "1e999999999".  4300 is CPython's
# default int <-> str digit limit, beyond which rat_str could not write it.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")


def rat(value) -> Fraction:
    """Parse a rational from an int, Fraction, or string.

    Strings may be integers ("7"), fractions ("3/4", "-12/5"), or decimals
    ("0.25"), all converted exactly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"refusing boolean {value!r} as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        digits = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > 4 or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent beyond ±{MAX_DECIMAL_EXPONENT} in {value[:40]!r}")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational string: {value!r}") from exc
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass a string or Fraction")
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


class DigitLimitError(ValueError):
    """A rational too long to write under the interpreter's int-to-str limit."""


def rat_str(q: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return ratio_str(q.numerator, q.denominator)


def ratio_str(num: int, den: int) -> str:
    """Serialize the rational num/den, den > 0, in lowest terms as "p/q", or
    "p" when it is an integer: one gcd, and no ``Fraction`` is built."""
    g = gcd(num, den)
    try:
        return str(num // g) if g == den else f"{num // g}/{den // g}"
    except ValueError as exc:
        raise DigitLimitError(
            f"cannot write a rational of more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's int-to-str limit"
        ) from exc


def vec(values: Iterable) -> Vec:
    return tuple(rat(v) for v in values)


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix rows")
    return out


def unit(n: int, i: int) -> Vec:
    return tuple(ONE if k == i else ZERO for k in range(n))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    total = ZERO
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


def idot(u: Sequence[int], v: Sequence[int]) -> int:
    """The dot product of two integer vectors of one length."""
    return sum(map(mul, u, v))


def primitive(values: Sequence[Fraction]) -> IVec:
    """The positive multiple of a rational vector whose entries are coprime
    integers; a zero vector stays zero."""
    if all(type(x) is int for x in values):
        ints = values
    else:
        scale = lcm(*(x.denominator for x in values))
        ints = [x.numerator * (scale // x.denominator) for x in values]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def homogeneous(x: Sequence[Fraction]) -> IVec:
    """The point x as the primitive integer vector (X, d), d > 0, x = X/d."""
    return primitive((*x, 1))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(u: Vec, a: Fraction) -> Vec:
    return tuple(a * x for x in u)


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in u)


class RowBasis:
    """Incremental row-echelon basis for rank queries.

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


def rank(m: Iterable[Sequence[Fraction]]) -> int:
    """Row rank by exact Gaussian elimination."""
    rows = [tuple(r) for r in m]
    if not rows:
        return 0
    basis = RowBasis(len(rows[0]))
    for r in rows:
        basis.add(r)
    return basis.rank


def affine_solution(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], dim: int
) -> tuple[Vec, list[Vec]] | None:
    """Solve rows·x = rhs exactly.

    Returns (particular solution, nullspace basis), or None when inconsistent.
    Free variables are set to 0 in the particular solution.
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []  # (row, col)
    row_i = 0
    for col in range(dim):
        piv = next((i for i in range(row_i, len(aug)) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row_i], aug[piv] = aug[piv], aug[row_i]
        inv = ONE / aug[row_i][col]
        aug[row_i] = [x * inv for x in aug[row_i]]
        for i in range(len(aug)):
            if i != row_i and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row_i])]
        pivots.append((row_i, col))
        row_i += 1
        if row_i == len(aug):
            break
    for i in range(row_i, len(aug)):
        if aug[i][dim] != 0:
            return None
    point = [ZERO] * dim
    for r, c in pivots:
        point[c] = aug[r][dim]
    pivot_cols = {c for _, c in pivots}
    null: list[Vec] = []
    for free in range(dim):
        if free in pivot_cols:
            continue
        d = [ZERO] * dim
        d[free] = ONE
        for r, c in pivots:
            d[c] = -aug[r][free]
        null.append(tuple(d))
    return tuple(point), null


Row = tuple[Vec, Fraction]


class _SystemFields(NamedTuple):
    dim: int
    inequalities: tuple[Row, ...] = ()
    equalities: tuple[Row, ...] = ()


class LinearSystem(_SystemFields):
    """Affine constraints on R^dim: each inequality row (w, c) asserts
    w·x + c >= 0, each equality row w·x + c == 0."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for w, _ in self.inequalities + self.equalities:
            if len(w) != self.dim:
                raise ValueError(
                    f"dimension mismatch: row has {len(w)} coefficients in R^{self.dim}"
                )
        return self

    @staticmethod
    def of(dim: int, inequalities: Iterable = (), equalities: Iterable = ()) -> "LinearSystem":
        return LinearSystem(
            dim,
            tuple((vec(w), Fraction(c)) for w, c in inequalities),
            tuple((vec(w), Fraction(c)) for w, c in equalities),
        )
