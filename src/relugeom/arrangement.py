"""Ordered, co-oriented affine solution-set and hyperplane arrangements.

A solution-set arrangement lists the rows (w, b) of an augmented matrix
(W | b); row i carves the set {x : w·x + b = 0}, which is a hyperplane when
w is nonzero and degenerate otherwise.  Co-orientation points toward the
positive side {w·x + b > 0}.  Region identity is the binary code recording
which side of each hyperplane a region lies on.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .complexes import Cell
from .linalg import (
    IVec,
    Vec,
    affine_solution,
    dot,
    homogeneous,
    is_zero_vec,
    primitive,
    rank,
    vec,
)
from .lp import LinearSystem, feasible_point, lp_feasible

Row = tuple[Vec, Fraction]

RegionCode = tuple[int, ...]


class _SolutionSetFields(NamedTuple):
    ambient_dim: int
    rows: tuple[Row, ...]


class SolutionSetArrangement(_SolutionSetFields):
    """Ordered rows (weight, bias); degenerate rows (zero weight) allowed."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for w, _ in self.rows:
            if len(w) != self.ambient_dim:
                raise ValueError("row dimension does not match the ambient space")
        return self

    @staticmethod
    def of(ambient_dim: int, rows: Iterable) -> "SolutionSetArrangement":
        return SolutionSetArrangement(
            ambient_dim, tuple((vec(w), Fraction(b)) for w, b in rows)
        )


class _CoorientedFields(NamedTuple):
    ambient_dim: int
    hyperplanes: tuple[Row, ...]
    provenance: tuple[int, ...] = ()


class CoorientedArrangement(_CoorientedFields):
    """Ordered co-oriented hyperplanes; every weight is nonzero.  provenance
    maps each hyperplane back to its originating solution-set row.  Its
    length is the number of hyperplanes."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for w, _ in self.hyperplanes:
            if len(w) != self.ambient_dim:
                raise ValueError("row dimension does not match the ambient space")
            if is_zero_vec(w):
                raise ValueError("hyperplanes need nonzero weights")
        return self

    def __len__(self) -> int:
        return len(self.hyperplanes)

    @staticmethod
    def of(ambient_dim: int, rows: Iterable) -> "CoorientedArrangement":
        rows = tuple((vec(w), Fraction(b)) for w, b in rows)
        return CoorientedArrangement(ambient_dim, rows, tuple(range(len(rows))))


def derive_arrangement(s: SolutionSetArrangement) -> CoorientedArrangement:
    """Drop the degenerate rows, keeping order and co-orientations."""
    kept = [(i, row) for i, row in enumerate(s.rows) if not is_zero_vec(row[0])]
    return CoorientedArrangement(
        s.ambient_dim,
        tuple(row for _, row in kept),
        tuple(i for i, _ in kept),
    )


def layer_arrangement(layer) -> SolutionSetArrangement:
    """The solution-set arrangement of an affine layer map."""
    return SolutionSetArrangement(layer.in_dim, tuple(zip(layer.weights, layer.bias)))


def is_generic(s: SolutionSetArrangement) -> bool:
    """General position: every p of the solution sets intersect in an affine
    subspace of dimension n - p, empty when that is negative."""
    return generic_rows([primitive((*w, b)) for w, b in s.rows], s.ambient_dim)


def generic_rows(rows: Sequence[IVec], n: int) -> bool:
    """Whether the solution sets of the integer augmented rows (w, b) on R^n
    are in general position.  Decided by ranks of the stacked weight and
    augmented submatrices, on the subsets that decide it: independent
    weights on every min(k, n) rows make every smaller intersection
    nonempty of the right dimension, and with them an inconsistent system
    on every n + 1 rows makes every larger one empty."""
    if any(not any(r[:n]) for r in rows):
        return False  # a single degenerate set already has the wrong dimension
    p = min(len(rows), n)
    for subset in itertools.combinations(rows, p):
        if rank(tuple(r[:n] for r in subset)) != p:
            return False
    for subset in itertools.combinations(rows, n + 1):
        # n independent weight rows, so consistent iff the augmented rank is n
        if rank(subset) == n:
            return False
    return True


def arrangement_rank(a: CoorientedArrangement) -> int:
    """Dimension of the span of the hyperplane normals."""
    return rank(tuple(w for w, _ in a.hyperplanes))


def _dedupe(rows: Sequence[Row]) -> list[Row]:
    """Geometric dedupe: rows whose (w, b) are proportional name one
    hyperplane.  Canonical form scales the first nonzero weight entry to 1."""
    seen = set()
    out = []
    for w, b in rows:
        lead = next(x for x in w if x)
        canon = (tuple(x / lead for x in w), b / lead)
        if canon not in seen:
            seen.add(canon)
            out.append((w, b))
    return out


def count_regions(a: CoorientedArrangement) -> int:
    """Number of connected components of the complement, by recursive
    deletion-restriction: r(A) = r(A') + r(A'') with the restriction built by
    exact substitution of one coordinate.  A rank-0 arrangement has 1 region."""
    return _count(_dedupe(a.hyperplanes), a.ambient_dim)


def _count(rows: list[Row], n: int) -> int:
    if not rows:
        return 1
    (w, b), rest = rows[0], rows[1:]
    # eliminate coordinate j with w[j] != 0:  x_j = -(b + sum w_i x_i) / w_j
    j = next(i for i, x in enumerate(w) if x)
    restricted: list[Row] = []
    for u, c in rest:
        f = u[j] / w[j]
        new_w = tuple(u[i] - f * w[i] for i in range(n) if i != j)
        new_c = c - f * b
        if is_zero_vec(new_w):
            continue  # parallel to the deleted hyperplane: empty trace
        restricted.append((new_w, new_c))
    return _count(rest, n) + _count(_dedupe(restricted), n - 1)


def _code_system(a: CoorientedArrangement, code: Sequence[int]) -> LinearSystem:
    ineqs = []
    for (w, b), bit in zip(a.hyperplanes, code):
        if bit:
            ineqs.append((w, b))
        else:
            ineqs.append((tuple(-x for x in w), -b))
    return LinearSystem(a.ambient_dim, tuple(ineqs))


def realizable_codes(a: CoorientedArrangement) -> set[RegionCode]:
    """The binary codes whose open sign systems are feasible; in bijection
    with the regions of the arrangement."""
    out = set()
    k = len(a.hyperplanes)
    for code in itertools.product((0, 1), repeat=k):
        system = _code_system(a, code)
        if lp_feasible(system, strict=range(k)):
            out.add(code)
    return out


def region_interior_point(a: CoorientedArrangement, code: RegionCode) -> Vec | None:
    system = _code_system(a, code)
    return feasible_point(system, strict=range(len(a.hyperplanes)))


def enumerate_vertices(a: CoorientedArrangement) -> set[Vec]:
    """The 0-cells of the induced decomposition: intersection points of every
    full-rank subset of n hyperplanes (coincident intersections collapse)."""
    n = a.ambient_dim
    out: set[Vec] = set()
    for subset in itertools.combinations(a.hyperplanes, n):
        weights = tuple(w for w, _ in subset)
        rhs = vec([-b for _, b in subset])
        res = affine_solution(weights, rhs, n)
        if res is None:
            continue
        point, null = res
        if not null:
            out.add(point)
    return out


def vertices_adjacent(a: CoorientedArrangement, p: Vec, q: Vec) -> bool:
    """Whether p and q bound a common 1-cell: the hyperplanes containing both
    cut out the line through them (their normals have rank n - 1), and the
    open segment (p, q) meets no other hyperplane."""
    n = a.ambient_dim
    values = [(w, dot(w, p) + b, dot(w, q) + b) for w, b in a.hyperplanes]
    for end in (1, 2):
        # a vertex is where hyperplanes of full normal rank meet
        if rank(tuple(row[0] for row in values if row[end] == 0)) != n:
            raise ValueError("vertices_adjacent expects vertices of the arrangement")
    if p == q or any(vp * vq < 0 for _, vp, vq in values):
        return False
    return rank(tuple(w for w, vp, vq in values if vp == 0 == vq)) == n - 1


def face_of_positive_region(a: CoorientedArrangement, theta: RegionCode):
    """The theta-face of the closed all-positive region of a generic n-of-n
    arrangement: coordinates with bit 0 become equalities.  For the standard
    coordinate arrangement this is the Hadamard projection theta ⊙ closure(R_1);
    in general it is the preimage of that face under the layer's affine map.
    The cell holds its sign (1 or 0 per hyperplane), a witness of its
    relative interior and its dimension; the hyperplanes are its forms."""
    n = a.ambient_dim
    if len(a.hyperplanes) != n:
        raise ValueError("face stratification needs exactly n hyperplanes in R^n")
    if rank(tuple(w for w, _ in a.hyperplanes)) != n:
        raise ValueError("face stratification needs a generic arrangement")
    if len(theta) != n:
        raise ValueError("code length must match the arrangement")
    sign = tuple(1 if bit else 0 for bit in theta)
    system = LinearSystem(
        n,
        tuple(row for row, bit in zip(a.hyperplanes, theta) if bit),
        tuple(row for row, bit in zip(a.hyperplanes, theta) if not bit),
    )
    witness = feasible_point(system, strict=range(len(system.inequalities)))
    assert witness is not None  # generic n-of-n arrangements realize every face
    # the normals are independent, so each equality takes one dimension
    return Cell(sign=sign, point=homogeneous(witness), dim=sum(sign))
