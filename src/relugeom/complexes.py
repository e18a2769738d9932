"""The canonical polyhedral complex of a ReLU network.

Input space is carved into cells keyed by ternary sign vectors: one
coordinate per hidden unit (layer-major order), holding the sign of that
unit's pre-activation node map on the cell.  A cell stores its sign vector,
a witness point, its dimension and the affine maps of its activation
pattern, but no H-representation: its faces, vertices, edge geometry,
boundedness and the constancy of F and of the node maps are read off the
face lattice.  The network is affine on every cell, and the stored
restriction realizes that affine map exactly.

Layers are processed in order, and inside a layer node by node: each pass
splits every cell of the complete complex by its node map.  Each cell
carries a witness point of its relative interior, and a pass finds the
witnesses of a cell's new sides in the face lattice of the complex it cuts,
with no LP: every closed cell has the same lineality space L (node maps
factor through the first layer's affine map), so it is the convex hull of
its minimal faces plus the cone of its rays plus L.  Cells of one
activation pattern share their masked prefix, so each layer composes it
once per pattern.  A cell's masked prefix and the restriction of F are
made on first read, once per pattern: the next layer reads the prefixes
of every cell, but the last layer's maps are made only for the cells that
some query reads, which a transversality check never does.

The face relation is read off sign vectors alone: a cell lies in the
closure of another iff its signs turn some +/- coordinates of the other
into 0.  ``SignIndex`` keeps the signs of all cells bit-sliced, one big int
per coordinate and sign, so a closure or a star is one AND per coordinate
over every cell at once.  Components, boundedness (one closure and its
Euler–Poincaré sum), the exported faces, the SVG's polygons and the
minimal faces and rays of the split all query it.

The split needs only signs, so it runs over Python ints.  A form w·x + c
is kept as the primitive integer vector f = (w', c'), a positive multiple
of (w, c); a point x as (X, d) with x = X/d, d > 0, gcd 1; a direction as
(D, 0).  Then f·(X, d) has the sign of the form at x, and every new witness
is a nonnegative integer combination of two known points or directions.
A cell's prefix and restriction are integer ``AffineMap``s, rows over one
positive denominator, so each node form and each F - t comes from their
integer rows, and F at a witness is f·(X, d) / (den·d).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .affine import AffineMap
from .linalg import (
    IVec,
    Row,
    Vec,
    dot,
    idot,
    primitive,
    rat_str,
    vsub,
)
from .network import NodeRef, ReluNetwork, evaluate, preactivations

NODE = "node"
LEVEL = "level"


class CoordInfo(NamedTuple):
    """What one sign-vector coordinate tracks."""

    kind: str  # NODE or LEVEL
    layer: int
    unit: int
    bha: bool  # node with a nonzero original weight row (contributes to the BHA)


class Cell:
    """One cell: the set where every tracked affine form has its stored sign.
    Cells compare and hash by identity.

    ``prefix`` is the masked composite of the processed layers and
    ``restriction`` F as an affine map on the cell: integer rows over one
    denominator, each row a positive multiple of its form, so a primitive
    row is the form's integer vector.  Either is None when the cell lacks
    it.  A built cell holds the ``_Pattern`` it was split from instead,
    and reading either map makes both, once per activation pattern."""

    def __init__(
        self,
        sign: tuple[int, ...],
        point: IVec,
        dim: int,
        prefix: AffineMap | None = None,
        restriction: AffineMap | None = None,
    ):
        self.sign = sign
        self.point = point  # the witness, a point of the relative interior, as (X, d)
        self.dim = dim
        # unset maps are left to __getattr__, so a None does not shadow them
        if prefix is not None:
            self.prefix = prefix
        if restriction is not None:
            self.restriction = restriction

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks
        if name != "prefix" and name != "restriction":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        pattern = self.__dict__.get("_pattern")
        if pattern is None:
            return None
        self.prefix, self.restriction = pattern.maps(self.sign)
        return self.__dict__[name]

    @cached_property
    def witness(self) -> Vec:
        """The witness point X/d."""
        d = self.point[-1]
        return tuple(Fraction(x, d) for x in self.point[:-1])

    def value(self, x: Sequence[Fraction]) -> Fraction:
        return self.restriction.apply(x)[0]

    def witness_value(self) -> Fraction:
        """F at the witness (X, d): f·(X, d) / (den·d) for F's row f."""
        f = self.restriction.rows[0]
        return Fraction(idot(f, self.point), self.restriction.den * self.point[-1])


def sign_key(sign: Sequence[int]) -> str:
    return "".join("+" if s > 0 else "-" if s < 0 else "0" for s in sign)


class CanonicalComplex:
    """The cells by sign key, what each sign coordinate tracks, and the
    network and threshold they come from.  Compared by identity."""

    def __init__(
        self,
        ambient_dim: int,
        coords: tuple[CoordInfo, ...],
        cells: dict[tuple[int, ...], Cell],
        network: ReluNetwork | None = None,
        threshold: Fraction | None = None,
        node_failures: frozenset[NodeRef] = frozenset(),
        *,
        lineality: tuple[IVec, ...],
    ):
        self.ambient_dim = ambient_dim
        self.coords = coords
        self.cells = cells
        self.network = network
        self.threshold = threshold
        # hidden nodes whose map is constant zero on a cell of the complex of
        # the layers before them: exactly those for which 0 is not transversal
        self.node_failures = node_failures
        # a basis (ℓ, 0) of the lineality space L of every closed cell: the
        # nullspace of the first-layer rows cut, as primitive integer directions
        self.lineality = lineality

    def sorted_cells(self) -> list[Cell]:
        return [self.cells[k] for k in sorted(self.cells)]

    @cached_property
    def index(self) -> SignIndex:
        """The face relation of the complex, over its cells in key order."""
        return SignIndex(self.sorted_cells())

    @cached_property
    def constant_values(self) -> frozenset[Fraction]:
        """The values F takes on cells where it is constant: exactly the
        thresholds at which transversality fails.  F is constant along the
        lineality space L, so on the minimal faces (the cells of dimension
        dim L), and a cell where F is constant has that value at the
        minimal faces of its closure."""
        require_restrictions(self)
        k = len(self.lineality)
        return frozenset(c.witness_value() for c in self.cells.values() if c.dim == k)


def require_restrictions(cpx: CanonicalComplex) -> None:
    """Raise ValueError unless the cells carry the restriction of F, which
    a complex built through fewer than all hidden layers lacks.  Decided
    from the coordinates, so no restriction is made here."""
    nodes = sum(co.kind == NODE for co in cpx.coords)
    if cpx.network is None or nodes < sum(cpx.network.hidden_dims):
        raise ValueError("the complex lacks the per-cell restriction of F")


class SignIndex:
    """The face relation of a list of cells of one complex, bit-sliced: for
    each coordinate j, ``plus[j]`` has bit i set when cell i has a + at j,
    and ``minus[j]`` when it has a -.  A cell lies in the closure of another
    iff its signs turn some (or no) +/- coordinates of the other into 0;
    the node maps are continuous, so this is exactly the face relation of
    the complex, the cell itself included.  A query is then one AND of big
    ints per coordinate, over all cells at once, and answers with a bitset
    of cells."""

    def __init__(self, cells: Sequence[Cell]):
        self.cells = cells
        self.all = (1 << len(cells)) - 1
        width = len(cells[0].sign) if cells else 0
        plus = [0] * width
        minus = [0] * width
        self._dims: dict[int, int] = {}
        for i, cell in enumerate(cells):
            bit = 1 << i
            self._dims[cell.dim] = self._dims.get(cell.dim, 0) | bit
            for j, s in enumerate(cell.sign):
                if s > 0:
                    plus[j] |= bit
                elif s < 0:
                    minus[j] |= bit
        self.plus = plus
        self.minus = minus
        # per coordinate, the faces allowed where a cell has sign s, at index
        # s: a 0 only (s = 0), anything but a - (s = +1), anything but a +
        # (s = -1, the last entry)
        full = self.all
        self._allowed = [(full & ~(p | m), full & ~m, full & ~p) for p, m in zip(plus, minus)]

    def of_dim(self, k: int) -> int:
        """The cells of dimension k."""
        return self._dims.get(k, 0)

    def closure(self, sign: Sequence[int]) -> int:
        """The cells in the closure of the cell with this sign, itself included."""
        bits = self.all
        for s, allowed in zip(sign, self._allowed):
            bits &= allowed[s]
        return bits

    def star(self, sign: Sequence[int]) -> int:
        """The cells whose closure holds the cell with this sign, itself included."""
        bits = self.all
        for s, p, m in zip(sign, self.plus, self.minus):
            if s:
                bits &= p if s > 0 else m
        return bits

    def members(self, bits: int) -> list[Cell]:
        """The cells of a bitset, in index order."""
        out = []
        while bits:
            low = bits & -bits
            out.append(self.cells[low.bit_length() - 1])
            bits ^= low
        return out


def face_pairs(cpx: CanonicalComplex) -> Iterable[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (face key, cell key) pairs of distinct cells in the face relation."""
    index = cpx.index
    for face in index.cells:
        for cell in index.members(index.star(face.sign)):
            if cell is not face:
                yield face.sign, cell.sign


# --- construction -----------------------------------------------------------


def _extend(cell: Cell, s: int, point: IVec, cut: bool = False) -> Cell:
    return Cell(cell.sign + (s,), point, cell.dim - cut)


class _Pattern:
    """An activation pattern of the layers before a hidden layer, with
    ``pre``, the layer's map composed with the pattern's masked prefix.
    Each cell that the layer splits it into holds it.  ``maps`` makes the
    masked prefix of each bit pattern of the layer, and F's restriction
    through the output layer ``out`` (None short of it), once, and hands
    the same objects to every cell of that pattern."""

    __slots__ = ("pre", "span", "out", "made")

    def __init__(self, pre: AffineMap, span: slice, out: AffineMap | None):
        self.pre = pre
        self.span = span  # the layer's sign coordinates
        self.out = out
        self.made: dict[tuple[int, ...], tuple[AffineMap, AffineMap | None]] = {}

    def maps(self, sign: tuple[int, ...]) -> tuple[AffineMap, AffineMap | None]:
        """The masked prefix and the restriction of the cell with this sign."""
        bits = tuple([1 if s > 0 else 0 for s in sign[self.span]])
        made = self.made.get(bits)
        if made is None:
            prefix = self.pre.masked(bits)
            restriction = None if self.out is None else self.out.compose(prefix)
            made = self.made[bits] = prefix, restriction
        return made


def _combine(a: int, p: IVec, b: int, q: IVec) -> IVec:
    """a·p + b·q, divided by the gcd of its entries."""
    out = [a * x + b * y for x, y in zip(p, q)]
    g = gcd(*out)
    return tuple(x // g for x in out) if g > 1 else tuple(out)


class _Faces:
    """The faces that every closed cell of a complete complex is built from,
    when all cells share the lineality space L: the closure of a cell is
    conv(minimal faces) + cone(rays) + L, where the minimal faces are the
    cells of dimension dim L and the rays the unbounded (dim L + 1)-cells.
    Each kind has its own ``SignIndex``, which says which lie in the closure
    of a cell.  Points are (X, d) and directions, those of L included,
    (D, 0)."""

    def __init__(self, cells: Sequence[Cell], lineality: Sequence[IVec]):
        self.cells = cells
        self.lineality = lineality

    @cached_property
    def minimal(self) -> SignIndex:
        """The minimal faces, indexed: a side test that L answers reads none."""
        k = len(self.lineality)
        return SignIndex([c for c in self.cells if c.dim == k])

    @cached_property
    def rays(self) -> tuple[SignIndex, dict[Cell, IVec]]:
        """The rays, indexed, and the direction of each."""
        directions = _ray_directions(self.cells, self.minimal, len(self.lineality))
        return SignIndex(list(directions)), directions

    def side_witness(self, cell: Cell, f: IVec, v: int, side: int) -> IVec | None:
        """A point X of the cell with side·(f·X) > 0, or None when there is
        none, given v = f·P at the cell's witness P, side·v <= 0.  Each case
        is a combination with side·f > 0 and a positive last coordinate."""
        p = cell.point
        for line in self.lineality:
            a = idot(f, line)
            if a:  # the form moves along L, which every cell contains
                return _combine(abs(a), p, side * (abs(v) + 1) * (1 if a > 0 else -1), line)
        minimal = self.minimal
        for face in minimal.members(minimal.closure(cell.sign)):
            u = face.point
            a = idot(f, u)
            if side * a > 0:  # a point of [p, u), which lies in the cell
                return _combine(abs(a), p, abs(v) + abs(a), u)
        rays, directions = self.rays
        for ray in rays.members(rays.closure(cell.sign)):
            d = directions[ray]
            a = idot(f, d)
            if side * a > 0:
                return _combine(abs(a), p, abs(v) + 1, d)
        return None


def _ray_directions(cells: Iterable[Cell], minimal: SignIndex, k: int) -> dict[Cell, IVec]:
    """The rays among ``cells``, k = dim L: the (k + 1)-cells with a single
    minimal face u (a k-cell of ``minimal``) in their closure, and the
    direction of each, from u to its witness p: u_d·p - p_d·u, which has
    last coordinate 0."""
    faces = minimal.of_dim(k)
    directions = {}
    for cell in cells:
        if cell.dim == k + 1:
            ends = minimal.closure(cell.sign) & faces
            if ends.bit_count() == 1:
                u, p = minimal.cells[ends.bit_length() - 1].point, cell.point
                directions[cell] = _combine(u[-1], p, -p[-1], u)
    return directions


def _children(cell: Cell, f: IVec, faces: _Faces) -> list[Cell]:
    """Split a cell of the complex that ``faces`` describes by the sign of
    the primitive integer form f."""
    p = cell.point
    v = idot(f, p)
    if v == 0:
        plus = faces.side_witness(cell, f, v, +1)
        if plus is None:
            # f <= 0 on the cell and 0 at a relative-interior point: f = 0 there
            return [_extend(cell, 0, p)]
        # nonconstant and vanishing at a relative-interior point: cuts the cell
        minus = faces.side_witness(cell, f, v, -1)
        assert minus is not None
        return [_extend(cell, 1, plus), _extend(cell, -1, minus), _extend(cell, 0, p, cut=True)]
    s = 1 if v > 0 else -1
    other = faces.side_witness(cell, f, v, -s)
    if other is None:
        return [_extend(cell, s, p)]
    # the zero of f on the segment [p, other]
    mid = _combine(abs(idot(f, other)), p, abs(v), other)
    return [_extend(cell, s, p), _extend(cell, -s, other), _extend(cell, 0, mid, cut=True)]


def _orthogonal_part(basis: list[IVec], f: IVec) -> list[IVec]:
    """A basis of the directions of span(basis) along which f is constant."""
    for k, line in enumerate(basis):
        a = idot(f, line)
        if a:
            return [_combine(a, m, -idot(f, m), line) for m in basis[:k] + basis[k + 1 :]]
    return basis


def build_complex(net: ReluNetwork, through_layers: int | None = None) -> CanonicalComplex:
    """Build the canonical polyhedral complex by iterated level-set
    subdivision, one hidden layer at a time and, inside a layer, one node
    at a time over the whole complex.

    ``through_layers`` truncates the construction after that many hidden
    layers (the complex the next layer's node maps are measured against).
    """
    n0 = net.input_dim
    m = net.hidden_count
    upto = m if through_layers is None else through_layers
    if not 0 <= upto <= m:
        raise ValueError(f"through_layers must lie in [0, {m}]")
    root = Cell((), (0,) * n0 + (1,), n0, AffineMap.identity(n0))
    cells: dict[tuple[int, ...], Cell] = {(): root}
    coords: list[CoordInfo] = []
    failures: set[NodeRef] = set()
    # the nullspace of the first-layer rows cut so far: the lineality space
    # of every closed cell, since every node map factors through layer 1
    lineality = [tuple(int(k == i) for i in range(n0 + 1)) for k in range(n0)]
    for i in range(upto):
        layer = net.layers[i]
        width = layer.out_dim
        span = slice(len(coords), len(coords) + width)
        for j in range(width):
            coords.append(CoordInfo(NODE, i, j, bha=any(layer.rows[j][:-1])))
        out = net.output_layer if i == m - 1 else None
        # each piece with its previous-layer pattern and that pattern's node
        # forms as primitive integer vectors, made once per prefix: cells of
        # one activation pattern share one prefix.  Reading the prefixes
        # here makes them; the last layer's are made only when read.
        shared: dict[int, tuple[_Pattern, list[IVec]]] = {}
        pieces: list[tuple[Cell, _Pattern, list[IVec]]] = []
        for cell in cells.values():
            if id(cell.prefix) not in shared:
                pre = layer.compose(cell.prefix) if i else layer
                shared[id(cell.prefix)] = _Pattern(pre, span, out), [primitive(r) for r in pre.rows]
            pattern, forms = shared[id(cell.prefix)]
            if cell.dim == len(lineality):
                # a node map is zero on a whole cell iff it is zero on a
                # minimal face p + L of the cell's closure
                for j, f in enumerate(forms):
                    if idot(f, cell.point) == 0 and not any(idot(f, line) for line in lineality):
                        failures.add(NodeRef(i, j))
            pieces.append((cell, pattern, forms))
        for j in range(width):
            faces = _Faces([piece for piece, _, _ in pieces], lineality)
            pieces = [
                (child, pattern, forms)
                for piece, pattern, forms in pieces
                for child in _children(piece, forms[j], faces)
            ]
            if i == 0:
                lineality = _orthogonal_part(lineality, primitive((*layer.rows[j][:-1], 0)))
        cells = {}
        for piece, pattern, _ in pieces:
            piece._pattern = pattern
            cells[piece.sign] = piece
    return CanonicalComplex(
        n0, tuple(coords), cells, net, node_failures=frozenset(failures), lineality=tuple(lineality)
    )


def as_complex(source: CanonicalComplex | ReluNetwork) -> CanonicalComplex:
    """The complex itself, or the canonical complex of a network."""
    return source if isinstance(source, CanonicalComplex) else build_complex(source)


def refine_by_threshold(cpx: CanonicalComplex, t: Fraction) -> CanonicalComplex:
    """Subdivide every cell by the level set F = t, appending one sign
    coordinate for sign(F - t)."""
    if cpx.threshold is not None:
        raise ValueError("complex is already refined by a threshold")
    require_restrictions(cpx)
    t = Fraction(t)
    faces = _Faces(list(cpx.cells.values()), cpx.lineality)
    refined: dict[tuple[int, ...], Cell] = {}
    # cells of one activation pattern share their restriction, so its
    # level form is made once
    forms: dict[int, IVec] = {}
    for cell in cpx.cells.values():
        if id(cell.restriction) not in forms:
            forms[id(cell.restriction)] = _level_form(cell.restriction, t)
        for child in _children(cell, forms[id(cell.restriction)], faces):
            child.prefix, child.restriction = cell.prefix, cell.restriction
            refined[child.sign] = child
    coords = cpx.coords + (CoordInfo(LEVEL, -1, 0, False),)
    return CanonicalComplex(
        cpx.ambient_dim, coords, refined, cpx.network, t, cpx.node_failures, lineality=cpx.lineality
    )


def _level_form(restriction: AffineMap, t: Fraction) -> IVec:
    """F - t as a primitive integer form: F - t = (w'·x + c')/den - p/q is a
    positive multiple of (q·w', q·c' - p·den)."""
    *w, c = restriction.rows[0]
    p, q = t.numerator, t.denominator
    return primitive((*(q * x for x in w), q * c - p * restriction.den))


# --- queries ----------------------------------------------------------------


def skeleton(cpx: CanonicalComplex, k: int) -> list[Cell]:
    """All cells of dimension at most k."""
    if not 0 <= k <= cpx.ambient_dim:
        raise ValueError(f"skeleton index {k} out of range [0, {cpx.ambient_dim}]")
    return [c for c in cpx.sorted_cells() if c.dim <= k]


def bent_hyperplane_arrangement(cpx: CanonicalComplex) -> list[Cell]:
    """Cells lying in the bent hyperplane arrangement: those with a zero sign
    at some nondegenerate node coordinate.  (Faces of such cells only add
    zeros, so the result is closed under faces.)"""
    bha_coords = [i for i, co in enumerate(cpx.coords) if co.bha]
    return [
        c
        for c in cpx.sorted_cells()
        if any(c.sign[i] == 0 for i in bha_coords)
    ]


def activation_regions(cpx: CanonicalComplex) -> list[Cell]:
    """Top-dimensional cells whose closures are activation-region closures:
    full-dimensional cells off the bent hyperplane arrangement.  Degenerate
    (zero-weight-row) nodes carry a fixed global sign and are ignored, since
    they contribute no bent hyperplane."""
    bha_coords = [i for i, co in enumerate(cpx.coords) if co.bha]
    return [
        c
        for c in cpx.sorted_cells()
        if c.dim == cpx.ambient_dim and all(c.sign[i] != 0 for i in bha_coords)
    ]


def cell_bounded(cpx: CanonicalComplex, cell: Cell) -> bool:
    """Whether the closed cell is bounded, read off the face lattice by the
    Euler–Poincaré identity: every cell is relatively open, with compactly
    supported Euler characteristic (-1)^dim.  When the complex has a vertex
    every closed cell is pointed (all share one lineality space), and a
    closed pointed polyhedron has χ_c 1 when bounded and 0 when not; without
    a vertex no cell is bounded."""
    index = cpx.index
    if not index.of_dim(0):
        return False
    faces = index.closure(cell.sign)
    return sum((-1) ** k * (faces & index.of_dim(k)).bit_count() for k in range(cell.dim + 1)) == 1


# --- lines through cells ------------------------------------------------------

SEGMENT = "segment"
RAY = "ray"
LINE = "line"


def line_interval(rows: Iterable[Row], point: Vec, direction: Vec, lo=None, hi=None):
    """The t in [lo, hi] for which point + t·direction satisfies every row
    (w, c) as w·x + c >= 0: a pair (lo, hi), None for an unbounded end, or
    None when there is no such t."""
    for w, c in rows:
        a = dot(w, direction)
        v = dot(w, point) + c
        if a == 0:
            if v < 0:
                return None
            continue
        bound = -v / a
        if a > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _last_nonzero(v: Sequence) -> Fraction:
    return next(x for x in reversed(v) if x)


def edge_geometry(cpx: CanonicalComplex, cell: Cell) -> tuple[str, Vec, Vec, Vec | None]:
    """(kind, base, direction, end) of a 1-cell, exactly: a segment joins the
    two 0-cells in its closure, with end - base last nonzero entry > 0; a ray
    leaves its one 0-cell toward the witness; a line, with none, runs along
    L.  Ray and line directions have last nonzero entry ±1 (+1 for a line)."""
    assert cell.dim == 1, "edge geometry needs a 1-dimensional cell"
    index = cpx.index
    ends = [v.witness for v in index.members(index.closure(cell.sign) & index.of_dim(0))]
    if len(ends) == 2:
        base, end = ends
        if _last_nonzero(vsub(end, base)) < 0:
            base, end = end, base
        return SEGMENT, base, vsub(end, base), end
    if ends:
        d = vsub(cell.witness, ends[0])
        scale = abs(_last_nonzero(d))
        return RAY, ends[0], tuple(x / scale for x in d), None
    line = cpx.lineality[0][:-1]
    scale = _last_nonzero(line)
    return LINE, cell.witness, tuple(Fraction(x, scale) for x in line), None


def locate(cpx: CanonicalComplex, x: Sequence[Fraction]) -> Cell:
    """The unique cell whose relative interior contains x."""
    net = cpx.network
    pre = preactivations(net, x)
    sign: list[int] = []
    for co in cpx.coords:
        if co.kind == NODE:
            v = pre[co.layer][co.unit]
        else:
            v = evaluate(net, x) - cpx.threshold
        sign.append(1 if v > 0 else -1 if v < 0 else 0)
    key = tuple(sign)
    if key not in cpx.cells:
        raise KeyError(f"no cell with sign {sign_key(key)}; complex does not cover x")
    return cpx.cells[key]


def complex_to_json(cpx: CanonicalComplex) -> dict:
    """Deterministic JSON dump: cells sorted by sign key, each with its sign,
    dimension, boundedness, restriction, and proper faces."""
    keys = sorted(cpx.cells, key=sign_key)
    faces: dict[tuple[int, ...], list[str]] = {k: [] for k in keys}
    for kf, kc in face_pairs(cpx):
        faces[kc].append(sign_key(kf))
    cells = []
    for k in keys:
        cell = cpx.cells[k]
        entry = {
            "sign": sign_key(k),
            "dim": cell.dim,
            "bounded": cell_bounded(cpx, cell),
            "faces": sorted(faces[k]),
        }
        if cell.restriction is not None:
            w, c = cell.restriction.row(0)
            entry["restriction"] = {"w": [rat_str(v) for v in w], "b": rat_str(c)}
        cells.append(entry)
    out = {
        "ambient_dim": cpx.ambient_dim,
        "coords": [
            {"kind": co.kind, "layer": co.layer, "unit": co.unit, "bha": co.bha}
            for co in cpx.coords
        ],
        "cells": cells,
    }
    if cpx.threshold is not None:
        out["threshold"] = rat_str(cpx.threshold)
    return out
