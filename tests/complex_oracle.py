"""Reference construction of the canonical complex with one LP per cut.

This is how ``relugeom.complexes`` built and refined the complex before it
read its splits off the face lattice: cell by cell, each cell split by all
nodes of a layer in turn, and a point on the far side of each cut found by
an exact strict-feasibility LP over the cell's own rows.  It is kept only as
a test oracle: the LP-free construction must give the same complex.  Its
cells keep the rows they were cut out by, which ``complexes.cell_forms``
must recompute.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from cellhelpers import rows_system
from relugeom import lp
from relugeom.affine import AffineMap
from relugeom.complexes import (
    LEVEL,
    NODE,
    CanonicalComplex,
    Cell,
    CoordInfo,
    require_restrictions,
)
from relugeom.linalg import (
    LinearSystem,
    Row,
    RowBasis,
    Vec,
    dot,
    homogeneous,
    is_zero_vec,
    nullspace,
    primitive_form,
    zeros,
)
from relugeom.network import NodeRef, ReluNetwork


@dataclass(eq=False)
class RowCell(Cell):
    """A cell with its H-representation: per coordinate the primitive
    integer form (w, c) whose sign on the cell is the coordinate's sign."""

    rows: tuple[Row, ...] = ()


def _extend(
    cell: RowCell, w: Vec, c: Fraction, s: int, witness: Vec, add_eq: bool = False
) -> RowCell:
    basis = cell.eq_basis
    dim = cell.dim
    if add_eq:
        basis = basis.copy()
        basis.add(w)
        dim -= 1
    f = primitive_form(w, c)  # rows and witnesses are integer vectors
    rows = cell.rows + ((f[:-1], f[-1]),)
    return RowCell(cell.sign + (s,), homogeneous(witness), dim, basis, cell.prefix, rows=rows)


def side_witness(cell: RowCell, w: Vec, c: Fraction, side: int) -> Vec | None:
    """A point of the cell with side·(w·x + c) > 0, by LP, or None."""
    system, strict = rows_system(cell.rows, cell.sign, len(cell.witness))
    row = (w, c) if side > 0 else (tuple(-x for x in w), -c)
    extended = LinearSystem(system.dim, system.inequalities + (row,), system.equalities)
    return lp.feasible_point(extended, strict + (len(system.inequalities),))


def _cut_point(p: Vec, q: Vec, w: Vec, c: Fraction) -> Vec:
    vp = dot(w, p) + c
    vq = dot(w, q) + c
    lam = vp / (vp - vq)
    return tuple(a + lam * (b - a) for a, b in zip(p, q))


def children(cell: RowCell, w: Vec, c: Fraction) -> list[RowCell]:
    """Split a cell by the sign of the affine form w·x + c."""
    v = dot(w, cell.witness) + c
    if cell.eq_basis.contains(w):
        s = 1 if v > 0 else -1 if v < 0 else 0
        return [_extend(cell, w, c, s, cell.witness)]
    if v == 0:
        plus = side_witness(cell, w, c, +1)
        minus = side_witness(cell, w, c, -1)
        assert plus is not None and minus is not None
        return [
            _extend(cell, w, c, 1, plus),
            _extend(cell, w, c, -1, minus),
            _extend(cell, w, c, 0, cell.witness, add_eq=True),
        ]
    s = 1 if v > 0 else -1
    other = side_witness(cell, w, c, -s)
    if other is None:
        return [_extend(cell, w, c, s, cell.witness)]
    return [
        _extend(cell, w, c, s, cell.witness),
        _extend(cell, w, c, -s, other),
        _extend(cell, w, c, 0, _cut_point(cell.witness, other, w, c), add_eq=True),
    ]


def build_complex(net: ReluNetwork) -> CanonicalComplex:
    """The canonical complex, each previous-layer cell split node by node."""
    n0 = net.input_dim
    root = RowCell((), homogeneous(zeros(n0)), n0, RowBasis(n0), AffineMap.identity(n0))
    cells: dict[tuple[int, ...], RowCell] = {(): root}
    coords: list[CoordInfo] = []
    failures: set[NodeRef] = set()
    for i, layer in enumerate(net.layers[:-1]):
        width = layer.out_dim
        for j in range(width):
            coords.append(CoordInfo(NODE, i, j, bha=not is_zero_vec(layer.weights[j])))
        nxt: dict[tuple[int, ...], RowCell] = {}
        for cell in cells.values():
            pre = layer.compose(cell.prefix)
            for j in range(width):
                w, c = pre.row(j)
                if cell.eq_basis.contains(w) and dot(w, cell.witness) + c == 0:
                    failures.add(NodeRef(i, j))
            pieces = [cell]
            for j in range(width):
                w, c = pre.row(j)
                pieces = [child for piece in pieces for child in children(piece, w, c)]
            for piece in pieces:
                bits = tuple(1 if s > 0 else 0 for s in piece.sign[-width:])
                piece.prefix = pre.masked(bits)
                nxt[piece.sign] = piece
        cells = nxt
    for cell in cells.values():
        cell.restriction = net.output_layer.compose(cell.prefix)
    lineality = tuple(primitive_form(line, 0) for line in nullspace(net.layers[0].weights, n0))
    return CanonicalComplex(
        n0, tuple(coords), cells, net, node_failures=frozenset(failures), lineality=lineality
    )


def refine_by_threshold(cpx: CanonicalComplex, t: Fraction) -> CanonicalComplex:
    """Every cell split by the sign of F - t."""
    require_restrictions(cpx)
    t = Fraction(t)
    refined: dict[tuple[int, ...], RowCell] = {}
    for cell in cpx.cells.values():
        w, c = cell.restriction.row(0)
        for child in children(cell, w, c - t):
            child.restriction = cell.restriction
            refined[child.sign] = child
    coords = cpx.coords + (CoordInfo(LEVEL, -1, 0, False),)
    return CanonicalComplex(
        cpx.ambient_dim, coords, refined, cpx.network, t, cpx.node_failures, lineality=cpx.lineality
    )
