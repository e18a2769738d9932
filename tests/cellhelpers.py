"""Cell helpers that only tests need: a cell's H-representation as a
linear system, membership, the row-based edge geometry that
``complexes.edge_geometry`` replaced, random relative-interior points of a
cell, and the face relation on sign vectors one pair at a time, with the
components it gives: the oracles of ``complexes.SignIndex`` and of
``topology._region_components``."""

from fractions import Fraction
from typing import Sequence

from relugeom.complexes import LINE, RAY, SEGMENT, cell_forms, line_interval
from relugeom.linalg import (
    LinearSystem,
    Row,
    Vec,
    dot,
    is_zero_vec,
    nullspace,
    vadd,
    vscale,
    vsub,
    zeros,
)


def rows_system(
    rows: Sequence[Row], sign: Sequence[int], n: int, closed: bool = False
) -> tuple[LinearSystem, tuple[int, ...]]:
    """The set where each form (w, c) has its sign, as a LinearSystem on
    R^n plus the strict inequality indices (empty when closed=True, giving
    the closure).  Forms with w = 0 are left out."""
    ineqs: list[Row] = []
    eqs: list[Row] = []
    for (w, c), s in zip(rows, sign):
        if is_zero_vec(w):
            continue
        if s > 0:
            ineqs.append((w, c))
        elif s < 0:
            ineqs.append((tuple(-x for x in w), -c))
        else:
            eqs.append((w, c))
    strict = () if closed else tuple(range(len(ineqs)))
    return LinearSystem(n, tuple(ineqs), tuple(eqs)), strict


def system(cpx, cell, closed: bool = False) -> tuple[LinearSystem, tuple[int, ...]]:
    """The cell of the complex as a LinearSystem, from ``cell_forms``."""
    return rows_system(cell_forms(cpx, cell), cell.sign, cpx.ambient_dim, closed)


def rows_contain(rows: Sequence[Row], sign: Sequence[int], x: Sequence[Fraction], closed=False) -> bool:
    """Whether each form (w, c) has its sign at x (or is 0 there, when closed)."""
    for (w, c), s in zip(rows, sign):
        v = dot(w, x) + c
        if s == 0:
            if v != 0:
                return False
        elif s > 0:
            if v < 0 or (v == 0 and not closed):
                return False
        else:
            if v > 0 or (v == 0 and not closed):
                return False
    return True


def contains(cpx, cell, x: Sequence[Fraction], closed: bool = False) -> bool:
    """Whether x lies in the cell of the complex (or in its closure)."""
    return rows_contain(cell_forms(cpx, cell), cell.sign, x, closed)


def row_edge_geometry(cpx, cell) -> tuple[str, Vec, Vec, Vec | None]:
    """(kind, base, direction, end) of a 1-cell from its rows: the
    direction spans the nullspace of the equality rows, and the
    inequalities cut its interval through the witness."""
    closed, _ = system(cpx, cell, closed=True)
    dirs = nullspace(tuple(w for w, _ in closed.equalities), len(cell.witness))
    assert len(dirs) == 1, "edge geometry needs a 1-dimensional cell"
    d = dirs[0]
    lo, hi = line_interval(closed.inequalities, cell.witness, d)
    if lo is None and hi is None:
        return LINE, cell.witness, d, None
    if lo is None:  # a ray bounded above: point it the other way
        d, lo, hi = tuple(-x for x in d), -hi, None
    base = vadd(cell.witness, vscale(d, lo))
    if hi is None:
        return RAY, base, d, None
    end = vadd(cell.witness, vscale(d, hi))
    return SEGMENT, base, vsub(end, base), end


def sign_mask(sign: Sequence[int]) -> int:
    """The sign vector as bits: 2i set for a + at coordinate i, 2i + 1 for a -."""
    mask = 0
    for i, s in enumerate(sign):
        if s > 0:
            mask |= 1 << (2 * i)
        elif s < 0:
            mask |= 2 << (2 * i)
    return mask


def mask_in_closure(face: int, cell: int) -> bool:
    """Whether the cell with sign mask ``face`` lies in the closure of the
    cell with sign mask ``cell``: its signs turn some (or no) +/- coordinates
    of the other into 0.  The node maps are continuous, so this is exactly
    the face relation of the complex, the cell itself included."""
    return face & ~cell == 0


def components_oracle(keys: Sequence[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """Connected components of the cells with these sign keys under the
    face relation, by union-find over every pair: each in key order, and
    ordered by their least keys."""
    parent = {k: k for k in keys}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    masks = {k: sign_mask(k) for k in keys}
    # a proper face has fewer nonzero signs, so it sorts before its cells
    by_zeros = sorted(keys, key=lambda k: masks[k].bit_count())
    for i, kf in enumerate(by_zeros):
        for kc in by_zeros[i + 1 :]:
            if mask_in_closure(masks[kf], masks[kc]):
                parent[find(kc)] = find(kf)
    groups: dict = {}
    for k in keys:
        groups.setdefault(find(k), []).append(k)
    return sorted(sorted(group) for group in groups.values())


def is_face(face_sign: Sequence[int], cell_sign: Sequence[int]) -> bool:
    """Whether the first sign vector names a proper face of the second:
    obtained by turning some (at least one) +/- coordinates into 0."""
    return face_sign != cell_sign and mask_in_closure(sign_mask(face_sign), sign_mask(cell_sign))


def interior_points(cpx, cell, rng, count: int) -> list[Vec]:
    """Random points of the cell's relative interior (the witness first)."""
    n = len(cell.witness)
    closed, _ = system(cpx, cell, closed=True)
    dirs = nullspace(tuple(w for w, _ in closed.equalities), n)
    points = [cell.witness]
    attempts = 0
    while len(points) < count and attempts < 50 * count:
        attempts += 1
        if not dirs:
            points.append(cell.witness)
            continue
        d = zeros(n)
        for basis_dir in dirs:
            coeff = Fraction(rng.randint(-3, 3))
            if coeff:
                d = vadd(d, vscale(basis_dir, coeff))
        if is_zero_vec(d):
            continue
        lo, hi = line_interval(closed.inequalities, cell.witness, d)
        frac = Fraction(rng.randint(-7, 7), 8)
        if frac >= 0:
            step = frac * (hi if hi is not None else Fraction(2))
        else:
            step = -frac * (lo if lo is not None else Fraction(-2))
        points.append(vadd(cell.witness, vscale(d, step)))
    while len(points) < count:
        points.append(cell.witness)
    return points[:count]
