"""Cell helpers that only tests need: random relative-interior points of a
cell, and the face relation on sign vectors one pair at a time, with the
components it gives: the oracles of ``complexes.SignIndex`` and of
``topology._region_components``."""

from fractions import Fraction
from typing import Sequence

from relugeom.complexes import line_interval
from relugeom.linalg import Vec, is_zero_vec, nullspace, vadd, vscale, zeros


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


def interior_points(cell, rng, count: int) -> list[Vec]:
    """Random points of the cell's relative interior (the witness first)."""
    n = len(cell.witness)
    system, _ = cell.system(closed=True)
    dirs = nullspace(tuple(w for w, _ in system.equalities), n)
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
        lo, hi = line_interval(system.inequalities, cell.witness, d)
        frac = Fraction(rng.randint(-7, 7), 8)
        if frac >= 0:
            step = frac * (hi if hi is not None else Fraction(2))
        else:
            step = -frac * (lo if lo is not None else Fraction(-2))
        points.append(vadd(cell.witness, vscale(d, step)))
    while len(points) < count:
        points.append(cell.witness)
    return points[:count]
