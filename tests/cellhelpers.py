"""Cell helpers that only tests need: random relative-interior points of a
cell, and the proper-face relation on sign vectors."""

from fractions import Fraction
from typing import Sequence

from relugeom.complexes import line_interval, mask_in_closure, sign_mask
from relugeom.linalg import Vec, is_zero_vec, nullspace, vadd, vscale, zeros


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
