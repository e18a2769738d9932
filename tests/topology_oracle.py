"""Reference decision topology by threshold refinement.

This is how ``relugeom.topology.decision_topology`` worked before it read
components and boundedness off the unrefined complex: it refines the complex
by the level set F = t, searches the components of each region among the
refined cells, and asks ``cell_bounded`` about every member of each.  It is
kept only as a test oracle: the two must give the same components, in the
same order, with the same bounded flags.
"""

from __future__ import annotations

from fractions import Fraction

from relugeom.complexes import CanonicalComplex, cell_bounded, refine_by_threshold
from relugeom.topology import (
    BOUNDARY,
    NO,
    YES,
    DecisionTopology,
    NonTransversalThresholdError,
    RegionComponent,
    _region_components,
)


def decision_topology(cpx: CanonicalComplex, t: Fraction) -> tuple[DecisionTopology, CanonicalComplex]:
    """The topology at a transversal threshold, and the refined complex it
    was read from."""
    t = Fraction(t)
    if t in cpx.constant_values:
        raise NonTransversalThresholdError(t, cpx.constant_values)
    refined = refine_by_threshold(cpx, t)
    index = refined.index
    # the trailing coordinate is the sign of F - t
    yes, no = index.plus[-1], index.minus[-1]
    regions = {YES: yes, BOUNDARY: index.all & ~(yes | no), NO: no}
    out = {}
    for region, bits in regions.items():
        comps = []
        for comp in _region_components(refined, bits):
            members = index.members(comp)
            bounded = all(cell_bounded(refined, cell) for cell in members)
            comps.append(RegionComponent(region, tuple(cell.sign for cell in members), bounded))
        out[region] = tuple(comps)
    return DecisionTopology(t, out[YES], out[BOUNDARY], out[NO], cpx), refined
