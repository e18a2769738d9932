"""Decision-region topology at a transversal threshold.

F is affine on each cell of the complex and constant along the lineality
space L, and the closure of a cell is conv(minimal faces) + cone(rays) + L.
So the values of F at the minimal faces of its closure and its slopes
along the rays decide which of N = {F < t}, B = {F = t} and Y = {F > t} a
cell meets: Y when F > t at one of those minimal faces or F increases
along one of those rays, N likewise, and B when it meets both.  A
transversal t is no minimal face's value.  Each region is the union of the
pieces its cells cut from it, and the threshold refinement, whose cells
are those pieces, relates two pieces of one region as a face of the other
exactly when their cells are so related.  So components are found on the
unrefined complex, by a breadth-first search over the face relation read
off the complex's ``SignIndex``; they match topological components because
every path through an open polyhedral union can be pushed through relative
interiors of shared faces.  Every closed piece has L as lineality space, so
without a vertex none is bounded; with one, a Y piece is bounded iff no
ray of its cell's closure has slope >= 0, an N piece iff none has slope
<= 0, and a B piece iff no ray has slope 0 and the rays do not go both
up and down (a positive sum of one of each is flat).  The refined complex
itself is built only when a caller reads it.  The 1-skeleton of the
unrefined complex carries the partial orientation in which F increases;
bounded components are certified by flat extremal subgraphs whose incident
boundary-crossing edges all point the same way.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .complexes import (
    RAY,
    SEGMENT,
    CanonicalComplex,
    _level_form,
    _ray_directions,
    as_complex,
    edge_geometry,
    refine_by_threshold,
    require_restrictions,
    sign_key,
)
from .linalg import Vec, dot, idot, rat_str
from .network import ReluNetwork, network_to_json
from .transversality import nontransversal_thresholds

YES = "yes"
BOUNDARY = "boundary"
NO = "no"

_TRAILING = {YES: 1, BOUNDARY: 0, NO: -1}


class NonTransversalThresholdError(ValueError):
    """Raised when a decision-region analysis is asked for a threshold at
    which some cell of the complex is constant."""

    def __init__(self, t: Fraction, bad_values: frozenset[Fraction]):
        self.threshold = t
        below = [v for v in bad_values if v < t]
        above = [v for v in bad_values if v > t]
        self.gap_below = max(below) if below else None
        self.gap_above = min(above) if above else None
        lo = rat_str(self.gap_below) if below else "-inf"
        hi = rat_str(self.gap_above) if above else "+inf"
        super().__init__(
            f"threshold {rat_str(t)} is not transversal; "
            f"every threshold in ({lo}, {rat_str(t)}) or ({rat_str(t)}, {hi}) is"
        )


class RegionComponent(NamedTuple):
    region: str  # YES / BOUNDARY / NO
    cells: tuple[tuple[int, ...], ...]
    bounded: bool


class _TopologyFields(NamedTuple):
    threshold: Fraction
    yes: tuple[RegionComponent, ...]
    boundary: tuple[RegionComponent, ...]
    no: tuple[RegionComponent, ...]
    base: CanonicalComplex  # the unrefined complex


class DecisionTopology(_TopologyFields):
    """The components of Y, B and N; component cells are keyed in the
    refined complex, which ``complex`` builds on first read."""

    @cached_property
    def complex(self) -> CanonicalComplex:
        """The complex refined by the threshold."""
        return refine_by_threshold(self.base, self.threshold)

    def components(self, region: str) -> tuple[RegionComponent, ...]:
        return {YES: self.yes, BOUNDARY: self.boundary, NO: self.no}[region]

    def bounded_counts(self) -> dict[str, int]:
        return {
            region: sum(1 for comp in self.components(region) if comp.bounded)
            for region in (YES, BOUNDARY, NO)
        }

    def to_json(self) -> dict:
        return {
            "threshold": rat_str(self.threshold),
            "regions": {
                region: [
                    {
                        "bounded": comp.bounded,
                        "cells": sorted(sign_key(k) for k in comp.cells),
                    }
                    for comp in self.components(region)
                ]
                for region in (YES, BOUNDARY, NO)
            },
            "bounded_counts": self.bounded_counts(),
        }


def _region_components(cpx: CanonicalComplex, region: int) -> list[int]:
    """Connected components under the face relation of the cells in the
    bitset ``region`` of ``cpx.index``, as bitsets ordered by their least
    keys: a function of the keys alone, not of the order in which
    construction met the cells.  A breadth-first search, each step to the
    faces and cofaces of the cells just reached."""
    index = cpx.index
    comps = []
    while region:
        comp = frontier = region & -region
        region ^= comp
        while frontier:
            reach = 0
            for cell in index.members(frontier):
                reach |= index.closure(cell.sign) | index.star(cell.sign)
            frontier = reach & region
            region ^= frontier
            comp |= frontier
        comps.append(comp)
    return comps


def decision_topology(source: CanonicalComplex | ReluNetwork, t: Fraction) -> DecisionTopology:
    """Components of Y, B, N at a transversal threshold, with boundedness,
    from one star query per minimal face and per ray of the complex."""
    cpx = as_complex(source)
    t = Fraction(t)
    bad = nontransversal_thresholds(cpx)
    if t in bad:
        raise NonTransversalThresholdError(t, bad)
    index = cpx.index
    k = len(cpx.lineality)
    # the cells with a minimal face above t, or below it, in their closure
    above = below = 0
    for face in index.members(index.of_dim(k)):
        if idot(_level_form(face.restriction, t), face.point) > 0:
            above |= index.star(face.sign)
        else:
            below |= index.star(face.sign)
    # the cells with a ray in their closure along which F goes up, down, or
    # stays flat
    up = down = flat = 0
    rays = _ray_directions(index.members(index.of_dim(k + 1)), index, k)
    for ray, direction in rays.items():
        slope = idot(ray.restriction.rows[0], direction)
        if slope > 0:
            up |= index.star(ray.sign)
        elif slope < 0:
            down |= index.star(ray.sign)
        else:
            flat |= index.star(ray.sign)
    yes, no = above | up, below | down
    # every closed piece has lineality space L, so none is bounded unless
    # L = 0; then a piece is bounded iff no ray of its cell's closure leaves
    # it, and per region these are the cells whose piece such a ray leaves
    pointed = not cpx.lineality
    regions = (
        (YES, yes, 1, up | flat),
        (BOUNDARY, yes & no, 0, (up | flat) & (down | flat)),
        (NO, no, -1, down | flat),
    )
    out: dict[str, tuple[RegionComponent, ...]] = {}
    for region, bits, trailing, unbounded in regions:
        out[region] = tuple(
            RegionComponent(
                region,
                tuple([cell.sign + (trailing,) for cell in index.members(comp)]),
                pointed and not comp & unbounded,
            )
            for comp in _region_components(cpx, bits)
        )
    return DecisionTopology(t, out[YES], out[BOUNDARY], out[NO], cpx)


# --- the oriented 1-skeleton -------------------------------------------------


class SkeletonVertex(NamedTuple):
    key: tuple[int, ...]
    point: Vec


class SkeletonEdge(NamedTuple):
    key: tuple[int, ...]
    kind: str  # SEGMENT / RAY / LINE
    base: Vec
    direction: Vec  # for segments, end - base
    end: Vec | None  # segments only
    orientation: int  # +1 F increases along direction, -1 decreases, 0 flat

    @property
    def flat(self) -> bool:
        return self.orientation == 0

    def endpoints(self) -> tuple[Vec, ...]:
        if self.kind == SEGMENT:
            return (self.base, self.end)
        if self.kind == RAY:
            return (self.base,)
        return ()

    def head(self) -> Vec | None:
        """The endpoint toward which F increases, when it is a point."""
        if self.orientation == 0:
            return None
        if self.kind == SEGMENT:
            return self.end if self.orientation > 0 else self.base
        if self.kind == RAY and self.orientation < 0:
            return self.base
        return None


class OrientedSkeleton(NamedTuple):
    vertices: dict[tuple[int, ...], SkeletonVertex]
    edges: dict[tuple[int, ...], SkeletonEdge]
    vertex_by_point: dict[Vec, tuple[int, ...]]

    def edge_vertex_keys(self, edge: SkeletonEdge) -> list[tuple[int, ...]]:
        return [self.vertex_by_point[p] for p in edge.endpoints()]


def oriented_skeleton(source: CanonicalComplex | ReluNetwork) -> OrientedSkeleton:
    """The 1-skeleton with each edge oriented toward increasing F: by the sign
    of the slope of F's restriction along the edge, since F is affine on it."""
    cpx = as_complex(source)
    require_restrictions(cpx)
    vertices = {}
    by_point = {}
    for key, cell in cpx.cells.items():
        if cell.dim == 0:
            vertices[key] = SkeletonVertex(key, cell.witness)
            by_point[cell.witness] = key
    edges = {}
    for key, cell in cpx.cells.items():
        if cell.dim != 1:
            continue
        kind, base, direction, end = edge_geometry(cpx, cell)
        slope = dot(cell.restriction.row(0)[0], direction)
        orientation = 1 if slope > 0 else -1 if slope < 0 else 0
        edges[key] = SkeletonEdge(key, kind, base, direction, end, orientation)
    return OrientedSkeleton(vertices, edges, by_point)


# --- extremal subgraph certificates (bounded components) ---------------------


class MaxSubgraphCertificate(NamedTuple):
    region: str  # YES (maximum) or NO (minimum)
    component_index: int
    extreme_value: Fraction
    flat_vertices: tuple[tuple[int, ...], ...]  # G', in base-complex keys
    flat_edges: tuple[tuple[int, ...], ...]
    graph_vertices: tuple[tuple[int, ...], ...]  # G
    graph_edges: tuple[tuple[int, ...], ...]
    crossing_edges: tuple[tuple[int, ...], ...]  # E, oriented across the boundary
    graph_equals_flat: bool

    def to_json(self) -> dict:
        return {
            "region": self.region,
            "component_index": self.component_index,
            "extreme_value": rat_str(self.extreme_value),
            "flat_subgraph": {
                "vertices": sorted(sign_key(k) for k in self.flat_vertices),
                "edges": sorted(sign_key(k) for k in self.flat_edges),
            },
            "subgraph": {
                "vertices": sorted(sign_key(k) for k in self.graph_vertices),
                "edges": sorted(sign_key(k) for k in self.graph_edges),
            },
            "crossing_edges": sorted(sign_key(k) for k in self.crossing_edges),
            "graph_equals_flat": self.graph_equals_flat,
        }


def max_subgraph(
    topology: DecisionTopology, region: str, component_index: int
) -> MaxSubgraphCertificate:
    """For a bounded Y component, the flat subgraph G' where F attains its
    maximum over the closure, the maximal subgraph G of the 1-skeleton inside
    the component, and the incident edges crossing the boundary (all oriented
    toward G).  For a bounded N component, minimize instead (edges point away)."""
    if region not in (YES, NO):
        raise ValueError("extremal subgraphs exist for the open regions Y and N only")
    comp = topology.components(region)[component_index]
    if not comp.bounded:
        raise ValueError("the component must be bounded")
    refined = topology.complex
    base = topology.base
    trailing = _TRAILING[region]
    member = set(comp.cells)
    index = refined.index
    closure = 0
    for key in comp.cells:
        closure |= index.closure(key)
    values = {cell.sign: cell.witness_value() for cell in index.members(closure & index.of_dim(0))}
    extreme = max(values.values()) if region == YES else min(values.values())

    flat_vertices = sorted(k[:-1] for k, v in values.items() if v == extreme)
    # F is affine on a 1-cell of the bounded closure, so it is flat there
    # iff it attains the extreme at the witness
    flat_edges = sorted(
        k[:-1]
        for k in member
        if refined.cells[k].dim == 1 and refined.cells[k].witness_value() == extreme
    )

    graph_vertices = sorted(
        key[:-1]
        for key in member
        if refined.cells[key].dim == 0 and key[-1] == trailing
    )
    graph_edges = []
    for key in member:
        if refined.cells[key].dim != 1 or key[-1] != trailing:
            continue
        short = key[:-1]
        if short + (0,) in refined.cells:
            continue  # the level set cuts this edge: not contained in the region
        graph_edges.append(short)
    graph_edges = sorted(graph_edges)

    graph_edge_set = set(graph_edges)
    graph_vertex_set = set(graph_vertices)
    skel = oriented_skeleton(base)
    crossing = []
    for key, edge in skel.edges.items():
        if key in graph_edge_set:
            continue
        touches = [vk for vk in skel.edge_vertex_keys(edge) if vk in graph_vertex_set]
        if touches:
            crossing.append(key)
    crossing = sorted(crossing)

    return MaxSubgraphCertificate(
        region=region,
        component_index=component_index,
        extreme_value=extreme,
        flat_vertices=tuple(flat_vertices),
        flat_edges=tuple(flat_edges),
        graph_vertices=tuple(graph_vertices),
        graph_edges=tuple(graph_edges),
        crossing_edges=tuple(crossing),
        graph_equals_flat=(
            set(flat_vertices) == set(graph_vertices)
            and set(flat_edges) == set(graph_edges)
        ),
    )


# --- theorem verifiers -------------------------------------------------------

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not_applicable"


class VerificationOutcome(NamedTuple):
    theorem: str
    status: str
    threshold: Fraction | None = None
    bounded_counts: dict[str, int] | None = None
    reason: str | None = None
    network: ReluNetwork | None = None

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_json(self) -> dict:
        out = {"theorem": self.theorem, "status": self.status}
        if self.threshold is not None:
            out["threshold"] = rat_str(self.threshold)
        if self.bounded_counts is not None:
            out["bounded_counts"] = self.bounded_counts
        if self.reason is not None:
            out["reason"] = self.reason
        if self.network is not None and self.status == FAIL:
            out["network"] = network_to_json(self.network)
        return out


def verify_johnson(source: CanonicalComplex | ReluNetwork, t: Fraction) -> VerificationOutcome:
    """Narrow networks have no bounded decision regions: with every hidden
    width at most the input dimension (n >= 2), each of Y, B, N at a
    transversal threshold must be empty or unbounded."""
    cpx = as_complex(source)
    net = cpx.network
    n0 = net.input_dim
    if n0 < 2:
        return VerificationOutcome(
            "johnson", NOT_APPLICABLE, reason=f"needs input dimension >= 2, got {n0}",
            network=net,
        )
    if net.width > n0:
        return VerificationOutcome(
            "johnson",
            NOT_APPLICABLE,
            reason=f"needs width <= input dimension, got width {net.width} > {n0}",
            network=net,
        )
    topo = decision_topology(cpx, t)
    counts = topo.bounded_counts()
    status = PASS if all(v == 0 for v in counts.values()) else FAIL
    return VerificationOutcome("johnson", status, Fraction(t), counts, network=net)


def verify_one_bounded(source: CanonicalComplex | ReluNetwork, t: Fraction) -> VerificationOutcome:
    """A single hidden layer of dimension n+1 allows at most one bounded
    component in each open decision region at a transversal threshold."""
    cpx = as_complex(source)
    net = cpx.network
    arch = net.architecture
    if len(arch) != 3 or arch[1] != arch[0] + 1:
        return VerificationOutcome(
            "one_bounded",
            NOT_APPLICABLE,
            reason=f"needs architecture (n, n+1, 1), got {arch}",
            network=net,
        )
    topo = decision_topology(cpx, t)
    counts = topo.bounded_counts()
    status = PASS if counts[YES] <= 1 and counts[NO] <= 1 else FAIL
    return VerificationOutcome("one_bounded", status, Fraction(t), counts, network=net)
