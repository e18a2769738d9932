"""Combinatorial transversality of thresholds and of networks.

A threshold t is transversal for F exactly when no cell of the canonical
complex on which F is constant takes the value t: every point of the level
set then has an F-nonconstant cellular neighborhood.  The constant-cell
values form a finite set, so all but finitely many thresholds are
transversal.  A network is transversal when every hidden node map admits 0
as a transversal threshold against the complex built from the layers before
it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .complexes import CanonicalComplex, as_complex, build_complex
from .linalg import rat_str
from .network import NetworkClass, NodeRef, ReluNetwork, classify_layers


def nontransversal_thresholds(source: CanonicalComplex | ReluNetwork) -> frozenset[Fraction]:
    """The finite set of thresholds at which transversality fails: the values
    F takes on cells where it is constant."""
    return as_complex(source).constant_values


def is_transversal_threshold(source: CanonicalComplex | ReluNetwork, t: Fraction) -> bool:
    return Fraction(t) not in nontransversal_thresholds(source)


class TransversalityReport(NamedTuple):
    generic: bool
    transversal: bool
    node_failures: tuple[NodeRef, ...]
    nontransversal_thresholds: tuple[Fraction, ...]
    classes: NetworkClass

    def to_json(self) -> dict:
        return {
            "generic": self.generic,
            "transversal": self.transversal,
            "node_failures": [
                {"layer": ref.layer, "unit": ref.unit} for ref in self.node_failures
            ],
            "nontransversal_thresholds": [
                rat_str(v) for v in sorted(self.nontransversal_thresholds)
            ],
            "layers": [
                {"degenerate": c.degenerate, "generic": c.generic}
                for c in self.classes.layers
            ],
        }


def analyze_network(net: ReluNetwork) -> tuple[CanonicalComplex, TransversalityReport]:
    """Build the canonical complex once, with its per-node transversality
    failures and constant-cell values, and classify the network."""
    cpx = build_complex(net)
    classes = classify_layers(net)
    report = TransversalityReport(
        generic=classes.generic,
        transversal=not cpx.node_failures,
        node_failures=tuple(sorted(cpx.node_failures)),
        nontransversal_thresholds=tuple(sorted(cpx.constant_values)),
        classes=classes,
    )
    return cpx, report


def is_transversal_network(net: ReluNetwork) -> TransversalityReport:
    """Whether 0 is a transversal threshold for every hidden node map, each
    checked against the canonical complex of the preceding layers."""
    return analyze_network(net)[1]
