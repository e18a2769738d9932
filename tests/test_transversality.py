import random
from fractions import Fraction
from functools import cached_property

import pytest

from conftest import net_of, orthant_caveat_net, random_net, relu_of_x
from relugeom.complexes import CanonicalComplex, build_complex, refine_by_threshold
from relugeom.network import NodeRef
from relugeom.topology import decision_topology, oriented_skeleton
from relugeom.transversality import (
    analyze_network,
    is_transversal_network,
    is_transversal_threshold,
    nontransversal_thresholds,
)


def test_relu_zero_threshold_not_transversal():
    net = relu_of_x()
    assert not is_transversal_threshold(net, Fraction(0))


def test_relu_positive_threshold_transversal():
    net = relu_of_x()
    assert is_transversal_threshold(net, Fraction(1))
    assert is_transversal_threshold(net, Fraction(-3))


def test_relu_nontransversal_set_is_zero():
    assert nontransversal_thresholds(relu_of_x()) == {Fraction(0)}


def test_threshold_outside_constant_values_is_transversal():
    rng = random.Random(200)
    net = random_net(rng, (2, 3, 1))
    bad = nontransversal_thresholds(net)
    t = max(bad, default=Fraction(0)) + 1
    assert is_transversal_threshold(net, t)


def test_constant_network_single_bad_threshold():
    net = net_of(([[0, 0], [0, 0]], [1, -1]), ([[2, 3]], ["5/2"]))
    # F == 2*1 + 3*0 + 5/2 everywhere
    assert nontransversal_thresholds(net) == {Fraction(9, 2)}


def test_identity_like_network_vertex_value_is_nontransversal():
    # F(x) = ReLU(x) - ReLU(-x) = x; the vertex cell {0} forces 0 out
    net = net_of(([[1], [-1]], [0, 0]), ([[1, -1]], [0]))
    assert nontransversal_thresholds(net) == {Fraction(0)}


def test_single_layer_nonzero_rows_transversal():
    rng = random.Random(201)
    for _ in range(10):
        net = random_net(rng, (2, 3, 1))
        if any(all(w == 0 for w in row) for row in net.layers[0].weights):
            continue
        report = is_transversal_network(net)
        assert report.transversal


def test_orthant_caveat_network_not_transversal():
    report = is_transversal_network(orthant_caveat_net())
    assert not report.transversal
    assert NodeRef(1, 0) in report.node_failures
    assert report.generic  # genericity and transversality are independent


def test_zero_weight_zero_bias_node_fails_at_zero():
    net = net_of(([[0, 0], [1, 0]], [0, 1]), ([[1, 1]], [0]))
    report = is_transversal_network(net)
    assert NodeRef(0, 0) in report.node_failures
    assert not report.transversal


def test_random_integer_networks_mostly_transversal():
    rng = random.Random(202)
    good = 0
    for _ in range(40):
        net = random_net(rng, (2, 3, 1), -100, 100)
        report = is_transversal_network(net)
        if report.generic and report.transversal:
            good += 1
    assert good >= 39


def test_no_vertex_at_transversal_level():
    rng = random.Random(203)
    net = random_net(rng, (2, 2, 2, 1))
    cpx = build_complex(net)
    bad = nontransversal_thresholds(cpx)
    t = Fraction(1, 7)
    if t in bad:
        t += max(bad) + 1
    refined = refine_by_threshold(cpx, t)
    for cell in refined.cells.values():
        if cell.dim == 0:
            assert cell.value(cell.witness) != t or cell.sign[-1] == 0
    # stronger: no vertex of the base complex maps to t
    for cell in cpx.cells.values():
        if cell.dim == 0:
            assert cell.value(cell.witness) != t


def test_report_serialization():
    cpx, report = analyze_network(orthant_caveat_net())
    data = report.to_json()
    assert data["transversal"] is False
    assert {"layer": 1, "unit": 0} in data["node_failures"]
    assert data["generic"] is True
    assert isinstance(data["nontransversal_thresholds"], list)


def test_complex_records_node_failures():
    cpx = build_complex(orthant_caveat_net())
    assert cpx.node_failures == {NodeRef(1, 0)}
    assert refine_by_threshold(cpx, Fraction(1, 3)).node_failures == cpx.node_failures
    assert build_complex(relu_of_x()).node_failures == frozenset()
    # the complex of the first layer alone cannot see the second layer fail
    assert build_complex(orthant_caveat_net(), through_layers=1).node_failures == frozenset()


def test_constant_cells_scanned_once_per_verdict(monkeypatch):
    """analyze_network, decision_topology and nontransversal_thresholds
    share one computation of a complex's constant values."""
    calls = []
    values = CanonicalComplex.constant_values.func
    spy = cached_property(lambda cpx: calls.append(cpx) or values(cpx))
    spy.__set_name__(CanonicalComplex, "constant_values")
    monkeypatch.setattr(CanonicalComplex, "constant_values", spy)
    cpx, report = analyze_network(random_net(random.Random(204), (2, 3, 1)))
    t = max(report.nontransversal_thresholds, default=Fraction(0)) + 1
    decision_topology(cpx, t)
    assert nontransversal_thresholds(cpx) is cpx.constant_values
    assert calls == [cpx]


def test_truncated_complex_lacks_constant_values_and_slopes():
    cpx = build_complex(orthant_caveat_net(), through_layers=1)
    with pytest.raises(ValueError, match="restriction of F"):
        cpx.constant_values
    with pytest.raises(ValueError, match="restriction of F"):
        oriented_skeleton(cpx)
    with pytest.raises(ValueError, match="restriction of F"):
        refine_by_threshold(cpx, Fraction(1))
