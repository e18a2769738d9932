import json
import random
from fractions import Fraction

import pytest

from relugeom.affine import AffineMap
from relugeom.linalg import DigitLimitError, vec
from relugeom.network import (
    NodeRef,
    ReluNetwork,
    activation_pattern_at,
    classify_layers,
    evaluate,
    masked_affine,
    network_from_json,
    network_hash,
    network_to_json,
    node_map_value,
    pad_to_width,
    parameter_count,
    relu_vec,
)


def net_of(*layers):
    return ReluNetwork(tuple(AffineMap.of(w, b) for w, b in layers))


def abs_net():
    # F(x) = ReLU(x) + ReLU(-x) = |x|
    return net_of(([[1], [-1]], [0, 0]), ([[1, 1]], [0]))


def random_net(rng, arch, lo=-9, hi=9):
    layers = []
    for n_in, n_out in zip(arch, arch[1:]):
        w = [[rng.randint(lo, hi) for _ in range(n_in)] for _ in range(n_out)]
        b = [rng.randint(lo, hi) for _ in range(n_out)]
        layers.append((w, b))
    return net_of(*layers)


def test_relu_kills_negatives():
    net = net_of(([[1]], [0]), ([[1]], [0]))  # x -> ReLU(x)
    assert evaluate(net, vec([-3])) == 0
    assert evaluate(net, vec([2])) == 2


def test_zero_weights_bias_only():
    net = net_of(([[0, 0]], [0]), ([[0]], ["5/2"]))
    assert evaluate(net, vec([7, -1])) == Fraction(5, 2)


def test_abs_network():
    net = abs_net()
    assert evaluate(net, vec([-2])) == 2
    assert evaluate(net, vec([3])) == 3


def test_architecture_and_width():
    net = random_net(random.Random(0), (2, 3, 2, 1))
    assert net.architecture == (2, 3, 2, 1)
    assert net.width == 3
    assert parameter_count(net.architecture) == 9 + 8 + 3


def test_invalid_networks_rejected():
    with pytest.raises(ValueError):
        net_of(([[1, 0]], [0]))  # no hidden layer
    with pytest.raises(ValueError):
        net_of(([[1]], [0]), ([[1, 1]], [0]))  # dims do not chain
    with pytest.raises(ValueError):
        net_of(([[1]], [0]), ([[1], [1]], [0, 0]))  # output dim 2
    with pytest.raises(ValueError):
        net_of(([[1]], [0]), ([[1]], [0]))._replace(layers=())  # _replace checks too


def test_node_map_first_layer_is_affine_row():
    net = random_net(random.Random(1), (3, 2, 1))
    x = vec([1, -2, 3])
    w, b = net.layers[0].row(1)
    assert node_map_value(net, NodeRef(0, 1), x) == sum(
        a * c for a, c in zip(w, x)
    ) + b


def test_node_map_sign_matches_activation_bit():
    rng = random.Random(2)
    net = random_net(rng, (2, 3, 2, 1))
    for _ in range(25):
        x = vec([rng.randint(-20, 20), rng.randint(-20, 20)])
        pattern = activation_pattern_at(net, x)
        for i, bits in enumerate(pattern):
            for j, bit in enumerate(bits):
                v = node_map_value(net, NodeRef(i, j), x)
                assert bit == (1 if v > 0 else 0)


def test_node_map_in_all_zeros_region_is_masked_bias():
    # with every first-layer unit inactive, a second-layer node map reduces
    # to the bias chain of the masked composition
    net = net_of(([[1, 0], [0, 1]], [-5, -5]), ([[2, 3]], [7]), ([[1]], [0]))
    x = vec([0, 0])  # both first-layer preactivations are -5 < 0
    assert activation_pattern_at(net, x)[0] == (0, 0)
    assert node_map_value(net, NodeRef(1, 0), x) == 7
    m = masked_affine(net, ((0, 0), (1,)))
    assert m.apply(x)[0] == evaluate(net, x)


def test_boundary_point_gets_zero_bit():
    net = net_of(([[1]], [0]), ([[1]], [0]))
    assert activation_pattern_at(net, vec([0])) == ((0,),)


def test_relu_idempotent():
    rng = random.Random(3)
    for _ in range(20):
        v = vec([rng.randint(-5, 5) for _ in range(4)])
        assert relu_vec(relu_vec(v)) == relu_vec(v)


def test_first_layer_node_maps_affine_on_collinear_points():
    rng = random.Random(4)
    net = random_net(rng, (2, 3, 1))
    p = vec([1, 2])
    q = vec([5, -1])
    mid = tuple((a + b) / 2 for a, b in zip(p, q))
    for j in range(3):
        vp = node_map_value(net, NodeRef(0, j), p)
        vq = node_map_value(net, NodeRef(0, j), q)
        vm = node_map_value(net, NodeRef(0, j), mid)
        assert vm == (vp + vq) / 2


def test_masked_affine_identity_layer():
    net = net_of(([[1, 0], [0, 1]], [0, 0]), ([[1, 1]], [0]))
    m = masked_affine(net, ((1, 1),))
    assert m.weights == ((Fraction(1), Fraction(1)),)
    assert m.bias == (Fraction(0),)


def test_masked_affine_all_zeros_is_constant_bias_chain():
    rng = random.Random(5)
    net = random_net(rng, (2, 3, 1))
    m = masked_affine(net, ((0, 0, 0),))
    assert all(v == 0 for v in m.weights[0])
    assert m.bias[0] == net.output_layer.bias[0]


def test_masked_affine_matches_evaluation_at_pattern():
    rng = random.Random(6)
    net = random_net(rng, (2, 3, 1))
    for _ in range(100):
        x = vec([Fraction(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(2)])
        pattern = activation_pattern_at(net, x)
        m = masked_affine(net, pattern)
        assert m.apply(x)[0] == evaluate(net, x)


def test_masked_affine_agrees_off_bha_deep_net():
    rng = random.Random(7)
    net = random_net(rng, (2, 3, 2, 1))
    for _ in range(100):
        x = vec([Fraction(rng.randint(-40, 40), 3) for _ in range(2)])
        m = masked_affine(net, activation_pattern_at(net, x))
        assert m.apply(x)[0] == evaluate(net, x)


def test_pad_to_width_preserves_evaluation():
    rng = random.Random(8)
    net = random_net(rng, (2, 3, 2, 1))
    padded = pad_to_width(net)
    assert padded.architecture == (2, 3, 3, 1)
    for _ in range(100):
        x = vec([rng.randint(-30, 30), rng.randint(-30, 30)])
        assert evaluate(net, x) == evaluate(padded, x)


def test_pad_identity_when_uniform():
    net = random_net(random.Random(9), (2, 2, 2, 1))
    assert pad_to_width(net) == net
    small = random_net(random.Random(10), (2, 1, 1))
    assert pad_to_width(small).architecture == (2, 1, 1)


def test_padded_layers_become_degenerate():
    net = random_net(random.Random(11), (2, 3, 2, 1))
    padded = pad_to_width(net)
    classes = classify_layers(padded)
    assert classes.layers[1].degenerate
    assert classes.degenerate


def test_zero_row_is_degenerate():
    net = net_of(([[0, 0], [1, 2]], [3, 0]), ([[1, 1]], [0]))
    classes = classify_layers(net)
    assert classes.layers[0].degenerate
    assert not classes.layers[0].generic


def test_random_integer_nets_usually_generic():
    rng = random.Random(12)
    generic = sum(
        1 for _ in range(50) if classify_layers(random_net(rng, (2, 3, 1), -100, 100)).generic
    )
    assert generic >= 49


def test_json_roundtrip_and_hash_stability():
    net = net_of(([["1/2", "-3"], ["0.25", "7"]], ["-1/3", "0"]), ([["2", "-2"]], ["5"]))
    data = network_to_json(net)
    again = network_from_json(json.loads(json.dumps(data)))
    assert again == net
    assert hash(again) == hash(net)
    assert network_hash(again) == network_hash(net)
    with pytest.raises(AttributeError):
        net.layers = again.layers


def test_json_entries_come_from_the_integer_rows():
    """network_to_json writes each entry from the layer's integer rows: the
    same strings as the Fraction views, which it leaves unbuilt."""
    rng = random.Random(23)
    for den in (1, 3, 8, 12):
        for arch in ((2, 3, 1), (3, 2, 2, 1)):
            entry = lambda: Fraction(rng.randint(-3 * den, 3 * den), den)
            layers = [
                ([[entry() for _ in range(n_in)] for _ in range(n_out)], [entry() for _ in range(n_out)])
                for n_in, n_out in zip(arch, arch[1:])
            ]
            net = net_of(*layers)
            data = network_to_json(net)
            assert data["layers"] == [
                {"W": [[str(x) for x in row] for row in w], "b": [str(x) for x in b]} for w, b in layers
            ]
            assert not any(layer.__dict__ for layer in net.layers)
    big = 10**4300  # 4301 digits: too long to write
    for rows, den in ((((big, 0),), 1), (((1, 2),), big)):
        net = ReluNetwork((AffineMap(rows, den), AffineMap(((1, 0),), 1)))
        with pytest.raises(DigitLimitError):
            network_to_json(net)


def test_json_rejects_bad_rational_and_architecture():
    with pytest.raises(ValueError):
        network_from_json(
            {"layers": [{"W": [["1//2"]], "b": ["0"]}, {"W": [["1"]], "b": ["0"]}]}
        )
    with pytest.raises(ValueError):
        network_from_json(
            {
                "architecture": [2, 2, 1],
                "layers": [{"W": [["1"]], "b": ["0"]}, {"W": [["1"]], "b": ["0"]}],
            }
        )
