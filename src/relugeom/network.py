"""Feedforward ReLU networks with one-dimensional output.

A network of architecture (n0, ..., nm, 1) is a chain of affine maps
A_1, ..., A_{m+1}; ReLU is applied coordinatewise after every hidden affine
map, and the final map is purely affine.  Everything here is exact: weights,
biases, and evaluation are rational.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .affine import AffineMap
from .linalg import ZERO, Vec, is_zero_vec, rat, rat_str, vec


class NodeRef(NamedTuple):
    """A hidden unit, addressed by 0-based hidden-layer and unit indices."""

    layer: int
    unit: int


# per-layer binary tuples, one bit per hidden unit
ActivationPattern = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ReluNetwork:
    layers: tuple[AffineMap, ...]

    def __post_init__(self):
        if len(self.layers) < 2:
            raise ValueError("a network needs at least one hidden layer plus the output map")
        for inner, outer in zip(self.layers, self.layers[1:]):
            if inner.out_dim != outer.in_dim:
                raise ValueError("layer dimensions do not chain")
        if self.layers[-1].out_dim != 1:
            raise ValueError("output dimension must be 1")

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def hidden_count(self) -> int:
        return len(self.layers) - 1

    @property
    def hidden_dims(self) -> tuple[int, ...]:
        return tuple(layer.out_dim for layer in self.layers[:-1])

    @property
    def architecture(self) -> tuple[int, ...]:
        return (self.input_dim,) + self.hidden_dims + (1,)

    @property
    def width(self) -> int:
        return max(self.hidden_dims + (1,))

    @property
    def output_layer(self) -> AffineMap:
        return self.layers[-1]


def relu_vec(v: Sequence[Fraction]) -> Vec:
    return tuple(x if x > 0 else ZERO for x in v)


def evaluate(net: ReluNetwork, x: Sequence[Fraction]) -> Fraction:
    """Exact network value at x."""
    h = vec(x)
    for layer in net.layers[:-1]:
        h = relu_vec(layer.apply(h))
    return net.output_layer.apply(h)[0]


def preactivations(net: ReluNetwork, x: Sequence[Fraction]) -> list[Vec]:
    """Pre-activation vectors of every hidden layer at x."""
    out = []
    h = vec(x)
    for layer in net.layers[:-1]:
        z = layer.apply(h)
        out.append(z)
        h = relu_vec(z)
    return out


def node_map_value(net: ReluNetwork, ref: NodeRef, x: Sequence[Fraction]) -> Fraction:
    """Pre-activation value of one hidden unit, as a function of the input."""
    layer, unit = ref
    if not 0 <= layer < net.hidden_count:
        raise ValueError(f"layer index {layer} out of range")
    if not 0 <= unit < net.hidden_dims[layer]:
        raise ValueError(f"unit index {unit} out of range for layer {layer}")
    return preactivations(net, x)[layer][unit]


def activation_pattern_at(net: ReluNetwork, x: Sequence[Fraction]) -> ActivationPattern:
    """Per-layer activation bits at x; a bit is 1 only for a strictly positive
    pre-activation, so points on the bent hyperplane arrangement get 0."""
    return tuple(
        tuple(1 if v > 0 else 0 for v in z) for z in preactivations(net, x)
    )


def masked_affine(net: ReluNetwork, pattern: ActivationPattern) -> AffineMap:
    """The affine map agreeing with the network on the closure of the region
    with the given activation pattern: rows masked to zero where bits are 0,
    biases composed through the same masking."""
    if len(pattern) != net.hidden_count:
        raise ValueError("pattern length must equal the number of hidden layers")
    current = AffineMap.identity(net.input_dim)
    for layer, bits in zip(net.layers[:-1], pattern):
        if len(bits) != layer.out_dim:
            raise ValueError("pattern width does not match the layer")
        current = layer.compose(current).masked(bits)
    return net.output_layer.compose(current)


def pad_to_width(net: ReluNetwork) -> ReluNetwork:
    """Embed every hidden layer into R^width by appending zero (degenerate)
    rows; evaluation is pointwise unchanged."""
    width = net.width
    layers = []
    prev_dim = net.input_dim
    for layer in net.layers[:-1]:
        pad = width - layer.out_dim
        w = tuple(row + (ZERO,) * (prev_dim - layer.in_dim) for row in layer.weights)
        w += tuple(((ZERO,) * prev_dim,) * pad)
        b = layer.bias + (ZERO,) * pad
        layers.append(AffineMap(w, b))
        prev_dim = width
    out = net.output_layer
    w = tuple(row + (ZERO,) * (prev_dim - out.in_dim) for row in out.weights)
    layers.append(AffineMap(w, out.bias))
    return ReluNetwork(tuple(layers))


@dataclass(frozen=True)
class LayerClass:
    degenerate: bool
    generic: bool


@dataclass(frozen=True)
class NetworkClass:
    layers: tuple[LayerClass, ...]
    degenerate: bool
    generic: bool


def classify_layers(net: ReluNetwork) -> NetworkClass:
    """Per-layer degeneracy (a zero weight row) and genericity (the layer's
    solution-set arrangement is generic); network flags are conjunctions over
    all layer maps, the output map included."""
    from .arrangement import SolutionSetArrangement, is_generic  # avoids an import cycle

    classes = []
    for layer in net.layers:
        degenerate = any(is_zero_vec(row) for row in layer.weights)
        arr = SolutionSetArrangement(
            layer.in_dim, tuple(zip(layer.weights, layer.bias))
        )
        classes.append(LayerClass(degenerate, is_generic(arr)))
    return NetworkClass(
        tuple(classes),
        any(c.degenerate for c in classes),
        all(c.generic for c in classes),
    )


def parameter_count(architecture: Sequence[int]) -> int:
    """Total number of weights and biases for an architecture."""
    return sum(
        (n_in + 1) * n_out for n_in, n_out in zip(architecture, architecture[1:])
    )


# --- JSON wire format -------------------------------------------------------
#
# {"architecture": [n0, ..., nm, 1],
#  "layers": [{"W": [["p/q", ...], ...], "b": ["p/q", ...]}, ...]}
#
# Rationals are strings; integer and decimal strings are converted exactly.


def network_to_json(net: ReluNetwork) -> dict:
    return {
        "architecture": list(net.architecture),
        "layers": [
            {
                "W": [[rat_str(v) for v in row] for row in layer.weights],
                "b": [rat_str(v) for v in layer.bias],
            }
            for layer in net.layers
        ],
    }


def _rationals(values, what: str) -> list[Fraction]:
    """Parse a JSON array of rationals, naming the entry that is not one."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be an array")
    out = []
    for k, v in enumerate(values):
        try:
            out.append(rat(v))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{what}[{k}]: {exc}") from exc
    return out


def network_from_json(data: dict) -> ReluNetwork:
    layers_raw = data.get("layers") if isinstance(data, dict) else None
    if not isinstance(layers_raw, list):
        raise ValueError("network JSON needs a 'layers' list")
    layers = []
    for idx, entry in enumerate(layers_raw):
        if not isinstance(entry, dict) or "W" not in entry or "b" not in entry:
            raise ValueError(f"layer {idx}: expected an object with 'W' and 'b' arrays")
        if not isinstance(entry["W"], list):
            raise ValueError(f"layer {idx}: W must be an array of rows")
        weights = [_rationals(row, f"layer {idx}: W[{r}]") for r, row in enumerate(entry["W"])]
        bias = _rationals(entry["b"], f"layer {idx}: b")
        layers.append(AffineMap.of(weights, bias))
    net = ReluNetwork(tuple(layers))
    declared = data.get("architecture")
    if declared is not None:
        if not isinstance(declared, list) or any(type(v) is not int for v in declared):
            raise ValueError("declared architecture must be an array of integers")
        if tuple(declared) != net.architecture:
            raise ValueError(
                f"declared architecture {tuple(declared)} does not match layers {net.architecture}"
            )
    return net


def load_network(path) -> ReluNetwork:
    with open(path) as fh:
        data = json.load(fh)
    return network_from_json(data)


def network_hash(net: ReluNetwork) -> str:
    import hashlib

    blob = json.dumps(network_to_json(net), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
