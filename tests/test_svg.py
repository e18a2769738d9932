import hashlib
import random
from fractions import Fraction

import pytest

from cellhelpers import complex_with
from conftest import fig1_net, net_of, simplex_net
from matrix_oracle import nullspace, primitive_form
from relugeom.cli import auto_threshold
from relugeom.complexes import build_complex, complex_to_json
from relugeom.svg import default_bbox, render_svg
from relugeom.topology import decision_topology


def render(net, t, bbox=None):
    topo = decision_topology(build_complex(net), t)
    return render_svg(topo, bbox)


def test_fig1_golden():
    svg = render(fig1_net(), Fraction(1, 2))
    # 9 arrangement edges + 3 level-set segments; 3 vertices
    assert svg.count("<line") == 12
    assert svg.count("<circle") == 3
    assert (
        hashlib.sha256(svg.encode()).hexdigest()
        == "238901d2e7cfaefd826b863dbf35f59ce5c762097d89d8e6596a033741a96ea0"
    )


def test_simplex_golden():
    svg = render(simplex_net(), Fraction(1, 4))
    assert "stroke-dasharray" in svg  # flat simplex edges
    assert svg.count("<circle") == 3
    assert (
        hashlib.sha256(svg.encode()).hexdigest()
        == "11e41a085e6f93a3fdb1d0e80deef0b2156c600834a9c9991892c2c17b03f5ac"
    )


def test_default_bbox_pads_vertices():
    cpx = build_complex(simplex_net())
    x0, y0, x1, y1 = default_bbox(cpx)
    assert x0 < 0 < 1 < x1
    assert y0 < 0 < 1 < y1


def test_bbox_clips_content():
    wide = render(simplex_net(), Fraction(1, 4), bbox=(Fraction(-4), Fraction(-4), Fraction(5), Fraction(5)))
    tight = render(simplex_net(), Fraction(1, 4), bbox=(Fraction(0), Fraction(0), Fraction(1), Fraction(1)))
    assert wide != tight
    assert tight.startswith("<svg")


def test_non_planar_rejected():
    from conftest import random_net
    import random

    net = random_net(random.Random(0), (3, 3, 1))
    topo = decision_topology(build_complex(net), Fraction(1, 3))
    with pytest.raises(ValueError):
        render_svg(topo)



def test_outputs_do_not_depend_on_the_lineality_basis():
    """refine_by_threshold takes the lineality basis that build_complex
    keeps.  F is constant along L, so the level form never moves along a
    basis direction and only dim L counts: on nets whose first layer has
    rank < n, a basis taken from the nullspace of the first layer gives the
    same refinement, witnesses and SVG included."""
    rng = random.Random(1414)
    moved = 0
    for k in range(40):
        n = 2 + k % 2
        # first-layer rows in the span of u and v: rank 1 for n = 2, 2 for n = 3
        u = [rng.randint(-3, 3) for _ in range(n - 1)] + [1]
        v = [rng.randint(-3, 3) for _ in range(n)] if n == 3 else [0] * n
        first = []
        for _ in range(4):
            a, b = rng.randint(-2, 2) or 1, rng.randint(-2, 2)
            first.append([a * x + b * y for x, y in zip(u, v)])
        bias = [rng.randint(-3, 3) for _ in first]
        net = net_of((first, bias), ([[rng.randint(-3, 3) for _ in first]], [0]))
        cpx = build_complex(net)
        basis = nullspace(net.layers[0].weights, n)
        other = complex_with(cpx, lineality=tuple(primitive_form(d, 0) for d in basis))
        moved += other.lineality != cpx.lineality
        t = auto_threshold(cpx)
        topo, alt = decision_topology(cpx, t), decision_topology(other, t)
        assert topo.to_json() == alt.to_json()
        assert complex_to_json(topo.complex) == complex_to_json(alt.complex)
        assert {k: c.point for k, c in topo.complex.cells.items()} == {
            k: c.point for k, c in alt.complex.cells.items()
        }
        if n == 2:
            assert render_svg(topo) == render_svg(alt)
    assert moved >= 10
