"""One digest over the exported complex, the oriented 1-skeleton and the SVG
of seeded planar nets.  The digest was taken before a cell stopped storing
its H-representation; edges and polygons read off the face lattice must
keep every byte."""

import hashlib
import json
import random

from conftest import random_net, rank_one_net, rational_net
from relugeom.cli import auto_threshold
from relugeom.complexes import build_complex, complex_to_json, sign_key
from relugeom.linalg import rat_str
from relugeom.svg import render_svg
from relugeom.topology import decision_topology, oriented_skeleton

DIGEST = "193c47965e35c7e3de773d4b5ecc70334a9763fb66cb5d16180db7fe407a7c5a"


def planar_nets():
    rng = random.Random(1616)
    for arch in [(2, 3, 1), (2, 4, 1), (2, 2, 2, 1), (2, 3, 3, 1), (2, 1, 1), (2, 5, 1)]:
        for _ in range(4):
            yield random_net(rng, arch, -4, 4)
    for width in (1, 2, 3, 4):
        yield rank_one_net(rng, width)
        yield rank_one_net(rng, width)
    for arch in [(2, 3, 1), (2, 2, 2, 1), (2, 4, 1)]:
        for den in (3, 8):
            yield rational_net(rng, arch, den)
            yield rational_net(rng, arch, den)


def vec_str(v) -> str | None:
    return None if v is None else [rat_str(x) for x in v]


def outputs(net) -> str:
    cpx = build_complex(net)
    skeleton = oriented_skeleton(cpx)
    edges = [
        [sign_key(key), e.kind, vec_str(e.base), vec_str(e.direction), vec_str(e.end), e.orientation]
        for key, e in sorted(skeleton.edges.items(), key=lambda item: sign_key(item[0]))
    ]
    topo = decision_topology(cpx, auto_threshold(cpx))
    return json.dumps(
        [complex_to_json(cpx), edges, complex_to_json(topo.complex), render_svg(topo)], sort_keys=True
    )


def test_outputs_keep_their_digest():
    nets = list(planar_nets())
    assert len(nets) == 44
    digest = hashlib.sha256()
    kinds = set()
    for net in nets:
        digest.update(outputs(net).encode())
        kinds |= {e.kind for e in oriented_skeleton(build_complex(net)).edges.values()}
    assert kinds == {"segment", "ray", "line"}
    assert digest.hexdigest() == DIGEST
