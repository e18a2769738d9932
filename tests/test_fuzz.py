"""Seeded fuzzing of the CLI's network and experiment-config ingest.

Valid inputs are mutated with a fixed-seed ``random.Random``: keys dropped,
values swapped for values of another JSON type, rows lengthened or
shortened, and weights given decimal exponents near ``MAX_DECIMAL_EXPONENT``.
Each case runs ``python -m relugeom.cli`` in a child process with a
timeout; it must exit 0, 2, 3 or 4, and never print a traceback.
"""

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from relugeom.linalg import MAX_DECIMAL_EXPONENT

SEED = 20261018
NETWORK_CASES = 60
CONFIG_CASES = 40
TIMEOUT_S = 30
EXIT_CODES = {0, 2, 3, 4}

NETWORK = {
    "architecture": [2, 2, 1],
    "layers": [
        {"W": [["1", "-1"], ["2", "1/2"]], "b": ["0", "1"]},
        {"W": [["1", "-3/2"]], "b": ["1/3"]},
    ],
}
CONFIG = {
    "architecture": [2, 2, 1],
    "trials": 2,
    "seed": 5,
    "check": "one_bounded",
    "distribution": "dyadic",
    "bound": 3,
    "dyadic_exp": 2,
    "threshold": None,
    "threshold_range": ["-1", "1"],
    "threshold_retries": 4,
}
NETWORK_COMMANDS = [
    ["complex"],
    ["transversality"],
    ["regions", "-t", "auto"],
    ["skeleton", "-k", "1"],
    ["verify-bounded", "-t", "auto"],
    ["svg", "-t", "auto", "-o"],
]
# one value of each JSON type: str, int, float, bool, list, null
VALUES = {
    str: ["", "x", "3", "-1/2", "0.25"],
    int: [-1, 0, 1, 3],
    float: [0.5, -2.0, 1e300],
    bool: [True, False],
    list: [[], [1], ["1", "2"], [[]]],
    type(None): [None],
}


def paths(node, prefix=()):
    """Every (path, value) below a JSON value, the root excluded."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        yield prefix + (key,), value
        yield from paths(value, prefix + (key,))


def parent_of(data, path):
    for key in path[:-1]:
        data = data[key]
    return data


def mutate(rng: random.Random, data):
    """Apply one random mutation to data in place; returns the new root."""
    found = list(paths(data))
    kind = rng.choice(["drop", "swap", "length", "exponent"])
    if kind == "drop":
        keyed = [p for p, _ in found if isinstance(parent_of(data, p), dict)]
        if keyed:
            path = rng.choice(keyed)
            del parent_of(data, path)[path[-1]]
    elif kind == "swap":
        if rng.random() < 0.1:
            return rng.choice([v for vs in VALUES.values() for v in vs])
        path, value = rng.choice(found)
        other = rng.choice([t for t in VALUES if not isinstance(value, t)])
        parent_of(data, path)[path[-1]] = copy.deepcopy(rng.choice(VALUES[other]))
    elif kind == "length":
        rows = [v for _, v in found if isinstance(v, list)]
        row = rng.choice(rows) if rows else None
        if row and rng.random() < 0.5:
            row.pop(rng.randrange(len(row)))
        elif row is not None:
            row.append(copy.deepcopy(rng.choice(row)) if row else "1")
    else:
        numbers = [p for p, v in found if isinstance(v, str) and p[0] == "layers"]
        if numbers:
            exponent = MAX_DECIMAL_EXPONENT + rng.randint(-2, 2)
            sign = rng.choice(["", "-"])
            value = f"{rng.choice(['1', '-3', '2.5'])}e{sign}{exponent}"
            path = rng.choice(numbers)
            parent_of(data, path)[path[-1]] = value
    return data


def cases(rng: random.Random, base, count):
    for _ in range(count):
        data = copy.deepcopy(base)
        for _ in range(rng.randint(1, 2)):
            if not isinstance(data, (dict, list)) or not list(paths(data)):
                break
            data = mutate(rng, data)
        yield data


def run_cli(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "relugeom.cli", *argv],
        capture_output=True, text=True, timeout=TIMEOUT_S, env=env,
    )


def assert_clean(proc, data, argv):
    detail = f"{argv} on {json.dumps(data)[:300]}: exit {proc.returncode}\n{proc.stderr[-1500:]}"
    assert proc.returncode in EXIT_CODES, detail
    assert "Traceback" not in proc.stderr, detail


def test_mutated_networks_exit_cleanly(tmp_path):
    rng = random.Random(SEED)
    for index, data in enumerate(cases(rng, NETWORK, NETWORK_CASES)):
        path = tmp_path / f"net{index}.json"
        path.write_text(json.dumps(data))
        command = NETWORK_COMMANDS[index % len(NETWORK_COMMANDS)]
        argv = [command[0], str(path), *command[1:]]
        if command[0] == "svg":
            argv.append(str(tmp_path / f"net{index}.svg"))
        assert_clean(run_cli(argv), data, argv)


def test_mutated_configs_exit_cleanly(tmp_path):
    rng = random.Random(SEED + 1)
    for index, data in enumerate(cases(rng, CONFIG, CONFIG_CASES)):
        path = tmp_path / f"cfg{index}.json"
        path.write_text(json.dumps(data))
        argv = ["experiment", str(path), "--out", str(tmp_path / f"out{index}")]
        if index % 4 == 0:
            argv += ["--arch", "2,3,1"]
        assert_clean(run_cli(argv), data, argv)
