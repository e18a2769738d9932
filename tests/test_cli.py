import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import fig1_net, net_of, relu_of_x, simplex_net
from relugeom.cli import (
    EXIT_INPUT,
    EXIT_NON_TRANSVERSAL,
    EXIT_NOT_APPLICABLE,
    EXIT_OK,
    auto_threshold,
    main,
    threshold_between,
)
from relugeom.complexes import build_complex
from relugeom.network import network_to_json


def write_net(path: Path, net) -> str:
    path.write_text(json.dumps(network_to_json(net)))
    return str(path)


@pytest.fixture
def relu_path(tmp_path):
    return write_net(tmp_path / "relu.json", relu_of_x())


@pytest.fixture
def fig1_path(tmp_path):
    return write_net(tmp_path / "fig1.json", fig1_net())


@pytest.fixture
def simplex_path(tmp_path):
    return write_net(tmp_path / "simplex.json", simplex_net())


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_complex_single_relu(capsys, relu_path):
    code, data = run_json(capsys, ["complex", relu_path])
    assert code == EXIT_OK
    assert len(data["cells"]) == 3
    dims = sorted(c["dim"] for c in data["cells"])
    assert dims == [0, 1, 1]


def test_complex_fig1_cell_counts(capsys, fig1_path):
    code, data = run_json(capsys, ["complex", fig1_path])
    assert code == EXIT_OK
    by_dim = {}
    for c in data["cells"]:
        by_dim[c["dim"]] = by_dim.get(c["dim"], 0) + 1
    assert by_dim == {2: 7, 1: 9, 0: 3}


def test_complex_roundtrip_is_stable(capsys, fig1_path, tmp_path):
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    assert main(["complex", fig1_path, "--out", str(out1)]) == EXIT_OK
    assert main(["complex", fig1_path, "--out", str(out2)]) == EXIT_OK
    assert out1.read_text() == out2.read_text()
    reparsed = json.loads(out1.read_text())
    cpx = build_complex(fig1_net())
    from relugeom.complexes import complex_to_json

    direct = complex_to_json(cpx)
    assert [c["sign"] for c in reparsed["cells"]] == [c["sign"] for c in direct["cells"]]
    assert [c.get("restriction") for c in reparsed["cells"]] == [
        c.get("restriction") for c in direct["cells"]
    ]


def test_malformed_rational_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"layers": [{"W": [["1/x"]], "b": ["0"]}, {"W": [["1"]], "b": ["0"]}]})
    )
    assert main(["complex", str(bad)]) == EXIT_INPUT
    assert "malformed rational" in capsys.readouterr().err


def test_huge_decimal_exponent_exits_2_promptly(tmp_path):
    # Parsed exactly, "1e999999999" would take minutes; run the CLI in a
    # child process so that a regression fails on the timeout instead of
    # hanging the suite.
    bad = tmp_path / "huge.json"
    bad.write_text(
        json.dumps({"layers": [{"W": [["1e999999999"]], "b": ["0"]}, {"W": [["1"]], "b": ["0"]}]})
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "relugeom.cli", "complex", str(bad)],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert "decimal exponent" in proc.stderr


def test_invalid_json_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"layers": [,]}')
    assert main(["complex", str(bad)]) == EXIT_INPUT
    assert "line" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["complex", "/nonexistent/net.json"]) == EXIT_INPUT


def test_skeleton_command(capsys, fig1_path):
    code, data = run_json(capsys, ["skeleton", fig1_path, "-k", "1"])
    assert code == EXIT_OK
    assert len(data["cells"]) == 12
    assert all(c["dim"] <= 1 for c in data["cells"])


def test_skeleton_out_of_range(capsys, fig1_path):
    assert main(["skeleton", fig1_path, "-k", "5"]) == EXIT_INPUT


def test_regions_simplex(capsys, simplex_path):
    code, data = run_json(capsys, ["regions", simplex_path, "-t", "1/4"])
    assert code == EXIT_OK
    assert data["bounded_counts"] == {"yes": 0, "boundary": 1, "no": 1}


def test_regions_non_transversal_exit_3(capsys, relu_path):
    assert main(["regions", relu_path, "-t", "0"]) == EXIT_NON_TRANSVERSAL
    err = capsys.readouterr().err
    assert "not transversal" in err


@pytest.mark.parametrize(
    "command, net",
    [
        ("regions", relu_of_x()),
        ("verify-johnson", net_of(([[1, 0]], [0]), ([[1]], [0]))),  # ReLU(x) on R^2
        ("verify-bounded", simplex_net()),
        ("svg", simplex_net()),
    ],
    ids=["regions", "verify-johnson", "verify-bounded", "svg"],
)
def test_non_transversal_threshold_exits_3(tmp_path, capsys, command, net):
    path = write_net(tmp_path / "net.json", net)
    extra = ["-o", str(tmp_path / "out.svg")] if command == "svg" else []
    assert main([command, path, "-t", "0", *extra]) == EXIT_NON_TRANSVERSAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "threshold 0 is not transversal" in captured.err
    assert not (tmp_path / "out.svg").exists()


def test_regions_auto_threshold(capsys, simplex_path):
    code, data = run_json(capsys, ["regions", simplex_path, "-t", "auto"])
    assert code == EXIT_OK
    # smallest denominator in the vertex-value range [0, 0] widened to [-1, 1]
    assert data["threshold"] == "-1"


def test_auto_threshold_smallest_denominator():
    # vertex/constant values of the fig1 net are {0, 1}; both are
    # non-transversal, so the smallest-denominator choice inside is 1/2
    cpx = build_complex(fig1_net())
    assert auto_threshold(cpx) == Fraction(1, 2)


def searched_threshold(lo, hi, bad):
    """The least transversal rational by trying every denominator in turn."""
    q = 1
    while True:
        p = -(-lo.numerator * q // lo.denominator)
        while Fraction(p, q) <= hi:
            if Fraction(p, q) not in bad:
                return Fraction(p, q)
            p += 1
        q += 1


def test_threshold_between_matches_search():
    rng = random.Random(8)
    for _ in range(3000):
        a, b = (Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(2))
        if a == b:
            continue
        lo, hi = min(a, b), max(a, b)
        near = [lo, hi, searched_threshold(lo, hi, set())]
        near += [Fraction(rng.randint(-60, 60), rng.randint(1, 8)) for _ in range(6)]
        bad = {v for v in near if rng.random() < 0.6}
        assert threshold_between(lo, hi, bad) == searched_threshold(lo, hi, bad), (lo, hi, bad)


def test_auto_threshold_in_a_narrow_range_is_prompt(tmp_path):
    # F = 10^-4300 (ReLU(x) + ReLU(x - 1)) ranges over [0, 10^-4300] on its
    # vertices, and 0 is not transversal: the threshold's denominator has
    # 4301 digits, too many to write, which a search over denominators
    # would never reach.
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps({"layers": [
        {"W": [["1"], ["1"]], "b": ["0", "-1"]},
        {"W": [["1e-4300", "1e-4300"]], "b": ["0"]},
    ]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "relugeom.cli", "regions", str(path), "-t", "auto"],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert "int-to-str limit" in proc.stderr


def test_regions_empty_yes_is_fine(capsys, tmp_path):
    from conftest import negated_abs_net

    path = write_net(tmp_path / "neg.json", negated_abs_net())
    code, data = run_json(capsys, ["regions", path, "-t", "1"])
    assert code == EXIT_OK
    assert data["regions"]["yes"] == []


def test_transversality_command(capsys, relu_path):
    code, data = run_json(capsys, ["transversality", relu_path])
    assert code == EXIT_OK
    assert data["transversal"] is True
    assert data["nontransversal_thresholds"] == ["0"]


def test_verify_johnson_not_applicable_exit_4(capsys, simplex_path):
    assert main(["verify-johnson", simplex_path, "-t", "1/4"]) == EXIT_NOT_APPLICABLE


def test_verify_bounded_simplex(capsys, simplex_path):
    code, data = run_json(capsys, ["verify-bounded", simplex_path, "-t", "1/4"])
    assert code == EXIT_OK
    assert data["status"] == "pass"
    assert data["bounded_counts"]["no"] == 1


def test_verify_bounded_wrong_arch_exit_4(capsys, tmp_path):
    from conftest import tilted_bump_net

    path = write_net(tmp_path / "bump.json", tilted_bump_net())
    assert main(["verify-bounded", path, "-t", "1/2"]) == EXIT_NOT_APPLICABLE


def test_experiment_command(tmp_path, capsys):
    cfg = {
        "architecture": [2, 3, 1],
        "trials": 3,
        "seed": 21,
        "check": "one_bounded",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "results"
    code = main(["experiment", str(cfg_path), "--out", str(out_dir)])
    assert code == EXIT_OK
    records = (out_dir / "records.jsonl").read_text().splitlines()
    assert len(records) == 3
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["trials"] == 3
    capsys.readouterr()


def test_experiment_flags_only(tmp_path, capsys):
    out_dir = tmp_path / "flagrun"
    code = main(
        [
            "experiment",
            "--arch", "2,3,1",
            "--trials", "2",
            "--seed", "9",
            "--check", "transversal",
            "--bound", "50",
            "--out", str(out_dir),
        ]
    )
    assert code == EXIT_OK
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["trials"] == 2
    assert summary["config"]["check"] == "transversal"
    capsys.readouterr()


def test_experiment_flags_override_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"architecture": [2, 3, 1], "trials": 5, "seed": 1})
    )
    out_dir = tmp_path / "override"
    code = main(["experiment", str(cfg_path), "--trials", "1", "--out", str(out_dir)])
    assert code == EXIT_OK
    assert len((out_dir / "records.jsonl").read_text().splitlines()) == 1
    capsys.readouterr()


def test_experiment_missing_architecture(capsys):
    assert main(["experiment", "--trials", "3"]) == EXIT_INPUT


def test_experiment_missing_seed_is_named(capsys):
    assert main(["experiment", "--arch", "2,3,1", "--trials", "2"]) == EXIT_INPUT
    assert "missing field 'seed'" in capsys.readouterr().err


# every subcommand that writes a file, with its output flag last
WRITERS = [
    ["complex", "NET", "--out"],
    ["skeleton", "NET", "-k", "1", "--out"],
    ["regions", "NET", "-t", "auto", "--out"],
    ["transversality", "NET", "--out"],
    ["verify-johnson", "NET", "-t", "auto", "--out"],
    ["verify-bounded", "NET", "-t", "auto", "--out"],
    ["experiment", "--arch", "2,3,1", "--trials", "2", "--seed", "1", "--out"],
    ["svg", "NET", "-t", "auto", "-o"],
]


def _unwritable_exits_2(capsys, argv, target):
    assert main(argv + [str(target)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"cannot write {target}" in err, err


@pytest.mark.parametrize("argv", WRITERS, ids=[argv[0] for argv in WRITERS])
def test_output_below_a_file_exits_2(tmp_path, capsys, simplex_path, argv):
    blocker = tmp_path / "FILE"
    blocker.write_text("")
    target = blocker / "x.json"
    _unwritable_exits_2(capsys, [simplex_path if a == "NET" else a for a in argv], target)


def test_unwritable_outputs_exit_2(tmp_path, capsys, simplex_path):
    blocker = tmp_path / "FILE"
    blocker.write_text("")
    directory = tmp_path / "DIR"
    directory.mkdir()
    cases = [
        (["complex", simplex_path, "--out"], tmp_path / "nonexistent" / "dir" / "x.json"),
        (["experiment", "--arch", "2,3,1", "--trials", "2", "--seed", "1", "--out"], blocker),
        (["svg", simplex_path, "-t", "auto", "-o"], directory),
    ]
    for argv, target in cases:
        _unwritable_exits_2(capsys, argv, target)


def test_svg_golden_stability(tmp_path, capsys, simplex_path):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert main(["svg", simplex_path, "-t", "1/4", "-o", str(out1)]) == EXIT_OK
    assert main(["svg", simplex_path, "-t", "1/4", "-o", str(out2)]) == EXIT_OK
    body = out1.read_text()
    assert body == out2.read_text()
    assert body.startswith("<svg")
    assert "stroke-dasharray" in body  # the flat simplex edges render dashed
    assert "#1565c0" in body  # the level set is drawn


def test_svg_bbox_and_errors(tmp_path, capsys, simplex_path, relu_path):
    out = tmp_path / "c.svg"
    assert (
        main(["svg", simplex_path, "-t", "1/4", "--bbox=-1,-1,2,2", "-o", str(out)])
        == EXIT_OK
    )
    assert main(["svg", relu_path, "-t", "1", "-o", str(out)]) == EXIT_NOT_APPLICABLE
    assert (
        main(["svg", simplex_path, "-t", "1/4", "--bbox", "2,0,1,1", "-o", str(out)])
        == EXIT_INPUT
    )
    assert main(["svg", simplex_path, "-t", "0", "-o", str(out)]) == EXIT_NON_TRANSVERSAL


# a valid net whose vertex lies at x = -10^400, beyond the float range
FAR_VERTEX_NET = {
    "layers": [
        {"W": [["1e-400", "0"], ["0", "1"], ["1", "1"]], "b": ["1", "0", "0"]},
        {"W": [["1", "1", "1"]], "b": ["0"]},
    ]
}


def test_svg_beyond_the_float_range_exits_2(tmp_path, capsys, simplex_path):
    far = tmp_path / "far.json"
    far.write_text(json.dumps(FAR_VERTEX_NET))
    out = tmp_path / "x.svg"
    cases = [
        ["svg", simplex_path, "-t", "1", "--bbox", "0,0,1e4000,1", "-o", str(out)],
        ["svg", str(far), "-t", "auto", "-o", str(out)],
    ]
    for argv in cases:
        assert main(argv) == EXIT_INPUT
        assert "exceed the float range" in capsys.readouterr().err
        assert not out.exists()


OUTPUT_LAYER = {"W": [["1"]], "b": ["0"]}


@pytest.mark.parametrize(
    "data, message",
    [
        ({"layers": 5}, "needs a 'layers' list"),
        ({"layers": [{"W": [[True]], "b": ["0"]}, OUTPUT_LAYER]}, "W[0][0]: refusing boolean True"),
        ({"layers": [{"W": [[0.5]], "b": ["0"]}, OUTPUT_LAYER]}, "W[0][0]: refusing inexact float 0.5"),
        (
            {"layers": [{"W": [["1", "1"]], "b": ["0"]}, {"W": [], "b": []}, {"W": [[]], "b": ["0"]}]},
            "layer 1 has no units",
        ),
    ],
    ids=["layers-not-a-list", "boolean-weight", "float-weight", "zero-width-layer"],
)
def test_malformed_network_json_exits_2(tmp_path, capsys, data, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["complex", str(bad)]) == EXIT_INPUT
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"distribution": "dyadic", "dyadic_exp": "3"}, "dyadic_exp must be an integer"),
        ({"threshold_retries": "4"}, "threshold_retries must be an integer"),
        ({"distribution": "dyadic", "dyadic_exp": -2}, "dyadic_exp must be nonnegative"),
        ({"threshold_range": "x"}, "threshold_range must be a pair [lo, hi]"),
        ({"threshold_range": 5}, "threshold_range must be a pair [lo, hi]"),
        ({"threshold_range": ["1", "0"]}, "threshold_range must be a pair [lo, hi] with lo <= hi"),
    ],
    ids=[
        "string-dyadic-exp",
        "string-threshold-retries",
        "negative-dyadic-exp",
        "string-threshold-range",
        "number-threshold-range",
        "reversed-threshold-range",
    ],
)
def test_experiment_bad_field_exits_2(tmp_path, capsys, fields, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"architecture": [2, 3, 1], "trials": 1, "seed": 1, **fields}))
    assert main(["experiment", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_experiment_config_not_an_object_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2]")
    argv = ["experiment", str(cfg_path), "--arch", "2,3,1", "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_INPUT
    assert "must be a JSON object" in capsys.readouterr().err


def test_experiment_empty_architecture_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"architecture": [], "trials": 1, "seed": 1}))
    assert main(["experiment", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_INPUT
    assert "architecture must be" in capsys.readouterr().err


# F = 10^2200 * ReLU(10^2200 x) + 0 * ReLU(x - 1): its restriction on x > 0
# and its value at the vertex x = 1 both have 4401 digits
HUGE_EXPORT_NET = {
    "layers": [
        {"W": [["1e2200"], ["1"]], "b": ["0", "-1"]},
        {"W": [["1e2200", "0"]], "b": ["0"]},
    ]
}


@pytest.mark.parametrize("command", ["complex", "transversality"])
def test_oversized_export_exits_2(tmp_path, capsys, command):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_EXPORT_NET))
    assert main([command, str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "int-to-str limit" in captured.err
