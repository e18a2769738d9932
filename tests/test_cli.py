import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import fig1_net, relu_of_x, simplex_net
from relugeom.cli import (
    EXIT_INPUT,
    EXIT_NON_TRANSVERSAL,
    EXIT_NOT_APPLICABLE,
    EXIT_OK,
    auto_threshold,
    main,
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


OUTPUT_LAYER = {"W": [["1"]], "b": ["0"]}


@pytest.mark.parametrize(
    "data, message",
    [
        ({"layers": 5}, "needs a 'layers' list"),
        ({"layers": [{"W": [[True]], "b": ["0"]}, OUTPUT_LAYER]}, "W[0][0]: refusing boolean True"),
        ({"layers": [{"W": [[0.5]], "b": ["0"]}, OUTPUT_LAYER]}, "W[0][0]: refusing inexact float 0.5"),
    ],
    ids=["layers-not-a-list", "boolean-weight", "float-weight"],
)
def test_malformed_network_json_exits_2(tmp_path, capsys, data, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["complex", str(bad)]) == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_experiment_empty_architecture_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"architecture": [], "trials": 1, "seed": 1}))
    assert main(["experiment", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_INPUT
    assert "architecture must be" in capsys.readouterr().err
