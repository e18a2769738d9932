"""Command-line interface.

Subcommands: complex, skeleton, regions, transversality, verify-johnson,
verify-bounded, experiment, svg.  Results are JSON on stdout, or written to
--out.  Exit codes: 0 success, 2 input error, 3 non-transversal threshold,
4 not-applicable architecture.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .complexes import build_complex, complex_to_json, skeleton, sign_key
from .harness import ExperimentConfig, run_experiment
from .linalg import rat
from .network import load_network
from .svg import render_svg
from .topology import (
    NOT_APPLICABLE,
    NonTransversalThresholdError,
    decision_topology,
    verify_johnson,
    verify_one_bounded,
)
from .transversality import analyze_network, constant_cell_values

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NON_TRANSVERSAL = 3
EXIT_NOT_APPLICABLE = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_net(path: str):
    try:
        return load_network(path)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}", EXIT_INPUT)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            EXIT_INPUT,
        )
    except ValueError as exc:
        raise CliError(f"{path}: {exc}", EXIT_INPUT)


def _emit(data: dict, out: str | None):
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def auto_threshold(cpx) -> Fraction:
    """The smallest-denominator transversal rational within the range of F
    over the complex's vertices and constant cells."""
    bad = constant_cell_values(cpx)
    values = {c.value(c.witness) for c in cpx.cells.values() if c.dim == 0} | bad
    if values:
        lo, hi = min(values), max(values)
    else:
        lo, hi = Fraction(0), Fraction(1)
    if lo == hi:
        lo, hi = lo - 1, hi + 1
    q = 1
    while True:
        p = -(-lo.numerator * q // lo.denominator)  # ceil(lo * q)
        while Fraction(p, q) <= hi:
            t = Fraction(p, q)
            if t not in bad:
                return t
            p += 1
        q += 1


def _parse_threshold(value: str, cpx) -> Fraction:
    if value == "auto":
        return auto_threshold(cpx)
    try:
        return rat(value)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_INPUT)


def cmd_complex(args) -> int:
    net = _load_net(args.network)
    cpx = build_complex(net)
    _emit(complex_to_json(cpx), args.out)
    return EXIT_OK


def cmd_skeleton(args) -> int:
    net = _load_net(args.network)
    cpx = build_complex(net)
    try:
        cells = skeleton(cpx, args.k)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_INPUT)
    data = {
        "ambient_dim": cpx.ambient_dim,
        "k": args.k,
        "cells": [
            {"sign": sign_key(c.sign), "dim": c.dim}
            for c in cells
        ],
    }
    _emit(data, args.out)
    return EXIT_OK


def cmd_regions(args) -> int:
    net = _load_net(args.network)
    cpx = build_complex(net)
    t = _parse_threshold(args.threshold, cpx)
    try:
        topo = decision_topology(cpx, t)
    except NonTransversalThresholdError as exc:
        raise CliError(str(exc), EXIT_NON_TRANSVERSAL)
    _emit(topo.to_json(), args.out)
    return EXIT_OK


def cmd_transversality(args) -> int:
    net = _load_net(args.network)
    _, report = analyze_network(net)
    _emit(report.to_json(), args.out)
    return EXIT_OK


def _cmd_verify(args, verifier) -> int:
    net = _load_net(args.network)
    cpx = build_complex(net)
    t = _parse_threshold(args.threshold, cpx)
    try:
        outcome = verifier(cpx, t)
    except NonTransversalThresholdError as exc:
        raise CliError(str(exc), EXIT_NON_TRANSVERSAL)
    _emit(outcome.to_json(), args.out)
    if outcome.status == NOT_APPLICABLE:
        raise CliError(outcome.reason, EXIT_NOT_APPLICABLE)
    return EXIT_OK


def cmd_experiment(args) -> int:
    data: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise CliError(f"no such file: {args.config}", EXIT_INPUT)
        except json.JSONDecodeError as exc:
            raise CliError(f"{args.config}: {exc}", EXIT_INPUT)
    if args.arch:
        try:
            data["architecture"] = [int(v) for v in args.arch.split(",")]
        except ValueError:
            raise CliError("--arch expects comma-separated integers", EXIT_INPUT)
    for key in ("trials", "seed", "check", "distribution", "bound"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    try:
        cfg = ExperimentConfig.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"invalid experiment config: {exc}", EXIT_INPUT)
    out_dir = Path(args.out or os.environ.get("RELUGEOM_OUT", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.jsonl"
    summary, _ = run_experiment(cfg, records_path)
    (out_dir / "summary.json").write_text(
        json.dumps(summary.to_json(), indent=2, sort_keys=True) + "\n"
    )
    sys.stdout.write(json.dumps(summary.to_json(), indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_svg(args) -> int:
    net = _load_net(args.network)
    if net.input_dim != 2:
        raise CliError(
            f"svg rendering needs input dimension 2, got {net.input_dim}",
            EXIT_NOT_APPLICABLE,
        )
    cpx = build_complex(net)
    t = _parse_threshold(args.threshold, cpx)
    bbox = None
    if args.bbox:
        try:
            parts = [rat(v) for v in args.bbox.split(",")]
        except ValueError as exc:
            raise CliError(str(exc), EXIT_INPUT)
        if len(parts) != 4 or parts[0] >= parts[2] or parts[1] >= parts[3]:
            raise CliError("bbox must be x0,y0,x1,y1 with x0 < x1 and y0 < y1", EXIT_INPUT)
        bbox = tuple(parts)
    try:
        topo = decision_topology(cpx, t)
    except NonTransversalThresholdError as exc:
        raise CliError(str(exc), EXIT_NON_TRANSVERSAL)
    Path(args.output).write_text(render_svg(topo, bbox))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relugeom",
        description="Exact decision-region geometry of small ReLU networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("complex", cmd_complex, help="dump the canonical polyhedral complex")
    p.add_argument("network")
    p.add_argument("--out")

    p = add("skeleton", cmd_skeleton, help="dump the k-skeleton")
    p.add_argument("network")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--out")

    p = add("regions", cmd_regions, help="decision-region components at a threshold")
    p.add_argument("network")
    p.add_argument("-t", "--threshold", required=True, help="rational, or 'auto'")
    p.add_argument("--out")

    p = add("transversality", cmd_transversality, help="genericity/transversality report")
    p.add_argument("network")
    p.add_argument("--out")

    p = add("verify-johnson", lambda a: _cmd_verify(a, verify_johnson),
            help="no bounded decision regions for width <= input dimension")
    p.add_argument("network")
    p.add_argument("-t", "--threshold", required=True)
    p.add_argument("--out")

    p = add("verify-bounded", lambda a: _cmd_verify(a, verify_one_bounded),
            help="at most one bounded component per region for (n, n+1, 1)")
    p.add_argument("network")
    p.add_argument("-t", "--threshold", required=True)
    p.add_argument("--out")

    p = add("experiment", cmd_experiment, help="run a randomized experiment from a config")
    p.add_argument("config", nargs="?", help="JSON config file; flags override its fields")
    p.add_argument("--arch", help="architecture as comma-separated dims, e.g. 2,3,1")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--check", choices=("transversal", "johnson", "one_bounded"))
    p.add_argument("--distribution", choices=("integer", "dyadic"))
    p.add_argument("--bound", type=int)
    p.add_argument("--out", help="output directory (default $RELUGEOM_OUT or .)")

    p = add("svg", cmd_svg, help="render a planar decision picture")
    p.add_argument("network")
    p.add_argument("-t", "--threshold", required=True)
    p.add_argument("--bbox", help="x0,y0,x1,y1 (default: padded vertex box)")
    p.add_argument("-o", "--output", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"relugeom: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
