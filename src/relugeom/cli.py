"""Command-line interface.

Subcommands: complex, skeleton, regions, transversality, verify-johnson,
verify-bounded, experiment, svg.  Results are JSON on stdout, or written to
--out.  Exit codes: 0 success, 2 input error (an unwritable output path
included), 3 non-transversal threshold, 4 not-applicable architecture.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .complexes import build_complex, complex_to_json, skeleton, sign_key
from .harness import ExperimentConfig, run_experiment
from .linalg import DigitLimitError, rat
from .network import load_network
from .svg import render_svg
from .topology import (
    NOT_APPLICABLE,
    NonTransversalThresholdError,
    decision_topology,
    verify_johnson,
    verify_one_bounded,
)
from .transversality import analyze_network

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


def _unwritable(path, exc: OSError) -> CliError:
    return CliError(f"cannot write {exc.filename or path}: {exc.strerror or exc}", EXIT_INPUT)


def _write(path, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(path, exc)


def _emit(data: dict, out: str | None):
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def auto_threshold(cpx) -> Fraction:
    """The smallest-denominator transversal rational within the range of F
    over the complex's constant cells: its minimal faces, which are its
    vertices when it has any."""
    bad = cpx.constant_values
    lo, hi = min(bad), max(bad)
    if lo == hi:
        lo, hi = lo - 1, hi + 1
    return threshold_between(lo, hi, bad)


def threshold_between(lo: Fraction, hi: Fraction, bad) -> Fraction:
    """The least p/q in [lo, hi] outside the finite set ``bad``, with q least
    first: q from the simplest rational of each piece of [lo, hi] between
    bad values, so a narrow range costs no search over denominators."""
    cuts = sorted({lo, hi} | {v for v in bad if lo < v < hi})
    q = min(
        _simplest(a, b, a == lo and a not in bad, b == hi and b not in bad).denominator
        for a, b in zip(cuts, cuts[1:])
    )
    p = -(-lo.numerator * q // lo.denominator)  # ceil(lo * q)
    while Fraction(p, q) in bad:
        p += 1
    return Fraction(p, q)


def _simplest(lo: Fraction, hi: Fraction | None, lo_in: bool, hi_in: bool) -> Fraction:
    """The rational of least denominator between lo < hi (None: no upper
    end), each end included or not, by continued fractions: x = n + 1/y
    while no integer lies between, with x = (P·y + Q) / (R·y + S)."""
    P, Q, R, S = 1, 0, 0, 1
    while True:
        n = lo.numerator // lo.denominator
        m = n if lo_in and n == lo else n + 1  # the least integer from lo on
        if hi is None or m < hi or (m == hi and hi_in):
            return Fraction(P * m + Q, R * m + S)
        lo, hi, lo_in, hi_in = 1 / (hi - n), None if lo == n else 1 / (lo - n), hi_in, lo_in
        P, Q, R, S = P * n + Q, P, R * n + S, R


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
    _emit(decision_topology(cpx, t).to_json(), args.out)
    return EXIT_OK


def cmd_transversality(args) -> int:
    net = _load_net(args.network)
    _, report = analyze_network(net)
    _emit(report.to_json(), args.out)
    return EXIT_OK


def _cmd_verify(args, verifier) -> int:
    net = _load_net(args.network)
    cpx = build_complex(net)
    outcome = verifier(cpx, _parse_threshold(args.threshold, cpx))
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
        except ValueError as exc:  # malformed JSON, or an integer past the digit limit
            raise CliError(f"{args.config}: {exc}", EXIT_INPUT)
        if not isinstance(data, dict):
            raise CliError(f"{args.config}: an experiment config must be a JSON object", EXIT_INPUT)
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
    out_dir = args.out or os.environ.get("RELUGEOM_OUT", ".")
    try:
        os.makedirs(out_dir, exist_ok=True)
        summary, _ = run_experiment(cfg, os.path.join(out_dir, "records.jsonl"))
    except OSError as exc:
        raise _unwritable(out_dir, exc)
    text = json.dumps(summary.to_json(), indent=2, sort_keys=True) + "\n"
    _write(os.path.join(out_dir, "summary.json"), text)
    sys.stdout.write(text)
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
    topology = decision_topology(cpx, t)
    try:
        body = render_svg(topology, bbox)
    except OverflowError as exc:
        raise CliError(f"cannot draw: the picture's coordinates exceed the float range ({exc})", EXIT_INPUT)
    _write(args.output, body)
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
        message, code = exc, exc.code
    except NonTransversalThresholdError as exc:
        message, code = exc, EXIT_NON_TRANSVERSAL
    except DigitLimitError as exc:
        message, code = exc, EXIT_INPUT
    print(f"relugeom: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
