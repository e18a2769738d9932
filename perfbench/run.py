#!/usr/bin/env python3
"""Seeded benchmark of relugeom: experiment trials and single-network CLI calls.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from any directory; it measures the relugeom sources under ``src/``
next to this directory.  Workloads (see inputs.py):

- ``johnson-deep``: experiment trials on (3,3,1,1) with the Johnson check;
- ``transversal-scan``: experiment trials on (2,3,1) with the transversal check;
- ``cli-planar``: fresh ``python -m relugeom.cli`` processes, one after
  another, for transversality, regions -t auto, complex and svg -t auto on
  (2,3,1) nets.

The load is closed-loop: one client, one op at a time.  An op is one trial
or one CLI call.  ``--trace 0`` runs ops until their summed wall time
reaches ``--seconds`` and reports the end-to-end metrics.  ``--trace 1``
runs a fixed slice of ops, sized from ``--seconds``, once plain and once
with spans around each layer, and reports the per-layer metrics.

Every op is checked: experiment verdicts against the theorems, CLI exit
codes, output syntax and Theorem 5, and, on a workload's default seed,
digests pinned in pins.json.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every op
passed, 1 when some op failed, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINS = HERE / "pins.json"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
# Size of the traced slice per second of --seconds: trials for the
# experiment workloads, networks (four calls each) for cli-planar.
TRACE_SLICE_PER_SECOND = {"johnson-deep": 2.5, "transversal-scan": 22.0, "cli-planar": 1.0}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result line)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def load_relugeom() -> None:
    if not (SRC / "relugeom" / "__init__.py").is_file():
        raise BenchError(f"no relugeom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import relugeom

    if Path(relugeom.__file__).resolve().parent != SRC / "relugeom":
        raise BenchError(f"imported relugeom from {relugeom.__file__}, not from {SRC}")


# --- environment -------------------------------------------------------------


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }


# --- set-up ------------------------------------------------------------------


def run_setup(workload: str, seed: int, tmp: Path, repeats: int) -> tuple[list[float], Path]:
    """Run the set-up child `repeats` times; return its wall times up to the
    end of input generation, and the directory holding the inputs."""
    times = []
    out_dir = tmp
    for rep in range(repeats):
        out_dir = tmp / f"inputs-{rep}"
        out_dir.mkdir()
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "inputs.py"), workload, str(seed), str(out_dir)],
                capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"set-up took over {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0:
            raise BenchError(f"set-up failed with exit code {proc.returncode}:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times, out_dir


# --- pinned digests ----------------------------------------------------------


def load_pins(workload: str, seed: int) -> dict | None:
    """The pins of a workload when run on its default seed, else None."""
    if seed != inputs.DEFAULT_SEEDS[workload]:
        return None
    return json.loads(PINS.read_text())[workload]


def record_prefix_digests(lines, block: int) -> list[str]:
    """sha256 of the first k records, wall_ms removed, for every k that is a
    multiple of block."""
    sha = hashlib.sha256()
    out = []
    for count, line in enumerate(lines, 1):
        record = json.loads(line)
        record.pop("wall_ms", None)
        sha.update((json.dumps(record, sort_keys=True) + "\n").encode())
        if count % block == 0:
            out.append(sha.hexdigest())
    return out


# --- experiment workloads ----------------------------------------------------


def run_trials(cfg, records_path: Path, *, seconds: float | None = None, count: int | None = None) -> list[float]:
    """Run trials 0, 1, 2, ... and write their records as
    harness.run_experiment does.  Stops after `count` trials, or once the
    summed op time reaches `seconds`.  Returns the wall time of each op."""
    from relugeom import harness

    times: list[float] = []
    busy = 0.0
    with open(records_path, "w") as sink:
        while (len(times) < count) if count is not None else (busy < seconds):
            index = len(times)
            start = time.perf_counter()
            try:
                record = harness.run_trial(cfg, index)
                line = json.dumps(record.to_json(), sort_keys=True)
            except Exception as exc:  # a crashing trial is a failed op
                line = json.dumps({"index": index, "error": repr(exc)})
            sink.write(line + "\n")
            elapsed = time.perf_counter() - start
            times.append(elapsed)
            busy += elapsed
    return times


def trial_failure(workload: str, index: int, record: dict) -> str | None:
    """Why a trial record breaks its theorem, or None."""
    from relugeom.harness import NO_THRESHOLD, replay

    if "error" in record:
        return f"trial {index} raised {record['error']}"
    if record.get("index") != index:
        return f"record {index} carries index {record.get('index')}"
    verdict = record["verdict"]
    if workload == "johnson-deep":
        # Theorem 4: no bounded decision regions when every width <= n.
        if verdict == NO_THRESHOLD:
            return None
        if verdict != "pass" or any(record["bounded_counts"].values()):
            return f"trial {index}: johnson verdict {verdict}, bounded {record['bounded_counts']}"
        return None
    expected = "pass" if record["generic"] and record["transversal"] else "fail"
    if verdict != expected:
        return f"trial {index}: verdict {verdict}, flags say {expected}"
    if verdict == "fail" and replay(record) != "fail":
        return f"trial {index}: failing record does not replay"
    return None


def check_trials(workload: str, records_path: Path, pins: dict | None) -> tuple[dict[int, str], int]:
    """Failed ops by index, and how many ops a pinned digest covered."""
    lines = records_path.read_text().splitlines()
    failures = {}
    for index, line in enumerate(lines):
        reason = trial_failure(workload, index, json.loads(line))
        if reason:
            failures[index] = reason
    pinned = 0
    if pins is not None:
        block = pins["block"]
        expected = pins["prefix_sha256"]
        got = record_prefix_digests(lines[: block * len(expected)], block)
        matched = 0
        while matched < len(got) and got[matched] == expected[matched]:
            matched += 1
        pinned = block * len(got)
        for index in range(block * matched, pinned):
            failures.setdefault(index, f"record {index}: digest differs from pins.json")
    return failures, pinned


def experiment_run(workload, seed, input_dir, seconds, traced):
    from relugeom.harness import ExperimentConfig, sample_network

    cfg = ExperimentConfig.from_json(json.loads((input_dir / "config.json").read_text()))
    pins = load_pins(workload, seed)
    if not traced:
        records = input_dir / "records.jsonl"
        times = run_trials(cfg, records, seconds=seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures, pinned = check_trials(workload, records, pins)
        return {"times": times, "rss_mb": rss_mb, "failures": failures, "pinned": pinned}
    count = max(1, math.ceil(seconds * TRACE_SLICE_PER_SECOND[workload]))
    plain = run_trials(cfg, input_dir / "records-plain.jsonl", count=count)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_times = run_trials(cfg, input_dir / "records-traced.jsonl", count=count)
    finally:
        tracer.uninstall()
    failures, pinned = {}, 0
    for offset, name in ((0, "records-plain.jsonl"), (count, "records-traced.jsonl")):
        fails, covered = check_trials(workload, input_dir / name, pins)
        failures.update({offset + i: why for i, why in fails.items()})
        pinned += covered
    networks = [sample_network(cfg, i) for i in range(count)]
    return {
        "times": plain + traced_times,
        "plain_s": sum(plain),
        "traced_s": sum(traced_times),
        "tracer": tracer,
        "networks": networks,
        "failures": failures,
        "pinned": pinned,
    }


# --- cli-planar --------------------------------------------------------------


def cli_op(input_dir: Path, op: int) -> tuple[int, str, list[str], Path | None]:
    """Network index, subcommand, argv and SVG path of the op-th CLI call."""
    network = (op // len(inputs.CLI_SUBCOMMANDS)) % inputs.CLI_NETWORKS
    sub = inputs.CLI_SUBCOMMANDS[op % len(inputs.CLI_SUBCOMMANDS)]
    path = str(inputs.network_path(input_dir, network))
    svg = None
    if sub == "regions":
        argv = ["regions", path, "-t", "auto"]
    elif sub == "svg":
        svg = input_dir / "picture.svg"
        argv = ["svg", path, "-t", "auto", "-o", str(svg)]
    else:
        argv = [sub, path]
    return network, sub, argv, svg


def cli_failure(code: int, sub: str, output: bytes, pin: str | None) -> str | None:
    """Why a CLI call failed its check, or None."""
    if code != 0:
        return f"exit code {code}"
    if sub == "svg":
        if not output.startswith(b"<svg"):
            return "svg output is not an SVG document"
    else:
        try:
            data = json.loads(output)
        except ValueError:
            return "stdout is not JSON"
        # Theorem 5: at most one bounded component in each open region.
        if sub == "regions" and max(data["bounded_counts"]["yes"], data["bounded_counts"]["no"]) > 1:
            return f"bounded components {data['bounded_counts']}"
    if pin is not None and hashlib.sha256(output).hexdigest() != pin:
        return "output differs from pins.json"
    return None


def call_cli(input_dir: Path, argv: list[str], svg: Path | None, in_process: bool) -> tuple[int, bytes, float]:
    """One CLI call: its exit code, its output (stdout, or the SVG file) and
    its wall time."""
    from relugeom import cli

    if svg is not None and svg.exists():
        svg.unlink()
    env = child_env()
    start = time.perf_counter()
    if in_process:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crashing call is a failed op
                code = -1
        stdout = buffer.getvalue().encode()
    else:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "relugeom.cli", *argv],
                capture_output=True, cwd=input_dir, env=env, timeout=CHILD_TIMEOUT_S,
            )
            code, stdout = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            code, stdout = -1, b""
    elapsed = time.perf_counter() - start
    output = svg.read_bytes() if svg is not None and svg.exists() else stdout
    return code, output, elapsed


def run_cli_ops(input_dir, pins, *, in_process, seconds=None, count=None):
    """CLI calls in a fixed cycle over networks and subcommands.  Stops after
    `count` calls, or once the summed call time reaches `seconds`."""
    times, failures = [], {}
    pinned = 0
    busy = 0.0
    while (len(times) < count) if count is not None else (busy < seconds):
        op = len(times)
        network, sub, argv, svg = cli_op(input_dir, op)
        code, output, elapsed = call_cli(input_dir, argv, svg, in_process)
        times.append(elapsed)
        busy += elapsed
        pin = None
        if pins is not None:
            pin = pins["outputs"].get(f"{network}/{sub}")
            pinned += pin is not None
        reason = cli_failure(code, sub, output, pin)
        if reason:
            failures[op] = f"call {op} ({sub} on network {network}): {reason}"
    return times, failures, pinned


def cli_run(workload, seed, input_dir, seconds, traced):
    from relugeom.network import load_network

    pins = load_pins(workload, seed)
    if not traced:
        times, failures, pinned = run_cli_ops(input_dir, pins, in_process=False, seconds=seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return {"times": times, "rss_mb": rss_mb, "failures": failures, "pinned": pinned}
    networks = max(1, math.ceil(seconds * TRACE_SLICE_PER_SECOND[workload]))
    count = networks * len(inputs.CLI_SUBCOMMANDS)
    plain, failures, pinned = run_cli_ops(input_dir, pins, in_process=True, count=count)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_times, fails, more = run_cli_ops(input_dir, pins, in_process=True, count=count)
    finally:
        tracer.uninstall()
    failures.update({count + op: why for op, why in fails.items()})
    return {
        "times": plain + traced_times,
        "plain_s": sum(plain),
        "traced_s": sum(traced_times),
        "tracer": tracer,
        "networks": [load_network(inputs.network_path(input_dir, i)) for i in range(networks)],
        "failures": failures,
        "pinned": pinned + more,
    }


# --- metrics and output ------------------------------------------------------


def tail_ms(times_ms: list[float]) -> tuple[float, float]:
    """The op time at the highest percentile with at least 10 samples beyond
    it, and that percentile (the maximum when there are 10 samples or fewer)."""
    ordered = sorted(times_ms)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(result: dict, setup_times: list[float]) -> tuple[dict, dict]:
    times_ms = [1000 * t for t in result["times"]]
    tail, percentile = tail_ms(times_ms)
    values = {
        "ops_per_s": len(times_ms) / (sum(times_ms) / 1000),
        "op_ms.p50": statistics.median(times_ms),
        "op_ms.tail": tail,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": result["rss_mb"],
    }
    details = {
        "samples": len(times_ms),
        "timed_s": sum(times_ms) / 1000,
        "op_ms.tail_percentile": percentile,
        "setup_s_samples": setup_times,
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}, details


def per_layer(workload: str, seed: int, result: dict) -> tuple[dict, dict]:
    values = spans.layer_metrics(result["tracer"].spans)
    values.update(spans.hidden_layer_metrics(result["networks"]))
    values["trace.overhead_ratio"] = result["traced_s"] / result["plain_s"] - 1
    spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
    result["tracer"].write(spans_path)
    details = {
        "slice_ops": len(result["times"]) // 2,
        "plain_s": result["plain_s"],
        "traced_s": result["traced_s"],
        "phase_shares": {
            name: values[key] / result["traced_s"]
            for name, key in (("lp", "lp.self_s"), ("build", "build.s"), ("refine", "refine.s"), ("bounded", "bounded.s"))
        },
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return {name: {"value": v, "unit": spans.unit_of(name)} for name, v in values.items()}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    seed = inputs.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    traced = bool(args.trace)
    try:
        load_relugeom()
        OUT.mkdir(exist_ok=True)
        load_before = os.getloadavg()
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            setup_times, input_dir = run_setup(args.workload, seed, Path(tmp), 1 if traced else SETUP_REPEATS)
            runner = cli_run if args.workload == "cli-planar" else experiment_run
            result = runner(args.workload, seed, input_dir, args.seconds, traced)
            if traced:
                metrics, details = per_layer(args.workload, seed, result)
            else:
                metrics, details = end_to_end(result, setup_times)
        load_after = os.getloadavg()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = len(result["times"])
    failed = len(result["failures"])
    report = {
        "workload": args.workload,
        "seed": seed,
        "default_seed": seed == inputs.DEFAULT_SEEDS[args.workload],
        "pins_checked": result["pinned"] > 0,
        "pinned_ops": result["pinned"],
        "trace": args.trace,
        "seconds": args.seconds,
        "failed_ratio": failed / attempted,
        "failures": [result["failures"][op] for op in sorted(result["failures"])[:10]],
        **details,
        "env": {**environment(), "loadavg_before": load_before, "loadavg_after": load_after},
    }
    print(f"# {args.workload} seed {seed} trace {args.trace}: {attempted} ops, {failed} failed")
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_ratio':28s} {failed / attempted:.6g} ratio")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
