"""Regenerate pins.json: digests of relugeom's outputs on each workload's
default seed, which run.py then checks on every run with that seed.

    python3 perfbench/make_pins.py

Pins record the outputs of the commit they were made at.  Regenerate them
only for a change that alters outputs on purpose, and say so in that change.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import inputs
import run

# (records per digest, trials pinned): a few times what one run reaches.
PINNED_TRIALS = {"johnson-deep": (10, 1000), "transversal-scan": (100, 6000)}


def main() -> int:
    run.load_relugeom()
    pins: dict = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        tmp = Path(tmp)
        for workload, (block, trials) in PINNED_TRIALS.items():
            seed = inputs.DEFAULT_SEEDS[workload]
            records = tmp / f"{workload}.jsonl"
            run.run_trials(inputs.experiment_config(workload, seed), records, count=trials)
            failures, _ = run.check_trials(workload, records, None)
            if failures:
                sys.exit(f"{workload}: refusing to pin failing trials: {sorted(failures.values())[:3]}")
            lines = records.read_text().splitlines()
            pins[workload] = {
                "seed": seed,
                "block": block,
                "prefix_sha256": run.record_prefix_digests(lines, block),
            }
            print(f"{workload}: pinned {trials} trials", flush=True)
        seed = inputs.DEFAULT_SEEDS["cli-planar"]
        inputs.generate("cli-planar", seed, tmp)
        outputs = {}
        for op in range(inputs.CLI_NETWORKS * len(inputs.CLI_SUBCOMMANDS)):
            network, sub, argv, svg = run.cli_op(tmp, op)
            code, output, _ = run.call_cli(tmp, argv, svg, in_process=True)
            reason = run.cli_failure(code, sub, output, None)
            if reason:
                sys.exit(f"cli-planar: refusing to pin call {op}: {reason}")
            outputs[f"{network}/{sub}"] = hashlib.sha256(output).hexdigest()
        pins["cli-planar"] = {"seed": seed, "outputs": outputs}
        print(f"cli-planar: pinned {len(outputs)} calls", flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
