"""Workload definitions and seeded input generation.

Run as a script, this is the set-up step whose wall time the benchmark
reports as ``setup_s``: a fresh interpreter imports ``relugeom.cli``, then
generates the workload's inputs from the seed and writes them to a
directory.  The last line it prints is ``time.perf_counter()`` at the end,
which shares its clock with the parent on Linux.

    python3 perfbench/inputs.py <workload> <seed> <out_dir>
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# Experiment workloads: the program's input is one ExperimentConfig; the
# harness draws every trial's network and threshold from its seed.
EXPERIMENTS = {
    # Two hidden layers in R^3 under the Johnson check: nearly all time is
    # exact LP, split across build, threshold refinement and boundedness.
    # A first layer of width 3 makes the complexes pointed (they have
    # vertices), as at (3,3,3,1), whose ~1 s heavy-tailed trials are too few
    # per run to give steady figures.
    "johnson-deep": {"architecture": (3, 3, 1, 1), "check": "johnson", "bound": 9},
    # Many tiny complexes, thrown away: never refines, never checks
    # boundedness, so harness overhead, genericity and build cost dominate.
    "transversal-scan": {"architecture": (2, 3, 1), "check": "transversal", "bound": 100},
}

# Planar networks for the CLI workload.  (n, n+1, 1) nets can have bounded
# decision regions, and Theorem 5 bounds them; their ~20-cell complexes keep
# a call near 0.3 s, so a run makes ~100 calls over ~30 nets.  Nets of 70+
# cells take 1-15 s a call, too few per run for steady percentiles.
CLI_ARCHITECTURE = (2, 3, 1)
CLI_NETWORKS = 64
CLI_SUBCOMMANDS = ("transversality", "regions", "complex", "svg")

DEFAULT_SEEDS = {
    "johnson-deep": 64002,
    "transversal-scan": 20240817,
    "cli-planar": 1,
}
WORKLOADS = tuple(DEFAULT_SEEDS)

# An upper limit only: the benchmark runs trials until its time is up.
EXPERIMENT_TRIALS = 1_000_000


def experiment_config(workload: str, seed: int):
    from relugeom.harness import ExperimentConfig

    spec = EXPERIMENTS[workload]
    return ExperimentConfig(
        architecture=spec["architecture"],
        trials=EXPERIMENT_TRIALS,
        seed=seed,
        check=spec["check"],
        bound=spec["bound"],
    )


def cli_network(seed: int, index: int):
    """The index-th planar network of a seed, drawn by the harness sampler."""
    from relugeom.harness import ExperimentConfig, sample_network

    return sample_network(ExperimentConfig(CLI_ARCHITECTURE, trials=1, seed=seed), index)


def network_path(out_dir: Path, index: int) -> Path:
    return Path(out_dir) / f"net-{index:03d}.json"


def generate(workload: str, seed: int, out_dir: Path) -> None:
    """Write the workload's inputs for a seed into out_dir."""
    out_dir = Path(out_dir)
    if workload in EXPERIMENTS:
        cfg = experiment_config(workload, seed)
        (out_dir / "config.json").write_text(json.dumps(cfg.to_json(), sort_keys=True) + "\n")
        return
    from relugeom.network import network_to_json

    for index in range(CLI_NETWORKS):
        data = network_to_json(cli_network(seed, index))
        network_path(out_dir, index).write_text(json.dumps(data, sort_keys=True) + "\n")


if __name__ == "__main__":
    import relugeom.cli  # noqa: F401  (part of the measured set-up)

    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(repr(time.perf_counter()))
