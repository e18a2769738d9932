"""Randomized experiment engine for the boundedness and transversality
theorems.

Each trial is fully determined by (seed, trial index): network parameters and
candidate thresholds are drawn from a per-trial PRNG stream, so reruns with an
identical config produce byte-identical records up to wall-time fields.
Random thresholds are retried (bounded number of times) until transversal;
exhausting the retries is recorded as its own verdict, never an error.
Failure records embed the full network JSON so any verdict can be replayed.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from typing import NamedTuple, Sequence

from .affine import AffineMap
from .complexes import CanonicalComplex, build_complex
from .linalg import MAX_DECIMAL_EXPONENT, rat, rat_str
from .network import ReluNetwork, classify_layers, json_hash, network_from_json, network_to_json
from .topology import (
    FAIL,
    PASS,
    verify_johnson,
    verify_one_bounded,
)

CHECKS = ("transversal", "johnson", "one_bounded")
DISTRIBUTIONS = ("integer", "dyadic")
NO_THRESHOLD = "no_transversal_threshold"
# The largest k for which 2**k has at most MAX_DECIMAL_EXPONENT digits: a
# longer numerator or denominator could not be written to a record.
MAX_DYADIC_EXP = 14284


class _ConfigFields(NamedTuple):
    architecture: tuple[int, ...]
    trials: int
    seed: int
    check: str = "one_bounded"
    distribution: str = "integer"
    bound: int = 9
    dyadic_exp: int = 3  # dyadic denominators 2**k
    threshold: Fraction | None = None  # fixed threshold; None = draw randomly
    threshold_range: tuple[Fraction, Fraction] = (Fraction(-8), Fraction(8))
    threshold_retries: int = 32


class ExperimentConfig(_ConfigFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("trials", "seed", "bound", "dyadic_exp", "threshold_retries"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        for name in ("bound", "dyadic_exp", "threshold_retries"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        # a drawn numerator reaches max(bound, 1)·2**dyadic_exp, which must be
        # writable: its bit length decides, but at MAX_DYADIC_EXP + 1 bits,
        # the one length at which the number itself is built and compared
        top = max(self.bound, 1)
        bits = top.bit_length() + self.dyadic_exp
        if bits > MAX_DYADIC_EXP and (
            bits > MAX_DYADIC_EXP + 1 or top << self.dyadic_exp >= 10**MAX_DECIMAL_EXPONENT
        ):
            raise ValueError(
                f"dyadic_exp must be at most {MAX_DYADIC_EXP}, and less when bound > 1: "
                f"bound·2**dyadic_exp must have at most {MAX_DECIMAL_EXPONENT} digits"
            )
        if self.check not in CHECKS:
            raise ValueError(f"unknown check {self.check!r}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if len(self.architecture) < 3 or self.architecture[-1] != 1:
            raise ValueError("architecture must be (n0, ..., nm, 1)")
        if any(type(v) is not int or v < 1 for v in self.architecture):
            raise ValueError("architecture widths must be positive integers")
        pair = self.threshold_range
        if not isinstance(pair, tuple) or len(pair) != 2 or pair[0] > pair[1]:
            raise ValueError("threshold_range must be a pair [lo, hi] with lo <= hi")
        return self

    def to_json(self) -> dict:
        out = {
            "architecture": list(self.architecture),
            "trials": self.trials,
            "seed": self.seed,
            "check": self.check,
            "distribution": self.distribution,
            "bound": self.bound,
            "dyadic_exp": self.dyadic_exp,
            "threshold_range": [rat_str(v) for v in self.threshold_range],
            "threshold_retries": self.threshold_retries,
        }
        if self.threshold is not None:
            out["threshold"] = rat_str(self.threshold)
        return out

    @staticmethod
    def from_json(data: dict) -> "ExperimentConfig":
        missing = [key for key in ("architecture", "trials", "seed") if key not in data]
        if missing:
            names = ", ".join(map(repr, missing))
            raise ValueError(f"missing field{'s' if len(missing) > 1 else ''} {names}")
        kwargs = dict(
            architecture=tuple(data["architecture"]),
            trials=data["trials"],
            seed=data["seed"],
        )
        for key in ("check", "distribution", "bound", "dyadic_exp", "threshold_retries"):
            if key in data:
                kwargs[key] = data[key]
        if "threshold" in data and data["threshold"] is not None:
            kwargs["threshold"] = _field_rat("threshold", data["threshold"])
        if "threshold_range" in data:
            pair = data["threshold_range"]
            if isinstance(pair, (list, tuple)):
                pair = tuple(_field_rat(f"threshold_range[{i}]", v) for i, v in enumerate(pair))
            kwargs["threshold_range"] = pair
        return ExperimentConfig(**kwargs)


def _field_rat(name: str, value) -> Fraction:
    """A config field's rational, with the field named in any error."""
    try:
        return rat(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from exc


class TrialRecord(NamedTuple):
    index: int
    check: str
    net_hash: str
    generic: bool
    transversal: bool
    verdict: str
    threshold: Fraction | None
    bounded_counts: dict[str, int] | None
    wall_ms: float
    network: dict

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "check": self.check,
            "net_hash": self.net_hash,
            "generic": self.generic,
            "transversal": self.transversal,
            "verdict": self.verdict,
            "threshold": None if self.threshold is None else rat_str(self.threshold),
            "bounded_counts": self.bounded_counts,
            "wall_ms": self.wall_ms,
            "network": self.network,
        }


def _trial_rng(cfg: ExperimentConfig, index: int) -> random.Random:
    return random.Random(f"{cfg.seed}:{index}")


def sample_network(cfg: ExperimentConfig, index: int, rng: random.Random | None = None) -> ReluNetwork:
    """The network of one trial; deterministic in (seed, index).  Every
    weight, then every bias, of a layer is a uniform integer of
    [-bound·den, bound·den] over den, with den = 1 for the integer
    distribution and 2**dyadic_exp for the dyadic one."""
    rng = rng or _trial_rng(cfg, index)
    den = 1 if cfg.distribution == "integer" else 2**cfg.dyadic_exp
    top = cfg.bound * den
    draw = rng.randint
    layers = []
    arch = cfg.architecture
    for n_in, n_out in zip(arch, arch[1:]):
        w = [[draw(-top, top) for _ in range(n_in)] for _ in range(n_out)]
        rows = tuple([tuple([*r, draw(-top, top)]) for r in w])
        layers.append(AffineMap(rows, den))
    return ReluNetwork(tuple(layers))


def _draw_threshold(cfg: ExperimentConfig, rng: random.Random) -> Fraction:
    lo, hi = cfg.threshold_range
    return lo + (hi - lo) * Fraction(rng.randint(0, 64), 64)


def _verdict(
    check: str, cpx: CanonicalComplex, generic: bool, threshold: Fraction | None
) -> tuple[str, dict | None]:
    """A trial's verdict, and its bounded counts when a verifier ran."""
    if check == "transversal":
        return (PASS if generic and not cpx.node_failures else FAIL), None
    if threshold is None:
        return NO_THRESHOLD, None
    verifier = verify_johnson if check == "johnson" else verify_one_bounded
    outcome = verifier(cpx, threshold)
    return outcome.status, outcome.bounded_counts


def run_trial(cfg: ExperimentConfig, index: int) -> TrialRecord:
    """One trial.  It computes only what its record reads: the complex, its
    node failures and the network's genericity, and the constant-cell
    values only when a threshold is chosen."""
    start = time.perf_counter()
    rng = _trial_rng(cfg, index)
    net = sample_network(cfg, index, rng)
    cpx = build_complex(net)
    generic = classify_layers(net).generic

    threshold: Fraction | None = None
    if cfg.check != "transversal":
        bad = cpx.constant_values
        if cfg.threshold is not None:
            threshold = cfg.threshold if cfg.threshold not in bad else None
        else:
            for _ in range(cfg.threshold_retries):
                cand = _draw_threshold(cfg, rng)
                if cand not in bad:
                    threshold = cand
                    break
    verdict, counts = _verdict(cfg.check, cpx, generic, threshold)
    network = network_to_json(net)
    return TrialRecord(
        index=index,
        check=cfg.check,
        net_hash=json_hash(network),
        generic=generic,
        transversal=not cpx.node_failures,
        verdict=verdict,
        threshold=threshold,
        bounded_counts=counts,
        wall_ms=round((time.perf_counter() - start) * 1000, 3),
        network=network,
    )


class ExperimentSummary(NamedTuple):
    config: ExperimentConfig
    trials: int
    verdicts: dict[str, int]
    generic_count: int
    transversal_count: int
    max_bounded: dict[str, int]
    failures: Sequence[int] = ()

    @property
    def pass_rate(self) -> float:
        applicable = self.verdicts.get(PASS, 0) + self.verdicts.get(FAIL, 0)
        return self.verdicts.get(PASS, 0) / applicable if applicable else 1.0

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "trials": self.trials,
            "verdicts": self.verdicts,
            "generic_rate": self.generic_count / self.trials,
            "transversal_rate": self.transversal_count / self.trials,
            "pass_rate": self.pass_rate,
            "max_bounded_components": self.max_bounded,
            "failing_trials": self.failures,
        }


def run_experiment(cfg: ExperimentConfig, records_path=None) -> tuple[ExperimentSummary, list[TrialRecord]]:
    """Run all trials, optionally appending one JSON record per line to
    records_path, and aggregate a summary."""
    records = []
    verdicts: dict[str, int] = {}
    max_bounded = {"yes": 0, "boundary": 0, "no": 0}
    generic_count = transversal_count = 0
    failures = []
    sink = open(records_path, "w") if records_path else None
    try:
        for index in range(cfg.trials):
            record = run_trial(cfg, index)
            records.append(record)
            verdicts[record.verdict] = verdicts.get(record.verdict, 0) + 1
            generic_count += record.generic
            transversal_count += record.transversal
            if record.verdict == FAIL:
                failures.append(index)
            if record.bounded_counts:
                for region, count in record.bounded_counts.items():
                    max_bounded[region] = max(max_bounded[region], count)
            if sink:
                sink.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
    finally:
        if sink:
            sink.close()
    summary = ExperimentSummary(
        cfg, cfg.trials, verdicts, generic_count, transversal_count, max_bounded, failures
    )
    return summary, records


def replay(record: dict) -> str:
    """Recompute the verdict of a serialized trial record from its embedded
    network; used to confirm counterexamples."""
    net = network_from_json(record["network"])
    cpx = build_complex(net)
    t = record.get("threshold")
    generic = classify_layers(net).generic
    return _verdict(record["check"], cpx, generic, None if t is None else rat(t))[0]
