import json
from fractions import Fraction

import pytest

from relugeom.harness import (
    MAX_DYADIC_EXP,
    NO_THRESHOLD,
    ExperimentConfig,
    replay,
    run_experiment,
    run_trial,
    sample_network,
)
from relugeom.network import evaluate, network_hash
from relugeom.linalg import MAX_DECIMAL_EXPONENT, vec


def cfg_of(**kwargs):
    base = dict(architecture=(2, 3, 1), trials=3, seed=7, check="one_bounded")
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_same_seed_same_index_same_network():
    cfg = cfg_of()
    a = sample_network(cfg, 1)
    b = sample_network(cfg, 1)
    assert network_hash(a) == network_hash(b)
    c = sample_network(cfg, 2)
    assert network_hash(a) != network_hash(c)


def test_zero_bound_gives_zero_network():
    cfg = cfg_of(bound=0, check="transversal")
    net = sample_network(cfg, 0)
    assert all(all(v == 0 for v in row) for layer in net.layers for row in layer.weights)
    assert evaluate(net, vec([1, 2])) == 0


def test_dyadic_distribution_denominators():
    cfg = cfg_of(distribution="dyadic", dyadic_exp=3, bound=2)
    net = sample_network(cfg, 0)
    for layer in net.layers:
        for row in layer.weights:
            for v in row:
                assert v.denominator in (1, 2, 4, 8)
                assert abs(v) <= 2


def test_config_validation():
    with pytest.raises(ValueError):
        cfg_of(trials=0)
    with pytest.raises(ValueError):
        cfg_of(check="nonsense")
    with pytest.raises(ValueError):
        cfg_of(architecture=(2, 3))
    with pytest.raises(ValueError):
        cfg_of(bound=-1)
    with pytest.raises(ValueError):
        cfg_of()._replace(trials=0)
    # 2**MAX_DYADIC_EXP is the largest power of 2 with at most
    # MAX_DECIMAL_EXPONENT digits, so every dyadic denominator can be written
    assert 2**MAX_DYADIC_EXP < 10**MAX_DECIMAL_EXPONENT <= 2 ** (MAX_DYADIC_EXP + 1)
    for bound in (0, 1):
        cfg = cfg_of(distribution="dyadic", dyadic_exp=MAX_DYADIC_EXP, bound=bound)
        assert cfg.dyadic_exp == MAX_DYADIC_EXP
    with pytest.raises(ValueError, match="dyadic_exp must be at most 14284"):
        cfg_of(distribution="dyadic", dyadic_exp=MAX_DYADIC_EXP + 1, bound=1)


def test_config_caps_the_digits_of_a_numerator():
    """A drawn numerator reaches max(bound, 1)·2**dyadic_exp: the config is
    refused exactly when that has more than MAX_DECIMAL_EXPONENT digits."""
    limit = 10**MAX_DECIMAL_EXPONENT

    def accepted(bound, k):
        try:
            cfg_of(distribution="dyadic", bound=bound, dyadic_exp=k)
        except ValueError as exc:
            assert "must have at most 4300 digits" in str(exc)
            return False
        return True

    for bound in (0, 1, 2, 3, 5, 8, 9, 10, 100, 12345, 2**40 + 1):
        for k in range(MAX_DYADIC_EXP - 50, MAX_DYADIC_EXP + 3):
            assert accepted(bound, k) == ((max(bound, 1) << k) < limit), (bound, k)
    # a default bound (9) at the dyadic_exp cap, and bounds of 4300+ digits
    assert not accepted(9, MAX_DYADIC_EXP)
    assert accepted(limit - 1, 0) and not accepted(limit, 0)
    with pytest.raises(ValueError, match="at most 4300 digits"):
        cfg_of(bound=10**4400)  # the integer distribution, dyadic_exp 3
    for k in (20000, 10**6, 10**100):
        assert not accepted(0, k) and not accepted(9, k)


def test_config_json_roundtrip():
    cfg = cfg_of(threshold=Fraction(1, 4), distribution="dyadic")
    again = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert again == cfg
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg
    assert hash(again) == hash(cfg)


def test_transversal_check_trial():
    cfg = cfg_of(check="transversal", bound=100, trials=1)
    record = run_trial(cfg, 0)
    assert record.verdict in ("pass", "fail")
    assert record.threshold is None
    assert record.check == "transversal"


def test_experiment_jsonl_determinism(tmp_path):
    cfg = cfg_of(trials=4, seed=11)
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    s1, r1 = run_experiment(cfg, p1)
    s2, r2 = run_experiment(cfg, p2)

    def strip_wall(path):
        out = []
        for line in path.read_text().splitlines():
            data = json.loads(line)
            data.pop("wall_ms")
            out.append(json.dumps(data, sort_keys=True))
        return out

    assert strip_wall(p1) == strip_wall(p2)
    assert s1.to_json() == s2.to_json()


def test_one_bounded_experiment_counts():
    cfg = cfg_of(trials=10, seed=3)
    summary, records = run_experiment(cfg)
    assert summary.verdicts.get("pass", 0) + summary.verdicts.get(
        NO_THRESHOLD, 0
    ) == len(records)
    assert summary.max_bounded["yes"] <= 1
    assert summary.max_bounded["no"] <= 1
    assert summary.pass_rate == 1.0


def test_johnson_experiment_zero_bounded():
    cfg = cfg_of(architecture=(2, 2, 1), check="johnson", trials=10, seed=5)
    summary, _ = run_experiment(cfg)
    assert summary.max_bounded == {"yes": 0, "boundary": 0, "no": 0}
    assert summary.pass_rate == 1.0


def test_records_replay_to_same_verdict():
    cfg = cfg_of(trials=5, seed=13)
    _, records = run_experiment(cfg)
    for record in records:
        data = json.loads(json.dumps(record.to_json(), sort_keys=True))
        assert replay(data) == record.verdict


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(check="transversal", bound=1, trials=12),
        dict(check="johnson", architecture=(2, 2, 1), bound=1, trials=12, threshold=Fraction(0)),
        dict(check="one_bounded", bound=1, trials=12, threshold=Fraction(0)),
    ],
    ids=["transversal", "johnson", "one_bounded"],
)
def test_replay_matches_every_check(kwargs):
    # bound 1 draws many degenerate nets, so some fail transversality and
    # some have no transversal threshold at 0
    _, records = run_experiment(cfg_of(seed=31, **kwargs))
    verdicts = {record.verdict for record in records}
    for record in records:
        assert replay(json.loads(json.dumps(record.to_json()))) == record.verdict
    assert len(verdicts) > 1, verdicts


def test_fixed_threshold_respected():
    cfg = cfg_of(threshold=Fraction(1, 3), trials=2, seed=2)
    for i in range(2):
        record = run_trial(cfg, i)
        assert record.threshold in (Fraction(1, 3), None)


def test_golden_single_trial_record():
    cfg = cfg_of(trials=1, seed=12345)
    record = run_trial(cfg, 0)
    data = record.to_json()
    data.pop("wall_ms")
    # frozen from the first run; determinism across reruns and platforms
    assert data["net_hash"] == run_trial(cfg, 0).net_hash
    assert data["verdict"] == "pass"
