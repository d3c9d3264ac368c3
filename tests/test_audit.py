import json
import math
import statistics

import numpy as np
import pytest

from dpbox.audit import SIDE_STREAMS, AuditReport, audit_samples, estimate_epsilon, _wilson
from dpbox.cli import main
from dpbox.mechanisms import WrapConfig, wrap_cauchy, wrap_laplace
from dpbox.noise import make_rng, sample_laplace
from dpbox.substrates import audit_neighbor, load_dataset, make_substrate


def laplace_shift_mech(d, rng):
    # Location d, unit scale: the privacy loss between d=0 and d'=1 is
    # exactly 1, which makes this the calibration target for the auditor.
    return d + sample_laplace(1.0, rng)


def test_wilson_interval_sanity():
    lo, hi = _wilson(0.5, 100)
    assert 0.0 <= lo < 0.5 < hi <= 1.0
    assert hi - 0.5 == pytest.approx(0.5 - lo, abs=1e-12)
    lo0, hi0 = _wilson(0.0, 100)
    assert lo0 == 0.0 and hi0 > 0.0
    lo1, hi1 = _wilson(1.0, 100)
    assert hi1 == 1.0 and lo1 < 1.0


def test_identical_inputs_give_near_zero_epsilon():
    # Both samples come from the same distribution; with the mass floor
    # raised above pure counting noise, what remains is Wilson widening on
    # well-populated bins, which stays small at every seed. Without slack,
    # near-floor tail bins contribute large widened ratios: the estimate is
    # still an upper bound, just a loose one, whose spread across seeds
    # straddles 1.3, so that line holds for the median of a seed run fixed
    # in advance. All calls on d come before all calls on d', so one
    # sampling gives both estimates.
    bare = []
    for seed in range(1, 12):
        outputs = []

        def recording_mech(d, rng):
            outputs.append(laplace_shift_mech(d, rng))
            return outputs[-1]

        slacked = estimate_epsilon(recording_mech, 0.0, 0.0, trials=20_000, bins=20,
                                   seed=seed, delta_slack=0.01)
        assert slacked.epsilon_hat <= 0.5
        assert not slacked.degenerate
        assert slacked.flagged_bins
        bare.append(audit_samples(outputs[:20_000], outputs[20_000:], 20).epsilon_hat)
        assert bare[-1] >= slacked.epsilon_hat
    assert statistics.median(bare) <= 1.3


def test_unit_shift_unit_scale_calibration():
    report = estimate_epsilon(laplace_shift_mech, 0.0, 1.0,
                              trials=100_000, bins=40, seed=2,
                              delta_slack=0.01)
    # True loss is 1; the upper-confidence estimate should land just above
    # it once the thin bins are floored away.
    assert 0.9 <= report.epsilon_hat <= 1.3
    assert report.per_bin_ratios
    assert report.epsilon_hat == pytest.approx(
        max(r for _, r in report.per_bin_ratios))
    assert all(r >= 0.0 for _, r in report.per_bin_ratios)
    bare = estimate_epsilon(laplace_shift_mech, 0.0, 1.0,
                            trials=100_000, bins=40, seed=2)
    assert bare.epsilon_hat >= report.epsilon_hat


def test_more_trials_tighten_the_estimate():
    small = estimate_epsilon(laplace_shift_mech, 0.0, 1.0,
                             trials=3000, bins=20, seed=3)
    large = estimate_epsilon(laplace_shift_mech, 0.0, 1.0,
                             trials=30_000, bins=20, seed=3)
    assert large.epsilon_hat <= small.epsilon_hat + 0.05


def test_delta_slack_floor_excludes_thin_bins():
    base = estimate_epsilon(laplace_shift_mech, 0.0, 1.0,
                            trials=20_000, bins=40, seed=4)
    slacked = estimate_epsilon(laplace_shift_mech, 0.0, 1.0,
                               trials=20_000, bins=40, seed=4,
                               delta_slack=0.03)
    assert len(slacked.flagged_bins) > len(base.flagged_bins)
    # The floor eats the extreme bins, which carry the largest ratios.
    assert slacked.epsilon_hat <= base.epsilon_hat + 1e-12


def test_degenerate_constant_mechanism():
    report = estimate_epsilon(lambda d, rng: 42.0, 0.0, 1.0,
                              trials=1000, bins=10)
    assert report.degenerate
    assert report.epsilon_hat == 0.0
    assert report.flagged_bins == list(range(10))
    assert report.per_bin_ratios == []


def test_reproducible_reports():
    a = estimate_epsilon(laplace_shift_mech, 0.0, 1.0, trials=2000, bins=15,
                         seed=9)
    b = estimate_epsilon(laplace_shift_mech, 0.0, 1.0, trials=2000, bins=15,
                         seed=9)
    assert a.epsilon_hat == b.epsilon_hat
    assert a.flagged_bins == b.flagged_bins
    assert a.per_bin_ratios == b.per_bin_ratios


def test_estimate_epsilon_validation():
    with pytest.raises(ValueError):
        estimate_epsilon(laplace_shift_mech, 0.0, 1.0, trials=999, bins=10)
    with pytest.raises(ValueError):
        estimate_epsilon(laplace_shift_mech, 0.0, 1.0, trials=1000, bins=1)
    with pytest.raises(ValueError):
        estimate_epsilon(laplace_shift_mech, 0.0, 1.0, trials=1000, bins=10,
                         delta_slack=1.0)


def test_report_validation():
    with pytest.raises(ValueError):
        AuditReport(epsilon_hat=-0.1, delta_slack=0.0, trials=1000, bins=10)
    with pytest.raises(ValueError):
        AuditReport(epsilon_hat=0.0, delta_slack=0.0, trials=10, bins=10)
    with pytest.raises(ValueError):
        AuditReport(epsilon_hat=0.0, delta_slack=0.0, trials=1000, bins=1)
    with pytest.raises(ValueError, match=r"delta_slack must lie in \[0, 1\), got 1.0"):
        AuditReport(epsilon_hat=0.0, delta_slack=1.0, trials=1000, bins=10)


def test_report_json_schema():
    report = AuditReport(epsilon_hat=0.5, delta_slack=0.01, trials=1500,
                         bins=12, per_bin_ratios=[(3, 0.25), (4, 0.5), (7, 0.5)],
                         flagged_bins=[0, 11])
    payload = json.loads(report.to_json())
    assert set(payload) == {"epsilon_hat", "trials", "bins", "flagged_bins",
                            "delta_slack", "degenerate", "per_bin_ratios",
                            "argmax_bin"}
    assert payload["epsilon_hat"] == 0.5
    assert payload["trials"] == 1500
    assert payload["bins"] == 12
    assert payload["flagged_bins"] == [0, 11]
    assert payload["argmax_bin"] == 4  # the first bin at epsilon_hat
    # Every field survives the round trip through JSON.
    fields = {k: v for k, v in payload.items() if k != "argmax_bin"}
    fields["per_bin_ratios"] = [tuple(pair) for pair in fields["per_bin_ratios"]]
    assert AuditReport(**fields) == report
    degenerate = estimate_epsilon(lambda d, rng: 1.0, 0, 1, trials=1000, bins=10)
    payload = json.loads(degenerate.to_json())
    assert payload["argmax_bin"] is None and payload["degenerate"] is True
    assert payload["per_bin_ratios"] == []


def test_epsilon_scales_with_shift():
    # Doubling the shift roughly doubles the true loss; the audit should
    # order them correctly.
    half = estimate_epsilon(laplace_shift_mech, 0.0, 0.5, trials=20_000,
                            bins=30, seed=5)
    full = estimate_epsilon(laplace_shift_mech, 0.0, 1.5, trials=20_000,
                            bins=30, seed=5)
    assert half.epsilon_hat < full.epsilon_hat
    assert math.isfinite(full.epsilon_hat)


# Reports recorded when each side moved to one generator of its side stream;
# a change to the audit's streams or histogram moves them.
_FROZEN_REPORTS = [
    (dict(trials=2000, bins=15, seed=9),
     '{"epsilon_hat": 2.0811001413854266, "trials": 2000, "bins": 15, "flagged_bins": '
     '[0, 12, 13, 14], "delta_slack": 0.0, "degenerate": false, "per_bin_ratios": '
     '[[1, 1.2411063692123274], [2, 1.931571220457548], [3, 1.8792286535945522], '
     '[4, 1.40476198777626], [5, 1.401082967748325], [6, 1.01908647843685], '
     '[7, 0.6220405944528709], [8, 1.3292747454472889], [9, 1.555752877484124], '
     '[10, 1.5656346911290657], [11, 2.0811001413854266]], "argmax_bin": 11}'),
    (dict(trials=1000, bins=10, seed=11, delta_slack=0.01),
     '{"epsilon_hat": 1.8055648638515076, "trials": 1000, "bins": 10, "flagged_bins": '
     '[0, 1, 7, 8, 9], "delta_slack": 0.01, "degenerate": false, "per_bin_ratios": '
     '[[2, 1.8055648638515076], [3, 1.3883230465487622], [4, 0.17525002008111784], '
     '[5, 1.3352741799308792], [6, 1.6541239469332427]], "argmax_bin": 2}'),
]


@pytest.mark.parametrize("kwargs,expected", _FROZEN_REPORTS, ids=["seed9", "seed11"])
def test_estimate_epsilon_reports_are_frozen(kwargs, expected):
    assert estimate_epsilon(laplace_shift_mech, 0.0, 1.0, **kwargs).to_json() == expected


def test_audit_samples_is_the_histogram_half_of_estimate_epsilon():
    outputs = {}

    def recording_mech(d, rng):
        value = laplace_shift_mech(d, rng)
        outputs.setdefault(d, []).append(value)
        return value

    report = estimate_epsilon(recording_mech, 0.0, 1.0, trials=1500, bins=12, seed=4,
                              delta_slack=0.005)
    assert audit_samples(outputs[0.0], outputs[1.0], 12, 0.005) == report


def test_each_side_draws_from_one_generator_of_its_side_stream():
    calls = []

    def recording_mech(d, rng):
        calls.append((d, rng, rng.bit_generator.state))
        return laplace_shift_mech(d, rng)

    estimate_epsilon(recording_mech, 0.0, 1.0, trials=1000, bins=10, seed=3)
    assert [d for d, _, _ in calls] == [0.0] * 1000 + [1.0] * 1000
    for side, stream in enumerate(SIDE_STREAMS):
        side_calls = calls[1000 * side:1000 * (side + 1)]
        assert len({id(rng) for _, rng, _ in side_calls}) == 1
        assert side_calls[0][2] == make_rng(3, stream).bit_generator.state
    assert SIDE_STREAMS == (0, 1)


# dpb audit configs on the demo files; each sets every WrapConfig field.
_CLI_AUDITS = [
    {"substrate": "cc_exact", "input": "data/demo_cc.graph", "route": "laplace",
     "epsilon": 1.0, "delta": 0.01, "alpha": 0.5, "kappa": 1.0, "delta_f": 2.0,
     "gamma": 3.0, "trials": 2000, "bins": 20, "delta_slack": 0.01},
    {"substrate": "cc_exact", "input": "data/demo_cc.graph", "route": "cauchy",
     "epsilon": 1.0, "delta": 0.01, "alpha": 0.5, "kappa": 1.0, "delta_f": 2.0,
     "gamma": 3.0, "trials": 2000, "bins": 20, "delta_slack": 0.01},
    {"substrate": "f0_kmv", "input": "data/demo_stream_insert.txt", "route": "laplace",
     "epsilon": 1.0, "delta": 0.05, "alpha": 0.5, "kappa": 0.0, "delta_f": 2.0,
     "gamma": 3.0, "trials": 1000, "bins": 20, "delta_slack": 0.0},
    # delta 0.7 asks for failure 0.35, so cc_estimate runs once per release.
    {"substrate": "cc_estimate", "input": "data/demo_cc.graph", "route": "laplace",
     "epsilon": 1.0, "delta": 0.7, "alpha": 0.5, "kappa": 6.0, "delta_f": 2.0,
     "gamma": 3.0, "trials": 1000, "bins": 20, "delta_slack": 0.01},
    {"substrate": "f0_exact", "input": "data/demo_stream_insert.txt", "route": "cauchy",
     "epsilon": 1.0, "delta": 0.05, "alpha": 0.5, "kappa": 0.0, "delta_f": 2.0,
     "gamma": 3.0, "trials": 1000, "bins": 20, "delta_slack": 0.0},
]


@pytest.mark.parametrize("config", _CLI_AUDITS,
                         ids=lambda c: f"{c['substrate']}-{c['route']}")
def test_library_audit_of_a_wrapped_release_is_the_dpb_audit_report(tmp_path, config):
    path, out = tmp_path / "audit.json", tmp_path / "report.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["audit", "--config", str(path), "--seed", "7", "--out", str(out)]) == 0
    name = config["substrate"]
    d = load_dataset(name, config["input"])
    d_prime = audit_neighbor(name, d, (0, 1, 1), make_rng(7, 2 ** 31))
    cfg = WrapConfig(**{key: config[key] for key in
                        ("epsilon", "delta", "alpha", "kappa", "delta_f", "gamma")})
    wrap = {"laplace": wrap_laplace, "cauchy": wrap_cauchy}[config["route"]]
    substrate = make_substrate(name, config)
    report = estimate_epsilon(lambda ds, rng: wrap(substrate, ds, cfg, rng)[0], d, d_prime,
                              config["trials"], config["bins"], config["delta_slack"], seed=7)
    assert out.read_text(encoding="utf-8") == report.to_json() + "\n"


def test_negative_seed_is_refused_before_the_mechanism_runs():
    calls = []
    with pytest.raises(ValueError):
        estimate_epsilon(lambda d, rng: calls.append(d) or d, 0.0, 1.0, trials=1000,
                         bins=10, seed=-1)
    assert calls == []


def test_audit_samples_validation():
    with pytest.raises(ValueError):
        audit_samples(np.zeros(1000), np.zeros(1001), bins=10)
    with pytest.raises(ValueError):
        audit_samples(np.zeros(999), np.zeros(999), bins=10)
    with pytest.raises(ValueError):
        audit_samples(np.zeros(1000), np.zeros(1000), bins=1)
    with pytest.raises(ValueError):
        audit_samples(np.zeros(1000), np.zeros(1000), bins=10, delta_slack=-0.1)


@pytest.mark.parametrize("side", ["out_a", "out_b"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_samples_are_refused_naming_the_side(side, bad):
    # A NaN or inf makes the pooled quantiles NaN or inf, which would read as
    # a constant mechanism with epsilon_hat 0.
    samples = {"out_a": sample_laplace(1.0, make_rng(0), size=2000),
               "out_b": 1.0 + sample_laplace(1.0, make_rng(1), size=2000)}
    samples[side][[5, 17, 1999]] = bad
    with pytest.raises(ValueError, match=f"{side} holds 3 NaN or infinite values of 2000"):
        audit_samples(samples["out_a"], samples["out_b"], bins=20)


def test_estimate_epsilon_refuses_a_nan_emitting_mechanism():
    def mech(d, rng):
        value = laplace_shift_mech(d, rng)
        return math.nan if rng.random() < 0.01 else value

    with pytest.raises(ValueError, match="audits need finite outputs; out_a holds"):
        estimate_epsilon(mech, 0.0, 1.0, trials=2000, bins=20, seed=4)
