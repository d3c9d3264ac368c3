import json
import math

import pytest

from dpbox.audit import AuditReport, estimate_epsilon, _wilson
from dpbox.noise import sample_laplace


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
    # well-populated bins, which stays small.
    slacked = estimate_epsilon(laplace_shift_mech, 0.0, 0.0,
                               trials=20_000, bins=20, seed=1,
                               delta_slack=0.01)
    assert slacked.epsilon_hat <= 0.5
    assert not slacked.degenerate
    assert slacked.flagged_bins
    # Without slack, near-floor tail bins contribute large widened ratios;
    # the estimate is still an upper bound, just a loose one.
    bare = estimate_epsilon(laplace_shift_mech, 0.0, 0.0,
                            trials=20_000, bins=20, seed=1)
    assert bare.epsilon_hat >= slacked.epsilon_hat
    assert bare.epsilon_hat <= 1.3


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
