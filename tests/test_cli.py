import json
import math
import os
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpbox import cli, streams
from dpbox.audit import audit_samples
from dpbox.cli import main
from dpbox.graphs import load_graph, toggle_edge
from dpbox.mechanisms import TRIAL_CHUNK, WrapConfig, tune_rho_laplace, wrap_trials
from dpbox.noise import make_rng
from dpbox.streams import load_stream, stream_neighbor
from dpbox.substrates import make_substrate


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


CC_EXACT_TINY_NOISE = {
    "substrate": "cc_exact",
    "input": "data/demo_cc.graph",
    "epsilon": 1e6,
    "delta": 0.01,
    "alpha": 1e-6,
    "kappa": 0.0,
    "gamma": 1.0,
    "trials": 20,
}


def test_wrap_is_reproducible_byte_for_byte(tmp_path):
    cfg = write_config(tmp_path, CC_EXACT_TINY_NOISE)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["wrap", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["wrap", "--config", cfg, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    lines = out_a.read_text().strip().split("\n")
    assert lines[0] == "trial,output"
    assert len(lines) == 21
    for line in lines[1:]:
        _, value = line.split(",")
        # At epsilon 1e6 the added noise is far below 0.5, so every release
        # rounds back to the exact component count of the demo graph.
        assert round(float(value)) == 3


def test_wrap_seed_flag_changes_and_fixes_the_noise(tmp_path):
    cfg = write_config(tmp_path, {
        "substrate": "cc_exact", "input": "data/demo_cc.graph",
        "epsilon": 1.0, "delta": 0.01, "alpha": 0.5, "kappa": 1.0,
        "gamma": 3.0, "trials": 5,
    })
    runs = {}
    for seed in (1, 1, 2):
        out = tmp_path / f"seed{seed}_{len(runs)}.csv"
        assert main(["wrap", "--config", cfg, "--seed", str(seed),
                     "--out", str(out)]) == 0
        runs.setdefault(seed, []).append(out.read_bytes())
    assert runs[1][0] == runs[1][1]
    assert runs[1][0] != runs[2][0]


def test_trials_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, dict(CC_EXACT_TINY_NOISE, trials=2))
    out = tmp_path / "t.csv"
    assert main(["wrap", "--config", cfg, "--trials", "5",
                 "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 6


def test_wrap_stdout_by_default(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(CC_EXACT_TINY_NOISE, trials=1))
    assert main(["wrap", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("trial,output\n0,")
    assert captured.err == ""


def test_cc_preset_derives_knobs_from_the_graph(tmp_path):
    # n=12 demo graph: the preset turns kappa_frac into kappa = frac*n and
    # tau_override = frac*n/ln(n), and sets delta = 1/n.
    cfg = write_config(tmp_path, {
        "preset": "cc", "input": "data/demo_cc.graph", "epsilon": 1.0,
        "kappa_frac": 0.5, "trials": 1,
    })
    out = tmp_path / "preset.csv"
    assert main(["wrap", "--config", cfg, "--debug-trace",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "trial,substrate_value,output,noise_scale,rho,tau"
    fields = lines[1].split(",")
    rho = float(fields[4])
    tau = float(fields[5])
    assert rho == pytest.approx(tune_rho_laplace(0.5, 1.0, 1.0 / 12.0))
    assert tau == pytest.approx(6.0 / math.log(12.0))


# A preset whose substrate is another dataset kind's: (config, the preset's
# alpha, the delta the release is tuned at). The graph rule sets delta 1/n
# only where the preset leaves it unset; a knapsack instance derives nothing.
_CROSS_KIND_PRESETS = [
    ({"preset": "l2", "substrate": "cc_exact", "input": "data/demo_cc.graph"}, 0.2, 0.01),
    ({"preset": "cc", "substrate": "f0_exact", "input": "data/demo_stream_insert.txt"},
     0.5, 1e-6),
    ({"preset": "l2", "substrate": "knapsack", "input": "data/demo_knapsack.txt",
      "delta_f": 50.0}, 0.2, 0.01),
    ({"preset": "cc", "substrate": "knapsack", "input": "data/demo_knapsack.txt",
      "delta_f": 50.0}, 0.5, 1e-6),
]


@pytest.mark.parametrize("config, alpha, delta", _CROSS_KIND_PRESETS,
                         ids=[f"{c['preset']}-{c['substrate']}"
                              for c, _, _ in _CROSS_KIND_PRESETS])
def test_a_preset_on_a_substrate_of_another_kind_runs(tmp_path, capsys, config, alpha, delta):
    cfg = write_config(tmp_path, {**config, "epsilon": 1.0, "trials": 20})
    for command in ("wrap", "bench", "coverage"):
        assert main([command, "--config", cfg, "--debug-trace"]) == 0
    rows = capsys.readouterr().out.split("\n")
    assert rows[0] == "trial,substrate_value,output,noise_scale,rho,tau"
    assert float(rows[1].split(",")[4]) == tune_rho_laplace(alpha, 1.0, delta)


@pytest.mark.parametrize("payload", [
    {"preset": "zzz", "input": "data/demo_cc.graph", "epsilon": 1.0},
    {"substrate": "cc_exact", "input": "data/demo_cc.graph"},
    {"substrate": "cc_exact", "epsilon": 1.0},
    {"input": "data/demo_cc.graph", "epsilon": 1.0},
    {"substrate": "cc_exact", "input": "data/demo_cc.graph",
     "epsilon": 1.0, "route": "gauss"},
    {"substrate": "cc_exact", "input": "data/missing.graph", "epsilon": 1.0},
    {"substrate": "cc_estimate", "input": "data/demo_cc.graph",
     "epsilon": 1.0, "kappa": 1.0, "route": "cauchy"},
    # Values of the wrong type.
    {"substrate": "cc_exact", "input": "data/demo_cc.graph", "epsilon": None},
    {"substrate": "cc_exact", "input": "data/demo_cc.graph", "epsilon": 1.0,
     "alpha": [1]},
    {"substrate": "cc_exact", "input": None, "epsilon": 1.0},
    {"substrate": ["cc_exact"], "input": "data/demo_cc.graph", "epsilon": 1.0},
    {"preset": "cc", "input": "data/demo_cc.graph", "epsilon": 1.0, "kappa_frac": None},
    # "out" must be a string: an integer would be opened as a file descriptor.
    # (A list is the case here, so a missing check cannot close stdout.)
    {"substrate": "cc_exact", "input": "data/demo_cc.graph", "epsilon": 1.0,
     "out": ["out.csv"]},
])
def test_bad_configs_exit_2(tmp_path, payload, capsys):
    cfg = write_config(tmp_path, payload)
    assert main(["wrap", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dpb:") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["epsilon", "kappa", "delta_f", "gamma", "tau_override"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_config_values_exit_2_naming_the_field(tmp_path, capsys, key, value):
    # JSON's Infinity and NaN parse to floats. An infinite gamma would give
    # coverage a NaN interval, and the refusal must name the field at fault.
    cfg = write_config(tmp_path, {**CC_EXACT_TINY_NOISE, key: value})
    for command in ("wrap", "coverage"):
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == f"dpb: {key} must be finite, got {value!r}\n"


# Configs whose sketches hash the 200-update insert demo: they tune k = 31
# (f0_kmv, 25 rows) and 176 (sw_de, 18 rows a sketch) minima.
_KMV_SKETCH_REGIME = {
    "f0_kmv": {"epsilon": 20.0, "delta": 0.5, "alpha": 0.9},
    "sw_de": {"epsilon": 18.0, "delta": 0.9, "alpha": 0.9, "window": 10},
}


@pytest.mark.parametrize("substrate, rows, minima", [("f0_kmv", 25, 30), ("sw_de", 36, 2)])
def test_kmv_over_the_byte_cap_exits_2(tmp_path, capsys, monkeypatch, substrate, rows, minima):
    # With the cap cut to 1,000 bytes, f0_kmv's bulk insert of the demo
    # stream's 30 distinct items and sw_de's update into its first two
    # instances are refused before any hashing, with one line.
    monkeypatch.setattr(streams, "_MAX_BYTES", 1000)
    cfg = write_config(tmp_path, {"substrate": substrate,
                                  "input": "data/demo_stream_insert.txt",
                                  **_KMV_SKETCH_REGIME[substrate]})
    assert main(["wrap", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dpb: KMV sketch of %d rows x %d minima needs" % (rows, minima))
    assert err.count("\n") == 1


@pytest.mark.parametrize("preset", ["f0", "sw-de"])
def test_kmv_exact_regime_holds_no_sketch_under_the_byte_cap(tmp_path, capsys, monkeypatch,
                                                             preset):
    # The presets tune k = 2,067,705 (f0) and 18.6 million (sw-de) minima,
    # more than the demo stream's 200 updates, so both count exactly: with
    # the cap cut to 1,000 bytes they release what they release uncapped.
    window = {"window": 10} if preset == "sw-de" else {}
    cfg = write_config(tmp_path, {"preset": preset, "input": "data/demo_stream_insert.txt",
                                  "epsilon": 1.0, **window})
    assert main(["wrap", "--config", cfg]) == 0
    uncapped = capsys.readouterr().out
    monkeypatch.setattr(streams, "_MAX_BYTES", 1000)
    assert main(["wrap", "--config", cfg]) == 0
    assert capsys.readouterr().out == uncapped


def test_unreadable_or_malformed_config_exits_2(tmp_path, capsys):
    assert main(["wrap", "--config", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["wrap", "--config", str(bad)]) == 2
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    assert main(["wrap", "--config", str(arr)]) == 2
    capsys.readouterr()


def test_knapsack_audit_requires_explicit_neighbor(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "substrate": "knapsack", "input": "data/demo_knapsack.txt",
        "epsilon": 1.0, "delta_f": 50.0, "alpha": 0.1,
    })
    assert main(["audit", "--config", cfg]) == 2
    assert "input_prime" in capsys.readouterr().err


def test_missing_input_prime_exits_2_with_one_line(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "substrate": "knapsack", "input": "data/demo_knapsack.txt",
        "input_prime": str(tmp_path / "absent.txt"),
        "epsilon": 1.0, "delta_f": 50.0, "alpha": 0.1,
    })
    assert main(["audit", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dpb: cannot read knapsack file") and err.count("\n") == 1


def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys):
    cfg = write_config(tmp_path, CC_EXACT_TINY_NOISE)
    out = tmp_path / "absent-dir" / "out.csv"
    assert main(["wrap", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"dpb: cannot write {str(out)!r}") and err.count("\n") == 1


def test_audit_stream_substrate_report_and_limit(tmp_path, capsys):
    base = {
        "substrate": "f0_exact", "input": "data/demo_stream_insert.txt",
        "epsilon": 1.0, "delta": 0.01, "alpha": 0.0, "kappa": 0.0,
        "gamma": 3.0, "trials": 1000, "bins": 10,
    }
    cfg = write_config(tmp_path, dict(base, epsilon_limit=10.0))
    out = tmp_path / "audit.json"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"epsilon_hat", "trials", "bins", "flagged_bins",
                            "delta_slack", "degenerate", "per_bin_ratios",
                            "argmax_bin"}
    assert payload["trials"] == 1000
    assert payload["bins"] == 10
    assert payload["epsilon_hat"] >= 0.0

    strict = write_config(tmp_path, dict(base, epsilon_limit=0.01),
                          name="strict.json")
    assert main(["audit", "--config", strict, "--out",
                 str(tmp_path / "strict.json.out")]) == 1
    assert "exceeds limit" in capsys.readouterr().err


def test_audit_graph_substrate_uses_edge_toggle(tmp_path):
    cfg = write_config(tmp_path, {
        "substrate": "cc_exact", "input": "data/demo_cc.graph",
        "epsilon": 1.0, "delta": 0.01, "alpha": 0.5, "kappa": 1.0,
        "gamma": 3.0, "trials": 20_000, "bins": 20, "toggle": [0, 1],
        "delta_slack": 0.01,
    })
    out = tmp_path / "audit.json"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    # Toggling one edge moves the component count by at most 1 against a
    # noise scale around 12, so the measured loss is far below epsilon.
    assert payload["epsilon_hat"] < 0.6


@pytest.mark.parametrize("bad", [
    {"toggle": [0.5, 1.7]},
    {"toggle": ["0", "1"]},
    {"toggle": [True, False]},
    {"toggle": [0, 1, 2]},
    {"toggle": [0]},
    {"toggle_weight": 0},
    {"toggle_weight": 1.9},
])
def test_audit_rejects_non_integer_toggle(tmp_path, capsys, bad):
    # Checked before any file is read: the input path does not exist.
    cfg = write_config(tmp_path, dict({
        "substrate": "cc_exact", "input": str(tmp_path / "missing.graph"),
        "epsilon": 1.0, "trials": 1000}, **bad))
    assert main(["audit", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dpb: 'toggle") and err.count("\n") == 1


def test_audit_refuses_a_weighted_toggle_on_an_unweighted_graph(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "substrate": "cc_exact", "input": "data/demo_cc.graph", "epsilon": 1.0,
        "trials": 1000, "toggle": [0, 3], "toggle_weight": 5})
    assert main(["audit", "--config", cfg]) == 2
    assert capsys.readouterr().err == "dpb: edges of an unweighted graph weigh 1, got 5\n"


def test_coverage_laplace_route_passes(tmp_path):
    cfg = write_config(tmp_path, {
        "substrate": "cc_exact", "input": "data/demo_cc.graph",
        "epsilon": 1.0, "delta": 0.01, "alpha": 0.5, "kappa": 1.0,
        "gamma": 3.0, "trials": 2000,
    })
    out = tmp_path / "cov.json"
    assert main(["coverage", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["exact"] == 3.0
    assert payload["coverage"] >= payload["threshold"]
    lo, hi = payload["interval"]
    assert lo < 3.0 < hi
    assert payload["target"] == pytest.approx(1.0 - 0.01 - math.exp(-3.0))


def test_coverage_cauchy_route_passes(tmp_path):
    cfg = write_config(tmp_path, {
        "substrate": "knapsack", "input": "data/demo_knapsack.txt",
        "route": "cauchy", "epsilon": 1.0, "alpha": 0.1, "kappa": 0.0,
        "gamma": 8.0, "delta_f": 50.0, "trials": 1500,
    })
    out = tmp_path / "cov.json"
    assert main(["coverage", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["target"] == 0.9


def test_coverage_without_a_positive_target_exits_2_with_one_line(tmp_path, capsys):
    # 1 - delta - e^-gamma = 1 - 0.9 - 0.37 < 0: the theorem promises nothing.
    cfg = write_config(tmp_path, {
        "substrate": "cc_exact", "input": "data/demo_cc.graph",
        "epsilon": 10.0, "delta": 0.9, "alpha": 0.9, "gamma": 1.0,
    })
    assert main(["coverage", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dpb: ") and err.count("\n") == 1
    assert "delta" in err and "gamma" in err and "math domain" not in err


def test_an_unfit_estimator_input_gets_one_refusal_under_every_release_command(
        tmp_path, capsys):
    # sw_de reads insertion-only streams, and its oracle and its estimator
    # share that rule, so every command, coverage too, gets one refusal.
    cfg = write_config(tmp_path, {
        "substrate": "sw_de", "input": "data/demo_stream_turnstile.txt", "epsilon": 1.0,
        "delta": 0.01, "alpha": 0.2, "window": 5, "trials": 5,
    })
    for command in ("wrap", "bench", "coverage"):
        assert main([command, "--config", cfg]) == 2, command
        assert capsys.readouterr().err == (
            "dpb: sliding-window distinct count needs an insertion-only stream\n"), command


def test_bench_reports_query_budget(tmp_path):
    cfg = write_config(tmp_path, {
        "substrate": "cc_estimate", "input": "data/demo_cc.graph",
        "epsilon": 1.0, "delta": 0.01, "alpha": 0.5, "kappa": 6.0,
        "gamma": 3.0, "trials": 3,
    })
    out = tmp_path / "bench.json"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    # kappa 6 on the 12-vertex demo is the 0.5-fraction regime: 16 scans
    # capped at 4, 108 replicas for fail probability delta/2 = 0.005.
    assert payload["query_budget"] == 108 * 16 * 4 * 5
    assert payload["within_budget"] is True
    assert len(payload["per_trial"]) == 3
    for row in payload["per_trial"]:
        assert 0 < row["queries"] <= payload["query_budget"]


def test_bench_without_query_claim_has_null_budget(tmp_path):
    cfg = write_config(tmp_path, {
        "substrate": "f0_kmv", "input": "data/demo_stream_insert.txt",
        "epsilon": 1.0, "delta": 0.01, "alpha": 0.2, "kappa": 0.0,
        "gamma": 3.0, "trials": 2,
    })
    out = tmp_path / "bench.json"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["query_budget"] is None
    assert payload["within_budget"] is True
    assert len(payload["per_trial"]) == 2


def _debug_rows(text):
    header, *rows = text.strip().split("\n")
    assert header == "trial,substrate_value,output,noise_scale,rho,tau"
    return [[float(v) for v in row.split(",")] for row in rows]


@pytest.mark.parametrize("substrate,path,delta_f", [
    ("mst_exact", "data/demo_mst.graph", 3.0),
    ("f0_exact", "data/demo_stream_insert.txt", 2.0),
])
def test_default_delta_f_sets_the_noise_scale(tmp_path, substrate, path, delta_f):
    # Without a delta_f key the substrate's default sensitivity applies: the
    # declared weight bound w = 3 for MST weight, 2 for a count.
    cfg = write_config(tmp_path, {
        "substrate": substrate, "input": path, "epsilon": 1.0, "delta": 0.01,
        "alpha": 0.5, "kappa": 1.0, "gamma": 3.0, "trials": 3,
    })
    out = tmp_path / "trace.csv"
    assert main(["wrap", "--config", cfg, "--debug-trace", "--out", str(out)]) == 0
    for _, x, _, scale, rho, tau in _debug_rows(out.read_text()):
        assert scale == pytest.approx(2.0 * (4.0 * rho * x + 4.0 * tau + delta_f) / 1.0)


def test_knapsack_without_delta_f_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "substrate": "knapsack", "input": "data/demo_knapsack.txt",
        "epsilon": 1.0, "alpha": 0.1,
    })
    assert main(["wrap", "--config", cfg]) == 2
    assert "delta_f" in capsys.readouterr().err


def test_bench_mst_estimate_query_budget(tmp_path):
    cfg = write_config(tmp_path, {
        "substrate": "mst_estimate", "input": "data/demo_mst.graph",
        "epsilon": 10.0, "delta": 0.5, "alpha": 0.9, "gamma": 1.0, "trials": 1,
    })
    out = tmp_path / "bench.json"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    # rho = 10*0.9/(12 ln 8) and w = 3 give per-level kappa rho/6: 1107 scans
    # capped at 34, 58 replicas for level failure (0.5/2)/3, over w - 1 = 2 levels.
    assert payload["query_budget"] == 2 * 58 * 1107 * 34 * 35
    assert payload["within_budget"] is True
    assert 0 < payload["per_trial"][0]["queries"] <= payload["query_budget"]


SW_DE_EXACT = {
    "substrate": "sw_de", "input": "data/demo_stream_insert.txt", "epsilon": 1.0,
    "delta": 0.05, "alpha": 0.0, "kappa": 0.0, "gamma": 3.0, "trials": 1,
}


@pytest.mark.parametrize("command", ["wrap", "coverage"])
def test_sw_de_without_window_exits_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path, SW_DE_EXACT)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == "dpb: sw_de needs an integer 'window' >= 1, got None\n"


def test_sw_de_window_0_exits_2(tmp_path, capsys):
    # At alpha 0 a window of 0 used to release the count over the whole stream.
    cfg = write_config(tmp_path, dict(SW_DE_EXACT, window=0))
    assert main(["wrap", "--config", cfg]) == 2
    assert capsys.readouterr().err == "dpb: sw_de needs an integer 'window' >= 1, got 0\n"


def test_sw_de_window_is_checked_before_the_input_is_read(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SW_DE_EXACT, window=0,
                                      input=str(tmp_path / "missing.txt")))
    assert main(["wrap", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == "dpb: sw_de needs an integer 'window' >= 1, got 0\n"


@pytest.mark.parametrize("preset", ["cc", "mst"])
def test_graph_presets_on_empty_graph_exit_2(tmp_path, capsys, preset):
    graph = tmp_path / "empty.graph"
    graph.write_text("0 0\n", encoding="utf-8")
    cfg = write_config(tmp_path, {"preset": preset, "input": str(graph), "epsilon": 1.0})
    assert main(["wrap", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dpb:") and "vertex" in err and err.count("\n") == 1


@pytest.mark.parametrize("preset", ["cc", "mst"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_graph_presets_need_more_than_one_vertex(tmp_path, capsys, preset, n):
    # The preset's delta = 1/n lies below 1 only from n = 2 on; a smaller
    # graph gets the preset's own refusal, not one about a delta never set.
    graph = tmp_path / "small.graph"
    graph.write_text({0: "0 0\n", 1: "1 0\n", 2: "2 1\n0 1\n"}[n], encoding="utf-8")
    cfg = write_config(tmp_path, {"preset": preset, "input": str(graph), "epsilon": 1.0})
    if n < 2:
        assert main(["wrap", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"dpb: preset {preset!r} needs a graph with more than one vertex, got {n}\n")
    else:
        assert main(["wrap", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith("trial,output\n0,")


def test_the_trials_cap_counts_one_chunk_then_the_held_outputs(tmp_path, monkeypatch):
    # 3,000,000 audit trials at the in-chunk 520 bytes each would pass the
    # 1 GiB cap, but past the first chunk a trial holds 44 bytes: about
    # 160 MB in all. The run itself is replaced, so nothing is drawn.
    assert 3_000_000 * 520 > streams._MAX_BYTES
    ran = []
    run, *rest = cli._COMMANDS["audit"]
    monkeypatch.setitem(cli._COMMANDS, "audit",
                        (lambda config, trials, seed: ran.append(trials) or 0, *rest))
    cfg = write_config(tmp_path, dict(AUDIT_GRAPH, trials=3_000_000))
    assert main(["audit", "--config", cfg]) == 0
    assert ran == [3_000_000]


def test_stream_item_beyond_int64_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "big.stream"
    path.write_text("3 2 insert\n99999999999999999999 1\n0 1\n", encoding="utf-8")
    cfg = write_config(tmp_path, {
        "substrate": "f0_exact", "input": str(path), "epsilon": 1.0, "trials": 1})
    assert main(["wrap", "--config", cfg]) == 2
    assert capsys.readouterr().err == "dpb: item 99999999999999999999 outside universe [0, 3)\n"


@pytest.mark.parametrize("substrate,text,message", [
    ("cc_exact", "3 2\n0 1\n1 0\n", "duplicate edge (0, 1)"),
    ("cc_exact", "3 2\n0 1\n1 7\n", "edge (1,7) out of range for n=3"),
    ("cc_exact", "3 2\n0 1\n1 x\n", "invalid literal for int() with base 10: 'x'"),
    ("mst_exact", "3 2 2\n0 1 1\n1 2 3\n", "edge weight 3 exceeds declared bound 2"),
    ("mst_exact", "3 2 2\n0 1 1\n1 2\n", "weighted edge line must be 'u v weight', got '1 2'"),
    ("knapsack", "2 5\n1 1\n", "header declares 2 items but file has 1"),
    ("knapsack", "1 5\n0 1\n", "sizes must be positive integers, got 0"),
    ("knapsack", "1 5\n1 x\n", "could not convert string to float: 'x'"),
])
def test_malformed_graph_or_knapsack_file_exits_2_with_one_line(
        tmp_path, capsys, substrate, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    cfg = write_config(tmp_path, {
        "substrate": substrate, "input": str(path), "epsilon": 1.0, "delta_f": 1.0,
        "trials": 1})
    assert main(["wrap", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"dpb: {message}\n"


_HUGE = 10 ** 13


@pytest.mark.parametrize("command,substrate,alpha,text,message", [
    ("wrap", "cc_exact", 0.0, f"{_HUGE} 0\n",
     f"graph on n={_HUGE} vertices needs 149011.6 GiB for its row offsets and degree "
     "counts, above the 1 GiB cap"),
    ("wrap", "l2_exact", 0.0, f"{_HUGE} 1 insert\n5 1\n",
     f"exact recount over universe n={_HUGE} needs 74505.8 GiB for its frequency vector, "
     "above the 1 GiB cap"),
    ("wrap", "f0_exact", 0.0, f"{_HUGE} 1 insert\n5 1\n",
     f"exact recount over universe n={_HUGE} needs 74505.8 GiB for its frequency vector, "
     "above the 1 GiB cap"),
    ("wrap", "knapsack", 0.0, "1 10\n3 1000000000000\n",
     "knapsack DP over 1000000000001 scaled values needs 14901.2 GiB for its size and "
     "value tables, above the 1 GiB cap"),
    ("coverage", "knapsack", 0.5, "1 10\n3 1000000000000\n",
     "knapsack DP over 1000000000001 scaled values needs 14901.2 GiB for its size and "
     "value tables, above the 1 GiB cap"),
    # w = 50 makes the tuned per-level kappa tiny, so cc_estimate's start sample huge.
    ("wrap", "mst_estimate", 0.5, "3 2 50\n0 1 50\n1 2 1\n",
     "cc_estimate with 5324425870 sampled starts needs 39.7 GiB for its start vertices, "
     "above the 1 GiB cap"),
])
def test_oversized_exact_array_exits_2_before_allocating(
        tmp_path, capsys, command, substrate, alpha, text, message):
    path = tmp_path / "huge.txt"
    path.write_text(text, encoding="utf-8")
    cfg = write_config(tmp_path, {
        "substrate": substrate, "input": str(path), "epsilon": 1.0, "alpha": alpha,
        "delta_f": 1.0, "trials": 1})
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"dpb: {message}\n"


# A 60-vertex path whose first edge weighs w = 50 and the rest 1.
_W50_PATH = "60 59 50\n0 1 50\n" + "".join(f"{v - 1} {v} 1\n" for v in range(2, 60))


@pytest.mark.parametrize("config,text,message", [
    ({"substrate": "cc_estimate", "input": "data/demo_cc.graph", "kappa": 0.0005,
      "delta_f": 1.0}, None,
     "cc_estimate with 2304000000 sampled starts needs 17.2 GiB for its start vertices, "
     "above the 1 GiB cap"),
    ({"preset": "mst"}, _W50_PATH,
     "cc_estimate with 4325386034 sampled starts needs 32.2 GiB for its start vertices, "
     "above the 1 GiB cap"),
])
def test_oversized_start_sample_exits_2_before_allocating(
        tmp_path, capsys, config, text, message):
    if text is not None:
        path = tmp_path / "tree.graph"
        path.write_text(text, encoding="utf-8")
        config = dict(config, input=str(path))
    cfg = write_config(tmp_path, dict(config, epsilon=1.0, trials=1))
    assert main(["wrap", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"dpb: {message}\n"


def test_kmv_on_a_huge_universe_still_runs(tmp_path):
    # KMV keeps hashes of the items seen, not a vector over the universe.
    path = tmp_path / "huge.stream"
    path.write_text(f"{_HUGE} 1 insert\n5 1\n", encoding="utf-8")
    cfg = write_config(tmp_path, {
        "substrate": "f0_kmv", "input": str(path), "epsilon": 1.0, "alpha": 0.5,
        "trials": 1})
    assert main(["wrap", "--config", cfg]) == 0


def test_l2_preset_too_large_grid_exits_2(tmp_path, capsys):
    # At alpha 0.2, delta 0.01 the tuned rho sizes a 288 x 518,368 AMS grid;
    # the sketch refuses it before drawing a coefficient.
    cfg = write_config(tmp_path, {
        "preset": "l2", "input": "data/demo_stream_turnstile.txt", "epsilon": 1.0})
    start = time.perf_counter()
    assert main(["wrap", "--config", cfg]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("dpb:") and "AMS grid" in err and err.count("\n") == 1


def test_bench_marks_recalled_deterministic_trials(tmp_path):
    cfg = write_config(tmp_path, {
        "substrate": "f0_exact", "input": "data/demo_stream_insert.txt",
        "epsilon": 1.0, "delta": 0.01, "alpha": 0.5, "kappa": 0.0,
        "gamma": 3.0, "trials": 3,
    })
    out = tmp_path / "bench.json"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    first, *rest = json.loads(out.read_text())["per_trial"]
    assert first["items"] > 0 and "cached" not in first
    assert [row.get("cached") for row in rest] == [1, 1]
    assert all("items" not in row for row in rest)


@pytest.mark.parametrize("command,payload", [
    ("coverage", {"trials": 0}),
    ("coverage", {"trials": -3}),
    ("wrap", {"trials": -3}),
    ("bench", {"trials": -3}),
    ("wrap", {"trials": 2.5}),
    ("wrap", {"trials": 2.0}),
    ("bench", {"trials": True}),
    ("wrap", {"seed": -1}),
    ("coverage", {"seed": 1.5}),
    ("audit", {"trials": 999}),
    ("audit", {"trials": 1000, "bins": 3e9}),
    ("audit", {"trials": 1000, "bins": 3_000_000_000}),
    ("audit", {"trials": 1000, "bins": 2.5}),
    ("audit", {"trials": 1000, "bins": 1}),
    ("audit", {"trials": 1000, "bins": False}),
    ("audit", {"trials": 1000, "delta_slack": 1.0}),
    ("coverage", {"gamma_scale": 2.0}),
    ("wrap", {"epsilonn": 1.0}),
    # More trials than the 1 GiB cap lets the command hold (see cli._COMMANDS).
    ("audit", {"trials": 100_000_000}),
    ("wrap", {"trials": 30_000_000}),
    ("wrap", {"trials": 5_000_000, "debug_trace": True}),
    ("bench", {"trials": 10_000_000}),
])
def test_bad_counts_exit_2_before_loading(tmp_path, capsys, command, payload):
    # The input file does not exist: a count error must be reported first.
    cfg = write_config(tmp_path, dict(CC_EXACT_TINY_NOISE, input="data/missing.graph",
                                      **payload))
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    key = next(k for k in ("bins", "delta_slack", "seed", "trials", "gamma_scale",
                           "epsilonn") if k in payload)
    assert err.startswith(f"dpb: '{key}'") and err.count("\n") == 1


def _wrap_lines(config, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out = os.path.join(tmp, "out.csv")
        assert main(["wrap", "--config", cfg, "--out", out, *flags]) == 0
        with open(out, encoding="utf-8") as fh:
            return fh.read().splitlines()


@settings(max_examples=15, deadline=None)
@given(substrate=st.sampled_from(["cc_exact", "cc_estimate"]), k=st.integers(1, 4),
       extra=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_first_trials_do_not_depend_on_the_trial_count(substrate, k, extra, seed):
    config = {"substrate": substrate, "input": "data/demo_cc.graph", "epsilon": 1.0,
              "delta": 0.01, "alpha": 0.5, "kappa": 6.0, "gamma": 3.0, "seed": seed}
    short = _wrap_lines(dict(config, trials=k), "--debug-trace")
    long = _wrap_lines(dict(config, trials=k + extra), "--debug-trace")
    assert len(short) == k + 1 and len(long) == k + extra + 1
    assert long[:k + 1] == short


AUDIT_GRAPH = {
    "substrate": "cc_exact", "input": "data/demo_cc.graph", "epsilon": 1.0, "delta": 0.01,
    "alpha": 0.5, "kappa": 1.0, "gamma": 3.0, "trials": 2000, "bins": 20,
    "delta_slack": 0.01, "toggle": [0, 1], "seed": 5,
}


@pytest.mark.parametrize("config", [
    AUDIT_GRAPH,
    dict(AUDIT_GRAPH, substrate="f0_exact", input="data/demo_stream_insert.txt", seed=6),
])
def test_audit_report_is_audit_samples_of_two_trial_runs(tmp_path, config):
    out = tmp_path / "audit.json"
    assert main(["audit", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
    seed = config["seed"]
    substrate = make_substrate(config["substrate"])
    if config["substrate"] == "cc_exact":
        d = load_graph(config["input"])
        d_prime = toggle_edge(d, 0, 1)
    else:
        d = load_stream(config["input"])
        d_prime = stream_neighbor(d, make_rng(seed, 2 ** 31))
    cfg = WrapConfig(epsilon=1.0, delta=0.01, alpha=0.5, kappa=1.0, delta_f=2.0, gamma=3.0)
    out_a, out_b = (np.concatenate([c.output for c in wrap_trials(
        substrate, dataset, cfg, "laplace", make_rng(seed, stream), config["trials"])])
        for stream, dataset in ((0, d), (1, d_prime)))
    expected = audit_samples(out_a, out_b, config["bins"], config["delta_slack"])
    assert out.read_text() == expected.to_json() + "\n"


def test_coverage_memory_does_not_grow_with_trials(tmp_path):
    peaks = []
    for trials in (4 * TRIAL_CHUNK, 16 * TRIAL_CHUNK):
        cfg = write_config(tmp_path, dict(CC_EXACT_TINY_NOISE, epsilon=1.0, gamma=3.0,
                                          trials=trials))
        tracemalloc.start()
        try:
            assert main(["coverage", "--config", cfg, "--out", str(tmp_path / "c.json")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Four times the trials, not four times the memory: the chunks are counted
    # and dropped one by one.
    assert peaks[1] < 1.2 * peaks[0]


@pytest.mark.parametrize("payload, message", [
    ({"substrate": "cc_exact", "input": "data/demo_cc.graph", "epsilon": 100, "alpha": 0.9,
      "delta": 0.5},
     "dpb: the tuned rho = epsilon*alpha/(12*ln(4/delta)) at epsilon 100.0, alpha 0.9, "
     "delta 0.5 is 3.606737602222409; it must be below 1\n"),
    ({"substrate": "knapsack", "input": "data/demo_knapsack.txt", "epsilon": 60,
      "alpha": 0.9, "route": "cauchy", "gamma": 7, "delta_f": 10},
     "dpb: the tuned rho = epsilon*alpha/36 at epsilon 60.0, alpha 0.9 is 1.5; "
     "it must be below 1\n"),
], ids=["laplace", "cauchy"])
def test_a_tuned_rho_of_1_or_more_exits_2_naming_rho(tmp_path, capsys, payload, message):
    assert main(["wrap", "--config", write_config(tmp_path, payload)]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
def test_a_non_boolean_debug_trace_exits_2_before_any_file_is_read(tmp_path, capsys, value):
    # bool("false") is True, so such a config used to print the
    # non-releasable substrate_value column next to the release.
    message = f"dpb: 'debug_trace' must be true or false, got {value!r}\n"
    for path in ("data/demo_cc.graph", str(tmp_path / "absent.graph")):
        cfg = write_config(tmp_path, {"substrate": "cc_exact", "input": path, "epsilon": 1.0,
                                      "debug_trace": value})
        assert main(["wrap", "--config", cfg]) == 2
        assert capsys.readouterr() == ("", message)


def test_debug_trace_false_prints_the_release_only(tmp_path, capsys):
    cfg = write_config(tmp_path, {"substrate": "cc_exact", "input": "data/demo_cc.graph",
                                  "epsilon": 1.0, "debug_trace": False, "trials": 2})
    assert main(["wrap", "--config", cfg]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "trial,output"
