import json
import math
import time

import pytest

from dpbox.cli import main
from dpbox.mechanisms import tune_rho_laplace


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
])
def test_bad_configs_exit_2(tmp_path, payload, capsys):
    cfg = write_config(tmp_path, payload)
    assert main(["wrap", "--config", cfg]) == 2
    assert "dpb:" in capsys.readouterr().err


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
    err = capsys.readouterr().err
    assert err.startswith("dpb:") and "window" in err and err.count("\n") == 1


def test_sw_de_window_0_exits_2(tmp_path, capsys):
    # At alpha 0 a window of 0 used to release the count over the whole stream.
    cfg = write_config(tmp_path, dict(SW_DE_EXACT, window=0))
    assert main(["wrap", "--config", cfg]) == 2
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["cc", "mst"])
def test_graph_presets_on_empty_graph_exit_2(tmp_path, capsys, preset):
    graph = tmp_path / "empty.graph"
    graph.write_text("0 0\n", encoding="utf-8")
    cfg = write_config(tmp_path, {"preset": preset, "input": str(graph), "epsilon": 1.0})
    assert main(["wrap", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dpb:") and "vertex" in err and err.count("\n") == 1


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
