"""Command-line behavior: flag/config handling, artifacts, exit codes, and
byte-level determinism of seeded runs."""

import csv
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracq import (
    FppParams,
    LocationSampler,
    RngStream,
    ecdf,
    renewal_counts,
    sample_mittag_leffler,
    sample_positive_stable,
    simulate_continuum_queue,
    simulate_fpp_renewal,
    timechange_counts,
)
from fracq import processes
from fracq.cli import main

REPO = Path(__file__).resolve().parent.parent


def run_cli(*args):
    return main([str(a) for a in args])


# sample subcommand


@pytest.mark.parametrize("variant", ["ml", "stable", "inverse-clock"])
def test_sample_variants(tmp_path, variant):
    code = run_cli("sample", variant, "--theta", 0.6, "--replicas", 200,
                   "--seed", 1, "--out", tmp_path)
    assert code == 0
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert lines[0] == "value"
    assert len(lines) == 201
    assert all(float(v) > 0 for v in lines[1:])


def test_sample_deterministic(tmp_path):
    for sub in ("a", "b"):
        run_cli("sample", "ml", "--theta", 0.7, "--lambda", 2.0,
                "--replicas", 300, "--seed", 9, "--out", tmp_path / sub)
    assert (tmp_path / "a" / "samples.csv").read_bytes() == (
        tmp_path / "b" / "samples.csv"
    ).read_bytes()


def test_sample_seed_changes_output(tmp_path):
    for sub, seed in (("a", 1), ("b", 2)):
        run_cli("sample", "ml", "--theta", 0.7, "--replicas", 100,
                "--seed", seed, "--out", tmp_path / sub)
    assert (tmp_path / "a" / "samples.csv").read_text() != (
        tmp_path / "b" / "samples.csv"
    ).read_text()


# config file handling


def test_config_flags_equivalent(tmp_path):
    flags_dir, cfg_dir = tmp_path / "flags", tmp_path / "cfg"
    run_cli("sample", "ml", "--theta", 0.6, "--lambda", 1.2,
            "--replicas", 250, "--seed", 4, "--out", flags_dir)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"theta": 0.6, "lambda": 1.2, "replicas": 250, "seed": 4}
    ))
    run_cli("sample", "ml", "--config", cfg, "--out", cfg_dir)
    assert (flags_dir / "samples.csv").read_bytes() == (cfg_dir / "samples.csv").read_bytes()


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"theta": 0.9, "replicas": 250, "seed": 4}))
    run_cli("sample", "ml", "--theta", 0.6, "--lambda", 1.2,
            "--config", cfg, "--out", tmp_path / "over")
    run_cli("sample", "ml", "--theta", 0.6, "--lambda", 1.2,
            "--replicas", 250, "--seed", 4, "--out", tmp_path / "direct")
    assert (tmp_path / "over" / "samples.csv").read_bytes() == (
        tmp_path / "direct" / "samples.csv"
    ).read_bytes()


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"theta": 0.6, "tehta": 0.5}))
    assert run_cli("sample", "ml", "--config", cfg, "--out", tmp_path) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"replicas": 2.7, "seed": 1.5}', "config key 'replicas': invalid int value 2.7"),
        ('{"seed": 1.5}', "config key 'seed': invalid int value 1.5"),
        ('{"replicas": true}', "config key 'replicas': invalid int value true"),
        ('{"replicas": "2.7"}', "config key 'replicas': invalid int value \"2.7\""),
        ('{"theta": "abc"}', "config key 'theta': invalid float value \"abc\""),
        ('{"theta": [0.5]}', "config key 'theta': invalid float value [0.5]"),
        ('{"theta": 0.5,', "is not JSON"),
    ],
)
def test_config_value_a_flag_would_reject_is_usage_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    args = ["sample", "ml", "--config", cfg, "--out", tmp_path]
    if "theta" not in text:
        args += ["--theta", 0.6]
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith("fracq: usage error: ") and message in err
    assert not (tmp_path / "samples.csv").exists()


def test_fracq_out_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACQ_OUT", str(tmp_path / "fromenv"))
    assert run_cli("sample", "stable", "--theta", 0.5, "--replicas", 50) == 0
    assert (tmp_path / "fromenv" / "samples.csv").exists()


# process and queue subcommands


def test_fpp_renewal_with_thinning(tmp_path):
    code = run_cli("fpp", "renewal", "--theta", 0.8, "--lambda", 2.0,
                   "--horizon", 10.0, "--p", "0.3,0.7", "--seed", 2, "--out", tmp_path)
    assert code == 0
    lines = (tmp_path / "timeline.csv").read_text().splitlines()
    assert lines[0] == "time,class"
    assert all(line.split(",")[1] in ("1", "2") for line in lines[1:])


def test_fpp_timechange(tmp_path):
    code = run_cli("fpp", "timechange", "--theta", 0.6, "--lambda", 1.0,
                   "--horizon", 5.0, "--seed", 3, "--out", tmp_path)
    assert code == 0
    lines = (tmp_path / "timeline.csv").read_text().splitlines()
    assert lines[0] == "time,class"


def test_fpp_timechange_does_not_depend_on_the_reads(tmp_path, monkeypatch):
    # the clock's walk reads its own stream and the events draw from another,
    # so reads of at least 64 levels or of 7 in blocks from 16 up give one
    # timeline
    for name, min_read in (("a", 64), ("b", 7)):
        if name == "b":
            monkeypatch.setattr(processes, "inverse_subordinator_moments", lambda theta, t: (0.0, 0.0))
        monkeypatch.setattr(processes, "_MIN_READ", min_read)
        assert run_cli("fpp", "timechange", "--theta", 0.6, "--lambda", 20.0, "--horizon", 5.0,
                       "--step", 0.01, "--seed", 3, "--out", tmp_path / name) == 0
    timeline = (tmp_path / "a" / "timeline.csv").read_bytes()
    assert timeline.count(b"\n") > 10
    assert timeline == (tmp_path / "b" / "timeline.csv").read_bytes()


def test_fpp_deterministic(tmp_path):
    for sub in ("a", "b"):
        run_cli("fpp", "renewal", "--theta", 0.7, "--lambda", 1.5,
                "--horizon", 8.0, "--seed", 11, "--out", tmp_path / sub)
    assert (tmp_path / "a" / "timeline.csv").read_bytes() == (
        tmp_path / "b" / "timeline.csv"
    ).read_bytes()


def test_queue_subcommand(tmp_path):
    code = run_cli("queue", "--alpha", 0.8, "--beta", 0.7, "--lambda", 2.0,
                   "--mu", 1.5, "--p", "0.5,0.5", "--horizon", 20.0,
                   "--seed", 5, "--out", tmp_path)
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "time,event_type,class,q_1,q_2,q_total,infimum"
    assert len(lines) > 1


def test_queue_survives_renewal_float_collisions(tmp_path):
    # at beta = 0.2 and this horizon two service partial sums collide in float64
    code = run_cli("queue", "--alpha", 0.5, "--beta", 0.2, "--lambda", 1.0,
                   "--mu", 1.0, "--p", "0.5,0.5", "--horizon", 1e6,
                   "--seed", 11, "--out", tmp_path)
    assert code == 0


def test_auction_subcommand(tmp_path):
    code = run_cli("auction", "--alpha", 0.8, "--beta", 0.5, "--lambda", 2.0,
                   "--mu", 1.0, "--locations", "uniform:1,2", "--horizon", 50.0,
                   "--seed", 6, "--out", tmp_path)
    assert code == 0
    lines = (tmp_path / "best_ask.csv").read_text().splitlines()
    assert lines[0] == "time,best_ask"
    summary = json.loads((tmp_path / "auction_summary.json").read_text())
    assert set(summary) == {"best_ask", "total_waiting", "wasted_services"}
    if summary["best_ask"] is not None:
        assert summary["best_ask"] >= 1.0


def test_auction_point_locations(tmp_path):
    code = run_cli("auction", "--alpha", 0.8, "--beta", 0.5, "--lambda", 1.0,
                   "--mu", 1.0, "--locations", "point:1,3@0.5,0.5",
                   "--horizon", 10.0, "--out", tmp_path)
    assert code == 0


# verify subcommand


def test_verify_pmf_exit_zero(tmp_path):
    code = run_cli("verify", "pmf", "--theta", 0.6, "--lambda", 1.3,
                   "--replicas", 20000, "--seed", 0, "--out", tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "pmf-agreement.json").read_text())
    assert payload["verdict"] is True
    assert payload["seed"] == 0


def test_verify_failure_exit_one(tmp_path, capsys):
    # impossible concentration tolerance forces a clean FAIL
    code = run_cli("verify", "lln", "--theta", 1.0, "--lambda", 1.0, "--p", "1.0",
                   "--u", 100, "--replicas", 200, "--tol", 1e-9,
                   "--seed", 0, "--out", tmp_path)
    assert code == 1
    assert "[FAIL]" in capsys.readouterr().out
    payload = json.loads((tmp_path / "lln.json").read_text())
    assert payload["verdict"] is False


def test_verify_json_deterministic(tmp_path):
    payloads, csvs = [], []
    for sub in ("a", "b"):
        run_cli("verify", "pmf", "--theta", 0.7, "--lambda", 1.0,
                "--replicas", 5000, "--seed", 3, "--out", tmp_path / sub)
        payload = json.loads((tmp_path / sub / "pmf-agreement.json").read_text())
        payload.pop("artifacts")  # absolute paths differ between out dirs
        payloads.append(payload)
        csvs.append((tmp_path / sub / "pmf_renewal_ecdf.csv").read_bytes())
    assert payloads[0] == payloads[1]
    assert csvs[0] == csvs[1]


# exit codes


def test_missing_flag_is_usage_error(tmp_path, capsys):
    assert run_cli("verify", "pmf", "--out", tmp_path) == 2
    assert "--theta" in capsys.readouterr().err


def test_bad_probability_list_is_usage_error(tmp_path, capsys):
    code = run_cli("queue", "--alpha", 0.8, "--beta", 0.7, "--lambda", 1.0,
                   "--mu", 1.0, "--p", "0.5,oops", "--horizon", 5.0, "--out", tmp_path)
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_invalid_theta_is_usage_error(tmp_path):
    assert run_cli("sample", "ml", "--theta", 1.5, "--out", tmp_path) == 2


@pytest.mark.parametrize(
    "args, config",
    [
        (["sample", "ml", "--theta", 0.5, "--seed", -1], None),
        (["queue", "--alpha", 0.8, "--beta", 0.7, "--lambda", 1, "--mu", 1,
          "--p", "0.5,0.5", "--horizon", 5, "--seed", -1], None),
        (["fpp", "renewal", "--theta", 0.7, "--lambda", 1, "--horizon", 5, "--seed", -1], None),
        (["fpp", "timechange", "--theta", 0.7, "--lambda", 1, "--horizon", 5], {"seed": -1}),
    ],
)
def test_negative_seed_is_usage_error(tmp_path, capsys, args, config):
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        args = [*args, "--config", cfg]
    assert run_cli(*args, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("fracq: usage error: seed must be a nonnegative integer")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args, config",
    [
        (["fpp", "timechange", "--theta", 0.7, "--lambda", 1, "--horizon", 1, "--step", "nan"],
         None),
        (["fpp", "renewal", "--theta", 0.7, "--lambda", 1, "--horizon", "inf"], None),
        (["verify", "pmf", "--theta", 0.7, "--lambda", 1, "--t", "nan"], None),
        (["fpp", "renewal", "--theta", 0.7, "--lambda", 1], {"horizon": float("-inf")}),
        (["sample", "ml", "--theta", 0.7], {"lambda": float("nan")}),
    ],
)
def test_non_finite_number_is_usage_error(tmp_path, capsys, args, config):
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))  # written as NaN / -Infinity
        args = [*args, "--config", cfg]
    assert run_cli(*args, "--out", tmp_path) == 2
    assert "must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, flag",
    [
        (["queue", "--alpha", 0.8, "--beta", 0.7, "--lambda", 1, "--mu", 1,
          "--p", "nan,0.5", "--horizon", 5], "p"),
        (["auction", "--alpha", 0.9, "--beta", 0.5, "--lambda", 1, "--mu", 1,
          "--locations", "uniform:0,inf", "--horizon", 10], "locations"),
        (["verify", "oscillation", "--theta", 0.5, "--horizons", "100,1000,inf",
          "--replicas", 20], "horizons"),
    ],
)
def test_non_finite_list_entry_is_usage_error(tmp_path, capsys, args, flag):
    assert run_cli(*args, "--out", tmp_path) == 2
    assert f"--{flag} must be finite numbers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "pmf", "--theta", 0.7, "--lambda", 1, "--replicas", -5], "nonnegative"),
        (["verify", "oscillation", "--theta", 0.5, "--replicas", 0], "one replica"),
        (["verify", "best-ask", "--alpha", 0.9, "--beta", 0.5, "--lambda", 1, "--mu", 1,
          "--locations", "uniform:1,2", "--replicas", 0], "one replica"),
        (["verify", "oscillation", "--theta", 0.5, "--horizons", "0,10,100"], "increasing horizons"),
        (["verify", "oscillation", "--theta", 0.5, "--horizons", "100,100"], "increasing horizons"),
    ],
)
def test_bad_replicas_or_horizons_is_usage_error(tmp_path, capsys, args, message):
    assert run_cli(*args, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and message in err


LLN = ["verify", "lln", "--theta", 0.7, "--lambda", 1, "--p", "0.5,0.5"]
SCALING = ["verify", "scaling", "--alpha", 0.3, "--beta", 0.9, "--lambda", 1, "--mu", 1]
BEST_ASK = ["verify", "best-ask", "--alpha", 0.9, "--beta", 0.5, "--lambda", 1, "--mu", 1,
            "--locations", "uniform:1,2"]


@pytest.mark.parametrize(
    "args, message",
    [
        ([*LLN, "--t", 0], "t must be positive and finite, got 0.0"),
        ([*LLN, "--u", 0], "u must be positive and finite, got 0.0"),
        (["verify", "fclt", "--theta", 0.7, "--lambda", 1, "--p", "0.5,0.5", "--u", 0],
         "u must be positive"),
        ([*SCALING, "--t", 0], "t must be positive"),
        ([*SCALING, "--u", -2], "u must be positive"),
        (["verify", "covariance", "--alpha", 0.7, "--lambda", 1, "--p", "0.5,0.5", "--t", 0],
         "t must be positive"),
        (["verify", "centered-clt", "--alpha", 0.6, "--beta", 0.6, "--lambda", 1, "--mu", 1,
          "--u", 0], "u must be positive"),
        (["verify", "pmf", "--theta", 0.7, "--lambda", 1, "--t", -1], "t must be positive"),
        ([*BEST_ASK, "--eps", ","], "eps in (0, inf), got []"),
        ([*BEST_ASK, "--eps", 0], "eps in (0, inf)"),
        ([*BEST_ASK, "--eps", "0.1,-0.5"], "eps in (0, inf)"),
    ],
)
def test_nonpositive_time_scale_or_window_is_usage_error(tmp_path, capsys, args, message):
    # rejected before anything is drawn: no verdict line
    assert run_cli(*args, "--out", tmp_path) == 2
    out, err = capsys.readouterr()
    assert "usage error" in err and message in err
    assert "PASS" not in out and "FAIL" not in out


# a two-sample KS p-value at n replicas each is never below 2 / C(2n, n):
# 2.2e-3 at n = 6 and 5.8e-4 at n = 7, either side of the default p_min 1e-3
KS_EXPERIMENTS = {
    "pmf": ["--theta", 0.7, "--lambda", 1],
    "lln": ["--theta", 0.7, "--lambda", 1, "--p", "0.5,0.5"],
    "fclt": ["--theta", 0.7, "--lambda", 1, "--p", "0.5,0.5"],
    "scaling": ["--alpha", 0.9, "--beta", 0.3, "--lambda", 1, "--mu", 1, "--u", 100],
    "centered-clt": ["--alpha", 0.6, "--beta", 0.6, "--lambda", 1, "--mu", 1, "--u", 100],
}


@pytest.mark.parametrize("kind", sorted(KS_EXPERIMENTS))
def test_too_few_replicas_for_a_ks_verdict_is_usage_error(tmp_path, capsys, kind):
    args = ["verify", kind, *KS_EXPERIMENTS[kind], "--out", tmp_path]
    for replicas in (1, 6):
        assert run_cli(*args, "--replicas", replicas) == 2
        captured = capsys.readouterr()
        assert "need at least 7" in captured.err and "[PASS]" not in captured.out
    assert run_cli(*args, "--replicas", 7) in (0, 1)


@pytest.mark.parametrize("p_min", [0, 1, -0.5, 2])
def test_p_min_outside_unit_interval_is_usage_error(tmp_path, capsys, p_min):
    code = run_cli("verify", "pmf", "--theta", 0.7, "--lambda", 1, "--replicas", 100,
                   "--p-min", p_min, "--out", tmp_path)
    assert code == 2
    assert "p_min must lie in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "lln", "--theta", 1, "--lambda", 1, "--p", "0.5,0.5", "--tol", -1],
         "concentration_tol must be positive and finite, got -1.0"),
        ([*LLN, "--tol", 0], "concentration_tol must be positive"),
        ([*SCALING, "--tol", -0.5], "degenerate_tol must be positive"),
        (["verify", "covariance", "--alpha", 0.7, "--lambda", 1, "--p", "0.5,0.5",
          "--z-max", 0], "z_max must be positive and finite, got 0.0"),
        (["verify", "fclt", "--theta", 0.7, "--lambda", 1, "--p", "0.5,0.5", "--z-max", -3],
         "z_max must be positive"),
    ],
)
def test_threshold_outside_positive_reals_is_usage_error(tmp_path, capsys, args, message):
    # a threshold no sample can pass is rejected before anything is drawn
    assert run_cli(*args, "--replicas", 20, "--out", tmp_path) == 2
    out, err = capsys.readouterr()
    assert "usage error" in err and message in err
    assert "PASS" not in out and "FAIL" not in out


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "covariance", "--alpha", 0.7, "--lambda", 1, "--p", "0.5,0.5", "--t", 1e-9,
         "--replicas", 50],
        ["verify", "fclt", "--theta", 0.7, "--lambda", 1, "--p", "0.5,0.5", "--u", 1e-300,
         "--replicas", 20],
    ],
)
def test_sample_without_spread_is_usage_error(tmp_path, capsys, args):
    # every replica's count is 0: a z-score would divide by a zero standard error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*args, "--out", tmp_path) == 2
    out, err = capsys.readouterr()
    assert "usage error" in err and "the sample has no spread" in err
    assert "PASS" not in out and "FAIL" not in out


def test_experiments_without_a_ks_verdict_take_few_replicas(tmp_path):
    # the concentration window at theta = 1 and the services-dominate mean
    assert run_cli("verify", "lln", "--theta", 1, "--lambda", 1, "--p", "1.0",
                   "--replicas", 2, "--out", tmp_path) in (0, 1)
    assert run_cli("verify", "scaling", "--alpha", 0.3, "--beta", 0.9, "--lambda", 1,
                   "--mu", 1, "--u", 100, "--replicas", 2, "--out", tmp_path) in (0, 1)


def test_missing_input_file_is_runtime_error(tmp_path, capsys):
    code = run_cli("plot-data", "--kind", "ecdf", "--input",
                   tmp_path / "nope.csv", "--out", tmp_path)
    assert code == 3
    assert "fracq:" in capsys.readouterr().err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


# plot-data


def test_plot_data_ecdf(tmp_path):
    run_cli("sample", "ml", "--theta", 0.6, "--replicas", 100, "--seed", 1,
            "--out", tmp_path)
    code = run_cli("plot-data", "--kind", "ecdf", "--input", tmp_path / "samples.csv",
                   "--out", tmp_path)
    assert code == 0
    lines = (tmp_path / "plot_ecdf.csv").read_text().splitlines()
    assert lines[0] == "value,cum_prob"
    assert float(lines[-1].split(",")[1]) == 1.0


def test_plot_data_path(tmp_path):
    run_cli("queue", "--alpha", 0.8, "--beta", 0.7, "--lambda", 2.0, "--mu", 1.5,
            "--p", "1.0", "--horizon", 15.0, "--seed", 5, "--out", tmp_path)
    code = run_cli("plot-data", "--kind", "path", "--input",
                   tmp_path / "trajectory.csv", "--out", tmp_path)
    assert code == 0
    lines = (tmp_path / "plot_path.csv").read_text().splitlines()
    assert lines[0] == "time,value"
    assert len(lines) > 1


def test_plot_data_path_column_override(tmp_path):
    run_cli("queue", "--alpha", 0.8, "--beta", 0.7, "--lambda", 2.0, "--mu", 1.5,
            "--p", "0.4,0.6", "--horizon", 15.0, "--seed", 5, "--out", tmp_path)
    code = run_cli("plot-data", "--kind", "path", "--input",
                   tmp_path / "trajectory.csv", "--column", "q_1", "--out", tmp_path)
    assert code == 0


def test_plot_data_path_needs_a_time_column(tmp_path, capsys):
    (tmp_path / "grid.csv").write_text("t,y\n0,0\n0.5,1.25\n")
    code = run_cli("plot-data", "--kind", "path", "--input", tmp_path / "grid.csv",
                   "--column", "y", "--out", tmp_path)
    assert code == 2
    assert "has no time column" in capsys.readouterr().err


def test_plot_data_qq(tmp_path):
    run_cli("sample", "ml", "--theta", 0.6, "--replicas", 200, "--seed", 1,
            "--out", tmp_path / "x")
    run_cli("sample", "ml", "--theta", 0.6, "--replicas", 300, "--seed", 2,
            "--out", tmp_path / "y")
    code = run_cli("plot-data", "--kind", "qq", "--input", tmp_path / "x" / "samples.csv",
                   "--input2", tmp_path / "y" / "samples.csv", "--out", tmp_path)
    assert code == 0
    lines = (tmp_path / "plot_qq.csv").read_text().splitlines()
    assert lines[0] == "theoretical_q,empirical_q"
    assert len(lines) == 201


def test_plot_data_qq_needs_second_input(tmp_path, capsys):
    run_cli("sample", "ml", "--theta", 0.6, "--replicas", 50, "--out", tmp_path)
    code = run_cli("plot-data", "--kind", "qq", "--input",
                   tmp_path / "samples.csv", "--out", tmp_path)
    assert code == 2


@pytest.mark.parametrize("kind", ["ecdf", "qq"])
def test_plot_data_of_an_empty_sample_is_usage_error(tmp_path, capsys, kind):
    assert run_cli("sample", "ml", "--theta", 0.6, "--replicas", 0, "--out", tmp_path) == 0
    sample = tmp_path / "samples.csv"
    code = run_cli("plot-data", "--kind", kind, "--input", sample, "--input2", sample,
                   "--out", tmp_path)
    assert code == 2
    assert capsys.readouterr().err == "fracq: usage error: empty sample\n"


def test_plot_data_unknown_kind(tmp_path, capsys):
    run_cli("sample", "ml", "--theta", 0.6, "--replicas", 50, "--out", tmp_path)
    code = run_cli("plot-data", "--kind", "sparkline", "--input",
                   tmp_path / "samples.csv", "--out", tmp_path)
    assert code == 2


# artifact bytes


def per_row_lf_csv(header, rows):
    """A CSV as written one row at a time: fields joined by commas, "\n"
    after each row."""
    return "".join(",".join(row) + "\n" for row in [header, *rows]).encode()


def floats(*columns):
    return [["%.17g" % x for x in row] for row in zip(*columns)]


def test_lf_artifacts_match_per_row_formatting(tmp_path):
    def artifact(sub, name, *args):
        assert run_cli(*args, "--out", tmp_path / sub) == 0
        return (tmp_path / sub / name).read_bytes()

    # samples.csv, longer than one block of rows, and header only
    ml = sample_mittag_leffler(FppParams(0.6, 1.0), RngStream(seed=3), size=2500)
    got = artifact("ml", "samples.csv", "sample", "ml", "--theta", 0.6, "--replicas", 2500,
                   "--seed", 3)
    assert got == per_row_lf_csv(["value"], floats(ml))
    stable = sample_positive_stable(0.7, RngStream(seed=4), size=1500)
    got = artifact("stable", "samples.csv", "sample", "stable", "--theta", 0.7,
                   "--replicas", 1500, "--seed", 4)
    assert got == per_row_lf_csv(["value"], floats(stable))
    assert artifact("none", "samples.csv", "sample", "ml", "--theta", 0.6, "--replicas", 0,
                    "--seed", 3) == b"value\n"

    # best_ask.csv, with an empty book (+inf): seed 2 is the first whose book
    # empties before the horizon
    rng = RngStream(seed=2)
    arrivals = simulate_fpp_renewal(FppParams(0.8, 2.0), 50.0, rng.substream(0))
    departures = simulate_fpp_renewal(FppParams(0.5, 1.0), 50.0, rng.substream(1))
    ask, _ = simulate_continuum_queue(arrivals, LocationSampler.uniform(1.0, 2.0), departures,
                                      rng.substream(2))
    got = artifact("auction", "best_ask.csv", "auction", "--alpha", 0.8, "--beta", 0.5,
                   "--lambda", 2.0, "--mu", 1.0, "--locations", "uniform:1,2",
                   "--horizon", 50.0, "--seed", 2)
    assert b",inf\n" in got
    assert got == per_row_lf_csv(["time", "best_ask"], floats(ask.jump_times, ask.values))

    # plot_ecdf.csv, plot_qq.csv and plot_path.csv
    got = artifact("plot", "plot_ecdf.csv", "plot-data", "--kind", "ecdf",
                   "--input", tmp_path / "ml" / "samples.csv")
    assert got == per_row_lf_csv(["value", "cum_prob"], floats(*ecdf(ml)))
    got = artifact("plot", "plot_qq.csv", "plot-data", "--kind", "qq",
                   "--input", tmp_path / "ml" / "samples.csv",
                   "--input2", tmp_path / "stable" / "samples.csv")
    grid = (np.arange(1500) + 0.5) / 1500
    rows = floats(np.quantile(np.sort(ml), grid), np.quantile(np.sort(stable), grid))
    assert got == per_row_lf_csv(["theoretical_q", "empirical_q"], rows)
    assert run_cli("queue", "--alpha", 0.9, "--beta", 0.9, "--lambda", 2.0, "--mu", 2.0,
                   "--p", "0.3,0.7", "--horizon", 2000, "--seed", 2,
                   "--out", tmp_path / "queue") == 0
    with open(tmp_path / "queue" / "trajectory.csv", newline="") as fh:
        rows = [(row["time"], row["q_total"]) for row in csv.DictReader(fh)]
    assert len(rows) > 1024
    got = artifact("plot", "plot_path.csv", "plot-data", "--kind", "path",
                   "--input", tmp_path / "queue" / "trajectory.csv")
    assert got == per_row_lf_csv(["time", "value"], rows)

    # an experiment's ecdf CSVs
    assert run_cli("verify", "pmf", "--theta", 0.7, "--lambda", 1.0, "--replicas", 5000,
                   "--seed", 3, "--out", tmp_path / "pmf") in (0, 1)
    rng, params = RngStream(seed=3), FppParams(0.7, 1.0)
    for name, counts in [("renewal", renewal_counts(params, 1.0, 5000, rng.substream(0))),
                         ("timechange", timechange_counts(params, 1.0, 5000, rng.substream(1)))]:
        got = (tmp_path / "pmf" / f"pmf_{name}_ecdf.csv").read_bytes()
        assert got == per_row_lf_csv(["x", "F"], floats(*ecdf(counts)))


def test_many_commands_in_one_process_match_a_fresh_process(tmp_path):
    args = ["fpp", "timechange", "--theta", 0.7, "--lambda", 2, "--horizon", 50, "--seed", 4]
    assert run_cli(*args, "--step", 0.05, "--p", "0.4,0.6", "--out", tmp_path / "a") == 0
    with pytest.raises(SystemExit) as exc:
        run_cli(*args, "--no-such-flag", 1, "--out", tmp_path / "b")
    assert exc.value.code == 2
    assert run_cli(*args, "--step", 0, "--p", "0.4,0.6", "--out", tmp_path / "c") == 2
    assert run_cli(*args, "--out", tmp_path / "in_process") == 0
    src = str(REPO / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "fracq.cli", *map(str, args), "--out", str(tmp_path / "fresh")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "in_process" / "timeline.csv").read_bytes() == (
        tmp_path / "fresh" / "timeline.csv"
    ).read_bytes()


# installed entry point


def _console_script(tmp_path):
    """The installed `fracq` script and None, or, in an uninstalled checkout,
    the launcher pip generates for `[project.scripts] fracq` in pyproject.toml
    and the environment that puts this checkout's `src` on the import path."""
    exe = shutil.which("fracq")
    if exe is not None:
        return exe, None
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["fracq"]
    module, func = target.split(":")
    launcher = tmp_path / "bin" / "fracq"
    launcher.parent.mkdir()
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    launcher.chmod(0o755)
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return str(launcher), env


def test_console_script_installed(tmp_path):
    exe, env = _console_script(tmp_path)
    proc = subprocess.run(
        [exe, "sample", "ml", "--theta", "0.5", "--replicas", "20",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "samples.csv").exists()
