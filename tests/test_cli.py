"""Command-line behavior: flag/config handling, artifacts, exit codes, and
byte-level determinism of seeded runs."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


# a two-sample KS p-value at n replicas each is never below 2 / C(2n, n):
# 2.2e-3 at n = 6 and 5.8e-4 at n = 7, either side of the default p_min 1e-3
KS_EXPERIMENTS = {
    "pmf": ["--theta", 0.7, "--lambda", 1],
    "lln": ["--theta", 0.7, "--lambda", 1, "--p", "0.5,0.5"],
    "fclt": ["--theta", 0.7, "--lambda", 1, "--p", "0.5,0.5"],
    "scaling": ["--alpha", 0.9, "--beta", 0.3, "--lambda", 1, "--mu", 1, "--u", 100],
    "centered-clt": ["--alpha", 0.6, "--beta", 0.6, "--lambda", 1, "--mu", 1, "--u", 100],
}


@pytest.mark.filterwarnings("ignore:ks_2samp:RuntimeWarning")  # ties among 7 counts
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


def test_plot_data_unknown_kind(tmp_path, capsys):
    run_cli("sample", "ml", "--theta", 0.6, "--replicas", 50, "--out", tmp_path)
    code = run_cli("plot-data", "--kind", "sparkline", "--input",
                   tmp_path / "samples.csv", "--out", tmp_path)
    assert code == 2


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
