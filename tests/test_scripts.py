"""Smoke runs of the scripts under scripts/."""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

from fracq import limitlab

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scaling_bias_sweep_writes_one_row_per_decade(tmp_path):
    out = tmp_path / "sweep.csv"
    sweep = load_script("scaling_bias_sweep")
    assert sweep.main(["--decades", "1,2", "--replicas", "40", "--csv", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["u"]) for r in rows] == [10.0, 100.0]
    assert all(r["regime"] == "arrivals-dominate" for r in rows)


def test_verification_suite_rejects_a_negative_seed_before_any_experiment(tmp_path, capsys):
    suite = load_script("run_verification_suite")
    with pytest.raises(SystemExit) as exc:
        suite.main(["--seed", "-1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--seed must be a nonnegative integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("script, argv, message", [
    ("run_verification_suite", ["--jobs", "0"], "--jobs must be at least 1, got 0"),
    ("run_verification_suite", ["--jobs", "-4"], "--jobs must be at least 1, got -4"),
    ("run_verification_suite", ["--scale", "nan"], "--scale must be positive and finite, got nan"),
    ("run_verification_suite", ["--scale", "-1"], "--scale must be positive and finite, got -1.0"),
    ("calibrate", ["--scale", "0"], "--scale must be positive and finite, got 0.0"),
    ("calibrate", ["--scale", "inf"], "--scale must be positive and finite, got inf"),
])
def test_scripts_reject_a_bad_scale_or_jobs_before_any_experiment(tmp_path, capsys, script,
                                                                   argv, message):
    with pytest.raises(SystemExit) as exc:
        load_script(script).main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verification_suite_lists_the_battery_in_table_order(capsys):
    suite = load_script("run_verification_suite")
    assert suite.main(["--list"]) == 0
    assert capsys.readouterr().out.split() == list(limitlab.BATTERY)


def test_calibrate_writes_pass_rates_and_uniform_ks_per_experiment(tmp_path, capsys):
    calibrate = load_script("calibrate")
    out = tmp_path / "cal"
    only = "pmf_theta_0.7,queue_scaling_balanced,oscillation_c_1"
    argv = ["--only", only, "--seeds", "2", "--scale", "0.01", "--out", str(out)]
    assert calibrate.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3  # one line per experiment
    names = only.split(",")
    assert sorted(p.stem for p in out.iterdir()) == sorted(names)
    runners = dict(limitlab.battery(1, 0.01))
    for name in names:
        summary = json.loads((out / f"{name}.json").read_text())
        assert summary["runs"] == 2 and summary["passes"] == sum(
            s > summary["threshold"] for s in summary["statistics"])
        assert summary["pass_rate"] == summary["passes"] / 2
        assert "min_p" not in summary
        # seed 1 is the battery's run at base seed 1
        assert summary["statistics"][1] == runners[name](None).statistic
    pmf = json.loads((out / "pmf_theta_0.7.json").read_text())["p_values"]
    assert sorted(pmf) == ["chi2_renewal.p", "chi2_timechange.p"]
    assert all(len(v["values"]) == 2 and 0 <= v["ks_p"] <= 1 for v in pmf.values())
    balanced = json.loads((out / "queue_scaling_balanced.json").read_text())["p_values"]
    assert sorted(balanced) == ["ks.p", "ks_per_class.p"]
    assert json.loads((out / "oscillation_c_1.json").read_text())["p_values"] == {}
    assert calibrate.main(["--only", "nothing", "--out", str(out)]) == 2


def test_calibrate_plants_each_defect_for_its_run_only(tmp_path, capsys):
    calibrate = load_script("calibrate")
    sound = {name: getattr(module, attr) for name, (module, attr, _) in calibrate.DEFECTS.items()}

    def run(only, defect=None):
        out = tmp_path / f"{only}-{defect}"
        argv = ["--only", only, "--seeds", "1", "--scale", "0.02", "--out", str(out)]
        assert calibrate.main(argv + ([] if defect is None else ["--defect", defect])) == 0
        for name, (module, attr, _) in calibrate.DEFECTS.items():
            assert getattr(module, attr) is sound[name]  # put back after the run
        summary = json.loads((out / f"{only}.json").read_text())
        assert summary["defect"] == defect
        return summary["statistics"][0], summary["passes"]

    # each defect against an experiment it reaches: the walks and Kanter's
    # transform feed the pmf experiment, the column shares the queue, and
    # the two-sided Brownian law the balanced centered CLT's oracle
    reaches = {"kanter_gamma2": "pmf_theta_0.7", "ml_swapped": "pmf_theta_0.7",
               "ml_power": "pmf_theta_0.7", "head_off": "queue_scaling_arrivals",
               "brownian_yb_dropped": "centered_clt_balanced"}
    assert sorted(reaches) == sorted(calibrate.DEFECTS)
    clean = {only: run(only) for only in set(reaches.values())}
    assert "[defect" not in capsys.readouterr().out
    for defect, only in reaches.items():
        planted = run(only, defect)
        assert f"[defect {defect}]" in capsys.readouterr().out
        assert planted[0] != clean[only][0]
        if defect == "kanter_gamma2":  # the time-change counts' pmf moves
            assert planted[1] == 0
    with pytest.raises(SystemExit):
        calibrate.main(["--defect", "nothing"])
