"""Smoke runs of the scripts under scripts/."""

import csv
import importlib.util
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


def test_verification_suite_lists_the_battery_in_table_order(capsys):
    suite = load_script("run_verification_suite")
    assert suite.main(["--list"]) == 0
    assert capsys.readouterr().out.split() == list(limitlab.BATTERY)
