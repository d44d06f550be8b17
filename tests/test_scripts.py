"""Smoke runs of the scripts under scripts/."""

import csv
import importlib.util
from pathlib import Path

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
