import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "report_drift", os.path.join(ROOT, "tools", "report_drift.py"))
report_drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_drift)

CSV = "order,phi,empirical,z_score\n1,0.0,1.0,0.5\n2,0.5,0.25,-1.5\n"
SUMMARY = {"checks": [{"name": "a", "passed": True, "z_score": 0.5},
                      {"name": "b", "passed": True, "z_score": -1.5}],
           "config": {"n_paths": 10}, "passed": True}


def _write(root, files):
    for rel, text in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    return str(root)


@pytest.fixture
def base(tmp_path):
    return _write(tmp_path / "base", {"seed-1/x.csv": CSV,
                                      "seed-1/x.json": json.dumps(SUMMARY, indent=2)})


def _head(tmp_path, csv_text=CSV, summary=SUMMARY, extra=None):
    files = {"seed-1/x.csv": csv_text, "seed-1/x.json": json.dumps(summary, indent=2)}
    return _write(tmp_path / "head", {**files, **(extra or {})})


def test_identical_directories_pass_quietly(tmp_path, base, capsys):
    assert report_drift.main([base, _head(tmp_path)]) == 0
    assert capsys.readouterr().out == "2 of 2 files byte-identical\n"


def test_numeric_drift_names_the_largest_change(tmp_path, base, capsys):
    drifted = CSV.replace("0.25,", "0.2500000001,").replace("1.0,0.5", "1.0,0.50000000001")
    summary = json.loads(json.dumps(SUMMARY))
    summary["checks"][1]["z_score"] = -1.5000003
    assert report_drift.main([base, _head(tmp_path, drifted, summary)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("seed-1/x.csv: largest relative change 4e-10 at column empirical, "
                      "row 2: 0.25 -> 0.2500000001")
    assert out[1] == ("seed-1/x.csv: largest absolute change of a z score 1e-11 at column "
                      "z_score, row 1: 0.5 -> 0.50000000001")
    assert out[2] == ("seed-1/x.json: largest absolute change of a z score 3e-07 at column "
                      "z_score, row checks[1](b): -1.5 -> -1.5000003")
    assert out[3] == "0 of 2 files byte-identical"


def test_a_z_score_near_zero_is_read_by_its_absolute_change(tmp_path, capsys):
    """z = (mean - target) / SE near 0 turns a 1e-14 move of its mean into a large
    relative change; it is reported apart, by its absolute change."""
    base = _write(tmp_path / "base", {"seed-1/x.csv": "empirical,z_score,freq_z_score\n"
                                                      "0.5,1e-3,2.0\n"})
    head = _write(tmp_path / "head", {"seed-1/x.csv": "empirical,z_score,freq_z_score\n"
                                                      "0.50000000000005,0.001000000001,2.0\n"})
    assert report_drift.main([base, head]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("seed-1/x.csv: largest relative change 1e-13 at column empirical, "
                      "row 1: 0.5 -> 0.50000000000005")
    assert out[1] == ("seed-1/x.csv: largest absolute change of a z score 1e-12 at column "
                      "z_score, row 1: 1e-3 -> 0.001000000001")
    # alone, the z cell names no relative change at all
    z_only = _write(tmp_path / "z-only", {"seed-1/x.csv": "empirical,z_score,freq_z_score\n"
                                                         "0.5,1e-3,2.000000000001\n"})
    assert report_drift.main([base, z_only]) == 0
    out = capsys.readouterr().out
    assert "relative" not in out
    assert "largest absolute change of a z score 1e-12 at column freq_z_score" in out


def test_a_changed_verdict_fails(tmp_path, base, capsys):
    summary = json.loads(json.dumps(SUMMARY))
    summary["checks"][0]["passed"] = False
    summary["passed"] = False
    assert report_drift.main([base, _head(tmp_path, summary=summary)]) == 1
    out = capsys.readouterr().out
    assert "seed-1/x.json: verdict changed at checks[0](a): True -> False" in out
    assert "seed-1/x.json: verdict changed at <top>: True -> False" in out


@pytest.mark.parametrize("side", ["base", "head"])
def test_a_file_on_one_side_fails(tmp_path, base, capsys, side):
    head = _head(tmp_path, extra={"seed-1/y.csv": CSV})
    args = [base, head] if side == "head" else [head, base]
    assert report_drift.main(args) == 1
    assert f"seed-1/y.csv: only in {side}" in capsys.readouterr().out


@pytest.mark.parametrize("text", [CSV + "3,0.7,0.1,0.2\n", CSV.replace("phi", "angle"),
                                  CSV.replace("0.5,0.25", "0.5,nan-ish")])
def test_cells_that_do_not_line_up_fail(tmp_path, base, text):
    assert report_drift.main([base, _head(tmp_path, text)]) == 1


def test_zero_base_reads_as_infinite(tmp_path, base, capsys):
    assert report_drift.main([base, _head(tmp_path, CSV.replace("1,0.0,", "1,1e-300,"))]) == 0
    assert "largest relative change inf at column phi, row 1" in capsys.readouterr().out


def test_usage(capsys):
    assert report_drift.main(["only-one"]) == 2
