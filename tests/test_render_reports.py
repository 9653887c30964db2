import importlib.util
import os
import re
import sys
import tracemalloc

import pytest

from lentparticle import experiments

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "render_reports", os.path.join(ROOT, "tools", "render_reports.py"))
render_reports = importlib.util.module_from_spec(_spec)
_path = sys.path[:]
_spec.loader.exec_module(render_reports)  # puts src/ and benchmarks/ on the path
sys.path[:] = _path


def test_renders_every_registered_experiment():
    # an experiment missing here would escape the byte-identity comparison
    rendered = {name for name, _ in render_reports.EXPERIMENTS.values()}
    assert rendered == set(experiments.EXPERIMENTS)


@pytest.mark.parametrize("seed", render_reports.SEEDS)
def test_report_labels_are_unique(seed):
    # two configs with one label would write the same report files
    labels = [label for label, _ in render_reports.configs(seed)]
    assert len(labels) == len(set(labels))


def test_render_prints_its_time_and_live_peak_on_stderr(tmp_path, capsys):
    tracemalloc.start()
    try:
        render_reports.render("bessel", experiments.make_config("bessel"), str(tmp_path))
    finally:
        tracemalloc.stop()
    out = capsys.readouterr()
    assert out.out == ""
    assert re.fullmatch(r"bessel: passed \(\d+\.\d s, live peak \d+\.\d MiB\)\n", out.err)
    assert sorted(os.listdir(tmp_path)) == ["bessel.csv", "bessel.json"]
