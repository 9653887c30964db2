import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

CONTRACT = {
    "command": ["python3", "benchmarks/run.py"],
    "run_seconds": 3,
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}
# per side, one value per pair; pair 2 is a tie
RUNS = {"parent": [1.0, 2.0, 3.0, 4.0], "change": [0.5, 2.0, 3.5, 3.0]}
FAILED = {"parent": [0, 1, 0, 2], "change": [0, 0, 0, 0]}


@pytest.fixture
def bench(tmp_path, monkeypatch):
    """Two checkouts, an output root and a scripted run_once; returns (dirs, calls, out)."""
    dirs = {}
    for side in bench_pairs.SIDES:
        src = tmp_path / side / "src"
        src.mkdir(parents=True)
        (src / "module.py").write_text(f"SIDE = {side!r}\n")
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
        dirs[side] = str(tmp_path / side)
    out = tmp_path / "out"
    out.mkdir()
    calls = []

    def run_once(checkout, command, workload, seed, seconds):
        side = "parent" if checkout == dirs["parent"] else "change"
        i = sum(s == side for s, _ in calls)
        calls.append((side, (tuple(command), workload, seed, seconds)))
        value = RUNS[side][i]
        return {"metrics": {"wall_s": {"value": value}, "ops_per_s": {"value": value}},
                "failed": FAILED[side][i], "attempted": 10,
                "process": {"user_s": value / 2, "sys_s": 0.1, "minor_faults": 1000 * i}}

    monkeypatch.setattr(bench_pairs, "ROOT", str(out))
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "git_commit", lambda checkout: None)
    return dirs, calls, out


def _run(dirs, workload="w", pairs=4):
    return bench_pairs.main([dirs["parent"], dirs["change"], "--workload", workload,
                             "--seed", "5", "--pairs", str(pairs), "--tag", "t"])


def _entry(out, key="w@5"):
    return json.loads((out / "BENCH_t.json").read_text())["end_to_end"][key]


def test_pairs_alternate_change_first_in_odd_pairs(bench):
    dirs, calls, _ = bench
    assert _run(dirs) == 0
    assert [side for side, _ in calls] == ["change", "parent", "parent", "change",
                                           "change", "parent", "parent", "change"]
    assert {args for _, args in calls} == {(tuple(CONTRACT["command"]), "w", 5, 3)}


def test_wins_count_strict_improvements_in_the_metric_direction(bench):
    dirs, _, out = bench
    _run(dirs)
    metrics = _entry(out)["metrics"]
    # lower is better: pair 1 and 4 won, pair 2 tied, pair 3 lost
    assert metrics["wall_s"]["change_wins"] == 2
    # higher is better: only pair 3 won, the tie still counts for neither
    assert metrics["ops_per_s"]["change_wins"] == 1


def test_medians_and_quartiles_are_linear_percentiles(bench):
    dirs, _, out = bench
    _run(dirs)
    wall = _entry(out)["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "runs": RUNS["parent"]}
    assert wall["change"] == {"median": 2.5, "q1": 1.625, "q3": 3.125, "runs": RUNS["change"]}
    assert wall["change_over_parent"] == 1.0
    assert (wall["unit"], wall["bound"]) == ("s", 0.24)


def test_process_counters_are_summarized_per_side_without_a_verdict(bench):
    dirs, _, out = bench
    _run(dirs)
    process = _entry(out)["process"]
    assert set(process) == {"user_s", "sys_s", "minor_faults"}
    assert process["user_s"]["parent"] == {"median": 1.25, "q1": 0.875, "q3": 1.625,
                                           "runs": [0.5, 1.0, 1.5, 2.0]}
    assert process["minor_faults"]["change"]["runs"] == [0, 1000, 2000, 3000]
    assert process["sys_s"]["change"]["median"] == 0.1
    assert all(set(sides) == set(bench_pairs.SIDES) for sides in process.values())


def test_run_once_counts_the_benchmark_process_tree(tmp_path):
    # a stand-in benchmark that touches 64 MB and prints a result line
    script = tmp_path / "bench.py"
    script.write_text("import json\nblock = bytearray(64 << 20)\n"
                      "block[::4096] = b'x' * len(block[::4096])\n"
                      "print(json.dumps({'metrics': {}, 'failed': 0, 'attempted': 1}))\n")
    result = bench_pairs.run_once(str(tmp_path), ["python3", str(script)], "w", 5, 1)
    assert (result["failed"], result["attempted"]) == (0, 1)
    process = result["process"]
    # an interpreter's start alone faults in thousands of pages; this process's own
    # faults around the call would be a few dozen
    assert process["minor_faults"] >= 1000
    assert process["user_s"] >= 0.0 and process["sys_s"] >= 0.0
    assert process["user_s"] + process["sys_s"] > 0.0


def test_failed_and_attempted_operations_are_summed(bench):
    dirs, _, out = bench
    _run(dirs)
    entry = _entry(out)
    assert entry["failed_operations"] == {"parent": 3, "change": 0}
    assert entry["attempted_operations"] == {"parent": 40, "change": 40}
    assert entry["pairs"] == 4 and entry["seed"] == 5


def test_extends_a_file_of_the_same_checkouts_only(bench):
    dirs, calls, out = bench
    _run(dirs, workload="a", pairs=1)
    calls.clear()
    _run(dirs, workload="b", pairs=1)
    assert set(json.loads((out / "BENCH_t.json").read_text())["end_to_end"]) == {"a@5", "b@5"}

    with open(os.path.join(dirs["change"], "src", "module.py"), "a") as fh:
        fh.write("EDITED = True\n")
    calls.clear()
    with pytest.raises(SystemExit, match="records other checkouts"):
        _run(dirs, workload="c", pairs=1)
    assert calls == []
    assert set(json.loads((out / "BENCH_t.json").read_text())["end_to_end"]) == {"a@5", "b@5"}


def test_verdict_is_written_per_metric(bench):
    dirs, _, out = bench
    _run(dirs)
    metrics = _entry(out)["metrics"]
    # the parent's quartiles span 1.5 around a median of 2.5, wider than either bound
    assert {name: m["verdict"] for name, m in metrics.items()} == {
        "wall_s": "unresolved", "ops_per_s": "unresolved"}


@pytest.mark.parametrize("parent, change, better, expected", [
    # every change run beats every parent run, however wide the parent's spread
    ([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], "lower", "better"),
    ([10.0, 10.5, 11.0], [11.5, 12.0, 12.5], "higher", "better"),
    # a spread of 1.5 over a median of 2.5: the pairs cannot tell
    ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], "lower", "unresolved"),
    ([1.0, 2.0, 3.0, 4.0], [9.0, 9.0, 9.0, 9.0], "lower", "unresolved"),
    # worse by 50% and by 30% against a bound of 24%
    ([1.0, 1.0, 1.01, 0.99], [1.5, 1.5, 1.5, 1.5], "lower", "regressed"),
    ([10.0, 10.0, 10.1, 9.9], [7.0, 7.0, 7.0, 7.0], "higher", "regressed"),
    # worse by 10%, or equal: ties never read as better
    ([1.0, 1.01, 1.0, 0.99], [1.1, 1.1, 1.1, 1.1], "lower", "within_bound"),
    ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], "lower", "within_bound"),
    ([1.0, 1.0, 1.0], [0.9, 1.0, 0.9], "lower", "within_bound"),
])
def test_verdict(parent, change, better, expected):
    runs = {"parent": parent, "change": change}
    assert bench_pairs.verdict(runs, better, 0.24) == expected


def test_paired_reading_is_written_per_metric(bench):
    dirs, _, out = bench
    _run(dirs)
    wall = _entry(out)["metrics"]["wall_s"]
    # ratios 0.5, 1.0, 3.5/3, 0.75: won, tied, lost, won; 2 of 3 is no sign
    assert wall["pair_ratio"] == {"median": 0.875, "q1": 0.6875, "q3": 1.0417}
    assert (wall["change_wins"], wall["change_losses"], wall["ties"]) == (2, 1, 1)
    assert (wall["sign_test_p"], wall["paired_verdict"]) == (1.0, "none")
    assert wall["verdict"] == "unresolved"  # the old verdict keeps its field and meaning


@pytest.mark.parametrize("wins, losses, p", [
    (10, 0, 2 / 1024), (9, 1, 22 / 1024), (8, 2, 112 / 1024), (1, 9, 22 / 1024),
    (3, 0, 0.25), (0, 0, 1.0), (5, 5, 1.0),
])
def test_sign_test_p_is_the_doubled_binomial_tail(wins, losses, p):
    assert bench_pairs.sign_test_p(wins, losses) == pytest.approx(p)


@pytest.mark.parametrize("parent, change, better, expected", [
    # 9 of 10 pairs in one direction reach the 5% level, 8 do not
    ([1.0] * 10, [0.9] * 9 + [1.1], "lower", "better"),
    ([1.0] * 10, [1.1] * 9 + [0.9], "lower", "worse"),
    ([1.0] * 10, [0.9] * 8 + [1.1] * 2, "lower", "none"),
    ([1.0] * 10, [1.1] * 9 + [0.9], "higher", "better"),
    # ties are dropped: 9 wins and a tie is still 9 of 9
    ([1.0] * 10, [0.9] * 9 + [1.0], "lower", "better"),
    ([1.0] * 3, [0.5] * 3, "lower", "none"),
])
def test_paired_verdict(parent, change, better, expected):
    assert bench_pairs.paired({"parent": parent, "change": change}, better)[
        "paired_verdict"] == expected


@pytest.mark.parametrize("tag, workload, wins, verdict, paired_verdict", [
    ("row_blocks", "stream-scan", 10, "within_bound", "better"),
    ("one_h", "stream-scan", 3, "within_bound", "none"),
    ("one_h", "chaos-rotation", 3, "better", "none"),  # 3 of 3: p = 0.25
    ("theta_param", "sde-flow", 8, "within_bound", "none"),  # 8 of 10: p = 0.11
])
def test_paired_verdict_of_recorded_runs(tag, workload, wins, verdict, paired_verdict):
    with open(os.path.join(ROOT, f"BENCH_{tag}.json")) as fh:
        recorded = json.load(fh)["end_to_end"][f"{workload}@20240901"]["metrics"]["wall_s"]
    runs = {side: recorded[side]["runs"] for side in bench_pairs.SIDES}
    reading = bench_pairs.paired(runs, "lower")
    assert (reading["change_wins"], recorded["change_wins"]) == (wins, wins)
    assert bench_pairs.verdict(runs, "lower", recorded["bound"]) == recorded["verdict"] == verdict
    assert reading["paired_verdict"] == paired_verdict
