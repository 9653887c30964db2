"""Run the benchmark on a parent and a change checkout in alternating pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N --tag TAG

Each pair runs the command that ``BENCHMARK.json`` declares (``benchmarks/run.py``
at its ``run_seconds``, untraced) once in each checkout, the change first in
odd pairs and the parent first in even ones.  The result goes to
``BENCH_<TAG>.json`` at the root of the repository holding this script, under
the key ``<workload>@<seed>``; entries for other workloads or seeds already in
the file are kept, so one file can collect several invocations.  For each
end-to-end metric of ``BENCHMARK.json`` the file holds every run's value, each
side's median and quartiles (numpy linear percentiles), their ratio and the
number of pairs the change wins (ties count for neither) and a verdict (see
``verdict``).  Beside them sits the paired reading (see ``paired``): the
per-pair ratio change/parent (median and quartiles), the wins, losses and ties,
a two-sided sign-test p over the pairs that are not ties, and a paired verdict
at the level SIGN_TEST_LEVEL.  It also holds the failed and attempted
operations, the machine, and what was measured on each side: the git commit
where the checkout is a clean git work tree, and always a SHA-256 digest of the
files under ``src/``.
Under ``process`` it records, per side, the median and quartiles of each run's
user and system CPU seconds and minor page faults of the benchmark's process
tree (``getrusage(RUSAGE_CHILDREN)`` around the run), with no verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# per-run counters of the benchmark's process tree: name -> getrusage field
PROCESS = {"user_s": "ru_utime", "sys_s": "ru_stime", "minor_faults": "ru_minflt"}
# two-sided, fixed before any run: at 10 pairs it takes 9 or more wins (or losses)
SIGN_TEST_LEVEL = 0.05
METHOD = (
    "Parent and change each run from their own checkout with identical benchmark files. "
    "Pairs alternate which side runs first (change first in odd pairs). Each run's metric "
    "is the benchmark's own median over its timed passes; the statistics below are the "
    "median and quartiles (numpy linear percentiles) of those run values. change_wins "
    "counts pairs in which the change reads better; verdict is better (every change run "
    "beats every parent run), else unresolved (parent quartile spread over its median "
    "above the bound), else regressed (change median worse than the parent's by more than "
    "the bound), else within_bound. pair_ratio is the median and quartiles of the per-pair "
    "ratio change/parent; sign_test_p is the two-sided sign test of change_wins against "
    "change_losses (ties dropped), and paired_verdict is better or worse when sign_test_p is "
    f"at most {SIGN_TEST_LEVEL} (the side with more pairs), else none."
)


def src_digest(checkout: str) -> str:
    """SHA-256 over the relative paths and contents of the files under src/."""
    digest = hashlib.sha256()
    src = os.path.join(checkout, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def git_commit(checkout: str) -> str | None:
    """HEAD of a clean git work tree, else None."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)

    head = git("rev-parse", "--show-toplevel", "HEAD")
    if head.returncode != 0:
        return None
    toplevel, commit = head.stdout.splitlines()
    if os.path.realpath(toplevel) != os.path.realpath(checkout):
        return None  # a plain copy inside some other work tree
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return commit if dirty.returncode == 0 and not dirty.stdout.strip() else None


def run_once(checkout: str, command: list, workload: str, seed: int, seconds: float) -> dict:
    """The result object that the benchmark prints as its last line, with the PROCESS
    counters of the run's process tree added under ``process``."""
    cmd = [sys.executable if command[0] in ("python", "python3") else command[0], *command[1:],
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"benchmark failed in {checkout} with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    result["process"] = {name: getattr(after, field) - getattr(before, field)
                         for name, field in PROCESS.items()}
    return result


def summarize(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "runs": [round(v, 4) for v in values]}


def verdict(runs: dict, better: str, bound: float) -> str:
    """One metric's reading of the pairs, with the bound as a fraction of the parent's median.

    ``better`` when every change run beats every parent run; else ``unresolved`` when
    the parent's quartile spread over its median exceeds the bound, since then its own
    runs differ by more than the bound; else ``regressed`` when the change's median is
    worse than the parent's by more than the bound; else ``within_bound``.
    """
    sign = 1.0 if better == "lower" else -1.0
    parent, change = (sign * np.asarray(runs[side], dtype=float) for side in SIDES)
    if change.max() < parent.min():
        return "better"
    q1, median, q3 = np.percentile(runs["parent"], [25, 50, 75])
    if (q3 - q1) > bound * abs(median):
        return "unresolved"
    if sign * (np.median(runs["change"]) - median) > bound * abs(median):
        return "regressed"
    return "within_bound"


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p: the exact binomial(wins + losses, 1/2) tail, doubled."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2.0 * tail)


def paired(runs: dict, better: str) -> dict:
    """One metric's reading pair by pair, so that drift shared by a pair's two runs cancels.

    The per-pair ratio change/parent (median and quartiles), the pairs the change wins
    and loses in the metric's direction and the ties, the sign-test p of wins against
    losses, and ``paired_verdict``: ``better`` or ``worse`` when p is at most
    SIGN_TEST_LEVEL, for the side with more pairs, else ``none``.
    """
    sign = 1.0 if better == "lower" else -1.0
    parent, change = (np.asarray(runs[side], dtype=float) for side in SIDES)
    gain = sign * (parent - change)
    wins, losses = int((gain > 0).sum()), int((gain < 0).sum())
    p = sign_test_p(wins, losses)
    q1, median, q3 = np.percentile(change / parent, [25, 50, 75])
    return {
        "pair_ratio": {"median": round(float(median), 4), "q1": round(float(q1), 4),
                       "q3": round(float(q3), 4)},
        "change_wins": wins, "change_losses": losses, "ties": len(gain) - wins - losses,
        "sign_test_p": round(p, 4),
        "paired_verdict": ("none" if p > SIGN_TEST_LEVEL
                           else "better" if wins > losses else "worse"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--tag", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    dirs = dict(zip(SIDES, (os.path.abspath(args.parent_dir), os.path.abspath(args.change_dir))))
    with open(os.path.join(dirs["change"], "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    seconds = contract["run_seconds"]
    command = contract["command"]
    measured = {side: {"commit": git_commit(dirs[side]), "src_sha256": src_digest(dirs[side])}
                for side in SIDES}
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("commits") != measured:
            raise SystemExit(f"{path} records other checkouts: {doc.get('commits')}")

    results = {side: [] for side in SIDES}
    for pair in range(1, args.pairs + 1):
        order = ("change", "parent") if pair % 2 else ("parent", "change")
        for side in order:
            res = run_once(dirs[side], command, args.workload, args.seed, seconds)
            results[side].append(res)
            walls = res["metrics"]["wall_s"]["value"]
            print(f"pair {pair} {side}: wall_s {walls:.4f}, failed {res['failed']}"
                  f"/{res['attempted']}", flush=True)

    metrics = {}
    for spec in contract["end_to_end"]:
        name = spec["name"]
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        parent, change = summarize(runs["parent"]), summarize(runs["change"])
        metrics[name] = {
            "unit": spec["unit"], "bound": spec["bound"], "parent": parent, "change": change,
            "change_over_parent": round(change["median"] / parent["median"], 4),
            "verdict": verdict(runs, spec["better"], spec["bound"]),
            **paired(runs, spec["better"]),
        }
    entry = {
        "seed": args.seed,
        "pairs": args.pairs,
        "failed_operations": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted_operations": {side: sum(r["attempted"] for r in results[side])
                                 for side in SIDES},
        "metrics": metrics,
        "process": {name: {side: summarize([r["process"][name] for r in results[side]])
                           for side in SIDES} for name in PROCESS},
    }
    doc["change"] = args.tag
    doc["commits"] = measured
    doc["machine"] = {"cores": os.cpu_count(), "python": platform.python_version(),
                      "numpy": np.__version__,
                      "platform": f"{platform.system()} {platform.machine()}"}
    doc["command"] = " ".join(command) + " --workload WORKLOAD --seed SEED " \
                     f"--seconds {seconds} --trace 0"
    doc["method"] = METHOD
    doc.setdefault("end_to_end", {})[f"{args.workload}@{args.seed}"] = entry
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(", ".join(f"{name}: {m['verdict']} (paired: {m['paired_verdict']})"
                    for name, m in metrics.items()))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
