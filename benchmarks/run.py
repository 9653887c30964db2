"""Benchmark for lentparticle: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload chaos-rotation [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (the package is imported from ./src).  With
--trace 0 the run times untraced passes and reports the end-to-end metrics;
with --trace 1 it follows each untraced pass with a traced one, reports the
per-layer metrics, and writes the spans to .bench_out/.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(HERE, "setup_probe.py")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("chaos-rotation", "sde-flow", "ou-nested", "stream-scan")
SETUP_SAMPLES = 4  # before the passes, and again after them


def setup_time(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it has the workload's configs."""
    cmd = [sys.executable, PROBE, "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        print(f"{'ok    ' if ok else 'FAILED'} {label}")


def run_pass(configs):
    """Run and render every config; a raising experiment yields None."""
    import workloads

    outputs = []
    for cfg in configs:
        try:
            outputs.append(workloads.run_one(cfg))
        except Exception:
            traceback.print_exc()
            outputs.append(None)
    return outputs


def tally_pass(tally, configs, reference, outputs, what) -> None:
    """One operation per experiment run: it must not raise and must render
    the same reports as the warm-up pass."""
    for cfg, ref, out in zip(configs, reference, outputs):
        ok = out is not None and ref is not None and ref[1:] == out[1:]
        tally.add(ok, f"{cfg.experiment} {what}")


def traced_pass(configs):
    """(tracer, wall seconds, outputs) of one pass with every layer wrapped."""
    from tracer import Tracer

    tracer = Tracer()
    with tracer.instrument():
        w0 = time.perf_counter()
        outputs = run_pass(configs)
        wall = time.perf_counter() - w0
    return tracer, wall, outputs


def measure(configs, seconds: float, trace: bool, tally: Tally) -> dict:
    """A warm-up pass, then untraced passes while another fits in ``seconds``
    (at least one).  With ``trace`` each untraced pass is followed by a traced
    one, so that the two are measured under the same load and their
    difference is the tracing overhead."""
    walls, cpus, traced_walls, layer_samples = [], [], [], []
    tracer = None
    # The first pass grows the heap and fills lazy caches; it is not timed and
    # its reports are the reference every later pass must reproduce.
    reference = run_pass(configs)
    tally_pass(tally, configs, reference, reference, "runs")
    deadline = time.perf_counter() + seconds
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        outputs = run_pass(configs)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        tally_pass(tally, configs, reference, outputs, "renders the warm-up pass's reports")
        round_s = walls[-1]
        if trace:
            tracer, traced_wall, outputs = traced_pass(configs)
            traced_walls.append(traced_wall)
            layer_samples.append(tracer.layer_metrics())
            tally_pass(tally, configs, reference, outputs, "renders the same reports traced")
            round_s += traced_wall
        if time.perf_counter() + round_s > deadline:
            break
    result = {
        "walls": walls,
        "cpus": cpus,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference": reference,
    }
    if trace:
        layers = {
            name: {"value": statistics.median(s[name][0] for s in layer_samples), "unit": unit}
            for name, (_, unit) in layer_samples[0].items()
        }
        layers["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(walls), "unit": "s"
        }
        result["layers"] = layers
        result["spans"] = tracer.span_records()
    return result


def write_trace(workload: str, seed: int, res: dict) -> None:
    """The per-layer medians and the spans of the last traced pass."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "metrics": res["layers"], "spans": res["spans"]}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the program's DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lentparticle", "__init__.py")):
        print(f"no lentparticle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import lentparticle
    import workloads
    from lentparticle.experiments import DEFAULT_SEED

    if not os.path.abspath(lentparticle.__file__).startswith(SRC + os.sep):
        print(f"lentparticle imported from {lentparticle.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    configs = workloads.build_configs(args.workload, seed)

    setup_samples = []
    if not args.trace:
        setup_time(args.workload, seed)  # warm-up: writes the bytecode caches
        setup_samples += [setup_time(args.workload, seed) for _ in range(SETUP_SAMPLES)]

    tally = Tally()
    res = measure(configs, args.seconds, bool(args.trace), tally)
    for out in res["reference"]:
        if out is not None:
            for label, ok in workloads.checks(out[0]):
                tally.add(ok, label)

    if args.trace:
        metrics = res["layers"]
        write_trace(args.workload, seed, res)
    else:
        # Half the set-up probes run before the passes and half after, so the
        # median spans the whole run rather than the load of its first seconds.
        setup_samples += [setup_time(args.workload, seed) for _ in range(SETUP_SAMPLES)]
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(res["cpus"]), "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }

    print(f"workload {args.workload}, seed {seed}: {len(res['walls'])} untraced passes, "
          f"pass wall times {', '.join(f'{w:.3f}' for w in res['walls'])} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
