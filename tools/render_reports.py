"""Render the CSV and JSON reports that a refactor must leave byte-identical.

    python3 tools/render_reports.py OUTDIR

Run it on two checkouts (say the parent commit and the change) and compare
with ``diff -r OUTDIR_A OUTDIR_B``; no output means every report is
byte-identical.  For each seed in SEEDS it renders every registered
experiment at reduced sizes and every config of the four benchmark workloads
(``benchmarks/workloads.build_configs``), into ``OUTDIR/seed-<seed>/``.  The
package and the workloads are imported from the checkout that holds this
script.  On two cores one render takes under a minute.

Standard error gets one line per report: the check outcome, the seconds it
took and its live peak, the most bytes that tracemalloc saw allocated and not
yet freed while the experiment ran (the rendered files do not change).  Unlike
a process's peak RSS, which keeps freed heap and depends on the allocator's
mode, the live peak counts only what the program holds.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

from lentparticle.experiments import make_config, run_experiment  # noqa: E402
from lentparticle.reporting import render_csv, render_json  # noqa: E402
import workloads  # noqa: E402

SEEDS = (20240901, 7)

SMALL = {"n_steps": 200}
# label -> (experiment, config overrides); sizes far below the defaults
EXPERIMENTS = {
    "isometry": ("isometry", {**SMALL, "n_paths": 2000}),
    "covariance-decay": ("covariance-decay", {**SMALL, "n_paths": 4500, "workers": 2}),
    "bessel": ("bessel", {}),
    "exp-vector-covariance": ("exp-vector-covariance", {**SMALL, "n_paths": 3000}),
    "chaos-energy": ("chaos-energy", {**SMALL, "n_paths": 2000}),
    "sde-lent-particle": ("sde-lent-particle", {"n_paths": 64, "n_steps": 1000}),
    "sde-poisson": ("sde-poisson", {"n_paths": 256, "n_steps": 1000}),
    "ibp": ("ibp", {**SMALL, "n_paths": 3000}),
    "mehler": ("mehler", {**SMALL, "params": {"n_outer": 8, "n_inner": 64,
                                              "n_eigen_paths": 3}}),
    "supremum": ("supremum", {**SMALL, "n_paths": 3000}),
    "reproducibility-300": ("reproducibility", {**SMALL, "params": {"target_n_paths": 300}}),
    "reproducibility": ("reproducibility", {}),
}


def configs(seed: int) -> list:
    """(label, config) pairs for one seed."""
    out = [(label, make_config(name, master_seed=seed, **overrides))
           for label, (name, overrides) in EXPERIMENTS.items()]
    for workload in workloads.WORKLOADS:
        out += [(f"bench-{workload}-{cfg.experiment}", cfg)
                for cfg in workloads.build_configs(workload, seed)]
    return out


def render(label: str, cfg, out_dir: str) -> None:
    tracemalloc.reset_peak()
    start = time.perf_counter()
    result = run_experiment(cfg)
    elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    with open(os.path.join(out_dir, f"{label}.csv"), "w") as fh:
        fh.write(render_csv(result.rows))
    with open(os.path.join(out_dir, f"{label}.json"), "w") as fh:
        fh.write(render_json(result.summary()))
    outcome = "passed" if result.passed else "check failed"
    print(f"{label}: {outcome} ({elapsed:.1f} s, live peak {peak / 2**20:.1f} MiB)",
          file=sys.stderr)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/render_reports.py OUTDIR", file=sys.stderr)
        return 2
    tracemalloc.start()
    for seed in SEEDS:
        out_dir = os.path.join(argv[0], f"seed-{seed}")
        os.makedirs(out_dir, exist_ok=True)
        for label, cfg in configs(seed):
            render(label, cfg, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
