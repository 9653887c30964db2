"""List the functions of ``src/lentparticle`` that nothing the project runs enters.

    python3 tools/reach.py

It records every call with ``sys.setprofile`` (and ``threading.setprofile``
for worker threads) while it runs, at one seed, every config that
``tools/render_reports.py`` renders, rendered; the benchmark's own checks
(``benchmarks/workloads.checks``) on each workload config's result; and each
CLI command through click's ``CliRunner``, at a tiny size: ``run`` with a
``--config`` file and a ``--param``, ``list``, ``export-paths`` of both kinds
at a small index and at one past uint64, and ``run chaos-energy --param
functional=NAME`` for every registered functional.  Every function, method,
nested function and lambda compiled from ``src/lentparticle/*.py`` that no
call entered is printed as a JSON list of ``module:qualname`` names (with
``:firstline`` added where two share a qualname); comprehension code objects
belong to their enclosing function and are not listed.

ALLOWLIST names each function that is meant to stay unreached, with its
reason.  The command exits 1, naming the difference on standard error, when
the unreached list and ALLOWLIST differ in either direction: a function that
lost its last caller, or an entry that is now reached or no longer exists.
``tests/test_reach.py`` holds the tree to the same rule.
"""

from __future__ import annotations

import glob
import inspect
import json
import os
import sys
import tempfile
import threading
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "lentparticle")

# name -> why no run enters it; items are those of ROADMAP.md
ALLOWLIST = {
    "chaos:iterated_integral": "the benchmark tracer wraps it by name (item 3)",
    "ou:combine_paths": "the benchmark tracer wraps it by name (item 3)",
    "sde:solve_sde": "the benchmark tracer wraps it by name (item 3)",
    "sde:first_variation": "the benchmark tracer wraps it by name (item 3)",
    "grid:SamplePath.jump_increments":
        "the benchmark tracer reads it (benchmarks/tracer.py, _path_bytes; item 3)",
    "drivers:add_unit_jump": "item 6 decides; the tests' reference for a lent jump",
    "drivers:add_unit_jump.<locals>.levels": "item 6 decides, with add_unit_jump",
    "gradients:chaos_gradient_contraction":
        "item 6 decides; a reference the tests compare gradient_chaos against",
    "gradients:chaos_gradient_contraction.<locals>.<lambda>":
        "item 6 decides, with chaos_gradient_contraction",
    "gradients:lent_particle_sde": "the README's library example",
    "chaos:chaotic_extension.<locals>.<lambda>":
        "documented: any other functional on each rotated path (README, chaos row)",
    "grid:SamplePath.select.<locals>.<lambda>":
        "documented: a selection of a rotated batch keeps rotate's exact levels",
}


def entries(src: str = SRC) -> dict:
    """{(module, first line, qualname): name} of every function compiled from src/*.py."""
    found = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if hasattr(const, "co_qualname"):
                    stack.append(const)
                    # a function's own frame (a class body has none), comprehensions aside
                    if const.co_flags & inspect.CO_NEWLOCALS and (
                            not const.co_name.startswith("<") or const.co_name == "<lambda>"):
                        found.append((module, const.co_firstlineno, const.co_qualname))
    shared = Counter((module, qualname) for module, _, qualname in found)
    return {(m, line, q): f"{m}:{q}" + (f":{line}" if shared[m, q] > 1 else "")
            for m, line, q in found}


def _cli_calls(tmp: str) -> list:
    """Argument lists of the CLI commands the probe runs, at a tiny size."""
    from lentparticle.functionals import FUNCTIONALS

    config = os.path.join(tmp, "config.json")
    with open(config, "w") as fh:
        json.dump({"n_paths": 64, "n_steps": 20}, fh)
    out = ["--output", os.path.join(tmp, "reports")]
    calls = [["run", "chaos-energy", "--config", config, "--param", "theta=0.001"] + out,
             ["list"]]
    for kind in ("poisson", "compound"):
        for index in ("3", str(2**64)):
            calls.append(["export-paths", "--kind", kind, "--index", index, "--grid-steps", "20"])
    for name in FUNCTIONALS:
        calls.append(["run", "chaos-energy", "--config", config,
                      "--param", f"functional={name}"] + out)
    return calls


def reached() -> set:
    """(module, first line, qualname) of every src function that the probe's runs enter."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks"),
                    os.path.join(ROOT, "tools")]
    import render_reports
    import workloads
    from click.testing import CliRunner

    from lentparticle.cli import main

    codes = {}

    def profile(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for label, cfg in render_reports.configs(render_reports.SEEDS[0]):
                result, _, _ = workloads.run_one(cfg)
                if label.startswith("bench-"):
                    workloads.checks(result)
            for args in _cli_calls(tmp):
                CliRunner().invoke(main, args, catch_exceptions=False)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    src = os.path.realpath(SRC)
    return {(os.path.splitext(os.path.basename(c.co_filename))[0], c.co_firstlineno,
             c.co_qualname)
            for c in codes.values() if os.path.dirname(os.path.realpath(c.co_filename)) == src}


def unreached(seen: set, src: str = SRC) -> list:
    """Sorted names of the functions of ``src`` whose keys ``seen`` lacks."""
    return sorted(name for key, name in entries(src).items() if key not in seen)


def differences(names: list, allowlist: dict = ALLOWLIST) -> list:
    """One line per name that is unreached without an entry, or has an entry and is not
    unreached (it runs now, or no longer exists)."""
    return ([f"unreached, not in the allowlist: {n}" for n in names if n not in allowlist]
            + [f"in the allowlist, not unreached: {n}" for n in allowlist if n not in names])


def main() -> int:
    names = unreached(reached())
    print(json.dumps(names, indent=2))
    problems = differences(names)
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
