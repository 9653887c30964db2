"""``src`` holds what something runs: tools/reach.py's unreached functions are its allowlist."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("reach", os.path.join(ROOT, "tools", "reach.py"))
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


@pytest.fixture(scope="module")
def unreached(tmp_path_factory):
    """The names the probe prints, from a fresh interpreter: nothing cached beforehand."""
    run = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "reach.py")],
                         cwd=tmp_path_factory.mktemp("reach"), capture_output=True, text=True,
                         timeout=600)
    assert run.returncode in (0, 1), run.stderr
    return json.loads(run.stdout)


def test_unreached_functions_are_the_allowlist(unreached):
    assert reach.differences(unreached) == []


def test_every_entry_has_a_reason():
    assert all(isinstance(why, str) and why.strip() for why in reach.ALLOWLIST.values())


def test_an_unused_function_fails(unreached, tmp_path):
    # the same runs over a tree with one function added that nothing calls
    seen = {key for key, name in reach.entries().items() if name not in unreached}
    src = tmp_path / "lentparticle"
    shutil.copytree(reach.SRC, src)
    with open(src / "grid.py", "a") as fh:
        fh.write("\n\ndef unused(x):\n    return x\n")
    assert reach.differences(reach.unreached(seen, str(src))) == [
        "unreached, not in the allowlist: grid:unused"]


@pytest.mark.parametrize("stale", ["grid:TimeGrid.dt", "grid:Particles.of"],
                         ids=["now-reached", "gone"])
def test_a_stale_entry_fails(unreached, stale):
    allowlist = {**reach.ALLOWLIST, stale: "kept past its reason"}
    assert reach.differences(unreached, allowlist) == [
        f"in the allowlist, not unreached: {stale}"]


def test_names_are_module_and_qualname_with_the_line_where_two_share_one(tmp_path):
    src = tmp_path / "lentparticle"
    src.mkdir()
    (src / "m.py").write_text("class A:\n    def f(self):\n        return [i for i in ()]\n\n\n"
                              "def g(flag):\n    if flag:\n        def h():\n            pass\n"
                              "    else:\n        def h():\n            pass\n"
                              "    return h, lambda: 0\n")
    assert sorted(reach.entries(str(src)).values()) == [
        "m:A.f", "m:g", "m:g.<locals>.<lambda>", "m:g.<locals>.h:11", "m:g.<locals>.h:8"]
