"""Out-of-program tracing of lentparticle's layers.

The tracer replaces, for the duration of a ``with tracer.instrument():``
block, the module attributes through which the experiment code reaches each
layer's public functions.  Every call then records a span (layer, name,
start, end, parent, thread) in memory, and a few calls also record work
counts computed from their argument and result shapes.  Nothing under
``src/`` is edited: the original functions run unchanged, and every
attribute is put back when the block ends.

A layer's self time is the duration of its spans minus the part of each span
that its child spans cover, summed over all threads.  Spans opened on a
``parallel_batches`` worker thread are children of that ``parallel_batches``
span, so the runner's self time is its own bookkeeping, not the wait for its
workers.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (module, attribute) pairs per layer, as named in the benchmark README.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "drivers": (
        ("drivers", "martingale_batch"),
        ("drivers", "brownian_batch"),
        ("drivers", "compensated_poisson_batch"),
        ("drivers", "compound_poisson_batch"),
        ("ou", "inner_hat_batch"),
    ),
    "pathalg": (
        ("drivers", "rotate"),
        ("ou", "combine_paths"),
        ("drivers", "add_unit_jump"),
    ),
    "chaos": (
        ("chaos", "iterated_integral"),
        ("chaos", "evaluate_chaos"),
        ("chaos", "chaotic_extension"),
        ("chaos", "stochastic_integral"),
        ("chaos", "exponential_vector"),
    ),
    "sde": (
        ("sde", "solve_sde"),
        ("sde", "first_variation"),
    ),
    "gradients": (
        ("gradients", "gradient_chaos"),
        ("gradients", "supremum_decomposition"),
        ("gradients", "integration_by_parts_pair"),
    ),
    "ou": (
        ("ou", "mehler_samples"),
        ("ou", "rotation_gradient_samples"),
        ("ou", "semigroup_bracket_samples"),
    ),
    "experiments": (
        ("experiments", "run_experiment"),
        ("experiments", "parallel_batches"),
    ),
    "reporting": (
        ("reporting", "render_csv"),
        ("reporting", "render_json"),
    ),
}

PACKAGE = "lentparticle"


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    thread: int


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _orderings(kernel) -> int:
    """Factor orderings ``iterated_integral`` sums for this kernel."""
    if not kernel.symmetrize:
        return 1
    classes: list = []
    sizes: Counter = Counter()
    for f in kernel.factors:
        for i, g in enumerate(classes):
            if f == g:
                sizes[i] += 1
                break
        else:
            classes.append(f)
            sizes[len(classes) - 1] += 1
    out = math.factorial(kernel.order)
    for m in sizes.values():
        out //= math.factorial(m)
    return out


def _path_bytes(path) -> int:
    arrays = (path.increments, path._values, path.jump_increments)
    return sum(a.nbytes for a in arrays if a is not None)


class Tracer:
    """Spans and work counts for one traced pass; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        # Distinct stream keys per experiment run, keyed by run number.
        self.keys: dict[int, set] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._run = 0

    # --- span stack -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def _adopt(self, parent: int | None):
        """Make ``parent`` the current span of this (worker) thread."""
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def _wrap(self, layer: str, name: str, fn, counter=None, adopt_fn=False):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._current()
            span_id = next(tracer._ids)
            if adopt_fn:
                args = (tracer._batch_fn(span_id, args[0]),) + args[1:]
            stack = tracer._stack()
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, parent, layer, name, start, end, threading.get_ident())
                )
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(bound.arguments, result)
            return result

        return wrapper

    def _batch_fn(self, parent: int, fn):
        """``parallel_batches`` callback that runs under the runner's span."""

        def batch(*args):
            with self._lock:
                self.counts["experiments.batches"] += 1
            with self._adopt(parent):
                return fn(*args)

        return batch

    # --- work counters ----------------------------------------------------

    def _add(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def _add_keys(self, keys) -> None:
        keys = list(keys)
        with self._lock:
            self.counts["drivers.paths"] += len(keys)
            self.keys.setdefault(self._run, set()).update(keys)

    # Each counter gets the call's bound arguments (defaults applied) and its
    # result.  Stream keys follow RngStream.generator: (seed, channel, index,
    # subindex).

    def _count_batch(self, channel=None):
        def count(a, result):
            ch = a["channel"] if channel is None else channel
            seed, start = a["master_seed"], a["start"]
            self._add_keys((seed, ch, start + i, 0) for i in range(a["count"]))

        return count

    def _count_hats(self, a, result):
        from lentparticle.grid import CHANNEL_HAT

        seed, outer = a["master_seed"], a["outer_index"]
        self._add_keys((seed, CHANNEL_HAT, outer, j + 1) for j in range(a["count"]))

    def _count_simplex(self, a, result):
        kernel = a["kernel"]
        cells = _orderings(kernel) * kernel.order * a["driver"].increments.size
        self._add("chaos.simplex_cells", cells)

    def _count_euler(self, a, result):
        self._add("sde.euler_cells", a["driver"].increments.size)

    def _count_path_bytes(self, a, result):
        self._add("pathalg.bytes_computed", _path_bytes(result))

    def _counters(self) -> dict:
        from lentparticle import grid

        return {
            "brownian_batch": self._count_batch(),
            "compensated_poisson_batch": self._count_batch(grid.CHANNEL_POISSON),
            "compound_poisson_batch": self._count_batch(grid.CHANNEL_COMPOUND),
            "inner_hat_batch": self._count_hats,
            "iterated_integral": self._count_simplex,
            "solve_sde": self._count_euler,
            "first_variation": self._count_euler,
            "rotate": self._count_path_bytes,
            "combine_paths": self._count_path_bytes,
            "add_unit_jump": self._count_path_bytes,
        }

    # --- instrumentation --------------------------------------------------

    @contextmanager
    def instrument(self):
        """Swap every package-level reference to a layer function for a wrapper.

        References are module attributes (``from .x import f`` bindings
        included) and values of module-level dicts such as
        ``drivers.DRIVER_BATCHES``.  All of them are restored on exit.
        """
        counters = self._counters()
        wrappers = {}
        for layer, targets in LAYERS.items():
            for module, name in targets:
                fn = getattr(sys.modules[f"{PACKAGE}.{module}"], name)
                wrapped = self._wrap(
                    layer, name, fn, counters.get(name), adopt_fn=name == "parallel_batches"
                )
                if name == "run_experiment":
                    wrapped = self._scoped(wrapped)
                wrappers[id(fn)] = wrapped
        patched = []
        try:
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrappers:
                        patched.append((mod, attr, value))
                        setattr(mod, attr, wrappers[id(value)])
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if id(item) in wrappers:
                                patched.append((value, key, item))
                                value[key] = wrappers[id(item)]
            yield self
        finally:
            for owner, key, original in reversed(patched):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    def _scoped(self, wrapped):
        @functools.wraps(wrapped)
        def run(*args, **kwargs):
            self._run += 1
            return wrapped(*args, **kwargs)

        return run

    # --- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            inside = [
                (max(a, s.start), min(b, s.end))
                for a, b in children.get(s.id, ())
                if min(b, s.end) > max(a, s.start)
            ]
            out[s.layer] += (s.end - s.start) - union_length(inside)
        return out

    def unique_key_ratio(self) -> float:
        paths = self.counts["drivers.paths"]
        if paths == 0:
            return 1.0
        return sum(len(keys) for keys in self.keys.values()) / paths

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit); trace.overhead_s is added by the caller."""
        out = {f"{layer}.self_s": (t, "s") for layer, t in self.self_times().items()}
        out["drivers.paths"] = (self.counts["drivers.paths"], "count")
        out["drivers.unique_key_ratio"] = (self.unique_key_ratio(), "ratio")
        out["pathalg.bytes_computed"] = (self.counts["pathalg.bytes_computed"], "bytes")
        out["chaos.simplex_cells"] = (self.counts["chaos.simplex_cells"], "count")
        out["sde.euler_cells"] = (self.counts["sde.euler_cells"], "count")
        out["experiments.batches"] = (self.counts["experiments.batches"], "count")
        return out

    def span_records(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.start)]
