"""Span tracing of framelab from the outside, without editing the library.

``install`` replaces every public function of every ``framelab`` module
with a wrapper, in each namespace that binds it: modules import by name
(``search`` binds ``classify``), and ``verify.SUITES`` holds the suite
functions in a dict.  One wrapper per function is shared by all of its
bindings.  ``uninstall`` puts the originals back.  ``Tracer`` wraps with
timed spans; ``Slicer`` only counts calls, to cut requests into slices.

Each call becomes a span (id, parent id, name, start ns, end ns).  Self time
is a span's duration minus the durations of its direct children, so the
self times of all spans under a root add up to the root's duration exactly.
A recursive function's ``total`` counts nested calls twice; its ``self`` does
not.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import defaultdict

ROOT = "bench.request"
MAX_KEPT_SPANS = 200_000  # spans written to the trace file; aggregates count all


def _count_search(tracer: "Tracer", report) -> None:
    tracer.counters["search.subsets_visited"] += report.total_enumerated
    tracer.counters["search.records_kept"] += len(report.records)


def _count_chain(tracer: "Tracer", chain) -> None:
    # the fast paths return t = 1 or t = 2; anything else walked the subgroup DAG
    tracer.counters["diffsets.nested_divisible_chain.dag"] += chain is None or chain.t >= 3


def _count_recognized(tracer: "Tracer", form) -> None:
    tracer.counters["surd.recognize_angle.recognized"] += form is not None


RESULT_HOOKS = {
    "search.enumerate_and_classify": _count_search,
    "diffsets.nested_divisible_chain": _count_chain,
    "surd.recognize_angle": _count_recognized,
}


class Patcher:
    """Installs ``self._wrap(name, fn)`` over every public framelab function."""

    def __init__(self) -> None:
        self.originals: dict[str, object] = {}
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        raise NotImplementedError

    def install(self) -> None:
        import framelab

        modules = [framelab] + [
            importlib.import_module(f"framelab.{info.name}")
            for info in pkgutil.iter_modules(framelab.__path__)
        ]
        names: dict[int, str] = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(inspect.unwrap(obj))
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    names[id(obj)] = f"{short}.{attr}"
        from framelab.verify import SUITES

        for key, fn in SUITES.items():
            names[id(fn)] = f"verify.{key}"

        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                targets = [(mod.__dict__, attr, obj)]
                if isinstance(obj, dict) and not attr.startswith("__"):
                    targets = [(obj, k, v) for k, v in obj.items()]
                for ns, key, val in targets:
                    if id(val) not in names:
                        continue
                    if id(val) not in wrappers:
                        self.originals[names[id(val)]] = val
                        wrappers[id(val)] = self._wrap(names[id(val)], val)
                    self._undo.append((ns, key, val))
                    ns[key] = wrappers[id(val)]

    def uninstall(self) -> None:
        for ns, key, val in reversed(self._undo):
            ns[key] = val
        self._undo.clear()


class Slicer(Patcher):
    """Times each request in slices of a fixed number of framelab calls.

    A request's calls come in the same order on every pass, so slice j of a
    request covers the same work on every pass.  Until ``calibrate``, a
    request is only counted, not cut; ``calibrate`` then sets each request's
    slice length from the calls it made, for about ``pieces`` slices.
    """

    def __init__(self, pieces: int) -> None:
        super().__init__()
        self.pieces = pieces
        self.every: list[int] = []  # calls per slice, by request index in a pass
        self.slices: list[list[float]] = []  # seconds per slice, by request of this pass
        self.counts: list[int] = []  # calls after the last cut, by request of this pass
        self.step = sys.maxsize
        self.count = 0
        self.marks: list[int] = []

    def _wrap(self, name: str, fn):
        slicer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slicer.count += 1
            if slicer.count == slicer.step:
                slicer.count = 0
                slicer.marks.append(time.perf_counter_ns())
            return fn(*args, **kwargs)

        return wrapper

    def start_pass(self) -> None:
        self.slices = []
        self.counts = []

    def calibrate(self) -> None:
        """Slice lengths from the calls of the pass just timed, which was not cut."""
        self.every = [max(1, c // self.pieces) for c in self.counts]

    def timed(self, fn, *args):
        """Run one request: (result, seconds); its slices go to ``self.slices``."""
        i = len(self.slices)
        self.step = self.every[i] if i < len(self.every) else sys.maxsize
        self.count = 0
        self.marks = [time.perf_counter_ns()]
        out = fn(*args)
        end = time.perf_counter_ns()
        marks = self.marks + [end]
        self.slices.append([(b - a) / 1e9 for a, b in zip(marks, marks[1:])])
        self.counts.append(self.count)
        return out, (end - marks[0]) / 1e9


class Tracer(Patcher):
    def __init__(self) -> None:
        super().__init__()
        self.stack: list[list] = []  # [span id, name, start ns, child ns]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self.next_id += 1
        self.stack.append([self.next_id, name, time.perf_counter_ns(), 0])

    def _exit(self) -> int:
        end = time.perf_counter_ns()
        sid, name, start, child = self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((sid, parent[0] if parent else 0, name, start, end))
        else:
            self.dropped += 1
        return dur

    def timed(self, fn, *args):
        """Run one benchmark request under a root span: (result, seconds)."""
        self._enter(ROOT)
        try:
            out = fn(*args)
        finally:
            dur = self._exit()
        return out, dur / 1e9

    def _wrap(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if hook is not None:
                hook(tracer, result)
            return result

        return wrapper

    # -- output ------------------------------------------------------------

    def cache_misses(self, name: str) -> int:
        """Misses so far of a cached library function (0 if it is not cached)."""
        fn = self.originals.get(name)
        return fn.cache_info().misses if hasattr(fn, "cache_info") else 0

    def write(self, path) -> None:
        """Spans as [id, parent id, name, start ns, end ns] plus per-function totals."""
        functions = {
            name: {"calls": self.calls[name], "total_ns": self.total_ns[name],
                   "self_ns": self.self_ns[name]}
            for name in sorted(self.calls)
        }
        with open(path, "w") as fh:
            json.dump({
                "columns": ["id", "parent", "name", "start_ns", "end_ns"],
                "spans": self.spans,
                "spans_dropped": self.dropped,
                "functions": functions,
                "counters": dict(self.counters),
            }, fh)
