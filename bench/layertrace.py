"""Outside-in tracing of miqpcert's layers, from the benchmark's own files.

``Tracer.wrap_layers`` wraps every public function of each layer module, and
``install`` puts each wrapper in place of the original in every loaded
``miqpcert`` module that imported it, so calls between layers go through the
wrappers.  ``uninstall`` puts the originals back.  Nothing under ``src/``
changes.  Each call records one span: (function, start, end, parent
span, instance).  A generator records one span per resumption, so the time
its consumer spends between items is not charged to it.  Spans stay in memory,
one column per field, until the run ends.

A span's self time is its duration minus the durations of its direct
children.  Spans nest on one thread, so the children never overlap.  Summed
per layer, the self times plus the benchmark's own remainder add up to the
traced wall time.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("linalg", "polyhedra", "qp", "cones", "milp", "certifier", "formats")

# Coercion helpers run inside every vector and matrix constructor.  A span
# around each call would cost more than the call and would measure the tracer.
UNTRACED = frozenset({"linalg.as_rational", "linalg.format_rational"})

ROOT = "bench.solve"


def _touch_fiber(tracer: "Tracer", args: tuple, result) -> None:
    fiber = args[1]
    tracer.touched[id(fiber)] = fiber  # holding the fiber keeps its id unique


def _decomposed(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["milp.fibers_built"] += len(result.fiber_records)
    tracer.counts["milp.families"] += len(result.ray_families)


def _split(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["cones.pieces"] += len(result.pieces)


OBSERVERS = {
    "milp.decompose_mixed_integer_set": _decomposed,
    "cones.simple_cone_decomposition": _split,
    "certifier.linear_descent_step": _touch_fiber,
    "certifier.bounded_window_search": _touch_fiber,
}


class Tracer:
    def __init__(self) -> None:
        self.keys: list[str] = [ROOT]
        self.calls: list[int] = [0]
        self.items: list[int] = [0]  # values yielded, for generator functions
        self.spans = Spans()
        self.counts: Counter[str] = Counter()
        self.touched: dict[int, object] = {}
        self.request = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    # -- installation -------------------------------------------------------

    def wrap_layers(self) -> None:
        """Build a wrapper for every public function of the layer modules and
        find every name in a loaded miqpcert module that refers to one."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"miqpcert.{layer}"]
            for name, fn in vars(module).items():
                key = f"{layer}.{name}"
                if (
                    name.startswith("_")
                    or key in UNTRACED
                    or isinstance(fn, type)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != module.__name__
                ):
                    continue
                wrappers[id(fn)] = self._wrap(key, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "miqpcert" and not mod_name.startswith("miqpcert."):
                continue
            for name, value in vars(module).items():
                if id(value) in wrappers:
                    self._patches.append((module, name, value, wrappers[id(value)]))

    def install(self) -> None:
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in self._patches:
            setattr(module, name, original)

    def _wrap(self, key: str, fn):
        key_id = len(self.keys)
        self.keys.append(key)
        self.calls.append(0)
        self.items.append(0)
        spans, stack, calls, items = self.spans, self._stack, self.calls, self.items
        open_span, close_span = spans.open, spans.close
        clock = time.perf_counter
        observe = OBSERVERS.get(key)

        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                calls[key_id] += 1
                it = fn(*args, **kwargs)
                while True:
                    index = open_span(key_id, stack[-1], self.request)
                    stack.append(index)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        close_span(index, start, end)
                    items[key_id] += 1
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            calls[key_id] += 1
            index = open_span(key_id, stack[-1], self.request)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close_span(index, start, end)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # -- the benchmark's root span -------------------------------------------

    def begin(self, request: int) -> int:
        self.request = request
        self.calls[0] += 1
        index = self.spans.open(0, -1, request)
        self._stack.append(index)
        self._root_start = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        end = time.perf_counter()
        del self._stack[1:]  # a timeout may have struck between a push and its try
        self.spans.close(index, self._root_start, end)
        self.counts["milp.fibers_touched"] += len(self.touched)
        self.touched.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per traced function, including the root span."""
        spans = self.spans
        child = [0.0] * len(spans.key)
        for parent, start, end in zip(spans.parent, spans.start, spans.end):
            if parent >= 0:
                child[parent] += end - start
        totals = [0.0] * len(self.keys)
        for key_id, start, end, covered in zip(spans.key, spans.start, spans.end, child):
            totals[key_id] += end - start - covered
        return dict(zip(self.keys, totals))

    def inclusive_times(self, keys: tuple[str, ...]) -> dict[str, float]:
        """Summed span durations of functions that never call themselves."""
        wanted = {self.keys.index(key): key for key in keys}
        totals = dict.fromkeys(keys, 0.0)
        for key_id, start, end in zip(self.spans.key, self.spans.start, self.spans.end):
            if key_id in wanted:
                totals[wanted[key_id]] += end - start
        return totals

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span, gzip-compressed; parent is a line
        number counted from 0 after the header, -1 for a root span."""
        spans = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("instance\tfunction\tstart_s\tend_s\tparent\n")
            for key_id, start, end, parent, request in zip(
                spans.key, spans.start, spans.end, spans.parent, spans.request
            ):
                out.write(f"{request}\t{self.keys[key_id]}\t{start:.9f}\t{end:.9f}\t{parent}\n")


class Spans:
    """Columns of recorded spans; a span is opened before its call so that
    the spans its call opens can name it as their parent."""

    def __init__(self) -> None:
        self.key = array("H")
        self.parent = array("q")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")

    def __len__(self) -> int:
        return len(self.key)

    def open(self, key_id: int, parent: int, request: int) -> int:
        self.key.append(key_id)
        self.parent.append(parent)
        self.request.append(request)
        self.start.append(0.0)
        self.end.append(0.0)
        return len(self.key) - 1

    def close(self, index: int, start: float, end: float) -> None:
        self.start[index] = start
        self.end[index] = end
