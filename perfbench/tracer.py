"""Span recorder that wraps the public functions of the stinqos modules.

Wrapping happens from outside the package: every public module-level
function of a stinqos module is replaced by a timing wrapper, in the module
that defines it and in every stinqos module that imported it by name (e.g.
``fbc.srician_quad_nodes`` as well as ``channel.srician_quad_nodes``).

Each call becomes one span (id, parent span, name, start, end, self time)
kept in memory; the job id is stored with the job's spans. Self time is
kept while running: a span's self time is its duration minus the durations
of the spans nested directly inside it, so the self times of all spans of a
job add up to the root span's duration.
A generator function becomes one span whose duration is the sum of the
intervals it spent running between yields.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
import time

_clock = time.perf_counter


def _size(x) -> int:
    if hasattr(x, "size"):
        return int(x.size)
    return len(x) if hasattr(x, "__len__") else 1


def _draws(args, kwargs) -> int:
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    if size is None:
        return 1
    return math.prod(size) if isinstance(size, tuple) else int(size)


# Counts derived from argument and result sizes, so they repeat exactly.
# Each maps (args, kwargs, result) to {quantity: count}.
COUNTERS = {
    "channel.shadowed_rician_pdf": lambda a, k, r: {"points": _size(a[0])},
    "channel.sample_channel_gain": lambda a, k, r: {"draws": _draws(a, k)},
    "fbc.sinr_quadrature": lambda a, k, r: {
        "nodes": r[0].size, "bytes_computed": r[0].nbytes + r[1].nbytes},
    "fbc.conditional_error": lambda a, k, r: {"evals": _size(a[0])},
    "fbc.gallager_e0_samples": lambda a, k, r: {
        "node_evals": _size(a[1]) if a[0] != 0.0 else 0},
    "aoi.departure_times": lambda a, k, r: {"updates": len(a[0])},
    "csvio.render_csv": lambda a, k, r: {
        "rows": len(a[1]), "bytes": len(r.encode("utf-8"))},
}


# Per-cell helpers: wrapping them would cost more than the work they do, so
# their time stays in the caller's self time (csvio.render_csv).
NOT_WRAPPED = {"csvio.format_value"}


class Tracer:
    """In-memory span recorder for one traced job."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, self_s)
        self.counts = {}  # "module.function.quantity" -> int
        # frame: [span id, name, start, child seconds]
        self._stack = []
        self._next_id = 0

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, _clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> tuple[float, float]:
        end = _clock()
        self._stack.pop()
        duration = end - frame[2]
        if self._stack:
            self._stack[-1][3] += duration
        return end, duration

    def _parent(self):
        return self._stack[-1][0] if self._stack else None

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn):
        """Timing wrapper for one public function named ``module.function``."""
        counter = COUNTERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.count(f"{name}.calls")
                gen = fn(*args, **kwargs)
                span_id = tracer._next_id
                tracer._next_id += 1
                parent, start, end, busy, child, rows = None, None, None, 0.0, 0.0, 0
                try:
                    while True:
                        frame = [span_id, name, _clock(), 0.0]
                        tracer._stack.append(frame)
                        if start is None:
                            start = frame[2]
                            if len(tracer._stack) > 1:
                                parent = tracer._stack[-2][0]
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            end, duration = tracer._exit(frame)
                            busy += duration
                            child += frame[3]
                        rows += 1
                        yield item
                finally:
                    gen.close()
                    if start is not None:
                        tracer.spans.append(
                            (span_id, parent, name, start, end, busy - child))
                    tracer.count(f"{name}.rows", rows)

            return gen_wrapper

        wrap_objective = name == "optimize.grid_then_golden"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(f"{name}.calls")
            if wrap_objective:
                objective = args[0]

                def counted(x):
                    tracer.count(f"{name}.objective_evals")
                    return objective(x)

                args = (counted,) + args[1:]
            parent = tracer._parent()
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end, duration = tracer._exit(frame)
                tracer.spans.append(
                    (frame[0], parent, name, frame[2], end, duration - frame[3]))
            if counter is not None:
                for quantity, n in counter(args, kwargs, result).items():
                    tracer.count(f"{name}.{quantity}", n)
            return result

        return wrapper

    def install(self, package: str = "stinqos") -> int:
        """Wrap every public function of the loaded ``package`` modules.

        Returns the number of functions wrapped.
        """
        modules = {
            mod_name: mod for mod_name, mod in sys.modules.items()
            if mod is not None
            and (mod_name == package or mod_name.startswith(package + "."))
        }
        originals = {}  # id(function) -> wrapper
        for mod_name, mod in modules.items():
            short = mod_name.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or getattr(value, "__module__", None) != mod_name
                        or f"{short}.{attr}" in NOT_WRAPPED):
                    continue
                originals[id(value)] = (value, self.wrap(f"{short}.{attr}", value))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
        return len(originals)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.parent = self.tracer._parent()
        self.frame = self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc):
        end, duration = self.tracer._exit(self.frame)
        self.tracer.spans.append(
            (self.frame[0], self.parent, self.name, self.frame[2], end,
             duration - self.frame[3]))
        return False
