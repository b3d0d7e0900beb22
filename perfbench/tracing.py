"""Timers and spans around visitrep's public functions, installed from outside.

Nothing here edits the package. ``rebind`` swaps a function for a wrapper in
every place the package calls it through: the defining module, each module
that imported it by name, and the ``numerics`` package that re-exports the
kernels. For a method it swaps the class attribute. ``StageTimer`` times a
few coarse calls for the throughput figures. ``Tracer`` records a span
for every call of a wrapped layer function and aggregates numerics kernels
per enclosing span. Per-layer metrics and self times are computed from those
records.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import time

perf_counter = time.perf_counter


def resolve(target: str):
    """'pkg.module:Name.attr' or 'pkg.module:attr' -> (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def rebind(target: str, make) -> None:
    """Replace the object at `target` with make(original), at every binding."""
    owner, attr = resolve(target)
    orig = getattr(owner, attr)
    new = make(orig)
    if isinstance(owner, type):
        setattr(owner, attr, new)
        return
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "visitrep" or name.startswith("visitrep.")):
            continue
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, new)


class StageTimer:
    """Wall time and item count of each call to a few coarse public functions.

    `stages` maps a stage name to (target, items), where items(arguments)
    gives the work a call did (0 when the call does not count). Overhead is a
    few microseconds per call on calls that take tenths of a second or more.
    """

    def __init__(self, stages: dict):
        self.records: list = []
        for name, (target, items) in stages.items():
            rebind(target, functools.partial(self._wrap, name, items))

    def _wrap(self, name, items, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            seconds = perf_counter() - start
            n = items(signature.bind(*args, **kwargs).arguments)
            if n:
                self.records.append((name, seconds, n))
            return out

        return timed

    def take(self) -> dict:
        """{stage: (seconds, items)} summed since the last take."""
        out: dict = {}
        for name, seconds, n in self.records:
            s, k = out.get(name, (0.0, 0))
            out[name] = (s + seconds, k + n)
        self.records = []
        return out


class _Frame:
    __slots__ = ("index", "start", "kernel_calls", "kernel_s")

    def __init__(self, index: int, start: float):
        self.index = index
        self.start = start
        self.kernel_calls = 0
        self.kernel_s = 0.0


class Tracer:
    """In-memory spans: (name, start, end, parent index, phase, kernel calls,
    kernel seconds). Kernels are too many to span one by one (about 0.3 million
    calls per cli-pipeline iteration), so each span carries the count and time of
    the kernels called directly inside it, and `kernels` holds per-op totals.
    `counts` holds the exact counters the hooks record, per phase."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        self.spans: list = []
        self.stack: list = []
        self.kernels: dict = {}
        self.counts: dict = {}
        self._in_kernel = False

    def begin(self, phase: str) -> None:
        """Start a phase; kernel totals restart so they cover this phase only."""
        self.phase = phase
        for totals in self.kernels.values():
            totals[0], totals[1] = 0, 0.0

    def count(self, key: str, n) -> None:
        bucket = self.counts.setdefault(self.phase, {})
        bucket[key] = bucket.get(key, 0) + n

    @contextlib.contextmanager
    def region(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _enter(self, name: str) -> _Frame:
        parent = self.stack[-1].index if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.phase, 0, 0.0])
        frame = _Frame(index, perf_counter())
        self.stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = perf_counter()
        self.stack.pop()
        record = self.spans[frame.index]
        record[1], record[2] = frame.start, end
        record[5], record[6] = frame.kernel_calls, frame.kernel_s

    def span(self, name: str, before=None, after=None):
        """Wrapper factory for rebind. before(args) runs outside the span;
        after(args, result) runs after it closes."""

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if before is not None:
                    before(args)
                frame = self._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(frame)
                if after is not None:
                    after(args, result)
                return result

            return traced

        return make

    def kernel(self, name: str):
        totals = self.kernels.setdefault(name, [0, 0.0])
        stack = self.stack

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if self._in_kernel:
                    return fn(*args, **kwargs)
                self._in_kernel = True
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds = perf_counter() - start
                    self._in_kernel = False
                    totals[0] += 1
                    totals[1] += seconds
                    if stack:
                        stack[-1].kernel_calls += 1
                        stack[-1].kernel_s += seconds

            return traced

        return make

    # -- aggregation -----------------------------------------------------------

    def summary(self, phase: str) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (inclusive
        minus child spans minus kernels called directly inside)."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, ph, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent, ph, _, kernel_s) in enumerate(self.spans):
            if ph != phase:
                continue
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_s[i] - kernel_s
        return out

    def calls_under(self, name: str, ancestor: str, phase: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        n = 0
        for record in self.spans:
            if record[0] != name or record[4] != phase:
                continue
            parent = record[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines, one per span, each tagged with the run id."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, phase, kcalls, ks) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id, "id": i, "name": name, "start": start,
                            "end": end, "parent": parent, "phase": phase,
                            "kernel_calls": kcalls, "kernel_s": ks,
                        }
                    )
                    + "\n"
                )


def file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0
