"""Host-time spans recorded from outside the program.

The traced run wraps public calls into each layer of ``repro`` (VM
construction, tier-0 warm-up, each compiler pass ``compile_method``
imports, ``Machine.prepare``, ``TieredVM.run`` inside measurement
windows, ``run_threads``, the serializability oracle, workload builds)
with spans that record name, start, end and parent.  Nothing under
``src/`` changes: the wrappers are installed by :func:`instrument` for
the duration of a ``with`` block and removed afterwards, so the untraced
run executes the program exactly as shipped.

Spans stay in memory and are written out at the end as a Chrome trace
(``"X"`` complete events, microsecond host time), which loads in
``chrome://tracing`` and Perfetto beside the guest traces that
``repro.obs.export`` writes.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

NO_PARENT = -1


class Recorder:
    """In-memory span store plus counters taken at the same boundaries.

    Each guest thread of a scheduled run is a host thread, so the open-span
    stack is per thread; a thread's first span is parented to the span open
    on the thread that created the recorder (the ``run_threads`` call).
    """

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index, host thread id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = NO_PARENT
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter_ns(), 0, parent, threading.get_ident()])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    # -- analysis ---------------------------------------------------------
    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: (inclusive seconds, self seconds, span count).

        Self time is a span's duration minus the part of it that its
        direct children cover (their union, so overlapping children from
        interleaved guest threads are not counted twice).
        """
        children = defaultdict(list)
        for _name, start, end, parent, _tid in self.spans:
            if parent != NO_PARENT:
                children[parent].append((start, end))
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for index, (name, start, end, _parent, _tid) in enumerate(self.spans):
            covered = _covered(children[index], start, end)
            total[name] += (end - start) / 1e9
            own[name] += (end - start - covered) / 1e9
            calls[name] += 1
        return dict(total), dict(own), dict(calls)

    def covered_s(self, start_ns: int, end_ns: int) -> float:
        """Seconds of ``[start_ns, end_ns]`` covered by top-level spans."""
        roots = [(s, e) for _n, s, e, parent, _t in self.spans
                 if parent == NO_PARENT]
        return _covered(roots, start_ns, end_ns) / 1e9

    def dump_chrome(self, path: str, origin_ns: int) -> str:
        """Write every span as a Chrome-trace complete event."""
        tids: dict[int, int] = {}
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                   "args": {"name": "host (perfbench)"}}]
        for index, (name, start, end, parent, ident) in enumerate(self.spans):
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "pid": 1, "tid": tids.setdefault(ident, len(tids)),
                "ts": (start - origin_ns) / 1e3, "dur": (end - start) / 1e3,
                "args": {"id": index, "parent": parent},
            })
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"clock": "host perf_counter"}}, handle)
        return path


def _covered(intervals, start: int, end: int) -> int:
    """Nanoseconds of ``[start, end]`` covered by the union of intervals."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


# -- instrumentation ----------------------------------------------------------

def _spanned(rec: Recorder, name: str, fn, count: str | None = None):
    """``fn`` wrapped in a span; ``count`` names a counter of its calls."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count is not None:
            rec.counts[count] += 1
        index = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(index)
    return wrapper


@contextmanager
def instrument(rec: Recorder):
    """Install span wrappers around the layer entry points; undo on exit."""
    from repro.harness import figures as harness_figures
    from repro.hw.machine import Machine
    from repro.opt.inline import Inliner
    from repro.vm import compiler
    from repro.vm.vm import TieredVM
    from repro.workloads import ALL_WORKLOADS

    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_span(owner, attr, name, count=None):
        patch(owner, attr, _spanned(rec, name, getattr(owner, attr), count))

    counts = rec.counts
    windows: weakref.WeakSet = weakref.WeakSet()

    for attr, name in (("build_ir", "ir.build"),
                       ("form_regions", "atomic.formation"),
                       ("optimize", "opt.optimize"),
                       ("apply_sle", "atomic.sle"),
                       ("generate_code", "hw.codegen")):
        patch_span(compiler, attr, name)
    patch_span(Inliner, "run", "opt.inline")
    patch_span(TieredVM, "__init__", "vm.init")
    for workload in ALL_WORKLOADS.values():
        patch_span(workload, "build", "workloads.build")

    patch_span(TieredVM, "compile", "vm.compile", "vm.methods_compiled")
    patch_span(Machine, "prepare", "hw.prepare", "hw.prepare_calls")

    warm_up = TieredVM.warm_up

    def warm_up_wrapper(vm, entry, args_list):
        before = vm.interpreter.bytecodes_executed
        index = rec.begin("runtime.warm_up")
        try:
            return warm_up(vm, entry, args_list)
        finally:
            rec.end(index)
            counts["runtime.bytecodes"] += (
                vm.interpreter.bytecodes_executed - before)
    patch(TieredVM, "warm_up", warm_up_wrapper)

    start_measurement = TieredVM.start_measurement
    end_measurement = TieredVM.end_measurement

    def start_wrapper(vm):
        start_measurement(vm)
        windows.add(vm)

    def end_wrapper(vm):
        windows.discard(vm)
        return end_measurement(vm)
    patch(TieredVM, "start_measurement", start_wrapper)
    patch(TieredVM, "end_measurement", end_wrapper)

    run = TieredVM.run

    def run_wrapper(vm, *args, **kwargs):
        if vm not in windows:
            return run(vm, *args, **kwargs)
        timed = vm.timing is not None
        stats = vm.stats
        before = (stats.uops_retired, stats.regions_entered,
                  stats.regions_committed)
        index = rec.begin("hw.window" if timed else "hw.window_untimed")
        try:
            return run(vm, *args, **kwargs)
        finally:
            rec.end(index)
            if timed:
                counts["hw.uops_retired"] += stats.uops_retired - before[0]
                counts["hw.regions_entered"] += (
                    stats.regions_entered - before[1])
                counts["hw.regions_committed"] += (
                    stats.regions_committed - before[2])
    patch(TieredVM, "run", run_wrapper)

    run_threads = TieredVM.run_threads

    def run_threads_wrapper(vm, calls, plan=None):
        index = rec.begin("runtime.run_threads")
        try:
            sched = run_threads(vm, calls, plan)
        finally:
            rec.end(index)
        counts["runtime.sched_steps"] += sum(t.steps for t in sched.threads)
        counts["runtime.context_switches"] += sched.context_switches
        return sched
    patch(TieredVM, "run_threads", run_threads_wrapper)

    patch_span(harness_figures, "run_concurrency_chaos", "harness.oracle")
    make_contention = harness_figures.contention_workload

    def contention_wrapper(*args, **kwargs):
        workload = make_contention(*args, **kwargs)
        workload.build = _spanned(rec, "workloads.build", workload.build)
        return workload
    patch(harness_figures, "contention_workload", contention_wrapper)

    try:
        yield rec
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
