"""Run one workload of the repo benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --pin        # regenerate perfbench/pins.json

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Their times are in reference seconds (see ``HostSpeed``): host seconds
rescaled by how fast the host ran a fixed reference loop during the
same run, so the shared host's drift in speed cancels out; the host
seconds are printed as well.
``--trace 1`` sets the workload up and runs its first round with the
layer spans of ``spans.py`` installed (one round, so its counts repeat
exactly for a seed), then replays the round untraced, and reports the
per-layer metrics, the share of traced wall time no span covers, and
the tracing overhead (traced minus untraced round time).  The spans are
written to ``.perfbench_out/<workload>-seed<n>.trace.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def prepare_environment() -> bool:
    """Single process on one CPU, no disk cache, sources from here."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return False
    os.environ.pop("REPRO_WORKERS", None)
    os.environ["REPRO_DISK_CACHE"] = "0"
    os.environ["CHAOS_TRACE_DIR"] = str(OUT_DIR / "chaos")
    sys.path.insert(0, str(src))
    # One CPU for the whole process.  Contention cells run their guest
    # threads on host threads that hand over one at a time; on one CPU a
    # hand-over is a plain context switch, not a cross-CPU wake-up whose
    # latency the shared host sets (it varied contention rounds by 45%).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return True


#: passes of ``reference_loop`` that make one reference second.
REF_PASSES_PER_S = 1000
#: reference-loop passes per host second of the program's work.
REF_SAMPLES_PER_S = 20


def reference_loop() -> int:
    """A fixed pure-Python loop that uses none of the program's code.

    It allocates no containers, so it never triggers a garbage collection
    of the program's heap; one pass takes about a millisecond.
    """
    total = 0
    for i in range(15000):
        total += i * i % 7
    return total


class HostSpeed:
    """How fast the shared host runs plain Python during each phase.

    The host's speed drifts by tens of percent over minutes, in process
    CPU time as much as in wall time, so two runs of the same code can
    differ by more than any useful bound.  Timing ``reference_loop``
    throughout the run and dividing host seconds by its median pass time
    in the same phase (set-up, or the round an operation ran in), times
    ``REF_PASSES_PER_S``, gives *reference seconds*, in which that drift
    cancels.  The loop does not use the program, so a change to the
    program moves reference seconds as it moves host seconds.
    """

    def __init__(self) -> None:
        #: pass times per phase: "setup", then each round's index.
        self.passes: dict = {}
        self.phase = "setup"
        #: host seconds spent in the loop, to keep out of timed set-up.
        self.spent = 0.0
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Sample the loop in proportion to the time since the last tick.

        Called between operations and set-up steps, so the samples are
        spread over each phase as evenly as its operations allow, and their
        median weighs each moment of the phase alike.
        """
        start = time.perf_counter()
        due = max(1, round((start - self._last) * REF_SAMPLES_PER_S))
        passes = self.passes.setdefault(self.phase, [])
        for _ in range(due):
            begin = time.perf_counter()
            reference_loop()
            passes.append(time.perf_counter() - begin)
        self._last = time.perf_counter()
        self.spent += self._last - start

    def to_reference(self, host_seconds: float, phase) -> float:
        return host_seconds / (statistics.median(self.passes[phase])
                               * REF_PASSES_PER_S)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plan(workload, seconds: float, plan=None, rec=None, host=None):
    """Run whole rounds until ``seconds`` have passed (or replay ``plan``).

    Returns ``(op, result, host seconds, round)`` records.  An operation that
    raises is recorded with the exception as its result, to be counted as
    a failed operation; the run goes on.  With a span recorder ``rec``,
    each operation is a ``harness.cell`` span; with a ``HostSpeed``
    ``host``, the reference loop is sampled between operations.
    """
    records = []

    def run(op, index):
        if host is not None:
            host.phase = index
            host.tick()
        start = time.perf_counter()
        with rec.span("harness.cell") if rec else contextlib.nullcontext():
            try:
                result = workload.run_op(op)
            except Exception as error:  # noqa: BLE001 - counted as failed
                result = error
        records.append((op, result, time.perf_counter() - start, index))

    if plan is None:
        start = time.perf_counter()
        index = 0
        while time.perf_counter() - start < seconds:
            for op in workload.round(index):
                run(op, index)
            index += 1
    else:
        for op in plan:
            run(op, 0)
    return records


def check_all(workload, records, failures) -> int:
    failed = 0
    for op, result, *_ in records:
        if isinstance(result, Exception):
            failures.check(False, f"{op}: raised {result!r}")
            failed += 1
        elif not workload.check(op, result, failures):
            failed += 1
    return failed


def median_round(workload, records) -> tuple[int, float, float]:
    """(operations, uops, seconds) of one median round.

    Operations that recur across rounds (the same window, the same
    contention cell) are grouped, and each group contributes its median
    host time and median uops, so a burst of host noise during one round
    does not move the result; operations that run once count as measured.
    """
    groups: dict = {}
    for op, result, seconds, _round in records:
        if isinstance(result, Exception):
            continue
        groups.setdefault(workload.key(op), []).append(
            (workload.uops(result), seconds))
    uops = sum(statistics.median(u for u, _s in runs)
               for runs in groups.values())
    seconds = sum(statistics.median(s for _u, s in runs)
                  for runs in groups.values())
    return len(groups), uops, seconds


def measure(cases, name: str, seed: int, seconds: float):
    """The untraced run: end-to-end metrics, attempted and failed ops.

    Times are in reference seconds; ``cells_per_s`` and
    ``sim_uops_per_s`` are per reference second.
    """
    workload = cases.WORKLOADS[name](seed, cases.load_pins())
    host = HostSpeed()
    setups = []
    for _ in range(workload.setup_repeats):
        host.tick()
        spent = host.spent
        start = time.perf_counter()
        workload.setup(host.tick)
        setups.append(time.perf_counter() - start - (host.spent - spent))
    records = run_plan(workload, seconds, host=host)
    host.tick()
    failures = cases.Failures()
    failed = check_all(workload, records, failures)
    setup = statistics.median(setups)
    ops, uops, busy = median_round(workload, records)
    passes = [p for phase in host.passes.values() for p in phase]
    print(f"host seconds: round {busy:.6g} s, setup {setup:.6g} s; "
          f"reference loop median {statistics.median(passes):.6g} s "
          f"over {len(passes)} passes")
    ops, uops, busy = median_round(workload, [
        (op, result, host.to_reference(seconds, index), index)
        for op, result, seconds, index in records])
    metrics = {
        "cells_per_s": (ops / busy, "1/s"),
        "sim_uops_per_s": (uops / busy, "uops/s"),
        "setup_s": (host.to_reference(setup, "setup"), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, len(records), failed, failures.notes


def measure_traced(cases, spans, name: str, seed: int):
    """One round traced, then the same round untraced: per-layer metrics.

    The untraced pass replays the round on the state the traced set-up
    built (in ``steady`` the same VMs, whose repeated windows do identical
    work), so traced minus untraced round time is the tracing overhead.
    """
    failures = cases.Failures()
    rec = spans.Recorder()
    origin = time.perf_counter_ns()
    with spans.instrument(rec):
        extra = {"tracer": rec} if name == "steady" else {}
        workload = cases.WORKLOADS[name](seed, cases.load_pins(), **extra)
        with rec.span("bench.setup"):
            workload.setup()
        plan = workload.round(0)
        start = time.perf_counter()
        records = run_plan(workload, 0.0, plan=plan, rec=rec)
        traced_round = time.perf_counter() - start
        with rec.span("bench.check"):
            failed = check_all(workload, records, failures)
    traced_end = time.perf_counter_ns()

    if extra:
        workload.tracer = None  # no untimed twins in the untraced pass
    start = time.perf_counter()
    untraced = run_plan(workload, 0.0, plan=plan)
    untraced_round = time.perf_counter() - start
    failed += check_all(workload, untraced, failures)
    attempted = len(records) + len(untraced)

    traced_wall = (traced_end - origin) / 1e9
    total, own, calls = rec.totals()
    twin_s = total.get("bench.twin_window", 0.0)
    counts = rec.counts
    cells = ([result for _op, result, *_ in records
              if not isinstance(result, Exception)]
             if name == "contention" else [])
    useful = sum(cell["ops"] for cell in cells)
    attempts = useful + sum(cell["retries"] for cell in cells)
    entered = counts["hw.regions_entered"]
    warm_s = total.get("runtime.warm_up", 0.0)
    window_s = total.get("hw.window", 0.0)
    functional_s = total.get("hw.window_untimed", 0.0)

    def seconds_of(span_name):
        return (total.get(span_name, 0.0), "s")

    metrics = {
        "runtime.warm_up_s": (warm_s, "s"),
        "runtime.bytecodes": (counts["runtime.bytecodes"], "count"),
        "runtime.bytecodes_per_s": (
            counts["runtime.bytecodes"] / warm_s if warm_s else 0.0, "1/s"),
        "vm.compile_s": seconds_of("vm.compile"),
        "vm.methods_compiled": (counts["vm.methods_compiled"], "count"),
        "ir.build_s": seconds_of("ir.build"),
        "opt.inline_s": seconds_of("opt.inline"),
        "atomic.formation_s": seconds_of("atomic.formation"),
        "opt.optimize_s": seconds_of("opt.optimize"),
        "atomic.sle_s": seconds_of("atomic.sle"),
        "hw.codegen_s": seconds_of("hw.codegen"),
        "hw.prepare_s": seconds_of("hw.prepare"),
        "hw.prepare_calls": (counts["hw.prepare_calls"], "count"),
        "hw.window_s": (window_s, "s"),
        "hw.uops_retired": (counts["hw.uops_retired"], "count"),
        "hw.timing_s": (window_s - functional_s if functional_s else 0.0, "s"),
        "hw.functional_s": (functional_s, "s"),
        "hw.regions_entered": (entered, "count"),
        "hw.region_commit_ratio": (
            counts["hw.regions_committed"] / entered if entered else 0.0,
            "ratio"),
        "runtime.run_threads_s": seconds_of("runtime.run_threads"),
        "runtime.sched_steps": (counts["runtime.sched_steps"], "count"),
        "runtime.context_switches": (
            counts["runtime.context_switches"], "count"),
        "harness.oracle_s": (own.get("harness.oracle", 0.0), "s"),
        "hw.atomic_useful_ratio": (
            useful / attempts if attempts else 0.0, "ratio"),
        "workloads.build_s": seconds_of("workloads.build"),
        "vm.init_s": seconds_of("vm.init"),
        "harness.cell_self_s": (own.get("harness.cell", 0.0), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.round_s": (traced_round - twin_s, "s"),
        "trace.untraced_round_s": (untraced_round, "s"),
        "trace.overhead_s": (traced_round - twin_s - untraced_round, "s"),
        "trace.uncovered_share": (
            1.0 - rec.covered_s(origin, traced_end) / traced_wall, "ratio"),
        "trace.spans": (len(rec.spans), "count"),
    }

    path = rec.dump_chrome(str(OUT_DIR / f"{name}-seed{seed}.trace.json"),
                           origin)
    print(f"spans: {len(rec.spans)} written to {path}")
    print(f"{'span':<24}{'calls':>8}{'total_s':>10}{'self_s':>10}"
          f"{'self%':>8}")
    for span_name in sorted(own, key=own.get, reverse=True):
        print(f"{span_name:<24}{calls[span_name]:>8}"
              f"{total[span_name]:>10.3f}{own[span_name]:>10.3f}"
              f"{100 * own[span_name] / traced_wall:>7.1f}%")
    return metrics, attempted, failed, failures.notes


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("figures", "steady", "contention"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="regenerate perfbench/pins.json and exit")
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if not prepare_environment():
        return 2

    import cases
    import spans

    if args.pin:
        pins = cases.make_pins(git_commit())
        with open(cases.PINS_PATH, "w", encoding="utf-8") as handle:
            json.dump(pins, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"pinned {len(pins['cells'])} cells to {cases.PINS_PATH}")
        return 0

    if args.trace:
        metrics, attempted, failed, notes = measure_traced(
            cases, spans, args.workload, args.seed)
    else:
        metrics, attempted, failed, notes = measure(
            cases, args.workload, args.seed, args.seconds)
    for note in notes:
        print(f"FAILED {note}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:<26} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
