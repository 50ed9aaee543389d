"""The benchmark's three workloads and the pinned references they check.

Each workload turns the seed into a plan of operations, runs them through
public ``repro`` calls, and checks every result afterwards:

- ``figures``: rounds of registry cells from
  ``repro.harness.parallel.figure_cells()``, two per benchmark per round,
  each computed cold by ``compute_cell``;
- ``steady``: the paper's measured windows (``start_measurement`` ->
  ``measure_args`` -> ``end_measurement``) on VMs warmed and compiled in
  set-up, repeated with timing on;
- ``contention``: the (scenario, primitive, threads) matrix through
  ``run_contention_cell``, the seed choosing the scheduler seeds.

See README.md for why each was chosen and which layers it drives.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.harness import experiment
from repro.harness.figures import (
    BENCH_ORDER,
    CONTENTION_PRIMITIVES,
    run_contention_cell,
)
from repro.harness.parallel import compute_cell, figure_cells
from repro.hw.config import BASELINE_4WIDE
from repro.lang.validate import validate_program
from repro.runtime.interpreter import Interpreter
from repro.vm.compiler import ATOMIC_AGGRESSIVE, NO_ATOMIC
from repro.vm.vm import TieredVM, VMOptions
from repro.workloads import SCENARIOS, contention_workload, get_workload

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: the thread axis of the contention matrix.
CONTENTION_THREADS = (2, 8, 16)
#: compiler configs whose 4-wide windows the steady workload repeats.
STEADY_CONFIGS = (NO_ATOMIC, ATOMIC_AGGRESSIVE)


def digest(value) -> str:
    """Short content digest of a JSON-able value (sorted keys)."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cell_id(workload: str, compiler: str, hardware: str,
            force_monomorphic: bool = False) -> str:
    return f"{workload}/{compiler}/{hardware}" + (
        "/mono" if force_monomorphic else "")


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def oracle_results(bench: str) -> list[list]:
    """Tier-0 ``Interpreter`` guest results for every sample of ``bench``.

    Independent of the compiler and machine under test: a fresh
    interpreter runs the sample's warm-up calls, then its measured calls.
    """
    workload = get_workload(bench)
    per_sample = []
    for sample in workload.samples:
        program = workload.build()
        interp = Interpreter(program)
        method = program.resolve_static(workload.entry)
        for args in sample.warm_args:
            interp.invoke(method, list(args))
        per_sample.append([interp.invoke(method, list(args))
                           for args in sample.measure_args])
    return per_sample


class Failures:
    """Mismatches found while checking, one entry per failed operation."""

    def __init__(self) -> None:
        self.notes: list[str] = []

    def check(self, ok: bool, note: str) -> bool:
        if not ok:
            self.notes.append(note)
        return ok


# -- figures ------------------------------------------------------------------

class Figures:
    """Cold registry cells: each round takes two cells per benchmark.

    The registry holds, per benchmark, five ``atomic+aggr-inline`` cells
    (Figure 9 and the 2-wide variants) and five or six others.  A round
    draws one cell from each of the two groups, without replacement
    across rounds, so every round has the registry's mix of compiler
    work, and of peak memory (the ``atomic+aggr-inline`` jython cells
    are the largest), whatever the seed.
    """

    name = "figures"
    setup_repeats = 20

    def __init__(self, seed: int, pins: dict) -> None:
        self.pins = pins
        self._rng = random.Random(seed)
        self._strata = []
        for bench in BENCH_ORDER:
            cells = figure_cells([bench])
            for aggressive in (True, False):
                stratum = [
                    c for c in cells
                    if (c.compiler == ATOMIC_AGGRESSIVE.name) == aggressive]
                self._rng.shuffle(stratum)
                self._strata.append(stratum)

    def setup(self, tick=None) -> None:
        """Resolve the cell registry and build + validate every program.

        ``tick``, if given, is called between set-up steps (every
        workload's ``setup`` takes it; ``run.HostSpeed`` samples there).
        """
        figure_cells()
        for bench in BENCH_ORDER:
            validate_program(get_workload(bench).build())
            if tick:
                tick()

    def round(self, index: int) -> list:
        cells = [stratum[index % len(stratum)] for stratum in self._strata]
        self._rng.shuffle(cells)
        return cells

    @staticmethod
    def key(cell):
        return cell

    def run_op(self, cell):
        experiment.clear_cache()
        _key, result = compute_cell(cell)
        return result

    @staticmethod
    def uops(result) -> int:
        return sum(s.stats.uops_retired for s in result.samples)

    def check(self, cell, result, failures: Failures) -> bool:
        ident = cell_id(cell.workload, cell.compiler, cell.hardware,
                        cell.force_monomorphic)
        want = self.pins["cells"].get(ident)
        got = [digest(s.stats.summary()) for s in result.samples]
        ok = failures.check(want == got, f"{ident}: stats digests {got} "
                            f"!= pinned {want}")
        oracle = self.pins["oracle"][cell.workload]
        got = [digest(s.guest_results) for s in result.samples]
        return failures.check(oracle == got, f"{ident}: guest results {got} "
                              f"!= tier-0 oracle {oracle}") and ok


# -- steady -------------------------------------------------------------------

class Window:
    """One warmed, compiled VM whose measured window is repeated."""

    def __init__(self, bench: str, index: int, config, timing: bool) -> None:
        workload = get_workload(bench)
        self.bench = bench
        self.index = index
        self.ident = cell_id(bench, config.name, BASELINE_4WIDE.name)
        self.entry = workload.entry
        sample = workload.samples[index]
        self.measure_args = sample.measure_args
        self.vm = TieredVM(
            workload.build(),
            compiler_config=config,
            hw_config=BASELINE_4WIDE,
            options=VMOptions(enable_timing=timing, compile_threshold=3),
        )
        self.vm.warm_up(workload.entry, [list(a) for a in sample.warm_args])
        self.vm.compile_hot(min_invocations=1)
        self.reps = 0

    def measure(self):
        vm = self.vm
        vm.start_measurement()
        results = [vm.run(self.entry, list(args))
                   for args in self.measure_args]
        stats = vm.end_measurement()
        self.reps += 1
        return self.reps - 1, results, stats


class Steady:
    """Measured windows only; warm-up and compilation happen in set-up."""

    name = "steady"
    setup_repeats = 1

    def __init__(self, seed: int, pins: dict, tracer=None) -> None:
        self.pins = pins
        self._rng = random.Random(seed)
        #: traced runs pair each window with an untimed twin VM, so the
        #: timing model's share is measured, not inferred.
        self.tracer = tracer
        self.windows: list[Window] = []
        self.twin_windows: list[Window] = []
        self._first: dict[int, tuple] = {}

    def setup(self, tick=None) -> None:
        self.windows = []
        self.twin_windows = []
        self._first = {}
        specs = [(bench, index, config)
                 for bench in BENCH_ORDER
                 for index in range(len(get_workload(bench).samples))
                 for config in STEADY_CONFIGS]
        for spec in specs:
            self.windows.append(Window(*spec, timing=True))
            if tick:
                tick()
        if self.tracer is not None:
            with self.tracer.span("bench.twin_setup"):
                self.twin_windows = [Window(*spec, timing=False)
                                     for spec in specs]

    def round(self, _index: int) -> list[int]:
        order = list(range(len(self.windows)))
        self._rng.shuffle(order)
        return order

    @staticmethod
    def key(position: int) -> int:
        return position

    def run_op(self, position: int):
        rep, results, stats = self.windows[position].measure()
        twin = None
        if self.tracer is not None:
            with self.tracer.span("bench.twin_window"):
                _rep, twin_results, twin_stats = (
                    self.twin_windows[position].measure())
            twin = (twin_results, twin_stats.uops_retired)
        return rep, results, stats, twin

    @staticmethod
    def uops(record) -> int:
        return record[2].uops_retired

    def check(self, position: int, record, failures: Failures) -> bool:
        rep, results, stats, twin = record
        window = self.windows[position]
        label = f"{window.ident}#{window.index} rep {rep}"
        oracle = self.pins["oracle"][window.bench][window.index]
        ok = failures.check(digest(results) == oracle,
                            f"{label}: guest results != tier-0 oracle")
        if rep == 0:
            pinned = self.pins["cells"][window.ident][window.index]
            ok = failures.check(
                digest(stats.summary()) == pinned,
                f"{label}: stats digest != pinned {pinned}") and ok
            self._first[position] = (results, stats.uops_retired)
        else:
            ok = failures.check(
                (results, stats.uops_retired) == self._first.get(position),
                f"{label}: differs from rep 0") and ok
        if twin is not None:
            ok = failures.check(
                twin == (results, stats.uops_retired),
                f"{label}: untimed twin differs from timed window") and ok
        return ok


# -- contention ---------------------------------------------------------------

class Contention:
    """The oracle-checked contention matrix under seeded schedules."""

    name = "contention"
    setup_repeats = 20

    def __init__(self, seed: int, pins: dict) -> None:
        self._rng = random.Random(seed)
        self.cells = [(scenario, primitive, threads)
                      for scenario in SCENARIOS
                      for primitive in CONTENTION_PRIMITIVES
                      for threads in CONTENTION_THREADS]

    def setup(self, tick=None) -> None:
        """Build and validate every program of the matrix."""
        for scenario, primitive, threads in self.cells:
            guest = "lock" if primitive == "lock-sle" else primitive
            validate_program(
                contention_workload(scenario, guest, threads).build())
        if tick:
            tick()

    def round(self, _index: int) -> list[tuple]:
        sched_seed = self._rng.randrange(1 << 31)
        ops = [cell + (sched_seed,) for cell in self.cells]
        self._rng.shuffle(ops)
        return ops

    @staticmethod
    def key(op: tuple) -> tuple:
        return op[:3]

    def run_op(self, op: tuple) -> dict:
        scenario, primitive, threads, sched_seed = op
        return run_contention_cell(scenario, primitive, threads,
                                   seed=sched_seed)

    @staticmethod
    def uops(cell: dict) -> int:
        return cell["steps"]

    def check(self, op, cell: dict, failures: Failures) -> bool:
        return failures.check(bool(cell["oracle_ok"]),
                              f"{op}: serializability oracle failed")


WORKLOADS = {cls.name: cls for cls in (Figures, Steady, Contention)}


# -- pins ---------------------------------------------------------------------

def make_pins(commit: str) -> dict:
    """Reference digests for every cell any seed can draw.

    ``cells`` maps each registry cell of ``figure_cells()`` to the
    per-sample digests of ``ExecStats.summary()``; the steady windows are
    the samples of the ``no-atomic`` and ``atomic+aggr-inline`` 4-wide
    cells, so they share these entries.  ``oracle`` maps each benchmark
    to per-sample digests of the tier-0 interpreter's guest results.
    """
    cells = {}
    for cell in figure_cells():
        experiment.clear_cache()
        _key, result = compute_cell(cell)
        ident = cell_id(cell.workload, cell.compiler, cell.hardware,
                        cell.force_monomorphic)
        cells[ident] = [digest(s.stats.summary()) for s in result.samples]
    oracle = {bench: [digest(r) for r in oracle_results(bench)]
              for bench in BENCH_ORDER}
    return {
        "about": (
            "ExecStats.summary() digests per registry cell and sample, and "
            "tier-0 Interpreter guest-result digests per benchmark sample. "
            "Every cell any --seed can draw is pinned, so the pins do not "
            "depend on a seed; seeds_used_for_tuning lists the seeds run "
            "while the benchmark was built, so later claims can be "
            "re-checked on a held-out seed."),
        "commit": commit,
        "seeds_used_for_tuning": list(range(1, 11)),
        "cells": cells,
        "oracle": oracle,
    }
