"""Cycle-exact golden for the timing model, on every dispatch tier.

The golden pins ``repr(cycles)`` and the full ``ExecStats.summary()`` of
sample 0 of every workload, compiled ``no-atomic`` and
``atomic+aggr-inline``, on the 4-wide and 2-wide machines, measured with
the timing model on.  Each case runs on the interpretive, pre-decoded and
template-JIT tiers, and all three must produce the pinned line.

The file also checks the per-uop timing descriptors the timing model
reads (:func:`repro.hw.timing.uop_timing`): every compiled instruction
carries one, it equals a fresh derivation from the instruction's final
fields, and corrupting one of them moves the golden (so the golden
really observes the descriptors).

To regenerate the golden after an *intentional* timing change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_timing_golden.py
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.harness import run_workload
from repro.hw import BASELINE_4WIDE, OOO_2WIDE
from repro.hw.isa import MOp
from repro.hw.timing import uop_timing
from repro.vm import NO_ATOMIC, TieredVM, VMOptions
from repro.vm.compiler import ATOMIC_AGGRESSIVE
from repro.workloads import ALL_WORKLOADS, get_workload

GOLDEN = Path(__file__).parent / "golden" / "timing_cycles.txt"

TIERS = ("interpretive", "predecoded", "jit")
CONFIGS = {c.name: c for c in (NO_ATOMIC, ATOMIC_AGGRESSIVE)}
HARDWARE = {h.name: h for h in (BASELINE_4WIDE, OOO_2WIDE)}
CASES = [
    (w, c, h)
    for w in ALL_WORKLOADS for c in CONFIGS for h in HARDWARE
]


def _case_key(workload: str, config: str, hw: str) -> str:
    return f"{workload} {config} {hw}"


def _line(stats) -> str:
    return (f"cycles={stats.cycles!r} "
            f"summary={json.dumps(stats.summary(), sort_keys=True)}")


def _sample0(workload: str, config: str, hw: str, dispatch: str) -> str:
    base = get_workload(workload)
    first = replace(base, samples=base.samples[:1])
    result = run_workload(first, CONFIGS[config], HARDWARE[hw], timing=True,
                          dispatch=dispatch, use_cache=False,
                          disk_cache=False)
    return _line(result.samples[0].stats)


def _golden() -> dict[str, str]:
    if not GOLDEN.exists():
        return {}
    lines = GOLDEN.read_text().splitlines()
    return dict(line.split(" | ", 1) for line in lines if line)


def _write_golden(entries: dict[str, str]) -> None:
    GOLDEN.write_text("".join(f"{key} | {entries[key]}\n"
                              for key in sorted(entries)))


@pytest.mark.parametrize("workload,config,hw", CASES)
def test_cycles_match_golden_on_every_tier(workload, config, hw):
    lines = {tier: _sample0(workload, config, hw, tier) for tier in TIERS}
    assert len(set(lines.values())) == 1, lines
    key = _case_key(workload, config, hw)
    if os.environ.get("REGEN_GOLDEN"):
        entries = _golden()
        entries[key] = lines["interpretive"]
        _write_golden(entries)
    expected = _golden().get(key)
    assert expected is not None, (
        f"no golden line for {key!r}; run with REGEN_GOLDEN=1 to create it")
    assert lines["interpretive"] == expected


def _measured_vm(workload: str, config: str, hw: str, dispatch: str):
    """A VM of sample 0, warmed and compiled, ready to measure."""
    base = get_workload(workload)
    sample = base.samples[0]
    vm = TieredVM(
        base.build(), compiler_config=CONFIGS[config],
        hw_config=HARDWARE[hw],
        options=VMOptions(enable_timing=True, compile_threshold=3,
                          dispatch=dispatch),
    )
    vm.warm_up(base.entry, [list(a) for a in sample.warm_args])
    vm.compile_hot(min_invocations=1)
    return vm, base.entry, sample


def _measure(vm, entry, sample) -> str:
    vm.start_measurement()
    for args in sample.measure_args:
        vm.run(entry, list(args))
    return _line(vm.end_measurement())


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_every_compiled_uop_has_a_fresh_descriptor(workload):
    vm, entry, sample = _measured_vm(workload, ATOMIC_AGGRESSIVE.name,
                                     BASELINE_4WIDE.name, "jit")
    _measure(vm, entry, sample)
    assert vm.compiled
    for record in vm.compiled.values():
        compiled = record.compiled
        for instr in compiled.instrs:
            assert instr.timing is not None, (compiled.name, instr)
            assert instr.timing == uop_timing(instr), (compiled.name, instr)


@pytest.mark.parametrize("dispatch", TIERS)
def test_dropping_one_source_register_breaks_the_golden(dispatch):
    """Mutation check: the golden observes every descriptor's sources.

    Drop the loaded operand of the first branch in the entry method that
    tests a value loaded from the heap.  The branch then resolves before
    its load completes, its mispredictions cost less, and the pinned
    cycles must move.
    """
    case = ("hsqldb", NO_ATOMIC.name, BASELINE_4WIDE.name)
    expected = _golden()[_case_key(*case)]
    vm, entry, sample = _measured_vm(*case, dispatch)
    assert _measure(vm, entry, sample) == expected

    vm, entry, sample = _measured_vm(*case, dispatch)
    compiled = vm.compiled[entry].compiled
    loaded: set[int] = set()
    victim = None
    for instr in compiled.instrs:
        hit = [r for r in instr.timing.srcs if r in loaded]
        if instr.op is MOp.BR and hit:
            victim = instr
            break
        if instr.op in (MOp.LOADF, MOp.LOADA):
            loaded.add(instr.dst)
        else:
            loaded.discard(instr.dst)
    assert victim is not None
    kept = tuple(r for r in victim.timing.srcs if r != hit[0])
    victim.timing = victim.timing._replace(srcs=kept)
    assert _measure(vm, entry, sample) != expected
