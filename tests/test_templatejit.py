"""Template-JIT suite: generative equivalence battery, golden source,
cache-eviction and fallback regressions.

The fused tier's contract is *observational inertness*: for any installed
code, any heap, and any hardware shape, running under ``dispatch="jit"``
must be byte-identical — outcome, ``ExecStats.summary()``, heap
fingerprint — to the instrumented interpretive loop.  The battery here
attacks that contract with randomly generated straight-line uop programs
(:mod:`repro.testutil.uopgen`) whose operands deliberately wander off the
fused templates' happy paths, so every bail edge re-lands in the handler
tier mid-program.

The golden test pins the *generated host source* for a hand-built region
that exercises every fused template: an emitter change that silently
reorders counter flushes or drops a read-set insert fails here first.
Regenerate intentionally with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_templatejit.py
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan
from repro.hw import templatejit
from repro.hw.config import BASELINE_4WIDE
from repro.hw.isa import CompiledMethod, MInstr, MOp
from repro.hw.machine import Machine
from repro.hw.stats import ExecStats
from repro.hw.templatejit import (
    fused_runs,
    get_jitted,
    jit_profile,
    jit_source,
)
from repro.obs.tracer import Tracer
from repro.runtime.heap import Heap
from repro.testutil.uopgen import run_uop_case, uop_case
from repro.vm import ATOMIC, TieredVM, VMOptions
from repro.workloads import get_workload

GOLDEN_DIR = Path(__file__).parent / "golden"

#: a regioned seed whose region commits under speculation (returns 1)
#: and whose recovery sentinel is distinct (-1102) — the pair makes
#: region-disable visible in the return value alone.
COMMITTING_REGION_SEED = 102
DISABLED_SENTINEL = -1102

#: HTM shapes whose fused code *differs* (fallback-begin emits a lock
#: check, store_buffer emits a store bound, cache_shaped emits overflow
#: tracking, setjmp changes abort delivery at re-landed begins).
JIT_HTM_MATRIX = [
    BASELINE_4WIDE,
    BASELINE_4WIDE.scaled(name="jit-rock", htm_mode="store_buffer",
                          spec_store_buffer_entries=2),
    BASELINE_4WIDE.scaled(name="jit-cache", htm_mode="cache_shaped"),
    BASELINE_4WIDE.scaled(name="jit-lock-begin", htm_mode="store_buffer",
                          spec_store_buffer_entries=2,
                          fallback_lock_mode="begin"),
    BASELINE_4WIDE.scaled(name="jit-setjmp", htm_mode="store_buffer",
                          spec_store_buffer_entries=2,
                          abort_delivery="setjmp"),
]


def _assert_tiers_agree(seed: int, timing: bool = False,
                        hw=BASELINE_4WIDE) -> None:
    case = uop_case(seed)
    base = run_uop_case(case, "interpretive", timing=timing, hw=hw)
    for tier in ("predecoded", "jit"):
        got = run_uop_case(case, tier, timing=timing, hw=hw)
        assert got == base, (
            f"seed {seed} ({hw.name}, timed={timing}): {tier} diverged\n"
            f"  {tier}: {got[0]}\n  interpretive: {base[0]}"
        )


class TestGenerativeEquivalence:
    """Satellite battery: random straight-line uop programs, three tiers,
    byte-identical outcome + stats + heap fingerprint."""

    @pytest.mark.parametrize("seed", range(60))
    def test_fixed_seeds_untimed(self, seed):
        _assert_tiers_agree(seed, timing=False)

    @pytest.mark.parametrize("seed", range(30))
    def test_fixed_seeds_timed(self, seed):
        _assert_tiers_agree(seed, timing=True)

    @pytest.mark.parametrize("hw", JIT_HTM_MATRIX[1:], ids=lambda h: h.name)
    def test_fixed_seeds_tight_htm(self, hw):
        for seed in range(20):
            _assert_tiers_agree(seed, timing=False, hw=hw)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_seeds(self, seed):
        _assert_tiers_agree(seed, timing=False)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_seeds_timed(self, seed):
        _assert_tiers_agree(seed, timing=True)

    def test_battery_reaches_every_outcome_class(self):
        """The generator must keep producing committed values, guest
        traps, *and* host-level type errors — a drift toward all-fatal
        (or all-clean) programs would quietly hollow out the battery."""
        kinds = set()
        for seed in range(200):
            outcome, _, _ = run_uop_case(uop_case(seed), "jit")
            kinds.add(outcome[0] if outcome[0] == "value" else outcome[1])
        assert "value" in kinds
        assert any(k.startswith("Guest") or k in
                   ("NullPointerError", "BoundsError") for k in kinds)
        assert "VMError" in kinds or "TypeError" in kinds


# -- golden generated source -------------------------------------------------

def _golden_method() -> CompiledMethod:
    """A hand-built method exercising every fused template exactly once,
    split across an unfused boundary (the AREGION uops) so the source
    shows both a plain run and a regioned run."""
    instrs = [
        # run 1: plain straight-line code up to the region begin.
        MInstr(MOp.CONST, dst=0, imm=7),
        MInstr(MOp.CONST_NULL, dst=1),
        MInstr(MOp.MOV, dst=2, a=0),
        MInstr(MOp.ADD, dst=2, a=2, b=0),
        MInstr(MOp.SUB, dst=3, a=2, b=0),
        MInstr(MOp.MUL, dst=3, a=3, b=3),
        MInstr(MOp.DIV, dst=4, a=3, b=0),
        MInstr(MOp.MOD, dst=4, a=3, b=0),
        MInstr(MOp.AND, dst=5, a=3, b=4),
        MInstr(MOp.OR, dst=5, a=5, b=0),
        MInstr(MOp.XOR, dst=5, a=5, b=2),
        MInstr(MOp.SHL, dst=6, a=0, b=2),
        MInstr(MOp.SHR, dst=6, a=6, b=0),
        MInstr(MOp.BR_TRAP, cond="ge", a=6, b=None),
        MInstr(MOp.AREGION_BEGIN, imm=1, target=27),
        # run 2: the speculative body — memory traffic of every kind.
        MInstr(MOp.NEWOBJ, dst=7, cls="Node"),
        MInstr(MOp.STOREF, a=7, b=0, fieldname="f0"),
        MInstr(MOp.LOADF, dst=8, a=7, fieldname="f0"),
        MInstr(MOp.CONST, dst=9, imm=2),
        MInstr(MOp.NEWARR, dst=10, a=9),
        MInstr(MOp.CONST, dst=11, imm=0),
        MInstr(MOp.STOREA, a=10, b=11, c=8),
        MInstr(MOp.LOADA, dst=8, a=10, b=11),
        MInstr(MOp.LOADLEN, dst=9, a=10),
        MInstr(MOp.LOADLOCK, dst=9, a=7),
        MInstr(MOp.CLASSOF, dst=9, a=7),
        MInstr(MOp.AREGION_END),
        # pc 27: shared tail (also the abort recovery target).
        MInstr(MOp.STORESPILL, a=8, imm=0),
        MInstr(MOp.LOADSPILL, dst=8, imm=0),
        MInstr(MOp.LOADG, dst=9, imm=0x7000),
        MInstr(MOp.BR_TRAP, cond="eq", a=8, b=1),
        MInstr(MOp.RET, a=8),
    ]
    compiled = CompiledMethod(
        name="golden_region", num_params=0, instrs=instrs,
        num_regs=12, num_spill_slots=1,
        region_entries={1: 14}, uses_regions=True,
    )
    compiled.param_locations = ()
    return compiled


class TestGoldenSource:
    def _profile(self):
        # The profile depends only on the hardware config, not the guest
        # program, so any machine on BASELINE_4WIDE yields the golden key.
        machine = Machine(uop_case(0).program, Heap(),
                          config=BASELINE_4WIDE, stats=ExecStats())
        return jit_profile(machine)

    def test_generated_source_matches_golden(self):
        source = jit_source(_golden_method(), self._profile())
        path = GOLDEN_DIR / "templatejit_source.txt"
        if os.environ.get("REGEN_GOLDEN"):
            path.write_text(source)
            pytest.skip(f"regenerated {path}")
        assert path.exists(), (
            f"missing golden file {path}; run with REGEN_GOLDEN=1 to "
            "create it"
        )
        assert source == path.read_text(), (
            "generated template-jit source changed; if the emitter change "
            "is intentional, regenerate with REGEN_GOLDEN=1 and re-run the "
            "full differential battery"
        )

    def test_golden_method_fully_fused(self):
        """The golden method must stay wall-to-wall fusable apart from
        the region uops and the RET — otherwise the golden file stops
        pinning the templates it claims to pin."""
        compiled = _golden_method()
        runs = fused_runs(compiled)
        fused = sum(end - start for start, end in runs)
        # all but AREGION_BEGIN / AREGION_END / RET
        assert fused == len(compiled.instrs) - 3

    def test_golden_source_is_compilable_python(self):
        source = jit_source(_golden_method(), self._profile())
        compile(source, "<golden>", "exec")


# -- cache eviction / invalidation -------------------------------------------

class TestCacheEviction:
    def test_disable_region_evicts_fused_code(self):
        case = uop_case(COMMITTING_REGION_SEED)
        outcome, _, _ = run_uop_case(case, "jit")
        assert outcome == ("value", 1)
        jitted_before = case.compiled._jitted
        assert jitted_before is not None
        case.compiled.disable_region(1)
        assert case.compiled._jitted is None, (
            "disable_region must drop the fused-function cache: the patch "
            "changes what aregion_begin does"
        )
        assert case.compiled._predecoded is None
        # The rebuilt fused code takes the permanent fallback path —
        # and still agrees with the interpretive loop on the patched code.
        for timing in (False, True):
            patched = run_uop_case(case, "jit", timing=timing)
            assert patched[0] == ("value", DISABLED_SENTINEL)
            assert patched == run_uop_case(case, "interpretive",
                                           timing=timing)
        assert case.compiled._jitted is not jitted_before

    def test_invalidate_predecode_drops_both_caches(self):
        case = uop_case(COMMITTING_REGION_SEED)
        run_uop_case(case, "predecoded")
        run_uop_case(case, "jit")
        assert case.compiled._predecoded is not None
        assert case.compiled._jitted is not None
        case.compiled.invalidate_predecode()
        assert case.compiled._predecoded is None
        assert case.compiled._jitted is None

    def test_profile_change_rebuilds_fused_code(self):
        """A machine with a different specialisation key (HTM shape,
        fallback mode, line size) must never reuse fused code built for
        another machine's key."""
        case = uop_case(COMMITTING_REGION_SEED)
        compiled, program = case.compiled, case.program
        mach_a = Machine(program, Heap(), config=BASELINE_4WIDE,
                         stats=ExecStats(), dispatch="jit")
        jm_a = get_jitted(compiled, mach_a)
        assert get_jitted(compiled, mach_a) is jm_a
        hw_b = BASELINE_4WIDE.scaled(name="evict-b",
                                     htm_mode="store_buffer",
                                     spec_store_buffer_entries=2,
                                     fallback_lock_mode="begin")
        mach_b = Machine(program, Heap(), config=hw_b,
                         stats=ExecStats(), dispatch="jit")
        jm_b = get_jitted(compiled, mach_b)
        assert jm_b is not jm_a
        assert jm_b.profile != jm_a.profile

    def test_variants_compile_lazily(self):
        """Only the timing variant a machine actually uses is host-
        compiled; the other stays unbuilt until first use."""
        case = uop_case(COMMITTING_REGION_SEED)
        mach = Machine(case.program, Heap(), config=BASELINE_4WIDE,
                       stats=ExecStats(), dispatch="jit")
        jm = get_jitted(case.compiled, mach)
        assert jm._tables == [None, None]
        untimed = jm.table(False)
        assert jm._tables[0] is untimed and jm._tables[1] is None
        assert jm.table(False) is untimed  # cached, not rebuilt
        timed = jm.table(True)
        assert timed is not untimed


# -- code memo ------------------------------------------------------------------

def _fused(table: list, compiled: CompiledMethod) -> list:
    """The fused-run functions of one dispatch table."""
    return [table[start] for start, _end in fused_runs(compiled)]


def _jit_vm(workload):
    """A jit-dispatch VM of sample 0, warmed and compiled."""
    vm = TieredVM(workload.build(), compiler_config=ATOMIC,
                  options=VMOptions(compile_threshold=3, dispatch="jit"))
    sample = workload.samples[0]
    vm.warm_up(workload.entry, [list(a) for a in sample.warm_args])
    vm.compile_hot(min_invocations=1)
    return vm


class TestCodeMemo:
    """JIT code objects are memoized by the digest of their source; only
    the code is shared, never the functions or their globals."""

    def test_two_vms_share_code_not_functions(self):
        workload = get_workload("hsqldb")
        vm_a, vm_b = _jit_vm(workload), _jit_vm(workload)
        shared = 0
        for name, record in vm_a.compiled.items():
            code_a = record.compiled
            code_b = vm_b.compiled[name].compiled
            table_a = code_a._jitted.table(True)
            table_b = code_b._jitted.table(True)
            for fn_a, fn_b in zip(_fused(table_a, code_a),
                                  _fused(table_b, code_b)):
                assert fn_a.__code__ is fn_b.__code__
                assert fn_a is not fn_b
                assert fn_a.__globals__ is not fn_b.__globals__
                assert fn_a.__globals__["H"] is code_a._predecoded.handlers
                assert fn_b.__globals__["H"] is code_b._predecoded.handlers
                shared += 1
        assert shared > 0

    def test_key_covers_profile_and_immediates(self):
        """A memo keyed by method name would hand back stale code here:
        the name is the same, the emitted constants are not."""
        case = uop_case(COMMITTING_REGION_SEED)
        machine = Machine(case.program, Heap(), config=BASELINE_4WIDE,
                          stats=ExecStats(), dispatch="jit")
        start = fused_runs(case.compiled)[0][0]
        code = get_jitted(case.compiled, machine).table(False)[start].__code__

        wide_lines = BASELINE_4WIDE.scaled(
            name="memo-lines",
            l1_config=replace(BASELINE_4WIDE.l1_config, line_bytes=128))
        other = uop_case(COMMITTING_REGION_SEED)
        wide = Machine(other.program, Heap(), config=wide_lines,
                       stats=ExecStats(), dispatch="jit")
        assert wide._jit_profile.line_shift != machine._jit_profile.line_shift
        assert (get_jitted(other.compiled, wide).table(False)[start].__code__
                is not code)

        plain, bumped = _golden_method(), _golden_method()
        start, const = next(
            (run_start, instr)
            for run_start, run_end in fused_runs(bumped)
            for instr in bumped.instrs[run_start:run_end]
            if instr.op is MOp.CONST)
        const.imm += 1
        assert (get_jitted(bumped, machine).table(False)[start].__code__
                is not get_jitted(plain, machine).table(False)[start].__code__)

    def test_cap_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(templatejit, "_CODE_MEMO_CAP", 2)
        monkeypatch.setattr(templatejit, "_code_memo", type(
            templatejit._code_memo)())
        code_for = templatejit._code_for
        first = code_for("x = 1\n", "<memo-a>")
        second = code_for("x = 2\n", "<memo-b>")
        assert code_for("x = 1\n", "<memo-a>") is first  # hit: now newest
        code_for("x = 3\n", "<memo-c>")
        assert len(templatejit._code_memo) == 2
        assert code_for("x = 1\n", "<memo-a>") is first
        assert code_for("x = 2\n", "<memo-b>") is not second  # evicted

    def test_concurrent_callers_under_eviction(self, monkeypatch):
        """Threads hitting and evicting the same entries at once must
        each get the code of the source they asked for."""
        monkeypatch.setattr(templatejit, "_CODE_MEMO_CAP", 2)
        monkeypatch.setattr(templatejit, "_code_memo", type(
            templatejit._code_memo)())
        errors: list = []

        def worker(tid: int) -> None:
            try:
                for i in range(300):
                    n = (tid + i) % 5
                    code = templatejit._code_for(f"x = {n}\n",
                                                 f"<memo-{n}>")
                    namespace: dict = {}
                    exec(code, namespace)
                    assert namespace["x"] == n
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(tid,))
                       for tid in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(templatejit._code_memo) <= 2

    def test_disable_region_leaves_other_vm_untouched(self):
        case_a = uop_case(COMMITTING_REGION_SEED)
        case_b = uop_case(COMMITTING_REGION_SEED)
        assert run_uop_case(case_a, "jit")[0] == ("value", 1)
        expected_b = run_uop_case(case_b, "jit")
        assert expected_b[0] == ("value", 1)
        jitted_b = case_b.compiled._jitted
        table_b = jitted_b.table(False)
        functions_b = list(table_b)

        case_a.compiled.disable_region(1)
        patched = run_uop_case(case_a, "jit")
        assert patched[0] == ("value", DISABLED_SENTINEL)
        table_a = case_a.compiled._jitted.table(False)
        start = fused_runs(case_a.compiled)[0][0]
        # The rebuilt fused code may share its code object with B's, but
        # it runs against A's fresh handlers.
        assert (table_a[start].__globals__["H"]
                is case_a.compiled._predecoded.handlers)
        assert case_b.compiled._jitted is jitted_b
        assert jitted_b.table(False) is table_b
        assert table_b == functions_b
        assert table_b[start].__globals__["H"] is jitted_b._handlers
        assert run_uop_case(case_b, "jit") == expected_b


# -- fallback gating ----------------------------------------------------------

class TestJitGating:
    def _machine(self, **kw):
        case = uop_case(0)
        return Machine(case.program, Heap(), config=BASELINE_4WIDE,
                       stats=ExecStats(), **kw)

    def test_jit_mode_knob_gates_auto_dispatch(self):
        on = self._machine(dispatch="auto")
        assert on._jit_tier  # BASELINE_4WIDE has jit_mode="on"
        off_hw = BASELINE_4WIDE.scaled(name="jit-off", jit_mode="off")
        off = Machine(uop_case(0).program, Heap(), config=off_hw,
                      stats=ExecStats(), dispatch="auto")
        assert not off._jit_tier
        forced = Machine(uop_case(0).program, Heap(), config=off_hw,
                         stats=ExecStats(), dispatch="jit")
        assert forced._jit_tier  # explicit dispatch overrides the knob

    def test_fault_injector_disables_fused_tier(self):
        """Per-uop fault probes must stay live: a machine carrying a
        fault injector silently drops from jit to pre-decoded."""
        mach = self._machine(dispatch="jit",
                             fault_injector=FaultInjector(FaultPlan()))
        assert not mach._jit_tier

    def test_traced_run_bypasses_fused_tier_byte_identically(self):
        """A tracer re-routes execution to the instrumented loop; the
        emitted events and the outcome must match a machine that never
        had a fast tier at all."""
        seed = COMMITTING_REGION_SEED
        results = []
        for dispatch in ("jit", "interpretive"):
            case = uop_case(seed)
            heap = Heap()
            stats = ExecStats()
            tracer = Tracer()
            mach = Machine(case.program, heap, config=BASELINE_4WIDE,
                           stats=stats, dispatch=dispatch, tracer=tracer)
            value = mach.execute(case.compiled, case.make_args(heap))
            results.append((value, stats.summary(), heap.fingerprint(),
                            [e.kind for e in tracer.events]))
        assert results[0] == results[1]
        assert "region_commit" in results[0][3]

    def test_prepare_builds_active_tier_cache(self):
        case = uop_case(COMMITTING_REGION_SEED)
        mach = self._machine(dispatch="jit", timing=None)
        mach.prepare(case.compiled)
        jm = case.compiled._jitted
        assert jm is not None
        assert jm._tables[0] is not None  # untimed variant, ready to run
        slow = Machine(uop_case(0).program, Heap(), config=BASELINE_4WIDE,
                       stats=ExecStats(), dispatch="interpretive")
        other = uop_case(1)
        slow.prepare(other.compiled)
        assert other.compiled._jitted is None
        assert other.compiled._predecoded is None
