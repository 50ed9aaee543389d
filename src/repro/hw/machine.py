"""Functional machine simulator with checkpoint-based atomic regions.

Implements §3 of the paper: ``aregion_begin`` takes a register checkpoint
and starts buffering stores and tracking the read/write sets; asserts and
hardware conditions (footprint overflow of the best-effort L1 bound,
injected interrupts, injected coherence conflicts, faults) abort the region
— discarding buffered stores, restoring registers, and transferring control
to the alternate PC; ``aregion_end`` commits the buffered stores "at an
instant".  Two architectural registers expose the abort reason and the
aborting instruction's PC to the runtime (here: fields consumed by the
adaptive controller).

Timing is delegated to an optional :class:`repro.hw.timing.TimingModel`
via a per-retired-uop callback; without one the machine runs functionally
(used by fast tests).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from ..faults.injector import FaultInjector, RegionFaultSchedule
from ..obs.tracer import NULL_TRACER
from ..runtime.errors import (
    BoundsError,
    GuestError,
    MonitorStateError,
    NullPointerError,
    VMError,
)
from ..runtime.heap import GuestArray, GuestObject, Heap, Value
from ..runtime.interpreter import compare, guest_div, guest_mod, wrap_int
from ..runtime.locks import FALLBACK_LOCK_ADDRESS, MAIN_THREAD, LockWord
from .codegen import ExecFrame, _trap_error, get_predecoded, machine_compare
from .templatejit import get_jitted, jit_profile
from .config import BASELINE_4WIDE, HardwareConfig
from .isa import (
    ABORT_REASON_CODES,
    HW_ESCALATION_REASONS,
    RETRYABLE_REASONS,
    CompiledMethod,
    MInstr,
    MOp,
)
from .stats import ExecStats, RegionExecution

#: base simulated address for compiled code (pc = code base + index).
CODE_BASE = 0x40_0000
#: simulated address region for spill frames.
SPILL_BASE = 0x2000_0000


@dataclass
class _RegionState:
    """Live state of an in-flight atomic region."""

    region_id: int
    alt_pc: int
    checkpoint_regs: list
    checkpoint_spill: list
    record: RegionExecution
    store_buffer: dict = field(default_factory=dict)   # key -> (target, slot, value)
    read_lines: set = field(default_factory=set)
    write_lines: set = field(default_factory=set)
    lock_log: list = field(default_factory=list)
    conflict_at: int | None = None                     # uop offset to inject conflict
    uops: int = 0
    #: pc of the AREGION_BEGIN instruction (conflict-retry re-entry point).
    begin_pc: int = 0
    #: heap allocator snapshot: speculative allocations roll back on abort.
    heap_mark: tuple | None = None
    #: speculative allocations, retracted individually on abort (other
    #: guest threads may have allocated since the mark).
    allocs: list = field(default_factory=list)
    #: injected region-relative faults armed for this entry.
    faults: RegionFaultSchedule | None = None
    #: (thread, id(compiled), region id): keys the forward-progress counters.
    progress_key: tuple = ()
    #: guest thread executing the region and its scan position in the
    #: scheduler's committed-store log (cross-thread conflict detection).
    owner_tid: int = MAIN_THREAD
    log_index: int = 0
    #: True when the abort was a *genuine* cross-thread conflict (store-set
    #: overlap or a contended monitor), not an injected one.
    real_conflict: bool = False
    #: cache-shaped capacity memo: combined line count at the last per-set
    #: check and its verdict (line sets only grow, so an unchanged count
    #: means the occupancy map is unchanged and the recount can be skipped).
    cap_seen: int = -1
    cap_over: bool = False
    #: which capacity bound tripped: (mode, used, limit) for the tracer.
    capacity_detail: tuple | None = None
    #: owner's LL/SC reservation at region entry (None = none held).  An
    #: abort rewinds the reservation station with the rest of the
    #: speculative state; commit keeps whatever the region established.
    reservation: int | None = None


#: canonical branch-condition semantics live in :mod:`repro.hw.codegen`
#: (shared with the pre-decoded handlers); this alias keeps the slow path's
#: historical spelling.
_machine_compare = machine_compare


class Machine:
    """Executes compiled methods against the shared guest heap."""

    def __init__(
        self,
        program,
        heap: Heap,
        config: HardwareConfig = BASELINE_4WIDE,
        stats: ExecStats | None = None,
        timing=None,
        dispatcher=None,
        conflict_injector: Callable[[RegionExecution], int | None] | None = None,
        interrupt_interval: int | None = None,
        fault_injector: FaultInjector | None = None,
        tracer=None,
        dispatch: str = "auto",
    ) -> None:
        self.program = program
        self.heap = heap
        self.config = config
        self.stats = stats if stats is not None else ExecStats()
        self.timing = timing
        self.dispatcher = dispatcher
        #: region-lifecycle tracer; the null tracer costs one attribute
        #: check per emission site and records nothing.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Back-compat shims: the old ad-hoc hooks fold into one injector.
        if fault_injector is not None and (
            conflict_injector is not None or interrupt_interval is not None
        ):
            raise VMError(
                "pass either fault_injector or the legacy "
                "conflict_injector/interrupt_interval hooks, not both"
            )
        if fault_injector is None and (
            conflict_injector is not None or interrupt_interval is not None
        ):
            fault_injector = FaultInjector.from_legacy(
                conflict_injector, interrupt_interval
            )
        self.fault_injector = fault_injector
        if fault_injector is not None:
            # The injector emits fault_armed/interrupt events on this
            # machine's tracer, timestamped by its retired-uop counter.
            fault_injector.tracer = self.tracer
            fault_injector.clock = lambda: self.uops_executed
        self.conflict_injector = conflict_injector
        self.interrupt_interval = interrupt_interval
        #: uop dispatch strategy: "auto" (the fastest observationally safe
        #: tier — template-jit when ``config.jit_mode == "on"``, else
        #: pre-decoded), "jit" (fused-run dispatch; explicit), "predecoded"
        #: (per-uop handler closures; explicit), or "interpretive" (always
        #: the slow loop).  "fast" is a wire-protocol alias for
        #: "predecoded".  Every fast tier is only taken with no tracer and
        #: no scheduler attached, so traced runs and multi-threaded runs
        #: see the instrumented loop unchanged; jit additionally requires
        #: no fault injector (per-uop fault probes must stay live) and
        #: falls back to pre-decoded dispatch when one is attached.
        if dispatch == "fast":
            dispatch = "predecoded"
        if dispatch not in ("auto", "jit", "predecoded", "interpretive"):
            raise VMError(f"unknown dispatch mode {dispatch!r}")
        self.dispatch = dispatch
        #: whether this machine runs fused template-jit code when the
        #: fast path is reachable at all (see :mod:`repro.hw.templatejit`).
        self._jit_tier = (
            (dispatch == "jit"
             or (dispatch == "auto" and config.jit_mode == "on"))
            and self.fault_injector is None
        )
        #: deterministic guest scheduler (attached by TieredVM.run_threads);
        #: None keeps the machine single-threaded and bit-identical to the
        #: pre-scheduler behaviour.
        self.sched = None
        self._line_shift = config.line_shift
        self._code_bases: dict[int, int] = {}
        #: strong refs to installed code: keys of the per-region progress
        #: counters are id()s, which must never be recycled underneath us.
        self._installed_code: dict[int, CompiledMethod] = {}
        self._next_code_base = CODE_BASE
        self._next_spill_base = SPILL_BASE
        #: architectural abort-diagnosis registers (paper §3.2).
        self.abort_reason_register: str | None = None
        self.abort_pc_register: int | None = None
        #: best-effort HTM shape, precomputed (checked per retired uop).
        self._store_bound = (config.spec_store_buffer_entries
                             if config.htm_mode == "store_buffer" else None)
        self._cache_shaped = config.htm_mode == "cache_shaped"
        self._l1_sets = config.l1_config.num_sets
        self._l1_ways = config.l1_config.ways
        self._fallback_mode = config.fallback_lock_mode
        self._setjmp = config.abort_delivery == "setjmp"
        #: the template-jit specialisation key, computed once — compared
        #: per activation against cached jit forms (see
        #: :func:`repro.hw.templatejit.get_jitted`).
        self._jit_profile = jit_profile(self)
        #: the global hybrid fallback lock and per-thread hold counts; a
        #: recovery pass that escalated holds the lock until control next
        #: reaches an ``aregion_begin`` (or the method returns).
        self.fallback_lock = LockWord()
        self._fallback_holds: Counter = Counter()
        #: setjmp-style delivery: condition code pending at the next
        #: ``aregion_begin``, *per thread* so a context switch between the
        #: abort and the re-landed begin cannot leak the code across tids.
        self._pending_cc: dict[int, int] = {}
        #: architectural condition code the re-landed begin exposes.
        self.condition_code_register = 0
        #: RTM-style handler "arguments": numeric reason code + retry hint.
        self.abort_code_register = 0
        self.abort_retry_hint_register = False
        #: global uop counter (drives interrupt injection).
        self.uops_executed = 0
        #: forward progress: consecutive software-visible aborts per region
        #: (escalates to permanent fallback) and conflict retries in the
        #: current storm (bounded by the retry budget).  Both reset on commit.
        self._abort_streak: Counter = Counter()
        self._conflict_retries: Counter = Counter()

    # -- public ------------------------------------------------------------
    def prepare(self, compiled: CompiledMethod) -> None:
        """Eagerly build the dispatch caches this machine's tier will use.

        Pre-decoding and (especially) template-jit host compilation are
        one-time costs that otherwise land on the first activation —
        which, under the harness's measurement protocol, is *inside* the
        measured window.  The VM calls this at method-install time so
        measured samples run pure steady state.  Purely a warm-up:
        executing without it is observationally identical.  A traced
        machine always runs the interpretive loop, so it builds nothing.
        """
        if self.dispatch == "interpretive" or self.tracer.enabled:
            return
        if self._jit_tier:
            jm = get_jitted(compiled, self)
            jm.table(self.timing is not None)
        else:
            get_predecoded(compiled, self._line_shift)

    def execute(self, compiled: CompiledMethod, args: list[Value]) -> Value:
        if len(args) != compiled.num_params:
            raise VMError(
                f"{compiled.name}: expected {compiled.num_params} args, "
                f"got {len(args)}"
            )
        if (self.dispatch != "interpretive"
                and self.sched is None
                and not self.tracer.enabled):
            if self._jit_tier:
                return self._execute_jit(compiled, args)
            return self._execute_fast(compiled, args)
        code_base = self._code_base(compiled)
        spill_base = self._next_spill_base
        self._next_spill_base += 0x10000

        regs: list[Value] = [0] * compiled.num_regs
        spill: list[Value] = [0] * max(compiled.num_spill_slots, 1)
        for value, loc in zip(args, compiled.param_locations):
            kind, index = loc
            if kind == "r":
                regs[index] = value
            else:
                spill[index] = value

        instrs = compiled.instrs
        pc = 0
        region: _RegionState | None = None
        stats = self.stats
        timing = self.timing
        sched = self.sched
        # This activation runs on exactly one guest thread's host thread, so
        # the tid is constant for the whole frame.
        tid = (sched.current.tid
               if sched is not None and sched.current is not None
               else MAIN_THREAD)

        while True:
            if sched is not None:
                sched.on_step()
            instr = instrs[pc]
            op = instr.op
            self.uops_executed += 1
            stats.uops_retired += 1
            if region is not None:
                region.uops += 1
                region.record.uops += 1
            mem_address = None
            branch_taken: bool | None = None

            try:
                if op is MOp.CONST:
                    regs[instr.dst] = instr.imm
                elif op is MOp.CONST_NULL:
                    regs[instr.dst] = None
                elif op is MOp.CONST_CLASS:
                    regs[instr.dst] = instr.cls
                elif op is MOp.MOV:
                    regs[instr.dst] = regs[instr.a]
                elif op is MOp.ADD:
                    regs[instr.dst] = wrap_int(regs[instr.a] + regs[instr.b])
                elif op is MOp.SUB:
                    regs[instr.dst] = wrap_int(regs[instr.a] - regs[instr.b])
                elif op is MOp.MUL:
                    regs[instr.dst] = wrap_int(regs[instr.a] * regs[instr.b])
                elif op is MOp.DIV:
                    regs[instr.dst] = guest_div(regs[instr.a], regs[instr.b])
                elif op is MOp.MOD:
                    regs[instr.dst] = guest_mod(regs[instr.a], regs[instr.b])
                elif op is MOp.AND:
                    regs[instr.dst] = wrap_int(regs[instr.a] & regs[instr.b])
                elif op is MOp.OR:
                    regs[instr.dst] = wrap_int(regs[instr.a] | regs[instr.b])
                elif op is MOp.XOR:
                    regs[instr.dst] = wrap_int(regs[instr.a] ^ regs[instr.b])
                elif op is MOp.SHL:
                    regs[instr.dst] = wrap_int(regs[instr.a] << (regs[instr.b] & 63))
                elif op is MOp.SHR:
                    regs[instr.dst] = wrap_int(regs[instr.a] >> (regs[instr.b] & 63))
                elif op is MOp.CLASSOF:
                    ref = regs[instr.a]
                    if ref is None:
                        raise NullPointerError("classof null")
                    regs[instr.dst] = (
                        ref.class_name if isinstance(ref, GuestObject) else "[array]"
                    )
                    mem_address = ref.base
                    self._track_read(region, ref.base)
                elif op is MOp.LOADF:
                    obj = self._require(regs[instr.a], GuestObject)
                    slot = obj.field_index[instr.fieldname]
                    mem_address = obj.base + 16 + slot * 8
                    self._track_read(region, mem_address)
                    regs[instr.dst] = self._read_field(region, obj, slot)
                elif op is MOp.STOREF:
                    obj = self._require(regs[instr.a], GuestObject)
                    slot = obj.field_index[instr.fieldname]
                    mem_address = obj.base + 16 + slot * 8
                    self._write(region, obj, slot, regs[instr.b], mem_address,
                                tid)
                    stats.stores += 1
                elif op is MOp.LOADA:
                    arr = self._require(regs[instr.a], GuestArray)
                    index = regs[instr.b]
                    if not 0 <= index < len(arr.values):
                        raise BoundsError(index, len(arr.values))
                    mem_address = arr.element_address(index)
                    self._track_read(region, mem_address)
                    regs[instr.dst] = self._read_array(region, arr, index)
                elif op is MOp.STOREA:
                    arr = self._require(regs[instr.a], GuestArray)
                    index = regs[instr.b]
                    if not 0 <= index < len(arr.values):
                        raise BoundsError(index, len(arr.values))
                    mem_address = arr.element_address(index)
                    self._write(region, arr, index, regs[instr.c], mem_address,
                                tid)
                    stats.stores += 1
                elif op is MOp.LOADLEN:
                    arr = self._require(regs[instr.a], GuestArray)
                    mem_address = arr.length_address()
                    self._track_read(region, mem_address)
                    regs[instr.dst] = arr.length
                elif op is MOp.LOADLOCK:
                    obj = self._require(regs[instr.a], GuestObject)
                    mem_address = obj.lock_address()
                    self._track_read(region, mem_address)
                    regs[instr.dst] = 1 if obj.lock.held_by_other(tid) else 0
                    stats.monitor_ops += 1
                elif op is MOp.STORELOCK:
                    obj = self._require(regs[instr.a], GuestObject)
                    lock = obj.lock
                    mem_address = obj.lock_address()
                    if region is not None:
                        pre = (lock.owner, lock.depth, lock.reserver)
                        region.write_lines.add(
                            mem_address >> self._line_shift)
                        if instr.imm == 1:
                            outcome = lock.enter(tid)
                            if outcome == "blocked":
                                # A speculative region must not wait: the
                                # monitor is genuinely contended, so abort
                                # as a real conflict (retry/backoff path).
                                region.real_conflict = True
                                self._tick(instr, mem_address, timing)
                                pc = self._do_abort(
                                    compiled, region, "conflict",
                                    code_base + pc, None, regs, spill,
                                )
                                region = None
                                continue
                        else:
                            lock.exit(tid)
                        region.lock_log.append(
                            (lock, pre,
                             (lock.owner, lock.depth, lock.reserver))
                        )
                    elif instr.imm == 1:
                        outcome = lock.enter(tid)
                        if outcome == "blocked":
                            if sched is None:
                                raise MonitorStateError(
                                    f"monitor owned by thread {lock.owner} "
                                    f"contended by thread {tid} with no "
                                    "scheduler attached"
                                )
                            while outcome == "blocked":
                                sched.block_on(lock)
                                outcome = lock.enter(tid)
                            lock.contended_acquisitions += 1
                            sched.contended_acquisitions += 1
                        if sched is not None:
                            sched.note_store(mem_address)
                    else:
                        lock.exit(tid)
                        if sched is not None:
                            if lock.waiters:
                                sched.wake_all(lock)
                            sched.note_store(mem_address)
                    stats.stores += 1
                elif op is MOp.LOADSPILL:
                    regs[instr.dst] = spill[instr.imm]
                    mem_address = spill_base + instr.imm * 8
                elif op is MOp.STORESPILL:
                    spill[instr.imm] = regs[instr.a]
                    mem_address = spill_base + instr.imm * 8
                    stats.stores += 1
                elif op is MOp.LOADG:
                    regs[instr.dst] = 0  # yield flag never set in samples
                    mem_address = instr.imm
                elif op is MOp.FAA:
                    obj = self._require(regs[instr.a], GuestObject)
                    slot = obj.field_index[instr.fieldname]
                    mem_address = obj.base + 16 + slot * 8
                    self._track_read(region, mem_address)
                    old = self._read_field(region, obj, slot)
                    self._write(region, obj, slot,
                                wrap_int(old + regs[instr.b]),
                                mem_address, tid)
                    regs[instr.dst] = old
                    stats.stores += 1
                    stats.faa_ops += 1
                elif op is MOp.CAS:
                    obj = self._require(regs[instr.a], GuestObject)
                    slot = obj.field_index[instr.fieldname]
                    mem_address = obj.base + 16 + slot * 8
                    self._track_read(region, mem_address)
                    current = self._read_field(region, obj, slot)
                    ok = compare("eq", current, regs[instr.b])
                    regs[instr.dst] = 1 if ok else 0
                    stats.cas_ops += 1
                    if ok:
                        self._write(region, obj, slot, regs[instr.c],
                                    mem_address, tid)
                        stats.stores += 1
                    else:
                        stats.cas_failures += 1
                elif op is MOp.LL:
                    obj = self._require(regs[instr.a], GuestObject)
                    slot = obj.field_index[instr.fieldname]
                    mem_address = obj.base + 16 + slot * 8
                    self._track_read(region, mem_address)
                    regs[instr.dst] = self._read_field(region, obj, slot)
                    self.heap.set_reservation(tid, mem_address)
                    stats.ll_ops += 1
                elif op is MOp.SC:
                    obj = self._require(regs[instr.a], GuestObject)
                    slot = obj.field_index[instr.fieldname]
                    mem_address = obj.base + 16 + slot * 8
                    self._track_read(region, mem_address)
                    ok = self.heap.check_reservation(tid, mem_address)
                    self.heap.clear_reservation(tid)
                    regs[instr.dst] = 1 if ok else 0
                    stats.sc_ops += 1
                    if ok:
                        self._write(region, obj, slot, regs[instr.b],
                                    mem_address, tid)
                        stats.stores += 1
                    else:
                        stats.sc_failures += 1
                elif op is MOp.NEWOBJ:
                    layout = self.program.field_layout(instr.cls)
                    regs[instr.dst] = self.heap.new_object(instr.cls, layout)
                    if region is not None:
                        region.allocs.append(regs[instr.dst])
                elif op is MOp.NEWARR:
                    regs[instr.dst] = self.heap.new_array(regs[instr.a])
                    if region is not None:
                        region.allocs.append(regs[instr.dst])
                elif op is MOp.BR:
                    taken = _machine_compare(instr.cond, regs[instr.a],
                                             regs[instr.b] if instr.b is not None else None)
                    branch_taken = taken
                    stats.branches += 1
                    if timing is not None:
                        if not timing.branch(code_base + pc, taken):
                            stats.mispredicts += 1
                    if taken:
                        self._tick(instr, mem_address, timing)
                        pc = instr.target
                        if region is not None:
                            reason = self._hw_condition(region)
                            if reason is not None:
                                pc = self._do_abort(
                                    compiled, region, reason,
                                    code_base + pc, None, regs, spill,
                                )
                                region = None
                        continue
                elif op is MOp.JMP:
                    self._tick(instr, mem_address, timing)
                    pc = instr.target
                    continue
                elif op is MOp.BR_TRAP:
                    failed = _machine_compare(
                        instr.cond, regs[instr.a],
                        regs[instr.b] if instr.b is not None else None,
                    )
                    branch_taken = failed
                    stats.branches += 1
                    if timing is not None:
                        if not timing.branch(code_base + pc, failed):
                            stats.mispredicts += 1
                    if failed:
                        raise _trap_error(instr)
                elif op is MOp.BR_ABORT:
                    fired = _machine_compare(
                        instr.cond, regs[instr.a],
                        regs[instr.b] if instr.b is not None else None,
                    )
                    branch_taken = fired
                    stats.branches += 1
                    if timing is not None:
                        if not timing.branch(code_base + pc, fired):
                            stats.mispredicts += 1
                    if fired:
                        self._tick(instr, mem_address, timing)
                        pc = instr.target
                        continue
                elif op is MOp.AREGION_BEGIN:
                    if region is not None:
                        raise VMError("nested aregion_begin")
                    if self._pending_cc:
                        code = self._pending_cc.pop(tid, None)
                        if code is not None:
                            # setjmp-style delivery: the begin "returns
                            # twice" — re-landed with the condition code
                            # set, it branches to the software path.
                            self.condition_code_register = code
                            stats.setjmp_deliveries += 1
                            self._tick(instr, mem_address, timing)
                            pc = instr.target
                            continue
                    self.condition_code_register = 0
                    if self._fallback_holds:
                        # A serialized recovery pass is complete once
                        # control is back at a region entry.
                        self._release_fallback_lock(tid)
                    if instr.imm in compiled.disabled_regions:
                        # Patched to permanent non-speculative fallback:
                        # jump straight to the alternate PC.
                        stats.regions_suppressed += 1
                        if self.tracer.enabled:
                            self.tracer.region_suppressed(
                                self.uops_executed, tid, compiled.name,
                                instr.imm,
                            )
                        self._tick(instr, mem_address, timing)
                        pc = instr.target
                        continue
                    region = self._begin_region(compiled, instr, regs, spill,
                                                pc, tid)
                    if timing is not None:
                        timing.region_begin()
                elif op is MOp.AREGION_END:
                    if region is None:
                        raise VMError("aregion_end outside a region")
                    # Commit-instant check: the on_step above may have let
                    # another thread run (and commit stores) since the last
                    # retirement check; a region must not commit over them.
                    if self._real_conflict(region):
                        region.real_conflict = True
                        self._tick(instr, mem_address, timing)
                        pc = self._do_abort(
                            compiled, region, "conflict", code_base + pc,
                            None, regs, spill,
                        )
                        region = None
                        continue
                    if (self._fallback_mode == "end"
                            and self.fallback_lock.held_by_other(tid)):
                        # Sandboxed subscription: the region ran blind and
                        # validates the fallback lock only now, at the
                        # commit instant; a serialized pass in flight
                        # means it must not commit over it.
                        region.real_conflict = True
                        self._tick(instr, mem_address, timing)
                        pc = self._do_abort(
                            compiled, region, "conflict", code_base + pc,
                            None, regs, spill,
                        )
                        region = None
                        continue
                    self._commit(region)
                    if timing is not None:
                        timing.region_end()
                    region = None
                elif op is MOp.AREGION_ABORT:
                    if region is None:
                        raise VMError("aregion_abort outside a region")
                    reason = instr.cls or "assert"
                    self._tick(instr, mem_address, timing)
                    pc = self._do_abort(
                        compiled, region, reason, code_base + pc,
                        instr.abort_id, regs, spill,
                    )
                    region = None
                    continue
                elif op is MOp.CALLVM or op is MOp.VCALLVM:
                    if region is not None:
                        raise VMError("call inside an atomic region")
                    if self.dispatcher is None:
                        raise VMError("machine has no call dispatcher")
                    call_args = [
                        regs[r] if r >= 0 else spill[-r - 1] for r in instr.args
                    ]
                    if op is MOp.CALLVM:
                        callee = self.program.resolve_static(instr.method)
                    else:
                        receiver = call_args[0]
                        if receiver is None:
                            raise NullPointerError("virtual call on null")
                        callee = self.program.resolve_virtual(
                            receiver.class_name, instr.method
                        )
                    if timing is not None:
                        timing.call_boundary()
                    regs[instr.dst] = self.dispatcher.invoke(callee, call_args)
                elif op is MOp.RET:
                    if region is not None:
                        raise VMError("return inside an atomic region")
                    if self._fallback_holds:
                        self._release_fallback_lock(tid)
                    self._tick(instr, mem_address, timing)
                    return regs[instr.a] if instr.a is not None else None
                else:  # pragma: no cover - exhaustive
                    raise VMError(f"unhandled machine op {op}")
            except GuestError:
                if region is None:
                    raise
                # Hardware fault inside a region: abort; the recovery path
                # re-executes non-speculatively and re-raises precisely.
                pc = self._do_abort(
                    compiled, region, "exception", code_base + pc, None,
                    regs, spill,
                )
                region = None
                continue

            self._tick(instr, mem_address, timing)
            pc += 1
            if region is not None:
                reason = self._hw_condition(region)
                if reason is not None:
                    pc = self._do_abort(
                        compiled, region, reason, code_base + pc, None,
                        regs, spill,
                    )
                    region = None

    # -- pre-decoded fast path ----------------------------------------------
    def _execute_fast(self, compiled: CompiledMethod, args: list[Value]) -> Value:
        """Run the pre-decoded dispatch form of ``compiled``.

        Observationally identical to the interpretive loop (enforced by
        the differential suite); only reached with the null tracer and no
        scheduler, so nothing instrumented is skipped.
        """
        pre = get_predecoded(compiled, self._line_shift)
        code_base = self._code_base(compiled)
        spill_base = self._next_spill_base
        self._next_spill_base += 0x10000

        regs: list[Value] = [0] * compiled.num_regs
        spill: list[Value] = [0] * max(compiled.num_spill_slots, 1)
        for value, loc in zip(args, compiled.param_locations):
            kind, index = loc
            if kind == "r":
                regs[index] = value
            else:
                spill[index] = value

        fr = ExecFrame()
        fr.machine = self
        fr.compiled = compiled
        fr.regs = regs
        fr.spill = spill
        fr.spill_base = spill_base
        fr.code_base = code_base
        fr.region = None
        fr.tid = MAIN_THREAD
        fr.stats = self.stats
        fr.timing = self.timing
        fr.ret = None

        handlers = pre.handlers
        pc = 0
        while pc >= 0:
            pc = handlers[pc](fr)
        return fr.ret

    def _execute_jit(self, compiled: CompiledMethod, args: list[Value]) -> Value:
        """Run the template-jit dispatch form of ``compiled``.

        Same loop shape as :meth:`_execute_fast`, but the pc-indexed
        table holds a *fused-run function* at each run-start pc and the
        per-uop handler everywhere else, so straight-line spans retire
        without re-entering the loop.  Fused code bails to the handler
        tier for anything it cannot replay exactly; the loop resumes at
        whatever pc the handler (or the abort machinery) hands back.
        """
        jm = get_jitted(compiled, self)
        code_base = self._code_base(compiled)
        spill_base = self._next_spill_base
        self._next_spill_base += 0x10000

        regs: list[Value] = [0] * compiled.num_regs
        spill: list[Value] = [0] * max(compiled.num_spill_slots, 1)
        for value, loc in zip(args, compiled.param_locations):
            kind, index = loc
            if kind == "r":
                regs[index] = value
            else:
                spill[index] = value

        fr = ExecFrame()
        fr.machine = self
        fr.compiled = compiled
        fr.regs = regs
        fr.spill = spill
        fr.spill_base = spill_base
        fr.code_base = code_base
        fr.region = None
        fr.tid = MAIN_THREAD
        fr.stats = self.stats
        fr.timing = self.timing
        fr.ret = None

        table = jm.table(self.timing is not None)
        pc = 0
        while pc >= 0:
            pc = table[pc](fr)
        return fr.ret

    def _fast_abort(self, fr: ExecFrame, reason: str, next_pc: int) -> int:
        """Retirement-check abort from a handler; returns the resume pc."""
        pc = self._do_abort(
            fr.compiled, fr.region, reason, fr.code_base + next_pc, None,
            fr.regs, fr.spill,
        )
        fr.region = None
        return pc

    def _fast_exception(self, fr: ExecFrame, pc: int) -> int:
        """Guest fault inside a region: abort without ticking the uop."""
        resume = self._do_abort(
            fr.compiled, fr.region, "exception", fr.code_base + pc, None,
            fr.regs, fr.spill,
        )
        fr.region = None
        return resume

    # -- helpers -------------------------------------------------------------
    def _code_base(self, compiled: CompiledMethod) -> int:
        base = self._code_bases.get(id(compiled))
        if base is None:
            base = self._code_bases[id(compiled)] = self._next_code_base
            self._installed_code[id(compiled)] = compiled
            self._next_code_base += max(len(compiled.instrs), 64) * 4
        return base

    def _require(self, value, kind):
        if value is None:
            raise NullPointerError("null dereference")
        if not isinstance(value, kind):
            raise VMError(f"expected {kind.__name__}, got {type(value).__name__}")
        return value

    def _tick(self, instr: MInstr, mem_address: int | None, timing) -> None:
        if timing is not None:
            timing.uop(instr, mem_address)
        if mem_address is not None and instr.op in (
            MOp.LOADF, MOp.LOADA, MOp.LOADLEN, MOp.LOADLOCK, MOp.LOADSPILL,
            MOp.LOADG, MOp.CLASSOF,
        ):
            self.stats.loads += 1

    # -- region mechanics ---------------------------------------------------
    def _begin_region(self, compiled, instr, regs, spill, pc,
                      tid: int = MAIN_THREAD) -> _RegionState:
        record = RegionExecution(region_key=(compiled.name, instr.imm))
        region = _RegionState(
            region_id=instr.imm,
            alt_pc=instr.target,
            checkpoint_regs=list(regs),
            checkpoint_spill=list(spill),
            record=record,
            begin_pc=pc,
            heap_mark=self.heap.mark(),
            progress_key=(tid, id(compiled), instr.imm),
            owner_tid=tid,
            reservation=self.heap.reservations.get(tid),
        )
        if self._fallback_mode == "begin":
            # Eager subscription: the fallback lock's line joins the read
            # set, so any acquisition (a store to that word) conflicts the
            # region immediately — via the store log cross-thread and via
            # the retirement-check probe in ``_hw_condition``.
            region.read_lines.add(FALLBACK_LOCK_ADDRESS >> self._line_shift)
        if self.sched is not None:
            region.log_index = self.sched.region_begin(tid)
        if self.tracer.enabled:
            self.tracer.region_enter(
                self.uops_executed, tid, compiled.name, instr.imm,
                self._code_bases[id(compiled)] + pc,
            )
        if self.fault_injector is not None:
            region.faults = self.fault_injector.schedule_region(record)
            region.conflict_at = region.faults.conflict_at
        return region

    def _track_read(self, region: _RegionState | None, address: int) -> None:
        if region is not None:
            region.read_lines.add(address >> self._line_shift)

    def _read_field(self, region, obj, slot):
        if region is not None:
            key = (id(obj), "f", slot)
            if key in region.store_buffer:
                return region.store_buffer[key][2]
        return obj.slots[slot]

    def _read_array(self, region, arr, index):
        if region is not None:
            key = (id(arr), "a", index)
            if key in region.store_buffer:
                return region.store_buffer[key][2]
        return arr.values[index]

    def _write(self, region, target, slot, value, address,
               tid: int = MAIN_THREAD) -> None:
        if region is None:
            if isinstance(target, GuestObject):
                target.slots[slot] = value
            else:
                target.values[slot] = value
            if self.heap.reservations:
                # A committed data store invalidates other threads' LL/SC
                # reservations on its cache line.
                self.heap.kill_reservations(tid, address, self._line_shift)
            if self.sched is not None:
                self.sched.note_store(address)
            return
        kind = "f" if isinstance(target, GuestObject) else "a"
        region.store_buffer[(id(target), kind, slot)] = (target, slot, value)
        region.write_lines.add(address >> self._line_shift)

    def _real_conflict(self, region: _RegionState) -> bool:
        """Scan new committed-store-log entries for a genuine overlap.

        The scheduler logs every committed/non-speculative store (as
        ``(tid, line)``) while regions are in flight; a store from another
        thread that touches a line in this region's read or write set is a
        real coherence conflict — exactly the eviction-of-a-tracked-line
        condition of §3.3.  ``log_index`` advances so each entry is scanned
        once.
        """
        sched = self.sched
        if sched is None:
            return False
        log = sched.store_log
        index = region.log_index
        if index >= len(log):
            return False
        tid = region.owner_tid
        reads = region.read_lines
        writes = region.write_lines
        hit = False
        for other, line in log[index:]:
            if other != tid and (line in reads or line in writes):
                hit = True
                break
        region.log_index = len(log)
        return hit

    def _commit(self, region: _RegionState) -> None:
        for target, slot, value in region.store_buffer.values():
            if isinstance(target, GuestObject):
                target.slots[slot] = value
            else:
                target.values[slot] = value
        if self.heap.reservations and region.write_lines:
            # The commit makes the region's stores visible "at an instant":
            # every written line invalidates other threads' LL/SC
            # reservations, at line granularity like the coherence fabric.
            shift = self._line_shift
            for line in region.write_lines:
                self.heap.kill_reservations(
                    region.owner_tid, line << shift, shift
                )
        sched = self.sched
        if sched is not None:
            sched.region_end(region.owner_tid)
            # The commit itself is a burst of stores becoming visible "at
            # an instant": other still-in-flight regions must see them.
            if sched.logging:
                for line in region.write_lines:
                    sched.note_store_line(region.owner_tid, line)
            # Monitors released inside the region are only *really*
            # released now that the region committed.
            for lock, _pre, _post in region.lock_log:
                if lock.owner is None and lock.waiters:
                    sched.wake_all(lock)
        record = region.record
        record.committed = True
        record.lines_read = len(region.read_lines)
        record.lines_written = len(region.write_lines)
        self.stats.note_region(record)
        if self.tracer.enabled:
            self.tracer.region_commit(
                self.uops_executed, region.owner_tid,
                record.region_key[0], region.region_id, record.uops,
                record.lines_read, record.lines_written,
            )
        # Forward progress: a commit ends any abort streak for this region.
        key = region.progress_key
        if self._abort_streak.get(key):
            self._abort_streak[key] = 0
        if self._conflict_retries.get(key):
            self._conflict_retries[key] = 0

    def _hw_condition(self, region: _RegionState) -> str | None:
        """Best-effort hardware abort conditions, checked at retirement."""
        if self._real_conflict(region):
            region.real_conflict = True
            return "conflict"
        if (self._fallback_mode == "begin"
                and self.fallback_lock.held_by_other(region.owner_tid)):
            # Begin-time subscription: the region holds the lock's line in
            # its read set, so an acquisition conflicts it at once.
            region.real_conflict = True
            return "conflict"
        line_limit = self.config.region_line_limit
        faults = region.faults
        if faults is not None and faults.line_limit is not None:
            # Injected capacity pressure: the best-effort bound shrinks.
            line_limit = min(line_limit, faults.line_limit)
        if len(region.read_lines) + len(region.write_lines) > line_limit:
            return "overflow"
        store_bound = self._store_bound
        if faults is not None and faults.store_limit is not None:
            # Injected store-buffer pressure (effective in every htm_mode).
            store_bound = (faults.store_limit if store_bound is None
                           else min(store_bound, faults.store_limit))
        if store_bound is not None and len(region.store_buffer) > store_bound:
            region.capacity_detail = (
                "store_buffer", len(region.store_buffer), store_bound,
            )
            return "capacity"
        if self._cache_shaped and self._set_overflow(region):
            return "capacity"
        if faults is not None:
            if faults.assert_at is not None and region.uops >= faults.assert_at:
                return "assert"
            if (faults.exception_at is not None
                    and region.uops >= faults.exception_at):
                return "exception"
        if (self.fault_injector is not None
                and self.fault_injector.take_interrupt(self.uops_executed)):
            return "interrupt"
        if region.conflict_at is not None and region.uops >= region.conflict_at:
            return "conflict"
        return None

    def _set_overflow(self, region: _RegionState) -> bool:
        """Cache-shaped capacity: do the region's speculative lines fit?

        A tracked line maps to L1 set ``line % num_sets``; more distinct
        lines in one set than the cache has ways means a tracked line
        would have to be evicted, which a best-effort HTM cannot survive.
        Line sets only grow, so the per-set recount is skipped while the
        combined line count is unchanged since the last check.
        """
        seen = len(region.read_lines) + len(region.write_lines)
        if seen == region.cap_seen:
            return region.cap_over
        region.cap_seen = seen
        num_sets = self._l1_sets
        ways = self._l1_ways
        reads = region.read_lines
        occupancy: Counter = Counter()
        for line in reads:
            occupancy[line % num_sets] += 1
        for line in region.write_lines:
            if line not in reads:
                occupancy[line % num_sets] += 1
        over = False
        for used in occupancy.values():
            if used > ways:
                region.capacity_detail = ("cache_shaped", used, ways)
                over = True
                break
        region.cap_over = over
        return over

    # -- hybrid fallback lock ------------------------------------------------
    def _acquire_fallback_lock(self, tid: int) -> None:
        """Serialize a recovery pass on the global fallback lock.

        Blocks (via the scheduler) while another thread holds the lock;
        single-threaded machines with a foreign owner cannot ever be
        released, so they fail fast like contended monitors do.
        """
        lock = self.fallback_lock
        sched = self.sched
        outcome = lock.enter(tid)
        while outcome == "blocked":
            if sched is None:
                raise MonitorStateError(
                    f"fallback lock owned by thread {lock.owner} contended "
                    f"by thread {tid} with no scheduler attached"
                )
            self.stats.fallback_lock_waits += 1
            if self.tracer.enabled:
                self.tracer.fallback_lock(
                    self.uops_executed, tid, "wait", lock.depth)
            sched.block_on(lock)
            outcome = lock.enter(tid)
        self._fallback_holds[tid] += 1
        self.stats.fallback_lock_acquisitions += 1
        if sched is not None:
            # The acquisition is a store to the lock word: begin-mode
            # subscribers holding its line see a real conflict.
            sched.note_store(FALLBACK_LOCK_ADDRESS)
        if self.tracer.enabled:
            self.tracer.fallback_lock(
                self.uops_executed, tid, "acquire", lock.depth)

    def _release_fallback_lock(self, tid: int) -> None:
        holds = self._fallback_holds.pop(tid, 0)
        if not holds:
            return
        lock = self.fallback_lock
        for _ in range(holds):
            lock.exit(tid)
        sched = self.sched
        if sched is not None:
            sched.note_store(FALLBACK_LOCK_ADDRESS)
            if lock.owner is None and lock.waiters:
                sched.wake_all(lock)
        if self.tracer.enabled:
            self.tracer.fallback_lock(
                self.uops_executed, tid, "release", lock.depth)

    def _do_abort(
        self,
        compiled: CompiledMethod,
        region: _RegionState,
        reason: str,
        abort_pc: int,
        abort_id: int | None,
        regs: list,
        spill: list,
    ) -> int:
        """Roll the region back; returns the resumption PC.

        Rollback is total: buffered stores are discarded, registers and
        spill slots restore from the checkpoint, monitor words and
        speculative allocations are undone.  The resumption PC is normally
        the alternate (recovery) PC; a conflict abort within the retry
        budget instead re-enters the region from its ``aregion_begin``
        (after an exponential-backoff stall), and a region whose abort
        streak exhausts the fallback threshold is patched so every future
        entry goes straight to the recovery path — the forward-progress
        guarantee of §3/§5.
        """
        record = region.record
        record.committed = False
        record.abort_reason = reason
        record.abort_pc = abort_pc
        self.stats.note_region(record)
        if self.tracer.enabled:
            self.tracer.region_abort(
                self.uops_executed, region.owner_tid,
                record.region_key[0], region.region_id, reason, abort_pc,
                record.uops, len(region.read_lines),
                len(region.write_lines),
            )
            if reason == "capacity":
                mode, used, limit = (
                    region.capacity_detail
                    or ("store_buffer", len(region.store_buffer), 0)
                )
                self.tracer.region_capacity(
                    self.uops_executed, region.owner_tid,
                    record.region_key[0], region.region_id, mode, used,
                    limit,
                )
        sched = self.sched
        if sched is not None:
            sched.region_end(region.owner_tid)
        if reason == "conflict":
            if region.real_conflict:
                self.stats.real_conflict_aborts += 1
            else:
                self.stats.injected_conflict_aborts += 1
        elif reason == "capacity":
            self.stats.capacity_aborts += 1
        if abort_id is not None:
            self.stats.abort_sites[
                (compiled.name, region.region_id, abort_id)
            ] += 1
        for lock, pre, post in reversed(region.lock_log):
            # Undo the speculative monitor operation — but only if the lock
            # word still holds the state this region left it in.  Another
            # thread may have legitimately acquired a monitor the region
            # speculatively released (that store made the region abort);
            # clobbering its ownership would corrupt the lock.
            if (lock.owner, lock.depth, lock.reserver) == post:
                lock.owner, lock.depth, lock.reserver = pre
        regs[:] = region.checkpoint_regs
        spill[:] = region.checkpoint_spill
        if region.heap_mark is not None:
            self.heap.discard_speculative(region.heap_mark, region.allocs)
        # The reservation station rewinds with the speculative state: an
        # LL inside the aborted region must not survive the abort.
        if region.reservation is None:
            self.heap.clear_reservation(region.owner_tid)
        else:
            self.heap.set_reservation(region.owner_tid, region.reservation)
        self.abort_reason_register = reason
        self.abort_pc_register = abort_pc
        #: RTM-style handler arguments (set on every abort, including
        #: transparent retries — the hardware always reports).
        self.abort_code_register = ABORT_REASON_CODES.get(reason, 0)
        self.abort_retry_hint_register = reason in RETRYABLE_REASONS
        if sched is not None:
            # Rollback may have released monitors acquired inside the
            # region while other threads were already parked on them.
            for lock, _pre, _post in region.lock_log:
                if lock.owner is None and lock.waiters:
                    sched.wake_all(lock)
        if self.timing is not None:
            self.timing.region_abort()

        key = region.progress_key
        if reason == "conflict":
            attempt = self._conflict_retries[key] + 1
            if attempt <= self.config.region_retry_budget:
                # Transient condition: retry the region from its checkpoint
                # after backing off (doubling per consecutive attempt).
                self._conflict_retries[key] = attempt
                backoff = self.config.region_backoff_cycles * (1 << (attempt - 1))
                self.stats.conflict_retries += 1
                self.stats.backoff_cycles += backoff
                if self.timing is not None:
                    self.timing.stall(backoff)
                if self.tracer.enabled:
                    self.tracer.region_retry(
                        self.uops_executed, region.owner_tid,
                        record.region_key[0], region.region_id, attempt,
                        backoff,
                    )
                return region.begin_pc
        self._conflict_retries[key] = 0
        streak = self._abort_streak[key] + 1
        self._abort_streak[key] = streak
        threshold = self.config.region_fallback_threshold
        if threshold is not None and streak >= threshold:
            compiled.disable_region(region.region_id)
            self._abort_streak[key] = 0
            self.stats.note_fallback(record.region_key)
            if self.tracer.enabled:
                self.tracer.region_fallback(
                    self.uops_executed, region.owner_tid,
                    record.region_key[0], region.region_id,
                )
        if (self._fallback_mode is not None
                and reason in HW_ESCALATION_REASONS):
            # Hybrid escalation: the software-visible recovery pass for a
            # hardware-originated abort serializes on the fallback lock
            # (still-speculative regions detect the acquisition and
            # abort), guaranteeing progress without retry roulette.
            self._acquire_fallback_lock(region.owner_tid)
        if self._setjmp:
            # Power/z-style delivery: re-land on the aregion_begin with
            # the condition code pending; the begin branches to the
            # software path instead of opening a region.
            self._pending_cc[region.owner_tid] = (
                ABORT_REASON_CODES.get(reason, 0) or 1
            )
            return region.begin_pc
        return region.alt_pc
