"""Template JIT: fused straight-line uop runs compiled to Python source.

PR 4's pre-decoded handler arrays (:mod:`repro.hw.codegen`) pay one
Python call, two counter stores, and a retirement-check call per retired
uop.  This module is the third dispatch tier: it walks a compiled
method's decoded uops, partitions every basic block into maximal runs of
*fusable* uops, and emits real Python source for each run — one function
per run, registers resolved to list indexes, immediates/field names/
branch targets baked in as constants, and the per-uop bookkeeping
collapsed into batched counter flushes at the run's exit points
(superinstruction fusion).  The source is ``compile()``/``exec()``d once
and cached on the :class:`~repro.hw.isa.CompiledMethod` alongside the
pre-decode arrays, under the same ``disable_region``/recompile
invalidation.

Host ``compile()`` is memoized by the sha256 of each variant's source
(:func:`_code_for`, a bounded LRU): the same method compiled in another
VM, or for another hardware configuration with the same
:class:`JitProfile` (core width, region-begin cost), emits identical
source.  Only the code object is
shared.  Every method still ``exec()``s it into a namespace of its own,
so the fused functions, their handler array ``H`` and their instruction
tuple ``I`` stay per method, and a bail or a ``disable_region`` in one
method never reaches another's code.

The contract is the same strict observational equivalence the
pre-decoded tier obeys: byte-identical :class:`ExecStats`, identical
timing-model inputs in identical order, identical heap/address
allocation order, and identical exception/abort behaviour versus the
interpretive loop (enforced by ``tests/test_differential.py`` and the
generative battery in ``tests/test_templatejit.py``).  Three mechanisms
make that hold:

**Side exits re-land on the per-uop tier.**  Any situation the emitted
fast path cannot (or should not) handle inline — a non-integer ALU
operand, a missing field, an out-of-bounds or non-integer array index, a
reference comparison under an ordered condition, a negative array length
— *bails*: it flushes the batched counters for the uops already
completed and tail-calls the pre-decoded handler of the *current* uop,
which replays it from scratch with exactly the slow path's semantics
(counters, traps, aborts, errors).  A bail always happens before the
current uop has any observable effect, so the replay is exact.

**Retirement checks only where they can fire.**  The interpretive loop
probes ``Machine._hw_condition`` after every retired uop; under the
JIT's admission profile (no scheduler, no tracer, no fault injector)
that probe's verdict can only change when a uop grows the region's
read/write line sets or store buffer.  Fused code therefore emits the
(profile-specialised) check only after the memory-tracking uops —
CLASSOF/LOADF/STOREF/LOADA/STOREA/LOADLEN — in the region body, and the
checks it emits mirror ``_hw_condition``'s order and detail-register
writes exactly.  Lock-word *stores*, atomic-RMW, call, return, and
region begin/end/abort uops are never fused; they stay on their
pre-decoded handlers, splitting runs.  ``LOADLOCK`` — the SLE'd
monitor-enter's single probing load — *is* fused: it is a pure read
(read-set add + lock-owner probe) and sits on the hottest
elided-monitor paths.

**Stateful timing stays per-uop.**  Every fused run has two variants —
an untimed one and a timed one that calls ``timing.uop``/
``timing.branch`` in exactly the slow path's order (branch-predictor
updates are stateful, so a trap/abort path never bails *after* the
predictor was touched: it finishes the uop inline instead).  The
machine selects the table matching its ``timing`` attribute per
activation; each variant's source is emitted and ``compile()``d only
on first use, so a machine that never runs timed (or never untimed)
pays half the host-compile cost, and the
:meth:`~repro.hw.machine.Machine.prepare` hook lets the VM hoist that
cost to method-install time, outside any measured window.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from types import CodeType

from ..runtime.errors import GuestError
from ..runtime.heap import GuestArray, GuestObject
from ..runtime.interpreter import guest_div, guest_mod, wrap_int
from .codegen import (
    _machine_blocks,
    _trap_error,
    get_predecoded,
    machine_compare,
)
from .isa import CompiledMethod, MOp

__all__ = [
    "FUSABLE_MOPS",
    "JitProfile",
    "JittedMethod",
    "fused_runs",
    "get_jitted",
    "jit_compile",
    "jit_profile",
    "jit_source",
]

#: uops the emitter knows how to fuse.  Everything else (atomics,
#: lock-word ops, calls, return, region begin/end/abort) stays on its
#: pre-decoded handler and splits the surrounding run.
FUSABLE_MOPS = frozenset({
    MOp.CONST, MOp.CONST_NULL, MOp.CONST_CLASS, MOp.MOV,
    MOp.ADD, MOp.SUB, MOp.MUL, MOp.DIV, MOp.MOD,
    MOp.AND, MOp.OR, MOp.XOR, MOp.SHL, MOp.SHR,
    MOp.CLASSOF, MOp.LOADF, MOp.STOREF, MOp.LOADA, MOp.STOREA,
    MOp.LOADLEN, MOp.LOADLOCK, MOp.LOADSPILL, MOp.STORESPILL, MOp.LOADG,
    MOp.NEWOBJ, MOp.NEWARR,
    MOp.BR, MOp.JMP, MOp.BR_TRAP, MOp.BR_ABORT,
})

#: a run must cover at least this many uops to be worth a fused function.
MIN_RUN = 2

#: uops that grow the region's read/write line sets or store buffer —
#: the only points where the retirement-time hardware condition can
#: newly fire under the JIT admission profile.
_MEM_TRACK = frozenset({
    MOp.CLASSOF, MOp.LOADF, MOp.STOREF, MOp.LOADA, MOp.STOREA, MOp.LOADLEN,
    MOp.LOADLOCK,
})

_BRANCHY = frozenset({MOp.BR, MOp.BR_TRAP, MOp.BR_ABORT})
_SPILLY = frozenset({MOp.LOADSPILL, MOp.STORESPILL})

_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1
_MASK64 = (1 << 64) - 1

_CMP_PY = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=",
           "eq": "==", "ne": "!="}


@dataclass(frozen=True)
class JitProfile:
    """Machine parameters baked into generated source.

    Only knobs that appear as *constants* in the emitted code belong
    here; anything read dynamically through ``fr.machine`` (L1 geometry
    for the cache-shaped probe, the fallback lock object) does not force
    a recompile.
    """

    line_shift: int
    region_line_limit: int
    store_bound: int | None
    cache_shaped: bool
    fallback_begin: bool


def jit_profile(machine) -> JitProfile:
    """The profile of ``machine`` (see :class:`JitProfile`)."""
    return JitProfile(
        line_shift=machine._line_shift,
        region_line_limit=machine.config.region_line_limit,
        store_bound=machine._store_bound,
        cache_shaped=machine._cache_shaped,
        fallback_begin=machine._fallback_mode == "begin",
    )


@dataclass
class JittedMethod:
    """The template-JIT dispatch form of one :class:`CompiledMethod`.

    :meth:`table` returns a pc-indexed list of callables: the fused run
    function at each run-start pc, the pre-decoded per-uop handler
    everywhere else.  The machine's jit loop is identical in shape to
    the pre-decoded loop — ``pc = table[pc](fr)`` — so entering and
    leaving fused code costs nothing beyond the table load.

    Each variant (untimed/timed) is emitted and host-``compile()``d
    lazily on its first :meth:`table` call: CPython's ``compile`` of a
    large generated module is by far the dominant jit cost, and most
    machines only ever run one variant.  The compile itself is skipped
    when the code memo already holds the same source.
    """

    #: machine constants the source was specialised for.
    profile: JitProfile
    #: fused spans ``(start, end)`` over the instruction array.
    runs: list = field(default_factory=list)
    #: the code object the runs were cut from.
    _compiled: CompiledMethod | None = field(
        default=None, repr=False, compare=False)
    #: the pre-decoded handler array the tables fall back to.
    _handlers: list = field(default_factory=list, repr=False, compare=False)
    #: lazily-built dispatch tables, indexed ``[timed]``.
    _tables: list = field(default_factory=lambda: [None, None],
                          repr=False, compare=False)

    def table(self, timed: bool) -> list:
        """The dispatch table for one timing variant (built on first
        use, cached for the lifetime of this jit form)."""
        tab = self._tables[timed]
        if tab is None:
            tab = self._tables[timed] = _build_table(self, timed)
        return tab


def fused_runs(compiled: CompiledMethod) -> list[tuple[int, int]]:
    """Maximal fusable straight-line spans, one per ``(start, end)``.

    Runs never cross basic-block boundaries (every branch target is a
    block leader, so control can only *enter* a fused function at its
    first uop) and never include an unfusable uop.
    """
    instrs = compiled.instrs
    blocks, _ = _machine_blocks(instrs)
    runs: list[tuple[int, int]] = []
    for start, end, _succs in blocks:
        i = start
        while i < end:
            if instrs[i].op in FUSABLE_MOPS:
                j = i
                while j < end and instrs[j].op in FUSABLE_MOPS:
                    j += 1
                if j - i >= MIN_RUN:
                    runs.append((i, j))
                i = j
            else:
                i += 1
    return runs


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------

class _Body:
    """Emits one body (plain or region) of one fused-run variant.

    Tracks the statically-known counter increments of the uops completed
    so far; every exit point flushes them in one batch, so the per-uop
    ``uops_retired``/``loads``/``stores``/``branches`` stores of the
    handler tier collapse into a handful of ``+= K`` statements.
    """

    def __init__(self, regioned: bool, timed: bool, profile: JitProfile,
                 base_depth: int) -> None:
        self.regioned = regioned
        self.timed = timed
        self.profile = profile
        self.base = base_depth
        self.lines: list[str] = []
        # completed-uop counter batch: uops, loads, stores, branches,
        # monitor ops
        self.u = self.l = self.s = self.b = self.m = 0

    # -- plumbing ---------------------------------------------------------
    def w(self, text: str, depth: int = 0) -> None:
        self.lines.append("    " * (self.base + depth) + text)

    def _flush_stmts(self, u: int, l: int, s: int, b: int,
                     m: int) -> list[str]:
        out = []
        if u:
            out.append(f"mach.uops_executed += {u}")
            out.append(f"st.uops_retired += {u}")
            if self.regioned:
                out.append(f"region.uops += {u}")
                out.append(f"region.record.uops += {u}")
        if l:
            out.append(f"st.loads += {l}")
        if s:
            out.append(f"st.stores += {s}")
        if b:
            out.append(f"st.branches += {b}")
        if m:
            out.append(f"st.monitor_ops += {m}")
        return out

    def flush(self, depth: int, inc=(0, 0, 0, 0, 0)) -> None:
        for stmt in self._flush_stmts(self.u + inc[0], self.l + inc[1],
                                      self.s + inc[2], self.b + inc[3],
                                      self.m + inc[4]):
            self.w(stmt, depth)

    def bail(self, i: int, depth: int) -> None:
        """Deoptimise: replay uop ``i`` on its pre-decoded handler.

        Must be emitted before the current uop has any observable
        effect; the flush covers only the uops already completed.
        """
        self.flush(depth)
        self.w(f"return H[{i}](fr)", depth)

    def tick(self, i: int, mem: str, depth: int = 0) -> None:
        if self.timed:
            self.w(f"T.uop(I[{i}], {mem})", depth)

    def hw_check(self, i: int, inc) -> None:
        """The retirement-time hardware condition, specialised and
        emitted only after set-growing uops (mirrors
        ``Machine._hw_condition``'s order and detail writes)."""
        if not self.regioned:
            return
        p = self.profile
        nxt = i + 1
        if p.fallback_begin:
            self.w("if fbl.held_by_other(region.owner_tid):")
            self.w("region.real_conflict = True", 1)
            self.flush(1, inc)
            self.w(f"return mach._fast_abort(fr, 'conflict', {nxt})", 1)
        self.w(f"if len(rl) + len(wl) > {p.region_line_limit}:")
        self.flush(1, inc)
        self.w(f"return mach._fast_abort(fr, 'overflow', {nxt})", 1)
        if p.store_bound is not None:
            self.w(f"if len(sb) > {p.store_bound}:")
            self.w("region.capacity_detail = "
                   f"('store_buffer', len(sb), {p.store_bound})", 1)
            self.flush(1, inc)
            self.w(f"return mach._fast_abort(fr, 'capacity', {nxt})", 1)
        if p.cache_shaped:
            self.w("if mach._set_overflow(region):")
            self.flush(1, inc)
            self.w(f"return mach._fast_abort(fr, 'capacity', {nxt})", 1)

    def _wrap_store(self, dst: int, expr: str) -> None:
        """Store ``expr`` (an int expression that may exceed 64 bits)
        into ``regs[dst]`` with the slow path's wrap-around."""
        self.w(f"v = {expr}")
        self.w(f"regs[{dst}] = v if {_INT_MIN} <= v <= {_INT_MAX} "
               "else _wi(v)")

    def _cond(self, i: int, cond: str, a: int, b: int | None) -> None:
        """Evaluate branch condition ``cond`` into local ``t``.

        Integer operands run inline; reference equality falls back to
        ``machine_compare`` (which cannot raise for eq/ne); ordered
        conditions on non-integers bail so the handler raises the slow
        path's ``VMError`` with exact counter state.
        """
        self.w(f"x = regs[{a}]")
        if b is not None:
            self.w(f"y = regs[{b}]")
        if cond == "uge":
            self.w("if type(x) is int and type(y) is int:")
            self.w(f"t = (x & {_MASK64}) >= (y & {_MASK64})", 1)
            self.w("else:")
            self.bail(i, 1)
            return
        op = _CMP_PY[cond]
        if cond in ("eq", "ne"):
            if b is None:
                null = "is None" if cond == "eq" else "is not None"
                self.w(f"t = (x {op} 0) if type(x) is int else (x {null})")
            else:
                # Full compare() semantics, inlined: ints by value,
                # references by identity, int-vs-ref equal only for the
                # null/0 pair (ne branches are the negations).
                eq = cond == "eq"
                self.w("if type(x) is int:")
                self.w(f"t = (x {op} y) if type(y) is int else "
                       + ("(y is None and x == 0)" if eq
                          else "(y is not None or x != 0)"), 1)
                self.w("elif type(y) is int:")
                self.w(("t = x is None and y == 0" if eq
                        else "t = x is not None or y != 0"), 1)
                self.w("else:")
                self.w(f"t = x is{'' if eq else ' not'} y", 1)
            return
        if b is None:
            self.w("if type(x) is int:")
            self.w(f"t = x {op} 0", 1)
            self.w("else:")
            self.bail(i, 1)
            return
        self.w("if type(x) is int and type(y) is int:")
        self.w(f"t = x {op} y", 1)
        self.w("else:")
        self.bail(i, 1)

    def _mem_ref(self, i: int, a: int, kind) -> None:
        """Load ``regs[a]`` into ``o`` and bail unless it is a ``kind``
        guest reference (null and junk replay on the handler, which
        raises/aborts exactly like the slow path)."""
        self.w(f"o = regs[{a}]")
        self.w(f"if not isinstance(o, {kind}):")
        self.bail(i, 1)

    # -- per-uop templates ------------------------------------------------
    def emit_uop(self, i: int, instr) -> None:
        op = instr.op
        regioned = self.regioned
        shift = self.profile.line_shift
        inc = (1, 0, 0, 0, 0)

        if op is MOp.CONST or op is MOp.CONST_NULL or op is MOp.CONST_CLASS:
            value = (instr.imm if op is MOp.CONST
                     else None if op is MOp.CONST_NULL else instr.cls)
            self.w(f"regs[{instr.dst}] = {value!r}")
            self.tick(i, "None")

        elif op is MOp.MOV:
            self.w(f"regs[{instr.dst}] = regs[{instr.a}]")
            self.tick(i, "None")

        elif op in (MOp.ADD, MOp.SUB, MOp.MUL, MOp.AND, MOp.OR, MOp.XOR,
                    MOp.SHL, MOp.SHR, MOp.DIV, MOp.MOD):
            self.w(f"x = regs[{instr.a}]")
            self.w(f"y = regs[{instr.b}]")
            zero = " or y == 0" if op in (MOp.DIV, MOp.MOD) else ""
            self.w(f"if type(x) is not int or type(y) is not int{zero}:")
            self.bail(i, 1)
            if op is MOp.ADD:
                self._wrap_store(instr.dst, "x + y")
            elif op is MOp.SUB:
                self._wrap_store(instr.dst, "x - y")
            elif op is MOp.MUL:
                self._wrap_store(instr.dst, "x * y")
            elif op is MOp.AND:
                # Bitwise ops on in-range operands stay in range.
                self.w(f"regs[{instr.dst}] = x & y")
            elif op is MOp.OR:
                self.w(f"regs[{instr.dst}] = x | y")
            elif op is MOp.XOR:
                self.w(f"regs[{instr.dst}] = x ^ y")
            elif op is MOp.SHL:
                self._wrap_store(instr.dst, "x << (y & 63)")
            elif op is MOp.SHR:
                self.w(f"regs[{instr.dst}] = x >> (y & 63)")
            elif op is MOp.DIV:
                self.w(f"regs[{instr.dst}] = _gdiv(x, y)")
            else:
                self.w(f"regs[{instr.dst}] = _gmod(x, y)")
            self.tick(i, "None")

        elif op is MOp.CLASSOF:
            self.w(f"o = regs[{instr.a}]")
            self.w("if isinstance(o, GuestObject):")
            self.w(f"regs[{instr.dst}] = o.class_name", 1)
            self.w("elif isinstance(o, GuestArray):")
            self.w(f"regs[{instr.dst}] = '[array]'", 1)
            self.w("else:")
            self.bail(i, 1)
            inc = (1, 1, 0, 0, 0)
            if regioned:
                self.w(f"rl.add(o.base >> {shift})")
            self.tick(i, "o.base")
            self.hw_check(i, inc)

        elif op is MOp.LOADF or op is MOp.STOREF:
            self._mem_ref(i, instr.a, "GuestObject")
            self.w(f"n = o.field_index.get({instr.fieldname!r})")
            self.w("if n is None:")
            self.bail(i, 1)
            mem = "o.base + 16 + n * 8"
            if op is MOp.LOADF:
                inc = (1, 1, 0, 0, 0)
                if regioned:
                    self.w(f"m = {mem}")
                    self.w(f"rl.add(m >> {shift})")
                    self.w("b0 = sb.get((id(o), 'f', n))")
                    self.w(f"regs[{instr.dst}] = "
                           "o.slots[n] if b0 is None else b0[2]")
                    self.tick(i, "m")
                else:
                    self.w(f"regs[{instr.dst}] = o.slots[n]")
                    self.tick(i, mem)
            else:
                inc = (1, 0, 1, 0, 0)
                if regioned:
                    self.w(f"m = {mem}")
                    self.w(f"sb[(id(o), 'f', n)] = (o, n, regs[{instr.b}])")
                    self.w(f"wl.add(m >> {shift})")
                    self.tick(i, "m")
                else:
                    self.w(f"o.slots[n] = regs[{instr.b}]")
                    self.tick(i, mem)
            self.hw_check(i, inc)

        elif op is MOp.LOADA or op is MOp.STOREA:
            self._mem_ref(i, instr.a, "GuestArray")
            self.w(f"x = regs[{instr.b}]")
            self.w("vs = o.values")
            self.w("if type(x) is not int or x < 0 or x >= len(vs):")
            self.bail(i, 1)
            mem = "o.base + 24 + x * 8"
            if op is MOp.LOADA:
                inc = (1, 1, 0, 0, 0)
                if regioned:
                    self.w(f"m = {mem}")
                    self.w(f"rl.add(m >> {shift})")
                    self.w("b0 = sb.get((id(o), 'a', x))")
                    self.w(f"regs[{instr.dst}] = "
                           "vs[x] if b0 is None else b0[2]")
                    self.tick(i, "m")
                else:
                    self.w(f"regs[{instr.dst}] = vs[x]")
                    self.tick(i, mem)
            else:
                inc = (1, 0, 1, 0, 0)
                if regioned:
                    self.w(f"m = {mem}")
                    self.w(f"sb[(id(o), 'a', x)] = (o, x, regs[{instr.c}])")
                    self.w(f"wl.add(m >> {shift})")
                    self.tick(i, "m")
                else:
                    self.w(f"vs[x] = regs[{instr.c}]")
                    self.tick(i, mem)
            self.hw_check(i, inc)

        elif op is MOp.LOADLEN:
            self._mem_ref(i, instr.a, "GuestArray")
            inc = (1, 1, 0, 0, 0)
            if regioned:
                self.w(f"rl.add((o.base + 16) >> {shift})")
            self.w(f"regs[{instr.dst}] = o.length")
            self.tick(i, "o.base + 16")
            self.hw_check(i, inc)

        elif op is MOp.LOADLOCK:
            # The SLE'd monitor-enter probe: one tracked load of the
            # lock word, result 1 iff another thread holds the monitor.
            self._mem_ref(i, instr.a, "GuestObject")
            inc = (1, 1, 0, 0, 1)
            if regioned:
                self.w(f"rl.add((o.base + 8) >> {shift})")
            self.w("lo = o.lock.owner")
            self.w(f"regs[{instr.dst}] = "
                   "0 if lo is None or lo == fr.tid else 1")
            self.tick(i, "o.base + 8")
            self.hw_check(i, inc)

        elif op is MOp.LOADSPILL:
            inc = (1, 1, 0, 0, 0)
            self.w(f"regs[{instr.dst}] = spill[{instr.imm}]")
            self.tick(i, f"sbase + {instr.imm * 8}")

        elif op is MOp.STORESPILL:
            inc = (1, 0, 1, 0, 0)
            self.w(f"spill[{instr.imm}] = regs[{instr.a}]")
            self.tick(i, f"sbase + {instr.imm * 8}")

        elif op is MOp.LOADG:
            self.w(f"regs[{instr.dst}] = 0")
            if instr.imm is not None:
                inc = (1, 1, 0, 0, 0)
            self.tick(i, repr(instr.imm))

        elif op is MOp.NEWOBJ:
            self.w(f"o = mach.heap.new_object({instr.cls!r}, "
                   f"mach.program.field_layout({instr.cls!r}))")
            self.w(f"regs[{instr.dst}] = o")
            if regioned:
                self.w("region.allocs.append(o)")
            self.tick(i, "None")

        elif op is MOp.NEWARR:
            self.w(f"x = regs[{instr.a}]")
            self.w("if type(x) is not int or x < 0:")
            self.bail(i, 1)
            self.w("o = mach.heap.new_array(x)")
            self.w(f"regs[{instr.dst}] = o")
            if regioned:
                self.w("region.allocs.append(o)")
            self.tick(i, "None")

        elif op is MOp.JMP:
            self.flush(0, inc)
            self.tick(i, "None")
            self.w(f"return {instr.target}")

        elif op is MOp.BR or op is MOp.BR_ABORT:
            inc = (1, 0, 0, 1, 0)
            self._cond(i, instr.cond, instr.a, instr.b)
            if self.timed:
                self.w(f"if not T.branch(cbase + {i}, t):")
                self.w("st.mispredicts += 1", 1)
            self.w("if t:")
            self.flush(1, inc)
            self.tick(i, "None", 1)
            self.w(f"return {instr.target}", 1)
            self.flush(0, inc)
            self.tick(i, "None")
            self.w(f"return {i + 1}")

        elif op is MOp.BR_TRAP:
            inc = (1, 0, 0, 1, 0)
            self._cond(i, instr.cond, instr.a, instr.b)
            if self.timed:
                self.w(f"if not T.branch(cbase + {i}, t):")
                self.w("st.mispredicts += 1", 1)
            self.w("if t:")
            self.flush(1, inc)
            if regioned:
                # Hardware fault inside a region: abort without ticking
                # the faulting uop, exactly like the slow path's handler.
                self.w(f"return mach._fast_exception(fr, {i})", 1)
            else:
                self.w(f"raise _te(I[{i}])", 1)
            self.tick(i, "None")

        else:  # pragma: no cover - guarded by FUSABLE_MOPS
            raise AssertionError(f"cannot fuse {op}")

        self.u += inc[0]
        self.l += inc[1]
        self.s += inc[2]
        self.b += inc[3]
        self.m += inc[4]

    def finish(self, end: int) -> None:
        """Fall-through exit: flush everything and hand the next pc
        (an unfusable uop's handler or the next run) back to the loop."""
        self.flush(0)
        self.w(f"return {end}")


def _emit_fn(compiled: CompiledMethod, start: int, end: int,
             profile: JitProfile, timed: bool) -> list[str]:
    instrs = compiled.instrs
    ops = {instrs[i].op for i in range(start, end)}
    uses_spill = bool(ops & _SPILLY)
    uses_mem = bool(ops & _MEM_TRACK)
    terminated = instrs[end - 1].op in (MOp.BR, MOp.JMP, MOp.BR_ABORT)

    name = f"_f{start}_{'t' if timed else 'u'}"
    out = [f"def {name}(fr):"]
    pre = ["mach = fr.machine", "st = fr.stats", "regs = fr.regs"]
    if uses_spill:
        pre.append("spill = fr.spill")
    if timed:
        pre.append("T = fr.timing")
        if ops & _BRANCHY:
            pre.append("cbase = fr.code_base")
        if uses_spill:
            pre.append("sbase = fr.spill_base")
    pre.append("region = fr.region")
    out += ["    " + stmt for stmt in pre]

    out.append("    if region is None:")
    plain = _Body(False, timed, profile, 2)
    for i in range(start, end):
        plain.emit_uop(i, instrs[i])
    if not terminated:
        plain.finish(end)
    out += plain.lines

    if uses_mem:
        out.append("    rl = region.read_lines")
        out.append("    wl = region.write_lines")
        out.append("    sb = region.store_buffer")
        if profile.fallback_begin:
            out.append("    fbl = mach.fallback_lock")
    region = _Body(True, timed, profile, 1)
    for i in range(start, end):
        region.emit_uop(i, instrs[i])
    if not terminated:
        region.finish(end)
    out += region.lines
    return out


def _source_header(compiled: CompiledMethod, profile: JitProfile,
                   runs: list) -> list[str]:
    return [
        f"# template-jit: {compiled.name}",
        f"# profile: line_shift={profile.line_shift} "
        f"line_limit={profile.region_line_limit} "
        f"store_bound={profile.store_bound} "
        f"cache_shaped={profile.cache_shaped} "
        f"fallback_begin={profile.fallback_begin}",
        f"# fused runs: {runs}",
    ]


def _variant_source(compiled: CompiledMethod, profile: JitProfile,
                    runs: list, timed: bool) -> str:
    """One timing variant's module source (what actually gets
    host-compiled; half of :func:`jit_source`)."""
    parts = _source_header(compiled, profile, runs)
    for start, end in runs:
        parts.append("")
        parts.extend(_emit_fn(compiled, start, end, profile, timed))
    return "\n".join(parts) + "\n"


def jit_source(compiled: CompiledMethod, profile: JitProfile) -> str:
    """The full generated module source for ``compiled`` under
    ``profile``, both variants interleaved per run (deterministic;
    pinned by the golden-source test)."""
    runs = fused_runs(compiled)
    parts = _source_header(compiled, profile, runs)
    for start, end in runs:
        for timed in (False, True):
            parts.append("")
            parts.extend(_emit_fn(compiled, start, end, profile, timed))
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Compilation and caching
# ---------------------------------------------------------------------------

#: how many code objects :func:`_code_for` keeps, least recently used
#: going first.  Repeats of a source come close together (the samples of
#: one cell, the cells of one method under several hardware configs):
#: over all figure cells and the steady windows' set-up, 8 entries
#: already catch every repeat.  A larger memo would only keep the code of
#: finished VMs alive, and a long-lived process must not grow it.
_CODE_MEMO_CAP = 8

#: sha256 of a variant's source -> its host code object.
_code_memo: OrderedDict[bytes, CodeType] = OrderedDict()
_code_memo_lock = threading.Lock()


def _code_for(source: str, filename: str) -> CodeType:
    """``compile(source)``, memoized by the source's digest.

    The same method compiled in another VM, or for another hardware
    config with the same :class:`JitProfile`, emits identical source.
    Only the code object is shared: every caller still ``exec()``s it
    into a namespace of its own.  ``filename`` is a function of the
    source (the header names the method, the function names the
    variant), so a shared code object reports the same file as a fresh
    one.
    """
    key = hashlib.sha256(source.encode()).digest()
    with _code_memo_lock:
        code = _code_memo.get(key)
        if code is not None:
            _code_memo.move_to_end(key)
            return code
    code = compile(source, filename, "exec")
    with _code_memo_lock:
        _code_memo[key] = code
        if len(_code_memo) > _CODE_MEMO_CAP:
            _code_memo.popitem(last=False)
    return code


def _build_table(jm: JittedMethod, timed: bool) -> list:
    """Emit and ``exec()`` one variant of the fused source into a fresh
    namespace (compiling it only on a memo miss); returns its
    pc-indexed dispatch table."""
    compiled = jm._compiled
    source = _variant_source(compiled, jm.profile, jm.runs, timed)
    namespace = {
        "H": jm._handlers,
        "I": tuple(compiled.instrs),
        "MC": machine_compare,
        "GuestObject": GuestObject,
        "GuestArray": GuestArray,
        "GuestError": GuestError,
        "_wi": wrap_int,
        "_gdiv": guest_div,
        "_gmod": guest_mod,
        "_te": _trap_error,
    }
    variant = "t" if timed else "u"
    exec(_code_for(source, f"<jit:{compiled.name}:{variant}>"), namespace)
    table = list(jm._handlers)
    for start, _end in jm.runs:
        table[start] = namespace[f"_f{start}_{variant}"]
    return table


def jit_compile(compiled: CompiledMethod, machine) -> JittedMethod:
    """Build the fused form of ``compiled`` for ``machine``'s profile
    and install it on the code object (the same cache slot
    ``disable_region``/recompile drop).  Variant tables compile lazily
    on first :meth:`JittedMethod.table` call."""
    profile = jit_profile(machine)
    pre = get_predecoded(compiled, profile.line_shift)
    jm = JittedMethod(
        profile=profile, runs=fused_runs(compiled),
        _compiled=compiled, _handlers=pre.handlers,
    )
    compiled._jitted = jm
    return jm


def get_jitted(compiled: CompiledMethod, machine) -> JittedMethod:
    """Return the cached fused form, rebuilding when the cache is stale
    (dropped by ``disable_region``/``invalidate_predecode``) or built
    for a different machine profile."""
    jm = compiled._jitted
    if jm is None or jm.profile != machine._jit_profile:
        jm = jit_compile(compiled, machine)
    return jm
