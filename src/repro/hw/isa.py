"""The simulated machine ISA, including the paper's three extensions.

Machine code is a linear list of :class:`MInstr` (micro-operation-level
instructions) produced by :mod:`repro.hw.codegen`.  Because the guest heap
is an object heap rather than flat memory, memory uops are typed
(field/array/lock-word/length accesses) but still carry real simulated byte
addresses, which is what the cache model, the atomic region's read/write-set
tracking, and the footprint statistics consume.

The atomic-region extensions follow §3.2 of the paper exactly:

- ``AREGION_BEGIN <alt>`` — checkpoint registers, start buffering stores and
  tracking the read/write sets, and remember the alternate (recovery) PC;
- ``AREGION_END`` — commit the region's stores atomically;
- ``AREGION_ABORT`` — roll back and transfer control to the alternate PC;
  the abort reason and the aborting instruction's PC are exposed to software
  through two registers (modeled as fields on the machine), which is what
  enables adaptive recompilation.

Abort *delivery* additionally comes in two commercial-ISA flavours
(selected by :attr:`repro.hw.config.HardwareConfig.abort_delivery`):

- **handler** (Intel RTM-style): control lands on the alternate PC with
  the numeric reason code (:data:`ABORT_REASON_CODES`) and a retry hint
  (:data:`RETRYABLE_REASONS`) in architectural registers — the handler's
  "argument";
- **setjmp** (Power/z-style): control re-lands on the ``AREGION_BEGIN``
  itself with a condition code set; the begin then branches to the
  software path instead of opening a region, like a ``tbegin.`` that
  "returns twice".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class MOp(enum.Enum):
    # ALU (1-cycle latency; MUL/DIV longer).
    CONST = enum.auto()       # dst <- imm
    CONST_NULL = enum.auto()  # dst <- null
    MOV = enum.auto()         # dst <- a
    ADD = enum.auto()
    SUB = enum.auto()
    MUL = enum.auto()
    DIV = enum.auto()
    MOD = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    SHL = enum.auto()
    SHR = enum.auto()
    CLASSOF = enum.auto()     # dst <- class word of a (a load, header cycle)
    CONST_CLASS = enum.auto()  # dst <- class metadata handle

    # Memory.
    LOADF = enum.auto()       # dst <- a.field
    STOREF = enum.auto()      # a.field <- b
    LOADA = enum.auto()       # dst <- a[b]      (machine faults on bad idx)
    STOREA = enum.auto()      # a[b] <- c
    LOADLEN = enum.auto()     # dst <- a.length
    LOADLOCK = enum.auto()    # dst <- lock word of a (0 free/self, 1 other)
    STORELOCK = enum.auto()   # lock-word update: imm=+1 enter, -1 exit
    LOADSPILL = enum.auto()   # dst <- spill slot imm
    STORESPILL = enum.auto()  # spill slot imm <- a
    LOADG = enum.auto()       # dst <- global cell imm (safepoint flag)

    # Atomic read-modify-write (one uop: load + ALU + store, serialized
    # through the store port like a lock-word update).
    FAA = enum.auto()         # dst <- a.field; a.field <- dst + b
    CAS = enum.auto()         # dst <- (a.field == b); if dst: a.field <- c
    LL = enum.auto()          # dst <- a.field, reserving the address
    SC = enum.auto()          # dst <- reservation held; if dst: a.field <- b

    # Allocation.
    NEWOBJ = enum.auto()      # dst <- new cls
    NEWARR = enum.auto()      # dst <- new array of length a

    # Control.
    BR = enum.auto()          # fused compare+branch: if cond(a, b) goto target
    JMP = enum.auto()
    RET = enum.auto()         # return a (or nothing)
    BR_TRAP = enum.auto()     # safety check: if cond(a, b) -> guest trap
                              # (inside a region: abort with reason "exception")
    BR_ABORT = enum.auto()    # assert: if cond(a, b) goto abort stub target

    # Calls bridge to the VM (tiered dispatch decides interp vs compiled).
    CALLVM = enum.auto()      # dst <- call method(args...)
    VCALLVM = enum.auto()     # dst <- virtual call a.method(args...)

    # Atomic-region extensions.
    AREGION_BEGIN = enum.auto()   # target = alternate (recovery) pc
    AREGION_END = enum.auto()
    AREGION_ABORT = enum.auto()   # imm = abort_id


#: uops whose result comes from memory (timing: cache access).
LOAD_MOPS = frozenset({
    MOp.LOADF, MOp.LOADA, MOp.LOADLEN, MOp.LOADLOCK, MOp.LOADSPILL, MOp.LOADG,
    MOp.CLASSOF,
})

STORE_MOPS = frozenset({MOp.STOREF, MOp.STOREA, MOp.STORELOCK, MOp.STORESPILL})

#: Atomic read-modify-write uops.  Deliberately in NEITHER ``LOAD_MOPS``
#: nor ``STORE_MOPS``: they touch both ports and the timing model gives
#: them the serialized RMW treatment explicitly (like ``STORELOCK``),
#: leaving every pre-existing load/store path byte-identical.
ATOMIC_MOPS = frozenset({MOp.FAA, MOp.CAS, MOp.LL, MOp.SC})

BRANCH_MOPS = frozenset({MOp.BR, MOp.BR_TRAP, MOp.BR_ABORT, MOp.JMP})

#: Architectural abort-reason encoding (the value software sees in the
#: abort-code register / setjmp condition code; 0 means "no abort").
ABORT_REASON_CODES = {
    "assert": 1,
    "exception": 2,
    "sle": 3,
    "conflict": 4,
    "overflow": 5,
    "interrupt": 6,
    "capacity": 7,
}

#: Reasons for which the hardware hints that a retry may succeed (the
#: RTM ``_XABORT_RETRY`` analog): transient conditions only.  Capacity and
#: overflow are *deterministic* for a given region footprint — retrying
#: the same region against the same bound re-aborts — so they hint "take
#: the software path".
RETRYABLE_REASONS = frozenset({"conflict", "interrupt"})

#: Hardware-originated reasons that escalate to the global fallback lock
#: (when a fallback mode is configured): the region cannot make progress
#: speculatively, so its recovery pass serializes.  Software-originated
#: aborts (assert/exception/sle) re-execute their precise slow path and
#: need no mutual exclusion.
HW_ESCALATION_REASONS = frozenset(
    {"conflict", "overflow", "interrupt", "capacity"}
)

#: Execution latencies for non-memory uops (cycles).
ALU_LATENCY = {
    MOp.MUL: 3,
    MOp.DIV: 20,
    MOp.MOD: 20,
}
DEFAULT_LATENCY = 1


@dataclass
class MInstr:
    """One machine instruction (uop)."""

    op: MOp
    dst: int | None = None
    a: int | None = None
    b: int | None = None
    c: int | None = None
    imm: int | None = None
    cond: str | None = None
    target: int | None = None          # instruction index
    fieldname: str | None = None
    cls: str | None = None
    method: str | None = None
    args: tuple[int, ...] = ()
    #: diagnostics: bytecode pc / abort id this uop derives from.
    src_pc: int | None = None
    abort_id: int | None = None
    #: static timing facts (:func:`repro.hw.timing.uop_timing`), derived
    #: once from the final, post-register-allocation fields; not part of
    #: value semantics.
    timing: object = field(default=None, init=False, repr=False,
                           compare=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.op.name.lower()]
        if self.dst is not None:
            parts.append(f"r{self.dst}<-")
        for r in (self.a, self.b, self.c):
            if r is not None:
                parts.append(f"r{r}")
        if self.cond:
            parts.append(self.cond)
        if self.imm is not None:
            parts.append(str(self.imm))
        if self.fieldname:
            parts.append("." + self.fieldname)
        if self.method:
            parts.append(self.method)
        if self.target is not None:
            parts.append(f"->@{self.target}")
        return " ".join(parts)


@dataclass
class CompiledMethod:
    """Machine code plus the metadata the runtime needs."""

    name: str
    num_params: int
    instrs: list[MInstr] = field(default_factory=list)
    num_regs: int = 32
    num_spill_slots: int = 0
    #: abort_id -> (bytecode pc, region id) for adaptive recompilation.
    abort_sites: dict[int, tuple[int | None, int]] = field(default_factory=dict)
    #: region id -> entry instruction index (for statistics).
    region_entries: dict[int, int] = field(default_factory=dict)
    #: distinguishes code compiled with/without atomic regions in reports.
    uses_regions: bool = False
    #: region ids patched to permanent non-speculative fallback: their
    #: ``aregion_begin`` jumps straight to the alt-PC (forward-progress
    #: escalation).  The patch is a *durable* forward-progress decision:
    #: recompilation carries it over to the new code object (the VM copies
    #: the surviving region ids across), so a region that exhausted its
    #: abort budget never speculates again.  Patch through
    #: :meth:`disable_region` so the pre-decoded dispatch cache is
    #: invalidated alongside the patch.
    disabled_regions: set = field(default_factory=set)
    #: cached pre-decoded dispatch form (:mod:`repro.hw.codegen`'s
    #: ``predecode``); not part of value semantics.
    _predecoded: object = field(default=None, repr=False, compare=False)
    #: cached template-jit dispatch form (:mod:`repro.hw.templatejit`'s
    #: ``jit_compile``); dropped together with ``_predecoded``.
    _jitted: object = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.instrs)

    def disable_region(self, region_id: int) -> None:
        """Patch ``region_id`` to its permanent non-speculative fallback.

        Mutating :attr:`disabled_regions` changes what the installed code
        *does* at the region's ``aregion_begin``, so any pre-decoded
        dispatch form built from the old code is stale; this is the one
        sanctioned patch point and it drops that cache atomically with
        the patch.
        """
        self.disabled_regions.add(region_id)
        self.invalidate_predecode()

    def invalidate_predecode(self) -> None:
        """Drop every cached installed-code form (pre-decoded arrays and
        template-jit fused functions); both rebuild lazily from the
        patched code on the next fast-path activation."""
        self._predecoded = None
        self._jitted = None
