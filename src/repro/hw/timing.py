"""Trace-driven out-of-order timing model.

A scoreboard approximation of the paper's detailed uop-level simulator
(Table 1): uops are fetched at ``fetch_width`` per cycle, held back by
instruction-window (ROB) occupancy, issue when their register inputs are
ready (register renaming is implicit: only true dependences are tracked),
complete after an execution latency (loads consult the two-level cache
hierarchy), and retire in order at ``retire_width`` per cycle.  Branches are
predicted by the gshare+bimodal combiner; mispredictions insert the Table-1
20-cycle bubble after branch resolution.

Atomic-region costs follow §6.3 / Figure 9:

- the baseline checkpoint substrate executes ``aregion_begin`` with no
  stall (a rename-table checkpoint);
- the "+20-cycle" configuration stalls the front end at every begin;
- the "single-inflight" configuration stalls a begin at decode until the
  previous region's commit retires;
- an abort drains the pipeline like a branch mispredict.

Per-uop work is kept to the dynamic part.  Everything the model needs to
know about a uop that does not change between executions — the source
registers it waits on, its kind (ALU, load, store, atomic RMW), whether
it is a lock-word store, its base latency and its destination — is
derived once into a :class:`UopTiming` descriptor stored on the
:class:`~repro.hw.isa.MInstr`.  Code generation derives it right after
register allocation (which rewrites the register fields); hand-assembled
code gets it on its first timed execution.  :meth:`TimingModel.uop` is
the one entry point for all three dispatch tiers and reads only the
descriptor and the memory address.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import NamedTuple

from .branchpred import CombiningPredictor
from .cache import MemoryHierarchy
from .config import BASELINE_4WIDE, HardwareConfig
from .isa import (
    ALU_LATENCY,
    ATOMIC_MOPS,
    DEFAULT_LATENCY,
    LOAD_MOPS,
    MInstr,
    MOp,
    STORE_MOPS,
)

#: cycles charged per interpreted bytecode (tier-0 execution).
INTERPRETER_CYCLES_PER_BYTECODE = 12

#: lock-word update latency: reservation-lock stores behave like lightweight
#: RMW operations on the monitor word.
LOCK_STORE_LATENCY = 16

#: front-end serialization charged at a VM call boundary.
CALL_BOUNDARY_CYCLES = 4

#: execution kinds of a :class:`UopTiming`.
ALU, LOAD, STORE, ATOMIC = range(4)


class UopTiming(NamedTuple):
    """The static timing facts of one uop (its timing descriptor)."""

    #: registers whose values the uop waits for (deduplicated).
    srcs: tuple[int, ...]
    #: ``ALU``, ``LOAD``, ``STORE`` or ``ATOMIC`` (read-modify-write).
    kind: int
    #: a lock-word store: serializes on the line like an RMW.
    storelock: bool
    #: execution latency; a load with an address takes the cache's.
    latency: int
    #: register the result lands in.
    dst: int | None


def uop_timing(instr: MInstr) -> UopTiming:
    """Derive ``instr``'s descriptor from its current fields.

    Register allocation rewrites ``a``/``b``/``c``/``dst``/``args``, so
    code generation derives descriptors only after it (see
    :meth:`repro.hw.codegen.CodeGenerator.generate`).
    """
    op = instr.op
    regs = (instr.a, instr.b, instr.c, *instr.args)
    srcs = tuple(dict.fromkeys(r for r in regs if r is not None and r >= 0))
    if op in STORE_MOPS:
        kind = STORE
        latency = LOCK_STORE_LATENCY if op is MOp.STORELOCK else 1
    elif op in ATOMIC_MOPS:
        kind = ATOMIC
        latency = LOCK_STORE_LATENCY
    else:
        # A load without an address times like an ALU uop.
        kind = LOAD if op in LOAD_MOPS else ALU
        latency = ALU_LATENCY.get(op, DEFAULT_LATENCY)
    return _shared(UopTiming(srcs, kind, op is MOp.STORELOCK, latency,
                             instr.dst))


@lru_cache(maxsize=4096)
def _shared(desc: UopTiming) -> UopTiming:
    """One instance per distinct descriptor.  Identical uops are common
    (one workload's methods compile alike in every VM), so sharing
    keeps descriptors from adding per-instruction memory."""
    return desc


class TimingModel:
    """One instance per measured execution sample."""

    def __init__(self, config: HardwareConfig = BASELINE_4WIDE) -> None:
        self.config = config
        self.memory = MemoryHierarchy(config)
        self.predictor = CombiningPredictor(
            config.gshare_entries, config.bimodal_entries
        )
        self._reg_ready = [0.0] * 64
        #: completion time of the last store per address: loads depend on it
        #: (store→load forwarding through the store buffer).  Lock-word
        #: updates carry an atomic-RMW-class latency, so the baseline's
        #: monitor enter/exit chains serialize exactly as §3.3 describes —
        #: the serialization SLE removes.
        self._store_ready: dict[int, float] = {}
        self._fetch_cycle = 0.0
        self._fetched_this_cycle = 0
        self._retire_cycle = 0.0
        self._retired_this_cycle = 0
        #: completion times of uops still in the window (ROB occupancy).
        self._window: deque[float] = deque()
        self._pending_mispredict = False
        self._last_region_commit = 0.0
        self._record_commit_next = False
        self.uops = 0
        # Config fields read on every uop.
        self._window_size = config.instruction_window
        self._fetch_width = config.fetch_width
        self._retire_width = config.retire_width
        self._mispredict_penalty = config.branch_mispredict_penalty

    # -- per-uop processing ------------------------------------------------
    def branch(self, pc: int, taken: bool) -> bool:
        """Predict/train the branch at ``pc``; returns prediction success."""
        correct = self.predictor.predict_and_update(pc, taken)
        if not correct:
            self._pending_mispredict = True
        return correct

    def uop(self, instr: MInstr, mem_address: int | None) -> None:
        """Account one retired uop."""
        desc = instr.timing
        if desc is None:
            # Hand-assembled code; generated code carries its descriptors.
            desc = instr.timing = uop_timing(instr)
        srcs, kind, storelock, latency, dst = desc
        self.uops += 1

        # Fetch: width-limited, gated by window occupancy.
        window = self._window
        fetch = self._fetch_cycle
        fetched = self._fetched_this_cycle
        if len(window) >= self._window_size:
            oldest = window.popleft()
            if oldest > fetch:
                fetch = oldest
                fetched = 0
        if fetched >= self._fetch_width:
            fetch += 1.0
            fetched = 0
        fetched += 1

        # Issue: wait for register inputs.
        ready = fetch
        reg_ready = self._reg_ready
        for src in srcs:
            r = reg_ready[src]
            if r > ready:
                ready = r

        # Execute: an ALU uop takes its descriptor's latency as is.
        if kind == LOAD:
            if mem_address is not None:
                forwarded = self._store_ready.get(mem_address)
                if forwarded is not None and forwarded > ready:
                    ready = forwarded  # store-to-load dependency
                latency = self.memory.access(mem_address)
        elif kind == STORE:
            if mem_address is not None:
                self.memory.access(mem_address)
                store_ready = self._store_ready
                if storelock:
                    # RMW semantics: lock-word updates serialize on the
                    # line — the monitor-chain cost SLE removes (§3.3,
                    # §6.1).
                    prior = store_ready.get(mem_address)
                    if prior is not None and prior > ready:
                        ready = prior
                store_ready[mem_address] = ready + latency
        elif kind == ATOMIC and mem_address is not None:
            # Atomic RMW: one cache access, lock-class latency, and full
            # serialization against prior RMWs/stores on the same address —
            # contended FAA/CAS chains cost what a lock-word chain costs.
            self.memory.access(mem_address)
            store_ready = self._store_ready
            prior = store_ready.get(mem_address)
            if prior is not None and prior > ready:
                ready = prior
            store_ready[mem_address] = ready + latency
        complete = ready + latency

        if dst is not None:
            reg_ready[dst] = complete

        # In-order retirement at retire_width per cycle.
        retire = self._retire_cycle
        if complete > retire:
            retire = complete
            retired = 1
        else:
            retired = self._retired_this_cycle + 1
            if retired >= self._retire_width:
                retire += 1.0
                retired = 0
        self._retire_cycle = retire
        self._retired_this_cycle = retired
        window.append(retire)

        if self._record_commit_next:
            self._last_region_commit = retire
            self._record_commit_next = False

        # Branch misprediction bubble: fetch resumes after resolution.
        if self._pending_mispredict:
            self._pending_mispredict = False
            resume = complete + self._mispredict_penalty
            if resume > fetch:
                fetch = resume
            fetched = 0
        self._fetch_cycle = fetch
        self._fetched_this_cycle = fetched

    # -- region events --------------------------------------------------------
    def region_begin(self) -> None:
        if self.config.aregion_begin_stall:
            self._fetch_cycle += self.config.aregion_begin_stall
            self._fetched_this_cycle = 0
        if self.config.single_inflight_regions:
            if self._last_region_commit > self._fetch_cycle:
                self._fetch_cycle = self._last_region_commit
                self._fetched_this_cycle = 0

    def region_end(self) -> None:
        # The commit time is the retirement of the next uop (the END itself
        # is processed via uop() right after this call).
        self._record_commit_next = True

    def region_abort(self) -> None:
        """Aborts flush the pipeline like a mispredict."""
        self._fetch_cycle = max(
            self._fetch_cycle,
            self._retire_cycle + self.config.branch_mispredict_penalty,
        )
        self._fetched_this_cycle = 0
        self._last_region_commit = self._fetch_cycle

    def stall(self, cycles: float) -> None:
        """Freeze the front end for ``cycles`` (conflict-retry backoff)."""
        self._fetch_cycle = max(self._fetch_cycle, self._retire_cycle) + cycles
        self._fetched_this_cycle = 0

    def call_boundary(self) -> None:
        """VM call bridge: light front-end serialization."""
        self._fetch_cycle = max(self._fetch_cycle, self._retire_cycle)
        self._fetch_cycle += CALL_BOUNDARY_CYCLES
        self._fetched_this_cycle = 0

    def add_interpreter_cycles(self, bytecodes: int) -> None:
        """Charge tier-0 interpreter execution (serial)."""
        cost = bytecodes * INTERPRETER_CYCLES_PER_BYTECODE
        base = max(self._fetch_cycle, self._retire_cycle) + cost
        self._fetch_cycle = base
        self._retire_cycle = base
        self._fetched_this_cycle = 0
        self._retired_this_cycle = 0

    # -- results -----------------------------------------------------------------
    @property
    def cycles(self) -> float:
        return max(self._fetch_cycle, self._retire_cycle)
