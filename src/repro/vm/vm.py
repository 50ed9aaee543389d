"""The tiered virtual machine: profiling interpreter + optimizing compiler
+ simulated hardware.

Execution starts in the tier-0 interpreter, which gathers the profiles the
tier-1 compiler consumes.  Methods whose invocation count crosses the
compile threshold are compiled (per the active :class:`CompilerConfig`) and
subsequently run on the simulated machine, including their atomic regions.

For deterministic experiments, the harness drives the tiers explicitly:
``warm_up`` interprets until profiles exist, ``compile_hot`` installs
machine code, ``start_measurement`` resets the statistics and the timing
model, and the measured calls then run on the final code, exactly like the
paper's marker-delimited samples.

Warm-up is pure tier-0 profiling, so its outcome is a function of the
program, the entry and the warm-up arguments alone.  A process-wide
store (:data:`WARM_SNAPSHOTS`) keeps the post-warm-up heap, profiles and
interpreter counters keyed by the sha256 of exactly those inputs; a
*pristine* VM warming up on a stored input restores a fresh copy instead
of interpreting (DESIGN.md "Warm-up snapshots").  Every other VM
interprets as before.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..faults import FaultInjector, FaultPlan
from ..hw.config import BASELINE_4WIDE, HardwareConfig
from ..hw.machine import Machine
from ..hw.stats import ExecStats
from ..hw.timing import INTERPRETER_CYCLES_PER_BYTECODE, TimingModel
from ..lang.bytecode import Method, Program
from ..lang.validate import validate_program
from ..obs.tracer import NULL_TRACER
from ..runtime.errors import VMError
from ..runtime.heap import GuestObject, Heap, Value
from ..runtime.interpreter import Interpreter
from ..runtime.profile import ProfileStore
from ..runtime.sched import DeterministicScheduler, SchedulePlan
from .compiler import CompilationRecord, CompilerConfig, NO_ATOMIC, compile_method


@dataclass
class VMOptions:
    compile_threshold: int = 10
    enable_timing: bool = True
    auto_compile: bool = True
    #: synthetic interrupt period in uops (None = no interrupts).
    interrupt_interval: int | None = None
    #: machine dispatch strategy: "auto" (the fastest observationally
    #: safe tier — template-jit when the hardware config's ``jit_mode``
    #: is "on", else pre-decoded), "jit", "predecoded", or
    #: "interpretive" (always the instrumented slow loop).  See
    #: :class:`repro.hw.machine.Machine`.
    dispatch: str = "auto"


#: how many warm-up snapshots :data:`WARM_SNAPSHOTS` keeps, least
#: recently used going first.  ``figure_cells()`` warms up on 7 distinct
#: inputs (every sample of a benchmark shares one warm-up list), and a
#: snapshot holds 5-35 guest allocations (at most ~0.11 MB), so this
#: never evicts during a figure sweep and bounds a long-lived process.
_WARM_SNAPSHOT_CAP = 32


class WarmSnapshots:
    """A thread-safe LRU of pickled post-warm-up VM state.

    Values are ``pickle.dumps((heap, profiles, bytecodes_executed,
    safepoints_polled))``; every hit unpickles a fresh copy, so no two VMs
    ever share guest objects or profile counters.  ``restores`` and
    ``interpretations`` count the warm-ups served each way.  This holds
    compiler *inputs*, not results: ``experiment.clear_cache()`` leaves it
    alone.
    """

    def __init__(self, cap: int) -> None:
        self._cap = cap
        self._entries: OrderedDict[bytes, bytes] = OrderedDict()
        self._lock = threading.Lock()
        self.restores = 0
        self.interpretations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: bytes) -> bytes | None:
        with self._lock:
            blob = self._entries.get(key)
            if blob is not None:
                self._entries.move_to_end(key)
                self.restores += 1
            return blob

    def put(self, key: bytes, blob: bytes) -> None:
        with self._lock:
            self._entries[key] = blob
            self._entries.move_to_end(key)
            if len(self._entries) > self._cap:
                self._entries.popitem(last=False)

    def count_interpretation(self) -> None:
        with self._lock:
            self.interpretations += 1

    def clear(self) -> None:
        """Drop every snapshot and zero both counters."""
        with self._lock:
            self._entries.clear()
            self.restores = 0
            self.interpretations = 0


#: the store every :meth:`TieredVM.warm_up` consults.
WARM_SNAPSHOTS = WarmSnapshots(_WARM_SNAPSHOT_CAP)


def _method_image(method: Method) -> tuple:
    return (
        method.name, method.owner, method.synchronized,
        method.num_params, method.num_regs,
        tuple(
            (i.op.value, i.dst, i.a, i.b, i.c, i.imm, i.cond, i.target,
             i.cls, i.fieldname, i.method, i.args)
            for i in method.instrs
        ),
    )


def warm_up_key(program: Program, entry: str,
                args_list: list[list[Value]]) -> bytes | None:
    """sha256 over everything a tier-0 warm-up's outcome depends on: the
    program's content (every class with its fields, super and methods;
    every static method; ``program.entry``), the entry name and the
    warm-up arguments.  None (never snapshot) when an argument is not a
    plain integer or null, e.g. a reference into some other heap."""
    for args in args_list:
        for value in args:
            if value is not None and type(value) is not int:
                return None
    image = (
        tuple(
            (key, cls.name, tuple(cls.fields), cls.super_name,
             tuple((name, _method_image(m))
                   for name, m in cls.methods.items()))
            for key, cls in program.classes.items()
        ),
        tuple((name, _method_image(m)) for name, m in program.methods.items()),
        program.entry,
        entry,
        tuple(tuple(args) for args in args_list),
    )
    return hashlib.sha256(repr(image).encode()).digest()


class TieredVM:
    """One guest program + one compiler config + one hardware config."""

    def __init__(
        self,
        program: Program,
        compiler_config: CompilerConfig = NO_ATOMIC,
        hw_config: HardwareConfig = BASELINE_4WIDE,
        options: VMOptions | None = None,
        conflict_injector=None,
        fault_plan: FaultPlan | None = None,
        fault_injector: FaultInjector | None = None,
        validate: bool = True,
        tracer=None,
    ) -> None:
        if validate:
            validate_program(program)
        self.program = program
        self.compiler_config = compiler_config
        self.hw_config = hw_config
        self.options = options if options is not None else VMOptions()
        #: region-lifecycle tracer shared by the machine, the scheduler,
        #: the fault injector, and the adaptive controller.  Defaults to
        #: the null tracer: one attribute check, zero emission.
        self.tracer = tracer if tracer is not None else NULL_TRACER

        self.heap = Heap()
        self.profiles = ProfileStore()
        self.stats = ExecStats()
        self.timing = TimingModel(hw_config) if self.options.enable_timing else None
        self.interpreter = Interpreter(
            program, heap=self.heap, profiles=self.profiles, dispatcher=self
        )
        if fault_injector is not None and fault_plan is not None:
            raise VMError("pass either fault_plan or fault_injector, not both")
        if fault_injector is None and fault_plan is not None:
            fault_injector = FaultInjector(fault_plan)
        self.fault_injector = fault_injector
        if fault_injector is not None:
            if (conflict_injector is not None
                    or self.options.interrupt_interval is not None):
                raise VMError(
                    "legacy conflict_injector/interrupt_interval hooks "
                    "cannot be combined with a fault plan/injector"
                )
            self.machine = Machine(
                program,
                self.heap,
                config=hw_config,
                stats=self.stats,
                timing=self.timing,
                dispatcher=self,
                fault_injector=fault_injector,
                tracer=self.tracer,
                dispatch=self.options.dispatch,
            )
        else:
            self.machine = Machine(
                program,
                self.heap,
                config=hw_config,
                stats=self.stats,
                timing=self.timing,
                dispatcher=self,
                conflict_injector=conflict_injector,
                interrupt_interval=self.options.interrupt_interval,
                tracer=self.tracer,
                dispatch=self.options.dispatch,
            )
            self.fault_injector = self.machine.fault_injector
        self.compiled: dict[str, CompilationRecord] = {}
        #: per-method branch pcs barred from assert conversion (§7 adaptive).
        self.blocked_asserts: dict[str, set[int]] = {}
        self._measuring = False
        self._interp_bytecodes_at_start = 0
        self.compilations = 0

    # -- dispatch -----------------------------------------------------------
    def run(self, entry: str | None = None, args: list[Value] | None = None) -> Value:
        name = entry if entry is not None else self.program.entry
        if name is None:
            raise VMError("program has no entry point")
        method = self.program.resolve_static(name)
        return self.invoke(method, list(args or []))

    def invoke(self, method: Method, args: list[Value]) -> Value:
        qualified = method.qualified_name
        record = self.compiled.get(qualified)
        if record is not None:
            return self.machine.execute(record.compiled, args)
        if (
            self.options.auto_compile
            and self.profiles.method(qualified).invocations
            >= self.options.compile_threshold
        ):
            record = self.compile(method)
            return self.machine.execute(record.compiled, args)
        return self.interpreter.invoke(method, args)

    # -- compilation ---------------------------------------------------------
    def compile(self, method: Method) -> CompilationRecord:
        qualified = method.qualified_name
        blocked = frozenset(self.blocked_asserts.get(qualified, ()))
        record = compile_method(
            self.program, method, self.profiles, self.compiler_config,
            blocked_asserts=blocked,
        )
        previous = self.compiled.get(qualified)
        if previous is not None:
            # Forward-progress patches are durable decisions, not artifacts
            # of one code object: a region that exhausted its abort budget
            # must not resume speculating just because the method was
            # recompiled (adaptively or otherwise).  Carry every surviving
            # region's patch onto the new code.
            for region_id in sorted(previous.compiled.disabled_regions):
                if region_id in record.compiled.region_entries:
                    record.compiled.disable_region(region_id)
        self.compiled[qualified] = record
        # Build the machine's dispatch caches (pre-decode / template-jit
        # host compile) now, while we are still at compile time: the
        # first post-install activation is typically the first *measured*
        # call, and host-compilation cost must not land in the sample.
        self.machine.prepare(record.compiled)
        self.compilations += 1
        if self.tracer.enabled:
            # Tier transition: this method leaves the interpreter for the
            # machine (blocked_asserts > 0 marks an adaptive recompile).
            self.tracer.tier_compile(
                self.machine.uops_executed, qualified, len(blocked),
            )
        return record

    def compile_hot(self, min_invocations: int | None = None) -> list[str]:
        """Compile every sufficiently-invoked method; returns their names."""
        threshold = (
            min_invocations
            if min_invocations is not None
            else self.options.compile_threshold
        )
        names = []
        for method in self.program.all_methods():
            qualified = method.qualified_name
            if qualified in self.compiled:
                continue
            if qualified in self.profiles and (
                self.profiles.method(qualified).invocations >= threshold
            ):
                self.compile(method)
                names.append(qualified)
        return names

    def recompile(self, qualified: str, extra_blocked: set[int]) -> None:
        """Adaptive recompilation: bar the given branch pcs from asserts."""
        self.blocked_asserts.setdefault(qualified, set()).update(extra_blocked)
        method = self._find_method(qualified)
        self.compile(method)

    def _find_method(self, qualified: str) -> Method:
        for method in self.program.all_methods():
            if method.qualified_name == qualified:
                return method
        raise KeyError(qualified)

    # -- multi-threaded execution ---------------------------------------------
    def run_threads(
        self,
        calls: list,
        plan: SchedulePlan | None = None,
    ) -> DeterministicScheduler:
        """Run several guest calls as concurrently-scheduled guest threads.

        ``calls`` is a list of ``(entry, args)`` or ``(entry, args, name)``
        tuples; each becomes one guest thread invoking the named static
        method.  The threads are interleaved by a
        :class:`DeterministicScheduler` seeded from ``plan`` — at most one
        runs at any instant, at switch points drawn from the plan's PRNG, so
        the whole run replays bit-for-bit from the seed.  While attached,
        the scheduler doubles as the coherence fabric: committed stores are
        checked against in-flight atomic regions' read/write sets and
        genuine overlaps abort those regions with reason ``"conflict"``.

        Returns the scheduler: per-thread results/errors are on
        ``sched.threads`` and the interleaving on ``sched.trace``.  The
        first guest error (or a :class:`DeadlockError`) is re-raised after
        the wind-down.  Concurrency counters fold into :attr:`stats`.
        """
        sched = DeterministicScheduler(plan)
        sched.line_shift = self.hw_config.line_shift
        sched.tracer = self.tracer
        self.machine.sched = sched
        self.interpreter.sched = sched
        try:
            for index, call in enumerate(calls):
                entry, args = call[0], call[1]
                name = call[2] if len(call) > 2 else f"{entry}#{index}"
                method = self.program.resolve_static(entry)
                sched.spawn(
                    lambda m=method, a=list(args): self.invoke(m, list(a)),
                    name=name,
                )
            sched.run()
        finally:
            self.machine.sched = None
            self.interpreter.sched = None
            self.stats.context_switches += sched.context_switches
            self.stats.contended_acquisitions += sched.contended_acquisitions
            for thread in sched.threads:
                self.stats.uops_by_thread[thread.tid] += thread.steps
        return sched

    # -- measurement protocol ---------------------------------------------------
    def warm_up(self, entry: str, args_list: list[list[Value]]) -> None:
        """Interpret the workload to build profiles (no stats recorded).

        Auto-compilation is suspended: warm-up is a pure tier-0 profiling
        phase, so no method's profile is frozen mid-warm-up with only a
        handful of branch samples (which would misclassify warm edges as
        cold and create spurious asserts).

        On a pristine VM (see :meth:`_pristine`) the outcome is looked up
        in :data:`WARM_SNAPSHOTS` by :func:`warm_up_key`: a hit restores a
        copy of the stored heap, profiles and interpreter counters, a
        miss interprets and stores them.  Any other VM interprets.
        """
        method = self.program.resolve_static(entry)
        key = (warm_up_key(self.program, entry, args_list)
               if self._pristine() else None)
        if key is not None:
            blob = WARM_SNAPSHOTS.get(key)
            if blob is not None:
                self._restore(blob)
                return
        WARM_SNAPSHOTS.count_interpretation()
        previous = self.options.auto_compile
        self.options.auto_compile = False
        try:
            for args in args_list:
                self.interpreter.invoke(method, list(args))
        finally:
            self.options.auto_compile = previous
        if key is None:
            return
        interp = self.interpreter
        try:
            blob = pickle.dumps(
                (self.heap, self.profiles, interp.bytecodes_executed,
                 interp.safepoints_polled),
                protocol=pickle.HIGHEST_PROTOCOL)
        except (RecursionError, pickle.PicklingError):
            return  # e.g. a guest graph too deep to pickle: store nothing
        WARM_SNAPSHOTS.put(key, blob)

    def _pristine(self) -> bool:
        """Nothing has run on this VM yet, so a warm-up's outcome is a
        function of the program and its arguments alone."""
        interp = self.interpreter
        return (
            self.heap.mark() == Heap().mark()  # cursor, counts, log
            and not self.heap.reservations
            and len(self.profiles) == 0
            and interp.bytecodes_executed == 0
            and interp.safepoints_polled == 0
            and interp.fuel is None
            and interp.sched is None
            and self.machine.sched is None
            and not self.compiled
        )

    def _restore(self, blob: bytes) -> None:
        """Install a snapshot into this VM's own ``Heap`` and
        ``ProfileStore`` (the machine and the interpreter hold them)."""
        heap, profiles, bytecodes, safepoints = pickle.loads(blob)
        vars(self.heap).update(vars(heap))
        vars(self.profiles).update(vars(profiles))
        for obj in self.heap.allocations:
            if isinstance(obj, GuestObject):
                # Share the program's layout dict, as an interpreted
                # NEW does, instead of the unpickled copy.
                obj.field_index = self.program.field_layout(obj.class_name)
        self.interpreter.bytecodes_executed = bytecodes
        self.interpreter.safepoints_polled = safepoints

    def start_measurement(self) -> None:
        """Begin a timing sample: fresh statistics and timing state."""
        self.stats = ExecStats()
        self.machine.stats = self.stats
        if self.options.enable_timing:
            self.timing = TimingModel(self.hw_config)
            self.machine.timing = self.timing
        self._interp_bytecodes_at_start = self.interpreter.bytecodes_executed
        self._measuring = True

    def end_measurement(self) -> ExecStats:
        """Close the sample; interpreter work is charged to the cycle count."""
        interp_bytecodes = (
            self.interpreter.bytecodes_executed - self._interp_bytecodes_at_start
        )
        self.stats.interpreter_bytecodes = interp_bytecodes
        if self.timing is not None:
            self.timing.add_interpreter_cycles(interp_bytecodes)
            self.stats.cycles = self.timing.cycles
        else:
            self.stats.cycles = float(
                self.stats.uops_retired
                + interp_bytecodes * INTERPRETER_CYCLES_PER_BYTECODE
            )
        self._measuring = False
        return self.stats
