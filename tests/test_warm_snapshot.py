"""Warm-up snapshots: a restored VM is indistinguishable from one that
interpreted its warm-up, and every VM the store cannot vouch for
interprets.

``TieredVM.warm_up`` on a pristine VM looks its outcome up by the sha256
of the program's content, the entry and the warm-up arguments
(:func:`repro.vm.vm.warm_up_key`).  These tests pin the equivalence on
every workload sample (state after warm-up, then compiled code and a
measured window on all three dispatch tiers), the key's coverage, the
fail-closed cases, and the store's thread safety.
"""

from __future__ import annotations

import copy
import sys
import threading

import pytest

from repro.harness.figures import run_contention_cell
from repro.harness.parallel import compute_cell, figure_cells
from repro.lang.builder import ProgramBuilder
from repro.lang.bytecode import Op
from repro.runtime.errors import GuestArithmeticError
from repro.runtime.heap import GuestObject
from repro.runtime.sched import DeterministicScheduler
from repro.vm import ATOMIC, TieredVM, VMOptions
from repro.vm.vm import WARM_SNAPSHOTS, WarmSnapshots, warm_up_key
from repro.workloads import ALL_WORKLOADS, get_workload

SAMPLES = [(name, index)
           for name in sorted(ALL_WORKLOADS)
           for index in range(len(get_workload(name).samples))]


@pytest.fixture(autouse=True)
def empty_store():
    WARM_SNAPSHOTS.clear()
    yield
    WARM_SNAPSHOTS.clear()


def _vm(program, dispatch: str = "auto") -> TieredVM:
    return TieredVM(program, compiler_config=ATOMIC,
                    options=VMOptions(compile_threshold=3, dispatch=dispatch))


def _counts() -> tuple[int, int, int]:
    return (WARM_SNAPSHOTS.interpretations, WARM_SNAPSHOTS.restores,
            len(WARM_SNAPSHOTS))


def _state(vm: TieredVM) -> tuple:
    """Everything a warm-up leaves behind, profiles in insertion order."""
    profiles = [
        (name, prof.invocations, prof.bytecodes_executed,
         list(prof.block_counts.items()),
         [(pc, b.taken, b.not_taken) for pc, b in prof.branches.items()],
         [(pc, list(site.receivers.items()))
          for pc, site in prof.call_sites.items()])
        for name, prof in vm.profiles._methods.items()
    ]
    return (vm.heap.fingerprint(), vm.heap.mark(), profiles,
            vm.interpreter.bytecodes_executed,
            vm.interpreter.safepoints_polled)


def _window(vm: TieredVM, workload, sample) -> tuple:
    """Compile the hot methods and run one measured window."""
    vm.compile_hot(min_invocations=1)
    vm.start_measurement()
    results = [vm.run(workload.entry, list(args))
               for args in sample.measure_args]
    stats = vm.end_measurement()
    return results, stats.summary(), repr(stats.cycles)


def _assert_shared_layouts(vm: TieredVM) -> None:
    for obj in vm.heap.allocations:
        if isinstance(obj, GuestObject):
            assert obj.field_index is vm.program.field_layout(obj.class_name)


# -- equivalence --------------------------------------------------------------

@pytest.mark.parametrize("name,index", SAMPLES)
def test_restored_vm_equals_interpreted_vm(name, index):
    """One interpreted reference, then a restore per dispatch tier; each
    restore follows a measured window run on the previous restored VM, so
    a window that mutated the stored snapshot would show here."""
    workload = get_workload(name)
    sample = workload.samples[index]
    warm_args = [list(a) for a in sample.warm_args]

    reference = _vm(workload.build(), "predecoded")
    reference.warm_up(workload.entry, warm_args)
    assert _counts() == (1, 0, 1)
    expected_state = _state(reference)
    expected_window = _window(reference, workload, sample)

    for restores, dispatch in enumerate(
            ("interpretive", "predecoded", "jit"), start=1):
        vm = _vm(workload.build(), dispatch)
        vm.warm_up(workload.entry, warm_args)
        assert _counts() == (1, restores, 1)
        assert _state(vm) == expected_state
        _assert_shared_layouts(vm)
        assert _window(vm, workload, sample) == expected_window


def test_two_bloat_cells_interpret_once():
    """Both cells' four samples share one warm-up input."""
    cells = figure_cells(["bloat"])[:2]
    for cell in cells:
        compute_cell(cell)
    assert sum(len(get_workload("bloat").samples) for _ in cells) == 8
    assert (WARM_SNAPSHOTS.interpretations, WARM_SNAPSHOTS.restores) == (1, 7)


# -- the key ------------------------------------------------------------------

def _list_program(length_const: int = 3, deep: bool = False):
    """``build(n)`` makes an ``n``-node linked list and sums it; ``again(n)``
    has the same signature and a different body.  With ``deep``, every
    node's ``next`` points at a *later* allocation (the pickler recurses
    once per node); otherwise at an earlier one."""
    pb = ProgramBuilder()
    pb.cls("Node", fields=("val", "next"))
    m = pb.method("build", params=("n",))
    n = m.param(0)
    head = m.new("Node")
    m.putfield(head, "val", m.const(length_const))
    tail = m.mov(head)
    i = m.const(0)
    m.label("loop")
    m.br("ge", i, n, "done")
    node = m.new("Node")
    m.putfield(node, "val", i)
    if deep:
        m.putfield(tail, "next", node)
    else:
        m.putfield(node, "next", tail)
    m.mov(node, dst=tail)
    m.addi(i, 1, dst=i)
    m.safepoint()
    m.jmp("loop")
    m.label("done")
    m.ret(i)
    g = pb.method("again", params=("n",))
    g.ret(g.addi(g.param(0), 1))
    pb.entry("build")
    return pb.build()


def test_key_covers_program_content_arguments_and_entry():
    args = [[4], [5]]
    base = warm_up_key(_list_program(), "build", args)
    assert base == warm_up_key(_list_program(), "build", copy.deepcopy(args))

    bumped = _list_program()
    const = next(i for i in bumped.methods["build"].instrs if i.op is Op.CONST)
    const.imm += 1
    assert warm_up_key(bumped, "build", args) != base
    assert warm_up_key(_list_program(), "build", [[4], [6]]) != base
    assert warm_up_key(_list_program(), "again", args) != base
    other_entry = _list_program()
    other_entry.entry = "again"
    assert warm_up_key(other_entry, "build", args) != base
    stray = GuestObject("Node", {"val": 0, "next": 1}, 0x10_0000)
    assert warm_up_key(_list_program(), "build", [[stray]]) is None


def test_changed_immediate_argument_or_entry_misses():
    _vm(_list_program()).warm_up("build", [[4], [5]])
    assert _counts() == (1, 0, 1)

    bumped = _list_program()
    const = next(i for i in bumped.methods["build"].instrs if i.op is Op.CONST)
    const.imm += 1
    vm = _vm(bumped)
    vm.warm_up("build", [[4], [5]])
    assert vm.heap.allocations[0].get("val") == 4  # its own, not restored
    _vm(_list_program()).warm_up("build", [[4], [6]])
    _vm(_list_program()).warm_up("again", [[4], [5]])
    assert _counts() == (4, 0, 4)
    _vm(_list_program()).warm_up("build", [[4], [5]])
    assert _counts() == (4, 1, 4)


# -- fail closed --------------------------------------------------------------

def _reference_state(program_factory, entry, args) -> tuple:
    """The state of a VM that interpreted ``args``, store untouched."""
    vm = _vm(program_factory())
    snapshots = (WARM_SNAPSHOTS.interpretations, WARM_SNAPSHOTS.restores)
    vm.options.auto_compile = False
    method = vm.program.resolve_static(entry)
    for a in args:
        vm.interpreter.invoke(method, list(a))
    vm.options.auto_compile = True
    assert (WARM_SNAPSHOTS.interpretations,
            WARM_SNAPSHOTS.restores) == snapshots
    return _state(vm)


def _warm_under_scheduler(vm: TieredVM, entry: str, args) -> None:
    sched = DeterministicScheduler()
    vm.machine.sched = sched
    vm.interpreter.sched = sched
    try:
        sched.spawn(lambda: vm.warm_up(entry, args))
        sched.run()
    finally:
        vm.machine.sched = None
        vm.interpreter.sched = None


def _warm(vm: TieredVM, entry: str, args) -> None:
    vm.warm_up(entry, args)


@pytest.mark.parametrize("dirty,warm", [
    (lambda vm: vm.run("again", [1]), _warm),
    (lambda vm: vm.warm_up("build", [[9]]), _warm),
    (lambda vm: None, _warm_under_scheduler),
], ids=["after-run", "second-warm-up", "scheduler-attached"])
def test_non_pristine_vm_neither_hits_nor_stores(dirty, warm):
    """A VM that has run anything, or has a scheduler attached,
    interprets a stored input (no hit) and a new one (no store)."""
    _vm(_list_program()).warm_up("build", [[4], [5]])
    vm = _vm(_list_program())
    dirty(vm)
    interpretations, restores, stored = _counts()
    warm(vm, "build", [[4], [5]])
    warm(vm, "build", [[7]])
    assert _counts() == (interpretations + 2, restores, stored)


def test_non_pristine_state_matches_interpretation():
    """The bypass is exact: a second warm-up continues from the first."""
    _vm(_list_program()).warm_up("build", [[5]])
    vm = _vm(_list_program())
    vm.warm_up("build", [[4]])
    vm.warm_up("build", [[5]])
    assert _state(vm) == _reference_state(_list_program, "build", [[4], [5]])


def test_contention_cells_bypass_the_store():
    run_contention_cell("counter", "cas", 2, seed=3)
    interpretations, restores, stored = _counts()
    assert (restores, stored) == (0, 0)
    assert interpretations > 0


def test_guest_error_in_warm_up_reraises_and_stores_nothing():
    pb = ProgramBuilder()
    m = pb.method("main", params=("n",))
    m.ret(m.div(m.const(1), m.param(0)))
    program = pb.build()
    for _attempt in range(2):
        with pytest.raises(GuestArithmeticError):
            _vm(program).warm_up("main", [[1], [0]])
    assert _counts() == (2, 0, 0)


def test_unpicklable_depth_stores_nothing_and_next_vm_interprets():
    nodes = 6000
    limit = sys.getrecursionlimit()
    first = _vm(_list_program(deep=True))
    first.warm_up("build", [[nodes]])
    assert len(first.heap.allocations) == nodes + 1
    assert sys.getrecursionlimit() == limit
    assert _counts() == (1, 0, 0)
    second = _vm(_list_program(deep=True))
    second.warm_up("build", [[nodes]])
    assert _counts() == (2, 0, 0)
    assert _state(second) == _state(first)


# -- concurrency --------------------------------------------------------------

def test_store_lock_under_concurrent_hits_and_evictions():
    """Threads hitting and evicting a cap-2 store at once: every hit
    returns its own key's blob, the cap holds, and no restore is lost."""
    store = WarmSnapshots(cap=2)
    hits = [0] * 8
    errors: list = []

    def worker(tid: int) -> None:
        try:
            for i in range(20000):
                key = bytes([(tid + i // 2) % 5])  # each key twice running
                blob = store.get(key)
                if blob is None:
                    store.put(key, key * 3)
                else:
                    assert blob == key * 3
                    hits[tid] += 1
                assert len(store) <= 2
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert store.restores == sum(hits) > 0


def test_concurrent_warm_ups_agree():
    """VMs warming up on one input from several threads all end in the
    interpreted state, however the store's misses and hits interleave."""
    expected = _reference_state(_list_program, "build", [[30], [40]])
    states: list = []
    errors: list = []

    def worker() -> None:
        try:
            for _ in range(10):
                vm = _vm(_list_program())
                vm.warm_up("build", [[30], [40]])
                states.append(_state(vm))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(states) == 40
    assert all(state == expected for state in states)
    assert WARM_SNAPSHOTS.interpretations + WARM_SNAPSHOTS.restores == 40
    assert WARM_SNAPSHOTS.restores > 0
