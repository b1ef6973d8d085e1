"""Unit tests for the service's resident state: sessions, jobs, tiers."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.serve import (
    CapacityError,
    ExpiredSessionError,
    JobManager,
    JobNotDoneError,
    ResidentUniverse,
    SessionManager,
    UnknownJobError,
    UnknownSessionError,
    UnknownUniverseError,
    detect_tiers,
    load_universe,
)
from repro.serve import state as state_module
from repro.serve.state import OPTIONAL_TIERS, probe_tier


class FakeClock:
    """A manually advanced monotonic clock for TTL tests."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeSession:
    """Just enough of Session for the manager: a ``touched_at`` stamp."""

    def __init__(self, clock):
        self._clock = clock
        self.touched_at = clock()

    def touch(self):
        self.touched_at = self._clock()


class TestSessionManager:
    def make(self, ttl=60.0, cap=4):
        clock = FakeClock()
        manager = SessionManager(
            ttl_seconds=ttl, max_sessions=cap, clock=clock
        )
        return manager, clock

    def test_create_get_roundtrip(self):
        manager, clock = self.make()
        managed = manager.create("u", lambda: FakeSession(clock))
        assert manager.get(managed.session_id) is managed
        assert len(manager) == 1

    def test_unknown_id_is_a_404(self):
        manager, _ = self.make()
        with pytest.raises(UnknownSessionError):
            manager.get("nope")

    def test_idle_session_evicted_after_ttl(self):
        manager, clock = self.make(ttl=60.0)
        managed = manager.create("u", lambda: FakeSession(clock))
        clock.advance(61.0)
        with pytest.raises(ExpiredSessionError) as excinfo:
            manager.get(managed.session_id)
        # The refusal says what happened and what to do about it.
        assert "expired" in str(excinfo.value)
        assert "POST /sessions" in str(excinfo.value)
        assert manager.evicted_total == 1

    def test_activity_refreshes_the_ttl(self):
        manager, clock = self.make(ttl=60.0)
        managed = manager.create("u", lambda: FakeSession(clock))
        clock.advance(45.0)
        managed.session.touch()
        clock.advance(45.0)
        # 90s old but only 45s idle: still alive.
        assert manager.get(managed.session_id) is managed

    def test_closed_session_is_a_410_not_404(self):
        manager, clock = self.make()
        managed = manager.create("u", lambda: FakeSession(clock))
        manager.close(managed.session_id)
        with pytest.raises(ExpiredSessionError, match="closed"):
            manager.get(managed.session_id)
        with pytest.raises(ExpiredSessionError):
            manager.close(managed.session_id)

    def test_capacity_cap_refuses_with_429(self):
        manager, clock = self.make(cap=2)
        manager.create("u", lambda: FakeSession(clock))
        manager.create("u", lambda: FakeSession(clock))
        with pytest.raises(CapacityError, match="capacity"):
            manager.create("u", lambda: FakeSession(clock))
        # Eviction frees capacity again.
        clock.advance(120.0)
        manager.create("u", lambda: FakeSession(clock))

    def test_snapshot_shape(self):
        manager, clock = self.make(ttl=30.0, cap=8)
        manager.create("u", lambda: FakeSession(clock))
        snap = manager.snapshot()
        assert snap == {
            "active": 1,
            "capacity": 8,
            "ttl_seconds": 30.0,
            "evicted_total": 0,
        }


class TestJobManager:
    def test_submit_poll_result_roundtrip(self, tmp_path):
        manager = JobManager(tmp_path, lambda job: {"echo": job.params})
        try:
            job = manager.submit("u", {"x": 1})
            assert manager.get(job.job_id) is job
            deadline = 100
            while job.state != "done" and deadline:
                deadline -= 1
                threading.Event().wait(0.02)
            assert job.state == "done"
            assert manager.result(job.job_id) == {"echo": {"x": 1}}
            # The manifest on disk mirrors the finished job.
            manifest = json.loads(
                (tmp_path / f"job-{job.job_id}.json").read_text()
            )
            assert manifest["state"] == "done"
            assert manifest["result"] == {"echo": {"x": 1}}
        finally:
            manager.close()

    def test_result_before_done_is_a_409(self, tmp_path):
        release = threading.Event()

        def runner(job):
            release.wait(5.0)
            return {}

        manager = JobManager(tmp_path, runner)
        try:
            job = manager.submit("u", {})
            with pytest.raises(JobNotDoneError, match="poll"):
                manager.result(job.job_id)
        finally:
            release.set()
            manager.close()

    def test_failed_job_reports_its_error(self, tmp_path):
        def runner(job):
            raise ValueError("boom")

        manager = JobManager(tmp_path, runner)
        try:
            job = manager.submit("u", {})
            deadline = 100
            while job.state != "failed" and deadline:
                deadline -= 1
                threading.Event().wait(0.02)
            assert job.state == "failed"
            assert "boom" in job.error
            with pytest.raises(JobNotDoneError, match="boom"):
                manager.result(job.job_id)
        finally:
            manager.close()

    @pytest.mark.parametrize("fails", [False, True])
    def test_polls_never_see_a_state_before_its_timestamp(
        self, tmp_path, monkeypatch, fails
    ):
        # Every clock read in the job tier first snapshots the poll
        # payload, so the snapshots land exactly between the runner's
        # field writes.  A poll must never show "running" without
        # started_at, or a terminal state without finished_at.
        submitted = threading.Event()
        snapshots = []
        job_id = None

        class SnapshotClock:
            def __getattr__(self, name):
                return getattr(time, name)

            def time(self):
                submitted.wait(5.0)
                snapshots.append(manager.get(job_id).describe())
                return time.time()

        def runner(job):
            if fails:
                raise ValueError("boom")
            return {}

        monkeypatch.setattr(state_module, "time", SnapshotClock())
        manager = JobManager(tmp_path, runner)
        try:
            job_id = manager.submit("u", {}).job_id
            submitted.set()
        finally:
            manager.close()
        final = manager.get(job_id).describe()
        assert final["state"] == ("failed" if fails else "done")
        assert snapshots
        for snapshot in [*snapshots, final]:
            if snapshot["state"] != "queued":
                assert snapshot["started_at"] is not None, snapshot
            if snapshot["state"] in ("done", "failed"):
                assert snapshot["finished_at"] is not None, snapshot

    def test_unknown_job_is_a_404(self, tmp_path):
        manager = JobManager(tmp_path, lambda job: {})
        with pytest.raises(UnknownJobError):
            manager.get("nope")

    def test_recover_marks_dead_process_jobs_interrupted(self, tmp_path):
        (tmp_path / "job-abc.json").write_text(
            json.dumps(
                {
                    "job_id": "abc",
                    "universe": "u",
                    "params": {"x": 1},
                    "state": "running",
                    "submitted_at": 1.0,
                }
            )
        )
        (tmp_path / "job-def.json").write_text(
            json.dumps(
                {
                    "job_id": "def",
                    "universe": "u",
                    "params": {},
                    "state": "done",
                    "result": {"quality": 0.5},
                }
            )
        )
        manager = JobManager(tmp_path, lambda job: {})
        assert manager.get("abc").state == "interrupted"
        assert manager.get("def").state == "done"
        assert manager.result("def") == {"quality": 0.5}
        assert manager.counts()["interrupted"] == 1

    def test_torn_manifests_are_skipped(self, tmp_path):
        (tmp_path / "job-bad.json").write_text("{torn")
        manager = JobManager(tmp_path, lambda job: {})
        with pytest.raises(UnknownJobError):
            manager.get("bad")


class TestLoadUniverse:
    def test_theater_spec(self):
        resident = load_universe("theater:2")
        assert resident.name == "theater:2"
        assert len(resident.universe) > 0

    def test_books_spec_defaults_fill_in(self):
        resident = load_universe("books:20")
        assert resident.name == "books:20:0"
        assert len(resident.universe) == 20

    @pytest.mark.parametrize("spec", ["", "mars", "books:many", "theater:x:y:z"])
    def test_bad_specs_are_refused(self, spec):
        with pytest.raises(UnknownUniverseError):
            load_universe(spec)


class TestResidentUniverse:
    def test_sessions_adopt_the_compiled_artifacts(self, resident):
        one = resident.make_session(record_runs=False)
        two = resident.make_session(record_runs=False, theta=0.7)
        # Same objects, not equal copies: adoption, not recompilation.
        assert one._matrix is resident.matrix
        assert two._matrix is resident.matrix
        assert one._shared_context is resident.eval_context
        assert two._shared_context is resident.eval_context

    def test_describe_shape(self, resident):
        described = resident.describe()
        assert described["name"] == "theater:0"
        assert described["sources"] == len(resident.universe)


class TestTiers:
    def test_probe_rejects_missing_modules(self):
        assert probe_tier("repro_no_such_module_xyz") is False
        assert probe_tier("repro.telemetry") is True

    def test_detect_covers_every_declared_tier(self):
        tiers = detect_tiers()
        assert set(tiers) == set(OPTIONAL_TIERS)
        # In the development environment every tier is present.
        assert tiers["observatory"] is True
