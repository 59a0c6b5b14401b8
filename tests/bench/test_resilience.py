"""Resilience layer: timeouts, retry taxonomy, crash recovery, resume.

The synthetic tasks below are module-level (picklable) stand-ins that
expose the same protocol as :class:`repro.bench.parallel.RunTask`
(``label``, ``key()``, ``run()``) so the failure machinery can be driven
deterministically: tasks that hang, hang once, kill their own worker, or
raise.  The resume/journal tests use real workloads end to end.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.bench.cache import ResultCache
from repro.bench.export import reproduce_all, to_json
from repro.bench.journal import SweepJournal
from repro.bench.parallel import (
    CRASH,
    ERROR,
    TIMEOUT,
    RunTask,
    TaskFailure,
    TaskTimeout,
    WorkerCrash,
    pair_tasks,
    run_many,
    run_many_detailed,
)
from repro.bench.runner import sweep
from repro.sim.config import paper_config
from repro.workloads import matmul


@dataclass(frozen=True)
class StubResult:
    cycles: int = 1


@dataclass(frozen=True)
class StubTask:
    name: str
    cycles: int = 1

    @property
    def label(self) -> str:
        return self.name

    def key(self) -> str:
        return f"stub:{self.name}"

    def run(self) -> StubResult:
        return StubResult(self.cycles)


@dataclass(frozen=True)
class FlagStubTask(StubTask):
    """Succeeds immediately and drops a flag file (for sequencing)."""

    flag: str = ""

    def run(self) -> StubResult:
        if self.flag:
            open(self.flag, "w").close()
        return StubResult(self.cycles)


@dataclass(frozen=True)
class HangTask(StubTask):
    seconds: float = 60.0

    def run(self) -> StubResult:
        time.sleep(self.seconds)
        return StubResult(self.cycles)


@dataclass(frozen=True)
class HangOnceTask(StubTask):
    """Hangs on the first attempt, succeeds on the retry."""

    flag: str = ""

    def run(self) -> StubResult:
        if not os.path.exists(self.flag):
            open(self.flag, "w").close()
            time.sleep(60)
        return StubResult(self.cycles)


@dataclass(frozen=True)
class KillOnceTask(StubTask):
    """SIGKILLs its own worker on the first attempt (an OOM stand-in)."""

    flag: str = ""

    def run(self) -> StubResult:
        if not os.path.exists(self.flag):
            open(self.flag, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        return StubResult(self.cycles)


@dataclass(frozen=True)
class KillAlwaysTask(StubTask):
    def run(self) -> StubResult:  # pragma: no cover - dies before return
        os.kill(os.getpid(), signal.SIGKILL)
        return StubResult(self.cycles)


@dataclass(frozen=True)
class CountedTask(StubTask):
    """Appends its name to ``log`` when it starts, then works ``seconds``."""

    log: str = ""
    seconds: float = 0.0

    def run(self) -> StubResult:
        with open(self.log, "a") as f:
            f.write(self.name + "\n")
        time.sleep(self.seconds)
        return StubResult(self.cycles)


@dataclass(frozen=True)
class KillAfterStartTask(StubTask):
    """Once ``log`` exists (a neighbour started), SIGKILLs its own worker
    on the first attempt and succeeds on the retry."""

    log: str = ""
    flag: str = ""

    def run(self) -> StubResult:
        if not os.path.exists(self.flag):
            open(self.flag, "w").close()
            deadline = time.monotonic() + 30
            while not os.path.exists(self.log):
                if time.monotonic() > deadline:  # pragma: no cover
                    raise RuntimeError("neighbour never started")
                time.sleep(0.01)
            os.kill(os.getpid(), signal.SIGKILL)
        return StubResult(self.cycles)


@dataclass(frozen=True)
class BigResult:
    cycles: int
    payload: bytes


@dataclass(frozen=True)
class BigResultTask(StubTask):
    """Returns a result far larger than a pipe's buffer."""

    def run(self) -> BigResult:
        return BigResult(self.cycles, b"x" * (8 << 20))


def _starts(log) -> "list[str]":
    return log.read_text().split()


@dataclass(frozen=True)
class RaiseTask(StubTask):
    def run(self) -> StubResult:
        raise ValueError("deterministic boom")


@dataclass(frozen=True)
class InterruptTask(StubTask):
    """Raises KeyboardInterrupt (a Ctrl-C stand-in for the serial path)."""

    def run(self) -> StubResult:
        raise KeyboardInterrupt


@dataclass(frozen=True)
class WaitThenInterruptTask(StubTask):
    """Waits for a flag file, then raises KeyboardInterrupt."""

    flag: str = ""

    def run(self) -> StubResult:
        deadline = time.monotonic() + 30
        while not os.path.exists(self.flag):
            if time.monotonic() > deadline:  # pragma: no cover - safety net
                raise RuntimeError("flag never appeared")
            time.sleep(0.01)
        raise KeyboardInterrupt


class TestTimeouts:
    def test_hung_task_times_out_and_fails(self):
        batch = run_many_detailed(
            [HangTask("hang")], jobs=1, timeout=0.4, retries=0, backoff=0,
            journal=None, keep_going=True,
        )
        assert batch.results == [None]
        info = batch.failures[0]
        assert info.kind == TIMEOUT
        assert info.attempts == 1
        assert isinstance(info.error, TaskTimeout)

    def test_hung_task_is_retried_then_succeeds(self, tmp_path):
        task = HangOnceTask("flaky", cycles=5, flag=str(tmp_path / "flag"))
        messages: list[str] = []
        batch = run_many_detailed(
            [task], jobs=1, timeout=1.0, retries=2, backoff=0,
            journal=None, progress=messages.append,
        )
        assert batch.complete
        assert batch.results[0].cycles == 5
        assert batch.attempts[0] == 2
        assert any("timed out" in m and "retrying" in m for m in messages)

    def test_run_many_raises_with_timeout_taxonomy(self):
        with pytest.raises(TaskFailure) as exc:
            run_many(
                [HangTask("hang")], jobs=1, timeout=0.3, retries=0,
                backoff=0, journal=None,
            )
        assert exc.value.failures["hang"].kind == TIMEOUT

    def test_healthy_tasks_survive_a_timeout_kill(self):
        tasks = [StubTask("a", 2), HangTask("hang"), StubTask("b", 3)]
        batch = run_many_detailed(
            tasks, jobs=2, timeout=0.5, retries=0, backoff=0, journal=None,
            keep_going=True,
        )
        assert batch.results[0] is not None and batch.results[2] is not None
        assert set(batch.failures) == {1}

    def test_healthy_neighbour_of_a_timeout_starts_once(self, tmp_path):
        # "healthy" starts when "short" finishes (1.0 s) and is still
        # running when the hung task's deadline passes (2.0 s): killing
        # the hung task must leave it alone.
        log = tmp_path / "starts"
        tasks = [
            CountedTask("short", 2, log=str(log), seconds=1.0),
            HangTask("hang"),
            CountedTask("healthy", 4, log=str(log), seconds=1.4),
        ]
        batch = run_many_detailed(
            tasks, jobs=2, timeout=2.0, retries=0, backoff=0, journal=None,
            keep_going=True,
        )
        assert batch.results[2].cycles == 4
        assert set(batch.failures) == {1}
        assert batch.failures[1].kind == TIMEOUT
        assert batch.attempts == [1, 1, 1]
        assert _starts(log) == ["short", "healthy"]

    def test_timeout_kill_writes_no_traceback(self, capfd):
        tasks = [StubTask("a", 2), HangTask("hang"), StubTask("b", 3)]
        run_many_detailed(
            tasks, jobs=2, timeout=0.5, retries=0, backoff=0, journal=None,
            keep_going=True,
        )
        err = capfd.readouterr().err
        assert "SweepTerminated" not in err
        assert "Traceback" not in err


class TestChildProcesses:
    def test_large_results_cross_the_pipe(self):
        batch = run_many_detailed(
            [BigResultTask("a", 2), BigResultTask("b", 3)], jobs=2,
            timeout=60, journal=None,
        )
        assert [r.cycles for r in batch.results] == [2, 3]
        assert all(len(r.payload) == 8 << 20 for r in batch.results)


class TestWorkerCrash:
    def test_sigkill_rebuilds_pool_and_retries(self, tmp_path):
        tasks = [
            StubTask("a", 2),
            KillOnceTask("oom-victim", cycles=7,
                         flag=str(tmp_path / "killed")),
            StubTask("b", 3),
        ]
        messages: list[str] = []
        batch = run_many_detailed(
            tasks, jobs=2, retries=3, backoff=0, journal=None,
            progress=messages.append,
        )
        assert batch.complete
        assert [r.cycles for r in batch.results] == [2, 7, 3]
        assert batch.attempts[1] >= 2
        assert any(
            m.startswith("oom-victim: worker process died (exit code -9)")
            for m in messages
        )

    def test_sigkill_charges_only_the_killed_task(self, tmp_path):
        log = tmp_path / "starts"
        tasks = [
            CountedTask("healthy", 4, log=str(log), seconds=1.0),
            KillAfterStartTask("victim", 7, log=str(log),
                               flag=str(tmp_path / "killed")),
        ]
        messages: list[str] = []
        retried: list[tuple[int, str, int]] = []
        batch = run_many_detailed(
            tasks, jobs=2, retries=2, backoff=0, journal=None,
            progress=messages.append,
            on_retry=lambda *event: retried.append(event),
        )
        assert [r.cycles for r in batch.results] == [4, 7]
        assert batch.attempts == [1, 2]
        assert retried == [(1, CRASH, 2)]
        assert _starts(log) == ["healthy"]
        assert [m for m in messages if "died" in m] == [
            "victim: worker process died (exit code -9); retrying in 0.0s "
            "(attempt 2 of 3)"
        ]

    def test_sigterm_kills_only_its_child(self):
        # A child takes SIGTERM's default action: it dies and the task is
        # a crash, instead of raising SweepTerminated for the whole batch.
        batch = run_many_detailed(
            [SigtermSelfTask("evicted"), StubTask("a", 2)], jobs=2,
            timeout=30, retries=0, backoff=0, journal=None, keep_going=True,
        )
        assert batch.results[1].cycles == 2
        assert batch.failures[0].kind == CRASH
        assert "exit code -15" in str(batch.failures[0].error)

    def test_crash_budget_exhausted_fails_with_crash_kind(self):
        # timeout forces the pool path even for a single task, and also
        # bounds the test if kill delivery is ever delayed.
        batch = run_many_detailed(
            [KillAlwaysTask("poison")], jobs=2, timeout=30, retries=1,
            backoff=0, journal=None, keep_going=True,
        )
        info = batch.failures[0]
        assert info.kind == CRASH
        assert info.attempts == 2  # first try + one retry
        assert isinstance(info.error, WorkerCrash)


class TestDeterministicErrors:
    @pytest.mark.parametrize("pooled", (False, True))
    def test_error_fails_fast_and_is_never_retried(self, pooled):
        kwargs = dict(timeout=30) if pooled else {}
        batch = run_many_detailed(
            [RaiseTask("boom")], jobs=2 if pooled else 1, retries=5,
            backoff=0, journal=None, keep_going=True, **kwargs,
        )
        info = batch.failures[0]
        assert info.kind == ERROR
        assert info.attempts == 1  # fail fast: no retry can change it
        assert isinstance(info.error, ValueError)


class TestJournalAndResume:
    def test_resume_skips_settled_tasks_without_simulating(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        wl = matmul.build(n=4, threads=2)
        tasks = list(pair_tasks(wl, paper_config(1)))
        first = run_many_detailed(tasks, cache=cache)
        assert first.complete and first.resumed == 0
        assert SweepJournal.for_cache(cache).path.exists()

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("resume re-simulated a settled task")

        monkeypatch.setattr("repro.bench.parallel.run_workload", forbidden)
        second = run_many_detailed(tasks, cache=cache, resume=True)
        assert second.complete
        assert second.resumed == 2
        assert [r.cycles for r in second.results] == [
            r.cycles for r in first.results
        ]

    def test_replayed_deterministic_failure_is_not_rerun(
        self, tmp_path, monkeypatch
    ):
        bad = matmul.build(n=4, threads=2)
        bad.oracle["C"][0] += 1  # sabotage: wrong output every time
        tasks = [RunTask(bad, paper_config(1), prefetch=False)]
        cache = ResultCache(tmp_path / "cache")
        first = run_many_detailed(tasks, cache=cache, keep_going=True)
        assert first.failures[0].kind == ERROR

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("resume re-simulated a deterministic failure")

        monkeypatch.setattr("repro.bench.parallel.run_workload", forbidden)
        second = run_many_detailed(
            tasks, cache=cache, resume=True, keep_going=True,
        )
        assert second.resumed == 1
        info = second.failures[0]
        assert info.kind == ERROR
        assert "replayed from journal" in str(info.error)

    def test_done_journal_entry_without_cache_result_is_not_trusted(
        self, tmp_path
    ):
        # A journal claiming completion can never fabricate a result: the
        # RunResult must exist in the cache under the same key.
        cache = ResultCache(tmp_path / "cache")
        task = pair_tasks(matmul.build(n=4, threads=2), paper_config(1))[0]
        journal = SweepJournal.for_cache(cache)
        journal.record_done(task.key(), task.label, 1, 0.0)
        batch = run_many_detailed([task], cache=cache, resume=True)
        assert batch.complete
        assert batch.resumed == 0
        assert batch.attempts[0] == 1  # it really ran

    def test_interrupted_reproduce_resumes_bit_identical(self, tmp_path):
        clean_cache = ResultCache(tmp_path / "clean")
        clean = reproduce_all(scale="test", spes=(1,), cache=clean_cache)

        # Simulate a batch killed mid-flight: only one pair completed
        # (and was checkpointed) before the "crash".
        resumed_cache = ResultCache(tmp_path / "resume")
        from repro.bench.scale import builders

        wl = builders("test")["mmul"]()
        run_many(list(pair_tasks(wl, paper_config(1))), cache=resumed_cache)
        assert SweepJournal.for_cache(resumed_cache).path.exists()

        resumed = reproduce_all(
            scale="test", spes=(1,), cache=resumed_cache, resume=True,
        )
        assert to_json(resumed) == to_json(clean)
        # The settled pair was served from the checkpoint, not re-run.
        assert resumed_cache.hits == 2


class TestKeyboardInterrupt:
    def test_serial_interrupt_checkpoints_finished_work(self, tmp_path):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        tasks = [StubTask("a"), InterruptTask("ctrl-c"), StubTask("b")]
        with pytest.raises(KeyboardInterrupt):
            run_many(tasks, jobs=1, journal=journal)
        replay = journal.replay()
        assert "stub:a" in replay and replay["stub:a"].done
        assert "stub:b" not in replay  # never started; resumable later

    def test_pool_interrupt_harvests_finished_futures(self, tmp_path):
        flag = str(tmp_path / "a-done")
        journal = SweepJournal(tmp_path / "journal.jsonl")
        tasks = [
            FlagStubTask("a", flag=flag),
            WaitThenInterruptTask("ctrl-c", flag=flag),
        ]
        with pytest.raises(KeyboardInterrupt):
            run_many(tasks, jobs=2, journal=journal, backoff=0)
        replay = journal.replay()
        assert "stub:a" in replay and replay["stub:a"].done


class TestKeepGoing:
    def _fail_zoom(self, monkeypatch):
        from repro.bench import parallel

        real = parallel.run_workload

        def flaky(workload, config, **kwargs):
            if workload.name.startswith("zoom"):
                raise RuntimeError("injected permanent failure")
            return real(workload, config, **kwargs)

        monkeypatch.setattr("repro.bench.parallel.run_workload", flaky)

    def test_reproduce_keep_going_emits_degraded_manifest(self, monkeypatch):
        self._fail_zoom(monkeypatch)
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        data = reproduce_all(
            scale="test", spes=(1,), jobs=1, keep_going=True,
        )
        degraded = data["degraded"]
        assert degraded and all(d["kind"] == "error" for d in degraded)
        assert all("zoom" in d["label"] for d in degraded)
        assert all("injected permanent failure" in d["error"]
                   for d in degraded)
        for section in ("scaling", "table5", "fig5", "fig9", "latency1"):
            assert "zoom" not in data["experiments"][section]
            assert {"bitcnt", "mmul"} <= set(data["experiments"][section])
        to_json(data)  # partial artifacts stay serializable

    def test_reproduce_without_keep_going_still_aborts(self, monkeypatch):
        self._fail_zoom(monkeypatch)
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        with pytest.raises(TaskFailure, match="injected permanent failure"):
            reproduce_all(scale="test", spes=(1,), jobs=1)

    def test_sweep_keep_going_drops_failed_points(self, monkeypatch):
        from repro.bench import parallel

        real = parallel.run_workload

        def flaky(workload, config, **kwargs):
            if config.num_spes == 2:
                raise RuntimeError("2-SPE point is cursed")
            return real(workload, config, **kwargs)

        monkeypatch.setattr("repro.bench.parallel.run_workload", flaky)
        scaling = sweep(
            lambda: matmul.build(n=4, threads=2), spes=(1, 2), jobs=1,
            keep_going=True,
        )
        assert set(scaling.pairs) == {1}
        assert scaling.pairs[1].base.cycles > 0


@dataclass(frozen=True)
class SigtermSelfTask(StubTask):
    """Raises SIGTERM in-process (serial-path stand-in for docker stop)."""

    def run(self) -> StubResult:
        signal.raise_signal(signal.SIGTERM)
        return StubResult(self.cycles)  # pragma: no cover - never reached


@dataclass(frozen=True)
class WaitThenSigtermParentTask(StubTask):
    """Waits for a flag file, then SIGTERMs the parent process (the
    pool-path stand-in: a worker observes the batch being evicted)."""

    flag: str = ""

    def run(self) -> StubResult:
        deadline = time.monotonic() + 30
        while not os.path.exists(self.flag):
            if time.monotonic() > deadline:  # pragma: no cover - safety net
                raise RuntimeError("flag never appeared")
            time.sleep(0.01)
        # Give the parent time to settle and journal the finished
        # sibling future before the eviction signal lands.
        time.sleep(1.0)
        os.kill(os.getppid(), signal.SIGTERM)
        time.sleep(30)  # pragma: no cover - cancelled by the harvest
        return StubResult(self.cycles)


class TestSigterm:
    """SIGTERM must behave exactly like Ctrl-C: finished work is
    harvested into cache and journal, then SweepTerminated propagates."""

    def test_serial_sigterm_checkpoints_finished_work(self, tmp_path):
        from repro.bench.parallel import SweepTerminated

        journal = SweepJournal(tmp_path / "journal.jsonl")
        tasks = [StubTask("a"), SigtermSelfTask("evicted"), StubTask("b")]
        with pytest.raises(SweepTerminated):
            run_many(tasks, jobs=1, journal=journal)
        replay = journal.replay()
        assert "stub:a" in replay and replay["stub:a"].done
        assert "stub:b" not in replay  # never started; resumable later

    def test_pool_sigterm_harvests_finished_futures(self, tmp_path):
        from repro.bench.parallel import SweepTerminated

        flag = str(tmp_path / "a-done")
        journal = SweepJournal(tmp_path / "journal.jsonl")
        tasks = [
            FlagStubTask("a", flag=flag),
            WaitThenSigtermParentTask("evicted", flag=flag),
        ]
        with pytest.raises(SweepTerminated):
            run_many(tasks, jobs=2, journal=journal, backoff=0)
        replay = journal.replay()
        assert "stub:a" in replay and replay["stub:a"].done

    def test_previous_handler_is_restored(self):
        seen = []

        def handler(signum, frame):  # pragma: no cover - never fired
            seen.append(signum)

        previous = signal.signal(signal.SIGTERM, handler)
        try:
            run_many_detailed([StubTask("a")], jobs=1, journal=None)
            assert signal.getsignal(signal.SIGTERM) is handler
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_sigterm_in_worker_thread_is_not_installed(self, tmp_path):
        # run_many off the main thread (the serving gateway does this)
        # must not try to install a handler -- and must still work.
        import threading

        out = []

        def work():
            batch = run_many_detailed(
                [StubTask("a", 5)], jobs=1, journal=None,
            )
            out.append(batch)

        before = signal.getsignal(signal.SIGTERM)
        t = threading.Thread(target=work)
        t.start()
        t.join(30)
        assert out and out[0].complete
        assert signal.getsignal(signal.SIGTERM) is before
