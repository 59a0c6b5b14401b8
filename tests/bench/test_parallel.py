"""Parallel execution: identical results, fallbacks, progress, env knobs."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.bench.export import run_to_dict
from repro.bench.cache import ResultCache
from repro.bench.parallel import (
    RunTask,
    TaskFailure,
    default_jobs,
    pair_tasks,
    run_many,
)
from repro.bench.runner import run_pair, sweep
from repro.bench.scale import builders
from repro.sim.config import paper_config
from repro.workloads import matmul


def _matrix_tasks() -> list[RunTask]:
    """All three benchmarks x 2 SPE counts x both variants (test scale)."""
    tasks: list[RunTask] = []
    for name, build in builders("test").items():
        workload = build()
        for n in (1, 2):
            tasks.extend(pair_tasks(workload, paper_config(n)))
    return tasks


class TestParallelIdentical:
    def test_parallel_matches_serial_on_all_benchmarks(self):
        # The acceptance bar: jobs >= 2 must be bit-identical to the
        # serial path — cycle counts and every exported statistic — on
        # bitcnt, mmul and zoom.
        tasks = _matrix_tasks()
        serial = run_many(tasks, jobs=1)
        parallel = run_many(tasks, jobs=2)
        assert [r.cycles for r in serial] == [r.cycles for r in parallel]
        for s, p in zip(serial, parallel):
            assert run_to_dict(s) == run_to_dict(p)

    def test_results_keep_task_order(self):
        wl = matmul.build(n=4, threads=2)
        tasks = list(pair_tasks(wl, paper_config(1)))
        tasks += list(pair_tasks(wl, paper_config(2)))
        results = run_many(tasks, jobs=2)
        assert [r.config.num_spes for r in results] == [1, 1, 2, 2]
        assert [r.prefetch for r in results] == [False, True, False, True]

    def test_sweep_parallel_matches_serial(self):
        build = lambda: matmul.build(n=4, threads=2)
        a = sweep(build, spes=(1, 2), jobs=1)
        b = sweep(build, spes=(1, 2), jobs=2)
        for n in (1, 2):
            assert a.pairs[n].base.cycles == b.pairs[n].base.cycles
            assert a.pairs[n].prefetch.cycles == b.pairs[n].prefetch.cycles


class TestFallbacks:
    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        def broken(*args, **kwargs):
            raise OSError("cannot fork here")

        monkeypatch.setattr(multiprocessing.Process, "start", broken)
        wl = matmul.build(n=4, threads=2)
        messages: list[str] = []
        results = run_many(
            list(pair_tasks(wl, paper_config(1))), jobs=4,
            progress=messages.append,
        )
        assert len(results) == 2
        assert results[0].cycles > results[1].cycles  # base vs prefetch
        assert any("serially" in m for m in messages)

    def test_jobs_one_never_touches_the_pool(self, monkeypatch):
        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("no process may start for jobs=1")

        monkeypatch.setattr(multiprocessing.Process, "start", explode)
        wl = matmul.build(n=4, threads=2)
        results = run_many(list(pair_tasks(wl, paper_config(1))), jobs=1)
        assert len(results) == 2

    def test_verification_failure_propagates_from_worker(self):
        wl = matmul.build(n=4, threads=2)
        wl.oracle["C"][0] += 1  # sabotage
        tasks = [
            RunTask(wl, paper_config(1), prefetch=False),
            RunTask(wl, paper_config(1), prefetch=True),
        ]
        with pytest.raises(TaskFailure, match="wrong output"):
            run_many(tasks, jobs=2)


class TestFailureIsolation:
    def _mixed_tasks(self):
        """Three healthy pairs plus one whose oracle is sabotaged."""
        good = matmul.build(n=4, threads=2)
        bad = matmul.build(n=4, threads=4)
        bad.oracle["C"][0] += 1
        tasks = list(pair_tasks(good, paper_config(1)))
        tasks.append(RunTask(bad, paper_config(1), prefetch=False))
        tasks.extend(pair_tasks(good, paper_config(2)))
        return tasks, tasks[2].label

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_summary_names_the_failing_task(self, jobs):
        tasks, bad_label = self._mixed_tasks()
        with pytest.raises(TaskFailure) as exc:
            run_many(tasks, jobs=jobs)
        assert bad_label in str(exc.value)
        assert "1 of 5 run(s) failed" in str(exc.value)
        assert set(exc.value.failures) == {bad_label}
        info = exc.value.failures[bad_label]
        assert isinstance(info.error, AssertionError)
        assert info.kind == "error"  # deterministic: never retried
        assert info.attempts == 1

    def test_other_tasks_finish_and_are_cached(self, tmp_path):
        # One bad run must not throw away the rest of the sweep: every
        # healthy task completes and lands in the cache before the batch
        # error is raised, so a fixed-up re-run costs 4 cache hits.
        tasks, _ = self._mixed_tasks()
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(TaskFailure):
            run_many(tasks, jobs=1, cache=cache)
        healthy = [t for i, t in enumerate(tasks) if i != 2]
        assert all(cache.get(t.key()) is not None for t in healthy)

    def test_progress_reports_the_failure(self):
        tasks, bad_label = self._mixed_tasks()
        messages: list[str] = []
        with pytest.raises(TaskFailure):
            run_many(tasks, jobs=1, progress=messages.append)
        assert any(
            bad_label in m and "AssertionError" in m for m in messages
        )


class TestKnobs:
    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_BENCH_JOBS", "6")
        assert default_jobs() == 6
        monkeypatch.setenv("REPRO_BENCH_JOBS", "0")
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_BENCH_JOBS", "garbage")
        assert default_jobs() == 1

    def test_progress_reports_every_run(self):
        wl = matmul.build(n=4, threads=2)
        messages: list[str] = []
        run_many(
            list(pair_tasks(wl, paper_config(1))), jobs=1,
            progress=messages.append,
        )
        assert len(messages) == 2
        assert "[1/2]" in messages[0] and "[2/2]" in messages[1]
        assert all("cycles (ran)" in m for m in messages)

    def test_run_pair_accepts_jobs(self):
        wl = matmul.build(n=4, threads=2)
        serial = run_pair(wl, paper_config(2), jobs=1)
        parallel = run_pair(wl, paper_config(2), jobs=2)
        assert serial.base.cycles == parallel.base.cycles
        assert serial.prefetch.cycles == parallel.prefetch.cycles

    def test_task_label_names_variant_and_size(self):
        wl = matmul.build(n=4, threads=2)
        base, pf = pair_tasks(wl, paper_config(4))
        assert "spes=4" in base.label and base.label.endswith("base")
        assert pf.label.endswith("prefetch")
