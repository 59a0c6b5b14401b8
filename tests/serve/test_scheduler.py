"""JobScheduler: lifecycle, coalescing, cancellation, drain, failures.

Driven directly on an event loop (no HTTP) with the real ``test``-scale
workloads — one run at this scale is tens of thousands of simulated
cycles, fast enough to execute for real.  Failure paths use stub tasks
injected through the scheduler's ``build_tasks`` hook.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import pytest

from repro.bench.journal import SweepJournal
from repro.serve.protocol import parse_request
from repro.serve.queue import QueueFull
from repro.serve.scheduler import CANCELLED, DONE, FAILED, JobScheduler


def run_request(spes: int = 1, benchmark: str = "bitcnt", **extra) -> object:
    params = {"benchmark": benchmark, "scale": "test", "spes": spes}
    params.update(extra.pop("params", {}))
    body = {"v": 1, "kind": "run", "params": params}
    body.update(extra)
    return parse_request(body)


def sweep_request(spes=(1, 2), **extra) -> object:
    body = {
        "v": 1, "kind": "sweep",
        "params": {"benchmark": "bitcnt", "scale": "test",
                   "spes": list(spes)},
    }
    body.update(extra)
    return parse_request(body)


async def settled(scheduler: JobScheduler, record) -> dict:
    status = await record.wait(timeout=120)
    return status


@dataclass(frozen=True)
class GateTask:
    """Blocks until its flag file appears (controls worker occupancy)."""

    name: str
    flag: str

    @property
    def label(self) -> str:
        return self.name

    def key(self) -> str:
        return f"gate:{self.name}"

    def run(self):
        import os
        import time

        deadline = time.monotonic() + 60
        while not os.path.exists(self.flag):
            if time.monotonic() > deadline:  # pragma: no cover - safety
                raise RuntimeError("gate never opened")
            time.sleep(0.01)
        raise ValueError("gate task has no payload")


class TestLifecycle:
    def test_run_job_executes_and_builds_payload(self, cache):
        async def main():
            sched = JobScheduler(cache=cache, workers=1)
            await sched.start()
            record, coalesced = await sched.submit(run_request())
            assert not coalesced
            status = await settled(sched, record)
            await sched.drain()
            return record, status

        record, status = asyncio.run(main())
        assert status["state"] == DONE
        assert status["cached"] is False
        payload = record.result
        assert payload["kind"] == "run"
        assert payload["schema_version"] == 1
        assert payload["run"]["cycles"] > 0
        names = [e["event"] for e in record.events]
        assert names[0] == "queued"
        assert "running" in names
        assert names[-1] == "done"

    def test_sweep_payload_matches_direct_sweep(self, cache):
        from repro.bench.export import scaling_to_dict
        from repro.bench.runner import sweep
        from repro.bench.scale import builders

        async def main():
            sched = JobScheduler(cache=cache, workers=1)
            await sched.start()
            record, _ = await sched.submit(sweep_request())
            await settled(sched, record)
            await sched.drain()
            return record

        record = asyncio.run(main())
        assert record.state == DONE
        direct = scaling_to_dict(sweep(builders("test")["bitcnt"], spes=(1, 2)))
        payload = dict(record.result)
        assert payload.pop("schema_version") == 1
        assert payload.pop("kind") == "sweep"
        assert payload == direct

    def test_journal_and_cache_record_every_task(self, cache):
        async def main():
            sched = JobScheduler(cache=cache, workers=1)
            await sched.start()
            record, _ = await sched.submit(sweep_request())
            await settled(sched, record)
            await sched.drain()

        asyncio.run(main())
        entries = SweepJournal.for_cache(cache).replay()
        assert len(entries) == 4
        assert all(e.done for e in entries.values())
        assert len(cache) == 4

    def test_failed_batch_surfaces_taxonomy(self, cache):
        from repro.bench.scale import builders

        bad = builders("test")["mmul"]()
        bad.oracle["C"][0] += 1  # sabotage: verification must fail

        def build(spec):
            from repro.bench.parallel import RunTask

            return [RunTask(bad, __import__("repro.sim.config",
                                            fromlist=["paper_config"])
                            .paper_config(1), prefetch=False)]

        async def main():
            sched = JobScheduler(cache=cache, workers=1, build_tasks=build)
            await sched.start()
            record, _ = await sched.submit(run_request(benchmark="mmul"))
            await settled(sched, record)
            await sched.drain()
            return record

        record = asyncio.run(main())
        assert record.state == FAILED
        assert record.error["type"] == "JobFailed"
        (info,) = record.error["failures"].values()
        assert info["kind"] == "error"
        assert info["attempts"] == 1
        names = [e["event"] for e in record.events]
        assert names[-1] == "failed"


class TestCoalescing:
    def test_identical_inflight_submits_attach(self, cache):
        async def main():
            sched = JobScheduler(cache=cache, workers=1)
            await sched.start()
            first, c1 = await sched.submit(sweep_request(client="alice"))
            second, c2 = await sched.submit(sweep_request(client="bob"))
            assert not c1 and c2
            assert second is first
            status = await settled(sched, first)
            await sched.drain()
            return first, status

        record, status = asyncio.run(main())
        assert status["coalesced"] == 1
        assert record.state == DONE
        # exactly one batch ran: 4 tasks, zero cache hits
        assert cache.misses == 4 and cache.hits == 0

    def test_completed_job_is_not_attached_but_replays_from_cache(
        self, cache
    ):
        async def main():
            sched = JobScheduler(cache=cache, workers=1)
            await sched.start()
            first, _ = await sched.submit(sweep_request())
            await settled(sched, first)
            second, coalesced = await sched.submit(sweep_request())
            assert not coalesced and second is not first
            status = await settled(sched, second)
            await sched.drain()
            return first, second, status

        first, second, status = asyncio.run(main())
        assert status["cached"] is True
        assert second.result == first.result
        assert cache.misses == 4  # only the first job simulated
        assert cache.hits == 4

    def test_different_specs_do_not_coalesce(self, cache):
        async def main():
            sched = JobScheduler(cache=cache, workers=2)
            await sched.start()
            a, _ = await sched.submit(sweep_request(spes=(1, 2)))
            b, coalesced = await sched.submit(sweep_request(spes=(1, 4)))
            assert not coalesced and b is not a
            await settled(sched, a)
            await settled(sched, b)
            await sched.drain()
            return a, b

        a, b = asyncio.run(main())
        assert a.state == DONE and b.state == DONE
        assert a.result != b.result


class TestCancelAndAdmission:
    def test_queued_job_cancels_running_job_does_not(self, cache, tmp_path):
        flag = tmp_path / "open-gate"

        def build(spec):
            return [GateTask(f"gate-{spec.spes[0]}", str(flag))]

        async def main():
            sched = JobScheduler(cache=None, workers=1, build_tasks=build)
            await sched.start()
            running, _ = await sched.submit(run_request())
            # distinct task key (spes=2) -> its own record, queued
            queued, _ = await sched.submit(run_request(spes=2))
            await asyncio.sleep(0.1)  # let the worker claim `running`
            ok_queued, _ = sched.cancel(queued.id)
            ok_running, reason = sched.cancel(running.id)
            flag.touch()
            await settled(sched, running)
            await sched.drain()
            return queued, running, ok_queued, ok_running, reason

        queued, running, ok_queued, ok_running, reason = asyncio.run(main())
        assert ok_queued and queued.state == CANCELLED
        assert not ok_running and "running" in reason
        # the gate task raises deliberately -> failed, but it *finished*
        assert running.state == FAILED
        ghost_ok, ghost_reason = (False, "unknown job")
        assert (ghost_ok, ghost_reason) == (False, "unknown job")

    def test_full_queue_rejects_with_retry_after(self, cache, tmp_path):
        flag = tmp_path / "open-gate"

        def build(spec):
            return [GateTask(f"gate-{spec.spes[0]}", str(flag))]

        async def main():
            sched = JobScheduler(
                cache=None, workers=1, max_depth=1, build_tasks=build,
            )
            await sched.start()
            await sched.submit(run_request(spes=1))
            await asyncio.sleep(0.1)  # worker occupied
            await sched.submit(run_request(spes=2))  # fills the queue
            with pytest.raises(QueueFull) as exc:
                await sched.submit(run_request(spes=4))
            flag.touch()
            await sched.drain()
            return exc.value

        err = asyncio.run(main())
        assert err.retry_after >= 1

    def test_draining_scheduler_refuses_new_jobs(self, cache):
        async def main():
            sched = JobScheduler(cache=cache, workers=1)
            await sched.start()
            record, _ = await sched.submit(run_request())
            sched.draining = True
            with pytest.raises(RuntimeError, match="draining"):
                await sched.submit(run_request(spes=2))
            await sched.drain()
            return record

        record = asyncio.run(main())
        # the accepted job still ran to completion during the drain
        assert record.state == DONE
