"""Acceptance: concurrent clients, coalescing, chaos, lossless drain.

These are the issue's end-to-end criteria, executed over real sockets
against real (test-scale) simulations:

* N concurrent clients submitting the identical sweep cost exactly ONE
  simulation per task, and every client receives bit-identical results
  that match a direct in-process ``runner.sweep``;
* a SIGKILLed worker mid-job surfaces as a ``retrying`` event and the
  job still completes with correct results — the client never sees an
  error;
* SIGTERM drains without losing any accepted job, and a restarted
  server replays the drained work from the persistent cache.
"""

from __future__ import annotations

import json
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.bench.journal import SweepJournal
from repro.bench.parallel import RunTask
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.scheduler import JobScheduler


@dataclass(frozen=True)
class KillOnceTask:
    """Wraps a real :class:`RunTask`; SIGKILLs its worker on the first
    attempt (a container-eviction / OOM stand-in), then runs for real.

    Same label/key as the wrapped task, so cache and journal entries
    are indistinguishable from an uneventful run.
    """

    inner: RunTask
    flag: str

    @property
    def label(self) -> str:
        return self.inner.label

    def key(self) -> str:
        return self.inner.key()

    def run(self):
        if not os.path.exists(self.flag):
            open(self.flag, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.run()


def sweep_payload_direct(spes=(1, 2)) -> dict:
    """What the gateway must return: a direct in-process sweep."""
    from repro.bench.export import scaling_to_dict
    from repro.bench.runner import sweep
    from repro.bench.scale import builders

    out = scaling_to_dict(sweep(builders("test")["bitcnt"], spes=spes))
    out["schema_version"] = 1
    out["kind"] = "sweep"
    return out


def submit_and_wait(port: int, name: str, spes) -> "tuple[str, dict]":
    client = ServeClient(port=port, client=name)
    job = client.submit("sweep", "bitcnt", scale="test", spes=list(spes))
    client.wait(job["id"], timeout=300)
    return job["id"], client.result(job["id"])


class TestConcurrentCoalescing:
    def test_eight_identical_sweeps_cost_one_simulation(
        self, serve_factory, cache
    ):
        app, _ = serve_factory(workers=2)
        with ThreadPoolExecutor(8) as pool:
            futures = [
                pool.submit(submit_and_wait, app.bound_port,
                            f"client-{i}", (1, 2))
                for i in range(8)
            ]
            outcomes = [f.result(timeout=300) for f in futures]

        # one job, everyone attached to it
        assert len({job_id for job_id, _ in outcomes}) == 1
        record = next(iter(app.scheduler.records.values()))
        assert record.coalesced == 7

        # exactly one simulation per task: 4 misses, no re-runs
        assert cache.misses == 4
        assert cache.hits == 0
        entries = SweepJournal.for_cache(cache).replay()
        assert len(entries) == 4
        assert all(e.done and e.attempts == 1 for e in entries.values())

        # every client got the same bytes, equal to the direct sweep
        blobs = {json.dumps(p, sort_keys=True) for _, p in outcomes}
        assert len(blobs) == 1
        assert outcomes[0][1] == sweep_payload_direct()

        metrics = ServeClient(port=app.bound_port).metrics()
        assert "repro_serve_jobs_coalesced_total 7" in metrics
        assert "repro_serve_jobs_done_total 1" in metrics

    def test_duplicate_and_distinct_mix(self, serve_factory, cache):
        # 4 clients ask sweep A, 4 ask sweep B; A and B share the 1-SPE
        # point.  workers=1 serializes the two jobs, so B's shared tasks
        # replay from the cache: 6 unique simulations, 2 hits.
        app, _ = serve_factory(workers=1)
        with ThreadPoolExecutor(8) as pool:
            futures = [
                pool.submit(submit_and_wait, app.bound_port,
                            f"client-{i}", (1, 2) if i % 2 else (1, 4))
                for i in range(8)
            ]
            outcomes = [f.result(timeout=300) for f in futures]

        assert len({job_id for job_id, _ in outcomes}) == 2
        assert cache.misses == 6
        assert cache.hits == 2
        payload_a = sweep_payload_direct((1, 2))
        payload_b = sweep_payload_direct((1, 4))
        for i, (_, payload) in enumerate(outcomes):
            assert payload == (payload_a if i % 2 else payload_b)


class TestChaosMidJob:
    def test_killed_worker_streams_retrying_then_done(
        self, serve_factory, cache, tmp_path
    ):
        spec = protocol.parse_request({
            "v": 1, "kind": "run",
            "params": {"benchmark": "bitcnt", "scale": "test", "spes": 1},
        }).spec
        inner = protocol.build_tasks(spec)[0]
        flag = str(tmp_path / "killed-once")

        def build(spec):
            return [KillOnceTask(inner, flag)]

        # timeout forces the per-task child-process path (the kill must
        # hit a child process, not the server); retries default to the
        # env/2.
        scheduler = JobScheduler(
            cache=cache, workers=1, sim_jobs=2, timeout=120,
            backoff=0, build_tasks=build,
        )
        app, client = serve_factory(scheduler=scheduler)
        job = client.submit("run", "bitcnt", scale="test", spes=1)
        events = list(client.events(job["id"]))
        names = [e["event"] for e in events]
        assert "retrying" in names  # the eviction was visible mid-stream
        assert names[-1] == "done"  # ...and harmless
        assert "failed" not in names
        from repro.bench.parallel import CRASH

        retry = next(e for e in events if e["event"] == "retrying")
        assert retry["kind"] == CRASH
        assert retry["attempt"] == 2

        final = client.status(job["id"])
        assert final["state"] == "done"
        assert final["retries"] == 1
        # the payload is bit-identical to an unmolested direct run
        from repro.bench.export import run_to_dict

        assert client.result(job["id"])["run"] == run_to_dict(inner.run())


class TestSigtermDrain:
    def test_drain_is_lossless_and_restart_replays_from_cache(
        self, serve_factory, cache
    ):
        app, client = serve_factory(workers=1)
        sweep_job = client.submit("sweep", "bitcnt", scale="test",
                                  spes=[1, 2])
        run_job = client.submit("run", "mmul", scale="test", spes=1)

        app.request_drain()
        deadline = time.monotonic() + 10
        while not app.scheduler.draining:
            assert time.monotonic() < deadline
            time.sleep(0.01)

        # while draining: new work refused, accepted work still visible
        try:
            client.submit("run", "zoom", scale="test", spes=1)
            refused = False
        except ServeError as exc:
            refused = exc.status == 503
        assert refused

        # both accepted jobs settle; nothing is lost
        deadline = time.monotonic() + 300
        records = app.scheduler.records
        while not all(r.state in ("done", "failed", "cancelled")
                      for r in records.values()):
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert [r.state for r in records.values()] == ["done", "done"]

        entries = SweepJournal.for_cache(cache).replay()
        assert len(entries) == 5  # 4 sweep tasks + 1 run task
        assert all(e.done for e in entries.values())

        # a restarted server replays the drained work from the cache
        app2, client2 = serve_factory(workers=1)
        again = client2.submit("sweep", "bitcnt", scale="test", spes=[1, 2])
        final = client2.wait(again["id"], timeout=120)
        assert final["state"] == "done"
        assert final["cached"] is True
        assert client2.result(again["id"]) == \
            records[sweep_job["id"]].result
