"""``serve-mix``: a served mix of repeated and first-seen ``run`` jobs.

One *round* boots ``repro serve`` (2 workers) on a fresh result cache and
lets 2 closed-loop client threads work through a seeded sequence of
test-scale ``run`` jobs: every client submits its next job only after
its previous result arrived.  The spec space is the repository's own
experiment axes: benchmark x memory latency (150 of ``paper_config``, 1
of ``latency1_config``) x prefetch x ``spe_counts()``, 48 specs.  Each
spec appears first-seen at a fixed stride, with ``repeats`` repeated
jobs between, so a round simulates the same work on every seed; the
seed sets the order and which already-seen spec each repeat names.  A
repeat is answered from the cache, or, when its spec is still being
simulated, coalesced onto that job.  After the mix, every spec is
submitted once more, one after another, three times over (the warm
replays), and the server is stopped with SIGTERM.  Rounds repeat until
the run's time is up.

Every job must finish ``done``; the server checks each simulated run
against its oracle, and every repeated result must equal the first
result of its spec.  Every timed piece (the boot, the mix, the warm
replays) is scaled to the reference host's speed
(:class:`~perfbench.common.HostSpeed`).
"""

from __future__ import annotations

import itertools
import random
import sys
import threading
import time

from perfbench.common import (
    Child,
    HostSpeed,
    Outcome,
    another,
    child_env,
    median,
    percentile,
)
from repro.bench.scale import spe_counts
from repro.sim.config import latency1_config, paper_config

BENCHMARKS = ("bitcnt", "mmul", "zoom")
#: Main-memory latency of ``paper_config`` (150) and of ``latency1_config``
#: (1).  The protocol's ``latency`` sets main memory only, so the
#: latency-1 specs keep the local store's own latency.
LATENCIES = tuple(cfg().main_memory.latency
                  for cfg in (paper_config, latency1_config))
SPECS = tuple(itertools.product(BENCHMARKS, LATENCIES, (False, True),
                                spe_counts()))
WORKERS = 2
CLIENTS = 2
#: Warm replays of the whole spec set after each round's mix.
WARM_PASSES = 3

SIZES = {
    "full": {"specs": tuple(range(len(SPECS))), "repeats": 9},
    "tiny": {"specs": tuple(range(0, len(SPECS), 11)), "repeats": 3},
}


def job_mix(seed: int, specs, repeats: int) -> "list[int]":
    """A seeded sequence of the spec indices ``specs``.

    Specs first appear at a fixed stride, one every ``1 + repeats``
    positions, so every seed spaces its simulations alike; the seed sets
    their order.  Each other position repeats a spec already seen,
    chosen uniformly by the seed.
    """
    rng = random.Random(seed)
    order = list(specs)
    rng.shuffle(order)
    stride = 1 + repeats
    return [
        order[pos // stride] if pos % stride == 0
        else rng.choice(order[:pos // stride + 1])
        for pos in range(len(order) * stride)
    ]


def params(index: int) -> dict:
    benchmark, latency, prefetch, spes = SPECS[index]
    return {"benchmark": benchmark, "latency": latency, "prefetch": prefetch,
            "spes": spes, "scale": "test"}


def request(client, index: int) -> dict:
    """Submit one job, wait for it and fetch its result."""
    p = params(index)
    start = time.perf_counter()
    job = client.submit("run", p.pop("benchmark"), **p)
    status = client.wait(job["id"], timeout=170)
    payload = client.result(job["id"]) if status["state"] == "done" else None
    return {
        "index": index, "status": status, "payload": payload,
        "coalesced": job.get("coalesced_into") is not None,
        "latency_s": time.perf_counter() - start,
    }


def play(port: int, mix: "list[int]", out: Outcome) -> dict:
    """Work through ``mix`` with the closed-loop clients; returns the
    round's jobs (in mix order) and its wall time."""
    from repro.serve.client import ServeClient

    jobs: "list[dict | None]" = [None] * len(mix)
    cursor = iter(range(len(mix)))
    lock = threading.Lock()
    first = {}
    for pos, index in enumerate(mix):
        first.setdefault(index, pos)

    def client_loop(name: str) -> None:
        client = ServeClient(port=port, client=name, timeout=170)
        while True:
            with lock:
                pos = next(cursor, None)
            if pos is None:
                return
            try:
                job = request(client, mix[pos])
            except Exception as exc:  # one failed operation
                with lock:
                    out.fail(f"job {pos}: {type(exc).__name__}: {exc}")
                continue
            job["hit"] = first[mix[pos]] != pos
            jobs[pos] = job

    threads = [threading.Thread(target=client_loop, args=(f"client{i}",))
               for i in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(175)
    wall = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        out.fail("a client thread did not finish")
    return {"jobs": jobs, "wall_s": wall}


def check(round_: dict, out: Outcome) -> "dict[int, dict]":
    """Count each job as an operation: it must be done and its result
    equal to the first result of its spec.  Returns spec -> result."""
    cold: "dict[int, dict]" = {}
    for pos, job in enumerate(round_["jobs"]):
        if job is None:
            continue  # already counted as failed
        ok = job["status"]["state"] == "done" and job["payload"] is not None
        if ok:
            cold.setdefault(job["index"], job["payload"])
        same = ok and job["payload"] == cold[job["index"]]
        out.check(same, f"job {pos} ({params(job['index'])}): state "
                        f"{job['status']['state']}, matches first result: "
                        f"{same}")
    return cold


def warm_replay(port: int, cold: dict, passes: int, out: Outcome,
                host: HostSpeed) -> "list[float]":
    """Submit every spec once more, one after another, ``passes`` times;
    returns the wall time of each pass, scaled by ``host``."""
    from repro.serve.client import ServeClient

    client = ServeClient(port=port, client="warm", timeout=170)
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        for index, payload in sorted(cold.items()):
            try:
                job = request(client, index)
            except Exception as exc:
                out.fail(f"warm job {index}: {type(exc).__name__}: {exc}")
                continue
            out.check(job["payload"] == payload and job["status"]["cached"],
                      f"warm job {index} was not the cached first result")
        times.append((time.perf_counter() - start) * host.scale())
    return times


def coalesced(port: int) -> int:
    """Jobs the gateway coalesced onto an identical job, per /metricsz."""
    from repro.serve.client import ServeClient

    for line in ServeClient(port=port).metrics().splitlines():
        if line.startswith("repro_serve_jobs_coalesced_total "):
            return int(float(line.split()[1]))
    return 0


def boot(work, tag: str, out: Outcome):
    """Start ``repro serve``; returns (child, port, set-up seconds) or None
    once it answers ``/healthz``."""
    from repro.serve.client import ServeClient

    child = Child(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(WORKERS)],
        child_env(work, REPRO_BENCH_CACHE=str(work / f"cache-{tag}")),
    )
    if child.wait_line("serving on ", timeout=60) is None:
        child.proc.kill()
        child.finish(timeout=10)
        out.fail(f"server {tag} never listened: {child.text()[-500:]}")
        return None
    line = next(text for _, text in child.lines if "serving on " in text)
    port = int(line.rsplit(":", 1)[1])
    client = ServeClient(port=port, timeout=5)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            if client.healthz()["status"] == "ok":
                return child, port, time.perf_counter() - child.start
        except OSError:
            pass
        time.sleep(0.005)
    stop(child, out)
    out.fail(f"server {tag} never became healthy")
    return None


def stop(child: Child, out: Outcome) -> None:
    """SIGTERM: the server drains and must exit 0."""
    child.proc.terminate()
    rc = child.finish(timeout=60)
    out.check(rc == 0, f"server exited {rc}: {child.text()[-500:]}")


def run_round(k: int, mix, work, out: Outcome,
              host: HostSpeed) -> "dict | None":
    """One round on a fresh server: the mix, the warm replays, the drain."""
    booted = boot(work, str(k), out)
    if booted is None:
        return None
    child, port, setup = booted
    try:
        setup *= host.scale()
        round_ = play(port, mix, out)
        factor = host.scale()
        round_["wall_s"] *= factor
        for job in round_["jobs"]:
            if job is not None:
                job["latency_s"] *= factor
        cold = check(round_, out)
        round_["warm_s"] = warm_replay(port, cold, WARM_PASSES, out, host)
        round_["cold"] = cold
    finally:
        stop(child, out)
    round_["setup_s"] = setup
    round_["rss_mb"] = child.peak_rss_mb()
    return round_


def measure(name: str, seed: int, seconds: float, work, size: str = "full"):
    """The untraced run."""
    sz = SIZES[size]
    mix = job_mix(seed, sz["specs"], sz["repeats"])
    out = Outcome()
    rounds = []
    host = HostSpeed()
    start = time.perf_counter()
    while another(start, len(rounds), seconds):
        done = run_round(len(rounds), mix, work, out, host)
        if done is None or out.failed:
            break
        rounds.append(done)
    if out.failed or not rounds:
        return out
    jobs = [j for r in rounds for j in r["jobs"]]
    hits = [j["latency_s"] for j in jobs if j["hit"]]
    misses = [j["latency_s"] for j in jobs if not j["hit"]]

    def simulated(r, names=BENCHMARKS) -> float:
        instr = sum(p["run"]["instructions"]["total"]
                    for i, p in r["cold"].items() if SPECS[i][0] in names)
        return instr / r["wall_s"] / 1000.0

    out.metrics = {
        "setup_s": median(r["setup_s"] for r in rounds),
        "sim_kips": median(simulated(r) for r in rounds),
        **{f"{n}_kips": median(simulated(r, (n,)) for r in rounds)
           for n in BENCHMARKS},
        "sim_cycles": sum(p["run"]["cycles"]
                          for p in rounds[0]["cold"].values()),
        "peak_rss_mb": median(r["rss_mb"] for r in rounds),
        "wall_s": median(r["wall_s"] for r in rounds),
        "warm_s": median(s for r in rounds for s in r["warm_s"]),
        "jobs_per_s": median(len(mix) / r["wall_s"] for r in rounds),
        "hit_p50_ms": 1000.0 * median(hits),
        "hit_p95_ms": 1000.0 * percentile(hits, 95),
        "miss_p50_ms": 1000.0 * median(misses),
    }
    out.record = {
        **host.record(),
        "rounds": len(rounds),
        "jobs_per_round": len(mix),
        "hit_samples": len(hits),
        "miss_samples": len(misses),
        "hit_share": hit_share(jobs),
        "coalesced_share": sum(j["coalesced"] for j in jobs) / len(jobs),
    }
    return out


def hit_share(jobs) -> float:
    """Share of jobs the server answered without simulating: from the
    cache or by coalescing onto an identical job in flight."""
    answered = [j["status"]["cached"] or j["coalesced"] for j in jobs]
    return sum(answered) / len(answered)


def trace(name: str, seed: int, work, size: str = "full"):
    """The traced run: one round against a gateway hosted in this
    process, once untraced and once traced."""
    from repro.bench.cache import ResultCache, code_stamp
    from repro.bench.journal import SweepJournal
    from repro.serve.app import ServeApp

    from perfbench.tracer import Tracer, import_layers

    # Both passes start with every traced module loaded and the cache's
    # once-per-process code stamp computed.
    import_layers()
    code_stamp()
    sz = SIZES[size]
    mix = job_mix(seed, sz["specs"], sz["repeats"])
    out = Outcome()

    def hosted_round(tag: str) -> "tuple[float, dict, int]":
        cache = ResultCache(work / f"cache-{tag}")
        app = ServeApp(port=0, cache=cache, workers=WORKERS)
        thread = threading.Thread(target=app.run, daemon=True)
        thread.start()
        try:
            if not out.check(app.ready.wait(30), f"{tag} server never ready"):
                return 0.0, {"jobs": []}, 0
            round_ = play(app.bound_port, mix, out)
            check(round_, out)
            merged = coalesced(app.bound_port)
        finally:
            app.request_drain()
            thread.join(60)
        out.check(not thread.is_alive(), f"{tag} server did not drain")
        return round_["wall_s"], round_, merged

    untraced, _, _ = hosted_round("untraced")
    if out.failed:
        return out
    with Tracer() as tracer:
        traced, round_, merged = hosted_round("traced")
    jobs = [j for j in round_["jobs"] if j is not None]
    journal = SweepJournal.for_cache(ResultCache(work / "cache-traced"))
    task_seconds = sum(e.duration for e in journal.replay().values() if e.done)
    out.metrics = tracer.layer_table(
        untraced, traced, task_seconds,
        serve={"hit_share": hit_share(jobs) if jobs else 0.0,
               "coalesced": merged,
               "coalesced_share": merged / len(mix)},
    )
    out.record = {"untraced_s": untraced, "traced_s": traced}
    return out
