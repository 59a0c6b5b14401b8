"""``reproduce-default``: the experiment matrix, cold and then warm.

One *cycle* runs ``repro reproduce --scale default -j2`` on a fresh
result cache (30 simulations over two worker processes) and then the
same command three more times, each replaying every result from that
cache.  Every warm output must be byte-identical to the cold one, and
every cold output must be byte-identical to the first cycle's.  After
each warm run the benchmark serves every cached result back through
:class:`~repro.bench.cache.ResultCache` in a burst; the hit-latency
percentiles are taken over every lookup of the run.  Cycles repeat until
the run's time is up.  Every timed piece (a ``reproduce`` run with its
pool tasks, a burst of lookups) is scaled to the reference host's speed
(:class:`~perfbench.common.HostSpeed`).
"""

from __future__ import annotations

import json
import sys
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

SIZES = {
    "full": {"scale": "default", "spes": (), "warm_runs": 3, "hit_rounds": 7},
    "tiny": {"scale": "test", "spes": ("1", "2"), "warm_runs": 1,
             "hit_rounds": 1},
}
BENCHMARKS = ("bitcnt", "mmul", "zoom")
#: The stderr line ``reproduce`` prints once its inputs are built.
READY = "# running "


def arguments(size: dict, output) -> "list[str]":
    """The ``repro`` command line of one ``reproduce`` run."""
    args = ["reproduce", "--scale", size["scale"], "-j2", "-o", str(output)]
    if size["spes"]:
        args += ["--spes", *size["spes"]]
    return args


def runs_of(data: dict) -> "list[tuple[str, dict]]":
    """(benchmark, run dict) for every simulation in a reproduce output."""
    runs = []
    experiments = data["experiments"]
    for name, scaling in experiments["scaling"].items():
        for pair in scaling["points"].values():
            runs += [(name, pair["base"]), (name, pair["prefetch"])]
    for name, pair in experiments["latency1"].items():
        runs += [(name, pair["base"]), (name, pair["prefetch"])]
    return runs


def invoke(size: dict, cache_dir, output, work, out: Outcome, what: str):
    """Run ``reproduce`` once; returns (finished child, set-up seconds)
    or None."""
    child = Child([sys.executable, "-m", "repro", *arguments(size, output)],
                  child_env(work, REPRO_BENCH_CACHE=str(cache_dir)))
    setup = child.wait_line(READY, timeout=170)
    rc = child.finish(timeout=170)
    ok = rc == 0 and setup is not None and output.is_file()
    if not out.check(ok, f"{what} reproduce exited {rc}: "
                         f"{child.text()[-800:]}"):
        return None
    return child, setup


def cycle(k: int, size: dict, work, out: Outcome, first: dict,
          host: HostSpeed):
    """One cold run and its warm replays; returns its samples or None."""
    from repro.bench.cache import ResultCache
    from repro.bench.journal import SweepJournal

    cache_dir = work / f"cache{k}"
    cold_path = work / f"cold{k}.json"
    cold = invoke(size, cache_dir, cold_path, work, out, "cold")
    if cold is None:
        return None
    cold, cold_setup = cold
    factor = host.scale()
    text = cold_path.read_bytes()
    data = json.loads(text)
    runs = runs_of(data)
    ran = cold.text().count("(ran)")
    first.setdefault("text", text)
    if not out.check(
        "degraded" not in data and ran == len(runs) and text == first["text"],
        f"cold reproduce {k}: degraded={'degraded' in data}, ran {ran} of "
        f"{len(runs)}, same as first cycle: {text == first['text']}",
    ):
        return None
    cache = ResultCache(cache_dir)
    entries = [e for e in SweepJournal.for_cache(cache).replay().values()
               if e.done]
    keys = [e.key for e in entries]
    cycles = sorted(run["cycles"] for _, run in runs)
    setup, warm, hits = [cold_setup * factor], [], []
    rss = [cold.peak_rss_mb()]
    for w in range(size["warm_runs"]):
        warm_path = work / f"warm{k}-{w}.json"
        done = invoke(size, cache_dir, warm_path, work, out, "warm")
        if done is None:
            return None
        child, child_setup = done
        warm_factor = host.scale()
        if not out.check(
            warm_path.read_bytes() == text and "(ran)" not in child.text(),
            f"warm reproduce {k} differs from its cold run or re-simulated",
        ):
            return None
        setup.append(child_setup * warm_factor)
        warm.append(child.wall * warm_factor)
        rss.append(child.peak_rss_mb())
        burst = replay_hits(cache, keys, cycles, size["hit_rounds"], out)
        hit_factor = host.scale()
        hits.append([s * hit_factor for s in burst])
    # The pool's tasks ran during the cold run.
    task_s = [e.duration * factor for e in entries]
    seconds = {n: 0.0 for n in BENCHMARKS}
    for entry, duration in zip(entries, task_s):
        seconds[entry.label.split("(")[0]] += duration
    instructions = {n: 0 for n in BENCHMARKS}
    for name, run in runs:
        instructions[name] += run["instructions"]["total"]
    return {
        "cold_s": cold.wall * factor,
        "warm_s": warm,
        "setup": setup,
        "hits": hits,
        "rss_mb": max(rss),
        "tasks": len(runs),
        "task_s": task_s,
        "kips": {n: instructions[n] / seconds[n] / 1000.0 for n in BENCHMARKS},
        "sim_kips": (sum(instructions.values()) / sum(seconds.values())
                     / 1000.0),
        "sim_cycles": sum(cycles),
    }


def replay_hits(cache, keys, cycles, rounds: int, out: Outcome):
    """A burst of ``ResultCache.get`` calls, ``rounds`` over every key;
    the results must be the ones ``reproduce`` reported."""
    burst, got = [], []
    for _ in range(rounds):
        for key in keys:
            start = time.perf_counter()
            result = cache.get(key)
            elapsed = time.perf_counter() - start
            if out.check(result is not None, f"cache lost {key}"):
                burst.append(elapsed)
                got.append(result.cycles)
    out.check(sorted(got) == sorted(cycles * rounds),
              "cached results differ from the reproduce output")
    return burst


def measure(name: str, seed: int, seconds: float, work, size: str = "full"):
    """The untraced run (``seed`` is unused: the matrix is fixed)."""
    sz = SIZES[size]
    out = Outcome()
    first: dict = {}
    cycles = []
    host = HostSpeed()
    start = time.perf_counter()
    while another(start, len(cycles), seconds):
        done = cycle(len(cycles), sz, work, out, first, host)
        if done is None:
            break
        cycles.append(done)
    if out.failed or not cycles:
        return out
    hits = [s for c in cycles for burst in c["hits"] for s in burst]
    out.metrics = {
        "setup_s": median(s for c in cycles for s in c["setup"]),
        "sim_kips": median(c["sim_kips"] for c in cycles),
        **{f"{n}_kips": median(c["kips"][n] for c in cycles)
           for n in BENCHMARKS},
        "sim_cycles": cycles[0]["sim_cycles"],
        "peak_rss_mb": median(c["rss_mb"] for c in cycles),
        "wall_s": median(c["cold_s"] for c in cycles),
        "warm_s": median(s for c in cycles for s in c["warm_s"]),
        "jobs_per_s": median(c["tasks"] / c["cold_s"] for c in cycles),
        "hit_p50_ms": 1000.0 * median(hits),
        "hit_p95_ms": 1000.0 * percentile(hits, 95),
        "miss_p50_ms": 1000.0 * median(s for c in cycles for s in c["task_s"]),
    }
    out.record = {
        **host.record(),
        "cycles": len(cycles),
        "simulations": cycles[0]["tasks"],
        "hit_samples": len(hits),
    }
    return out


def trace(name: str, seed: int, work, size: str = "full"):
    """The traced run: ``reproduce`` cold and warm through the CLI entry
    point in this process, once untraced and once traced.

    The simulations run in the pool's worker processes, which the
    shims of this process cannot see, so only the bench layers
    (``bench.parallel``, ``bench.cache``, ``bench.export``) are traced.
    """
    import os

    from repro.bench.cache import ResultCache, code_stamp
    from repro.bench.journal import SweepJournal
    from repro.cli import main as repro_main

    from perfbench.tracer import Tracer, import_layers

    # Both passes start with every traced module loaded and the cache's
    # once-per-process code stamp computed.
    import_layers()
    code_stamp()
    sz = SIZES[size]
    out = Outcome()
    outputs = {}

    def cold_and_warm(tag: str) -> float:
        cache_dir = work / f"cache-{tag}"
        os.environ["REPRO_BENCH_CACHE"] = str(cache_dir)
        start = time.perf_counter()
        for run in ("cold", "warm"):
            path = work / f"{tag}-{run}.json"
            try:
                rc = repro_main(arguments(sz, path))
            except Exception as exc:  # one failed operation
                out.fail(f"{tag} {run}: {type(exc).__name__}: {exc}")
                continue
            if out.check(rc == 0 and path.is_file(),
                         f"{tag} {run} exited {rc}"):
                outputs[(tag, run)] = path.read_bytes()
        return time.perf_counter() - start

    try:
        untraced = cold_and_warm("untraced")
        with Tracer(simulation=False) as tracer:
            traced = cold_and_warm("traced")
    finally:
        os.environ.pop("REPRO_BENCH_CACHE", None)
    texts = set(outputs.values())
    out.check(len(outputs) == 4 and len(texts) == 1,
              "traced and untraced reproduce outputs differ")
    journal = SweepJournal.for_cache(ResultCache(work / "cache-traced"))
    task_seconds = sum(e.duration for e in journal.replay().values() if e.done)
    out.metrics = tracer.layer_table(untraced, traced, task_seconds)
    out.record = {"untraced_s": untraced, "traced_s": traced}
    return out
