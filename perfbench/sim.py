"""``pf-paper`` and ``base-paper``: paper-scale simulation, in process.

One *pass* simulates bitcnt, mmul and zoom at paper scale on 8 SPEs at
memory latency 150, one after another, each through a fresh
:class:`~repro.cell.machine.Machine` and checked against its oracle.
``pf-paper`` applies the prefetch transformation first; ``base-paper``
runs the same inputs without it.  Passes alternate: a *cold* pass builds
fresh workloads (and transforms them), the *warm* pass after it repeats
the same runs on the workloads and activities already built, as a
repeated request to a simulator with no result cache on its path does.
Passes repeat until the run's time is up, at least one of each kind.
A set-up probe in a fresh interpreter runs before the first pass and
after every pass, so the set-up samples follow the host's drift over
the run as the passes do.  Every timed piece (a probe, a workload build,
a run) is scaled to the reference host's speed
(:class:`~perfbench.common.HostSpeed`).
"""

from __future__ import annotations

import resource
import sys
import time
from statistics import mean

from perfbench.common import (
    Child,
    HostSpeed,
    Outcome,
    another,
    child_env,
    median,
    percentile,
)

BENCHMARKS = ("bitcnt", "mmul", "zoom")
SPES = 8
LATENCY = 150

#: Workload scale at full size and at the self-tests' tiny size.
SIZES = {"full": "paper", "tiny": "test"}


def config():
    from repro.sim.config import paper_config

    return paper_config(SPES).with_latency(LATENCY)


def build_workloads(seed: int, scale: str) -> dict:
    """The three benchmarks at ``scale``; ``seed`` sets the mmul and zoom
    input data (bitcnt's inputs are fixed by its build function)."""
    from repro.bench.scale import SCALES
    from repro.workloads import bitcount, matmul, zoom

    params = SCALES[scale]
    return {
        "bitcnt": bitcount.build(**params["bitcnt"]),
        "mmul": matmul.build(**params["mmul"], seed=7 + seed),
        "zoom": zoom.build(**params["zoom"], seed=11 + seed),
    }


def prepare(workload, prefetch: bool, cfg, activity=None):
    """Build and load one machine with ``activity``, or with the
    workload's activity, transformed when ``prefetch``; returns the
    machine and the activity."""
    from repro.cell.machine import Machine
    from repro.compiler import passes

    if activity is None:
        activity = workload.activity
        if prefetch:
            activity = passes.prefetch_transform(activity)
    machine = Machine(cfg)
    machine.load(activity)
    return machine, activity


def probe(prefetch: bool, seed: int, scale: str) -> None:
    """Set-up probe run in a fresh interpreter: everything before the
    first simulated cycle, then ``ready`` on stdout."""
    cfg = config()
    for workload in build_workloads(seed, scale).values():
        prepare(workload, prefetch, cfg)
    print("ready", flush=True)


def setup_seconds(prefetch: bool, seed: int, scale: str, work,
                  out: Outcome) -> "float | None":
    """Launch-to-ready seconds of one fresh set-up probe."""
    code = (
        "from perfbench.sim import probe; "
        f"probe({prefetch!r}, {seed!r}, {scale!r})"
    )
    child = Child([sys.executable, "-c", code], child_env(work))
    ready = child.wait_line("ready", timeout=120)
    rc = child.finish(timeout=30)
    if out.check(ready is not None and rc == 0,
                 f"set-up probe failed (exit {rc}): {child.text()[-500:]}"):
        return ready
    return None


def run_pass(build, prefetch: bool, out: Outcome, expected: dict,
             warm_from: "dict | None" = None,
             host: "HostSpeed | None" = None) -> dict:
    """Simulate every benchmark once; returns the pass's samples.

    A cold pass builds fresh workloads with ``build()``; a warm pass
    reuses the workloads and activities of the pass ``warm_from``.
    ``expected`` maps each benchmark to the (cycles, instructions) of its
    first successful run: a later run that differs is a failed
    operation, as is any oracle mismatch or error.  With ``host``, each
    piece's times are scaled to the reference host's speed, and the
    pass's wall time is the sum of its pieces.
    """
    from repro.workloads import common

    def scale() -> float:
        return host.scale() if host is not None else 1.0

    cfg = config()
    start = time.perf_counter()
    if warm_from is None:
        workloads, activities = build(), {}
    else:
        workloads = {n: r["workload"] for n, r in warm_from["runs"].items()}
        activities = {n: r["activity"] for n, r in warm_from["runs"].items()}
    wall = (time.perf_counter() - start) * scale()
    runs = {}
    for name, workload in workloads.items():
        begin = time.perf_counter()
        try:
            machine, activity = prepare(workload, prefetch, cfg,
                                        activities.get(name))
            sim_start = time.perf_counter()
            result = machine.run()
            sim_s = time.perf_counter() - sim_start
            errors = common.check_outputs(workload, machine)
        except Exception as exc:  # any error is one failed operation
            out.fail(f"{name}: {type(exc).__name__}: {exc}")
            continue
        latency = time.perf_counter() - begin
        factor = scale()
        wall += latency * factor
        if errors:
            out.fail(f"{name}: wrong output: {errors[:3]}")
            continue
        signature = (result.cycles, result.stats.mix.total)
        expected.setdefault(name, signature)
        if not out.check(expected[name] == signature,
                         f"{name}: (cycles, instructions) {signature} "
                         f"differs from the first pass's {expected[name]}"):
            continue
        runs[name] = {
            "workload": workload, "activity": activity, "result": result,
            "sim_s": sim_s * factor, "latency_s": latency * factor,
        }
    return {"wall_s": wall, "runs": runs}


def measure(name: str, seed: int, seconds: float, work, size: str = "full"):
    """The untraced run of ``pf-paper`` or ``base-paper``."""
    prefetch = name == "pf-paper"
    scale = SIZES[size]
    out = Outcome()
    setup = []
    host = HostSpeed()

    def probe_setup() -> None:
        ready = setup_seconds(prefetch, seed, scale, work, out)
        factor = host.scale()
        if ready is not None:
            setup.append(ready * factor)

    expected: dict = {}
    passes = []
    start = time.perf_counter()
    probe_setup()
    while len(passes) < 2 or another(start, len(passes), seconds):
        warm_from = passes[-1] if len(passes) % 2 else None
        passes.append(run_pass(lambda: build_workloads(seed, scale),
                               prefetch, out, expected, warm_from, host))
        probe_setup()
        if out.failed:
            return out
        if len(passes) == 1:
            # Later passes add allocator fragmentation, not peak working
            # set, so the peak is read where every run has had one pass.
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
    cold, warm = passes[0::2], passes[1::2]

    def kips(names=BENCHMARKS):
        runs = [p["runs"][n] for p in passes for n in names]
        instr = sum(r["result"].stats.mix.total for r in runs)
        return instr / sum(r["sim_s"] for r in runs) / 1000.0

    def latency_ms(kind, q):
        # The three benchmarks' run times lie a few percent apart, so one
        # percentile over all runs would jump between them: average the
        # per-benchmark percentiles instead.
        return 1000.0 * mean(
            percentile([p["runs"][n]["latency_s"] for p in kind], q)
            for n in BENCHMARKS
        )

    first = passes[0]["runs"]
    out.metrics = {
        "setup_s": median(setup),
        "sim_kips": kips(),
        **{f"{n}_kips": kips((n,)) for n in BENCHMARKS},
        "sim_cycles": sum(first[n]["result"].cycles for n in BENCHMARKS),
        "peak_rss_mb": peak_rss_mb,
        "wall_s": median(p["wall_s"] for p in cold),
        "warm_s": median(p["wall_s"] for p in warm),
        "jobs_per_s": (len(BENCHMARKS) * len(passes)
                       / sum(p["wall_s"] for p in passes)),
        "hit_p50_ms": latency_ms(warm, 50),
        "hit_p95_ms": latency_ms(warm, 95),
        "miss_p50_ms": latency_ms(cold, 50),
    }
    out.record = {
        **host.record(),
        "cold_passes": len(cold),
        "warm_passes": len(warm),
        "setup_samples": len(setup),
        "runs": {
            n: {"cycles": first[n]["result"].cycles,
                "instructions": first[n]["result"].stats.mix.total}
            for n in BENCHMARKS
        },
    }
    return out


def trace(name: str, seed: int, work, size: str = "full"):
    """The traced run: one cold pass untraced, then one traced."""
    from perfbench.tracer import Tracer, import_layers

    import_layers()  # both passes start with every traced module loaded
    prefetch = name == "pf-paper"
    scale = SIZES[size]
    out = Outcome()
    expected: dict = {}

    def one_pass() -> float:
        return run_pass(lambda: build_workloads(seed, scale), prefetch, out,
                        expected)["wall_s"]

    untraced = one_pass()
    with Tracer() as tracer:
        traced = one_pass()
    out.metrics = tracer.layer_table(untraced, traced)
    out.record = {"untraced_s": untraced, "traced_s": traced}
    return out
