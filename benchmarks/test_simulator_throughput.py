"""Host-performance benchmark: simulated cycles per wall-clock second.

Not a paper experiment — this measures the *simulator*, so performance
regressions in the event engine or the SPU interpreter show up in
``pytest benchmarks/`` history.  The paper's substrate was a compiled
C++ simulator; DESIGN.md's substitution argument rests on this number
staying high enough for the scaled workloads to run in seconds.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

# The host-speed calibration lives in the repository benchmark package,
# at the checkout root next to ``src/``.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import HostSpeed  # noqa: E402

from repro.bench.runner import run_workload
from repro.sim.config import paper_config
from repro.workloads import bitcount, matmul, zoom


def test_simulated_cycles_per_second(benchmark):
    workload = matmul.build(n=8, threads=8)
    cfg = paper_config(4)

    result = benchmark(
        lambda: run_workload(workload, cfg, prefetch=False, verify=False)
    )
    # Derived throughput metrics for the benchmark table.
    benchmark.extra_info["simulated_cycles"] = result.cycles
    benchmark.extra_info["instructions"] = result.stats.mix.total
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["cycles_per_second"] = int(result.cycles / mean)
    # Sanity floor: the event-skipping engine must deliver at least
    # 100k simulated cycles/s on this memory-stall-bound workload (stalls
    # are skipped, so the effective rate is far above naive per-cycle
    # interpretation).
    assert result.cycles / mean > 100_000


def test_event_skip_efficiency(benchmark):
    """Dispatched ticks per simulated cycle — the event-skip win."""
    from repro.cell.machine import Machine

    workload = matmul.build(n=8, threads=8)

    def run():
        m = Machine(paper_config(4))
        m.load(workload.activity)
        res = m.run()
        return m.engine.ticks_dispatched, res.cycles

    ticks, cycles = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["ticks_per_cycle"] = round(ticks / cycles, 3)
    # A memory-bound run spends most cycles stalled: far fewer ticks than
    # (components x cycles). 4 SPEs = ~15 components.
    assert ticks < 3 * cycles


# -- calibrated throughput gate (docs/PERFORMANCE.md) ------------------------

#: 8-SPE prefetch workloads timed by the gate.  Sized so each run takes a
#: few hundred milliseconds: long enough to time reliably, short enough
#: for CI.
_THROUGHPUT_WORKLOADS = {
    "bitcnt": lambda: bitcount.build(iterations=256, unroll=8),
    "mmul": lambda: matmul.build(n=16, threads=16),
    "zoom": lambda: zoom.build(n=32, z=4),
}

#: Committed calibrated cycles/s per workload (``cycles_per_second``),
#: plus mmul's figure from the removed per-cycle issue loop
#: (``slow_path_cycles_per_second``), which the decoded loop must keep
#: beating by 2x.  ``REPRO_BENCH_WRITE_BASELINE=1`` rewrites the former
#: and keeps the latter.
_BASELINE_PATH = Path(__file__).with_name("BENCH_throughput.baseline.json")


def _calibrated_cycles_per_second(build, host: HostSpeed, samples: int = 3):
    """Best-of-N simulated cycles per second, each run's wall time scaled
    to the reference host's speed by ``host``."""
    workload = build()
    cfg = paper_config(8)
    best = None
    for _ in range(samples):
        t0 = time.perf_counter()
        result = run_workload(workload, cfg, prefetch=True, verify=False)
        elapsed = (time.perf_counter() - t0) * host.scale()
        best = elapsed if best is None else min(best, elapsed)
    return result.cycles, result.cycles / best


def test_calibrated_throughput_gate():
    """Measure calibrated cycles/s, write ``BENCH_throughput.json``.

    Wall-clock cycles/s depends on the host, so every run's time is
    scaled by :class:`perfbench.common.HostSpeed` (a fixed pure-Python
    loop timed around it) before it is compared.  Gates on two things:
    every benchmark within 20% of its committed calibrated baseline, and
    mmul at least 2x the calibrated speed of the per-cycle issue loop
    the decoded loop replaced (the acceptance bar the decoded loop was
    built for).
    """
    host = HostSpeed()
    report = {}
    for name, build in _THROUGHPUT_WORKLOADS.items():
        cycles, cps = _calibrated_cycles_per_second(build, host)
        report[name] = {
            "simulated_cycles": cycles,
            "cycles_per_second": int(cps),
        }

    out = Path(os.environ.get("REPRO_BENCH_OUT", "BENCH_throughput.json"))
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    baseline = json.loads(_BASELINE_PATH.read_text())
    if os.environ.get("REPRO_BENCH_WRITE_BASELINE"):
        for name, row in report.items():
            baseline[name]["cycles_per_second"] = row["cycles_per_second"]
        _BASELINE_PATH.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )

    slow = baseline["mmul"]["slow_path_cycles_per_second"]
    assert report["mmul"]["cycles_per_second"] >= 2.0 * slow, (
        f"mmul: {report['mmul']['cycles_per_second']} calibrated cycles/s "
        f"is below 2x the per-cycle loop's {slow}"
    )
    for name, row in report.items():
        floor = 0.8 * baseline[name]["cycles_per_second"]
        assert row["cycles_per_second"] >= floor, (
            f"{name}: {row['cycles_per_second']} calibrated cycles/s "
            f"regressed >20% below the committed baseline "
            f"{baseline[name]['cycles_per_second']}"
        )
