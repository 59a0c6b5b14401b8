"""Machine-readable experiment exports.

Renders run results into plain dictionaries / JSON / CSV so users can
plot the paper's figures with their own tooling, and provides
:func:`reproduce_all` — a single call that executes every experiment of
EXPERIMENTS.md and returns (or writes) the complete result set.

Used by ``python -m repro reproduce``.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Mapping

from repro.bench.runner import (
    Knobs,
    PairResult,
    ScalingResult,
    assemble_pairs,
    plan_pairs,
)
from repro.bench.scale import builders, current_scale, spe_counts
from repro.cell.machine import RunResult
from repro.sim.config import latency1_config
from repro.sim.stats import Bucket

__all__ = [
    "SCHEMA_VERSION",
    "run_to_dict",
    "pair_to_dict",
    "scaling_to_dict",
    "scaling_to_csv",
    "reproduce_all",
    "to_json",
]

#: Version of every machine-readable payload this module (and the
#: :mod:`repro.serve` gateway, which re-exports it) emits.  Bump it on
#: ANY change to the shape, keys or units of :func:`run_to_dict` /
#: :func:`pair_to_dict` / :func:`scaling_to_dict` output — consumers
#: pin against it, and the serving protocol echoes it so clients can
#: reject payloads they do not understand.  See docs/SERVING.md.
SCHEMA_VERSION = 1


def run_to_dict(run: RunResult, profile=None) -> dict:
    """Flatten one run into JSON-serializable primitives.

    When a :class:`repro.obs.profile.Profile` is given, its summary
    (profiler-derived usage / breakdown / totals / counters) is embedded
    under the ``"obs"`` key next to the stats-derived numbers.
    """
    mix = run.stats.mix.table5_row()
    out = {
        "schema_version": SCHEMA_VERSION,
        "activity": run.activity,
        "prefetch": run.prefetch,
        "cycles": run.cycles,
        "spes": run.config.num_spes,
        "memory_latency": run.config.main_memory.latency,
        "breakdown": {
            b: run.stats.average_breakdown.fraction(b) for b in Bucket.ALL
        },
        "pipeline_usage": run.stats.average_pipeline_usage,
        "instructions": {
            "total": mix["total"],
            "load": mix["LOAD"],
            "store": mix["STORE"],
            "read": mix["READ"],
            "write": mix["WRITE"],
        },
        "dma": {
            "commands": run.stats.mfc.commands,
            "bytes": run.stats.mfc.bytes_transferred,
        },
        "scheduler": {
            "fallocs": run.stats.scheduler.fallocs,
            "falloc_waits": run.stats.scheduler.falloc_waits,
            "remote_stores": run.stats.scheduler.remote_stores,
        },
        "bus": {
            "transfers": run.stats.bus.transfers,
            "bytes": run.stats.bus.bytes_moved,
        },
        "faults": {
            "plan": run.config.faults.describe(),
            "dma_delays": run.stats.faults.dma_delays,
            "dma_drops": run.stats.faults.dma_drops,
            "dma_retries": run.stats.faults.dma_retries,
            "dma_fallbacks": run.stats.faults.dma_fallbacks,
            "bus_delays": run.stats.faults.bus_delays,
            "bus_duplicates": run.stats.faults.bus_duplicates,
            "bus_duplicates_absorbed":
                run.stats.faults.bus_duplicates_absorbed,
            "mem_stalls": run.stats.faults.mem_stalls,
            # Data-fault injection and recovery counters (all zero for
            # timing-only plans).
            **run.stats.faults.recovery_counters(),
        },
    }
    if profile is not None:
        out["obs"] = profile.summary_dict()
    return out


def pair_to_dict(pair: PairResult) -> dict:
    return {
        "workload": pair.workload,
        "speedup": pair.speedup,
        "decoupled_fraction": pair.decoupled_fraction,
        "base": run_to_dict(pair.base),
        "prefetch": run_to_dict(pair.prefetch),
    }


def scaling_to_dict(scaling: ScalingResult) -> dict:
    return {
        "workload": scaling.workload,
        "points": {
            str(n): pair_to_dict(p) for n, p in sorted(scaling.pairs.items())
        },
        "scalability": {
            "base": {str(k): v for k, v in scaling.scalability(False).items()},
            "prefetch": {
                str(k): v for k, v in scaling.scalability(True).items()
            },
        },
    }


def scaling_to_csv(scaling: dict) -> str:
    """One row per (SPE count, variant) of a :func:`scaling_to_dict`
    payload — ready for a spreadsheet.  The ``workload`` column names
    the simulated activity, problem size included (``bitcnt(24)``)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["workload", "spes", "variant", "cycles", "speedup_vs_base",
         "mem_stall_frac", "pipeline_usage"]
    )
    for n, pair in scaling["points"].items():
        for variant in ("base", "prefetch"):
            run = pair[variant]
            writer.writerow(
                [
                    run["activity"],
                    n,
                    variant,
                    run["cycles"],
                    f"{pair['speedup']:.4f}" if variant == "prefetch"
                    else "1.0",
                    f"{run['breakdown'][Bucket.MEM_STALL]:.4f}",
                    f"{run['pipeline_usage']:.4f}",
                ]
            )
    return out.getvalue()


def reproduce_all(
    scale: str | None = None,
    spes: "tuple[int, ...] | None" = None,
    progress=None,
    jobs: int | None = None,
    cache=None,
    faults: "str | None" = None,
    sanitize: bool = False,
    threshold: float = 0.5,
    **batch,
) -> dict:
    """Execute the full experiment matrix (Figures 5-9, Table 5, L1).

    Returns a JSON-serializable dictionary keyed by experiment id.
    ``progress`` (if given) is called with a status line per step.
    ``faults``/``sanitize``/``threshold`` are the
    :class:`~repro.bench.runner.Knobs` of every run; the matrix itself
    fixes memory latency (the paper's 150 cycles, and 1 for the
    latency-1 study).

    The whole matrix — every (workload, SPE count, variant) point plus
    the latency-1 study — is one batch of independent deterministic
    runs, so it is submitted to
    :func:`repro.bench.parallel.run_many_detailed` in a single fan-out:
    ``jobs`` worker processes drain it (default ``REPRO_BENCH_JOBS`` or
    serial) and a :class:`~repro.bench.cache.ResultCache` makes a re-run
    with unchanged code and parameters perform zero new simulations.

    ``batch`` is that function's batch policy; ``resume=True`` continues
    an interrupted matrix bit-identically.  Under ``keep_going=True`` a
    permanently failing task no longer aborts the batch: every
    experiment that *can* be assembled from the surviving runs is
    emitted, and a ``degraded`` manifest section names each failed task
    (label, taxonomy kind, attempts, last error).  Pairs with a failed
    half are dropped from their experiment; a workload missing its
    max-SPE pair is dropped from the Table 5 / Figure 5 / Figure 9
    sections.
    """
    from repro.bench.parallel import run_many_detailed
    from repro.faults.plan import FaultPlan

    def log(msg: str) -> None:
        if progress is not None:
            progress(msg)

    # Validate the fault spec before anything is built or spawned — a
    # typo'd key must fail here, not deep inside a worker process.
    plan = FaultPlan.parse(faults) if faults else None
    knobs = Knobs(faults=faults, sanitize=sanitize, threshold=threshold)

    scale = scale or current_scale()
    axis = tuple(spes or spe_counts())
    result: dict = {
        "schema_version": SCHEMA_VERSION,
        "scale": scale,
        "spes": list(axis),
        "experiments": {},
    }
    if plan is not None:
        result["faults"] = plan.describe()

    workloads = {name: build() for name, build in builders(scale).items()}
    scaling_tasks = plan_pairs(workloads, axis, knobs)
    latency1_tasks = plan_pairs(
        workloads, (max(axis),), knobs, machine=latency1_config
    )
    tasks = scaling_tasks + latency1_tasks

    log(f"running {len(tasks)} simulations "
        f"({len(workloads)} workloads x {len(axis)} SPE counts x 2 "
        f"variants + latency-1 study) ...")
    done = run_many_detailed(
        tasks, jobs=jobs, cache=cache, progress=progress, **batch
    )
    split = len(scaling_tasks)
    scalings = assemble_pairs(workloads, scaling_tasks, done.results[:split])
    latency1 = assemble_pairs(workloads, latency1_tasks, done.results[split:])

    result["experiments"]["scaling"] = {
        name: scaling_to_dict(s) for name, s in scalings.items() if s.pairs
    }
    pairs_at_max = {
        name: s.pairs[max(axis)]
        for name, s in scalings.items() if max(axis) in s.pairs
    }
    result["experiments"]["table5"] = {
        name: run_to_dict(p.base)["instructions"]
        for name, p in pairs_at_max.items()
    }
    result["experiments"]["fig5"] = {
        name: {
            "base": run_to_dict(p.base)["breakdown"],
            "prefetch": run_to_dict(p.prefetch)["breakdown"],
        }
        for name, p in pairs_at_max.items()
    }
    result["experiments"]["fig9"] = {
        name: {
            "base": p.base.stats.average_pipeline_usage,
            "prefetch": p.prefetch.stats.average_pipeline_usage,
        }
        for name, p in pairs_at_max.items()
    }
    result["experiments"]["latency1"] = {
        name: pair_to_dict(s.pairs[max(axis)])
        for name, s in latency1.items() if s.pairs
    }
    if done.failures:
        result["degraded"] = [
            {
                "label": tasks[i].label,
                "kind": info.kind,
                "attempts": info.attempts,
                "error": f"{type(info.error).__name__}: {info.error}",
                # Fault/recovery counters at the point of failure, when
                # the error carried them (DataCorruptionError does).
                "faults": info.faults,
            }
            for i, info in sorted(done.failures.items())
        ]
        log(
            f"degraded result: {len(done.failures)} of {len(tasks)} "
            f"task(s) failed; partial artifacts emitted"
        )
    return result


def to_json(data: Mapping, indent: int = 2) -> str:
    return json.dumps(data, indent=indent, sort_keys=True)
