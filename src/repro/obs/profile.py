"""The profiler: one call that runs a workload under full observability.

:func:`profile_workload` (or :func:`profile_activity` for a raw
activity) runs a machine with a :class:`~repro.obs.hub.MetricsHub`
attached and a tracer streaming into an
:class:`~repro.obs.intervals.IntervalSink`, and folds everything into a
:class:`Profile`: the Figure 9 pipeline usage and Figure 5 cycle
breakdown *derived from hub instruments alone*, the bounded metric
timeseries, and the pipeline / DMA / bus intervals the Perfetto
exporter turns into tracks.

The profiler is observation-only — cycle counts are identical to an
unprofiled run — and its usage/breakdown numbers reproduce
``MachineStats`` exactly (idle is the unaccounted remainder, clamped at
zero, same as ``Machine.collect_stats``).
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING

from repro.obs.hub import HubConfig, MetricsHub
from repro.obs.intervals import PROFILE_KINDS, Interval, IntervalSink
from repro.obs.trace import JsonlSink, TeeSink, Tracer, TraceSink

if TYPE_CHECKING:  # pragma: no cover
    from repro.cell.machine import Machine, RunResult
    from repro.compiler.passes import PrefetchOptions
    from repro.core.activity import TLPActivity
    from repro.sim.config import MachineConfig
    from repro.workloads.common import Workload

__all__ = [
    "Profile",
    "profile_activity",
    "profile_workload",
    "build_profile",
    "metrics_csv",
    "dma_overlap_count",
]

#: Format marker for profile JSON files (diff refuses unknown versions).
PROFILE_VERSION = 1


@dataclass
class Profile:
    """Everything one profiled run produced, JSON-serializable."""

    activity: str
    prefetch: bool
    spes: int
    cycles: int
    #: Figure 9 per-SPU usage, derived from hub issue counters.
    pipeline_usage_per_spu: list[float]
    #: Average cycles per Figure 5 bucket (idle = unaccounted remainder).
    breakdown_cycles: dict[str, float]
    #: Machine-wide totals worth diffing.
    totals: dict[str, int]
    #: Full hub dump (counters / series / gauges with their ring buffers).
    metrics: dict
    #: Interval series (pipeline per SPU, DMA per tag group, bus per channel).
    intervals: dict
    version: int = PROFILE_VERSION

    @property
    def average_pipeline_usage(self) -> float:
        if not self.pipeline_usage_per_spu:
            return 0.0
        return sum(self.pipeline_usage_per_spu) / len(self.pipeline_usage_per_spu)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "activity": self.activity,
            "prefetch": self.prefetch,
            "spes": self.spes,
            "cycles": self.cycles,
            "pipeline_usage": {
                "average": self.average_pipeline_usage,
                "per_spu": list(self.pipeline_usage_per_spu),
            },
            "breakdown_cycles": dict(self.breakdown_cycles),
            "totals": dict(self.totals),
            "metrics": self.metrics,
            "intervals": self.intervals,
        }

    def summary_dict(self) -> dict:
        """The compact section :func:`repro.bench.export.run_to_dict` embeds."""
        return {
            "pipeline_usage": self.average_pipeline_usage,
            "breakdown_cycles": dict(self.breakdown_cycles),
            "totals": dict(self.totals),
            "counters": dict(self.metrics.get("counters", {})),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "Profile":
        version = data.get("version")
        if version != PROFILE_VERSION:
            raise ValueError(
                f"unsupported profile version {version!r} "
                f"(this build reads version {PROFILE_VERSION})"
            )
        return cls(
            activity=data["activity"],
            prefetch=data["prefetch"],
            spes=data["spes"],
            cycles=data["cycles"],
            pipeline_usage_per_spu=list(data["pipeline_usage"]["per_spu"]),
            breakdown_cycles=dict(data["breakdown_cycles"]),
            totals=dict(data["totals"]),
            metrics=data.get("metrics", {}),
            intervals=data.get("intervals", {}),
        )


def build_profile(
    result: "RunResult", machine: "Machine", hub: MetricsHub, sink: IntervalSink
) -> Profile:
    """Assemble a :class:`Profile` from a finished observed run.

    Usage and breakdown are computed from hub instruments only (never
    from ``MachineStats``) so the profiler is an independent witness:
    per SPU, the accounted buckets are the series totals, idle is
    ``cycles - accounted`` clamped at zero (matching
    ``Machine.collect_stats``) and usage is
    ``issue_cycles / max(cycles, accounted)``.
    """
    from repro.sim.stats import Bucket

    cycles = result.cycles
    num_spes = machine.config.num_spes
    usage: list[float] = []
    bucket_sums = {b: 0.0 for b in Bucket.ALL}
    for i in range(num_spes):
        accounted = 0
        per_bucket: dict[str, int] = {}
        for bucket in Bucket.ALL:
            if bucket == Bucket.IDLE:
                continue
            total = hub.bucket_series(f"spu{i}.{bucket}").total
            per_bucket[bucket] = total
            accounted += total
        per_bucket[Bucket.IDLE] = max(0, cycles - accounted)
        total_cycles = max(cycles, accounted)
        issue = hub.counter(f"spu{i}.issue_cycles").value
        usage.append(issue / total_cycles if total_cycles else 0.0)
        for bucket, value in per_bucket.items():
            bucket_sums[bucket] += value
    breakdown = {
        b: (v / num_spes if num_spes else 0.0) for b, v in bucket_sums.items()
    }
    stats = result.stats
    totals = {
        "threads": machine.threads_completed,
        "instructions": stats.mix.total,
        "dma_commands": stats.mfc.commands,
        "dma_bytes": stats.mfc.bytes_transferred,
        "bus_transfers": stats.bus.transfers,
        "bus_bytes": stats.bus.bytes_moved,
        "memory_reads": stats.memory.read_requests,
        "memory_writes": stats.memory.write_requests,
        "engine_ticks": machine.engine.ticks_dispatched,
        "engine_callbacks": machine.engine.callbacks_dispatched,
        "engine_stale_skipped": machine.engine.stale_skipped,
    }
    return Profile(
        activity=result.activity,
        prefetch=result.prefetch,
        spes=num_spes,
        cycles=cycles,
        pipeline_usage_per_spu=usage,
        breakdown_cycles=breakdown,
        totals=totals,
        metrics=hub.to_dict(),
        intervals=sink.to_dict(),
    )


def profile_activity(
    activity: "TLPActivity",
    config: "MachineConfig | None" = None,
    max_cycles: int | None = None,
    hub_config: HubConfig | None = None,
    trace_jsonl: "str | os.PathLike | IO[str] | None" = None,
) -> "tuple[RunResult, Profile]":
    """Run ``activity`` under the profiler; returns ``(result, profile)``.

    ``trace_jsonl`` additionally streams the raw profiling events to a
    JSONL file (path or open text file).
    """
    return _profile(activity, config, max_cycles, hub_config, trace_jsonl)[1:]


def profile_workload(
    workload: "Workload",
    config: "MachineConfig | None" = None,
    prefetch: bool = True,
    options: "PrefetchOptions | None" = None,
    max_cycles: int | None = 500_000_000,
    verify: bool = True,
    hub_config: HubConfig | None = None,
    trace_jsonl: "str | os.PathLike | IO[str] | None" = None,
) -> "tuple[RunResult, Profile]":
    """Profile one variant of a benchmark workload, verifying outputs.

    The observability twin of :func:`repro.bench.runner.run_workload`:
    same transformation, same oracle check, plus a :class:`Profile`.
    """
    from repro.compiler.passes import prefetch_transform
    from repro.workloads.common import check_outputs

    activity = workload.activity
    if prefetch:
        activity = prefetch_transform(activity, options)
    machine, result, profile = _profile(
        activity, config, max_cycles, hub_config, trace_jsonl
    )
    if verify:
        errors = check_outputs(workload, machine)
        if errors:
            raise AssertionError(
                f"{workload.name} ({'PF' if prefetch else 'base'}): wrong "
                f"output:\n" + "\n".join(errors[:10])
            )
    return result, profile


def _profile(activity, config, max_cycles, hub_config, trace_jsonl):
    """:func:`profile_activity`, also returning the finished machine."""
    from repro.cell.machine import Machine
    from repro.sim.config import MachineConfig

    machine = Machine(config if config is not None else MachineConfig())
    hub = MetricsHub(hub_config)
    machine.attach_hub(hub)
    interval_sink = IntervalSink()
    sink: TraceSink = interval_sink
    if trace_jsonl is not None:
        sink = TeeSink([interval_sink, JsonlSink(trace_jsonl)])
    tracer = Tracer(kinds=PROFILE_KINDS, sink=sink)
    machine.attach_tracer(tracer)
    machine.load(activity)
    result = machine.run(max_cycles=max_cycles)
    interval_sink.finish(max(1, result.cycles))
    tracer.close()
    return machine, result, build_profile(result, machine, hub, interval_sink)


def metrics_csv(profile: Profile) -> str:
    """Flat CSV of every hub instrument (one row per point / counter)."""
    import csv

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["instrument", "name", "bucket_start", "value", "extra"])
    metrics = profile.metrics
    for name, value in sorted(metrics.get("counters", {}).items()):
        writer.writerow(["counter", name, "", value, ""])
    for name, series in sorted(metrics.get("series", {}).items()):
        for start, value in series.get("points", []):
            writer.writerow(["series", name, start, value, ""])
    for name, gauge in sorted(metrics.get("gauges", {}).items()):
        for start, last, peak in gauge.get("points", []):
            writer.writerow(["gauge", name, start, last, peak])
    return out.getvalue()


def dma_overlap_count(profile: Profile) -> int:
    """DMA intervals overlapping another thread's executing (``run``) time.

    The paper's non-blocking claim, made checkable: a DMA tag group of
    thread A counts when some pipeline ``run`` interval of a different
    thread overlaps it in time.  Zero means prefetching never actually
    hid a transfer behind other threads' execution.
    """
    intervals = profile.intervals
    runs: list[Interval] = []
    for ivs in intervals.get("pipeline", {}).values():
        for iv in ivs:
            if iv["kind"] == "run":
                runs.append(Interval(**iv))
    count = 0
    for dma in intervals.get("dma", []):
        window = Interval(
            start=dma["start"], end=dma["end"], kind="dma", tid=dma["tid"]
        )
        if any(
            run.overlaps(window) and run.tid != window.tid for run in runs
        ):
            count += 1
    return count
