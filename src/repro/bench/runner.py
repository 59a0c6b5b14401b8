"""Experiment runner: the with/without-prefetching comparisons.

Every figure and table of the paper's evaluation reduces to one of two
experiment shapes:

* a **pair run** — the same workload executed on the same machine with
  and without the prefetch transformation (Figures 5 and 9, Table 5, the
  latency-1 study); or
* a **scaling sweep** — pair runs repeated for 1..8 SPEs (Figures 6-8).

:func:`run_pair` and :func:`sweep` implement those shapes, verify every
run against the workload oracle (a run that produces wrong answers must
never contribute a data point), and return plain dataclasses the report
module renders into paper-style tables.

Every front end (the CLI, :func:`repro.bench.export.reproduce_all`, the
serving gateway) plans and assembles its runs through the same three
pieces: :meth:`Knobs.setup` turns an SPE count plus the run knobs into
a machine config and prefetch options, :func:`plan_pairs` lays out the
(base, prefetch) tasks, and :func:`assemble_pairs` regroups finished
runs into :class:`PairResult`/:class:`ScalingResult`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.cell.machine import Machine, RunResult
from repro.compiler.passes import PrefetchOptions, prefetch_transform
from repro.sim.config import MachineConfig, paper_config
from repro.workloads.common import Workload, check_outputs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.parallel import RunTask

__all__ = [
    "PairResult",
    "ScalingResult",
    "Knobs",
    "plan_pairs",
    "assemble_pairs",
    "run_workload",
    "run_pair",
    "sweep",
]


@dataclass
class PairResult:
    """One with/without-prefetching comparison."""

    workload: str
    config: MachineConfig
    base: RunResult
    prefetch: RunResult

    @property
    def speedup(self) -> float:
        """Execution-time ratio base / prefetch (the paper's headline)."""
        return self.base.cycles / self.prefetch.cycles

    @property
    def decoupled_fraction(self) -> float:
        """Fraction of baseline READs removed by the transformation."""
        base_reads = self.base.stats.mix.reads
        if base_reads == 0:
            return 0.0
        return 1.0 - self.prefetch.stats.mix.reads / base_reads


@dataclass
class ScalingResult:
    """A Figures 6-8 style sweep over SPE counts."""

    workload: str
    pairs: dict[int, PairResult] = field(default_factory=dict)

    def speedup_at(self, spes: int) -> float:
        return self.pairs[spes].speedup

    @property
    def baseline_spes(self) -> int:
        """SPE count :meth:`scalability` normalizes against.

        The 1-SPE point when the sweep includes it (the paper's Figures
        6-8 baseline); otherwise the smallest swept count, so partial
        sweeps still yield a curve anchored at 1.0.
        """
        return 1 if 1 in self.pairs else min(self.pairs)

    def scalability(self, prefetch: bool) -> dict[int, float]:
        """Execution time at :attr:`baseline_spes` divided by time at N SPEs.

        With a full 1..8 sweep this is the paper's scalability metric
        (time at 1 SPE over time at N); a sweep that omits 1 SPE is
        normalized to its smallest point instead.
        """
        pick = (lambda p: p.prefetch.cycles) if prefetch else (
            lambda p: p.base.cycles
        )
        baseline = pick(self.pairs[self.baseline_spes])
        return {n: baseline / pick(p) for n, p in sorted(self.pairs.items())}


@dataclass(frozen=True)
class Knobs:
    """The run knobs every front end exposes, with their defaults.

    :meth:`setup` is the one place they become a machine config and
    prefetch options, so equal requests give equal
    :class:`~repro.bench.parallel.RunTask` keys on every front end.
    """

    #: Main-memory latency override in cycles (``None`` = the machine's).
    latency: int | None = None
    #: Fault-plan spec (see :mod:`repro.faults.plan`), or ``None``.
    faults: str | None = None
    #: Run the invariant sanitizer.
    sanitize: bool = False
    #: The prefetch pass's worthwhileness threshold.
    threshold: float = 0.5

    def setup(
        self,
        spes: int,
        machine: Callable[[int], MachineConfig] = paper_config,
    ) -> tuple[MachineConfig, PrefetchOptions]:
        """The machine config and prefetch options of a run on ``spes``
        SPEs; ``machine`` builds the base config (the latency-1 study
        passes :func:`~repro.sim.config.latency1_config`)."""
        config = machine(spes)
        if self.latency is not None:
            config = config.with_latency(self.latency)
        if self.faults:
            config = config.with_faults(self.faults)
        if self.sanitize:
            config = config.replace(sanitize=True)
        return config, PrefetchOptions(worthwhile_threshold=self.threshold)


def plan_pairs(
    workloads: Mapping[str, Workload],
    spes: Iterable[int],
    knobs: Knobs = Knobs(),
    machine: Callable[[int], MachineConfig] = paper_config,
) -> "list[RunTask]":
    """The (base, prefetch) :class:`~repro.bench.parallel.RunTask` pair of
    every workload at every SPE count, workload-major."""
    from repro.bench.parallel import pair_tasks

    spes = tuple(spes)
    tasks = []
    for workload in workloads.values():
        for n in spes:
            config, options = knobs.setup(n, machine)
            tasks.extend(pair_tasks(workload, config, options=options))
    return tasks


def assemble_pairs(
    workloads: Mapping[str, Workload],
    tasks: "Sequence[RunTask]",
    runs: "Sequence[RunResult | None]",
) -> dict[str, ScalingResult]:
    """Regroup consecutive (base, prefetch) task results into one
    :class:`ScalingResult` per name of ``workloads``, keyed by SPE count.

    ``workloads`` is the mapping the tasks were planned from; its names
    label the results.  A pair with a failed half (a ``None`` run, as
    ``keep_going`` batches return) is dropped, so a workload whose every
    pair failed maps to an empty :class:`ScalingResult`.
    """
    out = {name: ScalingResult(workload=name) for name in workloads}
    name_of = {id(workload): name for name, workload in workloads.items()}
    for i in range(0, len(tasks), 2):
        base, prefetch = runs[i], runs[i + 1]
        if base is None or prefetch is None:
            continue
        task = tasks[i]
        name = name_of[id(task.workload)]
        out[name].pairs[task.config.num_spes] = PairResult(
            workload=name, config=task.config, base=base, prefetch=prefetch,
        )
    return out


def run_workload(
    workload: Workload,
    config: MachineConfig,
    prefetch: bool,
    options: PrefetchOptions | None = None,
    max_cycles: int = 500_000_000,
    verify: bool = True,
    *,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_path: str | None = None,
    restore_from: str | None = None,
) -> RunResult:
    """Run one variant of a workload, verifying outputs.

    ``checkpoint_every=N`` snapshots the machine to ``checkpoint_path``
    every N cycles (see :mod:`repro.sim.snapshot`).  ``restore_from``
    resumes a previously checkpointed machine instead of starting fresh
    — results stay bit-identical to an uninterrupted run.  A missing,
    corrupt or mismatched (wrong activity) restore file falls back to a
    fresh start: a stale checkpoint must never poison a run.
    """
    from repro.sim.snapshot import CheckpointError

    activity = workload.activity
    if prefetch:
        activity = prefetch_transform(activity, options)
    machine = None
    if restore_from is not None and os.path.exists(restore_from):
        try:
            restored = Machine.load_checkpoint(restore_from)
        except CheckpointError:
            restored = None  # unusable checkpoint: start fresh
        if (
            restored is not None
            and restored._activity is not None
            and restored._activity.name == activity.name
            and restored.config == config
        ):
            machine = restored
    if machine is None:
        machine = Machine(config)
        machine.load(activity)
    if checkpoint_dir is None and checkpoint_path is not None:
        checkpoint_dir = os.path.dirname(checkpoint_path) or "."
    result = machine.run(
        max_cycles=max_cycles,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        checkpoint_path=checkpoint_path,
    )
    if verify:
        errors = check_outputs(workload, machine)
        if errors:
            raise AssertionError(
                f"{workload.name} ({'PF' if prefetch else 'base'}): wrong "
                f"output:\n" + "\n".join(errors[:10])
            )
    return result


def run_pair(
    workload: Workload,
    config: MachineConfig | None = None,
    options: PrefetchOptions | None = None,
    max_cycles: int = 500_000_000,
    jobs: int | None = None,
    cache=None,
    progress: Callable[[str], None] | None = None,
) -> PairResult:
    """Run a workload with and without prefetching on the same machine.

    ``jobs``/``cache`` route the two runs through
    :func:`repro.bench.parallel.run_many`: ``jobs`` worker processes
    (default ``REPRO_BENCH_JOBS`` or serial) and an optional
    :class:`~repro.bench.cache.ResultCache` of finished results.  A
    failed run raises :class:`~repro.bench.parallel.TaskFailure`.
    """
    from repro.bench.parallel import pair_tasks, run_many

    cfg = config if config is not None else paper_config()
    workloads = {workload.name: workload}
    tasks = pair_tasks(workload, cfg, options=options, max_cycles=max_cycles)
    runs = run_many(tasks, jobs=jobs, cache=cache, progress=progress)
    scaling = assemble_pairs(workloads, tasks, runs)[workload.name]
    return scaling.pairs[cfg.num_spes]


def sweep(
    build: Callable[[], Workload],
    spes: Sequence[int] = (1, 2, 4, 8),
    knobs: Knobs = Knobs(),
    jobs: int | None = None,
    cache=None,
    progress: Callable[[str], None] | None = None,
    **batch,
) -> ScalingResult:
    """Pair runs across SPE counts (the Figures 6-8 axes).

    ``build`` is called once; the same workload (hence identical inputs
    and oracle) is reused across machine sizes, each configured by
    ``knobs``.  All ``2 * len(spes)`` runs go to
    :func:`repro.bench.parallel.run_many` as one batch: ``jobs`` worker
    processes, results bit-identical to the serial path, ``cache``
    serving already-finished runs without simulating.  ``batch`` is the
    batch policy of :func:`~repro.bench.parallel.run_many_detailed`;
    under its ``keep_going=True`` a point with a failed half is dropped
    from the returned :class:`ScalingResult` instead of aborting.
    """
    from repro.bench.parallel import run_many

    workload = build()
    workloads = {workload.name: workload}
    tasks = plan_pairs(workloads, spes, knobs)
    runs = run_many(tasks, jobs=jobs, cache=cache, progress=progress, **batch)
    return assemble_pairs(workloads, tasks, runs)[workload.name]
