"""Parallel experiment execution with a resilience layer.

Every experiment of the paper decomposes into independent simulated runs
— one per (workload, SPE count, prefetch variant) — and the simulator is
deterministic, so fanning those runs out across worker processes changes
wall-clock time and nothing else.  This module is the single execution
funnel for the bench layer: :func:`run_many` takes a list of
:class:`RunTask` descriptions, serves what it can from a
:class:`~repro.bench.cache.ResultCache`, executes the rest (serially or
in child processes, one per task attempt, at most ``jobs`` at once) and
returns results in task order, bit-identical to a serial run.

The worker count comes from the ``jobs`` argument, falling back to the
``REPRO_BENCH_JOBS`` environment variable and then to 1 (serial).  When
no child process can be started (fork restrictions, descriptor limits)
the batch degrades gracefully to the serial path.

Resilience
----------
Production-scale sweeps must survive partial failure, so the
child-process path layers two defenses over plain fan-out.  Each child
runs exactly one task, so both touch only the task at fault:

* **Timeouts.**  With a per-task wall-clock ``timeout`` (seconds; or
  ``REPRO_BENCH_TASK_TIMEOUT``; default off) the *parent* watches every
  running child.  A task that exceeds its budget is declared hung: its
  child is killed and the task is retried with backoff or failed with
  kind :data:`TIMEOUT`.  Setting a timeout forces the child-process
  path even for ``jobs=1`` so enforcement is always parent-side.
* **Failure taxonomy + bounded retry.**  Failures are classified as
  :data:`TIMEOUT` (wall-clock exceeded), :data:`CRASH` (the task's
  child process died without reporting — OOM kill, SIGKILL, segfault)
  or :data:`ERROR` (the task raised a deterministic exception).
  Timeouts and crashes are transient and retried up to ``retries``
  times (``REPRO_BENCH_RETRIES``, default 2) with exponential backoff;
  deterministic errors fail fast and are never retried — re-running a
  deterministic simulator on the same inputs cannot change the outcome.

Completed tasks are checkpointed incrementally: results land in the
cache *and* an append-only :class:`~repro.bench.journal.SweepJournal`
the moment they finish, so a batch killed mid-flight — Ctrl-C, SIGTERM
(a containerized drain; handled identically, see
:class:`SweepTerminated`), OOM, a rebooted runner — can be resumed
(``resume=True``) without re-simulating settled work.  ``keep_going=True`` turns task failures from a raised
:class:`TaskFailure` into ``None`` slots in the returned list, letting
callers emit partial artifacts (see
:func:`repro.bench.export.reproduce_all`).
"""

from __future__ import annotations

import heapq
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.bench.cache import ResultCache, result_key
from repro.bench.journal import SweepJournal
from repro.bench.runner import run_workload
from repro.cell.machine import RunResult
from repro.compiler.passes import PrefetchOptions
from repro.sim.config import MachineConfig
from repro.workloads.common import Workload

__all__ = [
    "RunTask",
    "TaskFailure",
    "FailureInfo",
    "BatchResult",
    "TaskTimeout",
    "WorkerCrash",
    "SweepTerminated",
    "TIMEOUT",
    "CRASH",
    "ERROR",
    "run_many",
    "run_many_detailed",
    "default_jobs",
    "default_task_timeout",
    "default_retries",
    "pair_tasks",
]

#: Failure taxonomy: the task exceeded its wall-clock budget.
TIMEOUT = "timeout"
#: Failure taxonomy: the task's child process died (SIGKILL, OOM, segfault).
CRASH = "worker-crash"
#: Failure taxonomy: the task raised a deterministic exception.
ERROR = "error"


class TaskTimeout(RuntimeError):
    """A task exceeded its per-task wall-clock timeout."""


class WorkerCrash(RuntimeError):
    """The child process executing a task died."""


class SweepTerminated(BaseException):
    """SIGTERM arrived while a batch was executing.

    A ``BaseException`` (like ``KeyboardInterrupt``) so it can never be
    swallowed by the per-task ``except Exception`` handling: it must
    propagate out of :func:`run_many` after finished work has been
    harvested into the cache and journal.  Containerized deployments
    (``docker stop``, Kubernetes eviction, systemd shutdown) deliver
    SIGTERM, not SIGINT — both now drain loss-free and resumably.
    """


@dataclass
class FailureInfo:
    """How one task of a batch failed, after all retries."""

    kind: str  #: :data:`TIMEOUT`, :data:`CRASH` or :data:`ERROR`
    attempts: int  #: executions performed (1 = failed on first try)
    error: Exception  #: the last exception observed
    #: Fault-injection / recovery counters at the point of failure
    #: (re-fetches, re-executions, ...), when the error carried them —
    #: :class:`~repro.faults.integrity.DataCorruptionError` does.
    faults: "dict | None" = None

    def describe(self) -> str:
        return (
            f"{self.kind} after {self.attempts} attempt(s): "
            f"{type(self.error).__name__}: {self.error}"
        )


class TaskFailure(RuntimeError):
    """One or more runs of a :func:`run_many` batch failed.

    Raised after every *other* task has been given the chance to finish
    (and be cached), so one bad run does not throw away a whole sweep's
    work.  ``failures`` maps each failing task's label to a
    :class:`FailureInfo` carrying the failure taxonomy, the attempt
    count and the last exception.
    """

    def __init__(self, message: str, failures: "dict[str, FailureInfo]") -> None:
        super().__init__(message)
        self.failures = failures

    @classmethod
    def from_batch(
        cls, tasks: "Sequence[RunTask]", failures: "dict[int, FailureInfo]"
    ) -> "TaskFailure":
        labels = ", ".join(tasks[i].label for i in sorted(failures))
        first_i = min(failures)
        first = failures[first_i]
        return cls(
            f"{len(failures)} of {len(tasks)} run(s) failed: {labels} — "
            f"first failure ({tasks[first_i].label}): "
            f"{type(first.error).__name__}: {first.error}",
            {tasks[i].label: info for i, info in failures.items()},
        )


@dataclass
class BatchResult:
    """Everything :func:`run_many_detailed` knows about a finished batch."""

    results: "list[RunResult | None]"  #: per-task results; ``None`` = failed
    failures: "dict[int, FailureInfo]" = field(default_factory=dict)
    attempts: "list[int]" = field(default_factory=list)
    #: Tasks skipped because the journal (validated against the cache)
    #: or a replayed deterministic failure already settled them.
    resumed: int = 0

    @property
    def complete(self) -> bool:
        return not self.failures


def default_jobs() -> int:
    """Worker count from ``REPRO_BENCH_JOBS`` (default 1 = serial)."""
    raw = os.environ.get("REPRO_BENCH_JOBS", "")
    try:
        jobs = int(raw)
    except ValueError:
        return 1
    return max(1, jobs)


def default_task_timeout() -> "float | None":
    """Per-task timeout from ``REPRO_BENCH_TASK_TIMEOUT`` (default off)."""
    raw = os.environ.get("REPRO_BENCH_TASK_TIMEOUT", "")
    try:
        timeout = float(raw)
    except ValueError:
        return None
    return timeout if timeout > 0 else None


def default_retries() -> int:
    """Retry budget from ``REPRO_BENCH_RETRIES`` (default 2)."""
    raw = os.environ.get("REPRO_BENCH_RETRIES", "")
    try:
        retries = int(raw)
    except ValueError:
        return 2
    return max(0, retries)


@dataclass(frozen=True)
class RunTask:
    """One simulated run, fully described and picklable.

    Mirrors the signature of :func:`~repro.bench.runner.run_workload`;
    child processes rebuild nothing — the workload (activity, oracle,
    params) is handed to the task's child and the prefetch
    transformation, simulation and oracle check all happen there.

    The checkpoint fields describe *how* this attempt executes, not
    *what* it computes — a resumed run is bit-identical to a fresh one —
    so they are deliberately excluded from :meth:`key`: cache entries and
    journal lines written with and without checkpointing interoperate.
    """

    workload: Workload
    config: MachineConfig
    prefetch: bool
    options: PrefetchOptions | None = None
    max_cycles: int = 500_000_000
    verify: bool = True
    #: Machine-checkpoint cadence in cycles (None = off).
    checkpoint_every: int | None = None
    #: Exact checkpoint file path for this task (atomically replaced).
    checkpoint_path: str | None = None
    #: Resume from this checkpoint instead of starting fresh.
    restore_from: str | None = None

    @property
    def label(self) -> str:
        variant = "prefetch" if self.prefetch else "base"
        return f"{self.workload.name} spes={self.config.num_spes} {variant}"

    def key(self) -> str:
        return result_key(
            self.workload, self.config, self.prefetch, self.options,
            self.max_cycles,
        )

    def run(self) -> RunResult:
        return run_workload(
            self.workload,
            self.config,
            prefetch=self.prefetch,
            options=self.options,
            max_cycles=self.max_cycles,
            verify=self.verify,
            checkpoint_every=self.checkpoint_every,
            checkpoint_path=self.checkpoint_path,
            restore_from=self.restore_from,
        )


def pair_tasks(
    workload: Workload,
    config: MachineConfig,
    options: PrefetchOptions | None = None,
    max_cycles: int = 500_000_000,
) -> "tuple[RunTask, RunTask]":
    """The (base, prefetch) task pair of one with/without comparison."""
    return (
        RunTask(workload, config, prefetch=False, max_cycles=max_cycles),
        RunTask(workload, config, prefetch=True, options=options,
                max_cycles=max_cycles),
    )


def _attempt(task: RunTask, conn) -> None:
    """Child-process entry point: run one attempt of ``task`` and send
    ``(ok, value)`` back — the result, or the exception it raised.

    SIGTERM reverts to its default action: the handler inherited from
    the parent's batch would turn a kill into a ``SweepTerminated``
    inside the child instead of ending it.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        message = (True, task.run())
    except BaseException as exc:
        message = (False, exc)
    try:
        conn.send(message)
    except Exception as exc:  # the outcome does not pickle
        conn.send((False, RuntimeError(f"cannot send the outcome: {exc!r}")))


def _run_in_children(
    tasks: "Sequence[RunTask]",
    pending: "Sequence[int]",
    jobs: int,
    timeout: "float | None",
    retries: int,
    backoff: float,
    attempts: "list[int]",
    finish: "Callable[[int, RunResult, float], None]",
    fail: "Callable[[int, Exception, str], None]",
    log: "Callable[[str], None]",
    prepare: "Callable[[int], RunTask]",
    on_retry: "Callable[[int, str, int], None] | None",
) -> "OSError | None":
    """Run ``pending`` with one child process per attempt, ``jobs`` at most
    alive at once.

    Each child owns one task, so a deadline kills exactly the task that
    missed it and end-of-file without a message names the task whose
    process died.  Timed-out and crashed tasks are retried with backoff
    (their backoff waits sit in a ready-time heap) or failed once their
    budget is spent.  Returns the ``OSError`` that stopped new children
    from starting, if any; the caller finishes the batch serially.
    """
    queue: "deque[int]" = deque(sorted(pending))
    delayed: "list[tuple[float, int]]" = []  # (ready_at, i) heap
    running: dict = {}  # read end -> (i, process, start time)
    unavailable: "OSError | None" = None

    def retry_or_fail(i: int, kind: str, detail: str) -> None:
        if attempts[i] > retries:
            error = TaskTimeout if kind == TIMEOUT else WorkerCrash
            fail(i, error(detail), kind)
            return
        # attempts[i] already counts the failed attempt, so the first
        # retry waits backoff * 1, the second backoff * 2, ...
        delay = backoff * 2 ** (attempts[i] - 1)
        log(
            f"{tasks[i].label}: {detail}; retrying in {delay:.1f}s "
            f"(attempt {attempts[i] + 1} of {retries + 1})"
        )
        if on_retry is not None:
            on_retry(i, kind, attempts[i] + 1)
        heapq.heappush(delayed, (time.monotonic() + delay, i))

    try:
        while queue or delayed or running:
            while delayed and delayed[0][0] <= time.monotonic():
                queue.append(heapq.heappop(delayed)[1])
            while queue and len(running) < jobs and unavailable is None:
                task = prepare(queue[0])
                try:
                    reader, writer = multiprocessing.Pipe(duplex=False)
                    child = multiprocessing.Process(
                        target=_attempt, args=(task, writer), daemon=True,
                    )
                    child.start()
                except OSError as exc:
                    unavailable = exc
                    break
                writer.close()
                i = queue.popleft()
                attempts[i] += 1
                running[reader] = (i, child, time.monotonic())
            if unavailable is not None and not running:
                return unavailable

            horizons = [delayed[0][0]] if delayed else []
            if timeout is not None:
                horizons += [t0 + timeout for _, _, t0 in running.values()]
            ready = multiprocessing.connection.wait(
                list(running),
                max(0.0, min(horizons) - time.monotonic())
                if horizons else None,
            )
            for conn in ready:
                i, child, t0 = running.pop(conn)
                # recv before join: a child whose result overflows the
                # pipe buffer cannot exit until the result is read.
                try:
                    ok, value = conn.recv()
                except (EOFError, OSError):  # died without reporting
                    ok, value = None, None
                conn.close()
                child.join()
                if ok is None:
                    retry_or_fail(
                        i, CRASH,
                        f"worker process died (exit code {child.exitcode})",
                    )
                elif ok:
                    finish(i, value, time.monotonic() - t0)
                elif isinstance(value, Exception):
                    # Deterministic failure inside the task: retrying
                    # cannot change the outcome.
                    fail(i, value, ERROR)
                else:  # KeyboardInterrupt or SweepTerminated in the child
                    raise value

            if timeout is not None:
                now = time.monotonic()
                for conn, (i, child, t0) in list(running.items()):
                    if now - t0 >= timeout and not conn.poll():
                        del running[conn]
                        child.kill()
                        child.join()
                        conn.close()
                        retry_or_fail(
                            i, TIMEOUT,
                            f"timed out after {timeout:.1f}s of wall clock",
                        )
    except (KeyboardInterrupt, SweepTerminated):
        # Bank the children that already reported before propagating.
        for conn, (i, child, t0) in running.items():
            if not conn.poll():
                continue
            try:
                ok, value = conn.recv()
            except (EOFError, OSError):
                continue
            if ok:
                finish(i, value, time.monotonic() - t0)
        raise
    finally:
        for conn, (_, child, _) in running.items():
            child.kill()
            child.join()
            conn.close()
    return None


def run_many_detailed(
    tasks: Sequence[RunTask],
    jobs: int | None = None,
    cache: ResultCache | None = None,
    progress: Callable[[str], None] | None = None,
    *,
    timeout: "float | None" = None,
    retries: "int | None" = None,
    backoff: float = 0.5,
    journal: "SweepJournal | str | None" = "auto",
    resume: bool = False,
    keep_going: bool = False,
    checkpoint_every: "int | None" = None,
    checkpoint_dir: "str | None" = None,
    keep_checkpoints: bool = False,
    on_retry: "Callable[[int, str, int], None] | None" = None,
) -> BatchResult:
    """Execute ``tasks`` and return a :class:`BatchResult`.

    This signature is the one declaration of the batch policy (timeout,
    retries, resume, keep_going, machine checkpoints); every other
    entry point forwards it.  A failed task raises :class:`TaskFailure`
    once every other task has finished; with ``keep_going=True`` the
    batch returns instead, failed slots ``None`` and described in
    ``failures``.

    ``on_retry`` (if given) is called as ``on_retry(index, kind,
    attempt)`` whenever a transient failure of task ``index`` is about to
    be retried.

    When called from the main thread, SIGTERM is handled exactly like
    Ctrl-C for the duration of the batch: children that already reported
    are harvested into the cache and journal, the rest are killed, and
    :class:`SweepTerminated` propagates — so a containerized drain
    (``docker stop``/Kubernetes SIGTERM) is loss-free and the batch is
    resumable with ``resume=True``.

    ``timeout``/``retries`` default to ``REPRO_BENCH_TASK_TIMEOUT`` /
    ``REPRO_BENCH_RETRIES``; ``journal="auto"`` checkpoints next to the
    cache (pass ``None`` to disable); ``resume=True`` replays the
    journal, skipping tasks whose results are already in the cache and
    re-reporting deterministic failures without re-simulating them.

    ``checkpoint_every=N`` layers *machine-level* checkpointing over the
    harness-level journal: each running task snapshots its machine every
    N cycles to ``<checkpoint_dir>/<task key>.ckpt`` (default directory:
    ``checkpoints/`` next to the cache), and any retry — after a
    timeout kill, a worker crash, or a whole batch killed and re-run —
    *resumes* from the latest snapshot instead of re-simulating from
    cycle 0.  Checkpoints of completed tasks are deleted (the result is
    in the cache; pass ``keep_checkpoints=True`` to keep them), and
    ``resume=True`` prunes orphaned checkpoint files whose journal
    entries completed.
    """
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    timeout = default_task_timeout() if timeout is None else (
        timeout if timeout > 0 else None
    )
    retries = default_retries() if retries is None else max(0, int(retries))
    if journal == "auto":
        journal = SweepJournal.for_cache(cache) if cache is not None else None
    if checkpoint_every is not None and checkpoint_every < 1:
        checkpoint_every = None
    if checkpoint_dir is None and checkpoint_every is not None:
        checkpoint_dir = (
            os.path.join(str(cache.root), "checkpoints")
            if cache is not None else "checkpoints"
        )

    total = len(tasks)
    tasks = list(tasks)
    batch = BatchResult(results=[None] * total, attempts=[0] * total)
    keys: "list[str | None]" = [None] * total
    ckpt_paths: "list[str | None]" = [None] * total
    done_count = 0

    def note(i: int, result: RunResult, source: str) -> None:
        nonlocal done_count
        done_count += 1
        if progress is not None:
            progress(
                f"[{done_count}/{total}] {tasks[i].label}: {result.cycles} "
                f"cycles ({source})"
            )

    def settle_checkpoint(i: int) -> "str | None":
        """Delete a settled task's machine checkpoint (its result is in
        the cache); return the path that remains on disk, if any."""
        path = ckpt_paths[i]
        if path is None or not os.path.exists(path):
            return None
        if keep_checkpoints:
            return path
        try:
            os.unlink(path)
        except OSError:
            return path
        return None

    def finish(i: int, result: RunResult, duration: float = 0.0) -> None:
        batch.results[i] = result
        if cache is not None and keys[i] is not None:
            cache.put(keys[i], result)
        ckpt = settle_checkpoint(i)
        if journal is not None and keys[i] is not None:
            journal.record_done(
                keys[i], tasks[i].label, max(1, batch.attempts[i]), duration,
                checkpoint=ckpt,
            )
        note(i, result, "ran")

    def fail(
        i: int, exc: Exception, kind: str, duration: float = 0.0,
        record: bool = True,
    ) -> None:
        fault_stats = getattr(exc, "fault_stats", None)
        if not isinstance(fault_stats, dict):
            fault_stats = None
        batch.failures[i] = FailureInfo(
            kind=kind, attempts=batch.attempts[i], error=exc,
            faults=fault_stats,
        )
        # A failed task's checkpoint is kept: it is the resume point of
        # the next attempt (and the preserved state of the diagnosis).
        ckpt = ckpt_paths[i]
        if ckpt is not None and not os.path.exists(ckpt):
            ckpt = None
        if record and journal is not None and keys[i] is not None:
            journal.record_failed(
                keys[i], tasks[i].label, kind, batch.attempts[i], duration,
                f"{type(exc).__name__}: {exc}",
                checkpoint=ckpt,
                faults=fault_stats,
            )
        if progress is not None:
            progress(
                f"{tasks[i].label}: failed ({kind}) with "
                f"{type(exc).__name__}: {exc}"
            )

    replayed = journal.replay() if (resume and journal is not None) else {}
    if resume and not keep_checkpoints:
        # Prune orphans: checkpoint files whose journal entries completed
        # serve no purpose (the results live in the cache).
        for entry in replayed.values():
            if entry.done and entry.checkpoint:
                try:
                    os.unlink(entry.checkpoint)
                except OSError:
                    pass

    pending: "list[int]" = []
    for i, task in enumerate(tasks):
        if (
            cache is not None or journal is not None
            or checkpoint_every is not None
        ):
            keys[i] = task.key()
        if checkpoint_every is not None and checkpoint_dir is not None:
            ckpt_paths[i] = os.path.join(checkpoint_dir, keys[i] + ".ckpt")
        if cache is not None and keys[i] is not None:
            hit = cache.get(keys[i])
            if hit is not None:
                batch.results[i] = hit
                entry = replayed.get(keys[i])
                if entry is not None and entry.done:
                    batch.resumed += 1
                settle_checkpoint(i)
                note(i, hit, "cached")
                continue
        entry = replayed.get(keys[i]) if keys[i] is not None else None
        if entry is not None and entry.failed and entry.kind == ERROR:
            # A deterministic failure under identical code (the key embeds
            # the code stamp) cannot resolve itself; re-report it instead
            # of burning simulation time.  Transient kinds (timeout,
            # worker-crash) are re-run — their causes live outside the
            # simulator.
            batch.attempts[i] = entry.attempts
            batch.resumed += 1
            replay_exc = RuntimeError(
                f"replayed from journal: {entry.error or 'task failed'}"
            )
            if entry.faults is not None:
                # Re-surface the recovery counters the original failure
                # recorded, so a degraded manifest built from a resumed
                # batch still names them.
                replay_exc.fault_stats = entry.faults
            fail(i, replay_exc, ERROR, record=False)
            continue
        if ckpt_paths[i] is not None:
            tasks[i] = replace(
                task, checkpoint_every=checkpoint_every,
                checkpoint_path=ckpt_paths[i],
            )
        pending.append(i)

    if batch.resumed and progress is not None:
        progress(
            f"resume: {batch.resumed} task(s) already settled by the "
            f"journal + cache"
        )

    def prepare(i: int) -> RunTask:
        """The task an attempt runs: resume from its checkpoint when a
        previous (killed or interrupted) attempt left one behind."""
        task = tasks[i]
        path = ckpt_paths[i]
        if path is not None and os.path.exists(path):
            task = replace(task, restore_from=path)
        return task

    # Treat SIGTERM like Ctrl-C while the batch executes: harvest what
    # finished, kill the rest, propagate.  Signal handlers can only be
    # installed from the main thread; elsewhere (e.g. a repro.serve
    # worker thread) the process-wide policy stays whatever the host
    # application installed.
    previous_term = None
    term_installed = False
    if threading.current_thread() is threading.main_thread():
        def _on_sigterm(signum, frame):
            raise SweepTerminated("SIGTERM during run_many batch")

        try:
            previous_term = signal.signal(signal.SIGTERM, _on_sigterm)
            term_installed = True
        except (ValueError, OSError):
            term_installed = False

    try:
        if pending and (
            (jobs > 1 and len(pending) > 1) or timeout is not None
        ):
            unavailable = _run_in_children(
                tasks, pending, jobs, timeout, retries, backoff,
                batch.attempts, finish, fail, progress or (lambda msg: None),
                prepare, on_retry,
            )
            pending = [
                i for i in pending
                if batch.results[i] is None and i not in batch.failures
            ]
            if unavailable is not None and progress is not None:
                progress(
                    f"worker processes unavailable ({unavailable!r}); "
                    f"finishing {len(pending)} run(s) serially"
                    + ("" if timeout is None else " (timeout not enforced)")
                )

        # Serial path: first resort for jobs=1, fallback when no child
        # process can be started.  No parent/child boundary exists here,
        # so timeouts cannot be enforced and every failure is
        # deterministic by definition.  A KeyboardInterrupt or
        # SweepTerminated propagates as is: everything finished so far is
        # already cached and journaled, so the batch is resumable.
        for i in pending:
            batch.attempts[i] += 1
            start = time.monotonic()
            try:
                result = prepare(i).run()
            except Exception as exc:
                fail(i, exc, ERROR, duration=time.monotonic() - start)
            else:
                finish(i, result, time.monotonic() - start)
    finally:
        if term_installed and previous_term is not None:
            try:
                signal.signal(signal.SIGTERM, previous_term)
            except (ValueError, OSError, TypeError):
                pass

    if batch.failures and not keep_going:
        raise TaskFailure.from_batch(tasks, batch.failures)
    return batch


def run_many(
    tasks: Sequence[RunTask],
    jobs: int | None = None,
    cache: ResultCache | None = None,
    progress: Callable[[str], None] | None = None,
    **batch,
) -> "list[RunResult | None]":
    """Execute ``tasks`` and return their results in task order.

    Cached results are served first; the remainder run serially
    (``jobs <= 1``) or across ``jobs`` worker processes.  Either way the
    returned :class:`RunResult` objects are identical to what a serial
    loop over :func:`~repro.bench.runner.run_workload` would produce —
    the simulator carries no global state and every run is deterministic.

    ``batch`` is the batch policy of :func:`run_many_detailed`: failures
    raise :class:`TaskFailure` unless ``keep_going=True``, which returns
    failed slots as ``None`` (use :func:`run_many_detailed` for the
    failure taxonomy).
    """
    return run_many_detailed(
        tasks, jobs=jobs, cache=cache, progress=progress, **batch
    ).results
