"""Shared machinery of the benchmark workloads.

Hermetic working directories and child environments, child processes
timed from the outside, sample statistics, the run record, and the
:class:`Outcome` every workload returns.
"""

from __future__ import annotations

import math
import os
import platform
import shutil
import statistics
import subprocess
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout root: the directory holding ``src/`` and ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for every run (listed in the root ``.gitignore``).
WORK_ROOT = ROOT / ".perfbench"


@dataclass
class Outcome:
    """What one workload run produced.

    Every operation the benchmark performs is counted in ``attempted``;
    one whose output is wrong or that raised counts in ``failed`` and
    contributes to no metric.
    """

    attempted: int = 0
    failed: int = 0
    errors: "list[str]" = field(default_factory=list)
    metrics: "dict[str, float]" = field(default_factory=dict)
    record: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record ``what`` when it failed."""
        self.attempted += 1
        if not ok:
            self.fail(what, counted=True)
        return ok

    def fail(self, what: str, counted: bool = False) -> None:
        """Record a failed operation (``counted``: already attempted)."""
        if not counted:
            self.attempted += 1
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


# -- statistics ---------------------------------------------------------------


def another(start: float, done: int, seconds: float) -> bool:
    """Whether to start one more repetition: always before the first,
    then while one as long as the mean so far would end at most half a
    repetition past ``seconds`` after ``start``."""
    if done == 0:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done <= seconds


def median(samples) -> float:
    return float(statistics.median(samples))


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


# -- host speed ---------------------------------------------------------------

#: Seconds :func:`reference_loop` takes on the 2-core host this benchmark
#: was written on, when no other tenant slows it.
REFERENCE_S = 0.018


def reference_loop() -> float:
    """Seconds one run of a fixed pure-Python loop takes."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


class HostSpeed:
    """Scales host times to the reference host's speed.

    The shared host's speed drifts by tens of percent over minutes, and
    the reference loop, run between two pieces of work, slows with it.
    Call :meth:`scale` right after each timed piece: it runs the loop
    again and returns :data:`REFERENCE_S` over the mean of the loop's
    times just before and just after the piece.  A piece's host times
    multiplied by it are seconds on a host running at the reference
    speed.  The loop is benchmark code, so a change to the program never
    moves it.
    """

    def __init__(self) -> None:
        self.loops = [reference_loop()]

    def scale(self) -> float:
        self.loops.append(reference_loop())
        return 2.0 * REFERENCE_S / (self.loops[-2] + self.loops[-1])

    def record(self) -> dict:
        """The loop times of the run, for the run record."""
        return {"reference_ms": [round(1000.0 * t, 3) for t in
                                 (min(self.loops), median(self.loops),
                                  max(self.loops))]}


# -- hermetic environment -----------------------------------------------------


def strip_repro_env() -> None:
    """Drop inherited ``REPRO_*`` settings so the defaults are measured."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def child_env(work: Path, **extra: str) -> "dict[str, str]":
    """Environment of a child process: no inherited ``REPRO_*`` setting,
    the checkout's sources first on the path, temp files in ``work``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["TMPDIR"] = str(work / "tmp")
    env.update(extra)
    return env


@contextmanager
def work_dir():
    """A fresh scratch directory inside the checkout, removed afterwards.

    It is also this process's temporary directory meanwhile, so that
    worker pools started in process keep their files inside the checkout.
    """
    path = WORK_ROOT / f"run-{os.getpid()}-{time.monotonic_ns()}"
    (path / "tmp").mkdir(parents=True)
    saved = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = tempfile.tempdir = str(path / "tmp")
    try:
        yield path
    finally:
        if saved[0] is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = saved[0]
        tempfile.tempdir = saved[1]
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass


# -- child processes ----------------------------------------------------------


class Child:
    """A child process whose output lines are timestamped as they arrive.

    ``start`` is taken just before the process is created, so
    :meth:`wait_line` measures launch-to-line time from the outside.
    :meth:`finish` reaps the child with ``wait4`` and keeps its resource
    usage, which covers the child and every descendant it waited for.
    """

    def __init__(self, argv, env, stdout=subprocess.PIPE) -> None:
        self.lines: "list[tuple[float, str]]" = []
        self._cond = threading.Condition()
        self.rusage = None
        self.returncode: "int | None" = None
        #: Launch-to-exit seconds, set by :meth:`finish`.
        self.wall: "float | None" = None
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=stdout, stderr=subprocess.PIPE, text=True,
        )
        self._readers = [
            threading.Thread(target=self._read, args=(stream,), daemon=True)
            for stream in (self.proc.stdout, self.proc.stderr)
            if stream is not None
        ]
        for reader in self._readers:
            reader.start()

    def _read(self, stream) -> None:
        for line in stream:
            with self._cond:
                self.lines.append((time.perf_counter(), line.rstrip("\n")))
                self._cond.notify_all()
        with self._cond:
            self._cond.notify_all()

    def wait_line(self, needle: str, timeout: float) -> "float | None":
        """Seconds from launch to the first output line containing
        ``needle``; ``None`` if the child exits or ``timeout`` passes."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                for stamp, line in self.lines:
                    if needle in line:
                        return stamp - self.start
                remaining = deadline - time.monotonic()
                # Both pipes at end of file: the child is gone.  (Not
                # poll(): it would reap the child and lose its rusage.)
                closed = not any(r.is_alive() for r in self._readers)
                if remaining <= 0 or closed:
                    break
                self._cond.wait(min(remaining, 0.05))
        for stamp, line in list(self.lines):
            if needle in line:
                return stamp - self.start
        return None

    def finish(self, timeout: float) -> int:
        """Reap the child (killing it after ``timeout``); returns its
        exit code."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, rusage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.wall = time.perf_counter() - self.start
        self.rusage = rusage
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        for reader in self._readers:
            reader.join(10)
        return self.returncode

    def text(self) -> str:
        return "\n".join(line for _, line in self.lines)

    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0


# -- run record ---------------------------------------------------------------


def calibration_s() -> float:
    """Median time of five runs of :func:`reference_loop`.

    Recorded, never used to scale a metric: it tells host drift between
    two sets of runs apart from a change to the program.
    """
    return median(reference_loop() for _ in range(5))


def _commit() -> "str | None":
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            # A checkout that is no repository must not find one above it.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def run_record() -> dict:
    """Where and on what this run measured."""
    from repro.bench.cache import code_stamp

    return {
        "commit": _commit(),
        "code_stamp": code_stamp(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calibration_s": calibration_s(),
    }
