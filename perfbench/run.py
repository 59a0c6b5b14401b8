"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pf-paper --seed 1 --seconds 25

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
every end-to-end metric of ``BENCHMARK.json``, with ``--trace 1`` every
per-layer metric, each as ``{"value": ..., "unit": ...}``.  The line
before it records where the run measured (commit, code stamp, Python,
CPU count, calibration loop time) and the run's own counts.  The exit
code is 0 only when every operation passed its correctness check; it is
2, with no result printed, when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULES = {
    "pf-paper": "sim",
    "base-paper": "sim",
    "reproduce-default": "reproduce",
    "serve-mix": "serve",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def execute(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """Measure ``workload``; returns the result object to print."""
    import importlib

    from perfbench import common

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    module = importlib.import_module(f"perfbench.{MODULES[workload]}")
    with common.work_dir() as work:
        if trace:
            out = module.trace(workload, seed, work, size=size)
        else:
            out = module.measure(workload, seed, seconds, work, size=size)
    if out.failed == 0 and set(out.metrics) != set(units):
        raise RuntimeError(
            f"{workload} reported {sorted(out.metrics)}, "
            f"BENCHMARK.json names {sorted(units)}"
        )
    return {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": max(1, out.attempted),
        "failed": out.failed if out.attempted else 1,
        "metrics": {
            name: {"value": out.metrics[name], "unit": units[name]}
            for name in units if name in out.metrics
        },
        "errors": out.errors,
        "record": out.record,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common

    # A SIGTERM unwinds like an error: servers are stopped, scratch
    # files removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    common.strip_repro_env()
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    record = dict(result.pop("record"), **common.run_record(),
                  workload=args.workload, seed=args.seed)
    errors = result.pop("errors")
    for error in errors:
        print(f"perfbench: FAILED: {error}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
