"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(autouse=True)
def _hermetic(monkeypatch):
    """The benchmark measures defaults: no inherited ``REPRO_*`` setting."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
