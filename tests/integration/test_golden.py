"""Golden simulated results: ``repro reproduce`` output is pinned.

``tests/golden/reproduce-test.json`` and ``reproduce-default.json`` hold
the exact JSON that ``repro reproduce --scale S`` writes.  Any change to
a simulated cycle count, time breakdown or instruction count shows up
here as a diff.  The default scale takes a few seconds per run, so CI
checks it in its own step; this suite checks the test scale.  A
deliberate timing change regenerates both files in the same change::

    PYTHONPATH=src python -m repro reproduce --scale test --no-cache \\
        -o tests/golden/reproduce-test.json
    PYTHONPATH=src python -m repro reproduce --scale default --no-cache \\
        -j2 -o tests/golden/reproduce-default.json
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.export import reproduce_all, to_json

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def test_test_scale_reproduce_matches_golden():
    text = to_json(reproduce_all(scale="test", spes=(1, 2, 4, 8))) + "\n"
    golden = (GOLDEN / "reproduce-test.json").read_text()
    assert json.loads(text) == json.loads(golden)
    assert text == golden
