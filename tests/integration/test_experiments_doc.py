"""EXPERIMENTS.md quotes the golden results, number for number.

The measured tables of sections T5, F5, F6/F7/F8, F9 and L1 are the
default-scale ``repro reproduce`` output that
``tests/golden/reproduce-default.json`` pins.  Each table row is
re-rendered from that file at the table's own precision (thousands
separators for counts, one decimal for percentages, two for speedups and
scalability) and must equal the row in the document.  A deliberate
timing change that regenerates the golden file must refresh the
document in the same change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOC = (ROOT / "EXPERIMENTS.md").read_text()
GOLDEN = json.loads(
    (ROOT / "tests" / "golden" / "reproduce-default.json").read_text()
)["experiments"]
NAMES = ("bitcnt", "mmul", "zoom")
BUCKETS = ("working", "idle", "mem_stall", "ls_stall", "lse_stall",
           "prefetch")


def _section(heading: str) -> str:
    start = DOC.index(f"\n## {heading}")
    end = DOC.find("\n## ", start + 1)
    return DOC[start:end if end != -1 else len(DOC)]


def _tables(heading: str) -> "list[list[list[str]]]":
    """Every markdown table of a section, as rows of stripped cells
    (header and separator rows dropped, bold markers removed)."""
    tables: "list[list[list[str]]]" = []
    current: "list[list[str]] | None" = None
    for line in _section(heading).splitlines():
        if not line.startswith("|"):
            current = None
            continue
        cells = [c.strip().strip("*") for c in line.strip("|").split("|")]
        if current is None:
            current = []
            tables.append(current)
            continue  # header row
        if set("".join(cells)) <= set("-:"):
            continue  # separator row
        current.append(cells)
    return tables


def _pct(x: float) -> str:
    return f"{100 * x:.1f}%"


def test_t5_instruction_counts():
    measured = _tables("T5")[-1]
    expected = [
        [name] + [f"{GOLDEN['table5'][name][k]:,}"
                  for k in ("total", "load", "store", "read", "write")]
        for name in NAMES
    ]
    assert measured == expected


@pytest.mark.parametrize("variant", ("base", "prefetch"))
def test_f5_time_breakdown(variant):
    no_pf, with_pf = _tables("F5")
    measured = no_pf if variant == "base" else with_pf
    expected = [
        [name] + [_pct(GOLDEN["fig5"][name][variant][b]) for b in BUCKETS]
        for name in NAMES
    ]
    assert measured == expected


def test_f6_f8_execution_time():
    execution, _ = _tables("F6/F7/F8")
    expected = []
    for n in sorted(GOLDEN["scaling"]["mmul"]["points"], key=int):
        row = [n]
        for name in NAMES:
            point = GOLDEN["scaling"][name]["points"][n]
            row += [f"{point['base']['cycles']:,}",
                    f"{point['prefetch']['cycles']:,}",
                    f"{point['speedup']:.2f}x"]
        expected.append(row)
    assert execution == expected


def test_f6_f8_scalability():
    _, scalability = _tables("F6/F7/F8")
    expected = []
    for n in sorted(GOLDEN["scaling"]["mmul"]["points"], key=int)[1:]:
        row = [n]
        for name in NAMES:
            curve = GOLDEN["scaling"][name]["scalability"]
            row.append(f"{curve['base'][n]:.2f} / {curve['prefetch'][n]:.2f}")
        expected.append(row)
    assert scalability == expected


def test_f9_pipeline_usage():
    (measured,) = _tables("F9")
    expected = [
        [name, _pct(GOLDEN["fig9"][name]["base"]),
         _pct(GOLDEN["fig9"][name]["prefetch"])]
        for name in NAMES
    ]
    assert measured == expected


def test_l1_latency1_study():
    (measured,) = _tables("L1")
    expected = []
    for name in NAMES:
        pair = GOLDEN["latency1"][name]
        expected.append([
            name,
            f"{pair['base']['cycles']:,}",
            f"{pair['prefetch']['cycles']:,}",
            f"{pair['speedup']:.2f}x",
            _pct(pair["prefetch"]["breakdown"]["prefetch"]),
        ])
    assert measured == expected
