"""Each workload emits every named metric, a wrong output is a failed
operation, and a traced run leaves no shim behind."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import common, run, serve, sim
from perfbench.tracer import Tracer, leftover_shims

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_names_the_runnable_workloads():
    assert sorted(WORKLOADS) == sorted(run.MODULES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result = run.execute(workload, seed=3, seconds=0, trace=False, size="tiny")
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units("end_to_end")
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_emits_every_layer_metric(workload):
    result = run.execute(workload, seed=3, seconds=0, trace=True, size="tiny")
    assert result["errors"] == []
    assert result["correct"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units("per_layer")
    assert leftover_shims() == []


def test_tampered_oracle_is_a_failed_operation():
    out = common.Outcome()
    workloads = sim.build_workloads(3, "test")
    oracle = workloads["mmul"].oracle
    key = next(iter(oracle))
    oracle[key] = [oracle[key][0] + 1] + list(oracle[key][1:])
    done = sim.run_pass(lambda: workloads, True, out, {})
    assert (out.attempted, out.failed) == (3, 1)
    assert sorted(done["runs"]) == ["bitcnt", "zoom"]
    assert "mmul: wrong output" in out.errors[0]


def test_changed_cycle_count_is_a_failed_operation():
    out = common.Outcome()
    expected = {"zoom": (1, 1)}
    done = sim.run_pass(lambda: sim.build_workloads(3, "test"), False, out,
                        expected)
    assert out.failed == 1 and "zoom" not in done["runs"]


def test_served_result_unlike_its_first_is_a_failed_operation():
    payload = {"run": {"cycles": 100}}
    jobs = [
        {"index": 0, "status": {"state": "done"}, "payload": payload},
        {"index": 0, "status": {"state": "done"},
         "payload": {"run": {"cycles": 101}}},
        {"index": 1, "status": {"state": "failed"}, "payload": None},
    ]
    out = common.Outcome()
    cold = serve.check({"jobs": jobs}, out)
    assert (out.attempted, out.failed) == (3, 2)
    assert cold == {0: payload}


def test_job_mix_is_seeded_and_spaces_first_seen_specs_alike():
    size = serve.SIZES["full"]
    mixes = [serve.job_mix(seed, size["specs"], size["repeats"])
             for seed in (5, 5, 6)]
    assert mixes[0] == mixes[1] != mixes[2]
    stride = 1 + size["repeats"]
    for mix in mixes:
        assert len(mix) == len(size["specs"]) * stride
        firsts = sorted({i: mix.index(i) for i in set(mix)}.values())
        assert firsts == list(range(0, len(mix), stride))


def test_served_specs_span_the_experiment_axes():
    from repro.bench.scale import spe_counts

    assert {spec[1] for spec in serve.SPECS} == {150, 1}
    assert {spec[3] for spec in serve.SPECS} == set(spe_counts())
    assert len(set(serve.SPECS)) == len(serve.SPECS) == 3 * 2 * 2 * len(
        spe_counts())


def test_host_speed_scales_each_piece_by_the_loop_around_it(monkeypatch):
    loops = iter([0.036, 0.018, 0.009])
    monkeypatch.setattr(common, "reference_loop", lambda: next(loops))
    host = common.HostSpeed()
    assert host.scale() == pytest.approx(common.REFERENCE_S / 0.027)
    assert host.scale() == pytest.approx(common.REFERENCE_S / 0.0135)
    assert host.record() == {"reference_ms": [9.0, 18.0, 36.0]}


def test_tracer_restores_every_wrapped_attribute():
    from repro.cell.spu import SPU
    from repro.sim import engine

    tick, kinds = SPU.tick, dict(engine._CALLBACK_KINDS)
    with Tracer():
        assert leftover_shims() != []
        assert SPU.tick is not tick
    assert leftover_shims() == []
    assert SPU.tick is tick
    assert engine._CALLBACK_KINDS == kinds


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pf-paper"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
