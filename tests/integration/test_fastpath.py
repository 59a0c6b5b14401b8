"""Fast-forward equivalence matrix: speed may change, bits may not.

SPU fast-forward (see ``docs/PERFORMANCE.md``) retires straight-line ALU
runs in one engine tick instead of one tick per cycle.  It is pure
performance work: for any benchmark, seed and configuration, a run with
fast-forward on must produce **bit-identical** architectural outputs,
``MachineStats`` and profiles to the same run with it off (the
``fast_forward`` fixture zeroes every run length, so each instruction
issues in its own tick).  This matrix enforces it across the three
paper benchmarks under every regime that could perturb the windows:
plain, metrics hub attached (windows disengage), chaos faults, and the
invariant sanitizer.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.scale import builders
from repro.cell.machine import Machine
from repro.compiler.passes import prefetch_transform
from repro.obs.diff import diff_profiles
from repro.obs.profile import profile_workload
from repro.sim.config import MachineConfig

BENCHMARKS = ("bitcnt", "mmul", "zoom")
SEEDS = (1, 2, 3)

#: Same chaos spec as the fault matrix: every fault class fires.
CHAOS = ("dma_delay=0.1,dma_drop=0.08,bus_delay=0.05,bus_dup=0.05,"
         "mem_stall=0.05,dma_max_retries=2")


def _run(name: str, config: MachineConfig, fast_forward, on: bool):
    """One prefetch-variant run; returns (result, outputs, ticks)."""
    fast_forward(on)
    workload = builders("test")[name]()
    machine = Machine(config)
    machine.load(prefetch_transform(workload.activity))
    result = machine.run()
    outputs = {obj: machine.read_global(obj) for obj in workload.oracle}
    workload.verify(machine)
    return result, outputs, machine.engine.ticks_dispatched


def _assert_equivalent(fast, slow):
    """``fast``: fast-forward on; ``slow``: off."""
    f_result, f_outputs, f_ticks = fast
    s_result, s_outputs, s_ticks = slow
    assert f_ticks <= s_ticks
    assert f_outputs == s_outputs
    assert f_result.cycles == s_result.cycles
    # Field-by-field beats a bare ``==`` for diagnosability.
    assert dataclasses.asdict(f_result.stats) == dataclasses.asdict(
        s_result.stats
    )


class TestPlainEquivalence:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_stats_and_outputs_bit_identical(self, name, fast_forward):
        cfg = MachineConfig()
        fast = _run(name, cfg, fast_forward, on=True)
        slow = _run(name, cfg, fast_forward, on=False)
        _assert_equivalent(fast, slow)
        # Windows engaged, so the comparison is not vacuous.
        assert fast[2] < slow[2]


class TestFaultedEquivalence:
    @pytest.mark.parametrize("name", BENCHMARKS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_runs_bit_identical(self, name, seed, fast_forward):
        cfg = MachineConfig().with_faults(f"seed={seed},{CHAOS}")
        fast = _run(name, cfg, fast_forward, on=True)
        slow = _run(name, cfg, fast_forward, on=False)
        _assert_equivalent(fast, slow)
        # The chaos spec actually fired, so the equivalence was under load.
        assert fast[0].stats.faults.any_fired


class TestSanitizedEquivalence:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_sanitized_runs_bit_identical(self, name, fast_forward):
        cfg = MachineConfig().replace(sanitize=True)
        _assert_equivalent(
            _run(name, cfg, fast_forward, on=True),
            _run(name, cfg, fast_forward, on=False),
        )


class TestObservedEquivalence:
    """With a hub attached the SPU fast-forward disengages, so both sides
    issue cycle by cycle — every gauge sample, bucket series and trace
    event must match."""

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_profiles_bit_identical(self, name, fast_forward):
        def profiled(on: bool):
            fast_forward(on)
            workload = builders("test")[name]()
            return profile_workload(workload, MachineConfig())

        f_result, f_profile = profiled(True)
        s_result, s_profile = profiled(False)
        assert f_result.cycles == s_result.cycles
        assert dataclasses.asdict(f_result.stats) == dataclasses.asdict(
            s_result.stats
        )
        # The full profile dump — metrics rings, interval series, engine
        # totals — is identical, so the self-diff is clean by definition.
        assert f_profile.to_dict() == s_profile.to_dict()
        diff = diff_profiles(s_profile.to_dict(), f_profile.to_dict())
        assert diff.regressions(max_delta_pct=0.0) == []

