"""SPU fast-forward: engages on ALU-slot code, changes nothing.

``SPU._fast_forward`` retires hazard-checked ALU-slot code, loop
branches included, in one engine tick (see ``docs/PERFORMANCE.md``).
These unit tests drive mini-programs whose shapes hit every window
boundary — taken and not-taken branches, MEM-slot ops, scoreboard
hazards, the PF/EX block edge, the cycle cap — and assert a run with
fast-forward on is bit-identical to the same run with it off (the
``fast_forward`` fixture: one tick per issue cycle) while dispatching
strictly fewer engine ticks where a window exists at all.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cell.spu import FF_MAX_CYCLES, SPU
from repro.core.activity import GlobalObject, ObjRef
from repro.isa.builder import ThreadBuilder
from repro.isa.program import BlockKind
from repro.sim.engine import SimulationLimitExceeded
from repro.sim.stats import Bucket
from repro.testing import run_program


def _both_modes(build, fast_forward, **kw):
    """Run ``build()``'s program with fast-forward on, then off."""
    out = []
    for on in (True, False):
        fast_forward(on)
        out.append(run_program(build(), **kw))
    return out


def _assert_identical(fast, slow):
    assert fast.cycles == slow.cycles
    assert dataclasses.asdict(fast.result.stats) == dataclasses.asdict(
        slow.result.stats
    )
    assert (
        fast.machine.engine.ticks_dispatched
        <= slow.machine.engine.ticks_dispatched
    )


def tick_pcs_both_modes(build, fast_forward, monkeypatch):
    """Run ``build()``'s program as :func:`run_writer` does, and record
    the pc at which each SPU tick with a thread began, per mode:
    ``(fast, slow, fast_pcs, slow_pcs)``."""
    pcs: list = []
    tick = SPU.tick

    def recording(self, now):
        if self.thread is not None:
            pcs.append(self.pc)
        return tick(self, now)

    monkeypatch.setattr(SPU, "tick", recording)
    out = []
    for on in (True, False):
        fast_forward(on)
        pcs.clear()
        result = run_program(
            build(),
            stores={0: ObjRef("out")},
            globals_=[GlobalObject.zeros("out", 4)],
        )
        out.append((result, list(pcs)))
    (fast, fast_pcs), (slow, slow_pcs) = out
    return fast, slow, fast_pcs, slow_pcs


def writer():
    b = ThreadBuilder("t")
    b.slot("out")
    return b


def run_writer(build, fast_forward, words: int = 4):
    return _both_modes(
        build,
        fast_forward,
        stores={0: ObjRef("out")},
        globals_=[GlobalObject.zeros("out", words)],
    )


class TestStraightLineRuns:
    def test_long_alu_run_collapses_to_fewer_ticks(self, fast_forward):
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("acc", 0)
                for i in range(40):
                    b.addi("acc", "acc", i)
                b.write("rout", 0, "acc")
                b.stop()
            return b

        fast, slow = run_writer(build, fast_forward)
        _assert_identical(fast, slow)
        assert fast.word("out") == sum(range(40))
        # The 40-op run is one window: the fast run must actually have
        # skipped interior cycles, not merely matched totals.
        assert (
            fast.machine.engine.ticks_dispatched
            < slow.machine.engine.ticks_dispatched
        )

    def test_working_bucket_credited_in_bulk_matches(self, fast_forward):
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("x", 7)
                for _ in range(10):
                    b.addi("x", "x", 3)
                b.write("rout", 0, "x")
                b.stop()
            return b

        fast, slow = run_writer(build, fast_forward)
        _assert_identical(fast, slow)
        f = fast.result.stats.spus[0].breakdown
        s = slow.result.stats.spus[0].breakdown
        assert f.working == s.working


class TestWindowBoundaries:
    def test_scoreboard_hazards_inside_the_window(self, fast_forward):
        # A dependent MUL/DIV chain stalls on result latency mid-run; the
        # window must charge the same stall buckets as per-cycle ticks.
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("x", 3)
                b.li("y", 40)
                b.muli("x", "x", 5)     # lat 2
                b.muli("x", "x", 2)     # RAW on x
                b.div("z", "y", "x")    # lat 8, RAW on x
                b.addi("z", "z", 1)     # RAW on z
                b.write("rout", 0, "z")
                b.stop()
            return b

        fast, slow = run_writer(build, fast_forward)
        _assert_identical(fast, slow)
        assert fast.word("out") == 40 // 30 + 1

    def test_branches_terminate_the_window(self, fast_forward):
        # The loop exit falls through into a WRITE: that not-taken
        # branch ends a window; the taken back-edges before it do not.
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("n", 25)
                b.li("acc", 0)
                b.label("top")
                b.add("acc", "acc", "n")
                b.subi("n", "n", 1)
                b.bnez("n", "top")
                b.write("rout", 0, "acc")
                b.stop()
            return b

        fast, slow = run_writer(build, fast_forward)
        _assert_identical(fast, slow)
        assert fast.word("out") == sum(range(1, 26))

    def test_mem_slot_ops_interleaved(self, fast_forward):
        # Local-store traffic splits the EX block into several windows
        # and exercises the dual-issue edge (ALU op + MEM successor).
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("base", 0x200)
                b.li("x", 11)
                b.addi("x", "x", 4)
                b.lstore("base", 0, "x")
                b.addi("x", "x", 1)
                b.addi("x", "x", 1)
                b.lload("y", "base", 0)
                b.add("x", "x", "y")
                b.write("rout", 0, "x")
                b.stop()
            return b

        fast, slow = run_writer(build, fast_forward)
        _assert_identical(fast, slow)
        assert fast.word("out") == 32

    def test_pf_block_boundary_never_fast_forwards(self, fast_forward):
        # ALU runs inside a PF block stay on the per-cycle path (they
        # charge the Prefetching bucket and end at the DMA-yield edge).
        def build():
            b = writer()
            src = b.slot("src")
            bufp = b.slot("bufp")
            with b.block(BlockKind.PF):
                b.lsalloc("buf", 16)
                b.load("rsrc", src)
                b.li("t0", 1)
                b.addi("t0", "t0", 2)
                b.addi("t0", "t0", 3)
                b.dmaget("buf", "rsrc", 16, tag=1)
                b.storef(bufp, "buf")
            with b.block(BlockKind.PL):
                b.load("rout", "out")
                b.load("rbuf", bufp)
            with b.block(BlockKind.EX):
                b.lload("v", "rbuf", 0)
                b.li("acc", 0)
                for _ in range(8):
                    b.add("acc", "acc", "v")
                b.write("rout", 0, "acc")
                b.stop()
            return b

        def run(on):
            fast_forward(on)
            return run_program(
                build(),
                stores={0: ObjRef("out"), 1: ObjRef("src")},
                globals_=[
                    GlobalObject.zeros("out", 4),
                    GlobalObject("src", (9, 0, 0, 0)),
                ],
            )

        fast, slow = run(True), run(False)
        _assert_identical(fast, slow)
        assert fast.word("out") == 72
        f = fast.result.stats.spus[0].breakdown
        s = slow.result.stats.spus[0].breakdown
        assert f.prefetch == s.prefetch


class TestWindowsThroughBranches:
    def test_counted_loop_back_edge_stays_in_one_window(
        self, fast_forward, monkeypatch
    ):
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("n", 15)  # 15 six-cycle iterations: under the cap
                b.li("acc", 0)
                b.label("top")
                b.add("acc", "acc", "n")
                b.subi("n", "n", 1)
                b.bnez("n", "top")
                b.muli("acc", "acc", 2)  # ALU fall-through: still eligible
                b.write("rout", 0, "acc")
                b.stop()
            return b

        fast, slow, fast_pcs, slow_pcs = tick_pcs_both_modes(
            build, fast_forward, monkeypatch
        )
        _assert_identical(fast, slow)
        assert fast.word("out") == 2 * sum(range(1, 16))
        # Off: one tick per issue cycle, 45 in the loop alone.  On: the
        # LOAD+LI group starts a window that runs all 15 iterations, and
        # the next tick is already the MULI+WRITE pair.
        assert 15 * (3 + 3) < FF_MAX_CYCLES
        top = 3
        assert slow_pcs.count(top) == 15
        assert top not in fast_pcs
        muli = 6
        assert fast_pcs[fast_pcs.index(0) + 1] == muli

    def test_not_taken_branch_into_a_mem_op_stops_the_window(
        self, fast_forward
    ):
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("x", 7)
                b.li("base", 0x200)
                b.addi("x", "x", 1)
                b.addi("x", "x", 1)
                b.beqz("x", "skip")      # not taken ...
                b.lstore("base", 0, "x")  # ... so it pairs with this
                b.label("skip")
                b.lload("y", "base", 0)
                b.addi("y", "y", 1)
                b.write("rout", 0, "y")
                b.stop()
            return b

        fast, slow = run_writer(build, fast_forward)
        _assert_identical(fast, slow)
        assert fast.word("out") == 10
        assert (
            fast.machine.engine.ticks_dispatched
            < slow.machine.engine.ticks_dispatched
        )
        # The window stopped before the branch, so the per-cycle path
        # could dual-issue it with the LSTORE, exactly as with
        # fast-forward off.  The other pairs: LOAD+LI and ADDI+WRITE.
        assert fast.result.stats.spus[0].dual_issue_cycles == 3

    def test_window_starts_right_after_an_lload_cycle(
        self, fast_forward, monkeypatch
    ):
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")     # pc 0, pairs with pc 1
            with b.block(BlockKind.EX):
                b.li("base", 0x200)       # 1
                b.li("v", 9)              # 2, pairs with the LSTORE
                b.lstore("base", 0, "v")  # 3
                b.lload("y", "base", 0)   # 4, pairs with pc 5
                b.addi("a", "v", 1)       # 5
                b.addi("a", "a", 1)       # 6: the window starts here
                b.addi("a", "a", 1)       # 7
                b.add("z", "y", "a")      # 8: waits for the LLOAD
                b.addi("z", "z", 1)       # 9, pairs with the WRITE
                b.write("rout", 0, "z")   # 10
                b.stop()
            return b

        fast, slow, fast_pcs, slow_pcs = tick_pcs_both_modes(
            build, fast_forward, monkeypatch
        )
        _assert_identical(fast, slow)
        assert fast.word("out") == 9 + 12 + 1
        # Off, pcs 6, 7 and 8 each take a tick (8 a second one after its
        # LS stall).  On, the tick that issues the LLOAD cycle runs them
        # as a window and the next tick is already at pc 9.
        assert fast_pcs[fast_pcs.index(4) + 1] == 9
        assert slow_pcs[slow_pcs.index(4) + 1] == 6
        f = fast.result.stats.spus[0].breakdown
        assert f.ls_stall == slow.result.stats.spus[0].breakdown.ls_stall > 0

    def test_scoreboard_stall_on_a_branch_operand(self, fast_forward):
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("n", 6)
                b.li("one", 1)
                b.li("acc", 0)
                b.label("top")
                b.addi("acc", "acc", 3)
                b.subi("n", "n", 1)
                b.div("t", "n", "one")   # lat 8 ...
                b.bnez("t", "top")       # ... the branch waits for it
                b.addi("acc", "acc", 1)
                b.write("rout", 0, "acc")
                b.stop()
            return b

        fast, slow = run_writer(build, fast_forward)
        _assert_identical(fast, slow)
        assert fast.word("out") == 6 * 3 + 1
        assert (
            fast.machine.engine.ticks_dispatched
            < slow.machine.engine.ticks_dispatched
        )


class TestWindowCap:
    def test_pure_alu_jmp_loop_hits_max_cycles(self, fast_forward):
        # Without a cycle cap the first window would never end: the loop
        # never leaves the ALU slot.  With it, the run reaches max_cycles.
        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("x", 0)
                b.label("top")
                b.addi("x", "x", 1)
                b.jmp("top")
                b.write("rout", 0, "x")
                b.stop()
            return b

        limit = 20 * FF_MAX_CYCLES
        for on in (True, False):
            fast_forward(on)
            with pytest.raises(SimulationLimitExceeded, match=f"{limit}"):
                run_program(
                    build(),
                    stores={0: ObjRef("out")},
                    globals_=[GlobalObject.zeros("out", 4)],
                    max_cycles=limit,
                )


class TestObserversDisengage:
    def test_tracer_forces_per_cycle_ticks(self, fast_forward):
        # With a tracer attached the window must not engage: per-cycle
        # observers need every cycle visited.  Identical results either
        # way, but no tick reduction relative to fast-forward off.
        from repro.cell.machine import Machine
        from repro.core.activity import SpawnSpec, TLPActivity
        from repro.obs.trace import Tracer
        from repro.testing import small_config

        def build():
            b = writer()
            with b.block(BlockKind.PL):
                b.load("rout", "out")
            with b.block(BlockKind.EX):
                b.li("acc", 0)
                for i in range(20):
                    b.addi("acc", "acc", 1)
                b.write("rout", 0, "acc")
                b.stop()
            return b

        def run(on):
            fast_forward(on)
            builder = build()
            program = builder.build()
            activity = TLPActivity(
                name="t",
                templates=[program],
                globals_=[GlobalObject.zeros("out", 4)],
                spawns=[SpawnSpec(template="t", stores={0: ObjRef("out")})],
            )
            machine = Machine(small_config())
            machine.attach_tracer(Tracer())
            machine.load(activity)
            result = machine.run()
            return machine, result

        fm, fr = run(True)
        sm, sr = run(False)
        assert fr.cycles == sr.cycles
        assert fm.engine.ticks_dispatched == sm.engine.ticks_dispatched
        assert [e.to_dict() for e in fm.tracer.events] == [
            e.to_dict() for e in sm.tracer.events
        ]
