"""SPU fast-forward: engages on straight-line ALU runs, changes nothing.

``SPU._fast_forward`` retires a hazard-checked straight-line ALU run in
one engine tick (see ``docs/PERFORMANCE.md``).  These unit tests drive
mini-programs whose shapes hit every window boundary — branches,
MEM-slot ops, scoreboard hazards, the PF/EX block edge — and assert a
run with fast-forward on is bit-identical to the same run with it off
(the ``fast_forward`` fixture: one tick per issue cycle) while
dispatching strictly fewer engine ticks where a window exists at all.
"""

from __future__ import annotations

import dataclasses

from repro.core.activity import GlobalObject, ObjRef
from repro.isa.builder import ThreadBuilder
from repro.isa.program import BlockKind
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
