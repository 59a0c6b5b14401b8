"""Decoded-instruction tables: value functions pinned, rows faithful.

The SPU issue loop (``SPU._issue`` and ``SPU._fast_forward``) trusts
:mod:`repro.isa.decoded` completely, so this suite pins the decoded
closures to the canonical semantics in :mod:`repro.isa.semantics` over
a value grid, and checks the row fields and fast-forward eligibility
against first principles.
"""

from __future__ import annotations

import pytest

from repro.isa.builder import ThreadBuilder
from repro.isa.decoded import (
    _ALU_FN,
    _BRANCH_FN,
    D_AREG,
    D_AVAL,
    D_BREG,
    D_BVAL,
    D_FF,
    D_FN,
    D_HAZ,
    D_KIND,
    D_LAT,
    D_NAME,
    D_OFF,
    D_RD,
    D_TARGET,
    FF_ALWAYS,
    FF_IF_TAKEN,
    FF_NEVER,
    K_ALU,
    K_BRANCH,
    K_LLOAD,
    K_LOAD,
    K_LSTORE,
    K_MEM,
    K_STOREF,
    decode_program,
)
from repro.isa.opcodes import Op, Slot, spec_of
from repro.isa.program import BlockKind
from repro.isa.semantics import (
    ArithmeticFault,
    alu_result,
    branch_taken,
)

#: Edge-heavy operand grid: signs, zero, wrap boundaries, shift widths.
GRID = (
    0, 1, -1, 2, -2, 7, 63, 64, 100, -100,
    2**31, -(2**31), 2**62, -(2**62), 2**63 - 1, -(2**63),
)


class TestValueFunctionsPinned:
    @pytest.mark.parametrize("op", sorted(_ALU_FN, key=lambda o: o.value))
    def test_alu_fn_matches_alu_result_on_grid(self, op):
        fn = _ALU_FN[op]
        for a in GRID:
            for b in GRID:
                try:
                    expected = alu_result(op, a, b)
                except ArithmeticFault:
                    with pytest.raises(ArithmeticFault):
                        fn(a, b)
                    continue
                assert fn(a, b) == expected, (op, a, b)

    @pytest.mark.parametrize("op", sorted(_BRANCH_FN, key=lambda o: o.value))
    def test_branch_fn_matches_branch_taken_on_grid(self, op):
        fn = _BRANCH_FN[op]
        for a in GRID:
            for b in GRID:
                assert fn(a, b) == branch_taken(op, a, b), (op, a, b)

    def test_every_alu_and_branch_op_is_covered(self):
        # A new opcode must get a decoded closure (or the decoder would
        # KeyError at decode time) *and* a grid pin here.
        for op in Op:
            spec = spec_of(op)
            if spec.is_branch:
                assert op in _BRANCH_FN
            elif spec.slot is Slot.ALU and op is not Op.NOP:
                assert op in _ALU_FN


def ex_program(body):
    """Build a one-block EX program: ``body(b)`` then STOP."""
    b = ThreadBuilder("t")
    with b.block(BlockKind.EX):
        body(b)
        b.stop()
    return b.build()


class TestRowFields:
    def test_immediate_alu_folds_imm_into_bval(self):
        prog = ex_program(lambda b: (b.li("x", 5), b.addi("x", "x", 37)))
        rows = decode_program(prog).rows
        addi = rows[1]
        assert addi[D_KIND] == K_ALU
        assert addi[D_BREG] is None
        assert addi[D_BVAL] == 37
        assert addi[D_NAME] == Op.ADDI.value

    def test_li_carries_value_in_bval(self):
        rows = decode_program(ex_program(lambda b: b.li("x", 123))).rows
        li = rows[0]
        assert li[D_BREG] is None and li[D_BVAL] == 123
        assert li[D_FN](0, li[D_BVAL]) == 123

    def test_nop_has_no_value_function(self):
        rows = decode_program(ex_program(lambda b: b.nop())).rows
        nop = rows[0]
        assert nop[D_KIND] == K_ALU
        assert nop[D_FN] is None
        assert nop[D_RD] is None

    def test_latency_and_hazard_registers(self):
        def body(b):
            b.li("x", 3)
            b.muli("y", "x", 7)

        rows = decode_program(ex_program(body)).rows
        muli = rows[1]
        assert muli[D_LAT] == spec_of(Op.MULI).result_latency == 2
        # Hazard set covers ra and rd (WAW), in ra, rb, rd order.
        x, y = rows[0][D_RD], muli[D_RD]
        assert muli[D_HAZ] == (x, y)

    def test_branch_row_resolves_target(self):
        def body(b):
            b.li("x", 0)
            b.label("top")
            b.addi("x", "x", 1)
            b.bne("x", "x", "top")

        rows = decode_program(ex_program(body)).rows
        bne = rows[2]
        assert bne[D_KIND] == K_BRANCH
        assert bne[D_TARGET] == 1

    def test_stop_is_a_mem_slot_row(self):
        rows = decode_program(ex_program(lambda b: b.li("x", 1))).rows
        assert rows[-1][D_KIND] == K_MEM
        assert rows[-1][D_NAME] == Op.STOP.value

    def test_local_store_rows_carry_resolved_operands(self):
        b = ThreadBuilder("t")
        for slot in ("s0", "s1", "s2", "s3"):
            b.slot(slot)
        with b.block(BlockKind.PF):
            b.li("v", 5)
            b.storef(2, "v")
        with b.block(BlockKind.PL):
            b.load("f", 3)
        with b.block(BlockKind.EX):
            b.li("base", 0x200)
            b.lload("w", "base", 12)
            b.lstore("base", 8, "v")
            b.stop()
        rows = decode_program(b.build()).rows
        v, base = rows[0][D_RD], rows[3][D_RD]
        storef, load, lload, lstore = rows[1], rows[2], rows[4], rows[5]
        # LOAD rd <- frame[3]: the offset is in bytes.
        assert load[D_KIND] == K_LOAD
        assert load[D_OFF] == 12
        assert load[D_HAZ] == (load[D_RD],)
        # STOREF frame[2] <- v.
        assert storef[D_KIND] == K_STOREF
        assert storef[D_AREG] == v and storef[D_OFF] == 8
        assert storef[D_HAZ] == (v,)
        # LLOAD w <- LS[base + 12]: WAW on w after the base.
        assert lload[D_KIND] == K_LLOAD
        assert lload[D_AREG] == base and lload[D_OFF] == 12
        assert lload[D_HAZ] == (base, lload[D_RD])
        # LSTORE LS[base + 8] <- v.
        assert lstore[D_KIND] == K_LSTORE
        assert lstore[D_AREG] == base and lstore[D_BREG] == v
        assert lstore[D_OFF] == 8
        assert lstore[D_HAZ] == (base, v)
        for row in (load, storef, lload, lstore):
            assert row[D_KIND] >= K_MEM  # MEM issue slot
            assert row[D_FF] == FF_NEVER
            assert row[D_FN] is None

    def test_every_non_alu_op_is_a_mem_slot_op(self):
        # The decoder gives every op that is neither ALU nor branch the
        # K_MEM kind, which the SPU counts against the MEM issue slot.
        for op in Op:
            spec = spec_of(op)
            if not spec.is_branch and spec.slot is not Slot.ALU:
                assert spec.slot is Slot.MEM, op


class TestFastForwardRunLengths:
    """``D_FF`` is a per-row eligibility: whether a fast-forward window
    may issue the row, given the dual-issue rules of ``SPU._issue``."""

    def test_straight_alu_run_is_eligible_up_to_the_stop(self):
        def body(b):
            b.li("a", 1)
            b.li("b", 2)
            b.add("c", "a", "b")
            b.add("d", "c", "c")

        rows = decode_program(ex_program(body)).rows
        # The last ALU op precedes STOP (MEM slot): the per-cycle path
        # would dual-issue them, so it stays outside windows.
        assert [r[D_FF] for r in rows] == [
            FF_ALWAYS, FF_ALWAYS, FF_ALWAYS, FF_NEVER, FF_NEVER,
        ]

    def test_branch_eligibility_follows_its_fall_through(self):
        def body(b):
            b.li("x", 4)
            b.li("y", 0)
            b.label("top")
            b.addi("y", "y", 1)
            b.subi("x", "x", 1)
            b.bnez("x", "top")

        rows = decode_program(ex_program(body)).rows
        # The back-edge falls through into STOP (MEM slot): a window may
        # take it, but a not-taken one would dual-issue with the STOP.
        assert [r[D_FF] for r in rows] == [
            FF_ALWAYS, FF_ALWAYS, FF_ALWAYS, FF_ALWAYS, FF_IF_TAKEN,
            FF_NEVER,
        ]

        def skip(b):
            b.li("x", 0)
            b.beqz("x", "out")
            b.addi("x", "x", 1)
            b.label("out")
            b.addi("x", "x", 2)
            b.nop()

        rows = decode_program(ex_program(skip)).rows
        # A forward branch into ALU-slot code is eligible either way.
        assert rows[1][D_KIND] == K_BRANCH
        assert rows[1][D_FF] == FF_ALWAYS

    def test_mem_slot_successor_zeroes_ff(self):
        def body(b):
            b.li("x", 9)
            b.lstore("x", 0, "x")
            b.addi("x", "x", 1)

        rows = decode_program(ex_program(body)).rows
        ffs = [r[D_FF] for r in rows]
        # li precedes LSTORE (MEM): dual-issue candidate, ineligible.
        # addi precedes STOP (MEM): same.  LSTORE is not ALU: ineligible.
        assert ffs == [FF_NEVER] * 4

    def test_nops_participate_in_runs(self):
        def body(b):
            b.li("x", 1)
            b.nop()
            b.nop()
            b.addi("x", "x", 1)

        rows = decode_program(ex_program(body)).rows
        assert [r[D_FF] for r in rows] == [
            FF_ALWAYS, FF_ALWAYS, FF_ALWAYS, FF_NEVER, FF_NEVER,
        ]

    def test_decode_is_cached_per_program(self):
        prog = ex_program(lambda b: b.li("x", 1))
        assert prog.decoded is prog.decoded
