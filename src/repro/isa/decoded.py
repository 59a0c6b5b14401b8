"""Decoded-instruction cache: per-program flat execution tables.

The SPU issue loop would otherwise re-derive everything about an
:class:`~repro.isa.instructions.Instruction` on every visit:
``instr.spec`` (a dict lookup keyed by enum hash), ``isinstance`` checks
on operands, enum identity chains in ``alu_result``.  Per paper-benchmark
run those lookups happen hundreds of thousands of times on immutable
data.

:func:`decode_program` resolves all of it **once per program** into flat
tuples — one row per flat instruction — holding:

* a small-int dispatch ``kind``: ALU, branch, one of the four local-store
  ops (LOAD, STOREF, LLOAD, LSTORE, which the SPU issues from the row),
  or any other MEM-slot op (run from the original :class:`Instruction`),
* pre-resolved operands (register index *or* immediate value, with the
  ALU ``imm``-as-``rb`` fallback already folded in),
* the value function (one tiny closure per opcode instead of the
  ``alu_result`` if-chain; ``tests/isa/test_decoded.py`` pins these to
  :func:`~repro.isa.semantics.alu_result` /
  :func:`~repro.isa.semantics.branch_taken` so they cannot drift),
* the scoreboard-checked register set, the result latency and, for
  the local-store ops, the byte offset of the access,
* ``ff``: the **fast-forward eligibility** of this pc — whether the SPU
  may issue the instruction inside a fast-forward window, where one
  tick retires many cycles without any per-cycle observer noticing
  (see ``SPU._fast_forward`` and ``docs/PERFORMANCE.md``).

Rows are plain tuples indexed by the ``D_*`` constants (attribute access
is what we are deleting from the hot path).  The decoded table attaches
lazily to :class:`~repro.isa.program.ThreadProgram` via its ``decoded``
property.  The functional interpreter never reads it, so the golden
model shares no code with the timing model's decoder.
"""

from __future__ import annotations

import typing

from repro.isa.opcodes import Op, spec_of
from repro.isa.instructions import Imm, Reg
from repro.isa.semantics import (
    ArithmeticFault,
    to_unsigned64,
    wrap64,
)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.isa.program import ThreadProgram

__all__ = [
    "DecodedProgram",
    "decode_program",
    # row field indices
    "D_KIND", "D_AREG", "D_AVAL", "D_BREG", "D_BVAL", "D_RD", "D_TARGET",
    "D_LAT", "D_HAZ", "D_FN", "D_NAME", "D_FF", "D_OFF",
    # dispatch kinds
    "K_ALU", "K_BRANCH", "K_MEM", "K_LOAD", "K_STOREF", "K_LLOAD", "K_LSTORE",
    # fast-forward eligibility
    "FF_NEVER", "FF_ALWAYS", "FF_IF_TAKEN",
]


# -- row layout ---------------------------------------------------------------
# One decoded instruction is a plain tuple; index with these constants.

D_KIND = 0    #: dispatch class (K_* below)
D_AREG = 1    #: ra register index, or None (then D_AVAL is the value)
D_AVAL = 2    #: ra immediate value; 0 when ra is absent
D_BREG = 3    #: rb register index, or None (then D_BVAL is the value)
D_BVAL = 4    #: rb immediate value; ALU rows fold the imm fallback here
D_RD = 5      #: destination register index, or None
D_TARGET = 6  #: resolved branch target flat index, or None
D_LAT = 7     #: result latency in cycles (>= 1; ALU rows only matter)
D_HAZ = 8     #: tuple of scoreboard-checked register indices, in ra,rb,rd order
D_FN = 9      #: value function (ALU result / branch predicate), or None
D_NAME = 10   #: op mnemonic (InstructionMix.record key)
D_FF = 11     #: fast-forward eligibility (FF_* below)
D_OFF = 12    #: LS byte offset: 4 * slot for LOAD/STOREF, imm for LLOAD/LSTORE

# -- dispatch kinds -----------------------------------------------------------
# ALU and branch rows occupy the ALU issue slot; every kind from K_MEM up
# occupies the MEM slot.  The four local-store ops have kinds of their
# own so the SPU can issue them from the row; K_MEM is every other
# MEM-slot op.

K_ALU = 0
K_BRANCH = 1
K_MEM = 2
K_LOAD = 3
K_STOREF = 4
K_LLOAD = 5
K_LSTORE = 6

_LS_KIND = {
    Op.LOAD: K_LOAD,
    Op.STOREF: K_STOREF,
    Op.LLOAD: K_LLOAD,
    Op.LSTORE: K_LSTORE,
}

# -- fast-forward eligibility -------------------------------------------------
# A fast-forward window issues one ALU-slot instruction per cycle, so an
# instruction may enter one only when the per-cycle loop could not pair
# it with the instruction after it: that successor must not be a
# MEM-slot op.  A branch's successor matters only on the fall-through.

FF_NEVER = 0     #: MEM-slot ops, and ALU ops followed by a MEM-slot op
FF_ALWAYS = 1    #: ALU ops and branches whose successor is in the ALU slot
FF_IF_TAKEN = 2  #: branches whose fall-through is a MEM-slot op


# -- value functions ----------------------------------------------------------
# One closure per opcode; semantically identical to alu_result/branch_taken
# (pinned by tests/isa/test_decoded.py) but without the if-chain.


def _div(a: int, b: int) -> int:
    if b == 0:
        raise ArithmeticFault("division by zero")
    q = abs(a) // abs(b)
    return wrap64(-q if (a < 0) != (b < 0) else q)


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise ArithmeticFault("modulo by zero")
    r = abs(a) % abs(b)
    return wrap64(-r if a < 0 else r)


_ALU_FN: dict[Op, typing.Callable[[int, int], int]] = {
    Op.ADD: lambda a, b: wrap64(a + b),
    Op.ADDI: lambda a, b: wrap64(a + b),
    Op.SUB: lambda a, b: wrap64(a - b),
    Op.SUBI: lambda a, b: wrap64(a - b),
    Op.MUL: lambda a, b: wrap64(a * b),
    Op.MULI: lambda a, b: wrap64(a * b),
    Op.DIV: _div,
    Op.MOD: _mod,
    Op.AND: lambda a, b: wrap64(to_unsigned64(a) & to_unsigned64(b)),
    Op.ANDI: lambda a, b: wrap64(to_unsigned64(a) & to_unsigned64(b)),
    Op.OR: lambda a, b: wrap64(to_unsigned64(a) | to_unsigned64(b)),
    Op.ORI: lambda a, b: wrap64(to_unsigned64(a) | to_unsigned64(b)),
    Op.XOR: lambda a, b: wrap64(to_unsigned64(a) ^ to_unsigned64(b)),
    Op.XORI: lambda a, b: wrap64(to_unsigned64(a) ^ to_unsigned64(b)),
    Op.SHL: lambda a, b: wrap64(to_unsigned64(a) << (b & 63)),
    Op.SHLI: lambda a, b: wrap64(to_unsigned64(a) << (b & 63)),
    Op.SHR: lambda a, b: wrap64(to_unsigned64(a) >> (b & 63)),
    Op.SHRI: lambda a, b: wrap64(to_unsigned64(a) >> (b & 63)),
    Op.SLT: lambda a, b: 1 if a < b else 0,
    Op.SLTI: lambda a, b: 1 if a < b else 0,
    Op.SEQ: lambda a, b: 1 if a == b else 0,
    Op.SEQI: lambda a, b: 1 if a == b else 0,
    Op.MIN: lambda a, b: min(a, b),
    Op.MAX: lambda a, b: max(a, b),
    Op.MOV: lambda a, b: wrap64(a),
    Op.LI: lambda a, b: wrap64(b),
}

_BRANCH_FN: dict[Op, typing.Callable[[int, int], bool]] = {
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLT: lambda a, b: a < b,
    Op.BGE: lambda a, b: a >= b,
    Op.BEQZ: lambda a, b: a == 0,
    Op.BNEZ: lambda a, b: a != 0,
    Op.JMP: lambda a, b: True,
}


class DecodedProgram:
    """The decoded execution table of one :class:`ThreadProgram`."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple, ...]) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)


def _operand(operand: "Reg | Imm | None") -> tuple[int | None, int]:
    """Resolve a source operand to ``(reg_index_or_None, imm_value)``."""
    if isinstance(operand, Reg):
        return operand.index, 0
    if isinstance(operand, Imm):
        return None, operand.value
    return None, 0


def decode_program(program: "ThreadProgram") -> DecodedProgram:
    """Build the :class:`DecodedProgram` for ``program``."""
    flat = program.flat
    n = len(flat)
    partial: list[list] = []
    for instr in flat:
        op = instr.op
        spec = spec_of(op)
        imm = instr.imm if instr.imm is not None else 0
        a_reg, a_val = _operand(instr.ra)
        if spec.is_branch:
            kind = K_BRANCH
            b_reg, b_val = _operand(instr.rb)
            fn: typing.Callable | None = _BRANCH_FN[op]
        elif op in _ALU_FN or op is Op.NOP:
            kind = K_ALU
            if instr.rb is not None:
                b_reg, b_val = _operand(instr.rb)
            else:
                # rb falls back to imm (or 0), as in the interpreter.
                b_reg, b_val = None, imm
            fn = _ALU_FN.get(op)  # None for NOP
        else:
            kind = _LS_KIND.get(op, K_MEM)
            b_reg, b_val = _operand(instr.rb)
            fn = None
        haz: list[int] = []
        if a_reg is not None:
            haz.append(a_reg)
        if b_reg is not None:
            haz.append(b_reg)
        if instr.rd is not None:
            haz.append(instr.rd)  # WAW
        partial.append([
            kind,
            a_reg, a_val,
            b_reg, b_val,
            instr.rd,
            instr.target,
            spec.result_latency or 1,
            tuple(haz),
            fn,
            op.value,
            FF_NEVER,  # D_FF, filled below
            4 * imm if kind in (K_LOAD, K_STOREF) else imm,
        ])

    # Fast-forward eligibility.  A window (SPU._fast_forward) issues one
    # instruction per cycle, which is what the per-cycle loop in
    # SPU._issue does for an ALU-slot instruction whose successor also
    # occupies the ALU slot (alu_used ends the cycle).  A MEM-slot
    # successor would dual-issue in the same cycle, so:
    #   * an ALU op is eligible only when its successor is not MEM-slot;
    #   * a branch is eligible when taken (the cycle ends at the jump)
    #     and, when not taken, only under the same successor rule.
    # A last row without a successor counts as followed by a MEM-slot
    # op, so a window never runs off the end of the program.
    for i, row in enumerate(partial):
        if row[D_KIND] > K_BRANCH:
            continue
        mem_next = i + 1 == n or partial[i + 1][D_KIND] >= K_MEM
        if row[D_KIND] == K_ALU:
            row[D_FF] = FF_NEVER if mem_next else FF_ALWAYS
        else:
            row[D_FF] = FF_IF_TAKEN if mem_next else FF_ALWAYS

    return DecodedProgram(tuple(tuple(row) for row in partial))
