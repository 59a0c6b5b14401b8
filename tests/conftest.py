"""Shared test fixtures and helpers."""

from __future__ import annotations

import pytest

from repro.isa import decoded
from repro.sim.config import MachineConfig
from repro.testing import small_config


@pytest.fixture
def cfg1() -> MachineConfig:
    """A 1-SPE machine configuration."""
    return small_config(num_spes=1)


@pytest.fixture
def cfg2() -> MachineConfig:
    """A 2-SPE machine configuration."""
    return small_config(num_spes=2)


@pytest.fixture
def cfg4() -> MachineConfig:
    """A 4-SPE machine configuration."""
    return small_config(num_spes=4)


#: The real decoder, captured before any test patches the module.
_decode_program = decoded.decode_program


def _decode_without_fast_forward(program):
    """:func:`decode_program` with every fast-forward run length zeroed:
    the SPU then takes one engine tick per issue cycle."""
    table = _decode_program(program)
    return decoded.DecodedProgram(tuple(
        row[:decoded.D_FF] + (0,) + row[decoded.D_FF + 1:]
        for row in table.rows
    ))


@pytest.fixture
def fast_forward(monkeypatch):
    """``fast_forward(on)`` switches SPU fast-forward for every program
    decoded after the call (a program decodes on first dispatch, so
    build the workload afterwards).  The off side is the per-cycle
    reference the fast-forward windows must match bit for bit."""

    def switch(on: bool) -> None:
        monkeypatch.setattr(
            decoded, "decode_program",
            _decode_program if on else _decode_without_fast_forward,
        )

    return switch
