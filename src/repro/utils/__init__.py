"""Shared utilities: seeded randomness, alias sampling, timing, tables."""

from repro.utils.alias import AliasTable
from repro.utils.rng import new_rng
from repro.utils.tables import format_table
from repro.utils.timer import Timer

__all__ = ["AliasTable", "new_rng", "format_table", "Timer"]
