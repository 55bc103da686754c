"""Small shared utilities: seeded RNG plumbing and table rendering."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.tables import format_table

__all__ = ["ensure_rng", "spawn_rngs", "format_table"]
