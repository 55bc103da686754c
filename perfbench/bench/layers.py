"""The benchmark's metric names and units, and the result record.

The names and units come from ``BENCHMARK.json`` at the checkout root.
A traced run prints every per-layer metric on every workload.  A layer a
workload never calls reports 0, which is what the table in
``perfbench/RATIONALE.md`` predicts for it there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from bench.env import ROOT

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: ``{name: unit}`` of every end-to-end metric, in file order.
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
#: ``{name: unit}`` of every per-layer metric, in file order.
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Input properties behaviour depends on, measured on the inputs.
    traffic: dict = field(default_factory=dict)
    #: Reported but not gated: error rate, tails, trace predictions.
    notes: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Record one failed operation."""
        self.failures.append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


def blank_layers() -> dict[str, float]:
    return dict.fromkeys(PER_LAYER, 0.0)
