"""``BENCHMARK.json`` is the schema: workloads, metric names, units,
directions and bounds live there and nowhere else."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


class Spec:
    def __init__(self, doc: dict):
        self.run_seconds = doc["run_seconds"]
        self.workloads = {w["name"]: w["why"] for w in doc["workloads"]}
        self.end_to_end = {m["name"]: m for m in doc["end_to_end"]}
        self.per_layer = {m["name"]: m for m in doc["per_layer"]}

    @classmethod
    def load(cls) -> "Spec":
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            return cls(json.load(handle))

    def metrics(self, trace: bool) -> dict[str, dict]:
        return self.per_layer if trace else self.end_to_end

    def worse_by(self, name: str, base: float, new: float) -> float:
        """How much worse ``new`` is than ``base``, as a share of ``base``
        (negative = better), by the metric's stated direction."""
        change = (new - base) / base
        return change if self.end_to_end[name]["better"] == "lower" else -change
