"""Experiment runners shared by the table/figure benchmarks."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

from repro.core.downloader import DownloadReport
from repro.core.uploader import UploadReport


@dataclass
class DurationSummary:
    """Aggregate statistics over completion times."""

    count: int
    total: float
    mean: float
    median: float
    p90: float
    minimum: float
    maximum: float

    @classmethod
    def of(cls, durations: Sequence[float]) -> "DurationSummary":
        if not durations:
            raise ValueError("no durations to summarise")
        ordered = sorted(durations)
        p90_index = min(len(ordered) - 1, int(0.9 * len(ordered)))
        return cls(
            count=len(ordered),
            total=sum(ordered),
            mean=statistics.fmean(ordered),
            median=statistics.median(ordered),
            p90=ordered[p90_index],
            minimum=ordered[0],
            maximum=ordered[-1],
        )


def summarize_durations(
    reports: Sequence[UploadReport | DownloadReport],
) -> DurationSummary:
    """Completion-time summary over a batch of reports."""
    return DurationSummary.of([r.duration for r in reports])


def throughputs(
    reports: Sequence[UploadReport | DownloadReport],
    sizes: Sequence[int],
) -> list[float]:
    """Per-file achieved throughput (original file bytes / duration)."""
    out = []
    for report, size in zip(reports, sizes):
        if report.duration > 0:
            out.append(size / report.duration)
    return out
