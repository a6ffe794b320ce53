"""The benchmark's own arithmetic: medians, span self time, the metric table.

Pure Python, no numpy, so the tests of this module run anywhere.
"""

from __future__ import annotations

import statistics

# (name, unit, better) of every end-to-end metric, in report order.
# BENCHMARK.json repeats this table; a test keeps the two in step.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("objects_per_s", "1/s", "higher"),
    ("object_s_p50", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "fraction", "higher"),
    ("deletion_auc", "auc", "lower"),
    ("insertion_auc", "auc", "higher"),
    ("vea", "iou", "higher"),
    ("pg", "fraction", "higher"),
    ("enpg", "fraction", "higher"),
)

# Quality guard -> the `eval` metric row it averages over the run's scenes.
QUALITY = {"deletion_auc": "deletion", "insertion_auc": "insertion",
           "vea": "vea", "pg": "pg", "enpg": "enpg"}

# Quality guards need the faithfulness curves, which only `eval` runs. Every
# result must carry every end-to-end metric, so the other workloads report
# this constant marker for them: it never moves, so it can neither pass nor
# fail a comparison. README.md says so with the metric table.
QUALITY_NOT_MEASURED = 1.0


def median_with_count(values) -> tuple[float, int]:
    """Median of ``values`` and how many samples it rests on."""
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values)), len(values)


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps counted once."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    clipped = [
        (max(s, start), min(e, end)) for s, e in child_intervals if e > start and s < end
    ]
    return (end - start) - union_length(clipped)


def calibrated(walls, refs, reference_s: float) -> list[float]:
    """Wall times scaled to a machine on which the reference kernel takes
    ``reference_s``: ``refs[i]`` and ``refs[i + 1]`` are the kernel's times
    just before and just after ``walls[i]``. NaN walls (failed calls) stay NaN.
    """
    if len(refs) != len(walls) + 1:
        raise ValueError(f"{len(walls)} walls need {len(walls) + 1} reference times")
    return [w * reference_s / ((refs[i] + refs[i + 1]) / 2.0) for i, w in enumerate(walls)]


def success_rate(attempted: int, failed: int) -> float:
    """Share of attempted objects that passed every check."""
    if attempted < 1:
        raise ValueError("no object was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return (attempted - failed) / attempted
