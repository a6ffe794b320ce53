"""Layer spans recorded from outside the program, and the per-layer metrics.

`instrument(tracer)` wraps the public call sites of each pcsaliency module
for the duration of one CLI call and restores them afterwards, so untraced
calls run the program exactly as shipped. Spans are held in memory and
written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from summary import median_with_count, self_time

CALL = "cli.call"

# Layer spans a workload must record at least once. A refactor that moves a
# call site away from the wrapped name then fails the traced run instead of
# silently reporting a zero.
_EXPLAIN = ("detector.detect", "detector.features", "detector.gradient",
            "nmf.factorize", "voxelgrid.upsample", "pipeline.explain", "fileio.read")
REQUIRED = {
    "eval": _EXPLAIN + ("metrics.curve", "metrics.localization", "boxes.iou"),
    "aggregate": _EXPLAIN + ("boxes.iou", "aggregate.accumulate", "aggregate.write"),
    "clutter": _EXPLAIN + ("fileio.write",),
}
MIN_COVERAGE = 0.95

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("detector.forwards_per_object", "count", "lower"),
    ("detector.detect_ms_p50", "ms", "lower"),
    ("detector.detect_s", "s", "lower"),
    ("detector.features_s", "s", "lower"),
    ("detector.gradient_s", "s", "lower"),
    ("detector.share", "fraction", "lower"),
    ("nmf.calls_per_object", "count", "lower"),
    ("nmf.s", "s", "lower"),
    ("nmf.share", "fraction", "lower"),
    ("nmf.sweeps_per_call", "count", "lower"),
    ("nmf.ms_per_sweep", "ms", "lower"),
    ("nmf.rank_eff", "count", "lower"),
    ("nmf.rows", "count", "lower"),
    ("nmf.rel_objective", "fraction", "lower"),
    ("nmf.budget_exhausted_frac", "fraction", "lower"),
    ("voxelgrid.upsample_s", "s", "lower"),
    ("voxelgrid.upsample_ms_p50", "ms", "lower"),
    ("voxelgrid.points_per_s", "1/s", "higher"),
    ("voxelgrid.share", "fraction", "lower"),
    ("pipeline.explain_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("metrics.curve_s", "s", "lower"),
    ("metrics.curve_step_ms", "ms", "lower"),
    ("metrics.curve_self_s", "s", "lower"),
    ("metrics.detects_per_curve", "count", "lower"),
    ("metrics.localization_ms", "ms", "lower"),
    ("boxes.iou_calls_per_object", "count", "lower"),
    ("boxes.iou_s", "s", "lower"),
    ("aggregate.accumulate_s", "s", "lower"),
    ("aggregate.write_s", "s", "lower"),
    ("aggregate.bytes_written", "bytes", "lower"),
    ("fileio.read_s", "s", "lower"),
    ("fileio.bytes_read", "bytes", "lower"),
    ("fileio.write_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    obj: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.obj: int | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(name, time.perf_counter(), float("nan"),
                    self._open[-1] if self._open else None, self.obj)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(span, args, result)``
        adds attributes once the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if after is not None:
                after(span, args, result)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _file_bytes(span, args, result):
    span.attrs["bytes"] = os.path.getsize(args[0])


def _nmf_attrs(span, args, result):
    a = np.asarray(args[0], dtype=float)
    norm_sq = float(np.sum(a * a))
    span.attrs.update(
        rows=a.shape[0],
        rank=result.r,
        sweeps=result.iterations_run,
        exhausted=result.iterations_run >= args[1].max_iterations,
        rel_objective=result.final_objective / norm_sq if norm_sq > 0 else 0.0,
    )


def _curve_steps(span, args, result):
    span.attrs["steps"] = len(result.values)


def _points(span, args, result):
    span.attrs["points"] = len(args[1])


def _call_sites():
    """(owner, attribute, span name, after-hook) for every wrapped call site."""
    from pcsaliency import aggregate, cli, detector, metrics, nmf, pipeline

    ref = detector.ReferenceDetector
    return [
        (ref, "detect", "detector.detect", None),
        (ref, "features", "detector.features", None),
        (ref, "gradient", "detector.gradient", None),
        (nmf, "factorize", "nmf.factorize", _nmf_attrs),
        (pipeline, "upsample_to_points", "voxelgrid.upsample", _points),
        (cli, "explain_detection", "pipeline.explain", None),
        (cli, "deletion_curve", "metrics.curve", _curve_steps),
        (cli, "insertion_curve", "metrics.curve", _curve_steps),
        (cli, "vea", "metrics.localization", None),
        (cli, "pointing_game", "metrics.localization", None),
        (cli, "energy_pg", "metrics.localization", None),
        (metrics, "iou_3d", "boxes.iou", None),
        (aggregate.CanonicalGrid, "accumulate", "aggregate.accumulate", None),
        (cli, "write_grid", "aggregate.write", _file_bytes),
        (cli, "grid_to_csv", "aggregate.write", _file_bytes),
        (cli, "read_kitti_bin", "fileio.read", _file_bytes),
        (cli, "read_labels_json", "fileio.read", _file_bytes),
        (cli, "write_saliency", "fileio.write", None),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every call site for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, after in _call_sites():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(spans: list[Span], untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics from the spans of traced calls.

    Each traced call is one object and has one ``cli.call`` span; every
    other span nests under it. ``*_s`` and count metrics are per object,
    ``*.share`` and ``trace.coverage`` are ratios of summed time, and
    ``trace.overhead_frac`` compares the mean traced call with the mean
    untraced call of the same objects.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    calls = [i for i, s in enumerate(spans) if s.name == CALL]
    if not calls:
        raise ValueError("no traced call")
    n = len(calls)
    wall = sum(spans[i].duration for i in calls)

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(name):
        return sum(spans[i].duration for i in named(name))

    def self_of(i):
        kids = [(c.start, c.end) for c in children.get(i, [])]
        return self_time(spans[i].start, spans[i].end, kids)

    def attr_sum(indices, key):
        return sum(spans[i].attrs[key] for i in indices)

    def p50_ms(name):
        durations = [spans[i].duration for i in named(name)]
        return 1e3 * median_with_count(durations)[0] if durations else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    forwards = named("detector.detect") + named("detector.features") + named("detector.gradient")
    nmf_calls = named("nmf.factorize")
    nmf_s = total("nmf.factorize")
    sweeps = attr_sum(nmf_calls, "sweeps")
    upsample_s = total("voxelgrid.upsample")
    curves = named("metrics.curve")
    curve_set = set(curves)
    cli_self = sum(self_of(i) for i in calls)
    untraced_mean = sum(untraced_walls) / len(untraced_walls)

    return {
        "detector.forwards_per_object": len(forwards) / n,
        "detector.detect_ms_p50": p50_ms("detector.detect"),
        "detector.detect_s": total("detector.detect") / n,
        "detector.features_s": total("detector.features") / n,
        "detector.gradient_s": total("detector.gradient") / n,
        "detector.share": sum(spans[i].duration for i in forwards) / wall,
        "nmf.calls_per_object": len(nmf_calls) / n,
        "nmf.s": nmf_s / n,
        "nmf.share": nmf_s / wall,
        "nmf.sweeps_per_call": ratio(sweeps, len(nmf_calls)),
        "nmf.ms_per_sweep": 1e3 * ratio(nmf_s, sweeps),
        "nmf.rank_eff": ratio(attr_sum(nmf_calls, "rank"), len(nmf_calls)),
        "nmf.rows": ratio(attr_sum(nmf_calls, "rows"), len(nmf_calls)),
        "nmf.rel_objective": ratio(attr_sum(nmf_calls, "rel_objective"), len(nmf_calls)),
        "nmf.budget_exhausted_frac": ratio(attr_sum(nmf_calls, "exhausted"), len(nmf_calls)),
        "voxelgrid.upsample_s": upsample_s / n,
        "voxelgrid.upsample_ms_p50": p50_ms("voxelgrid.upsample"),
        "voxelgrid.points_per_s": ratio(attr_sum(named("voxelgrid.upsample"), "points"), upsample_s),
        "voxelgrid.share": upsample_s / wall,
        "pipeline.explain_s": total("pipeline.explain") / n,
        "pipeline.self_s": sum(self_of(i) for i in named("pipeline.explain")) / n,
        "metrics.curve_s": total("metrics.curve") / n,
        "metrics.curve_step_ms": 1e3 * ratio(total("metrics.curve"), attr_sum(curves, "steps")),
        "metrics.curve_self_s": sum(self_of(i) for i in curves) / n,
        "metrics.detects_per_curve": ratio(
            sum(1 for i in named("detector.detect") if spans[i].parent in curve_set),
            len(curves)),
        "metrics.localization_ms": 1e3 * total("metrics.localization") / n,
        "boxes.iou_calls_per_object": len(named("boxes.iou")) / n,
        "boxes.iou_s": total("boxes.iou") / n,
        "aggregate.accumulate_s": total("aggregate.accumulate") / n,
        "aggregate.write_s": total("aggregate.write") / n,
        "aggregate.bytes_written": attr_sum(named("aggregate.write"), "bytes") / n,
        "fileio.read_s": total("fileio.read") / n,
        "fileio.bytes_read": attr_sum(named("fileio.read"), "bytes") / n,
        "fileio.write_s": total("fileio.write") / n,
        "cli.self_s": cli_self / n,
        "trace.coverage": 1.0 - cli_self / wall,
        "trace.overhead_frac": (wall / n) / untraced_mean - 1.0,
    }


def missing_layers(workload: str, spans: list[Span]) -> list[str]:
    """Required layer spans of ``workload`` that recorded no call."""
    seen = {s.name for s in spans}
    return [name for name in REQUIRED[workload] if name not in seen]
