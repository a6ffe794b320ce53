"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from layers import CALL, Span, Tracer, layer_metrics  # noqa: E402


# -- medians and self time ----------------------------------------------

def test_median_with_count_odd_and_even():
    assert summary.median_with_count([3.0, 1.0, 2.0]) == (2.0, 3)
    assert summary.median_with_count([4.0, 1.0, 3.0, 2.0]) == (2.5, 4)


def test_median_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        summary.median_with_count([])


def test_union_length_counts_overlaps_once():
    assert summary.union_length([]) == 0.0
    assert summary.union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert summary.union_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == 3.0
    assert summary.union_length([(1.0, 3.0), (0.0, 1.0)]) == 3.0


def test_self_time_subtracts_children_clipped_to_parent():
    assert summary.self_time(0.0, 10.0, []) == 10.0
    assert summary.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # a child running past the parent's end is clipped, overlaps count once
    assert summary.self_time(0.0, 10.0, [(8.0, 12.0), (1.0, 4.0), (2.0, 3.0)]) == 5.0


# -- calibrated time ------------------------------------------------------

def test_calibrated_scales_each_call_by_the_kernel_times_around_it():
    # kernel at its reference time, then twice as slow, then back
    times = summary.calibrated([1.0, 4.0, 3.0], [0.5, 0.5, 1.0, 0.5], 0.5)
    assert times == [1.0, 4.0 * 0.5 / 0.75, 3.0 * 0.5 / 0.75]


def test_calibrated_keeps_failed_calls_nan_and_needs_one_more_kernel_time():
    (t,) = summary.calibrated([float("nan")], [1.0, 1.0], 1.0)
    assert t != t
    with pytest.raises(ValueError):
        summary.calibrated([1.0, 2.0], [1.0, 1.0], 1.0)


# -- metric directions ----------------------------------------------------

def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_end_to_end_table():
    listed = [(m["name"], m["unit"], m["better"]) for m in _benchmark_json()["end_to_end"]]
    assert listed == list(summary.END_TO_END)


def test_benchmark_json_lists_the_per_layer_table():
    listed = [(m["name"], m["unit"], m["better"]) for m in _benchmark_json()["per_layer"]]
    assert listed == list(layers.PER_LAYER)


def test_benchmark_json_names_every_workload():
    names = [w["name"] for w in _benchmark_json()["workloads"]]
    assert names == list(workloads.WORKLOADS)


# -- failure counting -----------------------------------------------------

def test_success_rate_counts_failed_objects():
    assert summary.success_rate(8, 0) == 1.0
    assert summary.success_rate(8, 2) == 0.75
    assert summary.success_rate(1, 1) == 0.0
    with pytest.raises(ValueError):
        summary.success_rate(0, 0)
    with pytest.raises(ValueError):
        summary.success_rate(2, 3)


def _write_saliency(path, scores):
    lines = ["index,x,y,z,score"]
    lines += [f"{i},0,0,0,{s}" for i, s in enumerate(scores)]
    path.write_text("\n".join(lines) + "\n")


def test_saliency_check_accepts_one_score_in_range_per_point(tmp_path):
    _write_saliency(tmp_path / "saliency.csv", [0.0, 0.5, 1.0])
    problems, _ = workloads.check_output("clutter", {"points": 3}, tmp_path)
    assert problems == []


@pytest.mark.parametrize("scores, points", [
    ([0.0, 0.5, 1.5], 3),
    ([0.0, float("nan"), 1.0], 3),
    ([0.0, 0.5], 3),
])
def test_saliency_check_flags_bad_output(tmp_path, scores, points):
    _write_saliency(tmp_path / "saliency.csv", scores)
    problems, _ = workloads.check_output("clutter", {"points": points}, tmp_path)
    assert problems


def _write_eval(path, **overrides):
    values = {"deletion": 0.2, "enpg": 0.9, "insertion": 0.8, "pg": 1.0, "vea": 0.9}
    values.update(overrides)
    rows = [{"scene_id": "s", "detection_id": 0, "metric": k, "value": v}
            for k, v in sorted(values.items())]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def test_eval_check_returns_the_metric_rows(tmp_path):
    _write_eval(tmp_path / "metrics.jsonl")
    problems, values = workloads.check_output("eval", {}, tmp_path)
    assert problems == []
    assert values["deletion"] == 0.2 and values["pg"] == 1.0


@pytest.mark.parametrize("overrides", [{"pg": 0.5}, {"vea": 1.2}, {"deletion": float("inf")}])
def test_eval_check_flags_bad_values(tmp_path, overrides):
    _write_eval(tmp_path / "metrics.jsonl", **overrides)
    problems, _ = workloads.check_output("eval", {}, tmp_path)
    assert problems


def test_aggregate_check_wants_nine_nonempty_grids(tmp_path):
    grids = [{"file": f"g{i}.grid", "points_binned": 10} for i in range(9)]
    for g in grids:
        (tmp_path / g["file"]).write_bytes(b"x")
    (tmp_path / "manifest.json").write_text(json.dumps({"grids": grids}))
    assert workloads.check_output("aggregate", {}, tmp_path)[0] == []
    grids[3]["points_binned"] = 0
    (tmp_path / "manifest.json").write_text(json.dumps({"grids": grids[:8]}))
    assert len(workloads.check_output("aggregate", {}, tmp_path)[0]) == 2


def test_digest_sees_any_byte_change(tmp_path):
    (tmp_path / "a.csv").write_text("1\n")
    first = workloads.digest(tmp_path)
    assert workloads.digest(tmp_path) == first
    (tmp_path / "a.csv").write_text("2\n")
    assert workloads.digest(tmp_path) != first


# -- spans and per-layer metrics ------------------------------------------

def _span(name, start, end, parent=None, **attrs):
    return Span(name, start, end, parent, 0, attrs)


def test_layer_metrics_on_nested_spans():
    spans = [
        _span(CALL, 0.0, 10.0),                          # 0
        _span("fileio.read", 0.0, 0.5, 0, bytes=100),    # 1
        _span("pipeline.explain", 1.0, 7.0, 0),          # 2
        _span("detector.features", 1.0, 2.0, 2),         # 3
        _span("nmf.factorize", 2.0, 5.0, 2, rows=10, rank=4, sweeps=200,
              exhausted=True, rel_objective=1e-3),       # 4
        _span("detector.gradient", 5.0, 6.0, 2),         # 5
        _span("voxelgrid.upsample", 6.0, 6.5, 2, points=1000),  # 6
        _span("metrics.curve", 7.0, 9.0, 0, steps=2),    # 7
        _span("detector.detect", 7.0, 7.5, 7),           # 8
        _span("detector.detect", 8.0, 8.5, 7),           # 9
    ]
    m = layer_metrics(spans, untraced_walls=[8.0])
    assert list(m) == [name for name, _, _ in layers.PER_LAYER]
    assert m["detector.forwards_per_object"] == 4
    assert m["detector.detect_ms_p50"] == pytest.approx(500.0)
    assert m["detector.share"] == pytest.approx(3.0 / 10.0)
    assert m["nmf.ms_per_sweep"] == pytest.approx(3000.0 / 200)
    assert m["nmf.budget_exhausted_frac"] == 1.0
    assert m["voxelgrid.points_per_s"] == pytest.approx(2000.0)
    assert m["pipeline.self_s"] == pytest.approx(6.0 - 5.5)
    assert m["metrics.curve_self_s"] == pytest.approx(1.0)
    assert m["metrics.detects_per_curve"] == 2
    assert m["metrics.curve_step_ms"] == pytest.approx(1000.0)
    assert m["fileio.bytes_read"] == 100
    # covered: 0-0.5, 1-7, 7-9 -> 8.5 of 10
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["trace.coverage"] == pytest.approx(0.85)
    assert m["trace.overhead_frac"] == pytest.approx(10.0 / 8.0 - 1.0)
    assert m["aggregate.write_s"] == 0.0 and m["boxes.iou_calls_per_object"] == 0


def test_per_object_metrics_divide_by_traced_calls():
    spans = [
        _span(CALL, 0.0, 1.0), _span("detector.detect", 0.0, 0.5, 0),
        _span(CALL, 1.0, 2.0), _span("detector.detect", 1.0, 1.5, 2),
        _span("detector.detect", 1.5, 2.0, 2),
    ]
    m = layer_metrics(spans, untraced_walls=[1.0, 1.0])
    assert m["detector.forwards_per_object"] == 1.5
    assert m["detector.detect_s"] == pytest.approx(0.75)


def test_tracer_nests_spans_and_records_the_object():
    tracer = Tracer()
    tracer.obj = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    with tracer.span("next"):
        pass
    outer, inner, nxt = tracer.spans
    assert (outer.parent, inner.parent, nxt.parent) == (None, 0, None)
    assert inner.obj == 7
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_instrument_wraps_then_restores_every_call_site():
    from pcsaliency import cli, detector

    before = detector.ReferenceDetector.__dict__["detect"], cli.explain_detection
    tracer = Tracer()
    with layers.instrument(tracer):
        assert detector.ReferenceDetector.__dict__["detect"] is not before[0]
        assert cli.explain_detection is not before[1]
    assert (detector.ReferenceDetector.__dict__["detect"], cli.explain_detection) == before


def test_missing_layers_names_required_spans_without_calls():
    spans = [_span(name, 0.0, 1.0) for name in layers.REQUIRED["eval"] if name != "metrics.curve"]
    assert layers.missing_layers("eval", spans) == ["metrics.curve"]
