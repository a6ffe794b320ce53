"""Workload inputs, CLI arguments and output checks.

Every workload feeds one seeded `single_object_scene` with exactly one
detection to one CLI call, so one call is one object. Scenes are written to
disk during set-up; the program sees only the `.bin` and `.labels.json`
files. Ground truths are the detector's own boxes, so the one detection is
always well detected and `eval`/`aggregate` explain it.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("eval", "aggregate", "clutter")

# Distinct scenes per run. The timed loop cycles through them, so later
# calls repeat earlier inputs and their outputs are checked byte for byte.
POOL = {"eval": 4, "aggregate": 2, "clutter": 4}

# Clutter points around the object: `single_object_scene`'s default for
# `eval` and `aggregate`, four times more for `clutter`.
NOISE_POINTS = {"eval": 14000, "aggregate": 14000, "clutter": 60000}

AGGREGATE_MASKS = 9
EVAL_METRICS = ("deletion", "enpg", "insertion", "pg", "vea")
_MAX_CANDIDATES = 50


def setup(workload: str, seed_offset: int, dest: Path) -> list[dict]:
    """Generate and write the run's scenes; returns one record per scene.

    Candidate scene seeds count up from ``seed_offset``. A candidate is kept
    only when the reference detector finds exactly one object in it.
    """
    from pcsaliency.fileio import write_kitti_bin, write_labels_json
    from pcsaliency.runconfig import RunConfig
    from pcsaliency.synthetic import single_object_scene

    detector = RunConfig.from_sources().build_detector()
    noise = NOISE_POINTS[workload]
    scenes = []
    for scene_seed in range(seed_offset, seed_offset + _MAX_CANDIDATES):
        cloud, _, _ = single_object_scene(scene_seed, n_noise_points=noise)
        detections = detector.detect(cloud)
        if len(detections) != 1:
            continue
        scene_id = f"scene{scene_seed}"
        scene_dir = dest / scene_id
        scene_dir.mkdir(parents=True)
        write_kitti_bin(scene_dir / f"{scene_id}.bin", cloud)
        write_labels_json(
            scene_dir / f"{scene_id}.labels.json",
            [(detections[0].box(), detections[0].label)],
        )
        scenes.append({"id": scene_id, "seed": scene_seed, "points": len(cloud)})
        if len(scenes) == POOL[workload]:
            return scenes
    raise RuntimeError(
        f"only {len(scenes)} of {_MAX_CANDIDATES} candidate scenes had one detection"
    )


def visiting_order(scenes: list[dict], seed: int) -> list[dict]:
    """The run's scenes rotated by ``seed``: the seed picks the first scene."""
    k = seed % len(scenes)
    return scenes[k:] + scenes[:k]


def cli_argv(workload: str, scene_dir: Path, scene_id: str, out_dir: Path) -> list[str]:
    """Arguments of the one CLI call that processes one scene."""
    if workload == "clutter":
        return ["explain", "--scene", str(scene_dir / f"{scene_id}.bin"),
                "--detection", "0", "--out", str(out_dir / "saliency.csv")]
    if workload == "eval":
        return ["eval", "--scenes", str(scene_dir), "--out", str(out_dir / "metrics.jsonl")]
    if workload == "aggregate":
        return ["aggregate", "--scenes", str(scene_dir), "--out-dir", str(out_dir)]
    raise ValueError(f"unknown workload {workload!r}")


def digest(out_dir: Path) -> str:
    """Hash of every output file's name and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_output(workload: str, scene: dict, out_dir: Path):
    """Problems found in one call's output, and the eval rows by metric."""
    if workload == "clutter":
        return _check_saliency(out_dir / "saliency.csv", scene["points"]), None
    if workload == "eval":
        return _check_eval(out_dir / "metrics.jsonl")
    return _check_aggregate(out_dir / "manifest.json"), None


def _check_saliency(path: Path, points: int) -> list[str]:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "index,x,y,z,score":
            return [f"{path.name}: header {header!r}"]
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if table.shape != (points, 5):
        return [f"{path.name}: {table.shape[0]} rows for {points} points"]
    problems = []
    if not np.array_equal(table[:, 0], np.arange(points)):
        problems.append(f"{path.name}: index column is not 0..{points - 1}")
    scores = table[:, 4]
    if not np.all(np.isfinite(scores)):
        problems.append(f"{path.name}: non-finite saliency")
    elif scores.min() < 0.0 or scores.max() > 1.0:
        problems.append(f"{path.name}: saliency outside [0, 1]")
    return problems


def _check_eval(path: Path):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    if sorted(r["metric"] for r in rows) != list(EVAL_METRICS):
        return [f"{path.name}: metrics {[r['metric'] for r in rows]}, want one object"], None
    values = {r["metric"]: r["value"] for r in rows}
    problems = [
        f"{path.name}: {name}={value!r} outside [0, 1]"
        for name, value in values.items()
        if not (isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0)
    ]
    if values["pg"] not in (0.0, 1.0):
        problems.append(f"{path.name}: pg={values['pg']!r} is not 0 or 1")
    return problems, values


def _check_aggregate(path: Path) -> list[str]:
    grids = json.loads(path.read_text())["grids"]
    problems = []
    if len(grids) != AGGREGATE_MASKS:
        problems.append(f"{path.name}: {len(grids)} grids, want {AGGREGATE_MASKS}")
    for grid in grids:
        if grid["points_binned"] <= 0:
            problems.append(f"{path.name}: grid {grid['file']} binned no points")
        if not (path.parent / grid["file"]).is_file():
            problems.append(f"{path.name}: grid {grid['file']} missing")
    return problems
