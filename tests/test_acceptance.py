"""Acceptance suite: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion as it completes.
"""

import json
import math
import time

import numpy as np
import pytest

from pcsaliency.aggregate import CanonicalGrid, read_grid, write_grid
from pcsaliency.boxes import OrientedBox, iou_3d, points_in_box
from pcsaliency.cli import _mc_iou, main
from pcsaliency.detector import ReferenceDetector, grad_check
from pcsaliency.dumps import dump_from_detector, read_dump, save_dump
from pcsaliency.fileio import (
    read_detections_json,
    read_kitti_bin,
    write_detections_json,
    write_kitti_bin,
)
from pcsaliency.metrics import (
    Curve,
    auc,
    deletion_curve,
    energy_pg,
    insertion_curve,
    pointing_game,
    vea,
)
from pcsaliency.nmf import NmfConfig, factorize
from pcsaliency.pipeline import PipelineConfig, explain_detection, full_mask, make_mask
from pcsaliency.synthetic import low_rank_matrix, single_object_scene
from pcsaliency.voxelgrid import (
    GridSpec,
    SparseVoxelMap,
    UpsampleConfig,
    upsample_to_points,
)

from conftest import neighbor_query, write_scene_dir

# canonicalizing into this box changes no coordinate, so points bin as given
_UNIT_BOX = OrientedBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)


def _report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}  ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_nmf_exactness():
    start = time.time()
    worst = 0.0
    for seed in range(50):
        a, rank = low_rank_matrix(seed)
        fact = factorize(
            a, NmfConfig(r=rank, max_iterations=500, relative_tolerance=1e-9, seed=seed)
        )
        rel = fact.final_objective / float(np.sum(a * a))
        worst = max(worst, rel)
        history = fact.objective_history
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-9 * np.maximum(history[:-1], 1.0)), (
            f"objective increased on seed {seed}"
        )
    elapsed = time.time() - start
    _report(
        "criterion-1 nmf-exactness",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst rel objective {worst:.2e}, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_gradient_fidelity():
    start = time.time()
    worst = max(grad_check(scene_seed=seed) for seed in range(10))
    elapsed = time.time() - start
    _report(
        "criterion-2 gradient-fidelity",
        worst <= 1e-4 and elapsed < 60.0,
        f"max rel error {worst:.2e} over 10 scenes, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_rotated_iou():
    start = time.time()
    rng = np.random.default_rng(0)
    worst_gap = 0.0
    worst_sym = 0.0
    for trial in range(1000):
        a = OrientedBox(
            tuple(rng.uniform(-2, 2, 3)),
            tuple(rng.uniform(0.5, 3.0, 3)),
            float(rng.uniform(0, 2 * math.pi)),
        )
        offset = rng.uniform(-1.5, 1.5, 3) if trial % 5 else rng.uniform(5, 8, 3)
        b = OrientedBox(
            tuple(np.array(a.center) + offset),
            tuple(rng.uniform(0.5, 3.0, 3)),
            float(rng.uniform(0, 2 * math.pi)),
        )
        ours = iou_3d(a, b)
        worst_sym = max(worst_sym, abs(ours - iou_3d(b, a)))
        worst_gap = max(worst_gap, abs(ours - _mc_iou(a, b, 200_000, trial)))
    elapsed = time.time() - start
    _report(
        "criterion-3 rotated-iou",
        worst_gap <= 0.01 and worst_sym <= 1e-12 and elapsed < 120.0,
        f"max MC gap {worst_gap:.4f}, max symmetry drift {worst_sym:.1e}, "
        f"{elapsed:.1f}s (< 2min)",
    )


def test_criterion_4_upsampling_exactness():
    rng = np.random.default_rng(1)
    grid = GridSpec(1.0, (0.0, 12.0), (0.0, 12.0), (0.0, 12.0))
    cases = 0
    for _ in range(1000):
        m = int(rng.integers(1, 30))
        coords = np.unique(rng.integers(0, 12, size=(m, 3)), axis=0)
        cfg = UpsampleConfig(
            range_threshold=int(rng.integers(0, 4)), k=int(rng.integers(1, 33))
        )
        cloud = np.hstack(
            [rng.uniform(0, 12, size=(8, 3)), rng.uniform(size=(8, 1))]
        )

        # delta activation: a single occupied voxel is its points' only
        # neighbor, and their saliency equals its value bit-exactly
        delta_value = float(rng.uniform(0.1, 2.0))
        lone_coord = coords[0]
        lone = SparseVoxelMap(lone_coord[None, :], np.array([delta_value]), grid)
        inside_pt = grid.lower + (lone_coord + rng.uniform(0.05, 0.95, 3)) * grid.voxel_size
        got = upsample_to_points(
            lone, np.array([[*inside_pt, 0.0]]), UpsampleConfig(range_threshold=0, k=1)
        )
        assert got[0] == delta_value

        # constant activation: every in-range point with neighbors scores
        # exactly the constant
        const = float(rng.uniform(0.1, 2.0))
        vmap = SparseVoxelMap(coords, np.full(len(coords), const), grid)
        scores = upsample_to_points(vmap, cloud, cfg)
        for i, p in enumerate(cloud):
            neighbors = neighbor_query(grid.coords_for(p[None, :])[0], vmap, cfg)
            if neighbors:
                assert scores[i] == const
                weights = np.exp(-0.5 * np.array([d for _, _, d in neighbors], float) ** 2)
                normalized = weights / weights.sum()
                assert abs(normalized.sum() - 1.0) <= 1e-12
                cases += 1
            else:
                assert scores[i] == 0.0
    _report(
        "criterion-4 upsampling-exactness",
        cases >= 1000,
        f"{cases} neighbor sets checked: delta exact, constant exact, weights sum to 1",
    )


@pytest.fixture(scope="module")
def localization_runs():
    """Explanations for 100 single-object scenes at pipeline defaults."""
    detector = ReferenceDetector()
    cfg = PipelineConfig()
    runs = []
    for seed in range(100):
        cloud, gt_box, _ = single_object_scene(seed)
        detections = detector.detect(cloud)
        assert len(detections) == 1, f"scene {seed}: {len(detections)} detections"
        d = detections[0]
        [[saliency]] = explain_detection(detector, cloud, [d], [full_mask()], cfg)
        runs.append((cloud, gt_box, d, saliency))
    return detector, cfg, runs


def test_criterion_5_saliency_localization(localization_runs):
    _, _, runs = localization_runs
    hits = 0
    enpg_wins = 0
    for cloud, gt_box, _, saliency in runs:
        if pointing_game(saliency, cloud, gt_box):
            hits += 1
        uniform_baseline = points_in_box(cloud, gt_box).sum() / len(cloud)
        if energy_pg(saliency, cloud, gt_box) > uniform_baseline:
            enpg_wins += 1
    _report(
        "criterion-5 saliency-localization",
        hits / len(runs) >= 0.95 and enpg_wins >= 95,
        f"PG hit rate {hits}/100, enPG beats uniform in {enpg_wins}/100",
    )


def test_criterion_6_deletion_insertion_direction(localization_runs):
    detector, _, runs = localization_runs
    start = time.time()
    rng = np.random.default_rng(2024)
    del_sal, del_rand, ins_sal, ins_rand = [], [], [], []
    for cloud, _, d, saliency in runs[:50]:
        permuted = saliency[rng.permutation(len(saliency))]
        del_sal.append(auc(deletion_curve(detector, cloud, d, saliency, 20)))
        del_rand.append(auc(deletion_curve(detector, cloud, d, permuted, 20)))
        ins_sal.append(auc(insertion_curve(detector, cloud, d, saliency, 20)))
        ins_rand.append(auc(insertion_curve(detector, cloud, d, permuted, 20)))
    elapsed = time.time() - start
    mean_del_f, mean_del_r = float(np.mean(del_sal)), float(np.mean(del_rand))
    mean_ins_f, mean_ins_r = float(np.mean(ins_sal)), float(np.mean(ins_rand))
    _report(
        "criterion-6 deletion-insertion-direction",
        mean_del_f < mean_del_r and mean_ins_f > mean_ins_r and elapsed < 600.0,
        f"deletion {mean_del_f:.3f} < {mean_del_r:.3f} (random), "
        f"insertion {mean_ins_f:.3f} > {mean_ins_r:.3f} (random), "
        f"{elapsed:.0f}s (< 10min)",
    )


def test_criterion_7_ablation_direction(localization_runs):
    detector, _, runs = localization_runs
    no_ff = PipelineConfig(ablation="no_ff")
    gradient_only = PipelineConfig(ablation="gradient_only")
    veas = {"full": [], "no_ff": [], "gradient_only": []}
    for cloud, gt_box, d, saliency in runs[:50]:
        veas["full"].append(vea(saliency, cloud, gt_box))
        for name, ablated in (("no_ff", no_ff), ("gradient_only", gradient_only)):
            [[saliency]] = explain_detection(detector, cloud, [d], [full_mask()], ablated)
            veas[name].append(vea(saliency, cloud, gt_box))
    m_full = float(np.mean(veas["full"]))
    m_noff = float(np.mean(veas["no_ff"]))
    m_gonly = float(np.mean(veas["gradient_only"]))
    _report(
        "criterion-7 ablation-direction",
        m_full >= m_noff >= m_gonly,
        f"mean VEA: full {m_full:.3f} >= no_ff {m_noff:.3f} >= gradient_only {m_gonly:.3f}",
    )


def test_criterion_8_eval_determinism(tmp_path):
    detector = ReferenceDetector()
    scenes = write_scene_dir(tmp_path / "scenes", detector, seeds=range(6))
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    for out in (out_a, out_b):
        code = main(["eval", "--scenes", str(scenes), "--out", str(out)])
        assert code == 0
    identical = out_a.read_bytes() == out_b.read_bytes()
    rows = out_a.read_text().splitlines()
    _report(
        "criterion-8 eval-determinism",
        identical and len(rows) > 0,
        f"two runs byte-identical over {len(rows)} metric records",
    )


def test_criterion_9_format_round_trips(tmp_path):
    rng = np.random.default_rng(3)
    checks = []

    # KITTI bin: bytes -> cloud -> bytes
    cloud = rng.uniform(-40, 40, size=(500, 4)).astype(np.float32).astype(float)
    path = tmp_path / "cloud.bin"
    write_kitti_bin(path, cloud)
    first = path.read_bytes()
    write_kitti_bin(path, read_kitti_bin(path))
    checks.append(("kitti-bin", path.read_bytes() == first))

    # detections JSON: values exact through repr round-trip
    detections = ReferenceDetector().detect(single_object_scene(0)[0])
    dpath = tmp_path / "detections.json"
    write_detections_json(dpath, detections)
    checks.append(("detections-json", read_detections_json(dpath) == detections))

    # feature dump: arrays bit-identical
    detector = ReferenceDetector()
    scene = single_object_scene(1)[0]
    dump = dump_from_detector(detector, scene, 3, masks=(full_mask(), make_mask("x")))
    fpath = tmp_path / "scene.ffdp"
    save_dump(fpath, dump)
    loaded = read_dump(fpath)
    checks.append(
        (
            "feature-dump",
            np.array_equal(loaded.coords, dump.coords)
            and np.array_equal(loaded.features, dump.features)
            and all(
                np.array_equal(loaded.gradients[k], dump.gradients[k])
                for k in dump.gradients
            ),
        )
    )

    # canonical grid: averages at f32, counts exact
    grid = CanonicalGrid(16)
    grid.accumulate(rng.uniform(-0.5, 0.5, size=(2000, 3)), _UNIT_BOX, [rng.uniform(size=2000)])
    gpath = tmp_path / "avg.grid"
    write_grid(gpath, grid)
    averages, counts = read_grid(gpath)
    checks.append(
        (
            "canonical-grid",
            np.array_equal(averages, grid.averages().astype(np.float32).astype(float))
            and np.array_equal(counts, grid.counts),
        )
    )

    failed = [name for name, ok in checks if not ok]
    _report(
        "criterion-9 format-round-trips",
        not failed,
        "lossless: " + ", ".join(name for name, _ in checks)
        if not failed
        else f"failed: {failed}",
    )


def test_criterion_10_metric_oracles():
    rng = np.random.default_rng(4)
    thresholds = tuple(np.round(np.arange(1, 20) * 0.05, 2))
    exact = 0
    for _ in range(200):
        n = int(rng.integers(20, 120))
        cloud = rng.uniform(-3, 3, size=(n, 3))
        # center the box on one cloud point so ground truth is never empty
        anchor = cloud[int(rng.integers(n))]
        box = OrientedBox(
            tuple(anchor + rng.uniform(-0.2, 0.2, 3)),
            tuple(rng.uniform(1.0, 3.0, 3)),
            float(rng.uniform(0, 2 * math.pi)),
        )
        inside = points_in_box(cloud, box)
        assert inside.any()
        saliency = rng.uniform(size=n) * (rng.uniform(size=n) < 0.7)

        # VEA: brute-force set arithmetic per threshold
        if saliency.max() > 0:
            normalized = saliency / saliency.max()
            best = 0.0
            for t in thresholds:
                pred = [i for i in range(n) if normalized[i] >= t]
                inter = sum(1 for i in pred if inside[i])
                union = len(pred) + int(inside.sum()) - inter
                if union:
                    best = max(best, inter / union)
            assert vea(saliency, cloud, box) == best
        else:
            assert vea(saliency, cloud, box) == 0.0

        # PG: first-maximum scan plus membership
        top = 0
        for i in range(1, n):
            if saliency[i] > saliency[top]:
                top = i
        assert pointing_game(saliency, cloud, box) == bool(inside[top])

        # enPG: mass ratio by explicit loops
        total = sum(saliency.tolist())
        if total > 0:
            mass_in = sum(s for s, m in zip(saliency.tolist(), inside.tolist()) if m)
            assert energy_pg(saliency, cloud, box) == pytest.approx(
                mass_in / total, abs=1e-12
            )

        # AUC: manual trapezoid on a random curve
        steps = np.sort(rng.uniform(0.05, 0.95, size=6))
        steps = np.concatenate(([0.0], steps, [1.0]))
        values = rng.uniform(size=len(steps))
        curve = Curve(steps, values)
        manual = sum(
            (steps[i + 1] - steps[i]) * (values[i] + values[i + 1]) / 2
            for i in range(len(steps) - 1)
        )
        assert auc(curve) == pytest.approx(manual, abs=1e-12)
        exact += 1
    _report(
        "criterion-10 metric-oracles",
        exact == 200,
        f"{exact} randomized instances matched brute-force VEA/PG/enPG/AUC",
    )
