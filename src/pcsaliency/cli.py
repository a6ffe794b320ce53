"""Command-line surface.

Subcommands: ``explain`` (one detection -> saliency file), ``eval``
(scene set -> metric JSONL), ``sweep`` (hyperparameter grids -> table),
``aggregate`` (canonical average maps), ``modes`` (TP/FP report) and
``selftest`` (numerical self-checks). Exit codes: 0 success, 1 validation
failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import ctypes
import functools
import glob
import json
import sys
from pathlib import Path

import numpy as np

from . import metrics
from .aggregate import CanonicalGrid, ObjectExplanation, grid_to_csv, mode_report, write_grid
from .boxes import OrientedBox, iou_3d, points_in_box
from .detector import grad_check
from .errors import IoFailure, SaliencyError, ValidationError, WorkerDied, ZeroEnergy
from .fileio import read_kitti_bin, read_labels_json, write_json, write_saliency, writing
from .metrics import auc, deletion_curve, energy_pg, insertion_curve, pointing_game, vea
from .nmf import NmfConfig, factorize
from .pipeline import (
    ATTRIBUTE_NAMES, CONCEPT_FREE, OWN_VOXEL, explain_detection, full_mask, make_mask,
)
from .runconfig import RunConfig, find_scene_files

_SWEEP_R = (8, 16, 32, 64, 128)
_SWEEP_RANGE_K = ((0, 1), (1, 4), (2, 16), (3, 64))
_SWEEP_BLOCKS = (1, 2, 3, 4)

# glibc <malloc.h> mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def main(argv=None) -> int:
    _set_up_process()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except IoFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SaliencyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcsaliency",
        description="Saliency explanations for point-cloud object detections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE", help="override one configuration key",
        )

    p = sub.add_parser("explain", help="saliency map for one detection")
    p.add_argument("--scene", required=True, help="point cloud .bin file")
    p.add_argument("--detection", type=int, required=True, help="detection index")
    p.add_argument("--mask", default="all", help="'all' or comma-separated attributes")
    p.add_argument("--format", choices=("csv", "ply"), default="csv")
    p.add_argument("--out", help="output path (default under output.dir)")
    common(p)
    p.set_defaults(handler=_cmd_explain)

    p = sub.add_parser("eval", help="metric JSONL over well-detected objects")
    p.add_argument("--scenes", required=True, help="directory of <id>.bin scenes")
    p.add_argument("--out", help="output JSONL path (default under output.dir)")
    common(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("sweep", help="hyperparameter grid tables")
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", help="output CSV path (default under output.dir)")
    common(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("aggregate", help="canonical average maps per class and mask")
    p.add_argument("--scenes", required=True)
    p.add_argument("--out-dir", help="grid output directory (default under output.dir)")
    p.add_argument(
        "--masks", default=",".join(ATTRIBUTE_NAMES) + ",all",
        help="comma-separated attribute names and/or 'all'",
    )
    common(p)
    p.set_defaults(handler=_cmd_aggregate)

    p = sub.add_parser("modes", help="true/false positive mode report")
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", help="report JSON path (default under output.dir)")
    p.add_argument("--grids-dir", help="also export per-mode canonical grids here")
    common(p)
    p.set_defaults(handler=_cmd_modes)

    p = sub.add_parser("selftest", help="numerical self-checks")
    common(p)
    p.set_defaults(handler=_cmd_selftest)

    return parser


@functools.cache  # the policy is process-wide, so it is set once per process
def _keep_freed_memory() -> None:
    """Keep freed memory in the process for the next allocation: blocks
    below 32 MiB come from the heap, which is trimmed only past 128 MiB free.

    At glibc's defaults every freed multi-MB numpy temporary goes back to
    the OS, and each curve step page-faults fresh zero pages for the same
    sizes. Set by the command line, not at import, so that a library
    caller's allocator stays its own. Does nothing where libc has no
    ``mallopt`` (macOS, Windows); musl's is a no-op.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)


@functools.cache
def _openblas():
    """``name -> ctypes function`` over numpy's bundled OpenBLAS (config,
    corename, get/set_num_threads), or None where it is not found."""
    numpy_dir = Path(np.__file__).parent
    libs = sorted(glob.glob(str(numpy_dir.parent / "numpy.libs" / "*openblas*")))
    libs += sorted(glob.glob(str(numpy_dir / ".dylibs" / "*openblas*")))
    names = ("get_config", "get_corename", "get_num_threads", "set_num_threads")
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            funcs = {n: getattr(lib, f"{prefix}_{n}{suffix}", None) for n in names}
            if all(funcs.values()):
                funcs["get_config"].restype = funcs["get_corename"].restype = ctypes.c_char_p
                funcs["set_num_threads"].argtypes = (ctypes.c_int,)
                return funcs
    return None


@functools.cache  # the thread count is process-wide, so it is set once per process
def _one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread, whatever
    ``OPENBLAS_NUM_THREADS`` says: NMF's ``h.T @ a`` rounds differently at
    two threads, and a second thread buys these small products no wall
    time. Set by the command line, not at import, so that a library
    caller's thread count stays its own. Does nothing where the library
    is not found.
    """
    blas = _openblas()
    if blas is not None:
        blas["set_num_threads"](1)


def _set_up_process() -> None:
    """The process-wide policies, set by ``main`` and by each pool worker."""
    _keep_freed_memory()
    _one_blas_thread()


def _runconfig(args) -> RunConfig:
    return RunConfig.from_sources(args.config, args.overrides)


def _out_dir(cfg: RunConfig) -> Path:
    return _mkdir(Path(cfg.get("output.dir")))


def _out_file(flag: str | None, cfg: RunConfig, default_name: str) -> Path:
    """The output file path, its parent created up front so that an
    unusable path fails before the run rather than after it."""
    out = Path(flag) if flag else _out_dir(cfg) / default_name
    _mkdir(out.parent)
    return out


def _mkdir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create directory {path}: {exc}") from exc
    return path


def _parse_mask(text: str):
    if text.strip() == "all":
        return full_mask()
    return make_mask(*[t.strip() for t in text.split(",") if t.strip()])


# ----------------------------------------------------------------------
# the scene path every command runs

def _explain_scene(detector, cfg: RunConfig, cloud, pick, masks):
    """Detect in one scene and explain each pick under each mask.

    ``pick(detections)`` returns tuples led by a detection index. Returns the
    detections and ``(pick, [saliency per mask])`` per pick, all from one
    ``explain_detection`` call in one scene scope. Unless the caller holds
    a scope on the cloud, the scope ends with the call, which frees the
    scene forward's block values."""
    with detector.scene(cloud):
        detections = detector.detect(cloud)
        picks = pick(detections)
        saliencies = explain_detection(
            detector, cloud, [detections[p[0]] for p in picks], masks, cfg.pipeline_config()
        )
    return detections, list(zip(picks, saliencies))


def _fold_grids(grids: dict[str, CanonicalGrid], objects) -> None:
    """Bin each ``(key, cloud, box, saliency maps)`` of ``objects`` with one
    ``accumulate`` into its key's grid, made when the key is first seen."""
    for key, cloud, box, saliencies in objects:
        if key not in grids:
            grids[key] = CanonicalGrid(maps=len(saliencies))
        grids[key].accumulate(cloud, box, saliencies)


def _well_detected(cfg: RunConfig, gts):
    return lambda detections: metrics.well_detected(detections, gts, cfg.thresholds())


def _map_scenes(cfg: RunConfig, scenes_dir, worker, *args):
    """Yield ``worker(cfg, *args, scene)`` per scene file of ``scenes_dir``, in
    order, from a pool of at most ``parallelism`` processes, one per scene."""
    scenes = find_scene_files(scenes_dir)
    if cfg.get("detector.kind") == "dump" and len(scenes) > 1:
        raise ValidationError(f"a feature dump holds one scene; {scenes_dir} has {len(scenes)}")
    task = functools.partial(worker, cfg, *args)
    parallelism = cfg.get("parallelism")
    workers = min(parallelism, len(scenes))  # a fork pool starts every worker at once
    if workers <= 1:
        yield from map(task, scenes)
    else:
        # a spawn or forkserver worker does not inherit the process policies
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_set_up_process
        ) as pool:
            try:
                yield from pool.map(task, scenes)
            except concurrent.futures.BrokenExecutor as exc:
                # a worker killed from outside, by the OOM killer for one
                raise WorkerDied(
                    f"a scene worker process died (parallelism={parallelism}); "
                    f"a lower parallelism needs less memory: {exc}"
                ) from exc


# ----------------------------------------------------------------------
# explain

def _cmd_explain(args) -> int:
    cfg = _runconfig(args)
    mask = _parse_mask(args.mask)
    scene_id = Path(args.scene).stem
    out = _out_file(args.out, cfg, f"{scene_id}_{args.detection}.{args.format}")
    cloud = read_kitti_bin(args.scene)

    def pick(detections):
        if not 0 <= args.detection < len(detections):
            raise ValidationError(
                f"DetectionNotFound: scene has {len(detections)} detections, "
                f"index {args.detection} does not exist"
            )
        return [(args.detection,)]

    [(_, [saliency])] = _explain_scene(cfg.build_detector(), cfg, cloud, pick, [mask])[1]
    write_saliency(cloud, saliency, args.format, out)
    print(f"wrote {out} (config {cfg.config_hash()})")
    return 0


# ----------------------------------------------------------------------
# eval

def _eval_worker(cfg: RunConfig, variants, scene):
    """The metric rows of each config of ``variants`` on one scene, each row
    under its config's hash. One read, one detector, one pick and one scene
    scope of ``cfg`` serve every config, so the configs may differ only in
    ``nmf.*``, ``upsample.*`` and ``pipeline.*`` keys."""
    scene_id, bin_path, labels_path = scene
    cloud, gts = read_kitti_bin(bin_path), read_labels_json(labels_path)
    detector = cfg.build_detector()
    steps = cfg.get("eval.steps")
    rows = []
    # one scope for every explanation and curve step: one layout of the
    # cloud's voxels, and each step a delta of the one before, through both
    # curves of every detection under every config
    with detector.scene(cloud):
        for variant in variants:
            config_hash = variant.config_hash()
            detections, explained = _explain_scene(
                detector, variant, cloud, _well_detected(cfg, gts), [full_mask()]
            )
            for (pi, gi, _), [saliency] in explained:
                det = detections[pi]
                gt_box = gts[gi][0]
                try:
                    enpg = energy_pg(saliency, cloud, gt_box)
                except ZeroEnergy:
                    enpg = 0.0
                values = {
                    "deletion": auc(deletion_curve(detector, cloud, det, saliency, steps)),
                    "insertion": auc(insertion_curve(detector, cloud, det, saliency, steps)),
                    "vea": vea(saliency, cloud, gt_box),
                    "pg": 1.0 if pointing_game(saliency, cloud, gt_box) else 0.0,
                    "enpg": enpg,
                }
                rows += [
                    {"scene_id": scene_id, "detection_id": pi, "metric": metric,
                     "value": values[metric], "config_hash": config_hash}
                    for metric in sorted(values)
                ]
    return rows


def _cmd_eval(args) -> int:
    cfg = _runconfig(args)
    out = _out_file(args.out, cfg, "metrics.jsonl")
    rows = [row for rows in _map_scenes(cfg, args.scenes, _eval_worker, [cfg]) for row in rows]
    rows.sort(key=lambda r: (r["scene_id"], r["detection_id"], r["metric"]))
    with writing(out) as fh:
        fh.writelines(json.dumps(row) + "\n" for row in rows)
    print(f"wrote {len(rows)} records to {out} (config {cfg.config_hash()})")
    return 0


# ----------------------------------------------------------------------
# sweep

def _sweep_variants(cfg: RunConfig):
    """``(axis, setting, config)`` per sweep row, none for an axis that
    ``pipeline.ablation`` leaves without effect."""
    # explain_detection clamps the rank to the feature width, so a base rank
    # above it is the config of rank = feature width
    dim = cfg.get("detector.feature_dim")
    cfg = cfg.with_values({"nmf.r": min(cfg.get("nmf.r"), dim)})
    ablation = cfg.get("pipeline.ablation")
    skipped = [axis for axis, by in (("r", CONCEPT_FREE), ("range_k", OWN_VOXEL)) if ablation in by]
    for axis in skipped:
        print(f"sweep: pipeline.ablation={ablation} ignores {axis}: no {axis} rows", file=sys.stderr)
    if "r" not in skipped:
        clamped = [f"nmf.r={r}" for r in _SWEEP_R if r > dim]
        if clamped:
            print(f"sweep: {', '.join(clamped)} clamp to feature_dim={dim}: one row r={dim}",
                  file=sys.stderr)
        for r in dict.fromkeys(min(r, dim) for r in _SWEEP_R):
            yield ("r", str(r), cfg.with_values({"nmf.r": r}))
    if "range_k" not in skipped:
        for rng, k in _SWEEP_RANGE_K:
            yield (
                "range_k",
                f"({rng},{k})",
                cfg.with_values({"upsample.range_threshold": rng, "upsample.k": k}),
            )
    for block in _SWEEP_BLOCKS:
        yield ("block", str(block), cfg.with_values({"pipeline.block_index": block}))


def _cmd_sweep(args) -> int:
    cfg = _runconfig(args)
    out = _out_file(args.out, cfg, "sweep.csv")
    variants = list(_sweep_variants(cfg))
    # one pass over the scenes; a setting equal to another is computed once
    configs = list(dict.fromkeys(variant for _, _, variant in variants))
    values: dict[tuple[str, str], list[float]] = {}
    for rows in _map_scenes(cfg, args.scenes, _eval_worker, configs):
        for row in rows:
            values.setdefault((row["config_hash"], row["metric"]), []).append(row["value"])
    lines = ["axis,setting,deletion,insertion,vea,pg,enpg"]
    for axis, setting, variant in variants:
        config_hash = variant.config_hash()
        # nan, not 0, for no objects: a deletion AUC of 0 is a perfect score
        means = [
            float(np.mean(values[config_hash, name])) if (config_hash, name) in values
            else float("nan")
            for name in ("deletion", "insertion", "vea", "pg", "enpg")
        ]
        lines.append(f"{axis},{setting}," + ",".join(f"{m:.6g}" for m in means))
    with writing(out) as fh:
        fh.write(f"# config_hash={cfg.config_hash()}\n" + "\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} sweep rows to {out}")
    return 0


# ----------------------------------------------------------------------
# aggregate

def _aggregate_worker(cfg: RunConfig, masks, scene):
    _, bin_path, labels_path = scene
    cloud, gts = read_kitti_bin(bin_path), read_labels_json(labels_path)
    detections, explained = _explain_scene(
        cfg.build_detector(), cfg, cloud, _well_detected(cfg, gts), masks
    )
    return [
        (detections[pi].label, cloud, detections[pi].box(), saliencies)
        for (pi, _, _), saliencies in explained
    ]


def _cmd_aggregate(args) -> int:
    cfg = _runconfig(args)
    names = [t.strip() for t in args.masks.split(",") if t.strip()]
    if not names or len(set(names)) != len(names):
        raise ValidationError(f"--masks must name one or more masks once each, got {args.masks!r}")
    masks = [full_mask() if t == "all" else make_mask(t) for t in names]
    out_dir = _mkdir(Path(args.out_dir) if args.out_dir else _out_dir(cfg) / "aggregate")

    # one grid per class: every mask's map of an object bins the same points
    grids: dict[str, CanonicalGrid] = {}
    for objects in _map_scenes(cfg, args.scenes, _aggregate_worker, masks):
        _fold_grids(grids, objects)

    manifest = {"config_hash": cfg.config_hash(), "grids": []}
    files = sorted((label, mask_name, m) for label in grids for m, mask_name in enumerate(names))
    for label, mask_name, m in files:
        grid, stem = grids[label], f"avg_{label}_{mask_name}"
        write_grid(out_dir / f"{stem}.grid", grid, m)
        grid_to_csv(out_dir / f"{stem}.csv", grid, m)
        manifest["grids"].append(
            {
                "class": label,
                "mask": mask_name,
                "file": f"{stem}.grid",
                "points_binned": grid.binned,
                "points_discarded": grid.discarded,
            }
        )
    write_json(out_dir / "manifest.json", manifest)
    print(f"wrote {len(files)} grids to {out_dir}")
    return 0


# ----------------------------------------------------------------------
# modes

def _modes_worker(cfg: RunConfig, grids: bool, scene):
    """The scene's mode records and, only when ``grids`` asks for them (and so
    for any explanation), its ``_fold_grids`` objects, keyed by mode and class."""
    _, bin_path, labels_path = scene
    cloud, gts = read_kitti_bin(bin_path), read_labels_json(labels_path)

    def every_detection(detections):
        tp_set = {pi for pi, _, _ in metrics.well_detected(detections, gts, cfg.thresholds())}
        return [(pi, pi in tp_set) for pi in range(len(detections))]

    detections, explained = _explain_scene(
        cfg.build_detector(), cfg, cloud, every_detection, [full_mask()] if grids else []
    )
    records, objects = [], []
    for (pi, is_tp), saliencies in explained:
        label, box = detections[pi].label, detections[pi].box()
        records.append(
            ObjectExplanation(label, is_tp, int(np.count_nonzero(points_in_box(cloud, box))))
        )
        if grids:
            key = f"{'tp' if is_tp else 'fp'}_{label}"
            objects.append((key, cloud, box, saliencies))
    return records, objects


def _cmd_modes(args) -> int:
    cfg = _runconfig(args)
    out = _out_file(args.out, cfg, "modes.json")
    grids_dir = _mkdir(Path(args.grids_dir)) if args.grids_dir else None
    records, grids = [], {}
    for recs, objects in _map_scenes(cfg, args.scenes, _modes_worker, grids_dir is not None):
        records += recs
        _fold_grids(grids, objects)

    write_json(out, {"config_hash": cfg.config_hash(), **mode_report(records)})
    for stem, grid in sorted(grids.items()):  # none without --grids-dir
        write_grid(grids_dir / f"{stem}.grid", grid)
    print(f"wrote {out}")
    return 0


# ----------------------------------------------------------------------
# selftest

def _mc_iou(a: OrientedBox, b: OrientedBox, n: int, seed: int) -> float:
    """Monte Carlo IoU from uniform samples over both boxes' bounding box."""
    rng = np.random.default_rng(seed)
    boxes = (a, b)
    lo = np.min([(*x.footprint().min(axis=0), x.center[2] - x.size[2] / 2) for x in boxes], axis=0)
    hi = np.max([(*x.footprint().max(axis=0), x.center[2] + x.size[2] / 2) for x in boxes], axis=0)
    pts = rng.uniform(lo, hi, size=(n, 3))
    in_a = points_in_box(pts, a)
    in_b = points_in_box(pts, b)
    union = int(np.count_nonzero(in_a | in_b))
    if union == 0:
        return 0.0
    return int(np.count_nonzero(in_a & in_b)) / union


def _cmd_selftest(args) -> int:
    cfg = _runconfig(args)
    ok = True

    def report(name, passed, detail):
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")

    # analytic gradients vs central finite differences
    worst = max(grad_check(cfg.detector_config(), scene_seed=s) for s in (0, 1))
    report("gradient-check", worst <= 1e-4, f"max rel err {worst:.2e}")

    # NMF objective monotonicity and low-rank exactness
    from .synthetic import low_rank_matrix

    mono_ok, exact_ok = True, True
    for trial in range(5):
        a, rank = low_rank_matrix(trial, max_size=40, max_rank=8)
        fact = factorize(
            a, NmfConfig(r=rank, max_iterations=500, relative_tolerance=1e-9, seed=trial)
        )
        diffs = np.diff(fact.objective_history)
        mono_ok = mono_ok and bool(np.all(diffs <= 1e-9 * np.maximum(1.0, fact.objective_history[:-1])))
        exact_ok = exact_ok and fact.final_objective / float(np.sum(a * a)) <= 1e-6
    report("nmf-monotone", mono_ok, "objective non-increasing")
    report("nmf-low-rank-exact", exact_ok, "relative objective <= 1e-6")

    # rotated IoU vs Monte Carlo
    rng = np.random.default_rng(11)
    worst_gap = 0.0
    for trial in range(20):
        a = OrientedBox(
            tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(0.8, 3.0, 3)), float(rng.uniform(0, np.pi))
        )
        b = OrientedBox(
            tuple(np.array(a.center) + rng.uniform(-1.2, 1.2, 3)),
            tuple(rng.uniform(0.8, 3.0, 3)),
            float(rng.uniform(0, np.pi)),
        )
        gap = abs(iou_3d(a, b) - _mc_iou(a, b, 50_000, seed=trial))
        worst_gap = max(worst_gap, gap)
    report("iou-vs-monte-carlo", worst_gap <= 0.02, f"max gap {worst_gap:.4f}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
