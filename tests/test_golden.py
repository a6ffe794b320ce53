"""Golden outputs: every file a fixed set of CLI runs writes, pinned.

The runs cover ``eval`` in full and under the three ablations,
``aggregate`` with the default masks, ``modes --grids-dir``, ``sweep`` and
``explain --format csv|ply``, on three ``single_object_scene`` and two
``multi_object_scene`` seeds. ``tests/golden/manifest.json`` holds each
file's sha256 and a numeric summary (metric values, column sums, grid sums
and counts), plus the BLAS fingerprint it was recorded under. The runs
pin OpenBLAS to one thread: ``eval`` metrics differ in the last bits
between one thread and two.

- Under the recorded fingerprint the hashes must match exactly.
- Under any other one (OpenBLAS picks its kernel per CPU at run time, so
  another machine may round differently) the summaries must match within
  ``RTOL``/``ATOL``.

The summaries are compared in both cases, and the test header and the test
both print which comparison ran. After an intended output change,
regenerate the manifest from the root of the checkout with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and record the drift in CHANGES.md. ``--fingerprint`` prints this
machine's fingerprint and the comparison it gets.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from pcsaliency.aggregate import read_grid
from pcsaliency.cli import main
from pcsaliency.fileio import write_kitti_bin, write_labels_json
from pcsaliency.runconfig import RunConfig
from pcsaliency.synthetic import multi_object_scene, single_object_scene

from conftest import blas_fingerprint, one_blas_thread

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"
SINGLE_SEEDS = (0, 1, 2)
MULTI_SEEDS = (0, 1)
# the summaries of two machines' runs agree this closely
RTOL, ATOL = 1e-6, 1e-9
# default settings but shorter curves, to keep the runs within ~10 s
SETTINGS = ["--set", "eval.steps=10"]


def _runs(scenes: Path) -> dict[str, list[str]]:
    """argv per output name; each run writes under ``<out>/<name>``."""
    runs = {
        f"eval-{ablation}": ["eval", "--scenes", str(scenes), "--out", "{out}/metrics.jsonl",
                             "--set", f"pipeline.ablation={ablation}"]
        for ablation in ("full", "no_ff", "no_vu", "gradient_only")
    }
    runs["aggregate"] = ["aggregate", "--scenes", str(scenes), "--out-dir", "{out}"]
    runs["modes"] = ["modes", "--scenes", str(scenes), "--out", "{out}/modes.json",
                     "--grids-dir", "{out}/grids"]
    runs["sweep"] = ["sweep", "--scenes", str(scenes), "--out", "{out}/sweep.csv"]
    for fmt in ("csv", "ply"):
        runs[f"explain-{fmt}"] = ["explain", "--scene", str(scenes / "multi1.bin"),
                                  "--detection", "1", "--format", fmt,
                                  "--out", f"{{out}}/saliency.{fmt}"]
    return runs


def write_scenes(root: Path) -> Path:
    """The golden scenes, each self-labelled with the detector's own boxes so
    that every detection is well detected."""
    detector = RunConfig.from_sources().build_detector()
    root.mkdir(parents=True, exist_ok=True)
    clouds = {f"single{s}": single_object_scene(s)[0] for s in SINGLE_SEEDS}
    clouds.update({f"multi{s}": multi_object_scene(s)[0] for s in MULTI_SEEDS})
    for name, cloud in clouds.items():
        write_kitti_bin(root / f"{name}.bin", cloud)
        gts = [(d.box(), d.label) for d in detector.detect(cloud)]
        write_labels_json(root / f"{name}.labels.json", gts)
    return root


def run_all(root: Path) -> Path:
    """Write the scenes and every run's outputs under ``root``; returns the
    output directory."""
    scenes = write_scenes(root / "scenes")
    out = root / "out"
    for name, argv in _runs(scenes).items():
        argv = [a.replace("{out}", str(out / name)) for a in argv]
        with one_blas_thread(), contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, *SETTINGS])
        assert code == 0, f"{name}: exit {code}"
    return out


# ----------------------------------------------------------------------
# fingerprint


def comparison(manifest: dict) -> str:
    """Which comparison the manifest gets on this machine, as printed."""
    here = blas_fingerprint()
    if here == manifest["fingerprint"]:
        return f"golden: exact sha256 comparison (BLAS fingerprint matches: {here})"
    return (
        f"golden: summaries within rtol={RTOL:g} atol={ATOL:g}, hashes not compared "
        f"(fingerprint here {here}, recorded {manifest['fingerprint']})"
    )


# ----------------------------------------------------------------------
# summaries


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _flatten(item, f"{prefix}{key}.")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), value


def _column_sums(names, rows) -> dict:
    table = np.array([[float(v) for v in row] for row in rows]).reshape(-1, len(names))
    return {"rows": len(table), **{f"sum:{n}": float(s) for n, s in zip(names, table.sum(axis=0))}}


def summarize(path: Path) -> dict:
    """The numbers of one output file that another machine's run must
    reproduce to within the tolerance."""
    if path.suffix == ".jsonl":
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        return {f"{r['scene_id']}/{r['detection_id']}/{r['metric']}": r["value"] for r in rows}
    if path.suffix == ".json":
        return dict(_flatten(json.loads(path.read_text())))
    if path.suffix == ".grid":
        averages, counts = read_grid(path)
        return {
            "value_sum": float(averages.sum()),
            "weighted_sum": float((averages * counts).sum()),
            "count_sum": int(counts.sum()),
            "occupied": int(np.count_nonzero(counts)),
        }
    lines = path.read_text().splitlines()
    if lines[0].startswith("#"):  # the sweep table, under its config hash line
        names = lines[1].split(",")[2:]
        summary = {}
        for line in lines[2:]:
            # a range_k setting such as "(2,16)" holds a comma of its own
            head, *values = line.rsplit(",", len(names))
            summary.update({f"{head.replace(',', '/', 1)}/{n}": float(v)
                            for n, v in zip(names, values)})
        return summary
    if path.suffix == ".ply":
        header = lines.index("end_header")
        names = [line.split()[-1] for line in lines[:header] if line.startswith("property")]
        return _column_sums(names, [line.split() for line in lines[header + 1:]])
    return _column_sums(lines[0].split(","), [line.split(",") for line in lines[1:]])


def outputs(out: Path) -> dict[str, dict]:
    """sha256 and summary of every file under ``out``, by relative path."""
    return {
        p.relative_to(out).as_posix(): {
            "sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
            "summary": summarize(p),
        }
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def summary_mismatches(got: dict, want: dict) -> list[str]:
    bad = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            bad.append(f"{key}: only in {'run' if key in got else 'manifest'}")
            continue
        a, b = got[key], want[key]
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        if numeric and math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL):
            continue
        if not numeric and a == b:
            continue
        bad.append(f"{key}: {a!r} != recorded {b!r}")
    return bad


# ----------------------------------------------------------------------
# the check


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    manifest = json.loads(MANIFEST.read_text())
    return manifest, outputs(run_all(tmp_path_factory.mktemp("golden")))


def test_golden_file_set(golden):
    manifest, got = golden
    assert sorted(got) == sorted(manifest["files"])


@pytest.mark.parametrize("run", sorted(_runs(Path("."))))
def test_golden_outputs(golden, run):
    manifest, got = golden
    print(comparison(manifest))
    names = sorted(n for n in manifest["files"] if n.split("/")[0] == run)
    assert names, f"the manifest records no output of {run}"
    bad = []
    for name in names:
        want = manifest["files"][name]
        if name not in got:
            bad.append(f"{name}: not written")
            continue
        bad += [f"{name}: {m}" for m in summary_mismatches(got[name]["summary"], want["summary"])]
        if manifest["fingerprint"] == blas_fingerprint() and got[name]["sha256"] != want["sha256"]:
            bad.append(f"{name}: sha256 {got[name]['sha256']} != recorded {want['sha256']}")
    assert not bad, "\n".join(bad[:20])


def test_summaries_see_a_changed_value(golden):
    """The tolerance comparison is not vacuous: a metric moved past the
    tolerance is reported."""
    manifest, _ = golden
    summary = manifest["files"]["eval-full/metrics.jsonl"]["summary"]
    key = sorted(summary)[0]
    moved = {**summary, key: summary[key] * (1 + 10 * RTOL) + 10 * ATOL}
    assert summary_mismatches(moved, summary) == [
        f"{key}: {moved[key]!r} != recorded {summary[key]!r}"
    ]


def _regenerate(root: Path) -> None:
    manifest = {
        "regenerate": "PYTHONPATH=src python tests/test_golden.py --regenerate",
        "fingerprint": blas_fingerprint(),
        "settings": SETTINGS,
        "files": outputs(run_all(root)),
    }
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({len(manifest['files'])} files)")


if __name__ == "__main__":
    import tempfile

    if "--fingerprint" in sys.argv[1:]:
        print(json.dumps(blas_fingerprint(), sort_keys=True))
        print(comparison(json.loads(MANIFEST.read_text())))
    elif "--regenerate" in sys.argv[1:]:
        with tempfile.TemporaryDirectory() as tmp:
            _regenerate(Path(tmp))
    else:
        sys.exit(f"usage: {os.path.basename(__file__)} --regenerate | --fingerprint")
