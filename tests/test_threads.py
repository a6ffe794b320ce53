"""``eval`` through ``cli.main`` writes the golden bytes at any OpenBLAS
thread count, because the command itself pins OpenBLAS to one thread.

Each run is a fresh interpreter that starts with ``OPENBLAS_NUM_THREADS=2``
or without the variable (OpenBLAS's default, one thread per core) and sets
no thread count of its own before calling ``main``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcsaliency

from conftest import blas_fingerprint
from test_golden import MANIFEST, SETTINGS, _runs, outputs, summary_mismatches, write_scenes

_EVALS = sorted(name for name in _runs(Path(".")) if name.startswith("eval-"))

# prints OpenBLAS's thread count before and after the runs, then exits with
# the worst exit code
_CHILD = """
import json, sys
from pcsaliency.cli import _openblas, main
blas = _openblas()
threads = (lambda: blas["get_num_threads"]()) if blas else (lambda: None)
before = threads()
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"before": before, "after": threads()}))
sys.exit(max(codes))
"""


@pytest.mark.parametrize("threads", ["2", None], ids=["two", "default"])
def test_eval_matches_golden_at_any_blas_thread_count(threads, tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    scenes = write_scenes(tmp_path / "scenes")
    out = tmp_path / "out"
    runs = _runs(scenes)
    argvs = [[a.replace("{out}", str(out / name)) for a in runs[name]] + SETTINGS for name in _EVALS]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    src = str(Path(pcsaliency.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    counts = json.loads(child.stdout.splitlines()[-1])
    if counts["before"] is not None:  # numpy's bundled OpenBLAS was found
        assert counts["after"] == 1
        if threads is not None:
            assert counts["before"] == int(threads)

    got = outputs(out)
    exact = manifest["fingerprint"] == blas_fingerprint()
    bad = []
    for name in sorted(n for n in manifest["files"] if n.split("/")[0] in _EVALS):
        want = manifest["files"][name]
        if name not in got:
            bad.append(f"{name}: not written")
            continue
        bad += [f"{name}: {m}" for m in summary_mismatches(got[name]["summary"], want["summary"])]
        if exact and got[name]["sha256"] != want["sha256"]:
            bad.append(f"{name}: sha256 {got[name]['sha256']} != recorded {want['sha256']}")
    assert not bad, "\n".join(bad[:20])
