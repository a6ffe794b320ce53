"""Benchmark of the pcsaliency command line, run from the root of a checkout.

    python3 perfbench/run.py --workload clutter --seed 1 --seconds 35 --trace 0

Runs one workload (see README.md) in a closed loop from this process, one
CLI call at a time through `pcsaliency.cli.main`, checks every call's
output and prints every metric with its unit. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`,
the end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`. Scratch files live under `.perfbench_work/` in the checkout.
"""

import os

# Pinned before numpy loads, here and in every set-up child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
WORK_DIR = ".perfbench_work"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("eval", "aggregate", "clutter"))
    p.add_argument("--seed", type=int, required=True,
                   help="run seed, >= 0; picks the scene the loop starts from")
    p.add_argument("--seconds", type=float, required=True, help="timed loop length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run that reports the per-layer metrics")
    p.add_argument("--seed-offset", type=int, default=0,
                   help="first scene seed; re-check a claim on scenes from a new offset")
    p.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seed_offset < 0 or args.seconds <= 0:
        p.error("--seed and --seed-offset must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "pcsaliency" / "__init__.py").is_file():
        print("error: src/pcsaliency not found; run from the root of a pcsaliency "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.setup_into:
        scenes = workloads.setup(args.workload, args.seed_offset, Path(args.setup_into))
        print(json.dumps(scenes))
        return 0

    work = Path.cwd() / WORK_DIR
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        return Bench(args, run_dir, work).run()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


class Bench:
    """One run of one workload: set-up, the loop, checks and the result."""

    def __init__(self, args, run_dir: Path, work: Path):
        self.args = args
        self.run_dir = run_dir
        self.work = work
        self.problems: list[str] = []
        self.first_digest: dict[str, str] = {}
        self.quality: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0

    # -- set-up ---------------------------------------------------------

    def setup(self):
        """Run set-up in fresh processes; returns the scenes, each run's wall
        time and the reference kernel's times around them.

        Each repeat pays interpreter start, package import, detector
        construction and scene writing, as a user's first call would.
        """
        a = self.args
        samples, manifests, digests = [], [], []
        refs = [calibrate.reference_time()]
        for k in range(SETUP_REPEATS):
            dest = self.run_dir / f"scenes{k}"
            cmd = [sys.executable, __file__, "--workload", a.workload, "--seed", str(a.seed),
                   "--seconds", str(a.seconds), "--seed-offset", str(a.seed_offset),
                   "--setup-into", str(dest)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
            samples.append(time.perf_counter() - t0)
            refs.append(calibrate.reference_time())
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed:\n{proc.stderr}")
            manifests.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            digests.append(workloads.digest(dest))
        if any(m != manifests[0] for m in manifests) or len(set(digests)) != 1:
            self.problems.append("set-up is not deterministic: repeats wrote different scenes")
        for k in range(1, SETUP_REPEATS):
            shutil.rmtree(self.run_dir / f"scenes{k}")
        return manifests[0], samples, refs

    # -- one object -------------------------------------------------------

    def call(self, scene: dict, tracer=None) -> float:
        """One CLI call on ``scene``; checks its output and returns its wall time."""
        from pcsaliency.cli import main as cli_main

        a = self.args
        scene_dir = self.run_dir / "scenes0" / scene["id"]
        out_dir = self.run_dir / "out" / scene["id"]
        out_dir.mkdir(parents=True, exist_ok=True)
        argv = workloads.cli_argv(a.workload, scene_dir, scene["id"], out_dir)
        captured = io.StringIO()
        self.attempted += 1
        problems = []
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    code = cli_main(argv)
                    wall = time.perf_counter() - t0
                else:
                    with layers.instrument(tracer), tracer.span(layers.CALL) as span:
                        code = cli_main(argv)
                    wall = span.duration
            except Exception:
                code, wall = None, float("nan")
                problems.append(traceback.format_exc())
        if code != 0:
            problems.append(f"exit code {code}: {captured.getvalue().strip()}")
        else:
            try:
                problems += self.check(scene, out_dir)
            except (OSError, ValueError, KeyError) as exc:  # malformed output
                problems.append(f"unreadable output: {exc!r}")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"{a.workload} {scene['id']}: {p}", file=sys.stderr)
        return wall

    def check(self, scene: dict, out_dir: Path) -> list[str]:
        """Output checks of one call, including byte identity with the
        first call on the same scene."""
        problems, values = workloads.check_output(self.args.workload, scene, out_dir)
        d = workloads.digest(out_dir)
        if d != self.first_digest.setdefault(scene["id"], d):
            problems.append("output differs from the first call on this scene")
        if values is not None:
            self.quality.setdefault(scene["id"], values)
        return problems

    # -- the run ----------------------------------------------------------

    def run(self) -> int:
        a = self.args
        scenes, setup_walls, setup_refs = self.setup()
        order = workloads.visiting_order(scenes, a.seed)
        import pcsaliency.cli  # noqa: F401  (imported before any call is timed)
        if a.trace:
            metrics, samples = self.traced_loop(order)
        else:
            metrics, samples = self.timed_loop(order, setup_walls, setup_refs)
        correct = self.failed == 0 and not self.problems
        for p in self.problems:
            print(f"{a.workload}: {p}", file=sys.stderr)
        env = environment(a, scenes)
        report(a, env, metrics, samples)
        (self.work / f"result-{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(
            json.dumps({"env": env, "samples": samples, "metrics": metrics,
                        "correct": correct}, indent=2) + "\n")
        print(json.dumps({"correct": correct, "attempted": self.attempted,
                          "failed": self.failed, "metrics": metrics}))
        return 0

    def timed_loop(self, order, setup_walls, setup_refs):
        """Untraced closed loop of whole passes through the run's scenes:
        at least two, and as many as fit in the run's seconds, rounded to
        the nearest. Scenes differ in cost by up to 15%, so whole passes
        keep the mix the same in every run. Every time metric is in
        calibrated seconds (see calibrate.py)."""
        a = self.args
        walls, refs = [], [calibrate.reference_time()]
        start = time.perf_counter()
        while True:
            passes, pos = divmod(len(walls), len(order))
            elapsed = time.perf_counter() - start
            if pos == 0 and passes >= 2 and elapsed + elapsed / passes / 2 >= a.seconds:
                break
            walls.append(self.call(order[pos]))
            refs.append(calibrate.reference_time())
        times = summary.calibrated(walls, refs, calibrate.REFERENCE_S)
        timed = [t for t in times if t == t]  # NaN: the call raised
        # Set-up runs for a few seconds only: one speed, the median kernel time.
        setup_wall, setup_n = summary.median_with_count(setup_walls)
        setup_s = setup_wall * calibrate.REFERENCE_S / statistics.median(setup_refs)
        p50, n = summary.median_with_count(timed or [float("nan")])
        raw = [w for w in walls if w == w]
        values = {
            "setup_s": setup_s,
            "objects_per_s": (self.attempted - self.failed) / sum(timed) if timed else 0.0,
            "object_s_p50": p50,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": summary.success_rate(self.attempted, self.failed),
        }
        for name, row in summary.QUALITY.items():
            if a.workload == "eval":
                per_scene = [q[row] for q in self.quality.values()]
                values[name] = sum(per_scene) / len(per_scene) if per_scene else float("nan")
            else:
                values[name] = summary.QUALITY_NOT_MEASURED
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in summary.END_TO_END}
        samples = {"setup_s": setup_n, "object_s_p50": n, "objects": len(walls),
                   "quality_scenes": len(self.quality),
                   "raw_object_s_p50": statistics.median(raw) if raw else float("nan"),
                   "raw_setup_s": statistics.median(setup_walls),
                   "reference_s_p50": statistics.median(refs),
                   "call_walls": walls, "call_reference_walls": refs,
                   "setup_walls": setup_walls, "setup_reference_walls": setup_refs}
        return metrics, samples

    def traced_loop(self, order):
        """Each object runs once untraced and once traced, alternating which
        goes first; the second call is also the byte-identity repeat."""
        a = self.args
        tracer = layers.Tracer()
        untraced = []
        i = 0
        start = time.perf_counter()
        while time.perf_counter() - start < a.seconds or i == 0:
            scene = order[i % len(order)]
            tracer.obj = i
            if i % 2 == 0:
                untraced.append(self.call(scene))
                self.call(scene, tracer)
            else:
                self.call(scene, tracer)
                untraced.append(self.call(scene))
            i += 1
        tracer.write_jsonl(self.work / f"spans-{a.workload}-seed{a.seed}.jsonl")
        values = layers.layer_metrics(tracer.spans, untraced)
        missing = layers.missing_layers(a.workload, tracer.spans)
        if missing:
            self.problems.append(f"layer spans recorded no call: {', '.join(missing)}")
        if values["trace.coverage"] < layers.MIN_COVERAGE:
            self.problems.append(
                f"trace.coverage {values['trace.coverage']:.4f} < {layers.MIN_COVERAGE}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
        return metrics, {"objects": i, "spans": len(tracer.spans)}


def environment(args, scenes) -> dict:
    from pcsaliency.runconfig import RunConfig

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_config(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(Path.cwd()),
        "workload": args.workload,
        "seed": args.seed,
        "seed_offset": args.seed_offset,
        "seconds": args.seconds,
        "parallelism": RunConfig.from_sources().get("parallelism"),
        "scenes": scenes,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _blas_config() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {k: deps[k] for k in ("blas", "lapack") if k in deps}


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(args, env, metrics, samples) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(
        {k: v for k, v in samples.items() if not isinstance(v, list)}, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
