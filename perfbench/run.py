"""engel-lab benchmark: run one workload through ``engel_lab.cli.main``.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Run from the repository root.  The program is imported from ``src/``.  With
``--trace 0`` the end-to-end metrics are measured; with ``--trace 1`` the
per-layer metrics come from a traced pass, paired with an untraced pass for
the tracing overhead.  Human-readable lines come first; the last line of
standard output is the JSON result.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# one process, no added threads; set before numpy is imported anywhere
THREAD_ENV = {"ENGEL_LAB_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
MIN_PASSES = 3
# typical time of reference_seconds() on the 2-core host the bounds were set on
REF_NOMINAL_S = 0.004
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10


def tail_latency(per_pass):
    """(label, value, samples beyond) over per-pass task latency lists.

    The highest of TAIL_LADDER with at least TAIL_MIN_BEYOND samples above
    it.  A run too short for any (fewer than 20 tasks) reports the slowest
    task's median over passes: a plain maximum of so few samples would
    measure the host's worst moment rather than the program."""
    xs = sorted(x for lat in per_pass for x in lat)
    n = len(xs)
    for p in TAIL_LADDER:
        v = xs[-(-p * n // 100) - 1]                 # nearest-rank percentile
        beyond = sum(x > v for x in xs)
        if beyond >= TAIL_MIN_BEYOND:
            return f"p{p:g}", v, beyond
    slowest = max(statistics.median(col) for col in zip(*per_pass))
    return "slowest task's median", slowest, 0


def reference_seconds() -> float:
    """Time of a fixed slice of work like the program's hot paths: small
    numpy matrix steps and float formatting.  It touches no engel_lab code,
    so a change to the program cannot move it; only the host's speed can."""
    import numpy as np          # not at module level: THREAD_ENV must come first

    t0 = time.perf_counter()
    M = np.eye(2)
    A = np.array([[0.0, -0.5], [1.0, 0.0]])
    out = []
    for _ in range(1000):
        M = M + 1e-3 * (A @ M)
        out.append(format(float(M[0, 0]), ".17g"))
    return time.perf_counter() - t0


def calibrated(fn):
    """Run ``fn()`` between two reference measurements.  Returns its result,
    its raw seconds and its seconds scaled to REF_NOMINAL_S host speed: the
    shared host's speed drifts by +-20 % within a minute, and the reference
    moves with it (see README)."""
    r0 = reference_seconds()
    t0 = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - t0
    speed = REF_NOMINAL_S / (0.5 * (r0 + reference_seconds()))
    return out, raw, raw * speed


def measure_setup(n: int) -> list:
    """Calibrated wall time of a fresh interpreter importing engel_lab.cli,
    n times after one unmeasured import that leaves the bytecode cache warm;
    returns (raw, calibrated) pairs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import engel_lab.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    # no timeout here: with one, subprocess polls the child in steps of up
    # to 50 ms, which quantizes the measured time
    spawn = lambda: subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                                   stdout=subprocess.DEVNULL)
    return [calibrated(spawn)[1:] for _ in range(n)]


def run_task(cli, task, outdir: Path):
    """Run one CLI task in-process; returns (exit code or None, log)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(task.argv + ["--out", str(outdir)])
    except SystemExit as e:         # argparse rejected the arguments
        rc = e.code
    except Exception as e:          # a crash is a failed task, not a crashed benchmark
        rc = None
        buf.write(f"{type(e).__name__}: {e}")
    return rc, buf.getvalue()


class Tally:
    """Attempted and failed tasks over a run, with failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.known = {}

    def add(self, task, error, log: str) -> None:
        self.attempted += 1
        if error is None:
            return
        self.failed += 1
        if task.tolerated is not None and error.kind == task.tolerated:
            self.known[task.label] = str(error)
        else:
            self.unexpected.append(f"{task.label}: {error} | {log.strip()[-300:]}")


def run_pass(cli, workload, outdir: Path, tally: Tally, checks) -> dict:
    """All tasks once; checks run after each task, outside its latency.
    Latencies are calibrated; ``raw_wall`` is the uncalibrated task time."""
    lat, raw_wall = [], 0.0
    for i, task in enumerate(workload.tasks):
        tdir = outdir / f"t{i:02d}"
        (rc, log), raw, dt = calibrated(lambda: run_task(cli, task, tdir))
        lat.append(dt)
        raw_wall += raw
        try:
            checks.check_task(task, rc, tdir)
            error = None
        except checks.CheckFailed as e:
            error = e
        tally.add(task, error, log)
    work = sum(t.work for t in workload.tasks)
    return {"latencies": lat, "wall": sum(lat), "work_per_s": work / sum(lat),
            "raw_work_per_s": work / raw_wall}


def provenance() -> dict:
    from importlib import metadata

    import numpy as np
    from engel_lab import _kernels

    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                 capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    env_keys = sorted(k for k in os.environ
                      if k.startswith("ENGEL_LAB_") or k in THREAD_ENV)
    return {
        "git_revision": rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "HAS_NUMBA": bool(_kernels.HAS_NUMBA),
        "env": {k: os.environ[k] for k in env_keys},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def measure_end_to_end(cli, checks, workload, seconds, tmp: Path, tally: Tally):
    setup = measure_setup(SETUP_SAMPLES)
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        pdir = tmp / f"pass{len(passes)}"
        passes.append(run_pass(cli, workload, pdir, tally, checks))
        shutil.rmtree(pdir)
    lat = [x for p in passes for x in p["latencies"]]
    tail_label, tail, beyond = tail_latency([p["latencies"] for p in passes])
    values = {
        "setup_s": statistics.median(c for _, c in setup),
        "work_per_s": statistics.median([p["work_per_s"] for p in passes]),
        "task_p50_ms": 1e3 * statistics.median(lat),
        "task_tail_ms": 1e3 * tail,
        "pass_ratio": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters importing engel_lab.cli;"
                   f" raw {statistics.median(r for r, _ in setup):.4g} s",
        "work_per_s": f"{workload.unit} per second, median of {len(passes)} passes;"
                      f" raw {statistics.median(p['raw_work_per_s'] for p in passes):.6g}",
        "task_p50_ms": f"median of {len(lat)} task latencies",
        "task_tail_ms": f"{tail_label}, {beyond} samples beyond, n={len(lat)}",
        "pass_ratio": f"fail_ratio = {tally.failed}/{tally.attempted}"
                      f" = {tally.failed / tally.attempted:.4g}",
        "peak_rss_mb": "peak resident memory of this process (ru_maxrss)",
    }
    return values, notes


def measure_layers(cli, checks, tracer, workload, seconds, tmp: Path, tally: Tally):
    """Untraced/traced pass pairs; each layer metric is the median over the
    traced passes, and bench.trace_overhead the ratio of median walls."""
    plain, traced = [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        pdir = tmp / f"pass{len(plain)}"
        plain.append(run_pass(cli, workload, pdir / "plain", tally, checks)["wall"])
        tr = tracer.Tracer()
        installed = tracer.install(tr)
        try:
            wall = run_pass(cli, workload, pdir / "traced", tally, checks)["wall"]
        finally:
            installed.restore()
        traced.append((wall, tracer.layer_metrics(tr)))
        shutil.rmtree(pdir)
    values = {k: statistics.median([m[k] for _, m in traced]) for k in traced[0][1]}
    values["bench.trace_overhead"] = statistics.median([w for w, _ in traced]) / statistics.median(plain)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "engel_lab" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}/engel_lab", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2

    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from engel_lab import cli
    from perfbench import tracer, workloads as checks

    workload = checks.build(args.workload, args.seed)
    print(f"provenance: {json.dumps(provenance(), sort_keys=True)}")
    print(f"workload {workload.name}: {len(workload.tasks)} tasks per pass, "
          f"work unit = {workload.unit}, seed {args.seed}")
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        if args.trace:
            values = measure_layers(cli, checks, tracer, workload, args.seconds,
                                    Path(tmp), tally)
            wanted = spec["per_layer"]
            notes = {}
        else:
            values, notes = measure_end_to_end(cli, checks, workload, args.seconds,
                                               Path(tmp), tally)
            wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
        note = notes.get(m["name"])
        if m["name"].endswith("bytes_computed"):
            note = "computed from array sizes, not measured traffic"
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}"
              + (f"  ({note})" if note else ""))
    for label, reason in sorted(tally.known.items()):
        print(f"known defect (counted as failed): {label}: {reason}")
    for line in tally.unexpected:
        print(f"FAILED: {line}")
    correct = not tally.unexpected
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
