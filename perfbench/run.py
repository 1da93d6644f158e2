"""similearn benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload grid_cluster --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from the ``src`` directory of
the checkout that holds this file. Each workload runs in one process with
BLAS pinned to one thread. ``--trace 0`` repeats the workload's timed
region until ``--seconds`` have passed and reports end-to-end medians;
``--trace 1`` alternates plain and traced repetitions and reports
per-layer medians plus the tracing overhead. The last line of the output
is the result JSON.
``--smoke`` runs tiny inputs once, for tests. See perfbench/README.md.
"""

import os
import sys

# Pin BLAS before numpy loads: with default OpenBLAS threading on two
# CPUs, per-iteration solver times spread by half between runs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
THREAD_ENV_BEFORE = {k: os.environ.get(k) for k in THREAD_VARS}
os.environ.update({k: "1" for k in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Clock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import similearn.cli; "
    "print(time.perf_counter() - t)"
)


def setup_seconds(repeats):
    """Median time to import similearn.cli in a fresh interpreter.

    One unmeasured import first compiles the bytecode of the checkout.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for i in range(repeats + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(out.stdout))
    return statistics.median(times)


def blas_libraries():
    """{path: threads} for every BLAS library mapped into this process."""
    import ctypes

    paths = set()
    with open("/proc/self/maps") as f:
        for line in f:
            path = line.split()[-1]
            if "openblas" in Path(path).name.lower():
                paths.add(path)
    found = {}
    for path in sorted(paths):
        threads = None
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
        found[path] = threads
    return found


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    import platform

    import numpy
    import scipy

    try:
        quota = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        quota = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_libraries_threads": blas_libraries(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "thread_env_before_pinning": THREAD_ENV_BEFORE,
        "SIMILEARN_WORKERS": os.environ.get("SIMILEARN_WORKERS"),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cgroup_cpu_max": quota,
        "git_commit": git_commit(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_workload(args):
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](work, args.seed, args.smoke)
        setup = None if args.trace else setup_seconds(1 if args.smoke else SETUP_REPEATS)
        workload.prepare()
        plain, traced, problems = [], [], []
        modes = ("plain", "traced") if args.trace else ("plain",)
        start = time.perf_counter()
        while True:
            for mode in modes:
                tracer = Tracer() if mode == "traced" else None
                outcome = workload.run(Clock(tracer))
                problems += workload.check(outcome)
                if tracer is not None:
                    outcome.layers = layer_metrics(tracer)
                (traced if tracer else plain).append(outcome)
                print(f"rep {len(plain) + len(traced)} {mode}: {outcome.seconds:.4f} s", flush=True)
            enough = len(plain) >= (1 if args.trace else workload.min_reps)
            if args.smoke or (enough and time.perf_counter() - start >= args.seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    outcomes = plain + traced
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print("env " + json.dumps(environment(), sort_keys=True))
    if problems:
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    wall = statistics.median(o.seconds for o in plain)
    report = {"wall_s": (wall, "s"), "failed_share": (failed / attempted, "ratio")}
    if args.trace:
        values = {}
        for name in PER_LAYER:
            samples = [o.layers[0][name] for o in traced if name in o.layers[0]]
            if samples:
                values[name] = statistics.median(samples)
        absent = sorted(set().union(*(o.layers[1] for o in traced)))
        result = {name: (v, PER_LAYER[name][0]) for name, v in values.items()}
        result["trace_overhead_share"] = (
            statistics.median(o.seconds for o in traced) / wall - 1, "ratio")
        print(f"absent {json.dumps(absent)}")
    else:
        result = {"wall_s": (wall, "s"), "setup_s": (setup, "s"),
                  "peak_rss_mb": (peak_rss_mb(), "MB")}
        report.update(plain[-1].data.get("report", {}))
    for name, (value, unit) in {**report, **result}.items():
        print(f"metric {args.workload} {name} {value!r} {unit}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in result.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process; prints every metric line, then a table."""
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        status = status or out.returncode
        rows += [line.split()[1:] for line in out.stdout.splitlines()
                 if line.startswith("metric ")]
    for workload, name, value, unit in rows:
        print(f"{workload:<13} {name:<36} {float(value):>14.6g} {unit}")
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one repetition")
    args = p.parse_args(argv)
    args.seed %= 2**32
    if not (SRC / "similearn" / "__init__.py").is_file():
        print(f"error: no similearn sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
