"""The three benchmark workloads: inputs, timed region and output checks.

Each workload writes its inputs from the seed, then runs one timed
region per repetition through similearn's public entry points, so the
program sees only the generated files:

- grid_cluster: ``harness.run_benchmark`` on the clustering12 grid. It is
  bound by the ADMM solver; io, graph and semisupervised do little work.
- cli_read: the post-solve CLI stages (cluster, ssl at three fractions,
  eval) on an n=1000 block-structured Z. It is bound by ``io.read_matrix``
  and runs no solver; a synthetic Z stands in because an n=1000 solve
  takes minutes.
- cli_write: ``similearn kernels`` on n=600 features, 12 kernel CSVs. It is
  bound by ``io.write_matrix``, the same io layer in the other direction.

``check`` runs after the timed region and returns the problems found; a
single problem fails the run.
"""

import contextlib
import csv
import importlib
import io
import itertools
import json
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter

import numpy as np

from tracing import Rebinder, result_items

CLASSES = 4
FEATURES = 10
CLASS_GAP = 3.0  # distance between class means along every feature
MIN_ACC = 0.9
SSL_FRACTIONS = ("0.1", "0.3", "0.5")


class Outcome:
    """One repetition: timed seconds, operation counts, and check inputs."""

    def __init__(self, seconds, attempted, failed, **data):
        self.seconds = seconds
        self.attempted = attempted
        self.failed = failed
        self.data = data
        self.layers = None  # per-layer metrics, set on traced repetitions


def gaussian_classes(rng, per_class):
    """CLASSES Gaussian classes of unit variance, means CLASS_GAP apart."""
    y = np.repeat(np.arange(CLASSES), per_class)
    X = rng.normal(size=(y.size, FEATURES)) + CLASS_GAP * y[:, None]
    order = rng.permutation(y.size)
    return X[order], y[order]


def block_z(rng, per_class, p_in=0.35, p_out=0.005):
    """A coefficient matrix with one dense block per class plus sparse noise."""
    y = np.repeat(np.arange(CLASSES), per_class)
    y = y[rng.permutation(y.size)]
    p = np.where(y[:, None] == y[None, :], p_in, p_out)
    n = y.size
    Z = np.where(rng.random((n, n)) < p, rng.random((n, n)), 0.0)
    np.fill_diagonal(Z, 0.0)
    return Z, y


def write_floats(path, M):
    np.savetxt(path, M, delimiter=",", fmt="%.17g")


def write_ints(path, v):
    np.savetxt(path, np.asarray(v).reshape(-1, 1), fmt="%d")


def matched_accuracy(pred, truth):
    """Accuracy under the best one-to-one map of clusters to classes."""
    counts = Counter(zip(pred, truth))
    classes = sorted(set(truth))
    clusters = sorted(set(pred)) + [None] * len(classes)
    best = max(
        sum(counts[(c, t)] for c, t in zip(perm, classes))
        for perm in itertools.permutations(clusters, len(classes))
    )
    return best / len(truth)


def run_cli(cli, argv):
    """(exit code, stdout) of one in-process ``similearn`` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:  # a traceback is a failed command, not a failed benchmark
            traceback.print_exc(file=sys.stderr)
            code = 1
    return code, out.getvalue()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class GridCluster:
    name = "grid_cluster"
    min_reps = 2  # one grid takes about as long as a run measures

    def __init__(self, work, seed, smoke):
        self.work = work
        self.seed = seed
        self.per_class = 5 if smoke else 25
        # mu, tol and max_iter stay at the program's defaults except in smoke runs
        self.overrides = {"max_iter": 50} if smoke else {}
        self.harness = importlib.import_module("similearn.harness")
        self.solver = importlib.import_module("similearn.solver")

    def prepare(self):
        X, y = gaussian_classes(np.random.default_rng(self.seed), self.per_class)
        write_floats(self.work / "features.csv", X)
        write_ints(self.work / "labels.csv", y)
        self.out = self.work / "out"
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps({
            "task": "clustering",
            "dataset": str(self.work / "features.csv"),
            "labels": str(self.work / "labels.csv"),
            "out_dir": str(self.out),
            "bank": "clustering12",
            "regularizers": ["low_rank", "sparse"],
            "alphas": [0.1],
            "betas": [0.1],
            "seed": self.seed,
            **self.overrides,
        }))

    def run(self, clock):
        shutil.rmtree(self.out, ignore_errors=True)
        solves = []

        def capture(solve):
            def capturing(*args, **kwargs):
                result = solve(*args, **kwargs)
                solves.append((args, kwargs, result))
                return result
            return capturing

        error = None
        with clock.region(patch=(self.solver, "solve", capture)):
            try:
                self.harness.run_benchmark(str(self.config))
            except Exception as e:  # reported by check
                error = f"{type(e).__name__}: {e}"
        try:
            manifest = json.loads((self.out / "manifest.json").read_text())
            with open(self.out / "results.csv", newline="") as f:
                rows = list(csv.DictReader(f))
        except (OSError, ValueError) as e:
            error = error or f"{type(e).__name__}: {e}"
            manifest, rows = {}, []
        cells = manifest.get("n_cells", 24)
        failed = cells if error else manifest.get("n_failed", cells)
        return Outcome(clock.seconds, cells, failed, error=error, manifest=manifest,
                       rows=rows, solves=solves)

    def check(self, o):
        if o.data["error"]:
            return [f"run_benchmark failed: {o.data['error']}"]
        problems = []
        summary = ("best_over_kernels", "mean_over_kernels")
        cells = [r for r in o.data["rows"] if r["kernel"] not in summary]
        if len(cells) != 24:
            problems.append(f"{len(cells)} cell rows, expected 24")
        if o.data["manifest"].get("n_failed") != 0:
            problems.append(f"n_failed = {o.data['manifest'].get('n_failed')}")
        for reg in ("low_rank", "sparse"):
            best = [float(r["acc"]) for r in o.data["rows"]
                    if r["kernel"] == summary[0] and r["regularizer"] == reg]
            if len(best) != 1 or not best[0] >= MIN_ACC:
                problems.append(f"{reg} best_over_kernels acc {best}, need >= {MIN_ACC}")
        if len(o.data["solves"]) != 24:
            problems.append(f"{len(o.data['solves'])} solves returned, expected 24")
        objectives = []
        for args, kwargs, result in o.data["solves"]:
            K, cfg = args[0], args[1] if len(args) > 1 else kwargs["config"]
            Z = returned_z(result)
            if not (np.all(np.isfinite(Z)) and np.all(np.diag(Z) == 0)):
                problems.append(f"Z of a {cfg.regularizer} cell is not finite with zero diagonal")
                continue
            objectives.append(float(self.solver.evaluate_objective(
                K, Z, cfg.alpha, cfg.beta, cfg.regularizer)))
        if not problems:
            o.data["report"] = {
                "acc_mean": (statistics.fmean(float(r["acc"]) for r in cells), "ratio"),
                "objective_median": (statistics.median(objectives), "1"),
            }
        o.data["solves"] = None  # release the captured matrices
        return problems


def returned_z(result):
    """The coefficient matrix among the items ``solve`` returned."""
    for item in result_items(result):
        for value in (item, getattr(item, "values", None), getattr(item, "Z", None)):
            if isinstance(value, np.ndarray) and value.ndim == 2:
                return value
    raise ValueError("solve returned no 2-D matrix")


class CliRead:
    name = "cli_read"
    min_reps = 1

    def __init__(self, work, seed, smoke):
        self.work = work
        self.seed = seed
        self.per_class = 25 if smoke else 250
        self.cli = importlib.import_module("similearn.cli")

    def prepare(self):
        Z, y = block_z(np.random.default_rng(self.seed), self.per_class)
        self.z = str(self.work / "z.csv")
        self.labels = str(self.work / "labels.csv")
        write_floats(self.z, Z)
        write_ints(self.labels, y)
        self.truth = y

    def run(self, clock):
        out = fresh_dir(self.work / "out")
        seed = str(self.seed)
        codes = {}
        with clock.region():
            codes["cluster"], _ = run_cli(self.cli, [
                "cluster", "--z", self.z, "--classes", str(CLASSES), "--seed", seed,
                "--labels", self.labels, "--out", str(out / "cluster.json")])
            for fraction in SSL_FRACTIONS:
                codes[f"ssl {fraction}"], _ = run_cli(self.cli, [
                    "ssl", "--z", self.z, "--labels", self.labels, "--fraction", fraction,
                    "--repeats", "20", "--seed", seed, "--out", str(out / f"ssl_{fraction}.json")])
            # the user's glue between commands: cluster JSON -> prediction CSV
            try:
                assignments = json.loads((out / "cluster.json").read_text())["assignments"]
                (out / "pred.csv").write_text("".join(f"{a}\n" for a in assignments))
            except (OSError, ValueError, KeyError):
                pass  # eval then fails on the missing file
            codes["eval"], eval_out = run_cli(self.cli, [
                "eval", "--pred", str(out / "pred.csv"), "--truth", self.labels])
        failed = sum(code != 0 for code in codes.values())
        return Outcome(clock.seconds, len(codes), failed, codes=codes, out=out,
                       eval_out=eval_out)

    def check(self, o):
        problems = [f"`{cmd}` exited {code}" for cmd, code in o.data["codes"].items() if code]
        if problems:
            return problems
        out = o.data["out"]
        cluster = json.loads((out / "cluster.json").read_text())
        own = matched_accuracy(cluster["assignments"], self.truth.tolist())
        if not (cluster["acc"] >= MIN_ACC and own >= MIN_ACC):
            problems.append(f"cluster acc {cluster['acc']} (recomputed {own}), need >= {MIN_ACC}")
        for fraction in SSL_FRACTIONS:
            acc = json.loads((out / f"ssl_{fraction}.json").read_text())["mean_acc"]
            if not acc >= MIN_ACC:
                problems.append(f"ssl fraction {fraction} acc {acc}, need >= {MIN_ACC}")
        try:
            scores = json.loads(o.data["eval_out"])
            if abs(scores["acc"] - cluster["acc"]) > 1e-12 or not 0 <= scores["nmi"] <= 1:
                problems.append(f"eval {scores} disagrees with cluster acc {cluster['acc']}")
        except (ValueError, KeyError, TypeError):
            problems.append(f"eval printed no score JSON: {o.data['eval_out']!r}")
        return problems


class CliWrite:
    name = "cli_write"
    min_reps = 1

    def __init__(self, work, seed, smoke):
        self.work = work
        self.seed = seed
        self.per_class = 10 if smoke else 150
        self.cli = importlib.import_module("similearn.cli")

    def prepare(self):
        X, _ = gaussian_classes(np.random.default_rng(self.seed), self.per_class)
        self.features = str(self.work / "features.csv")
        write_floats(self.features, X)

    def run(self, clock):
        out = fresh_dir(self.work / "kernels")
        with clock.region():
            code, _ = run_cli(self.cli, [
                "kernels", "--data", self.features, "--bank", "clustering12",
                "--out-dir", str(out)])
        return Outcome(clock.seconds, 1, int(code != 0), code=code, out=out)

    def check(self, o):
        if o.data["code"]:
            return [f"`kernels` exited {o.data['code']}"]
        n = CLASSES * self.per_class
        paths = sorted(o.data["out"].glob("*.csv"))
        problems = [] if len(paths) == 12 else [f"{len(paths)} kernel CSVs, expected 12"]
        for path in paths:
            K = np.loadtxt(path, delimiter=",", ndmin=2)
            if K.shape != (n, n):
                problems.append(f"{path.name}: shape {K.shape}, expected {(n, n)}")
            elif not np.all(np.isfinite(K)):
                problems.append(f"{path.name}: non-finite entries")
            elif np.abs(K - K.T).max() > 1e-12 * np.abs(K).max():
                problems.append(f"{path.name}: not symmetric")
        return problems


WORKLOADS = {w.name: w for w in (GridCluster, CliRead, CliWrite)}


class Clock:
    """Times one region; installs the tracer, if any, around it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = None

    @contextlib.contextmanager
    def region(self, patch=None):
        """``patch`` = (module, name, factory) rebinds that function, at every
        module attribute bound to it, to ``factory(function)`` for the region."""
        rebinder = Rebinder()
        if self.tracer is not None:
            self.tracer.install()
        try:
            if patch is not None:
                module, name, factory = patch
                current = getattr(module, name, None)
                if current is not None:
                    rebinder.replace({current: factory(current)})
            start = time.perf_counter()
            try:
                yield self
            finally:
                self.seconds = time.perf_counter() - start
        finally:
            rebinder.restore()
            if self.tracer is not None:
                self.tracer.uninstall()
