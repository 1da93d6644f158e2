"""Experiment harness: dataset loading, grid execution, persistence.

A benchmark run walks kernel x regularizer x hyperparameter cells,
learns Z once per cell, evaluates clustering or label propagation, and
writes one CSV row per cell plus two summary rows per parameter group:
the best over the kernel bank and the mean over the kernel bank, the
usual "best kernel (bank average)" way of quoting multi-kernel results.

Best-over-kernels picks by ground-truth metric, so it is an oracle
selection protocol for comparing methods, not a deployable
model-selection rule.

All randomness flows from the single configured seed; reruns with an
equal config produce byte-identical CSV output. Each grid cell is one
job of a thread pool sized by the SIMILEARN_WORKERS environment variable
(default: the usable CPUs): the job builds its kernel, solves and scores.
The pool holds OpenBLAS to one thread per worker while it runs; rows keep
job order within canonically sorted groups, so worker count, completion
order and thread variables never change the output.
"""

import contextlib
import ctypes
import datetime
import itertools
import numbers
import os
import platform
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .graph import cluster
from .io import read_json, read_labels, read_matrix, write_json, write_matrix
from .kernels import bank_specs, compute_kernel, normalize_kernel
from .metrics import accuracy, nmi
from .semisupervised import DEFAULT_GAMMA, DEFAULT_REPEATS, check_protocol, ssl_experiment
from .solver import REGULARIZERS, SolverConfig, canonical_regularizer, require_number, solve

TASKS = ("clustering", "ssl")

BEST_KERNEL = "best_over_kernels"
MEAN_KERNEL = "mean_over_kernels"


@dataclass
class ResultRow:
    """One grid cell or summary line of a benchmark run.

    Metric fields are None when they do not apply (no ground truth
    metric for a failed cell, no NMI for label propagation, no std
    without repeats). objective is the solve's final objective, None on
    summary rows and failed cells.
    """

    dataset: str
    kernel: str
    regularizer: str
    alpha: float
    beta: float
    gamma: Optional[float] = None
    fraction: Optional[float] = None
    acc: Optional[float] = None
    acc_std: Optional[float] = None
    nmi: Optional[float] = None
    nmi_std: Optional[float] = None
    converged: Optional[bool] = None
    iterations: Optional[int] = None
    objective: Optional[float] = None


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass
class ExperimentConfig:
    """Declarative description of one benchmark run (JSON on disk)."""

    task: str
    dataset: str
    labels: str
    out_dir: str
    bank: Optional[str] = None
    regularizers: tuple = REGULARIZERS
    alphas: tuple = (SolverConfig.alpha,)
    betas: tuple = (SolverConfig.beta,)
    gammas: tuple = (DEFAULT_GAMMA,)
    fractions: tuple = (0.1, 0.3, 0.5)
    repeats: int = DEFAULT_REPEATS
    mu: float = SolverConfig.mu
    max_iter: int = SolverConfig.max_iter
    tol: float = SolverConfig.tol
    seed: int = 0
    save_z: bool = False

    def validate(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")
        # both tasks score against ground truth, so labels are required
        for key in ("dataset", "labels", "out_dir"):
            if not isinstance(getattr(self, key), (str, os.PathLike)):
                raise ValueError(f"{key} must be a path, got {getattr(self, key)!r}")
        if self.bank is None:
            self.bank = "clustering12" if self.task == "clustering" else "ssl7"
        bank_specs(self.bank)  # raises on an unknown bank
        self.regularizers = tuple(
            canonical_regularizer(r) for r in _items(self.regularizers, "regularizers")
        )
        self.alphas = _grid(self.alphas, "alphas")
        self.betas = _grid(self.betas, "betas")
        require_number("repeats", self.repeats, numbers.Integral)
        if require_number("seed", self.seed, numbers.Integral) < 0:
            raise ValueError("seed must be nonnegative")
        if self.task == "ssl":
            self.gammas = _grid(self.gammas, "gammas")
            self.fractions = _grid(self.fractions, "fractions")
            for gamma, fraction in itertools.product(self.gammas, self.fractions):
                check_protocol(fraction, self.repeats, gamma)
        if not isinstance(self.save_z, bool):
            raise ValueError(f"save_z must be true or false, got {self.save_z!r}")
        for cell in itertools.product(self.regularizers, self.alphas, self.betas):
            self.solver_config(*cell).validate()
        return self

    def solver_config(self, regularizer, alpha, beta) -> SolverConfig:
        """The SolverConfig of one grid cell; mu, tol and max_iter are shared."""
        shared = dict(mu=self.mu, max_iter=self.max_iter, tol=self.tol)
        return SolverConfig(regularizer=regularizer, alpha=alpha, beta=beta, **shared)


def _items(values, name):
    if not isinstance(values, (list, tuple)) or not values:
        raise ValueError(f"{name} must be a nonempty list, got {values!r}")
    return tuple(values)


def _grid(values, name):
    try:
        return tuple(float(require_number(name, v)) for v in _items(values, name))
    except OverflowError:  # float() of an integer beyond the float range
        raise ValueError(f"{name} must be finite, got an integer beyond float range") from None


def load_experiment_config(path) -> ExperimentConfig:
    """Read and validate a JSON config; every error message starts with ``path``."""
    raw = read_json(path)
    try:
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(raw) - set(ExperimentConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in ("task", "dataset", "labels", "out_dir"):
            if key not in raw:
                raise ValueError(f"config is missing required key {key!r}")
        return ExperimentConfig(**raw).validate()
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def load_dataset(path, labels_path=None):
    """(X, labels, c): the n x m features, one sample per row, and their labels.

    Labels with gaps in their id range are relabeled densely to 0..c-1
    with a warning; features and labels must agree on sample count.
    Without labels_path, labels and c are None.
    """
    X = read_matrix(path)
    if X.shape[0] < 2:
        raise ValueError(f"{path}: need at least 2 samples, got {X.shape[0]}")
    if labels_path is None:
        return X, None, None
    return (X, *dense_labels(read_sample_labels(labels_path, X.shape[0])))


def read_sample_labels(labels_path, n):
    """The labels in labels_path; ValueError naming the file unless there are n."""
    labels = read_labels(labels_path)
    if labels.shape[0] != n:
        raise ValueError(
            f"{labels_path}: label count {labels.shape[0]} does not match sample count {n}"
        )
    return labels


def dense_labels(labels):
    """(labels relabeled to 0..c-1, c); warns when the ids had gaps."""
    uniq, dense = np.unique(labels, return_inverse=True)
    c = uniq.size
    if not np.array_equal(uniq, np.arange(c)):
        warnings.warn(f"labels {uniq.tolist()} are not dense 0..{c - 1}; relabeling")
    return dense, c


def _summarize(cells):
    """Each hyperparameter group's cells in bank order, then its best/mean-over-kernels rows.

    Groups come sorted. Only cells that produced metrics enter the summary
    rows; the best row's std is that of the cell with the best mean accuracy.
    """
    groups = {}
    for r in cells:
        groups.setdefault(_group_key(r), []).append(r)
    out = []
    for key in sorted(groups):
        out += groups[key]
        ok = [r for r in groups[key] if r.acc is not None]
        if not ok:
            continue
        shared = ("dataset", "regularizer", "alpha", "beta", "gamma", "fraction")
        base = {name: getattr(ok[0], name) for name in shared}
        accs = [r.acc for r in ok]
        nmis = [r.nmi for r in ok if r.nmi is not None]
        argbest = int(np.argmax(accs))
        out.append(
            ResultRow(
                kernel=BEST_KERNEL,
                acc=max(accs),
                acc_std=ok[argbest].acc_std,
                nmi=max(nmis) if nmis else None,
                **base,
            )
        )
        out.append(
            ResultRow(
                kernel=MEAN_KERNEL,
                acc=float(np.mean(accs)),
                nmi=float(np.mean(nmis)) if nmis else None,
                **base,
            )
        )
    return out


def _group_key(row):
    """A row's hyperparameter group; None maps to -1 so groups sort."""
    return (
        row.regularizer,
        row.alpha,
        row.beta,
        -1.0 if row.gamma is None else row.gamma,
        -1.0 if row.fraction is None else row.fraction,
    )


def _z_path(out_dir, kernel_name, reg, alpha, beta):
    return Path(out_dir) / f"z_{kernel_name}_{reg}_a{_fmt(alpha)}_b{_fmt(beta)}.csv"


def _clustering_metrics(Z, labels, c, config):
    """Spectral clustering of Z scored by Acc and NMI: one metric dict."""
    pred, _ = cluster(Z, c, seed=config.seed)
    return [{"acc": accuracy(pred, labels), "nmi": nmi(pred, labels)}]


def _ssl_metrics(Z, labels, c, config):
    """Label propagation on Z: one metric dict per gamma x fraction."""
    out = []
    for gamma in config.gammas:
        for fraction in config.fractions:
            acc, acc_std, _ = ssl_experiment(
                Z, labels, fraction, config.repeats, gamma=gamma, seed=config.seed
            )
            out.append(dict(gamma=gamma, fraction=fraction, acc=acc, acc_std=acc_std))
    return out


def run_experiment(config: ExperimentConfig):
    """Solve every grid cell, save Z if asked, score it, and summarize.

    A cell yields one row per metric dict its task's step returns.
    Returns (rows in canonical order, info).
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = os.environ.get("SIMILEARN_WORKERS", str(cpus))
    if not (workers.strip().isdecimal() and int(workers) > 0):
        raise ValueError(f"SIMILEARN_WORKERS must be a positive integer, got {workers!r}")
    workers = int(workers)
    config.validate()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics = _clustering_metrics if config.task == "clustering" else _ssl_metrics
    X, labels, c = load_dataset(config.dataset, config.labels)
    dataset_name = Path(config.dataset).stem

    def run_cell(spec, reg, alpha, beta):
        """One pool job: build spec's kernel, solve, save Z if asked, score; drop K on return."""
        where = dict(kernel=spec.name, regularizer=reg, alpha=alpha, beta=beta)
        cell = dict(where, dataset=dataset_name)
        # not build_kernel_bank, whose first failing kernel would end the bank: a
        # kernel that cannot be built is the error of each of its cells. Only the
        # message is kept, so a failed cell's arrays are not held by a traceback
        try:
            K = normalize_kernel(compute_kernel(X, spec), spec)[0]
            sol = solve(K, config.solver_config(reg, alpha, beta))
            if config.save_z:
                write_matrix(_z_path(out_dir, spec.name, reg, alpha, beta), sol.Z)
            end = dict(converged=sol.converged, iterations=sol.iterations,
                       objective=sol.objective)
            return [
                ResultRow(**cell, **m, **end) for m in metrics(sol.Z, labels, c, config)
            ], None
        except Exception as e:
            error = f"{type(e).__name__}: {e}"
        groups = [(None, None)]
        if config.task == "ssl":  # a failed row in every (gamma, fraction) group, as if scored
            groups = itertools.product(config.gammas, config.fractions)
        rows = [ResultRow(**cell, gamma=g, fraction=f, converged=False) for g, f in groups]
        return rows, dict(where, error=error)

    # kernel-major cells; each worker holds at most one kernel at a time. One
    # BLAS thread per worker: the workers are the parallelism, and
    # multi-threaded OpenBLAS would change the last bits of Z
    cells = itertools.product(bank_specs(config.bank), config.regularizers,
                              config.alphas, config.betas)
    with _single_threaded_blas() as blas:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda cell: run_cell(*cell), cells))

    rows = _summarize([row for cell_rows, _ in results for row in cell_rows])
    failures = [failure for _, failure in results if failure is not None]
    info = {"n_cells": len(results), "n_failed": len(failures), "failures": failures}
    info.update(workers=workers, cpus=cpus, blas_threads=blas, python=platform.python_version(),
                numpy=np.__version__, scipy=scipy.__version__)
    return rows, info


# thread-count symbols of scipy-openblas wheels (numpy's ILP64 build, scipy's
# LP64 one), then the plain ones of older wheels and system OpenBLAS
_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                   "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _openblas_libraries():
    """(path, get_num_threads, set_num_threads) of each OpenBLAS library in the process."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in f})
    except OSError:  # no procfs: no library to budget
        return []
    found = []
    for path in (p for p in paths if "openblas" in Path(p).name.lower() and os.path.isfile(p)):
        lib = ctypes.CDLL(path)
        for name in _THREAD_SYMBOLS:
            get, set_ = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get and set_:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((path, get, set_))
                break
    return found


@contextlib.contextmanager
def _single_threaded_blas():
    """Hold each OpenBLAS library to one thread, restoring its count on exit.

    Yields their [{library, before, during}] thread counts, [] where none is found.
    """
    libs = [(path, get, set_, get()) for path, get, set_ in _openblas_libraries()]
    try:
        for _, _, set_, _ in libs:
            set_(1)
        yield [dict(library=path, before=before, during=get()) for path, get, _, before in libs]
    finally:
        for _, _, set_, before in libs:
            set_(before)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def persist_results(rows, out_dir, config: ExperimentConfig, info=None, wall_clock_s=None):
    """Write results.csv and manifest.json; returns their paths.

    The CSV is fully determined by config + code version; the manifest
    additionally carries wall-clock facts that vary between runs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    csv_path.write_text(rows_to_csv(rows))
    manifest = {
        "config": asdict(config),
        "version": __version__,
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "n_rows": len(rows),
    }
    if info:
        manifest.update(info)
    if wall_clock_s is not None:
        manifest["wall_clock_s"] = wall_clock_s
    manifest_path = out_dir / "manifest.json"
    write_json(manifest_path, manifest)
    return csv_path, manifest_path


def run_benchmark(config_path):
    """Load a config, run the experiment, persist everything.

    Returns (csv_path, manifest_path). Raises ValueError, after both
    files are written, when no cell produced metrics.
    """
    config = load_experiment_config(config_path)
    start = time.perf_counter()
    rows, info = run_experiment(config)
    elapsed = time.perf_counter() - start
    paths = persist_results(rows, config.out_dir, config, info, wall_clock_s=elapsed)
    if all(r.acc is None for r in rows):
        raise ValueError(f"no grid cell produced metrics; see {paths[1]}")
    return paths
