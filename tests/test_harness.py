import contextlib
import json
import os
import platform
import re
import subprocess
import sys
import threading
import weakref
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
import scipy

from conftest import two_blobs
from similearn import harness, solver
from similearn.cli import main
from similearn.errors import LinearSolveError
from similearn.graph import cluster
from similearn.harness import (
    BEST_KERNEL,
    CSV_COLUMNS,
    MEAN_KERNEL,
    ExperimentConfig,
    _openblas_libraries,
    _single_threaded_blas,
    load_dataset,
    load_experiment_config,
    persist_results,
    rows_to_csv,
    run_benchmark,
    run_experiment,
)
from similearn.io import read_matrix, write_labels, write_matrix
from similearn.kernels import bank_specs, compute_kernel, normalize_kernel
from similearn.metrics import accuracy
from similearn.solver import evaluate_objective


def write_blob_files(tmp_path, n_per=4, seed=0):
    X, y = two_blobs(n_per=n_per, seed=seed)
    fp = tmp_path / "feats.csv"
    lp = tmp_path / "labels.csv"
    write_matrix(fp, X)
    write_labels(lp, y)
    return fp, lp


def small_config(tmp_path, **over):
    fp, lp = write_blob_files(tmp_path)
    cfg = dict(
        task="clustering",
        dataset=str(fp),
        labels=str(lp),
        out_dir=str(tmp_path / "out"),
        regularizers=["low_rank", "sparse"],
        alphas=[0.1],
        betas=[0.1],
        seed=0,
    )
    cfg.update(over)
    return ExperimentConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in cfg.items()}).validate()


# -------------------------------------------------------------- config


def test_config_file_loading(tmp_path):
    fp, lp = write_blob_files(tmp_path)
    cfg = {
        "task": "clustering",
        "dataset": str(fp),
        "labels": str(lp),
        "out_dir": str(tmp_path / "out"),
        "regularizers": ["lowrank"],
        "alphas": [0.01, 0.1],
        "betas": [1],
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    loaded = load_experiment_config(p)
    assert loaded.regularizers == ("low_rank",)
    assert loaded.alphas == (0.01, 0.1)
    assert loaded.bank == "clustering12"


def test_config_rejects_unknown_and_missing(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"task": "clustering", "typo_key": 1}))
    with pytest.raises(ValueError):
        load_experiment_config(p)
    p.write_text(json.dumps({"task": "clustering"}))
    with pytest.raises(ValueError):
        load_experiment_config(p)


def test_config_validation_errors(tmp_path):
    with pytest.raises(ValueError):
        small_config(tmp_path, task="nope")
    with pytest.raises(ValueError):
        small_config(tmp_path, regularizers=["ridge"])
    with pytest.raises(ValueError):
        small_config(tmp_path, alphas=[])
    with pytest.raises(ValueError):
        small_config(tmp_path, task="ssl", fractions=[])
    with pytest.raises(ValueError):
        small_config(tmp_path, task="ssl", fractions=[1.5])
    with pytest.raises(ValueError):
        small_config(tmp_path, regularizers="sparse")
    for bad in (
        dict(repeats="5"),
        dict(mu="1"),
        dict(alphas=0.1),
        dict(alphas=[True]),
        dict(betas=["0.1"]),
        dict(max_iter=2.5),
        dict(seed=-1),
        dict(seed=True),
        dict(save_z="no"),
        dict(labels=None),
        dict(task="ssl", labels=None),
        dict(alphas=[float("inf")]),
        dict(betas=[0.1, float("nan")]),
        dict(alphas=[0.1, -1.0]),
        dict(regularizers=["sparse", "ridge"]),
        dict(tol=float("inf")),
        dict(mu=float("nan")),
        dict(bank="clustering7"),
        dict(task="ssl", gammas=[float("inf")]),
        dict(task="ssl", gammas=[1.0, 0.0]),
        dict(task="ssl", fractions=[1.0]),
        dict(task="ssl", repeats=0),
        dict(alphas=[10**400]),
    ):
        with pytest.raises(ValueError):
            small_config(tmp_path, **bad)
    # numpy scalars are numbers too
    small_config(tmp_path, mu=np.float64(1.0), max_iter=np.int64(5), seed=np.int64(0))


# ------------------------------------------------------------- dataset


def test_load_dataset_basic(tmp_path):
    fp = tmp_path / "x.csv"
    lp = tmp_path / "y.csv"
    write_matrix(fp, np.arange(8.0).reshape(4, 2))
    write_labels(lp, [0, 0, 1, 1])
    X, _, c = load_dataset(fp, lp)
    assert X.shape == (4, 2)
    assert c == 2


def test_load_dataset_relabels_gaps_with_warning(tmp_path):
    fp = tmp_path / "x.csv"
    lp = tmp_path / "y.csv"
    write_matrix(fp, np.arange(8.0).reshape(4, 2))
    write_labels(lp, [0, 0, 2, 2])
    with pytest.warns(UserWarning):
        _, labels, c = load_dataset(fp, lp)
    assert np.array_equal(labels, [0, 0, 1, 1])
    assert c == 2


def test_load_dataset_count_mismatch(tmp_path):
    fp = tmp_path / "x.csv"
    lp = tmp_path / "y.csv"
    write_matrix(fp, np.arange(8.0).reshape(4, 2))
    write_labels(lp, [0, 1])
    with pytest.raises(ValueError, match=f"^{re.escape(str(lp))}: label count 2 does not match"):
        load_dataset(fp, lp)


def test_load_dataset_needs_two_samples(tmp_path):
    fp = tmp_path / "x.csv"
    write_matrix(fp, np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        load_dataset(fp)


# ---------------------------------------------------------------- grid


def test_clustering_grid_row_counts(tmp_path):
    rows, info = run_experiment(small_config(tmp_path))
    cells = [r for r in rows if r.kernel not in (BEST_KERNEL, MEAN_KERNEL)]
    best = [r for r in rows if r.kernel == BEST_KERNEL]
    mean = [r for r in rows if r.kernel == MEAN_KERNEL]
    assert len(cells) == 24  # 12 kernels x 2 regularizers x 1 (alpha, beta)
    assert len(best) == 2 and len(mean) == 2
    assert info["n_cells"] == 24 and info["n_failed"] == 0
    for r in cells:
        assert 0.0 <= r.acc <= 1.0
        assert 0.0 <= r.nmi <= 1.0 + 1e-12
        assert r.iterations >= 1
        assert r.gamma is None and r.fraction is None


def test_summary_rows_recomputable(tmp_path):
    rows, _ = run_experiment(small_config(tmp_path))
    names = [spec.name for spec in bank_specs("clustering12")]
    for reg in ("low_rank", "sparse"):
        # each group: its cells in bank order, then its best and mean rows
        group = [r for r in rows if r.regularizer == reg]
        assert [r.kernel for r in group] == names + [BEST_KERNEL, MEAN_KERNEL]
        cells, (best, mean) = group[:-2], group[-2:]
        assert best.acc == max(r.acc for r in cells)
        assert best.nmi == max(r.nmi for r in cells)
        assert mean.acc == float(np.mean([r.acc for r in cells]))
        assert mean.nmi == float(np.mean([r.nmi for r in cells]))


def _grid_outputs(cfg):
    """results.csv text and {name: bytes} of the saved Z files of one run."""
    csv = rows_to_csv(run_experiment(cfg)[0])
    return csv, {p.name: p.read_bytes() for p in Path(cfg.out_dir).glob("z_*.csv")}


def test_grid_deterministic_and_worker_invariant(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, save_z=True)
    outputs = []
    # "16": more workers than the bank's 12 kernels, fewer than its 24 cells
    for workers in ("1", None, "3", "16"):
        if workers is None:
            monkeypatch.delenv("SIMILEARN_WORKERS", raising=False)
        else:
            monkeypatch.setenv("SIMILEARN_WORKERS", workers)
        outputs.append(_grid_outputs(cfg))
    assert len(outputs[0][1]) == 24
    assert all(out == outputs[0] for out in outputs[1:])


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_holds_at_most_one_kernel_per_worker(tmp_path, monkeypatch, workers):
    built, alive = [], []

    def normalize_and_watch(K, spec):
        K, fallback_used = normalize_kernel(K, spec)
        built.append(weakref.ref(K))
        return K, fallback_used

    def solve_and_count(K, config):
        alive.append(sum(ref() is not None for ref in built))
        return solver.solve(K, config)

    monkeypatch.setattr(harness, "normalize_kernel", normalize_and_watch)
    monkeypatch.setattr(harness, "solve", solve_and_count)
    monkeypatch.setenv("SIMILEARN_WORKERS", str(workers))
    _, info = run_experiment(small_config(tmp_path, max_iter=5))
    # each cell builds its own kernel, and drops it before the worker takes the next
    assert (info["n_cells"], info["n_failed"], len(built), len(alive)) == (24, 0, 24, 24)
    assert 1 <= max(alive) <= workers


def test_more_cells_run_at_once_than_kernels_at_13_workers(tmp_path, monkeypatch):
    # clustering12 has 12 kernels: the first 13 solves wait for each other, so
    # the grid passes only if 13 of its cells run at the same time
    barrier, lock, calls = threading.Barrier(13, timeout=5), threading.Lock(), []

    def solve_at_the_barrier(K, config):
        with lock:
            calls.append(None)
            first = len(calls) <= 13
        if first:
            barrier.wait()
        return solver.solve(K, config)

    monkeypatch.setattr(harness, "solve", solve_at_the_barrier)
    monkeypatch.setenv("SIMILEARN_WORKERS", "13")
    _, info = run_experiment(small_config(tmp_path, max_iter=5))
    assert (info["n_cells"], info["n_failed"], len(calls)) == (24, 0, 24)


@pytest.fixture
def blas_at_two_threads():
    """Every OpenBLAS library at two threads (where it allows), put back after."""
    libs = _openblas_libraries()
    original = [get() for _, get, _ in libs]
    for _, _, set_ in libs:
        set_(2)
    yield libs
    for (_, _, set_), threads in zip(libs, original):
        set_(threads)


def _unrecognized_openblas():
    """Files named like OpenBLAS in /proc/self/maps that _openblas_libraries() misses."""
    with open("/proc/self/maps") as f:
        mapped = {line.split(maxsplit=5)[-1].strip() for line in f}
    openblas = {p for p in mapped if "openblas" in Path(p).name.lower() and os.path.isfile(p)}
    return openblas - {path for path, _, _ in _openblas_libraries()}, openblas


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs procfs")
def test_every_mapped_openblas_library_gets_a_thread_budget():
    # a library whose thread-count symbols go unrecognized would run the grid
    # multi-threaded, and the budget tests would pass without budgeting anything
    assert _unrecognized_openblas()[0] == set()


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs procfs")
def test_openblas_check_fails_when_no_thread_symbol_is_known(monkeypatch):
    # stands in for an OpenBLAS build that exports none of the recognized names
    monkeypatch.setattr(harness, "_THREAD_SYMBOLS", ("no_such_{}_num_threads",))
    missed, openblas = _unrecognized_openblas()
    assert openblas and missed == openblas


@pytest.mark.parametrize("workers", [None, "1"])
def test_grid_at_any_workers_matches_single_threaded_blas(
    tmp_path, monkeypatch, blas_at_two_threads, workers
):
    # at n = 100 OpenBLAS on more than one thread changes the bits of Z;
    # with BLAS left at two threads, the budget alone must give the
    # one-thread results, at the default workers and at one worker
    cfg = small_config(tmp_path, regularizers=["sparse"], max_iter=5, save_z=True)
    write_blob_files(tmp_path, n_per=50)  # over small_config's n = 8 files
    monkeypatch.setenv("SIMILEARN_WORKERS", "1")
    with _single_threaded_blas(), monkeypatch.context() as m:  # pinned from outside
        m.setattr(harness, "_single_threaded_blas", lambda: contextlib.nullcontext([]))
        pinned = _grid_outputs(cfg)
    if workers is None:
        monkeypatch.delenv("SIMILEARN_WORKERS")
    else:
        monkeypatch.setenv("SIMILEARN_WORKERS", workers)
    unpinned = _grid_outputs(cfg)
    assert len(pinned[1]) == 12
    assert unpinned == pinned


@pytest.mark.parametrize("fail_cells", [False, True])
def test_blas_thread_counts_restored_after_the_grid(
    tmp_path, monkeypatch, blas_at_two_threads, fail_cells
):
    if fail_cells:
        def solve_or_fail(K, config, **kwargs):
            if config.regularizer == "low_rank":
                raise LinearSolveError("injected")
            return solver.solve(K, config, **kwargs)

        monkeypatch.setattr(harness, "solve", solve_or_fail)
    before = [get() for _, get, _ in blas_at_two_threads]
    monkeypatch.setenv("SIMILEARN_WORKERS", "3")
    _, info = run_experiment(small_config(tmp_path, max_iter=5))
    assert info["n_failed"] == (12 if fail_cells else 0)
    assert [get() for _, get, _ in blas_at_two_threads] == before
    assert [lib["library"] for lib in info["blas_threads"]] == [
        path for path, _, _ in blas_at_two_threads
    ]
    assert [lib["before"] for lib in info["blas_threads"]] == before
    assert all(lib["during"] == 1 for lib in info["blas_threads"])


def test_blas_thread_counts_restored_when_the_pool_raises(
    tmp_path, monkeypatch, blas_at_two_threads
):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "solve", interrupt)
    before = [get() for _, get, _ in blas_at_two_threads]
    with pytest.raises(KeyboardInterrupt):
        run_experiment(small_config(tmp_path, max_iter=5))
    assert [get() for _, get, _ in blas_at_two_threads] == before


def test_default_workers_are_the_usable_cpus(tmp_path, monkeypatch):
    monkeypatch.delenv("SIMILEARN_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    _, info = run_experiment(small_config(tmp_path, max_iter=5))
    assert info["workers"] == info["cpus"] == 3


def test_default_workers_fall_back_to_cpu_count(tmp_path, monkeypatch):
    monkeypatch.delenv("SIMILEARN_WORKERS", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    _, info = run_experiment(small_config(tmp_path, max_iter=5))
    assert info["workers"] == info["cpus"] == 5


def test_grid_cells_skip_the_objective_trace(tmp_path, monkeypatch):
    """Each solved cell evaluates the objective once, and its row reports that value."""
    real, calls = solver.evaluate_objective, []

    def record(K, Z, alpha, beta, regularizer):
        calls.append((regularizer, real(K, Z, alpha, beta, regularizer)))
        return calls[-1][1]

    monkeypatch.setattr(solver, "evaluate_objective", record)
    monkeypatch.setenv("SIMILEARN_WORKERS", "1")  # calls in job order: bank order per regularizer
    rows, info = run_experiment(small_config(tmp_path))
    assert (info["n_cells"], info["n_failed"], len(calls)) == (24, 0, 24)
    cells = [r for r in rows if r.kernel not in (BEST_KERNEL, MEAN_KERNEL)]
    for reg in ("low_rank", "sparse"):
        assert [r.objective for r in cells if r.regularizer == reg] == [
            value for r, value in calls if r == reg
        ]


def test_save_z_rows_report_the_objective_of_their_z(tmp_path):
    cfg = small_config(tmp_path, save_z=True)
    rows, _ = run_experiment(cfg)
    X, _, _ = load_dataset(cfg.dataset)
    kernels = {spec.name: normalize_kernel(compute_kernel(X, spec), spec)[0]
               for spec in bank_specs(cfg.bank)}
    for row, line in zip(rows, rows_to_csv(rows).splitlines()[1:]):
        if row.kernel in (BEST_KERNEL, MEAN_KERNEL):
            assert row.objective is None and line.endswith(",")
            continue
        Z = read_matrix(tmp_path / "out" / f"z_{row.kernel}_{row.regularizer}_a0.1_b0.1.csv")
        want = evaluate_objective(kernels[row.kernel], Z, 0.1, 0.1, row.regularizer)
        assert row.objective == want and line.endswith("," + repr(float(want)))


def test_save_z_roundtrip(tmp_path):
    cfg = small_config(tmp_path, save_z=True, regularizers=["sparse"])
    rows, _ = run_experiment(cfg)
    row = next(r for r in rows if r.kernel == "linear")
    zp = tmp_path / "out" / "z_linear_sparse_a0.1_b0.1.csv"
    assert zp.exists()
    Z = read_matrix(zp)
    pred, _ = cluster(Z, 2, seed=cfg.seed)
    _, y = two_blobs(n_per=4)
    assert accuracy(pred, y) == row.acc


def test_save_z_names_distinguish_close_alphas(tmp_path):
    cfg = small_config(
        tmp_path, save_z=True, regularizers=["sparse"], alphas=[0.1, 0.1000001]
    )
    _, info = run_experiment(cfg)
    assert info["n_cells"] == 24
    assert len(list((tmp_path / "out").glob("z_*.csv"))) == 24
    assert (tmp_path / "out" / "z_linear_sparse_a0.1000001_b0.1.csv").exists()


def test_ssl_grid_rows(tmp_path):
    fp, lp = write_blob_files(tmp_path, n_per=6)
    cfg = ExperimentConfig(
        task="ssl",
        dataset=str(fp),
        labels=str(lp),
        out_dir=str(tmp_path / "out"),
        regularizers=("sparse",),
        alphas=(0.1,),
        betas=(0.1,),
        gammas=(1.0,),
        fractions=(0.25,),
        repeats=5,
        seed=0,
    ).validate()
    rows, info = run_experiment(cfg)
    cells = [r for r in rows if r.kernel not in (BEST_KERNEL, MEAN_KERNEL)]
    assert len(cells) == 7  # ssl7 bank
    assert all(r.fraction == 0.25 and r.gamma == 1.0 for r in cells)
    assert all(r.acc_std is not None for r in cells)
    assert all(r.nmi is None for r in cells)
    best = [r for r in rows if r.kernel == BEST_KERNEL]
    assert len(best) == 1
    assert best[0].acc == max(r.acc for r in cells)


def test_failed_kernels_recorded_not_fatal(tmp_path):
    # identical samples: every gaussian kernel is degenerate, the rest run
    fp = tmp_path / "x.csv"
    lp = tmp_path / "y.csv"
    write_matrix(fp, np.ones((4, 2)))
    write_labels(lp, [0, 0, 1, 1])
    cfg = ExperimentConfig(
        task="clustering",
        dataset=str(fp),
        labels=str(lp),
        out_dir=str(tmp_path / "out"),
        regularizers=("sparse",),
    ).validate()
    rows, info = run_experiment(cfg)
    assert info["n_cells"] == 12
    assert info["n_failed"] == len(info["failures"]) == 7
    assert all("gaussian" in f["kernel"] for f in info["failures"])
    for f in info["failures"]:
        assert set(f) == {"kernel", "regularizer", "alpha", "beta", "error"}
        assert f["error"].startswith(f"DegenerateKernelError: {f['kernel']} kernel undefined")
    # every cell has a row; the 7 gaussian cells have empty metrics
    cells = [r for r in rows if r.kernel not in (BEST_KERNEL, MEAN_KERNEL)]
    assert [r.kernel for r in cells] == [spec.name for spec in bank_specs("clustering12")]
    failed = [r for r in cells if "gaussian" in r.kernel]
    assert len(failed) == 7
    assert all(r.acc is r.nmi is r.iterations is None and r.converged is False for r in failed)
    ran = [r for r in cells if "gaussian" not in r.kernel]  # linear + 4 polynomial cells
    assert all(r.acc is not None for r in ran)
    # the summary rows cover only the 5 kernels that ran
    best = next(r for r in rows if r.kernel == BEST_KERNEL)
    mean = next(r for r in rows if r.kernel == MEAN_KERNEL)
    assert best.acc == max(r.acc for r in ran)
    assert mean.acc == float(np.mean([r.acc for r in ran]))


def test_failed_ssl_cells_have_a_row_in_every_group(tmp_path):
    # identical samples: the 4 gaussian kernels of ssl7 fail, the other 3 run
    fp, lp = tmp_path / "x.csv", tmp_path / "y.csv"
    write_matrix(fp, np.ones((6, 2)))
    write_labels(lp, [0, 0, 0, 1, 1, 1])
    cfg = ExperimentConfig(
        task="ssl",
        dataset=str(fp),
        labels=str(lp),
        out_dir=str(tmp_path / "out"),
        regularizers=("sparse",),
        gammas=(1.0, 2.0),
        fractions=(0.5,),
        repeats=2,
        max_iter=5,
    ).validate()
    rows, info = run_experiment(cfg)
    assert info["n_cells"] == 7
    assert info["n_failed"] == len(info["failures"]) == 4  # one entry per cell, not per row
    assert all("gaussian" in f["kernel"] for f in info["failures"])
    for gamma in (1.0, 2.0):
        group = [r for r in rows if r.gamma == gamma]
        assert all(r.fraction == 0.5 for r in group)
        cells = [r for r in group if r.kernel not in (BEST_KERNEL, MEAN_KERNEL)]
        assert [r.kernel for r in cells] == [spec.name for spec in bank_specs("ssl7")]
        failed = [r for r in cells if "gaussian" in r.kernel]
        assert len(failed) == 4
        assert all(r.acc is r.acc_std is None and r.converged is False for r in failed)
        ran = [r for r in cells if "gaussian" not in r.kernel]
        assert all(r.acc is not None for r in ran)
        # the group's summary rows follow its cells and cover the 3 kernels that ran
        assert [r.kernel for r in group[len(cells):]] == [BEST_KERNEL, MEAN_KERNEL]
        assert group[-1].acc == float(np.mean([r.acc for r in ran]))
    assert all(r.gamma is not None for r in rows)


def test_overflowing_kernels_recorded_as_failures(tmp_path):
    # features at 1e100: the four polynomial kernels overflow, the rest run
    fp, lp = write_blob_files(tmp_path)
    write_matrix(fp, 1e100 * read_matrix(fp))
    cfg = ExperimentConfig(
        task="clustering",
        dataset=str(fp),
        labels=str(lp),
        out_dir=str(tmp_path / "out"),
        regularizers=("sparse",),
        max_iter=5,
    ).validate()
    _, info = run_experiment(cfg)
    assert info["n_cells"] == 12
    assert info["n_failed"] == 4
    assert [f["kernel"] for f in info["failures"]] == [
        "poly_a0_b2", "poly_a0_b4", "poly_a1_b2", "poly_a1_b4"
    ]
    for f in info["failures"]:
        assert f["error"].startswith(f"DegenerateKernelError: {f['kernel']} kernel is not finite")


# ------------------------------------------------------------- persist


def test_persist_empty_rows(tmp_path):
    cfg = small_config(tmp_path)
    csv_path, manifest_path = persist_results([], tmp_path / "out", cfg)
    text = csv_path.read_text()
    assert text == ",".join(CSV_COLUMNS) + "\n"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["config"]["alphas"] == [0.1]
    assert manifest["config"]["regularizers"] == ["low_rank", "sparse"]
    assert manifest["n_rows"] == 0


def test_csv_formatting(tmp_path):
    rows, _ = run_experiment(small_config(tmp_path, regularizers=["sparse"]))
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    cell = lines[1].split(",")
    assert cell[CSV_COLUMNS.index("alpha")] == "0.1"
    assert cell[CSV_COLUMNS.index("converged")] in ("true", "false")
    assert cell[CSV_COLUMNS.index("gamma")] == ""


def test_benchmark_end_to_end_deterministic(tmp_path):
    fp, lp = write_blob_files(tmp_path)
    for name, out in (("a", "out_a"), ("b", "out_b")):
        cfg = {
            "task": "clustering",
            "dataset": str(fp),
            "labels": str(lp),
            "out_dir": str(tmp_path / out),
            "regularizers": ["sparse"],
            "alphas": [0.1],
            "betas": [0.1],
        }
        p = tmp_path / f"cfg_{name}.json"
        p.write_text(json.dumps(cfg))
        run_benchmark(p)
    a = (tmp_path / "out_a" / "results.csv").read_bytes()
    b = (tmp_path / "out_b" / "results.csv").read_bytes()
    assert a == b
    manifest = json.loads((tmp_path / "out_a" / "manifest.json").read_text())
    assert manifest["n_cells"] == 12


def test_manifest_records_workers_and_blas_threads(tmp_path, monkeypatch, blas_at_two_threads):
    fp, lp = write_blob_files(tmp_path)
    cfg = {"task": "clustering", "dataset": str(fp), "labels": str(lp),
           "out_dir": str(tmp_path / "out"), "regularizers": ["sparse"], "max_iter": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setenv("SIMILEARN_WORKERS", "3")
    _, manifest_path = run_benchmark(cfg_path)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["workers"] == 3
    affinity = getattr(os, "sched_getaffinity", None)
    assert manifest["cpus"] == (len(affinity(0)) if affinity else os.cpu_count() or 1)
    assert manifest["blas_threads"] == [
        {"library": path, "before": get(), "during": 1}
        for path, get, _ in blas_at_two_threads
    ]
    assert manifest["python"] == platform.python_version()
    assert (manifest["numpy"], manifest["scipy"]) == (np.__version__, scipy.__version__)


# runs the grid on worker threads in a fresh interpreter, which loads neither
# scipy.optimize nor scipy.spatial before, during or after it
DEFERRED_IMPORT_PROBE = """
import sys
from similearn.harness import run_benchmark

def loaded():
    return [m in sys.modules for m in ("scipy.optimize", "scipy.spatial")]

assert loaded() == [False, False], loaded()
run_benchmark(sys.argv[1])
assert loaded() == [False, False], loaded()
"""


def test_grid_with_first_imports_on_worker_threads_matches_in_process(tmp_path, monkeypatch):
    import scipy.optimize  # noqa: F401  # in this process both modules are loaded
    import scipy.spatial.distance  # noqa: F401

    fp, lp = write_blob_files(tmp_path, n_per=10)
    monkeypatch.setenv("SIMILEARN_WORKERS", "2")
    paths = {}
    for side in ("fresh", "in_process"):
        cfg = {"task": "clustering", "dataset": str(fp), "labels": str(lp),
               "out_dir": str(tmp_path / side), "max_iter": 20}
        paths[side] = tmp_path / f"{side}.json"
        paths[side].write_text(json.dumps(cfg))
    src = Path(harness.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", DEFERRED_IMPORT_PROBE, str(paths["fresh"])],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert (out.returncode, out.stderr) == (0, "")
    run_benchmark(paths["in_process"])
    fresh = (tmp_path / "fresh" / "results.csv").read_bytes()
    assert fresh == (tmp_path / "in_process" / "results.csv").read_bytes()
    assert json.loads((tmp_path / "fresh" / "manifest.json").read_text())["n_cells"] == 24


def test_workers_variable_checked_before_reading_data(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, dataset=str(tmp_path / "missing.csv"))
    monkeypatch.setenv("SIMILEARN_WORKERS", "abc")
    with pytest.raises(ValueError, match="SIMILEARN_WORKERS"):
        run_experiment(cfg)


@pytest.mark.parametrize("value", ["0", "-2", "1.5", ""])
def test_workers_variable_must_be_a_positive_integer(tmp_path, monkeypatch, capsys, value):
    fp, lp = write_blob_files(tmp_path)
    cfg = {"task": "clustering", "dataset": str(fp), "labels": str(lp),
           "out_dir": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setenv("SIMILEARN_WORKERS", value)
    assert main(["benchmark", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: SIMILEARN_WORKERS must be a positive integer, got {value!r}\n"
    assert not (tmp_path / "out" / "results.csv").exists()


def _readme_config_table():
    """(key, default cell) rows of the README's "Benchmark configs" table."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Benchmark configs", 1)[1].split("\n#", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0].startswith("`"):
            rows.append((cells[0].strip("`"), cells[1]))
    return rows


def test_readme_config_table_matches_schema():
    rows = _readme_config_table()
    assert [key for key, _ in rows] == [f.name for f in fields(ExperimentConfig)]
    for f, (_, cell) in zip(fields(ExperimentConfig), rows):
        if f.default is MISSING:
            assert cell == "required", f.name
        elif cell.startswith("`"):
            default = list(f.default) if isinstance(f.default, tuple) else f.default
            assert json.loads(cell.strip("`")) == default, f.name
        else:
            assert f.default is None, f.name
