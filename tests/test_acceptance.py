"""Acceptance gate: nine criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criterion 8 needs external datasets (see README) and is skipped with an
explicit notice when they are absent; everything else is self-contained.
"""

import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_psd_kernel, two_blobs
from similearn.cli import main as cli_main
from similearn.graph import cluster
from similearn.io import write_labels, write_matrix
from similearn.kernels import build_kernel_bank, kernel_squared_distances
from similearn.metrics import accuracy, nmi
from similearn.semisupervised import ssl_experiment
from similearn.solver import (
    SolverConfig,
    evaluate_objective,
    prox_l1,
    prox_nuclear,
    smooth_gradient,
    smooth_objective,
    solve,
)


def report(num, ok, detail, started):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail} ({time.perf_counter() - started:.1f}s)")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_prox_exactness():
    t0 = time.perf_counter()
    nuc = prox_nuclear(np.diag([3.0, 1.0]), 2.0)
    errs = [
        np.abs(nuc - np.diag([1.0, 0.0])).max(),
        abs(prox_l1(np.array([0.5]), 0.2)[0] - 0.3),
        abs(prox_l1(np.array([-0.1]), 0.2)[0] - 0.0),
        abs(prox_l1(np.array([-0.5]), 0.2)[0] - (-0.3)),
    ]
    report(1, max(errs) <= 1e-10, f"max prox error {max(errs):.2e} <= 1e-10", t0)


def test_criterion_2_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    n, h = 5, 1e-6
    worst = 0.0
    for _ in range(20):
        K = random_psd_kernel(n, rng)
        Z = rng.standard_normal((n, n)) * 0.5
        alpha = float(rng.uniform(0.01, 1.0))
        G = smooth_gradient(K, Z, alpha)
        F = np.zeros_like(G)
        for i in range(n):
            for j in range(n):
                Zp, Zm = Z.copy(), Z.copy()
                Zp[i, j] += h
                Zm[i, j] -= h
                F[i, j] = (
                    smooth_objective(K, Zp, alpha) - smooth_objective(K, Zm, alpha)
                ) / (2 * h)
        worst = max(
            worst,
            np.linalg.norm(G - F, "fro") / max(np.linalg.norm(F, "fro"), 1e-12),
        )
    report(2, worst <= 1e-5, f"worst relative gradient error {worst:.2e} <= 1e-5", t0)


def test_criterion_3_admm_feasibility():
    # kernels are scaled the way the pipeline feeds them to the solver:
    # largest induced squared distance equal to 1
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    converged = 0
    worst_feas, worst_rel = 0.0, 0.0
    for trial in range(10):
        A = rng.standard_normal((30, 30))
        K = A @ A.T
        K /= kernel_squared_distances(K).max()
        sol = solve(K, SolverConfig(regularizer="sparse"))
        converged += sol.converged and sol.iterations <= 300
        feas = max(sol.residuals[-1]) / max(1.0, np.linalg.norm(sol.Z, "fro"))
        worst_feas = max(worst_feas, feas)
        worst_rel = max(worst_rel, sol.rel_change)
    ok = converged == 10 and worst_feas <= 1e-3 and worst_rel < 1e-5
    report(
        3,
        ok,
        f"{converged}/10 converged within 300 iters, worst residual ratio "
        f"{worst_feas:.2e} (need <= 1e-3), worst rel change {worst_rel:.2e} "
        f"(need < 1e-5)",
        t0,
    )


def _pgd_reference(K, alpha, beta, seed, iters=10000):
    """Independent route: proximal gradient with backtracking line search."""
    n = K.shape[0]
    rng = np.random.default_rng(seed)
    Z = rng.uniform(0.0, 1.0 / n, size=(n, n))
    np.fill_diagonal(Z, 0.0)

    def f(Z):
        KZ = K @ Z
        R = K - Z.T @ KZ
        return (
            0.5 * np.trace(K)
            - np.trace(KZ)
            + 0.5 * np.trace(Z.T @ KZ)
            + alpha * (R ** 2).sum()
        )

    def grad(Z):
        R = K - Z.T @ K @ Z
        return K @ Z - K - 4.0 * alpha * (K @ Z @ R)

    def prox(D, tau):
        out = np.sign(D) * np.maximum(np.abs(D) - tau, 0.0)
        np.fill_diagonal(out, 0.0)
        return out

    eta = 1.0
    fz = f(Z)
    for _ in range(iters):
        g = grad(Z)
        while True:
            Zn = prox(Z - eta * g, eta * beta)
            diff = Zn - Z
            fn = f(Zn)
            if fn <= fz + (g * diff).sum() + (diff ** 2).sum() / (2 * eta) + 1e-12:
                break
            eta *= 0.5
            if eta < 1e-12:
                return Z
        Z, fz = Zn, fn
        eta = min(eta * 1.2, 1e3)
    return Z


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(5):
        K = random_psd_kernel(8, rng)
        cfg = SolverConfig(regularizer="sparse", alpha=0.1, beta=0.1)
        sol = solve(K, cfg)
        Zp = _pgd_reference(K, 0.1, 0.1, seed=trial)
        o_admm = evaluate_objective(K, sol.Z, 0.1, 0.1, "sparse")
        o_pgd = evaluate_objective(K, Zp, 0.1, 0.1, "sparse")
        worst = max(worst, abs(o_admm - o_pgd) / abs(o_pgd))
    report(4, worst <= 0.01, f"worst objective gap vs reference {worst:.2e} <= 1%", t0)


def _brute_force_accuracy(pred, truth):
    pu, tu = np.unique(pred), np.unique(truth)
    small, large, flip = (pu, tu, False) if len(pu) <= len(tu) else (tu, pu, True)
    best = 0
    for perm in itertools.permutations(large, len(small)):
        mapping = dict(zip(small, perm))
        if flip:
            hits = sum(p == mapping.get(t) for p, t in zip(pred, truth))
        else:
            hits = sum(mapping.get(p) == t for p, t in zip(pred, truth))
        best = max(best, hits)
    return best / len(pred)


def _nmi_reference(pred, truth):
    n = len(pred)
    joint = {}
    for p, t in zip(pred, truth):
        joint[(p, t)] = joint.get((p, t), 0) + 1
    hp = ht = 0.0
    for p in set(pred):
        q = sum(v for (a, _), v in joint.items() if a == p) / n
        hp -= q * math.log(q)
    for t in set(truth):
        q = sum(v for (_, b), v in joint.items() if b == t) / n
        ht -= q * math.log(q)
    if hp == 0.0 and ht == 0.0:
        return 1.0
    if hp == 0.0 or ht == 0.0:
        return 0.0
    mi = 0.0
    for (p, t), v in joint.items():
        pj = v / n
        pp = sum(w for (a, _), w in joint.items() if a == p) / n
        pt = sum(w for (_, b), w in joint.items() if b == t) / n
        mi += pj * math.log(pj / (pp * pt))
    return max(mi, 0.0) / max(hp, ht)


def test_criterion_5_metric_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst_acc = worst_nmi = 0.0
    for _ in range(400):
        n = int(rng.integers(1, 7))
        pred = rng.integers(0, 3, size=n).tolist()
        truth = rng.integers(0, 3, size=n).tolist()
        worst_acc = max(worst_acc, abs(accuracy(pred, truth) - _brute_force_accuracy(pred, truth)))
        if n >= 2:
            worst_nmi = max(worst_nmi, abs(nmi(pred, truth) - _nmi_reference(pred, truth)))
    worked = nmi([1, 1, 2, 2], [1, 1, 1, 2])
    ok = worst_acc == 0.0 and worst_nmi <= 1e-9 and abs(worked - 0.3113) <= 1e-3
    report(
        5,
        ok,
        f"accuracy matches brute force exactly, nmi within {worst_nmi:.1e} of "
        f"reference, worked example {worked:.6f} within 1e-3 of 0.3113",
        t0,
    )


def test_criterion_6_end_to_end_clustering():
    t0 = time.perf_counter()
    good = 0
    for seed in range(10):
        X, y = two_blobs(n_per=20, sep=10.0, seed=seed)
        bank = build_kernel_bank(X, "clustering12")
        perfect_both = True
        for reg in ("low_rank", "sparse"):
            best = 0.0
            for km in bank:
                sol = solve(km.values, SolverConfig(regularizer=reg))
                pred, _ = cluster(sol.Z, 2, seed=seed)
                best = max(best, accuracy(pred, y))
                if best == 1.0:
                    break
            perfect_both &= best == 1.0
        good += perfect_both
    elapsed = time.perf_counter() - t0
    ok = good >= 9 and elapsed < 120
    report(6, ok, f"best-over-kernels acc 1.0 for both regularizers in {good}/10 seeds", t0)


def test_criterion_7_end_to_end_ssl():
    t0 = time.perf_counter()
    X, y = two_blobs(n_per=20, sep=10.0, seed=0)
    bank = build_kernel_bank(X, "ssl7")
    best = 0.0
    for reg in ("low_rank", "sparse"):
        for km in bank:
            sol = solve(km.values, SolverConfig(regularizer=reg))
            mean_acc, _, _ = ssl_experiment(sol.Z, y, 0.1, repeats=20, gamma=1.0, seed=0)
            best = max(best, mean_acc)
    elapsed = time.perf_counter() - t0
    ok = best >= 0.95 and elapsed < 120
    report(7, ok, f"best mean accuracy {best:.4f} >= 0.95 over 20 repeats", t0)


def _best_over_bank(data, reg, seed=0):
    X, labels, c = data
    bank = build_kernel_bank(X, "clustering12")
    best = 0.0
    for km in bank:
        sol = solve(km.values, SolverConfig(regularizer=reg))
        pred, _ = cluster(sol.Z, c, seed=seed)
        best = max(best, accuracy(pred, labels))
    return best


def test_criterion_8_external_datasets():
    t0 = time.perf_counter()
    data_dir = os.environ.get("SIMILEARN_DATA_DIR")
    if not data_dir:
        print("criterion 8: SKIP - SIMILEARN_DATA_DIR not set (optional, dataset-gated)")
        pytest.skip("external datasets not supplied")
    from similearn.harness import load_dataset

    checks = []
    yale = Path(data_dir) / "yale.csv"
    if yale.exists():
        data = load_dataset(yale, Path(data_dir) / "yale_labels.csv")
        checks.append(("yale low_rank", _best_over_bank(data, "low_rank"), 0.60))
        checks.append(("yale sparse", _best_over_bank(data, "sparse"), 0.58))
    jaffe = Path(data_dir) / "jaffe.csv"
    if jaffe.exists():
        data = load_dataset(jaffe, Path(data_dir) / "jaffe_labels.csv")
        checks.append(("jaffe low_rank", _best_over_bank(data, "low_rank"), 0.95))
    if not checks:
        print(f"criterion 8: SKIP - no yale.csv/jaffe.csv under {data_dir}")
        pytest.skip("no recognized dataset files")
    detail = "; ".join(f"{name} acc {acc:.4f} (need {thr})" for name, acc, thr in checks)
    report(8, all(acc >= thr for _, acc, thr in checks), detail, t0)


def test_criterion_9_benchmark_determinism(tmp_path):
    t0 = time.perf_counter()
    X, y = two_blobs(n_per=4, seed=0)
    fp = tmp_path / "feats.csv"
    lp = tmp_path / "labels.csv"
    write_matrix(fp, X)
    write_labels(lp, y)
    outputs = []
    for run in ("a", "b"):
        cfg = {
            "task": "clustering",
            "dataset": str(fp),
            "labels": str(lp),
            "out_dir": str(tmp_path / f"out_{run}"),
            "regularizers": ["low_rank", "sparse"],
            "alphas": [0.1],
            "betas": [0.1],
            "seed": 0,
        }
        cfg_path = tmp_path / f"cfg_{run}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["benchmark", "--config", str(cfg_path)]) == 0
        outputs.append((tmp_path / f"out_{run}" / "results.csv").read_bytes())
    report(9, outputs[0] == outputs[1], "two benchmark runs wrote byte-identical CSVs", t0)
