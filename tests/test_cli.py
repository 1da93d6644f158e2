import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_blobs
from similearn import cli, harness
from similearn.cli import build_parser, main
from similearn.harness import run_experiment
from similearn.io import read_matrix, write_labels, write_matrix
from similearn.kernels import bank_specs, build_kernel_bank, compute_kernel, normalize_kernel
from similearn.semisupervised import DEFAULT_REPEATS
from similearn.solver import SolverConfig, diagnostics_dict, evaluate_objective, solve

# the directory the package is imported from, for fresh interpreters
SRC = Path(harness.__file__).resolve().parents[1]


@pytest.fixture
def blob_files(tmp_path):
    X, y = two_blobs(n_per=4)
    fp = tmp_path / "feats.csv"
    lp = tmp_path / "labels.csv"
    write_matrix(fp, X)
    write_labels(lp, y)
    return fp, lp


def test_kernels_command(tmp_path, blob_files, capsys):
    fp, _ = blob_files
    out = tmp_path / "bank"
    assert main(["kernels", "--data", str(fp), "--bank", "ssl7", "--out-dir", str(out)]) == 0
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert len(csvs) == 7
    sidecar = json.loads((out / "linear.json").read_text())
    assert sidecar == {
        "family": "linear",
        "params": {},
        "normalized": True,
        "fallback_used": False,
    }
    K = read_matrix(out / "gaussian_t1.csv")
    assert K.shape == (8, 8)


def test_kernels_holds_one_kernel_at_a_time(tmp_path, capsys):
    """kernels writes each kernel before building the next: far below the 12 n^2 of a whole bank."""
    n = 200
    X, _ = two_blobs(n_per=n // 2)
    fp = tmp_path / "feats.csv"
    write_matrix(fp, X)
    tracemalloc.start()
    try:
        rc = main(["kernels", "--data", str(fp), "--out-dir", str(tmp_path / "bank")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 12
    assert peak < 4 * n * n * 8


@pytest.mark.parametrize("bank", ["clustering12", "ssl7"])
def test_kernels_files_match_build_kernel_bank(tmp_path, bank):
    X, _ = two_blobs(n_per=15)
    fp = tmp_path / "feats.csv"
    write_matrix(fp, X)
    assert main(["kernels", "--data", str(fp), "--bank", bank, "--out-dir", str(tmp_path / "cli")]) == 0
    (tmp_path / "lib").mkdir()
    for spec, K, _ in build_kernel_bank(read_matrix(fp), bank):
        name = f"{spec.name}.csv"
        write_matrix(tmp_path / "lib" / name, K)
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()
    assert len(list((tmp_path / "cli").glob("*.csv"))) == len(bank_specs(bank))


# at 1e160 every squared distance overflows, so the first kernel fails; at 1e100
# only the polynomials overflow, and the 8 kernels before them are on disk
@pytest.mark.parametrize("scale, first_bad", [(1e160, 0), (1e100, 8)])
def test_kernels_on_overflowing_features_exits_2(tmp_path, capsys, scale, first_bad):
    X, _ = two_blobs(n_per=4)
    fp, out = tmp_path / "feats.csv", tmp_path / "bank"
    write_matrix(fp, scale * X)
    assert main(["kernels", "--data", str(fp), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    specs = bank_specs("clustering12")
    assert captured.err == (
        f"error: {specs[first_bad].name} kernel is not finite: the features are too "
        "large or too small for it; rescale them\n"
    )
    assert len(captured.out.splitlines()) == first_bad
    assert sorted(out.iterdir()) == sorted(
        out / f"{spec.name}{ext}" for spec in specs[:first_bad] for ext in (".csv", ".json")
    )
    for spec in specs[:first_bad]:
        write_matrix(tmp_path / "want.csv", normalize_kernel(compute_kernel(read_matrix(fp), spec), spec)[0])
        assert (out / f"{spec.name}.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# identical samples, or features so small that d_max^2 is subnormal: the first
# Gaussian kernel fails, and the error names it
@pytest.mark.parametrize("offset, scale", [(1.0, 0.0), (0.0, 1e-160)], ids=["identical", "subnormal"])
def test_kernels_on_degenerate_features_names_the_kernel(tmp_path, capsys, offset, scale):
    X, _ = two_blobs(n_per=4)
    fp, out = tmp_path / "feats.csv", tmp_path / "bank"
    write_matrix(fp, offset + scale * X)
    assert main(["kernels", "--data", str(fp), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: gaussian_t0.01 kernel undefined: d_max^2 = ")
    assert captured.err.endswith("; rescale the features\n")
    assert captured.out == ""
    assert not any(out.iterdir())


@pytest.mark.parametrize("reg", ["low_rank", "sparse"])
def test_learn_writes_what_solve_returns(tmp_path, blob_files, reg):
    fp, _ = blob_files
    main(["kernels", "--data", str(fp), "--bank", "ssl7", "--out-dir", str(tmp_path / "bank")])
    kernel = tmp_path / "bank" / "gaussian_t1.csv"
    z = tmp_path / "z.csv"
    rc = main([
        "learn", "--kernel", str(kernel), "--reg", reg,
        "--alpha", "0.2", "--beta", "0.05", "--max-iter", "30",
        "--out", str(z),
    ])
    assert rc == 0
    cfg = SolverConfig(regularizer=reg, alpha=0.2, beta=0.05, max_iter=30)
    sol = solve(read_matrix(kernel), cfg)
    assert json.loads((tmp_path / "z.diagnostics.json").read_text()) == diagnostics_dict(sol)
    assert read_matrix(z).tobytes() == sol.Z.tobytes()


def test_learn_cluster_ssl_eval_pipeline(tmp_path, blob_files, capsys):
    fp, lp = blob_files
    bank = tmp_path / "bank"
    main(["kernels", "--data", str(fp), "--bank", "clustering12", "--out-dir", str(bank)])

    z = tmp_path / "z.csv"
    rc = main([
        "learn",
        "--kernel", str(bank / "gaussian_t0.1.csv"),
        "--reg", "sparse",
        "--alpha", "0.1", "--beta", "0.1",
        "--out", str(z),
    ])
    assert rc == 0
    assert z.exists()
    diag = json.loads((tmp_path / "z.diagnostics.json").read_text())
    assert set(diag) == {
        "converged", "iterations", "final_rel_change", "residuals", "objective",
    }

    # the canonical name and its alias learn the same Z
    for reg in ("low_rank", "lowrank"):
        rc = main([
            "learn", "--kernel", str(bank / "linear.csv"), "--reg", reg,
            "--max-iter", "20", "--out", str(tmp_path / f"z_{reg}.csv"),
        ])
        assert rc == 0
    assert np.array_equal(
        read_matrix(tmp_path / "z_low_rank.csv"), read_matrix(tmp_path / "z_lowrank.csv")
    )

    cj = tmp_path / "clusters.json"
    rc = main([
        "cluster", "--z", str(z), "--classes", "2", "--seed", "0",
        "--labels", str(lp), "--out", str(cj),
    ])
    assert rc == 0
    out = json.loads(cj.read_text())
    assert len(out["assignments"]) == 8
    assert out["acc"] == 1.0

    sj = tmp_path / "ssl.json"
    rc = main([
        "ssl", "--z", str(z), "--labels", str(lp),
        "--fraction", "0.25", "--repeats", "4", "--gamma", "1.0",
        "--seed", "0", "--out", str(sj),
    ])
    assert rc == 0
    out = json.loads(sj.read_text())
    assert len(out["per_repeat"]) == 4
    assert 0.0 <= out["mean_acc"] <= 1.0

    pred = tmp_path / "pred.csv"
    write_labels(pred, [1, 1, 1, 1, 0, 0, 0, 0])
    capsys.readouterr()
    rc = main(["eval", "--pred", str(pred), "--truth", str(lp)])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got["acc"] == 1.0
    assert got["nmi"] == pytest.approx(1.0)


def test_benchmark_command(tmp_path, blob_files):
    fp, lp = blob_files
    cfg = {
        "task": "ssl",
        "dataset": str(fp),
        "labels": str(lp),
        "out_dir": str(tmp_path / "out"),
        "regularizers": ["sparse"],
        "fractions": [0.25],
        "repeats": 3,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["benchmark", "--config", str(p)]) == 0
    assert (tmp_path / "out" / "results.csv").exists()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["task"] == "ssl"


def write_config(tmp_path, fp, lp, over=None):
    """A small clustering config updated by ``over``; a non-dict replaces it."""
    cfg = {
        "task": "clustering",
        "dataset": str(fp),
        "labels": str(lp),
        "out_dir": str(tmp_path / "out"),
        "regularizers": ["sparse"],
        "max_iter": 20,
    }
    if isinstance(over, dict):
        cfg.update(over)
    elif over is not None:
        cfg = over
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


@pytest.mark.parametrize(
    "over",
    [
        {"repeats": "5"},
        {"mu": "1"},
        {"alphas": 0.1},
        {"max_iter": 2.5},
        {"seed": -1},
        {"save_z": "no"},
        {"labels": None},
        {"task": "ssl", "labels": None},
        {"regularizers": 5},
        {"dataset": None},
        5,
        {"alphas": [float("inf")]},
        {"bank": "nope"},
        {"task": "ssl", "fractions": [1.0]},
        {"alphas": [10**400]},
    ],
)
def test_benchmark_rejects_malformed_config(tmp_path, blob_files, capsys, over):
    p = write_config(tmp_path, *blob_files, over)
    assert main(["benchmark", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "content, detail",
    [
        (b"{bad", "not valid JSON: Expecting property name"),
        (b"\xff\xfe{}", "text"),
        (b'{"task": "clustering", "typo_key": 1}', "unknown config keys: ['typo_key']"),
        (b'{"task": "clustering"}', "config is missing required key 'dataset'"),
    ],
    ids=["bad_json", "binary", "unknown_key", "missing_key"],
)
def test_benchmark_config_errors_name_the_file(tmp_path, capsys, content, detail):
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    assert main(["benchmark", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ")
    assert detail in err
    assert "Traceback" not in err


@pytest.mark.parametrize("broken", ["solve", "compute_kernel"])
def test_benchmark_without_results_exits_2(
    tmp_path, blob_files, capsys, monkeypatch, broken
):
    def fail(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, broken, fail)
    p = write_config(tmp_path, *blob_files)
    assert main(["benchmark", "--config", str(p)]) == 2
    assert "error: no grid cell produced metrics" in capsys.readouterr().err
    # one row per cell of the 12-kernel bank, with empty metrics
    with open(tmp_path / "out" / "results.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["kernel"] for r in rows] == [spec.name for spec in bank_specs("clustering12")]
    assert all(r["acc"] == r["nmi"] == r["iterations"] == "" for r in rows)
    assert all(r["converged"] == "false" for r in rows)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["n_cells"] == manifest["n_failed"] == len(manifest["failures"]) == 12


def test_ssl_relabels_gapped_labels_with_warning(tmp_path):
    z = tmp_path / "z.csv"
    lp = tmp_path / "labels.csv"
    write_matrix(z, np.ones((4, 4)) - np.eye(4))
    write_labels(lp, [0, 0, 2, 2])
    with pytest.warns(UserWarning, match="relabeling"):
        rc = main([
            "ssl", "--z", str(z), "--labels", str(lp), "--fraction", "0.5",
            "--repeats", "2", "--out", str(tmp_path / "ssl.json"),
        ])
    assert rc == 0


def test_eval_rejects_labels_beyond_2_to_the_53(tmp_path, capsys):
    pred, truth = tmp_path / "pred.csv", tmp_path / "truth.csv"
    write_labels(pred, [0, 1, 0, 1])
    truth.write_text("1e20\n2e20\n1e20\n2e20\n")  # would merge into one class as int64
    assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "line 1" in captured.err
    assert captured.out == ""


# S = (|Z| + |Z'|) / 2 overflows on entries of 1e308; no RuntimeWarning may escape
def test_ssl_on_a_z_whose_graph_overflows_exits_2(tmp_path, capsys):
    z, lp = tmp_path / "z.csv", tmp_path / "labels.csv"
    write_matrix(z, np.full((6, 6), 1e308))
    write_labels(lp, [0, 0, 0, 1, 1, 1])
    out = tmp_path / "ssl.json"
    rc = main(["ssl", "--z", str(z), "--labels", str(lp), "--fraction", "0.3", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: Z is too large: S = (|Z| + |Z'|)/2 overflows; rescale Z\n"
    )
    assert not out.exists()


def test_cluster_on_a_z_whose_graph_overflows_exits_2(tmp_path, capsys):
    z, lp = tmp_path / "z.csv", tmp_path / "labels.csv"
    write_matrix(z, np.full((6, 6), 1e308))
    write_labels(lp, [0, 0, 0, 1, 1, 1])
    out = tmp_path / "cluster.json"
    rc = main(["cluster", "--z", str(z), "--classes", "2", "--labels", str(lp), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: Z is too large: S = (|Z| + |Z'|)/2 overflows; rescale Z\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["cluster", "--classes", "2"], ["ssl", "--fraction", "0.5"]]
)
def test_cluster_and_ssl_on_a_non_square_z_exit_2(tmp_path, capsys, command):
    z, lp = tmp_path / "z.csv", tmp_path / "labels.csv"
    write_matrix(z, np.ones((2, 3)))
    write_labels(lp, [0, 0, 1, 1])
    out = tmp_path / "out.json"
    rc = main([*command, "--z", str(z), "--labels", str(lp), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: Z must be square, got shape (2, 3)\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, callee",
    [(["cluster", "--classes", "2"], "cluster"), (["ssl", "--fraction", "0.5"], "ssl_experiment")],
    ids=["cluster", "ssl"],
)
def test_cluster_and_ssl_check_the_label_count_first(
    tmp_path, capsys, monkeypatch, command, callee
):
    z, lp = tmp_path / "z.csv", tmp_path / "labels.csv"
    write_matrix(z, np.ones((6, 6)) - np.eye(6))
    write_labels(lp, [0, 1] * 4)
    monkeypatch.setattr(cli, callee, lambda *a, **k: pytest.fail("labels checked too late"))
    out = tmp_path / "out.json"
    rc = main([*command, "--z", str(z), "--labels", str(lp), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {lp}: label count 8 does not match sample count 6\n"
    )
    assert not out.exists()


# gamma = 1 is within the rounding of L = D - S, whose largest degree d exceeds
# 1 / (n eps): the factorization failed or returned noise-dominated scores
@pytest.mark.parametrize(
    "n, scale",
    [(6, 1e16), (6, 1e17), (6, 1e18), (6, 1e25), (6, 1e303), (6, 1e305), (6, 1e307),
     (50, 1e15), (50, 1e18), (50, 1e20)],
)
def test_ssl_on_a_z_too_large_for_gamma_exits_2(tmp_path, capsys, n, scale):
    z, lp = tmp_path / "z.csv", tmp_path / "labels.csv"
    Z = np.ones((n, n)) if n == 6 else np.random.default_rng(0).random((n, n))
    write_matrix(z, scale * Z)
    write_labels(lp, np.repeat([0, 1], n // 2))
    out = tmp_path / "ssl.json"
    rc = main(["ssl", "--z", str(z), "--labels", str(lp), "--fraction", "0.3", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: L + gamma I is numerically singular: gamma = 1.0 <= n eps d")
    assert err.endswith("; rescale Z or raise gamma\n")
    assert not out.exists()


# no command may load scipy.optimize, scipy.spatial or the scipy.linalg package, nor
# leave any module under them in sys.modules (scipy.linalg's Cython BLAS and LAPACK
# modules run without their package and are not registered): a finder ahead of the
# others records every attempt (an import of scipy.linalg would be one, before its
# __init__ ran), and sys.modules is checked
IMPORT_SET_PROBE = """
import json
import sys

FORBIDDEN = ("scipy.optimize", "scipy.spatial", "scipy.linalg")
attempted = []


class Recorder:
    def find_spec(self, name, path=None, target=None):
        if name.startswith(FORBIDDEN):
            attempted.append(name)
        return None


sys.meta_path.insert(0, Recorder())
import similearn.cli


def loaded():
    return sorted(m for m in sys.modules if m.startswith(FORBIDDEN))


assert (loaded(), attempted) == ([], []), (loaded(), attempted)
for argv in sys.argv[1:]:
    assert similearn.cli.main(json.loads(argv)) == 0, argv
    assert (loaded(), attempted) == ([], []), (argv, loaded(), attempted)
print("ok")
"""


def test_no_command_loads_scipy_optimize_spatial_or_linalg(tmp_path):
    X, y = two_blobs(n_per=4)
    fp, lp, pred = tmp_path / "feats.csv", tmp_path / "labels.csv", tmp_path / "pred.csv"
    write_matrix(fp, X)
    write_labels(lp, y)
    write_labels(pred, 1 - y)
    bank, z = tmp_path / "bank", tmp_path / "z.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"task": "clustering", "dataset": str(fp), "labels": str(lp),
                                  "out_dir": str(tmp_path / "grid"), "max_iter": 5}))
    commands = [
        ["kernels", "--data", str(fp), "--out-dir", str(bank)],
        ["learn", "--kernel", str(bank / "gaussian_t1.csv"), "--reg", "sparse", "--max-iter", "5",
         "--out", str(z)],
        ["cluster", "--z", str(z), "--classes", "2", "--labels", str(lp),
         "--out", str(tmp_path / "cluster.json")],
        ["ssl", "--z", str(z), "--labels", str(lp), "--fraction", "0.3", "--repeats", "2",
         "--out", str(tmp_path / "ssl.json")],
        ["eval", "--pred", str(pred), "--truth", str(lp)],
        ["benchmark", "--config", str(config)],
    ]
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_SET_PROBE, *map(json.dumps, commands)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True,
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.endswith("ok\n")
    # eval scored the swapped labels through hungarian
    assert '{"acc": 1.0, "nmi": 1.0}' in out.stdout.splitlines()


@pytest.mark.parametrize("reg", ["low_rank", "sparse"])
@pytest.mark.parametrize("scale", [1e100, 1e154, 1e160, 1e200])
def test_learn_on_a_kernel_too_large_to_solve_exits_2(tmp_path, capsys, scale, reg):
    # K'W overflows in the first H step, without a numpy warning
    X = np.random.default_rng(0).standard_normal((6, 10))
    kernel = tmp_path / "k.csv"
    write_matrix(kernel, scale * (X @ X.T))
    rc = main(["learn", "--kernel", str(kernel), "--reg", reg, "--out", str(tmp_path / "z.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: H became non-finite at iteration 1\n"
    assert not (tmp_path / "z.csv").exists()


def test_cli_reports_data_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    rc = main(["learn", "--kernel", str(bad), "--reg", "sparse", "--out", str(tmp_path / "z.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--tol", "nan"), ("--tol", "inf"), ("--beta", "inf"), ("--alpha", "nan"), ("--mu", "inf")],
)
def test_learn_rejects_non_finite_numbers(tmp_path, capsys, flag, value):
    k = tmp_path / "k.csv"
    write_matrix(k, np.eye(3))
    out = tmp_path / "z.csv"
    rc = main(["learn", "--kernel", str(k), "--reg", "sparse", flag, value, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "finite" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_learn_flag_defaults_are_solver_defaults():
    args = build_parser().parse_args(["learn", "--kernel", "k", "--reg", "lowrank", "--out", "z"])
    assert args.regularizer == "low_rank"
    for f in fields(SolverConfig):
        if f.name != "regularizer":
            assert getattr(args, f.name) == getattr(SolverConfig(), f.name), f.name


@pytest.mark.parametrize(
    "content, detail",
    [
        (b"1,2\n" + b"1" * 200_000 + b",2\n", "line 2"),  # over csv's field size limit
        (b"1,2\n\xff\xfe,3\n", ""),  # not text in the default encoding
    ],
    ids=["field_limit", "binary"],
)
def test_cli_reports_unreadable_csv(tmp_path, capsys, content, detail):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    rc = main(["cluster", "--z", str(bad), "--classes", "2", "--out", str(tmp_path / "c.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:")
    assert detail in err
    assert "Traceback" not in err


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@st.composite
def _feature_matrices(draw):
    """2-12 samples of 1-4 features, magnitudes 1e-300 to 1e300, with repeats."""
    n, m = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    lo = draw(st.integers(-300, 299))
    hi = draw(st.integers(lo, min(299, lo + draw(st.sampled_from([0, 2, 20, 600])))))
    entry = st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 9.99),
        st.integers(lo, hi),
    )
    X = np.array(draw(st.lists(entry, min_size=n * m, max_size=n * m))).reshape(n, m)
    # constant columns and repeated samples, leaving two samples that may differ
    varying = draw(st.integers(0, m - 1))
    for j in range(m):
        if j != varying and draw(st.booleans()):
            X[:, j] = X[0, j]
    for i in range(2, n):
        if draw(st.booleans()):
            X[i] = X[draw(st.integers(0, i - 1))]
    return X


@settings(max_examples=150, deadline=None)
@given(X=_feature_matrices(), bank=st.sampled_from(["clustering12", "ssl7"]))
def test_kernels_fuzz_exits_cleanly(X, bank):
    """Any finite features: exit 0 with finite, symmetric kernels, or exit 2 with a message."""
    with tempfile.TemporaryDirectory() as tmp:
        fp, out = Path(tmp) / "feats.csv", Path(tmp) / "bank"
        write_matrix(fp, X)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["kernels", "--data", str(fp), "--bank", bank, "--out-dir", str(out)])
        assert rc in (0, 2)
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            assert err.getvalue().startswith("error: ")
            return
        csvs = sorted(out.glob("*.csv"))
        assert len(csvs) == len(bank_specs(bank))
        for p in csvs:
            K = read_matrix(p)
            assert K.shape == (len(X), len(X))
            assert np.isfinite(K).all(), p.name
            assert np.array_equal(K, K.T), p.name


@st.composite
def _kernel_matrices(draw):
    """1-8 rows, square or not, symmetric or not, magnitudes 1e-300 to 1e300."""
    n = draw(st.integers(1, 8))
    m = draw(st.sampled_from([n, n, draw(st.integers(1, 8))]))
    B = np.array(draw(st.lists(st.floats(-9.99, 9.99), min_size=n * m, max_size=n * m)))
    B = B.reshape(n, m) * 10.0 ** draw(st.integers(-300, 298))
    shape = draw(st.sampled_from(["gram", "symmetric", "any"]) if n == m else st.just("any"))
    if shape == "gram":  # positive semidefinite: B B' of a rescaled B, scaled back
        scale = max(np.abs(B).max(), 1e-300)
        B = (B / scale) @ (B / scale).T * scale
    elif shape == "symmetric":
        B = np.triu(B) + np.triu(B, 1).T
    return B


_SPECIAL = ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e300"]
_NUMBER = st.one_of(st.sampled_from([*_SPECIAL, "0.1", "1", "1e-5", "1000"]),
                    st.floats(-1e3, 1e3).map(repr))


@settings(max_examples=200, deadline=None)
@given(
    K=_kernel_matrices(),
    reg=st.sampled_from(["low_rank", "sparse"]),
    flags=st.fixed_dictionaries({}, optional={
        "--alpha": _NUMBER, "--beta": _NUMBER, "--mu": _NUMBER, "--tol": _NUMBER,
        "--max-iter": st.one_of(st.sampled_from(_SPECIAL), st.integers(-2, 60).map(str)),
    }),
)
def test_learn_fuzz_exits_cleanly(K, reg, flags):
    """Any kernel CSV and flags: exit 0 with a finite Z and its objective, or exit 2."""
    with tempfile.TemporaryDirectory() as tmp:
        kp, z = Path(tmp) / "k.csv", Path(tmp) / "z.csv"
        write_matrix(kp, K)
        argv = ["learn", "--kernel", str(kp), "--reg", reg, "--out", str(z)]
        argv += [f"{flag}={value}" for flag, value in flags.items()]  # "=": "-1" is no flag
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as e:  # argparse rejected a flag value
                rc = e.code
        assert rc in (0, 2)
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
        if rc == 2:
            assert err.getvalue().startswith(("error: ", "usage: ")) and not z.exists()
            return
        args = build_parser().parse_args(argv)
        Z = read_matrix(z)
        assert np.isfinite(Z).all() and np.all(np.diag(Z) == 0)
        diagnostics = json.loads((Path(tmp) / "z.diagnostics.json").read_text())
        want = evaluate_objective(read_matrix(kp), Z, args.alpha, args.beta, args.regularizer)
        assert diagnostics["objective"] == want


@st.composite
def _z_matrices(draw):
    """1-8 rows, square or not: zero, subnormal, ordinary or near the float limit."""
    n = draw(st.integers(1, 8))
    m = draw(st.sampled_from([n, n, draw(st.integers(1, 8))]))
    B = np.array(draw(st.lists(st.floats(-9.99, 9.99), min_size=n * m, max_size=n * m)))
    return B.reshape(n, m) * draw(st.sampled_from([0.0, 5e-324, 1e-310, 1.0, 1e300, 1e307]))


def _label_lists(n):
    """Near n labels (gaps, negative ids, one too few or too many): one id per line."""
    return st.sampled_from([0, 0, -1, 1]).flatmap(lambda extra: st.lists(
        st.integers(-2, 9), min_size=max(n + extra, 0), max_size=max(n + extra, 0)))


_INTEGER = st.one_of(st.sampled_from(_SPECIAL), st.integers(-2, 12).map(str))
_SEED = st.one_of(st.sampled_from(["-1", "nan"]), st.integers(0, 2**64).map(str))
_READ_FLAGS = {
    "cluster": st.fixed_dictionaries({"--classes": _INTEGER}, optional={"--seed": _SEED}),
    "ssl": st.fixed_dictionaries({}, optional={
        "--fraction": _NUMBER, "--gamma": _NUMBER, "--seed": _SEED,
        "--repeats": st.one_of(st.sampled_from(_SPECIAL), st.integers(-1, 30).map(str)),
    }),
    "eval": st.just({}),
}


@settings(max_examples=300, deadline=None)
@given(Z=_z_matrices(), command=st.sampled_from(sorted(_READ_FLAGS)), data=st.data())
def test_cluster_ssl_and_eval_fuzz_exit_cleanly(Z, command, data):
    """Any Z, label files and flags: exit 0 with sound scores, or exit 2 with a message."""
    n = len(Z)
    labels = data.draw(_label_lists(n), label="labels")
    flags = data.draw(_READ_FLAGS[command], label="flags")
    with tempfile.TemporaryDirectory() as tmp:
        zp, lp, pp, out = (Path(tmp) / name for name in ("z.csv", "y.csv", "pred.csv", "out.json"))
        write_matrix(zp, Z)
        lp.write_text("".join(f"{label}\n" for label in labels))
        argv = [command, "--z", str(zp), "--out", str(out)]
        if command == "eval":
            pp.write_text("".join(f"{p}\n" for p in data.draw(_label_lists(n), label="pred")))
            argv = ["eval", "--pred", str(pp), "--truth", str(lp)]
        elif command == "ssl" or data.draw(st.booleans(), label="--labels"):
            argv += ["--labels", str(lp)]
        argv += [f"{flag}={value}" for flag, value in flags.items()]  # "=": "-1" is no flag
        stdout, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = main(argv)
            except SystemExit as e:  # argparse rejected a flag value
                rc = e.code
        assert rc in (0, 2)
        assert "Traceback" not in err.getvalue()
        # the one warning a command may give: ssl relabeling ids that have gaps
        for w in caught:
            assert w.category is UserWarning and "relabeling" in str(w.message), w
        if rc == 2:
            assert err.getvalue().startswith(("error: ", "usage: ")) and not out.exists()
            return
        scores = json.loads(stdout.getvalue() if command == "eval" else out.read_text())
        if command == "cluster":
            assert len(scores["assignments"]) == n
            assert set(scores["assignments"]) <= set(range(int(flags["--classes"])))
        if command == "ssl":
            assert len(scores["per_repeat"]) == int(flags.get("--repeats", DEFAULT_REPEATS))
        for key in ("acc", "nmi", "mean_acc"):
            assert key not in scores or 0.0 <= scores[key] <= 1.0 + 1e-12


_HUGE = 10**400  # a JSON integer beyond the float range
_VALID_CONFIG = st.fixed_dictionaries(
    # max_iter always: its default of 300 would make each example slow
    {"max_iter": st.integers(1, 3)},
    optional={
        "task": st.sampled_from(["clustering", "ssl"]),
        "bank": st.sampled_from(["clustering12", "ssl7"]),
        "regularizers": st.lists(st.sampled_from(["low_rank", "sparse"]), min_size=1,
                                 max_size=2, unique=True),
        "alphas": st.lists(st.sampled_from([0.1, 1.0, 1e-300, 1e300]), min_size=1, max_size=2),
        "betas": st.lists(st.sampled_from([0.1, 1.0, 1e-300, 1e300]), min_size=1, max_size=2),
        "gammas": st.lists(st.sampled_from([0.1, 1.0, 1e300]), min_size=1, max_size=2),
        "fractions": st.lists(st.sampled_from([0.1, 0.5, 0.99]), min_size=1, max_size=2),
        "repeats": st.integers(1, 3),
        "mu": st.sampled_from([0.1, 1.0, 1e-300, 1e300]),
        "tol": st.sampled_from([1e-4, 1e-300, 1e300]),
        "seed": st.sampled_from([0, 1, 2**64]),
        "save_z": st.booleans(),
    },
)
_WRONG_VALUES = [None, True, "nan", "0.1", -1, 0, 2.5, float("nan"), 1e308, _HUGE, [], {}]
_WRONG_CONFIG = st.one_of(
    # one key of a valid config set to a value of the wrong type or range
    st.tuples(
        st.sampled_from(sorted(harness.ExperimentConfig.__dataclass_fields__)),
        st.one_of(st.sampled_from(_WRONG_VALUES),
                  st.lists(st.sampled_from(_WRONG_VALUES), min_size=1, max_size=2)),
    ),
    st.tuples(st.just("typo_key"), st.just(1)),
    st.tuples(st.just("missing"), st.sampled_from(["task", "dataset", "labels", "out_dir"])),
    st.tuples(st.just("not_an_object"), st.sampled_from([[], 5, "config"])),
)


@settings(max_examples=200, deadline=None)
@given(
    X=_feature_matrices(),
    config=_VALID_CONFIG,
    wrong=st.one_of(st.none(), st.none(), _WRONG_CONFIG),
    workers=st.sampled_from(["1", "2", "4", "0"]),
    data=st.data(),
)
def test_benchmark_fuzz_exits_cleanly(X, config, wrong, workers, data):
    """Any config, data and labels: exit 0 with results, or exit 2 with a message.

    A grid whose every cell failed exits 2 after writing results.csv and the manifest.
    """
    labels = data.draw(_label_lists(len(X)), label="labels")
    with tempfile.TemporaryDirectory() as tmp:
        fp, lp, cp, out = (Path(tmp) / name for name in ("x.csv", "y.csv", "cfg.json", "out"))
        write_matrix(fp, X)
        lp.write_text("".join(f"{label}\n" for label in labels))
        cfg = {"task": "clustering", "dataset": str(fp), "labels": str(lp), "out_dir": str(out)}
        cfg.update(config)
        key, value = wrong or (None, None)
        if key == "missing":
            del cfg[value]
        elif key == "not_an_object":
            cfg = value
        elif key is not None:
            cfg[key] = value
        cp.write_text(json.dumps(cfg))
        infos = []

        def run_and_keep_info(config):
            rows, info = run_experiment(config)
            infos.append(info)
            return rows, info

        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True), \
                mock.patch.dict(os.environ, {"SIMILEARN_WORKERS": workers}), \
                mock.patch.object(harness, "run_experiment", run_and_keep_info):
            warnings.simplefilter("always")  # recorded, so stderr holds only the error
            try:
                rc = main(["benchmark", "--config", str(cp)])
            except SystemExit as e:
                rc = e.code
        assert rc in (0, 2)
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            assert err.getvalue().startswith(("error: ", "usage: "))
        if not infos:  # the config, data or workers were rejected before the grid ran
            assert rc == 2
            return
        all_failed = infos[0]["n_failed"] == infos[0]["n_cells"]
        assert rc == (2 if all_failed else 0)
        assert (out / "results.csv").exists() and (out / "manifest.json").exists()
        if all_failed:
            assert "error: no grid cell produced metrics" in err.getvalue()
