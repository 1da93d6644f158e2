import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import two_blobs
from similearn import harness
from similearn.cli import build_parser, main
from similearn.io import read_matrix, write_labels, write_matrix
from similearn.solver import SolverConfig, diagnostics_dict, solve

# the directory the package is imported from, for fresh interpreters
SRC = Path(harness.__file__).resolve().parents[1]


@pytest.fixture
def blob_files(tmp_path):
    data = two_blobs(n_per=4)
    fp = tmp_path / "feats.csv"
    lp = tmp_path / "labels.csv"
    write_matrix(fp, data.features)
    write_labels(lp, data.labels)
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
    assert (tmp_path / "out" / "results.csv").exists()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["n_failed"] == 12


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


# the modules only scoring (scipy.optimize) and Gaussian kernels and k-means
# (scipy.spatial) need; learn and ssl must start without them
IMPORT_SET_PROBE = """
import json
import sys
import similearn.cli

def deferred():
    return sorted(m for m in sys.modules if m.startswith(("scipy.optimize", "scipy.spatial")))

assert deferred() == [], deferred()
assert "scipy.linalg" in sys.modules
for argv in sys.argv[1:]:
    assert similearn.cli.main(json.loads(argv)) == 0, argv
    assert deferred() == [], (argv, deferred())
print("ok")
"""


def test_learn_and_ssl_load_neither_scipy_optimize_nor_scipy_spatial(tmp_path):
    data = two_blobs(n_per=4)
    kernel, z, lp = tmp_path / "k.csv", tmp_path / "z.csv", tmp_path / "labels.csv"
    write_matrix(kernel, data.features @ data.features.T)
    write_labels(lp, data.labels)
    learn = ["learn", "--kernel", str(kernel), "--reg", "sparse", "--max-iter", "5", "--out", str(z)]
    ssl = ["ssl", "--z", str(z), "--labels", str(lp), "--fraction", "0.3", "--repeats", "2",
           "--out", str(tmp_path / "ssl.json")]
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_SET_PROBE, json.dumps(learn), json.dumps(ssl)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True,
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.endswith("ok\n")


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
