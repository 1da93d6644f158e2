"""The tracer wraps every binding of a public function, nests spans under
their callers, and reports a metric whose function is gone as absent."""

import numpy as np

import similearn.harness as harness
import similearn.solver as solver
from tracing import Tracer, layer_metrics


def kernel(n=12, seed=0):
    X = np.random.default_rng(seed).normal(size=(n, 3))
    K = X @ X.T
    return K / np.abs(K).max()


def test_every_binding_is_wrapped_and_restored():
    original = solver.solve
    tracer = Tracer()
    tracer.install()
    try:
        assert solver.solve is not original
        assert harness.solve is solver.solve
        solver.solve(kernel(), solver.SolverConfig(regularizer="low_rank", max_iter=3))
    finally:
        tracer.uninstall()
    assert solver.solve is original and harness.solve is original

    values, _ = layer_metrics(tracer)
    assert values["solver.solves"] == 1 and values["solver.iterations"] == 3
    assert values["solver.capped_share"] == 1.0
    phases = sum(values[f"solver.update_{p}_s"] for p in "jwhz") + values["solver.objective_s"]
    assert 0 < values["solver.self_s"] < values["solver.solve_s"]
    assert phases < values["solver.solve_s"]


def test_missing_function_is_reported_absent(monkeypatch):
    # as if a later change had renamed prox_l1; low_rank never calls it
    monkeypatch.delattr(solver, "prox_l1")
    tracer = Tracer()
    tracer.install()
    try:
        solver.solve(kernel(), solver.SolverConfig(regularizer="low_rank", max_iter=2))
    finally:
        tracer.uninstall()
    values, absent = layer_metrics(tracer)
    assert absent == ["solver.prox_s"]
    assert values["solver.iterations"] == 2
