"""Tests of the benchmark itself: every check rejects a wrong answer, the
tracer restores what it wraps, and every workload runs at a small size.

    python -m pytest -q bench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
from workloads import WORKLOADS

run.import_graphcov()

import graphcov as gc  # noqa: E402
from graphcov import experiment  # noqa: E402


def spectral_instance(n=12, k=6, seed=3):
    graph = gc.sensor_graph(n, seed=seed)
    basis = gc.build_shift(graph, "laplacian").basis()
    psi = gc.build_psi_spectral(basis)
    design = gc.greedy_design(gc.DesignProblem(psi=psi, k=k))
    u_s = basis.eigvecs[list(design.sampler.selected)]
    p = np.abs(gc.frequency_response(basis.eigvals, gc.GraphFilter(np.array([1.0, 0.5, 0.2])))) ** 2
    return basis, psi, design, u_s, p


def test_independent_ls_rejects_perturbed_theta():
    basis, psi, design, u_s, p = spectral_instance()
    model = gc.compress_model(psi, design.sampler)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((len(u_s), 200))
    r_hat = x @ x.T / 200
    theta = gc.ls_estimate(model, gc.vec(r_hat)).theta
    assert checks.independent_ls(u_s, r_hat, theta) is None
    assert checks.independent_ls(u_s, r_hat, theta * (1 + 1e-6)) is not None


def test_exact_recovery_rejects_inexact_cell():
    assert checks.exact_recovery([-270.0, -188.0]) is None
    assert checks.exact_recovery([-270.0, -60.0]) is not None


def test_sampler_validity_rejects_too_few_nodes():
    basis, _, _, u_s, _ = spectral_instance()
    assert checks.sampler_valid(u_s) is None
    assert checks.sampler_valid(basis.eigvecs[:2]) is not None


def test_greedy_objective_rejects_a_drop():
    _, _, design, _, _ = spectral_instance()
    trace = list(design.objective_trace)
    assert checks.greedy_monotone(trace) is None
    trace[2] = trace[1] - 1.0
    assert checks.greedy_monotone(trace) is not None


def test_ruler_coverage_rejects_dropped_mark():
    marks = gc.minimal_sparse_ruler(12)
    assert checks.ruler_covers(marks, 12) is None
    assert checks.ruler_covers(marks[:1] + marks[2:], 12) is not None


def test_nnls_check_rejects_negative_entry():
    assert checks.nonnegative(np.array([0.0, 1.5])) is None
    assert checks.nonnegative(np.array([1e-3, -1e-3])) is not None


def test_crb_checks_reject_shifted_bound_and_low_nmse():
    _, psi, design, u_s, p = spectral_instance()
    model = gc.compress_model(psi, design.sampler)
    r_s = (u_s * p) @ u_s.T
    info = gc.fisher_info(model, gc.CovarianceMatrix(r_s, kind="true"), 1000)
    norm = float(np.linalg.norm(p))
    crb_db = 10 * np.log10(np.trace(info.crb) / norm)
    assert checks.crb_matches(crb_db, u_s, r_s, 1000, norm) is None
    assert checks.crb_matches(crb_db + 0.01, u_s, r_s, 1000, norm) is not None
    assert checks.ls_not_below_crb(crb_db + 0.1, u_s, r_s, 1000, 10_000, norm) is None
    assert checks.ls_not_below_crb(crb_db - 1.0, u_s, r_s, 1000, 10_000, norm) is not None


def test_ar_convergence_rejects_wrong_rate_and_wrong_limit():
    rng = np.random.default_rng(1)

    def draws(centre, ns):
        return list(centre + rng.standard_normal((40, 1)) / np.sqrt(ns))

    exact = np.array([0.2])
    assert checks.ar_convergence(exact, {1000: draws(0.2, 1000), 10000: draws(0.2, 10000)}) is None
    assert checks.ar_convergence(exact, {1000: draws(0.2, 1000), 10000: draws(0.2, 1000)}) is not None
    assert checks.ar_convergence(exact, {1000: draws(0.2, 1000), 10000: draws(0.25, 10000)}) is not None


def test_determinism_rejects_changed_csv():
    assert checks.identical("a,b\n1,2\n", "a,b\n1,2\n") is None
    assert checks.identical("a,b\n1,2\n", "a,b\n1,3\n") is not None


def test_tracer_restores_wrapped_functions_and_records_causes():
    original = experiment.ls_estimate
    config = WORKLOADS["mc-sensor30"].shrunk().study_config(seed=4)
    with tracing.Tracer() as tracer:
        assert experiment.ls_estimate is not original
        traced = experiment.rows_to_csv(experiment.run_experiment(experiment.ExperimentConfig(**config)))
    assert experiment.ls_estimate is original
    plain = experiment.rows_to_csv(experiment.run_experiment(experiment.ExperimentConfig(**config)))
    assert traced == plain
    ls = [s for s in tracer.spans if (s.layer, s.fn) == ("estimators", "ls")]
    assert len(ls) == 2 * 2 * 2  # cells x snapshot counts x trials
    assert {s.cell for s in ls} == {"full", "greedy15"}
    assert {s.trial for s in ls} == {0, 1} and {s.ns for s in ls} == {100, 1000}
    table = tracing.layer_table(tracer.spans, 1.0)
    assert table["estimators.ls_calls"] == 8 and table["models.psi_mb"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_runs_small(name, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    monkeypatch.setattr(run, "SETUP_BATCH_SECONDS", 0.0)
    report = run.run_workload(WORKLOADS[name].shrunk(), seed=1, seconds=0)
    failures = {k: v["failures"] for k, v in report["checks"].items() if v["failures"]}
    assert report["correct"], failures
    assert report["failed"] == 0 and report["attempted"] > 0
    assert all(value > 0 for value in report["end_to_end"].values())
    assert set(report["end_to_end"]) == set(run.END_TO_END_UNITS)
    assert set(report["per_layer"]) == set(run.PER_LAYER_UNITS)


def test_exits_nonzero_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        shutil.copy(path, bench)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "mc-ar60", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
