import json
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.optimize

from graphcov import (
    ConvergenceError,
    CovarianceMatrix,
    GraphFilter,
    InvalidInputError,
    ObservationModel,
    RankDeficiencyError,
    RepeatedEigenvaluesWarning,
    SingularityError,
    Subsampler,
    build_psi_ma,
    build_psi_spectral,
    build_shift,
    compress_model,
    cycle_graph,
    fisher_info,
    frequency_response,
    path_graph,
    generate_signals,
    ls_estimate,
    nnls_estimate,
    sample_covariance,
    sensor_graph,
    true_covariance,
    vec,
    wls_estimate,
    wls_stationarity_residual,
)
from graphcov import estimators
from graphcov.cli import main
from graphcov.estimators import nmse_db
from graphcov.graphs import SpectralBasis


def mc_nmse(p_true, estimates):
    """NMSE in dB of Monte-Carlo estimates of p_true."""
    sse = sum(float(np.sum((np.asarray(e) - p_true) ** 2)) for e in estimates)
    return nmse_db(sse, len(estimates), float(np.linalg.norm(p_true)))


def plain_model(matrix, kind="spectral"):
    """A model of the bare matrix, without sampled basis rows: LS and NNLS only."""
    matrix = np.asarray(matrix, dtype=float)
    return ObservationModel(matrix=matrix, param_kind=kind)


def scalar_model():
    """The one-node spectral model: G = [[1]], the variance of a single sample."""
    basis = SpectralBasis(eigvecs=np.eye(1), eigvals=np.zeros(1))
    return compress_model(build_psi_spectral(basis), Subsampler.full(1))


def two_node_model(selected=(0, 1)):
    """Spectral model of the 2-node path observed at ``selected``: full rank on both nodes."""
    basis = build_shift(path_graph(2), "laplacian").basis()
    return compress_model(build_psi_spectral(basis), Subsampler(2, selected))


@pytest.fixture(scope="module")
def compressed_setup():
    s = build_shift(sensor_graph(12, seed=2), "laplacian")
    basis = s.basis()
    psi = build_psi_spectral(basis)
    sampler = Subsampler(12, (0, 2, 3, 5, 8, 10))
    model = compress_model(psi, sampler)
    assert model.full_column_rank
    h = GraphFilter([1.0, -0.3])
    p_true = np.abs(frequency_response(basis.eigvals, h)) ** 2
    r_true = true_covariance(s, h).matrix
    return s, sampler, model, h, p_true, r_true


@pytest.fixture(scope="module", params=["real", "complex-dft"])
def k4_setup(request):
    """K=4 compressed spectral model, sample covariance and observation."""
    if request.param == "real":
        s = build_shift(sensor_graph(9, seed=2), "laplacian")
        sampler = Subsampler(9, (1, 4, 7, 8))
    else:
        s = build_shift(cycle_graph(7), "adjacency")
        sampler = Subsampler(7, (0, 1, 3, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)  # the cycle's DFT basis
        psi = build_psi_spectral(s.basis())
    model = compress_model(psi, sampler)
    x = generate_signals(s, GraphFilter([1.0, 0.4]), 50, seed=8)
    cov = sample_covariance(x[list(sampler.selected)])
    return model, cov, vec(cov.matrix)


def dense_weight(cov):
    """``nu N_s (R^{-T} kron R^{-1})`` formed explicitly."""
    r_inv = np.linalg.inv(cov.matrix)
    return 0.5 * cov.n_snapshots * np.kron(r_inv.T, r_inv)


def whitened_system(model, cov, r):
    """Real-stacked ``vec(L^-1 X L^-H)`` of every model column and of r, for R = L L^H, formed densely."""
    l_inv = np.linalg.inv(np.linalg.cholesky(cov.matrix))
    whiten = np.kron(l_inv.conj(), l_inv)
    g_w, r_w = whiten @ model.matrix, whiten @ r
    return np.vstack([g_w.real, g_w.imag]), np.concatenate([r_w.real, r_w.imag])


@pytest.fixture(scope="module")
def ma_setup():
    """Moving-average model (Q=3) of the sensor graph's nodes, and a sample covariance."""
    s = build_shift(sensor_graph(12, seed=2), "laplacian")
    sampler = Subsampler(12, (0, 2, 3, 5, 8, 10))
    model = compress_model(build_psi_ma(s, 3), sampler)
    x = generate_signals(s, GraphFilter([1.0, -0.3]), 200, seed=4)
    cov = sample_covariance(x[list(sampler.selected)])
    return model, cov, vec(cov.matrix)


class TestLs:
    def test_matches_lstsq(self, k4_setup):
        model, _, r = k4_setup
        g = model.matrix
        a = np.vstack([g.real, g.imag]) if np.iscomplexobj(g) else g
        b = np.concatenate([r.real, r.imag]) if np.iscomplexobj(g) else r
        reference = np.linalg.lstsq(a, b, rcond=None)[0]
        for _ in range(2):  # the second call reuses the model's factor
            theta = ls_estimate(model, r).theta
            npt.assert_allclose(theta, reference, rtol=0, atol=1e-10 * np.linalg.norm(reference))

    def test_identity_model(self):
        p = np.array([1.5, 0.25, 3.0])
        res = ls_estimate(plain_model(np.eye(3)), p)
        npt.assert_allclose(res.theta, p, atol=1e-12)
        assert res.method == "ls"
        assert res.condition_number == pytest.approx(1.0)

    def test_noiseless_exact_recovery(self, compressed_setup):
        _, sampler, model, _, p_true, r_true = compressed_setup
        r_y = vec(r_true[np.ix_(sampler.selected, sampler.selected)])
        res = ls_estimate(model, r_y)
        assert np.linalg.norm(res.theta - p_true) < 1e-8 * np.linalg.norm(p_true)
        assert res.residual_norm < 1e-8 * np.linalg.norm(r_y)

    def test_rank_deficient_raises_with_rank(self):
        matrix = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(RankDeficiencyError) as excinfo:
            ls_estimate(plain_model(matrix), np.ones(3))
        assert excinfo.value.rank == 1

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            ls_estimate(plain_model(np.eye(2)), np.array([1.0, np.nan]))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            ls_estimate(plain_model(np.eye(2)), np.ones(3))


class TestNnls:
    def test_matches_ls_when_interior(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 3))
        theta = np.array([1.0, 2.0, 0.5])
        r = a @ theta
        model = plain_model(a)
        npt.assert_allclose(nnls_estimate(model, r).theta, ls_estimate(model, r).theta, atol=1e-10)

    def test_clips_to_boundary(self):
        res = nnls_estimate(plain_model(np.eye(2)), np.array([1.0, -0.5]))
        npt.assert_allclose(res.theta, [1.0, 0.0], atol=1e-12)

    def test_objective_beats_clipped_ls(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            a = rng.standard_normal((10, 4))
            r = rng.standard_normal(10)
            model = plain_model(a)
            nn = nnls_estimate(model, r)
            clipped = np.clip(ls_estimate(model, r).theta, 0.0, None)
            assert nn.residual_norm <= np.linalg.norm(a @ clipped - r) + 1e-12

    def test_reduced_system_matches_stacked_nnls(self, k4_setup):
        model, _, _ = k4_setup
        g = model.matrix
        rng = np.random.default_rng(4)
        theta0 = rng.standard_normal(model.n_params)  # negative entries: active constraints
        r = g @ theta0 + 0.1 * rng.standard_normal(g.shape[0])
        assert ls_estimate(model, r).theta.min() < 0
        a = np.vstack([g.real, g.imag])
        b = np.concatenate([r.real, r.imag])
        reference, _ = scipy.optimize.nnls(a, b)
        res = nnls_estimate(model, r)
        assert np.sum(res.theta == 0.0) >= 1
        npt.assert_allclose(res.theta, reference, rtol=0, atol=1e-10 * np.linalg.norm(reference))
        assert res.residual_norm == pytest.approx(np.linalg.norm(g @ reference - r), rel=1e-10)

    @staticmethod
    def random_problems(seed, count=240):
        """Full-rank least-squares problems with M = 2..60, condition numbers 1 to 1e5, random signs."""
        rng = np.random.default_rng(seed)
        for trial in range(count):
            m = int(rng.integers(2, 61))
            rows = m + int(rng.integers(0, m + 1))
            u = np.linalg.qr(rng.standard_normal((rows, m)))[0]
            v = np.linalg.qr(rng.standard_normal((m, m)))[0]
            cond = (1.0, 1e2, 1e5)[trial % 3]
            yield (u * np.logspace(0, -np.log10(cond), m)) @ v.T, rng.standard_normal(rows)

    def test_matches_scipy_on_the_reduced_pair(self):
        # the reference is scipy's solver on the M x M pair (reduced, reduced theta_LS)
        active = 0
        for a, b in self.random_problems(seed=10):
            model = plain_model(a)
            reduced, m = model.reduced, model.n_params
            reference, _ = scipy.optimize.nnls(reduced, reduced @ (model.pinv @ b), maxiter=10 * m * m)
            theta = nnls_estimate(model, b).theta
            assert np.linalg.norm(theta - reference) <= 1e-10 * np.linalg.norm(reference)
            active += bool(np.any(theta == 0.0))
        assert active >= 200

    def test_optimality_conditions(self):
        # theta >= 0, and the gradient R^T (R theta - t) is within the documented
        # tolerance 10 M eps ||H||_1 max|theta_LS| of 0 on the support and of
        # nonnegative on the zero set
        for a, b in self.random_problems(seed=11, count=120):
            model = plain_model(a)
            reduced, m = model.reduced, model.n_params
            theta_ls = model.pinv @ b
            h = reduced.T @ reduced
            tol = 10 * m * np.finfo(float).eps * np.abs(h).sum(axis=0).max() * np.abs(theta_ls).max()
            theta = nnls_estimate(model, b).theta
            grad = reduced.T @ (reduced @ (theta - theta_ls))
            support = theta > 0.0
            assert np.all(theta >= 0.0)
            assert np.all(np.abs(grad[support]) <= tol)
            assert np.all(grad[~support] >= -tol)

    def test_negative_target_on_nonnegative_columns_gives_zero(self):
        # A >= 0 and b < 0: ||A theta - b|| >= ||b|| for every theta >= 0, with equality at 0
        rng = np.random.default_rng(12)
        a = np.abs(rng.standard_normal((20, 6)))
        b = -np.abs(rng.standard_normal(20))
        res = nnls_estimate(plain_model(a), b)
        npt.assert_array_equal(res.theta, np.zeros(6))
        assert res.residual_norm == pytest.approx(np.linalg.norm(b), rel=1e-14)

    def test_positive_ls_estimate_returned_unchanged(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((40, 8))
        r = a @ (1.0 + rng.random(8)) + 0.01 * rng.standard_normal(40)
        model = plain_model(a)
        ls = ls_estimate(model, r).theta
        assert ls.min() > 0
        npt.assert_array_equal(nnls_estimate(model, r).theta, ls)

    def test_exhausted_cap_raises_convergence_error(self, monkeypatch):
        model = plain_model(np.eye(3))
        r = np.array([1.0, -1.0, 2.0])
        npt.assert_array_equal(nnls_estimate(model, r).theta, [1.0, 0.0, 2.0])
        monkeypatch.setattr(estimators, "NNLS_CAP", 0)
        with pytest.raises(ConvergenceError, match="exhausted"):
            nnls_estimate(model, r)
        # an LS estimate that is already positive needs no solve
        npt.assert_array_equal(nnls_estimate(model, np.abs(r)).theta, np.abs(r))

    def test_exhausted_cap_exits_3_from_the_cli(self, monkeypatch, tmp_path, capsys):
        graph, sampler, snaps = (tmp_path / name for name in ("g.json", "s.json", "snaps.csv"))
        assert main(["graph", "gen", "--kind", "sensor", "--n", "16", "--seed", "3", "--out", str(graph)]) == 0
        sampler.write_text(Subsampler(16, (0, 2, 3, 5, 7, 8, 11, 12, 14)).to_json())
        assert main(["signal", "gen", "--graph", str(graph), "--coeffs", "1,0.5,0.2", "--ns", "20",
                     "--seed", "1", "--out", str(snaps)]) == 0
        estimate = ["estimate", "--graph", str(graph), "--snapshots", str(snaps), "--sampler", str(sampler)]
        outputs = {}
        for method in ("ls", "nnls"):
            assert main([*estimate, "--method", method, "--out", str(tmp_path / method)]) == 0
            outputs[method] = json.loads((tmp_path / method).read_text())["theta"]
        assert min(outputs["ls"]) < 0 and min(outputs["nnls"]) >= 0
        monkeypatch.setattr(estimators, "NNLS_CAP", 0)
        assert main([*estimate, "--method", "nnls", "--out", str(tmp_path / "capped")]) == 3
        assert "exhausted" in capsys.readouterr().err
        assert not (tmp_path / "capped").exists()

    def test_average_nmse_not_worse_than_ls(self, compressed_setup):
        s, sampler, model, h, p_true, _ = compressed_setup
        ls_runs, nn_runs = [], []
        for trial in range(100):
            x = generate_signals(s, h, 300, seed=2000 + trial)
            r = vec(sample_covariance(x[list(sampler.selected)]).matrix)
            ls_runs.append(ls_estimate(model, r).theta)
            nn_runs.append(nnls_estimate(model, r).theta)
        assert mc_nmse(p_true, nn_runs) <= mc_nmse(p_true, ls_runs)
        assert all(t.min() >= 0 for t in nn_runs)


class TestWls:
    def test_matches_dense_weight(self, k4_setup):
        model, cov, r = k4_setup
        g = model.matrix
        weight = dense_weight(cov)
        normal = np.real(g.conj().T @ weight @ g)
        reference = np.linalg.solve(normal, np.real(g.conj().T @ weight @ r))
        theta = wls_estimate(model, r, cov).theta
        npt.assert_allclose(theta, reference, rtol=0, atol=1e-12 * np.linalg.norm(reference))

    def test_rank_one_path_matches_whitening_path(self, k4_setup):
        # the K x M path solves least squares on the explicitly whitened system
        model, cov, r = k4_setup
        assert model.sampled_basis is not None
        a, b = whitened_system(model, cov, r)
        reference = np.linalg.lstsq(a, b, rcond=None)[0]
        res = wls_estimate(model, r, cov)
        npt.assert_allclose(res.theta, reference, rtol=0, atol=1e-12 * np.linalg.norm(reference))

    def test_loaded_weight_matches_whitening_path(self, compressed_setup):
        # N_s = 3 < K = 6: the weight is the sample covariance loaded by delta,
        # which puts the normal matrix's condition number near 1e10; so theta
        # agrees with least squares on the explicitly whitened loaded system to
        # 1e-5, and solves the dense loaded normal equations to a backward
        # error of 1e-9.
        s, sampler, model, h, _, _ = compressed_setup
        cov = sample_covariance(generate_signals(s, h, 3, seed=17)[list(sampler.selected)])
        r = vec(cov.matrix)
        delta = 1e-8 * np.trace(cov.matrix) / sampler.k
        assert cov.min_eigenvalue < delta
        theta = wls_estimate(model, r, cov).theta
        loaded = CovarianceMatrix(cov.matrix + delta * np.eye(sampler.k), kind="sample", n_snapshots=3)
        reference = np.linalg.lstsq(*whitened_system(model, loaded, r), rcond=None)[0]
        npt.assert_allclose(theta, reference, rtol=0, atol=1e-5 * np.linalg.norm(reference))
        g, weight = model.matrix, dense_weight(loaded)
        normal, rhs = g.T @ weight @ g, g.T @ weight @ r
        backward = np.linalg.norm(normal @ theta - rhs) / (np.linalg.norm(normal) * np.linalg.norm(theta))
        assert backward < 1e-9

    def test_stationarity_on_rank_one_path(self, k4_setup):
        model, cov, r = k4_setup
        theta = wls_estimate(model, r, cov).theta
        assert wls_stationarity_residual(model, theta, r, cov) < 1e-8

    def test_moving_average_matches_dense_weight(self, ma_setup):
        model, cov, r = ma_setup
        assert model.param_map is not None
        g, weight = model.matrix, dense_weight(cov)
        reference = np.linalg.solve(g.T @ weight @ g, g.T @ weight @ r)
        theta = wls_estimate(model, r, cov).theta
        npt.assert_allclose(theta, reference, rtol=0, atol=1e-10 * np.linalg.norm(reference))
        assert wls_stationarity_residual(model, theta, r, cov) < 1e-8

    def test_condition_number_of_whitened_system(self, k4_setup):
        model, cov, r = k4_setup
        stacked, _ = whitened_system(model, cov, r)
        res = wls_estimate(model, r, cov)
        assert res.condition_number == pytest.approx(np.linalg.cond(stacked), rel=1e-8)

    def test_identity_weight_equals_ls(self, compressed_setup):
        _, sampler, model, _, _, _ = compressed_setup
        rng = np.random.default_rng(2)
        x = rng.standard_normal((sampler.k, 2 * sampler.k))
        r = vec(x @ x.T)
        weight = CovarianceMatrix(np.eye(sampler.k), kind="true")
        reference = ls_estimate(model, r).theta
        npt.assert_allclose(
            wls_estimate(model, r, weight).theta, reference, rtol=0, atol=1e-10 * np.linalg.norm(reference)
        )

    def test_scalar_case(self):
        model = scalar_model()
        weight = CovarianceMatrix(np.array([[0.3]]), kind="sample", n_snapshots=10)
        res = wls_estimate(model, np.array([2.5]), weight)
        npt.assert_allclose(res.theta, [2.5], atol=1e-12)

    def test_stationarity_at_solution(self, compressed_setup):
        s, sampler, model, h, _, _ = compressed_setup
        x = generate_signals(s, h, 500, seed=99)
        cov = sample_covariance(x[list(sampler.selected)])
        r = vec(cov.matrix)
        theta = wls_estimate(model, r, cov).theta
        assert wls_stationarity_residual(model, theta, r, cov) < 1e-8
        # the unweighted solution does not satisfy the weighted equations
        theta_ls = ls_estimate(model, r).theta
        assert wls_stationarity_residual(model, theta_ls, r, cov) > 1e-4

    def test_mse_not_worse_than_ls(self, compressed_setup):
        s, sampler, model, h, p_true, _ = compressed_setup
        mse_ls = mse_wls = 0.0
        for trial in range(300):
            x = generate_signals(s, h, 1000, seed=5000 + trial)
            cov = sample_covariance(x[list(sampler.selected)])
            r = vec(cov.matrix)
            err_ls = ls_estimate(model, r).theta - p_true
            err_wls = wls_estimate(model, r, cov).theta - p_true
            mse_ls += err_ls @ err_ls
            mse_wls += err_wls @ err_wls
        assert mse_wls <= 1.05 * mse_ls

    def test_zero_covariance_rejected(self):
        model = two_node_model()
        weight = CovarianceMatrix(np.zeros((2, 2)), kind="true")
        with pytest.raises(SingularityError):
            wls_estimate(model, np.zeros(4), weight)

    def test_singular_sample_covariance_is_regularized(self, compressed_setup):
        # fewer snapshots than observed nodes: rank-deficient weight matrix
        s, sampler, model, h, _, _ = compressed_setup
        x = generate_signals(s, h, 3, seed=17)
        cov = sample_covariance(x[list(sampler.selected)])
        assert np.linalg.matrix_rank(cov.matrix) < sampler.k
        res = wls_estimate(model, vec(cov.matrix), cov)
        assert np.all(np.isfinite(res.theta))


def stacked_case(kind, n_snapshots, trials=5):
    """A compressed model and ``trials`` sample covariances of its nodes, from independent seeds."""
    if kind == "dft":
        shift, sel = build_shift(cycle_graph(7), "adjacency"), (0, 1, 3, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)  # the cycle's DFT basis
            psi = build_psi_spectral(shift.basis())
    else:
        shift, sel = build_shift(sensor_graph(12, seed=2), "laplacian"), (0, 2, 3, 5, 8, 10)
        psi = build_psi_ma(shift, 3) if kind == "ma" else build_psi_spectral(shift.basis())
    model = compress_model(psi, Subsampler(shift.n, sel))
    covs = [
        sample_covariance(generate_signals(shift, GraphFilter([1.0, -0.3]), n_snapshots, seed=seed)[list(sel)])
        for seed in range(trials)
    ]
    return model, covs


class TestStackedWls:
    @pytest.mark.parametrize("n_snapshots", [3, 200], ids=["loaded", "full-rank"])
    @pytest.mark.parametrize("kind", ["sensor", "dft", "ma"])
    def test_rows_equal_single_calls(self, kind, n_snapshots):
        model, covs = stacked_case(kind, n_snapshots)
        stack = CovarianceMatrix(np.stack([c.matrix for c in covs]), kind="sample", n_snapshots=n_snapshots)
        r = np.stack([vec(c.matrix) for c in covs])
        res = wls_estimate(model, r, stack)
        assert res.theta.shape == (len(covs), model.n_params)
        for t, cov in enumerate(covs):
            one = wls_estimate(model, r[t], cov)
            scale = np.linalg.norm(one.theta)
            npt.assert_allclose(res.theta[t], one.theta, rtol=0, atol=1e-12 * scale)
            assert res.residual_norm[t] == pytest.approx(one.residual_norm, rel=1e-12)
            assert res.condition_number[t] == pytest.approx(one.condition_number, rel=1e-12)

    def test_failed_trial_alone_is_nan_across_a_block_boundary(self, monkeypatch):
        model, covs = stacked_case("sensor", 200)
        mats = np.stack([c.matrix for c in covs])
        mats[2] = 0.0  # zero trace: the loading has nothing to scale
        r = np.stack([vec(m) for m in mats])
        monkeypatch.setattr(estimators, "_BLOCK_ROWS", 2 * model.sampled_basis.shape[1])
        assert [list(b) for b in estimators.trial_blocks(5, 12)] == [[0, 1], [2, 3], [4]]
        res = wls_estimate(model, r, CovarianceMatrix(mats, kind="sample", n_snapshots=200))
        assert np.isnan(res.theta[2]).all()
        assert np.isnan(res.residual_norm[2]) and np.isnan(res.condition_number[2])
        for t in (0, 1, 3, 4):
            one = wls_estimate(model, r[t], covs[t]).theta
            npt.assert_allclose(res.theta[t], one, rtol=0, atol=1e-12 * np.linalg.norm(one))
        with pytest.raises(SingularityError):
            wls_estimate(model, r[2], CovarianceMatrix(mats[2], kind="sample", n_snapshots=200))

    def test_stack_shapes_must_match(self):
        model, covs = stacked_case("sensor", 200, trials=3)
        stack = CovarianceMatrix(np.stack([c.matrix for c in covs]), kind="sample", n_snapshots=200)
        r = np.stack([vec(c.matrix) for c in covs])
        with pytest.raises(InvalidInputError, match="do not match"):
            wls_estimate(model, r[:2], stack)
        with pytest.raises(InvalidInputError, match="length 108"):  # one covariance: r is one vector
            wls_estimate(model, r, covs[0])

    def test_single_covariance_functions_refuse_a_stack(self):
        model, covs = stacked_case("sensor", 200, trials=2)
        stack = CovarianceMatrix(np.stack([c.matrix for c in covs]), kind="sample", n_snapshots=200)
        with pytest.raises(InvalidInputError, match="stack"):
            fisher_info(model, stack, 200)
        with pytest.raises(InvalidInputError, match="stack"):
            wls_stationarity_residual(model, np.ones(model.n_params), vec(covs[0].matrix), stack)

    def test_diagnostics_are_computed_when_read(self, monkeypatch):
        model, covs = stacked_case("sensor", 200, trials=1)
        r = vec(covs[0].matrix)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        res = wls_estimate(model, r, covs[0])
        assert calls == []
        assert res.condition_number >= 1.0 and len(calls) == 1
        assert res.condition_number >= 1.0 and len(calls) == 1  # computed once
        assert res.residual_norm == pytest.approx(np.linalg.norm(model.matrix @ res.theta - r))


class TestFisher:
    def test_matches_dense_weight(self, k4_setup):
        model, cov, _ = k4_setup
        g = model.matrix
        reference = np.real(g.conj().T @ dense_weight(cov) @ g)
        info = fisher_info(model, cov, cov.n_snapshots)
        npt.assert_allclose(info.matrix, reference, rtol=0, atol=1e-12 * np.abs(reference).max())

    def test_rank_one_path_matches_whitening_path(self, k4_setup):
        # F = nu N_s A^T A for the explicitly whitened real-stacked columns A
        model, cov, r = k4_setup
        a, _ = whitened_system(model, cov, r)
        reference = 0.5 * cov.n_snapshots * (a.T @ a)
        info = fisher_info(model, cov, cov.n_snapshots)
        npt.assert_allclose(info.matrix, reference, rtol=0, atol=1e-12 * np.abs(reference).max())
        crb = np.linalg.inv(reference)
        npt.assert_allclose(info.crb, crb, rtol=0, atol=1e-10 * np.abs(crb).max())

    def test_moving_average_matches_dense_weight(self, ma_setup):
        model, cov, _ = ma_setup
        g = model.matrix
        reference = np.real(g.T @ dense_weight(cov) @ g)
        info = fisher_info(model, cov, cov.n_snapshots)
        npt.assert_allclose(info.matrix, reference, rtol=0, atol=1e-12 * np.abs(reference).max())

    def test_scalar_variance_bound(self):
        # variance estimation from real Gaussian data: CRB = 2 theta^2 / N_s
        theta = 1.7
        model = scalar_model()
        cov = CovarianceMatrix(np.array([[theta]]), kind="true")
        info = fisher_info(model, cov, n_snapshots=50)
        npt.assert_allclose(info.matrix, [[50 / (2 * theta**2)]], atol=1e-12)
        npt.assert_allclose(info.crb, [[2 * theta**2 / 50]], atol=1e-12)
        assert not info.crb_is_pinv

    def test_linear_in_snapshots(self, compressed_setup):
        _, sampler, model, _, _, r_true = compressed_setup
        cov = CovarianceMatrix(r_true[np.ix_(sampler.selected, sampler.selected)], kind="true")
        f1 = fisher_info(model, cov, 100).matrix
        f2 = fisher_info(model, cov, 200).matrix
        npt.assert_allclose(f2, 2 * f1, atol=1e-10)

    def test_positive_definite_and_crb_diagonal(self, compressed_setup):
        _, sampler, model, _, _, r_true = compressed_setup
        cov = CovarianceMatrix(r_true[np.ix_(sampler.selected, sampler.selected)], kind="true")
        info = fisher_info(model, cov, 1000)
        assert np.linalg.eigvalsh(info.matrix).min() > 0
        assert np.diag(info.crb).min() > 0

    def test_singular_covariance_rejected(self):
        model = two_node_model()
        cov = CovarianceMatrix(np.diag([1.0, 0.0]), kind="true")
        with pytest.raises(SingularityError):
            fisher_info(model, cov, 10)

    def test_barely_positive_definite_covariance_rejected(self):
        # h = [0, 1] on the Laplacian puts a zero in the spectrum: the full sampler's true
        # covariance keeps a smallest eigenvalue of a few 1e-15, which Cholesky refuses
        shift = build_shift(sensor_graph(8, seed=17), "laplacian")
        model = compress_model(build_psi_spectral(shift.basis()), Subsampler.full(8))
        cov = CovarianceMatrix(true_covariance(shift, GraphFilter([0.0, 1.0])).matrix, kind="true")
        assert 0.0 < cov.min_eigenvalue < 1e-12 * np.trace(cov.matrix)
        with pytest.raises(SingularityError, match="Cholesky"):
            fisher_info(model, cov, 1)

    def test_singular_fisher_falls_back_to_pinv(self):
        model = two_node_model(selected=(0,))  # one row |u_0|^2 = [1/2, 1/2]: duplicate columns
        npt.assert_allclose(model.matrix, [[0.5, 0.5]], atol=1e-15)
        cov = CovarianceMatrix(np.array([[2.0]]), kind="true")
        info = fisher_info(model, cov, 10)
        assert info.crb_is_pinv
        npt.assert_allclose(info.crb, np.linalg.pinv(info.matrix), atol=1e-12)


    def test_pinv_zeroes_what_the_rank_counts_as_zero(self):
        # F = diag(sigma) exactly (full sampler, identity basis and covariance, nu N_s = 1), and
        # sigma_6 lies between pinv's default cutoff 1e-15 and the rank's 6 eps, both times sigma_max
        sigma = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.05e-15])
        assert 1e-15 < sigma[-1] < 6 * np.finfo(float).eps
        t = np.diag(np.sqrt(sigma))
        columns = [np.sqrt(s_i) * vec(np.diag(np.eye(6)[i])) for i, s_i in enumerate(sigma)]
        model = ObservationModel(np.column_stack(columns), "ma", np.eye(6), t)
        info = fisher_info(model, CovarianceMatrix(np.eye(6), kind="true"), 2)
        npt.assert_allclose(info.matrix, np.diag(sigma), rtol=1e-15, atol=0)
        assert info.crb_is_pinv
        npt.assert_array_equal(info.crb, np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0]))

@pytest.mark.parametrize("kind", ["ar", "spectral"], ids=["autoregressive", "spectral"])
def test_weighted_estimators_refuse_a_model_without_sampled_basis(kind):
    model = plain_model(np.eye(4), kind=kind)
    cov = CovarianceMatrix(np.eye(2), kind="sample", n_snapshots=10)
    with pytest.raises(InvalidInputError, match="sampled basis"):
        wls_estimate(model, vec(cov.matrix), cov)
    with pytest.raises(InvalidInputError, match="sampled basis"):
        fisher_info(model, cov, 10)


def test_spectral_estimators_form_no_k2_by_m_array():
    """WLS and the Fisher information on K=60 of N=M=400 nodes stay on K x M and M x M arrays."""
    s = build_shift(sensor_graph(400, seed=1), "laplacian")
    sel = tuple(np.sort(np.random.default_rng(0).choice(400, 60, replace=False)))
    model = compress_model(build_psi_spectral(s.basis()), Subsampler(400, sel))
    assert model.matrix.shape == (3600, 400) and model.full_column_rank
    h = GraphFilter([1.0, 0.5])
    cov = CovarianceMatrix(true_covariance(s, h).matrix[np.ix_(sel, sel)], kind="true")
    cov_hat = sample_covariance(generate_signals(s, h, 100, seed=1)[list(sel)])
    r = vec(cov_hat.matrix)
    one_array = 3600 * 400 * 8  # bytes of one real K^2 x M array
    for call in (lambda: wls_estimate(model, r, cov_hat), lambda: fisher_info(model, cov, 100)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * one_array


class TestNmse:
    def test_exact_hits_floor(self):
        assert nmse_db(0.0, 2, np.sqrt(5.0)) == -300.0

    def test_unit_ratio_is_zero_db(self):
        # squared error 5 = norm of [3, 4]
        assert nmse_db(5.0, 1, 5.0) == pytest.approx(0.0, abs=1e-12)

    def test_doubling_error_adds_six_db(self):
        rng = np.random.default_rng(3)
        p = rng.random(5) + 1
        err = rng.standard_normal(5)
        norm = np.linalg.norm(p)
        delta = nmse_db(4 * float(err @ err), 1, norm) - nmse_db(float(err @ err), 1, norm)
        assert delta == pytest.approx(20 * np.log10(2), abs=1e-9)

    def test_zero_truth_rejected(self):
        for norm in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(InvalidInputError):
                nmse_db(1.0, 1, norm)

    def test_empty_estimates_rejected(self):
        with pytest.raises(InvalidInputError):
            nmse_db(0.0, 0, 1.0)
