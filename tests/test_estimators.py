import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.optimize

from graphcov import (
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
from graphcov.estimators import nmse_db
from graphcov.graphs import CIRCULANT_DFT, ShiftOperator, SpectralBasis


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
    basis = SpectralBasis(eigvecs=np.eye(1), eigvals=np.zeros(1), distinct=True)
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
        s = ShiftOperator(build_shift(cycle_graph(7), "adjacency").matrix, kind=CIRCULANT_DFT)
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

    def test_singular_fisher_falls_back_to_pinv(self):
        model = two_node_model(selected=(0,))  # one row |u_0|^2 = [1/2, 1/2]: duplicate columns
        npt.assert_allclose(model.matrix, [[0.5, 0.5]], atol=1e-15)
        cov = CovarianceMatrix(np.array([[2.0]]), kind="true")
        info = fisher_info(model, cov, 10)
        assert info.crb_is_pinv
        npt.assert_allclose(info.crb, np.linalg.pinv(info.matrix), atol=1e-12)


@pytest.mark.parametrize("kind", ["autoregressive", "spectral"])
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
