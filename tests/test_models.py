import warnings

import numpy as np
import numpy.testing as npt
import pytest

from graphcov import (
    CovarianceMatrix,
    CovarianceModel,
    GraphFilter,
    InvalidInputError,
    ObservationModel,
    RepeatedEigenvaluesWarning,
    ShiftOperator,
    SpectralBasis,
    Subsampler,
    build_psi_ma,
    build_psi_spectral,
    build_shift,
    compress_model,
    cycle_graph,
    eigendecompose,
    fisher_info,
    gram,
    ma_b_from_h,
    ls_estimate,
    mobius_ladder,
    pair_gram,
    path_graph,
    sensor_graph,
    true_covariance,
    unvec,
    vandermonde,
    vec,
)
from graphcov import models


def dense(psi):
    """The N^2 x M model matrix, every row of it."""
    return compress_model(psi, Subsampler.full(psi.n_nodes)).matrix


def random_orthogonal_basis(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return SpectralBasis(eigvecs=q, eigvals=np.arange(n, dtype=float))


class TestSubsampler:
    def test_sorted_and_mask(self):
        s = Subsampler(5, (3, 0, 4))
        assert s.selected == (0, 3, 4)
        assert s.k == 3

    def test_duplicate_rejected(self):
        with pytest.raises(InvalidInputError):
            Subsampler(5, (1, 1))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            Subsampler(5, ())

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            Subsampler(5, (5,))

    def test_json_round_trip(self):
        s = Subsampler(10, (0, 1, 4, 7, 9))
        assert Subsampler.from_json(s.to_json()) == s

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 12, "selected": [0, 1.5, 2.7]}',
            '{"n": 12, "selected": [true, 2]}',
            '{"n": 12.5, "selected": [0, 1]}',
        ],
        ids=["fractional-index", "bool-index", "fractional-n"],
    )
    def test_non_integer_json_rejected(self, text):
        with pytest.raises(InvalidInputError, match="integer"):
            Subsampler.from_json(text)

    def test_numpy_integers_accepted(self):
        s = Subsampler(np.int64(5), (np.int64(3), np.int32(0)))
        assert s == Subsampler(5, (0, 3))
        assert Subsampler.from_json(s.to_json()) == s


class TestPsiSpectral:
    def test_identity_basis(self):
        basis = SpectralBasis(eigvecs=np.eye(2), eigvals=np.array([0.0, 1.0]))
        psi = build_psi_spectral(basis)
        expected = np.zeros((4, 2))
        expected[0, 0] = 1.0  # e1 kron e1
        expected[3, 1] = 1.0  # e2 kron e2
        npt.assert_array_equal(dense(psi), expected)

    def test_full_column_rank_any_unitary(self):
        for seed in range(5):
            psi = build_psi_spectral(random_orthogonal_basis(3, seed))
            assert np.linalg.matrix_rank(dense(psi)) == 3

    def test_full_column_rank_complex_unitary(self):
        rng = np.random.default_rng(21)
        for n in (3, 5, 8):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, _ = np.linalg.qr(z)
            basis = SpectralBasis(eigvecs=q, eigvals=np.arange(n, dtype=float))
            assert np.linalg.matrix_rank(dense(build_psi_spectral(basis))) == n

    def test_khatri_rao_identity(self):
        rng = np.random.default_rng(3)
        basis = random_orthogonal_basis(6, 9)
        p = rng.random(6)
        psi = build_psi_spectral(basis)
        r = (basis.eigvecs * p) @ basis.eigvecs.conj().T
        npt.assert_allclose(dense(psi) @ p, vec(r), atol=1e-12)

    # (N, seed, complex basis, repeated column): the repeated column makes
    # U^H U deviate from the identity by 1, so the basis is refused when made
    @pytest.mark.parametrize("n,seed,is_complex,col", [(12, 6, False, 3), (20, 1, True, 6), (5, 0, False, 1)])
    def test_repeated_eigenvector_column_rejected(self, n, seed, is_complex, col):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, n))
        if is_complex:
            z = z + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(z)
        q[:, col] = q[:, 0]
        with pytest.raises(InvalidInputError, match="not orthonormal"):
            SpectralBasis(eigvecs=q, eigvals=np.arange(n, dtype=float))

    def test_warns_on_repeated_eigenvalues(self):
        basis = eigendecompose(ShiftOperator(np.eye(3)))
        with pytest.warns(RepeatedEigenvaluesWarning):
            build_psi_spectral(basis)


class TestPsiMa:
    def test_q1_is_vec_identity(self):
        s = build_shift(path_graph(2), "laplacian")
        npt.assert_allclose(dense(build_psi_ma(s, 1))[:, 0], vec(np.eye(2)), rtol=0, atol=1e-15)

    def test_q2_path(self):
        s = build_shift(path_graph(2), "laplacian")
        psi = build_psi_ma(s, 2)
        npt.assert_allclose(dense(psi)[:, 1], vec(np.array([[1, -1], [-1, 1]])), rtol=0, atol=1e-15)

    def test_q_bounds(self):
        s = build_shift(path_graph(2), "laplacian")
        with pytest.raises(InvalidInputError):
            build_psi_ma(s, 3)
        with pytest.raises(InvalidInputError):
            build_psi_ma(s, 0)

    def test_khatri_rao_vandermonde_factorization(self):
        s = build_shift(sensor_graph(10, seed=6), "laplacian")
        basis = s.basis()
        assert basis.distinct
        q = 4
        psi_ma = build_psi_ma(s, q)
        psi_s = build_psi_spectral(basis)
        npt.assert_allclose(dense(psi_ma), dense(psi_s) @ vandermonde(basis.eigvals, q), atol=1e-8)


class TestCovarianceModel:
    def test_sizes_are_the_factors(self):
        s = build_shift(sensor_graph(10, seed=6), "laplacian")
        spectral, ma = build_psi_spectral(s.basis()), build_psi_ma(s, 3)
        assert (spectral.n_nodes, spectral.n_params, spectral.nbytes) == (10, 10, 800)
        assert (ma.n_nodes, ma.n_params, ma.nbytes) == (10, 3, 800 + 240)

    def test_ma_model_is_the_basis_and_its_vandermonde_map(self):
        s = build_shift(sensor_graph(400, seed=7), "laplacian")
        psi = build_psi_ma(s, 5)
        assert psi.nbytes == 8 * 400**2 + 8 * 400 * 5
        npt.assert_array_equal(psi.basis, s.basis().eigvecs)
        npt.assert_array_equal(psi.param_map, vandermonde(s.basis().eigvals, 5))

    def test_complex_ma_factors_rejected(self):
        with pytest.raises(InvalidInputError, match="real"):
            CovarianceModel(np.eye(3), np.ones((3, 1)) * (1 + 1j))

    def test_kind_follows_the_map(self):
        s = build_shift(sensor_graph(10, seed=6), "laplacian")
        assert build_psi_spectral(s.basis()).kind == "spectral"
        assert build_psi_ma(s, 3).kind == "ma"
        assert CovarianceModel(np.eye(3), np.ones((3, 2))).kind == "ma"

    @pytest.mark.parametrize(
        "basis,param_map", [(np.ones((3, 4)), None), (np.eye(3), np.ones((4, 2)))], ids=["non-square-basis", "map-rows"]
    )
    def test_bad_shapes_rejected(self, basis, param_map):
        with pytest.raises(InvalidInputError):
            CovarianceModel(basis, param_map)


class TestVandermonde:
    def test_q1_all_ones(self):
        npt.assert_array_equal(vandermonde(np.array([3.0, -1.0]), 1), [[1], [1]])

    def test_2x2(self):
        npt.assert_array_equal(vandermonde(np.array([0.0, 2.0]), 2), [[1, 0], [1, 2]])

    def test_maps_coefficients_to_spectrum(self):
        p = vandermonde(np.array([1.0, 2.0, 3.0]), 3) @ np.ones(3)
        npt.assert_allclose(p, [3, 7, 13])


class TestMaCoefficients:
    def test_cubic_structure(self):
        h0, h1, h2 = 0.7, -1.2, 0.4
        b = ma_b_from_h(GraphFilter([h0, h1, h2]))
        npt.assert_allclose(
            b, [h0**2, 2 * h0 * h1, h1**2 + 2 * h2 * h0, 2 * h2 * h1, h2**2], atol=1e-14
        )

    def test_binomial(self):
        npt.assert_allclose(ma_b_from_h(GraphFilter([1.0, 2.0, 1.0])), [1, 4, 6, 4, 1])

    def test_scalar(self):
        npt.assert_allclose(ma_b_from_h(GraphFilter([3.0])), [9.0])

    def test_matches_polynomial_square(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h = rng.standard_normal(rng.integers(1, 6))
            npt.assert_allclose(ma_b_from_h(GraphFilter(h)), np.convolve(h, h), atol=1e-12)


class TestCompressModel:
    def test_full_selection_is_identity_permutation(self):
        basis = random_orthogonal_basis(4, 0)
        psi = build_psi_spectral(basis)
        model = compress_model(psi, Subsampler.full(4))
        u = basis.eigvecs
        npt.assert_array_equal(model.matrix, (u.conj()[:, None, :] * u[None, :, :]).reshape(16, 4))
        assert model.param_kind == "spectral"

    def test_single_node_row(self):
        basis = random_orthogonal_basis(5, 1)
        psi = build_psi_spectral(basis)
        model = compress_model(psi, Subsampler(5, (2,)))
        npt.assert_allclose(model.matrix[0], np.abs(basis.eigvecs[2, :]) ** 2, atol=1e-12)

    def test_cycle_ruler_full_rank(self):
        s = build_shift(cycle_graph(10), "adjacency")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
            psi = build_psi_spectral(s.basis())
        model = compress_model(psi, Subsampler(10, (0, 1, 4, 7, 9)))
        assert model.full_column_rank
        assert model.rank == 10

    def test_spectral_consistency(self):
        rng = np.random.default_rng(5)
        basis = random_orthogonal_basis(7, 4)
        psi = build_psi_spectral(basis)
        p = rng.random(7)
        r = (basis.eigvecs * p) @ basis.eigvecs.conj().T
        sampler = Subsampler(7, (1, 3, 6))
        model = compress_model(psi, sampler)
        r_y = r[np.ix_(sampler.selected, sampler.selected)]
        npt.assert_allclose(model.matrix @ p, vec(r_y), atol=1e-10)

    def test_ma_consistency(self):
        s = build_shift(sensor_graph(9, seed=7), "laplacian")
        h = GraphFilter([1.0, 0.5, 0.25])
        b = ma_b_from_h(h)
        psi = build_psi_ma(s, b.size)
        sampler = Subsampler(9, (0, 4, 8))
        model = compress_model(psi, sampler)
        assert model.param_kind == "ma"
        r = true_covariance(s, h).matrix
        r_y = r[np.ix_(sampler.selected, sampler.selected)]
        npt.assert_allclose(model.matrix @ b, vec(r_y), atol=1e-8)

    def test_row_index_matches_vectorization(self):
        # row m of the model equates the m-th entry of vec(R_SS): the
        # covariance entries (1,1), (3,1), (1,3), (3,3), where
        # R[a, b] = sum_i p_i u_i[a] conj(u_i[b])
        sampler = Subsampler(4, (1, 3))
        basis = random_orthogonal_basis(4, 2)
        u = basis.eigvecs
        model = compress_model(build_psi_spectral(basis), sampler)
        expected = [u[a] * u[b].conj() for a, b in [(1, 1), (3, 1), (1, 3), (3, 3)]]
        npt.assert_array_equal(model.matrix, np.array(expected))

    def test_sampler_of_another_graph_rejected(self):
        psi = build_psi_spectral(random_orthogonal_basis(4, 0))
        with pytest.raises(InvalidInputError, match="nodes"):
            compress_model(psi, Subsampler(5, (0, 1)))

    def test_ma_model_with_q_equal_n_is_moving_average(self):
        s = build_shift(path_graph(4), "laplacian")
        model = compress_model(build_psi_ma(s, 4), Subsampler.full(4))
        assert model.param_kind == "ma"

    @pytest.mark.parametrize("kind", ["real", "complex-dft", "ma"])
    @pytest.mark.parametrize("selected", [tuple(range(12)), (0, 1, 3, 7), (5,), (2, 9, 4)])
    def test_rows_equal_dense_construction(self, kind, selected):
        # the rows of the explicit N^2 x M matrices: conj(u_i) kron u_i bit
        # for bit, and vec(S^k), which the model computes as U diag(lambda^k)
        # U^H, to rounding
        if kind == "real":
            s = build_shift(sensor_graph(12, seed=4), "laplacian")
        else:
            s = build_shift(cycle_graph(12), "adjacency")
        if kind == "ma":
            psi = build_psi_ma(s, 5)
            full = np.column_stack([vec(np.linalg.matrix_power(s.matrix, k)) for k in range(5)])
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
                u = s.basis().eigvecs
                psi = build_psi_spectral(s.basis())
            full = (u.conj()[:, None, :] * u[None, :, :]).reshape(144, 12)
        sel = np.asarray(sorted(selected))
        rows = (sel[None, :] * 12 + sel[:, None]).ravel(order="F")
        matrix = compress_model(psi, Subsampler(12, selected)).matrix
        if kind == "ma":
            npt.assert_allclose(matrix, full[rows], rtol=0, atol=1e-12 * np.abs(full).max())
        else:
            npt.assert_array_equal(matrix, full[rows])

    @pytest.mark.parametrize("graph", ["mobius36-dft", "sensor30"])
    @pytest.mark.parametrize("block_rows", [None, 7])
    def test_ma_rows_are_real_shift_powers(self, graph, block_rows, monkeypatch):
        if block_rows is not None:
            monkeypatch.setattr(models, "_BLOCK_ROWS", block_rows)
        if graph == "mobius36-dft":
            s = build_shift(mobius_ladder(36), "laplacian")
            assert np.iscomplexobj(s.basis().eigvecs)
        else:
            s = build_shift(sensor_graph(30, seed=7), "laplacian")
        q = 5
        sel = np.array([0, 1, 4, 9, 15, 20, 28])
        model = compress_model(build_psi_ma(s, q), Subsampler(s.n, tuple(sel)))
        assert not np.iscomplexobj(model.matrix)
        powers = np.stack([np.linalg.matrix_power(s.matrix, k) for k in range(q)])
        reference = powers[:, sel][:, :, sel]  # reference[k, p, q] = S^k[sel_p, sel_q]
        rows = model.matrix.reshape(sel.size, sel.size, q).transpose(2, 1, 0)
        npt.assert_allclose(rows, reference, rtol=0, atol=1e-12 * np.abs(reference).max())


def pair_gram_psi(kind):
    """Spectral and moving-average (Q=5) models on a real basis and on a DFT basis."""
    if kind.endswith("real"):
        s = build_shift(sensor_graph(24, seed=4), "laplacian")
    else:
        s = build_shift(mobius_ladder(24), "adjacency")
    if kind.startswith("ma"):
        return build_psi_ma(s, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
        return build_psi_spectral(s.basis())


class TestPairGram:
    @pytest.mark.parametrize("kind", ["spectral-real", "spectral-dft", "ma-real", "ma-dft"])
    @pytest.mark.parametrize("selected", [(), (5,), (0, 3, 4, 9, 17, 22)], ids=["empty", "k1", "k6"])
    def test_equals_the_gram_of_the_formed_pair_rows(self, kind, selected):
        psi = pair_gram_psi(kind)
        m = psi.n_params
        sel = np.array(selected, dtype=int)
        rows = psi.rows(sel[:, None], sel[None, :]).reshape(-1, m)
        reference = rows.conj().T @ rows
        closed = pair_gram(psi.basis[sel], psi.param_map)
        assert closed.dtype == float and closed.shape == (m, m)
        npt.assert_array_equal(closed, closed.T)
        if sel.size:
            assert np.linalg.norm(closed - reference) <= 1e-13 * np.linalg.norm(reference)
        else:
            npt.assert_array_equal(closed, np.zeros((m, m)))

    @pytest.mark.parametrize("kind", ["spectral-real", "spectral-dft", "ma-real", "ma-dft"])
    def test_design_and_fisher_information_read_it(self, kind):
        # the design's Gram takes the sampled basis rows U_S, the Fisher
        # information B = L^{-1} U_S for the Cholesky factor L of R
        psi = pair_gram_psi(kind)
        sampler = Subsampler(24, (0, 2, 3, 7, 11, 12, 18, 23))
        u_s = psi.basis[list(sampler.selected)]
        npt.assert_array_equal(gram(psi, sampler), pair_gram(u_s, psi.param_map))
        cov = np.real(u_s @ np.diag(np.linspace(1.0, 2.0, psi.n_nodes)) @ u_s.conj().T)
        cov = 0.5 * (cov + cov.T)
        info = fisher_info(compress_model(psi, sampler), CovarianceMatrix(cov, kind="true"), 1)
        b = np.linalg.inv(np.linalg.cholesky(cov)) @ u_s
        npt.assert_array_equal(info.matrix, 0.5 * pair_gram(b, psi.param_map))


class TestVectorize:
    def test_column_major(self):
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        npt.assert_array_equal(vec(m), [1, 2, 3, 4])

    def test_identity(self):
        npt.assert_array_equal(vec(np.eye(2)), [1, 0, 0, 1])

    def test_round_trip(self):
        cov = CovarianceMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]), kind="true")
        v = vec(cov.matrix)
        npt.assert_array_equal(v.reshape(2, 2, order="F"), cov.matrix)
        npt.assert_array_equal(unvec(v, 2), cov.matrix)

    def test_stack_round_trip(self):
        # vec takes each matrix of a stack, as unvec gives them back
        stack = np.arange(2 * 3 * 3, dtype=float).reshape(2, 3, 3)
        v = vec(stack)
        assert v.shape == (2, 9)
        for matrix, row in zip(stack, v):
            npt.assert_array_equal(row, vec(matrix))
        npt.assert_array_equal(unvec(v, 3), stack)


class TestObservationModel:
    def test_rank_is_over_real_parameters(self):
        # G = [g, i g] has complex rank 1, but its real parameters are
        # identifiable: G theta = g theta_0 + i g theta_1.
        g = np.array([1.0, -2.0, 0.5, 3.0])
        model = ObservationModel(
            matrix=np.column_stack([g, 1j * g]),
            param_kind="spectral",
        )
        assert model.rank == 2 and model.full_column_rank
        assert model.min_singular == pytest.approx(np.linalg.norm(g))
        assert model.condition_number == pytest.approx(1.0)
        theta = np.array([0.7, -1.3])
        npt.assert_allclose(ls_estimate(model, model.matrix @ theta).theta, theta, atol=1e-12)

    def test_diagnostics_match_real_stacked_svd(self):
        s = build_shift(cycle_graph(10), "adjacency")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
            model = compress_model(build_psi_spectral(s.basis()), Subsampler(10, (0, 1, 4, 7, 9)))
        stacked = np.vstack([model.matrix.real, model.matrix.imag])
        svals = np.linalg.svd(stacked, compute_uv=False)
        npt.assert_allclose(model.singular_values, svals, rtol=1e-12)
        assert model.rank == 10
        npt.assert_allclose(model.pinv, np.linalg.pinv(stacked), atol=1e-12)

    def test_reduced_factor_and_stack(self):
        s = build_shift(cycle_graph(10), "adjacency")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
            model = compress_model(build_psi_spectral(s.basis()), Subsampler(10, (0, 1, 4, 7, 9)))
        stacked = np.vstack([model.matrix.real, model.matrix.imag])
        assert model.reduced.shape == (10, 10)
        npt.assert_allclose(model.reduced.T @ model.reduced, stacked.T @ stacked, atol=1e-12)
        r = np.arange(25) + 1j * np.arange(25)
        npt.assert_array_equal(model.stack(r), np.concatenate([r.real, r.imag]))
        real_model = ObservationModel(matrix=stacked, param_kind="spectral")
        npt.assert_array_equal(real_model.stack(np.concatenate([r, r])), np.concatenate([r.real, r.real]))

    def test_sampled_basis_is_the_khatri_rao_factor(self):
        s = build_shift(sensor_graph(10, seed=1), "laplacian")
        sampler = Subsampler(10, (0, 1, 4, 7, 9))
        model = compress_model(build_psi_spectral(s.basis()), sampler)
        u_s = s.basis().eigvecs[list(sampler.selected)]
        npt.assert_array_equal(model.sampled_basis, u_s)
        kr = np.einsum("ai,bi->abi", u_s.conj(), u_s).reshape(25, 10)
        npt.assert_allclose(model.matrix, kr, atol=1e-15)
        ma = compress_model(build_psi_ma(s, 3), sampler)
        npt.assert_array_equal(ma.sampled_basis, u_s)
        npt.assert_array_equal(ma.param_map, vandermonde(s.basis().eigvals, 3))
        assert model.param_map is None
        with pytest.raises(InvalidInputError, match="parameter map"):
            ObservationModel(matrix=ma.matrix, param_kind="ma", param_map=np.ones((10, 2)))
        with pytest.raises(InvalidInputError, match="sampled basis"):
            ObservationModel(matrix=model.matrix, param_kind="spectral", sampled_basis=u_s[:4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        matrix = np.eye(3)
        matrix[1, 2] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            ObservationModel(matrix=matrix, param_kind="spectral")
