import numpy as np
import numpy.testing as npt
import pytest

from graphcov import (
    ARSamplingScheme,
    Graph,
    InvalidInputError,
    RankDeficiencyError,
    ShiftOperator,
    SingularityError,
    SnapshotMatrix,
    Subsampler,
    ar_power_spectrum,
    build_ar_model,
    build_ar_scheme,
    build_shift,
    core_by_degree,
    cycle_graph,
    estimate_ar,
    generate_ar_signals,
    mobius_ladder,
    neighborhood,
    path_graph,
    sample_ar_covariances,
    sensor_graph,
    true_ar_covariance,
    true_ar_covariances,
)
from graphcov.ar import ar_transfer_matrix


def star_graph(n):
    return Graph(n, tuple((0, i, 1.0) for i in range(1, n)))


def system_matrix(shift, coeffs):
    """Reference ``I - sum_k a_k S^k``, built from plain matrix powers."""
    return np.eye(shift.n) - sum(
        a * np.linalg.matrix_power(shift.matrix, k) for k, a in enumerate(coeffs, start=1)
    )


class TestNeighborhood:
    def test_adjacency_one_hop_excludes_self(self):
        s = build_shift(path_graph(3), "adjacency")
        assert neighborhood(s, 1, 1) == (0, 2)

    def test_path3_two_hops_from_middle(self):
        # S^2 of the 3-path adjacency is [[1,0,1],[0,2,0],[1,0,1]]
        s = build_shift(path_graph(3), "adjacency")
        assert neighborhood(s, 1, 2) == (1,)
        assert neighborhood(s, 0, 2) == (0, 2)

    def test_laplacian_includes_self(self):
        s = build_shift(path_graph(3), "laplacian")
        assert 1 in neighborhood(s, 1, 1)

    def test_out_of_range(self):
        s = build_shift(path_graph(3), "adjacency")
        with pytest.raises(InvalidInputError):
            neighborhood(s, 3, 1)

    def test_pattern_beats_cancellation(self):
        # weights engineered so [S^2]_{0,2} = 0 numerically, yet a 2-path exists
        g = Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0), (3, 2, 1.0)))
        w = g.weight_matrix()
        w[0, 3] = w[3, 0] = -1.0  # antisymmetric contribution cancels via node 3
        s = ShiftOperator(w)
        assert (s.matrix @ s.matrix)[0, 2] == 0.0
        assert 2 in neighborhood(s, 0, 2)


class TestScheme:
    def test_cycle10_core0_p2(self):
        s = build_shift(cycle_graph(10), "adjacency")
        scheme = build_ar_scheme(s, (0,), 2)
        assert scheme.levels[1].selected == (1, 9)
        assert scheme.levels[2].selected == (0, 2, 8)
        assert scheme.distinct_nodes == (0, 1, 2, 8, 9)

    def test_full_core_observes_everything(self):
        s = build_shift(cycle_graph(6), "adjacency")
        scheme = build_ar_scheme(s, tuple(range(6)), 1)
        for level in scheme.levels:
            assert level.selected == tuple(range(6))

    def test_star_hub_sees_all_leaves(self):
        s = build_shift(star_graph(8), "adjacency")
        scheme = build_ar_scheme(s, (0,), 1)
        assert scheme.levels[1].selected == tuple(range(1, 8))

    def test_level_membership_is_pattern_exact(self):
        s = build_shift(sensor_graph(14, seed=4), "adjacency")
        scheme = build_ar_scheme(s, (3, 7), 2)
        pattern = (s.matrix != 0).astype(int)
        p2 = (pattern @ pattern > 0).astype(int)
        for level, pat in ((1, pattern), (2, p2)):
            expected = sorted(set(np.flatnonzero(pat[3]).tolist()) | set(np.flatnonzero(pat[7]).tolist()))
            assert list(scheme.levels[level].selected) == expected

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: build_ar_scheme(s, [1.5], 1),
            lambda s: build_ar_scheme(s, [1, True], 1),
            lambda s: build_ar_scheme(s, [1], 1.5),
            lambda s: build_ar_scheme(s, [1], True),
            lambda s: neighborhood(s, 1.5, 1),
            lambda s: neighborhood(s, 1, 1.5),
            lambda s: generate_ar_signals(s, [0.1], 5, seed=0, nodes=[1.5]),
            lambda s: ARSamplingScheme(levels=(Subsampler(10, (1.5,)), Subsampler(10, (0, 2)))),
        ],
        ids=["fractional-core", "bool-core", "fractional-order", "bool-order", "fractional-node", "fractional-hop",
             "fractional-signal-node", "scheme-fractional-core"],
    )
    def test_non_integer_node_or_order_rejected(self, call):
        s = build_shift(cycle_graph(10), "adjacency")
        with pytest.raises(InvalidInputError, match="integer"):
            call(s)

    def test_levels_fix_core_and_order(self):
        levels = (Subsampler(10, (5, 0)), Subsampler(10, (1, 4, 6, 9)), Subsampler(10, (0, 2, 3, 5, 7, 8)))
        scheme = ARSamplingScheme(levels)
        assert scheme.core == (0, 5)
        assert scheme.order == 2
        assert scheme == build_ar_scheme(build_shift(cycle_graph(10), "adjacency"), (5, 0), 2)

    def test_single_level_refused(self):
        with pytest.raises(InvalidInputError, match="at least one hop level"):
            ARSamplingScheme((Subsampler(10, (0,)),))

    def test_numpy_integer_core_accepted(self):
        s = build_shift(cycle_graph(10), "adjacency")
        scheme = build_ar_scheme(s, np.array([0, 5]), np.int64(1))
        assert scheme.core == (0, 5)

    def test_core_by_degree_prefers_max_degree_then_lowest_index(self):
        assert core_by_degree(star_graph(5), 1) == (0,)
        assert core_by_degree(cycle_graph(6), 1) == (0,)  # all tied, lowest index
        assert core_by_degree(star_graph(5), k0=2) == (0, 1)


class TestModel:
    def test_per_realization_consistency(self):
        # y0 - sum_k a_k S^k[core, level_k] y_k equals the core noise exactly
        s = build_shift(cycle_graph(12), "adjacency")
        a = np.array([0.15, 0.08])
        scheme = build_ar_scheme(s, (2, 5), 2)
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(12)
        x = np.linalg.solve(system_matrix(s, a), noise)
        y0 = x[list(scheme.core)]
        recon = np.zeros_like(y0)
        for k in (1, 2):
            sk = np.linalg.matrix_power(s.matrix, k)[np.ix_(scheme.core, scheme.levels[k].selected)]
            recon += a[k - 1] * (sk @ x[list(scheme.levels[k].selected)])
        npt.assert_allclose(y0 - recon, noise[list(scheme.core)], atol=1e-12)

    def test_structure_p1(self):
        s = build_shift(cycle_graph(8), "adjacency")
        scheme = build_ar_scheme(s, (0,), 1)
        cov = true_ar_covariance(s, [0.2])
        observed = true_ar_covariances(scheme, cov)
        assert scheme.distinct_nodes == (0, 1, 7)
        npt.assert_array_equal(observed.matrix, cov.matrix[np.ix_([0, 1, 7], [0, 1, 7])])
        model, r_y = build_ar_model(s, scheme, observed)
        assert model.matrix.shape == (1 * (1 + 2), 1)
        assert r_y.shape == (3,)
        r = cov.matrix
        col = np.concatenate(
            [
                (s.matrix[np.ix_([0], [1, 7])] @ r[np.ix_([1, 7], level)]).ravel(order="F")
                for level in ([0], [1, 7])
            ]
        )
        npt.assert_allclose(model.matrix[:, 0], col, atol=1e-14)
        npt.assert_array_equal(r_y, [r[0, 0], r[0, 1], r[0, 7]])

    def test_sample_blocks_match_level_products(self):
        # every level-pair block equals x[level_p] x[level_q]^T / N_s, levels overlapping,
        # and the core rows of S^k are the plain matrix power, up to three shifts
        s = build_shift(cycle_graph(10), "adjacency")
        x = np.random.default_rng(3).standard_normal((10, 50))
        for order in (1, 2, 3):
            scheme = build_ar_scheme(s, (0, 3), order)
            model, r_y = build_ar_model(s, scheme, sample_ar_covariances(scheme, x))
            lev = [list(level.selected) for level in scheme.levels]
            core = list(scheme.core)
            g_ref, r_ref = [], []
            for q in range(order + 1):
                block = [x[lev[k]] @ x[lev[q]].T / 50 for k in range(order + 1)]
                g_ref.append(
                    np.column_stack(
                        [
                            (np.linalg.matrix_power(s.matrix, k)[np.ix_(core, lev[k])] @ block[k]).ravel(order="F")
                            for k in range(1, order + 1)
                        ]
                    )
                )
                r_ref.append(block[0].ravel(order="F"))
            npt.assert_allclose(model.matrix, np.vstack(g_ref), rtol=1e-12, atol=1e-14)
            npt.assert_allclose(r_y, np.concatenate(r_ref), rtol=1e-12, atol=1e-14)

    def test_wrong_shape_covariance_rejected(self):
        s = build_shift(cycle_graph(8), "adjacency")
        scheme = build_ar_scheme(s, (0,), 1)  # observes 3 distinct nodes
        with pytest.raises(InvalidInputError, match="3 distinct nodes"):
            build_ar_model(s, scheme, np.eye(2))
        with pytest.raises(InvalidInputError, match="3 distinct nodes"):
            build_ar_model(s, scheme, true_ar_covariance(s, [0.2]))  # the full 8 x 8

    def test_zero_covariances_degenerate(self):
        s = build_shift(cycle_graph(8), "adjacency")
        scheme = build_ar_scheme(s, (0,), 1)
        model, r_y = build_ar_model(s, scheme, np.zeros((3, 3)))
        assert np.all(model.matrix == 0)
        with pytest.raises(RankDeficiencyError):
            estimate_ar(model, r_y)


class TestEstimate:
    def test_single_column_trivial(self):
        s = build_shift(cycle_graph(8), "adjacency")
        scheme = build_ar_scheme(s, (0,), 1)
        cov = true_ar_covariance(s, [0.1])
        model, _ = build_ar_model(s, scheme, true_ar_covariances(scheme, cov))
        res = estimate_ar(model, 2.0 * model.matrix[:, 0])
        npt.assert_allclose(res.theta, [2.0], atol=1e-12)

    def test_white_noise_estimate_shrinks(self):
        # data with a = 0: the estimate concentrates around 0 as N_s grows
        s = build_shift(cycle_graph(16), "adjacency")
        scheme = build_ar_scheme(s, (0,), 1)
        errs = {}
        for n_s in (500, 8000):
            values = []
            for trial in range(12):
                rng = np.random.default_rng(1000 * trial + n_s)
                x = rng.standard_normal((16, n_s))
                model, r_y = build_ar_model(s, scheme, sample_ar_covariances(scheme, x))
                values.append(abs(estimate_ar(model, r_y).theta[0]))
            errs[n_s] = np.mean(values)
        assert errs[8000] < errs[500]
        ratio = errs[500] / errs[8000]  # expect ~4 = sqrt(8000/500)
        assert 4 / 3 < ratio < 12

    def test_uncompressed_white_identity(self):
        # R = I and a traceless shift, every node observed: the best single
        # coefficient is 0
        s = build_shift(cycle_graph(9), "adjacency")
        from graphcov import CovarianceMatrix

        scheme = build_ar_scheme(s, range(9), 1)
        model, r_y = build_ar_model(s, scheme, CovarianceMatrix(np.eye(9), kind="true"))
        npt.assert_allclose(estimate_ar(model, r_y).theta, [0.0], atol=1e-12)

    def test_true_cov_estimate_deterministic_and_matched_by_samples(self):
        s = build_shift(cycle_graph(20), "adjacency")
        a = np.array([0.2])
        scheme = build_ar_scheme(s, (0,), 1)
        cov = true_ar_covariance(s, a)
        model, r_y = build_ar_model(s, scheme, true_ar_covariances(scheme, cov))
        a_ref = estimate_ar(model, r_y).theta
        x = generate_ar_signals(s, a, 200000, seed=5)
        model_s, r_s = build_ar_model(s, scheme, sample_ar_covariances(scheme, x))
        a_hat = estimate_ar(model_s, r_s).theta
        assert abs(a_hat[0] - a_ref[0]) < 0.05


class TestSpectrum:
    def test_zero_coefficients_give_flat_spectrum(self):
        npt.assert_allclose(ar_power_spectrum(np.linspace(-2, 2, 7), np.zeros(2)), np.ones(7))

    def test_scalar_value(self):
        npt.assert_allclose(ar_power_spectrum(np.array([1.0]), np.array([0.5])), [4.0])

    def test_pole_detected(self):
        with pytest.raises(SingularityError):
            ar_power_spectrum(np.array([2.0]), np.array([0.5]))

    @pytest.mark.parametrize(
        "coeffs", [[], [np.nan], [np.inf], [0.1, -np.inf]], ids=["empty", "nan", "inf", "neg-inf"]
    )
    def test_empty_or_non_finite_coefficients_rejected(self, coeffs):
        s = build_shift(sensor_graph(12, seed=0), "adjacency")
        for call in (
            lambda: ar_power_spectrum(s.basis().eigvals, coeffs),
            lambda: true_ar_covariance(s, coeffs),
            lambda: generate_ar_signals(s, coeffs, 5, seed=0),
        ):
            with pytest.raises(InvalidInputError, match="AR coefficients"):
                call()

    def test_generation_matches_spectrum(self):
        s = build_shift(cycle_graph(12), "adjacency")
        a = np.array([0.2])
        basis = s.basis()
        cov = true_ar_covariance(s, a)
        from graphcov import power_spectrum_from_cov

        npt.assert_allclose(
            power_spectrum_from_cov(basis, cov),
            ar_power_spectrum(basis.eigvals, a),
            atol=1e-8,
        )

    def test_signals_match_system_solve(self):
        s = build_shift(sensor_graph(20, seed=7), "adjacency")
        a = np.array([0.1, -0.02])
        noise = np.random.default_rng(12).standard_normal((20, 300))
        reference = np.linalg.solve(system_matrix(s, a), noise)
        x = generate_ar_signals(s, a, 300, seed=12)
        npt.assert_allclose(x, reference, rtol=0, atol=1e-12 * np.abs(reference).max())

    def test_singular_system_rejected(self):
        # 1 - 0.5*2 = 0 at lambda = 2: every AR entry point refuses the pole
        s = build_shift(cycle_graph(8), "adjacency")
        a = np.array([0.5])
        for call in (
            lambda: ar_transfer_matrix(s, a),
            lambda: ar_transfer_matrix(s, a, nodes=(0, 3)),
            lambda: true_ar_covariance(s, a),
            lambda: generate_ar_signals(s, a, 10, seed=0),
            lambda: ar_power_spectrum(s.basis().eigvals, a),
        ):
            with pytest.raises(SingularityError):
                call()

    def test_dft_transfer_matches_system_solve(self):
        # the complex DFT basis gives the same real transfer and covariance
        graph = cycle_graph(10)
        s = build_shift(graph, "adjacency")
        a = np.array([0.2, 0.05])
        reference = np.linalg.inv(system_matrix(s, a))
        transfer = ar_transfer_matrix(s, a)
        assert transfer.dtype == float
        npt.assert_allclose(transfer, reference, rtol=0, atol=1e-12 * np.abs(reference).max())
        npt.assert_allclose(true_ar_covariance(s, a).matrix, reference @ reference.T, atol=1e-12)
        noise = np.random.default_rng(3).standard_normal((10, 40))
        npt.assert_allclose(
            generate_ar_signals(s, a, 40, seed=3, nodes=(7, 2)),
            (reference @ noise)[[7, 2]],
            rtol=0,
            atol=1e-12 * np.abs(reference @ noise).max(),
        )

    def test_transfer_factors_no_system(self, monkeypatch):
        # once the basis is cached, the transfer, the covariance and the
        # realizations take no SVD, inverse or solve
        s = build_shift(sensor_graph(20, seed=7), "adjacency")
        s.basis()

        def forbidden(*args, **kwargs):
            raise AssertionError("an N x N system was factored")

        for name in ("svd", "inv", "solve", "pinv"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        ar_transfer_matrix(s, [0.1], nodes=(2, 5))
        true_ar_covariance(s, [0.1])
        generate_ar_signals(s, [0.1], 20, seed=1, nodes=(2, 5))

    def test_node_rows_equal_full_realization_rows(self):
        s = build_shift(sensor_graph(20, seed=7), "adjacency")
        a = np.array([0.1])
        nodes = (3, 4, 11, 17)
        full = generate_ar_signals(s, a, 500, seed=np.random.SeedSequence((0, 1, 2)))
        part = generate_ar_signals(s, a, 500, seed=np.random.SeedSequence((0, 1, 2)), nodes=nodes)
        assert part.shape == (4, 500)
        npt.assert_allclose(part, full[list(nodes)], rtol=1e-12, atol=1e-12 * np.abs(full).max())
        transfer = ar_transfer_matrix(s, a)
        npt.assert_allclose(
            ar_transfer_matrix(s, a, nodes), transfer[list(nodes)], rtol=1e-12, atol=1e-15
        )
        with pytest.raises(InvalidInputError):
            ar_transfer_matrix(s, a, nodes=(0, 20))

    @pytest.mark.parametrize(
        "graph, a",
        [(sensor_graph(20, seed=7), [0.1, -0.02]), (mobius_ladder(12), [0.2, 0.05])],
        ids=["sensor", "mobius-dft"],
    )
    def test_true_covariance_of_nodes_is_the_full_block(self, graph, a):
        # H_O H_O^T of the kept rows equals the block of U diag(1/|d|^2) U^H, for any node order
        s = build_shift(graph, "adjacency")
        basis = s.basis()
        u = basis.eigvecs
        spectral = ((u * ar_power_spectrum(basis.eigvals, a)) @ u.conj().T).real
        full = true_ar_covariance(build_shift(graph, "adjacency"), a).matrix
        npt.assert_allclose(full, spectral, rtol=0, atol=1e-13)
        for nodes in ((3, 4, 11), (11, 0, 3, 0), (5,)):
            block = true_ar_covariance(s, a, nodes).matrix
            npt.assert_allclose(block, full[np.ix_(nodes, nodes)], rtol=0, atol=1e-13)
        for nodes in ((0, s.n), (-1,), (1.5,), (True, 2)):
            with pytest.raises(InvalidInputError):
                true_ar_covariance(s, a, nodes)

    def test_sample_covariance_from_observed_rows_matches_full_array(self):
        s = build_shift(sensor_graph(20, seed=7), "adjacency")
        schemes = [build_ar_scheme(s, core, 1) for core in ((0,), (5, 9))]
        union = sorted(set().union(*(scheme.distinct_nodes for scheme in schemes)))
        x = generate_ar_signals(s, [0.1], 300, seed=4)
        observed = SnapshotMatrix(x[union], union)
        for scheme in schemes:
            npt.assert_array_equal(
                sample_ar_covariances(scheme, observed).matrix,
                sample_ar_covariances(scheme, x).matrix,
            )
        with pytest.raises(InvalidInputError, match="missing nodes"):
            sample_ar_covariances(schemes[0], SnapshotMatrix(x[:2], (0, 1)))

    def test_true_covariance_without_every_node_refused(self):
        # a matrix other than N x N would be cut by position and name the wrong nodes
        s = build_shift(sensor_graph(20, seed=7), "adjacency")
        scheme = build_ar_scheme(s, (0,), 1)
        cov = true_ar_covariance(s, [0.1])
        for matrix in (cov.matrix[:15, :15], np.eye(25)):
            with pytest.raises(InvalidInputError, match="full 20 x 20"):
                true_ar_covariances(scheme, matrix)
        npt.assert_array_equal(
            true_ar_covariances(scheme, cov).matrix,
            cov.matrix[np.ix_(scheme.distinct_nodes, scheme.distinct_nodes)],
        )

    def test_plain_array_without_every_node_refused(self):
        # a plain array's rows are read as nodes 0..N-1, so a shorter one would
        # hand another node's data to the scheme's higher nodes
        s = build_shift(sensor_graph(20, seed=7), "adjacency")
        scheme = build_ar_scheme(s, (0,), 1)
        assert scheme.distinct_nodes == (0, 2, 7, 8, 9, 13, 14)
        x = generate_ar_signals(s, [0.1], 300, seed=4)
        for rows in (list(range(15)), [*range(14), 19]):
            with pytest.raises(InvalidInputError, match="SnapshotMatrix"):
                sample_ar_covariances(scheme, x[rows])
