import numpy as np
import numpy.testing as npt
import pytest

from graphcov import (
    ARSamplingScheme,
    Graph,
    InvalidInputError,
    RankDeficiencyError,
    SingularityError,
    ar_power_spectrum,
    build_ar_model,
    build_ar_scheme,
    build_shift,
    core_by_degree,
    cycle_graph,
    estimate_ar,
    estimate_ar_uncompressed,
    generate_ar_signals,
    neighborhood,
    path_graph,
    sample_ar_covariances,
    sensor_graph,
    true_ar_covariance,
    true_ar_covariances,
)
from graphcov.ar import ar_system_matrix


def star_graph(n):
    return Graph(n, tuple((0, i, 1.0) for i in range(1, n)))


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
        from graphcov import ShiftOperator

        s = ShiftOperator(w)
        assert (s.matrix @ s.matrix)[0, 2] == 0.0
        assert 2 in neighborhood(s, 0, 2)


class TestScheme:
    def test_cycle10_core0_p2(self):
        s = build_shift(cycle_graph(10), "adjacency")
        scheme = build_ar_scheme(s, (0,), 2)
        assert scheme.level_sizes == (1, 2, 3)
        assert scheme.levels[1].selected == (1, 9)
        assert scheme.levels[2].selected == (0, 2, 8)
        assert scheme.total_observations == 6
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

    def test_json_round_trip(self):
        s = build_shift(cycle_graph(10), "adjacency")
        scheme = build_ar_scheme(s, (0,), 2)
        loaded = ARSamplingScheme.from_json(scheme.to_json(), 10)
        assert loaded == scheme

    def test_core_by_degree_prefers_max_degree_then_lowest_index(self):
        assert core_by_degree(star_graph(5)) == (0,)
        assert core_by_degree(cycle_graph(6)) == (0,)  # all tied, lowest index
        assert core_by_degree(star_graph(5), k0=2) == (0, 1)


class TestModel:
    def test_per_realization_consistency(self):
        # y0 - sum_k a_k S^k[core, level_k] y_k equals the core noise exactly
        s = build_shift(cycle_graph(12), "adjacency")
        a = np.array([0.15, 0.08])
        scheme = build_ar_scheme(s, (2, 5), 2)
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(12)
        x = np.linalg.solve(ar_system_matrix(s, a), noise)
        y0 = x[list(scheme.core)]
        recon = np.zeros_like(y0)
        for k in (1, 2):
            sk = s.powers(3)[k][np.ix_(scheme.core, scheme.levels[k].selected)]
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
        # every level-pair block equals x[level_p] x[level_q]^T / N_s, levels overlapping
        s = build_shift(cycle_graph(10), "adjacency")
        scheme = build_ar_scheme(s, (0, 3), 2)
        x = np.random.default_rng(3).standard_normal((10, 50))
        model, r_y = build_ar_model(s, scheme, sample_ar_covariances(scheme, x))
        lev = [list(level.selected) for level in scheme.levels]
        core = list(scheme.core)
        powers = s.powers(3)
        g_ref, r_ref = [], []
        for q in range(3):
            block = [x[lev[k]] @ x[lev[q]].T / 50 for k in range(3)]
            g_ref.append(
                np.column_stack(
                    [(powers[k][np.ix_(core, lev[k])] @ block[k]).ravel(order="F") for k in (1, 2)]
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

    def test_full_core_equals_uncompressed(self):
        s = build_shift(cycle_graph(10), "adjacency")
        cov = true_ar_covariance(s, [0.2])
        scheme = build_ar_scheme(s, tuple(range(10)), 1)
        model, r_y = build_ar_model(s, scheme, true_ar_covariances(scheme, cov))
        compressed = estimate_ar(model, r_y).theta
        uncompressed = estimate_ar_uncompressed(s, cov, 1).theta
        npt.assert_allclose(compressed, uncompressed, atol=1e-10)

    def test_uncompressed_white_identity(self):
        # R = I and a traceless shift: the best single coefficient is 0
        s = build_shift(cycle_graph(9), "adjacency")
        from graphcov import CovarianceMatrix

        res = estimate_ar_uncompressed(s, CovarianceMatrix(np.eye(9), kind="true"), 1)
        npt.assert_allclose(res.theta, [0.0], atol=1e-12)

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
        reference = np.linalg.solve(ar_system_matrix(s, a), noise)
        x = generate_ar_signals(s, a, 300, seed=12)
        npt.assert_allclose(x, reference, rtol=0, atol=1e-12 * np.abs(reference).max())

    def test_singular_system_rejected(self):
        s = build_shift(cycle_graph(8), "adjacency")
        with pytest.raises(SingularityError):
            ar_system_matrix(s, np.array([0.5]))  # 1 - 0.5*2 = 0 at lambda = 2
