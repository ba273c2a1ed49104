import numpy as np
import numpy.testing as npt
import pytest

from graphcov import (
    Graph,
    GraphFilter,
    InvalidInputError,
    RepeatedEigenvaluesWarning,
    ShiftOperator,
    SpectralBasis,
    apply_filter,
    build_psi_spectral,
    build_shift,
    circulant_dft_basis,
    cycle_graph,
    eigendecompose,
    frequency_response,
    is_circulant,
    mobius_ladder,
    path_graph,
    sensor_graph,
)


def path2_laplacian():
    return build_shift(path_graph(2), "laplacian")


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInputError):
            Graph(3, ((0, 0, 1.0),))

    def test_rejects_duplicate_pair(self):
        with pytest.raises(InvalidInputError):
            Graph(3, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Graph(2, ((0, 2, 1.0),))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(InvalidInputError):
            Graph(2, ((0, 1, 0.0),))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            Graph(0, ())

    def test_json_round_trip(self):
        g = Graph(3, ((0, 1, 2.0), (1, 2, 0.5)))
        g2 = Graph.from_json(g.to_json())
        assert g2 == g

    def test_json_default_weight(self):
        g = Graph.from_json('{"n": 2, "edges": [[0, 1]]}')
        assert g.edges == ((0, 1, 1.0),)


class TestBuildShift:
    def test_path2_laplacian(self):
        npt.assert_allclose(path2_laplacian().matrix, [[1, -1], [-1, 1]])

    def test_path2_adjacency(self):
        s = build_shift(path_graph(2), "adjacency")
        npt.assert_allclose(s.matrix, [[0, 1], [1, 0]])

    def test_triangle_laplacian(self):
        g = Graph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
        s = build_shift(g, "laplacian")
        npt.assert_allclose(s.matrix, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            build_shift(path_graph(2), "normalized")

    def test_sparsity_pattern_matches_edges(self):
        g = sensor_graph(15, seed=1)
        s = build_shift(g, "adjacency")
        w = g.weight_matrix()
        assert np.array_equal(s.matrix != 0, w != 0)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            ShiftOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEigendecompose:
    def test_path2(self):
        basis = eigendecompose(path2_laplacian())
        npt.assert_allclose(basis.eigvals, [0.0, 2.0], atol=1e-12)
        npt.assert_allclose(np.abs(basis.eigvecs[:, 0]), [1, 1] / np.sqrt(2))
        npt.assert_allclose(np.abs(basis.eigvecs[:, 1]), [1, 1] / np.sqrt(2))
        assert basis.distinct

    def test_identity_not_distinct(self):
        basis = eigendecompose(ShiftOperator(np.eye(3)))
        npt.assert_allclose(basis.eigvals, [1, 1, 1])
        assert not basis.distinct

    def test_cycle4_adjacency(self):
        # circulant spectrum 2 cos(2 pi k / 4), verified numerically
        s = build_shift(cycle_graph(4), "adjacency")
        basis = eigendecompose(s)
        npt.assert_allclose(basis.eigvals, [-2, 0, 0, 2], atol=1e-12)
        assert not basis.distinct

    def test_sign_convention_deterministic(self):
        s = build_shift(sensor_graph(12, seed=4), "laplacian")
        u1 = eigendecompose(s).eigvecs
        u2 = eigendecompose(ShiftOperator(s.matrix.copy())).eigvecs
        npt.assert_array_equal(u1, u2)
        idx = np.argmax(np.abs(u1), axis=0)
        assert np.all(u1[idx, np.arange(u1.shape[1])] > 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction(self, seed):
        s = build_shift(sensor_graph(20, seed=seed), "laplacian")
        basis = s.basis()
        recon = basis.eigvecs @ np.diag(basis.eigvals) @ basis.eigvecs.conj().T
        assert np.abs(s.matrix - recon).max() < 1e-8 * np.abs(s.matrix).max()


class TestCirculantDft:
    def test_two_node_cycle(self):
        s = ShiftOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        basis = circulant_dft_basis(s)
        npt.assert_allclose(basis.eigvecs, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-14)
        npt.assert_allclose(basis.eigvals, [1, -1], atol=1e-14)

    def test_cycle4_dft_order(self):
        s = build_shift(cycle_graph(4), "adjacency")
        basis = circulant_dft_basis(s)
        npt.assert_allclose(basis.eigvals, [2, 0, -2, 0], atol=1e-12)

    def test_non_circulant_rejected(self):
        with pytest.raises(InvalidInputError):
            circulant_dft_basis(build_shift(path_graph(3), "laplacian"))

    def test_diagonalizes(self):
        s = build_shift(mobius_ladder(12), "adjacency")
        assert is_circulant(s.matrix)
        basis = circulant_dft_basis(s)
        u = basis.eigvecs
        off = u.conj().T @ s.matrix @ u - np.diag(basis.eigvals)
        assert np.abs(off).max() < 1e-10

    def test_kind_dispatch(self):
        s = build_shift(cycle_graph(6), "adjacency")
        assert np.iscomplexobj(s.basis().eigvecs)


def clusters(sorted_eigvals):
    """Index runs of sorted eigenvalues closer than the distinctness gap."""
    tol = 1e-8 * max(1.0, np.abs(sorted_eigvals).max())
    cuts = np.flatnonzero(np.diff(sorted_eigvals) > tol) + 1
    return np.split(np.arange(sorted_eigvals.size), cuts)


CIRCULANT_GRAPHS = [cycle_graph(n) for n in range(5, 41)] + [mobius_ladder(n) for n in range(8, 37, 2)]


class TestBasisFollowsMatrix:
    @pytest.mark.parametrize("kind", ["laplacian", "adjacency"])
    def test_circulant_shift_gets_the_dft_basis(self, kind):
        # the DFT basis spans the same eigenspaces as eigh: equal sorted
        # eigenvalues and equal spectral projectors per eigenvalue cluster
        for graph in CIRCULANT_GRAPHS:
            s = build_shift(graph, kind)
            basis = s.basis()
            dft = circulant_dft_basis(s)
            npt.assert_array_equal(basis.eigvecs, dft.eigvecs)
            npt.assert_array_equal(basis.eigvals, dft.eigvals)
            ref = eigendecompose(s)
            order = np.argsort(basis.eigvals, kind="stable")
            u, lam = basis.eigvecs[:, order], basis.eigvals[order]
            npt.assert_allclose(lam, ref.eigvals, rtol=0, atol=1e-12)
            assert basis.distinct == ref.distinct
            for idx in clusters(ref.eigvals):
                proj = u[:, idx] @ u[:, idx].conj().T
                ref_proj = ref.eigvecs[:, idx] @ ref.eigvecs[:, idx].T
                npt.assert_allclose(proj, ref_proj, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["laplacian", "adjacency"])
    def test_path_keeps_the_real_eigh_basis(self, kind):
        s = build_shift(path_graph(7), kind)
        assert not is_circulant(s.matrix)
        basis = s.basis()
        assert basis.eigvecs.dtype == float
        npt.assert_array_equal(basis.eigvecs, eigendecompose(s).eigvecs)

    def test_circulant_dft_basis_refuses_a_non_circulant_shift(self):
        s = build_shift(path_graph(7), "adjacency")
        with pytest.raises(InvalidInputError, match="not circulant"):
            circulant_dft_basis(s)


class TestDistinct:
    def test_repeated_eigenvalue_is_not_distinct(self):
        basis = SpectralBasis(np.eye(2), np.zeros(2))
        assert not basis.distinct
        with pytest.warns(RepeatedEigenvaluesWarning):
            build_psi_spectral(basis)

    @pytest.mark.parametrize("top", [0.5, 1.0, 40.0, -300.0])
    def test_gap_rule_scales_with_the_largest_eigenvalue(self, top):
        # distinct exactly when every gap exceeds 1e-8 * max(1, max|lam|)
        tol = 1e-8 * max(1.0, abs(top))
        for factor, expected in ((0.9, False), (1.1, True)):
            eigvals = np.array([top, top + np.sign(top) * factor * tol, 0.1 * top])
            basis = SpectralBasis(np.eye(3), eigvals)
            assert basis.distinct is expected, (top, factor)


class TestApplyFilter:
    def test_identity_filter(self):
        s = path2_laplacian()
        x = np.array([3.0, -1.0])
        npt.assert_allclose(apply_filter(s, GraphFilter([1.0]), x), x)

    def test_single_shift(self):
        s = path2_laplacian()
        x = np.array([1.0, 2.0])
        npt.assert_allclose(apply_filter(s, GraphFilter([0.0, 1.0]), x), s.matrix @ x)

    def test_one_plus_shift(self):
        s = path2_laplacian()
        npt.assert_allclose(apply_filter(s, GraphFilter([1.0, 1.0]), np.array([1.0, 0.0])), [2, -1])

    def test_too_long_filter(self):
        with pytest.raises(InvalidInputError):
            apply_filter(path2_laplacian(), GraphFilter([1.0, 1.0, 1.0]), np.zeros(2))

    def test_matches_spectral_formula(self):
        rng = np.random.default_rng(7)
        s = build_shift(sensor_graph(14, seed=5), "laplacian")
        basis = s.basis()
        h = GraphFilter(rng.standard_normal(4))
        x = rng.standard_normal(14)
        direct = apply_filter(s, h, x)
        hf = frequency_response(basis.eigvals, h)
        spectral = basis.eigvecs @ (hf * (basis.eigvecs.conj().T @ x))
        assert np.linalg.norm(direct - spectral) < 1e-8 * np.linalg.norm(direct)


class TestFrequencyResponse:
    def test_constant(self):
        npt.assert_allclose(frequency_response(np.array([0.3, 1.7]), GraphFilter([2.5])), [2.5, 2.5])

    def test_linear(self):
        npt.assert_allclose(frequency_response(np.array([0.0, 2.0]), GraphFilter([0.0, 1.0])), [0, 2])

    def test_sum(self):
        npt.assert_allclose(frequency_response(np.array([1.0]), GraphFilter([1.0, 1.0, 1.0])), [3.0])


class TestFamilies:
    def test_cycle4_edges(self):
        assert set((i, j) for i, j, _ in cycle_graph(4).edges) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_mobius6(self):
        edges = set((i, j) for i, j, _ in mobius_ladder(6).edges)
        assert {(0, 3), (1, 4), (2, 5)} <= edges
        assert len(edges) == 9

    def test_mobius_odd_rejected(self):
        with pytest.raises(InvalidInputError):
            mobius_ladder(7)

    def test_cycle_and_mobius_are_circulant(self):
        assert is_circulant(build_shift(cycle_graph(9), "adjacency").matrix)
        assert is_circulant(build_shift(mobius_ladder(10), "adjacency").matrix)

    def test_changed_entry_in_last_row_not_circulant(self):
        matrix = build_shift(mobius_ladder(36), "adjacency").matrix.copy()
        matrix[-1, 5] += 1.0
        assert not is_circulant(matrix)

    @pytest.mark.parametrize(
        "matrix, expected",
        [
            ([[3.0]], True),
            ([[np.nan]], True),  # row 0 is never compared with itself
            ([[0.0, 1.0], [1.0, 0.0]], True),
            ([[1.0, 2.0], [2.0, 1.0]], True),
            ([[1.0, 2.0], [2.0, 1.5]], False),
            ([[1.0, 2.0], [3.0, 4.0]], False),
        ],
    )
    def test_small_matrices(self, matrix, expected):
        assert is_circulant(np.array(matrix)) is expected

    def test_sensor_deterministic(self):
        assert sensor_graph(30, seed=7).to_json() == sensor_graph(30, seed=7).to_json()

    def test_sensor_weights_in_unit_interval(self):
        g = sensor_graph(25, seed=9)
        weights = [w for _, _, w in g.edges]
        assert all(0 < w <= 1 for w in weights)
        degrees = (g.weight_matrix() != 0).sum(axis=1)
        assert degrees.min() >= 6
