import json
import numbers
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from graphcov import (
    ConvergenceError,
    Graph,
    GraphFilter,
    InvalidInputError,
    NumericalError,
    RepeatedEigenvaluesWarning,
    ShiftOperator,
    SpectralBasis,
    apply_filter,
    build_psi_spectral,
    build_shift,
    cycle_graph,
    eigendecompose,
    frequency_response,
    is_circulant,
    mobius_ladder,
    path_graph,
    sensor_graph,
)


# weights near the float maximum: degrees of 3e308 and eigenvalues of
# +-sqrt(2) * 1.5e308 (star) and 3e308 (cycle, circulant) overflow to inf
HUGE_STAR = Graph(3, ((0, 1, 1.5e308), (0, 2, 1.5e308)))
HUGE_CYCLE = Graph(4, tuple((i, (i + 1) % 4, 1.5e308) for i in range(4)))


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

    def test_asymmetry_near_the_float_maximum_rejected(self):
        with pytest.raises(InvalidInputError, match="symmetric"):
            ShiftOperator(np.array([[0.0, 1.5e308], [-1.5e308, 0.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, value):
        with pytest.raises(InvalidInputError, match="non-finite"):
            ShiftOperator(np.full((3, 3), value))

    @pytest.mark.parametrize("graph", [HUGE_STAR, HUGE_CYCLE], ids=["star", "cycle"])
    def test_overflowing_degree_rejected(self, graph):
        with pytest.raises(InvalidInputError, match="non-finite"):
            build_shift(graph, "laplacian")

    def test_weights_near_the_float_maximum_keep_their_values(self):
        s = build_shift(HUGE_STAR, "adjacency")
        assert s.matrix[0, 1] == s.matrix[1, 0] == 1.5e308


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

    @pytest.mark.parametrize("graph", [HUGE_STAR, HUGE_CYCLE], ids=["star-eigh", "cycle-dft"])
    def test_overflowing_eigenvalues_are_a_numerical_error(self, graph):
        with pytest.raises(NumericalError, match="overflow"):
            build_shift(graph, "adjacency").basis()

    def test_eigh_that_does_not_converge_is_a_convergence_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            eigendecompose(path2_laplacian())

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
        basis = s.basis()
        npt.assert_allclose(basis.eigvecs, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-14)
        npt.assert_allclose(basis.eigvals, [1, -1], atol=1e-14)

    def test_cycle4_dft_order(self):
        s = build_shift(cycle_graph(4), "adjacency")
        basis = s.basis()
        npt.assert_allclose(basis.eigvals, [2, 0, -2, 0], atol=1e-12)

    def test_diagonalizes(self):
        s = build_shift(mobius_ladder(12), "adjacency")
        assert is_circulant(s.matrix)
        basis = s.basis()
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
            m = np.arange(s.n)
            npt.assert_array_equal(basis.eigvecs, np.exp(-2j * np.pi * np.outer(m, m) / s.n) / np.sqrt(s.n))
            npt.assert_array_equal(basis.eigvals, np.fft.fft(s.matrix[0]).real)
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


class TestSpectralBasisChecks:
    def test_nan_vectors_rejected(self):
        with pytest.raises(InvalidInputError, match="not orthonormal"):
            SpectralBasis(np.full((2, 2), np.nan), np.zeros(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_eigenvalue_rejected(self, value):
        with pytest.raises(InvalidInputError, match="non-finite eigenvalue"):
            SpectralBasis(np.eye(2), np.array([0.0, value]))


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


class TestGraphFilter:
    @pytest.mark.parametrize("coeffs", [[np.nan], [1.0, np.inf], [-np.inf]])
    def test_non_finite_taps_rejected(self, coeffs):
        with pytest.raises(InvalidInputError, match="not all finite"):
            GraphFilter(coeffs)


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


# --- The graph layer against the per-edge loops it replaced -----------------
#
# These are the loops that built and checked graphs before the graph layer
# worked on arrays, kept as the reference: graphs, weight matrices, shift
# matrices and refusals must equal theirs, byte for byte.


def reference_edges(n, edges):
    """The canonical edges of ``Graph(n, edges)``, one edge after another."""
    seen = set()
    canonical = []
    for edge in edges:
        if len(edge) not in (2, 3):
            raise InvalidInputError(f"edge {list(edge)} must be [i, j] or [i, j, weight]")
        i, j, w = (*edge, 1.0) if len(edge) == 2 else edge
        if not (isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                and isinstance(j, (int, np.integer)) and not isinstance(j, bool)):
            raise InvalidInputError(f"edge {list(edge)} has a non-integer endpoint")
        i, j = int(i), int(j)
        if i == j:
            raise InvalidInputError(f"self-loop at node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidInputError(f"edge ({i},{j}) out of range for n={n}")
        if isinstance(w, bool) or not isinstance(w, numbers.Real) or not 0 < w < np.inf:
            raise InvalidInputError(f"edge ({i},{j}) weight {w!r} is not finite and positive")
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise InvalidInputError(f"duplicate edge {pair}")
        seen.add(pair)
        canonical.append((pair[0], pair[1], float(w)))
    return tuple(canonical)


def reference_weight_matrix(n, edges):
    w = np.zeros((n, n))
    for i, j, wt in edges:
        w[i, j] = wt
        w[j, i] = wt
    return w


def reference_distances(n, seed):
    """The N x N distances of the sensor graph's points, inf on the diagonal."""
    pts = np.random.default_rng(seed).random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return dist


def reference_sensor_edges(dist, knn):
    nn = np.argsort(dist, axis=1)[:, :knn]
    sigma = float(np.mean(np.take_along_axis(dist, nn, axis=1)))
    pairs = set()
    for i in range(dist.shape[0]):
        for j in nn[i]:
            pairs.add((min(i, int(j)), max(i, int(j))))
    return tuple(
        (i, j, float(np.exp(-(dist[i, j] ** 2) / (2.0 * sigma**2)))) for i, j in sorted(pairs)
    )


def assert_graph_matches_reference(graph, n, edges):
    ref = reference_edges(n, edges)
    assert graph.to_json() == json.dumps({"n": n, "edges": [list(e) for e in ref]})
    w = reference_weight_matrix(n, ref)
    assert graph.weight_matrix().tobytes() == w.tobytes()
    assert graph.degrees().tobytes() == w.sum(axis=1).tobytes()
    with np.errstate(over="ignore"):
        laplacian = np.diag(w.sum(axis=1)) - w
    assert build_shift(graph, "laplacian").matrix.tobytes() == ShiftOperator(laplacian).matrix.tobytes()
    assert build_shift(graph, "adjacency").matrix.tobytes() == ShiftOperator(w).matrix.tobytes()


class TestGraphLayerKeepsItsBytes:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [2, 3, 7, 30, 60, 250, 1000])
    def test_sensor_graph(self, n, seed):
        dist = reference_distances(n, seed)
        for knn in (k for k in (1, 3, 6, 10) if k < n):
            ref = reference_sensor_edges(dist, knn)
            assert_graph_matches_reference(sensor_graph(n, seed=seed, knn=knn), n, ref)

    @pytest.mark.parametrize(
        "build, n",
        [(cycle_graph, n) for n in (2, 3, 4, 9, 36)]
        + [(path_graph, n) for n in (2, 3, 7)]
        + [(mobius_ladder, n) for n in (4, 6, 12, 36)],
    )
    def test_families(self, build, n):
        graph = build(n)
        assert_graph_matches_reference(graph, n, graph.edges)

    def test_edges_keep_the_order_given(self):
        edges = ((3, 1, 0.5), (0, 2), (np.int64(1), 0, 2))
        assert_graph_matches_reference(Graph(4, edges), 4, edges)

    def test_sensor_search_holds_no_n_by_n_array(self):
        # the N x N search of the loops held 160 MB at N = 2000
        tracemalloc.start()
        try:
            sensor_graph(2000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20e6

    def test_degrees_hold_no_n_by_n_array(self):
        # the whole W held 32 MB at N = 2000
        graph = sensor_graph(2000, seed=7)
        tracemalloc.start()
        try:
            graph.degrees()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


NAN = float("nan")
# 174 edges of a 60-node path, drawn with repeats, some reversed: a sort of
# the pairs that is not stable reorders their runs and can name a later pair
_draw = np.random.default_rng(1)
REPEATED_PATH_EDGES = [
    (int(i), int(i) + 1)[::step] for i, step in zip(_draw.integers(0, 59, 174), _draw.choice([1, -1], 174))
]


class TestGraphRefusals:
    # each list holds faults at several edges; the refusal is the first edge's first failed check
    @pytest.mark.parametrize(
        "n, edges",
        [
            (3, [(0, 1), (0,), (0, 0)]),
            (3, [(0, 1), (1, 2, 1.0, 4)]),
            (3, [(0, 1.0), (0, 5)]),
            (3, [(0, 1), (True, 2), (1, 1)]),
            (3, [(0, 1), (np.float64(1), 2)]),
            (3, [(0, 1), ("0", 2)]),
            (3, [(0, 1), (2, 2), (1, 2, "x")]),
            (3, [(1, 1, "x"), (0, 5)]),
            (3, [(0, 5), (1, 1)]),
            (3, [(0, 1), (-1, 2)]),
            (3, [(0, 10**30)]),
            (3, [(0, 1), (2**64, 0)]),
            (3, [(0, 1), (0, np.uint64(2**64 - 1))]),
            (3, [(0, 1, "x"), (1, 0)]),
            (3, [(0, 1), (0, 1, "x")]),
            (3, [(0, 1, NAN)]),
            (3, [(0, 1, np.float64(NAN))]),
            (3, [(0, 1, 0.0)]),
            (3, [(0, 1, -1)]),
            (3, [(0, 1, np.inf)]),
            (3, [(0, 1, True)]),
            (3, [(0, 1, None)]),
            (4, [(0, 1), (1, 2), (2, 1, 0.5), (3, 3)]),
            (4, [(0, 1), (2, 3), (3, 2), (1, 0)]),
            (4, [(np.int64(2), np.int32(3)), (np.uint8(3), 2)]),
            (60, REPEATED_PATH_EDGES),
        ],
    )
    def test_message_of_the_first_offending_edge(self, n, edges):
        with pytest.raises(InvalidInputError) as want:
            reference_edges(n, edges)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(want.value))}$"):
            Graph(n, edges)

    @pytest.mark.parametrize(
        "n, edges",
        [
            (1, []),
            (3, [[2, 0], (1, 2, 3)]),
            (3, [(0, 1, 2**70), (1, 2, np.float32(0.1))]),
            (10**20, [(0, 10**19)]),
        ],
    )
    def test_accepted_edges_equal_the_loop(self, n, edges):
        assert Graph(n, edges).edges == reference_edges(n, edges)


class TestBuilderSizes:
    @pytest.mark.parametrize(
        "build, arg, value",
        [
            (lambda v: sensor_graph(30, knn=v), "knn", True),
            (lambda v: sensor_graph(30, knn=v), "knn", 2.5),
            (lambda v: sensor_graph(v), "n", True),
            (cycle_graph, "n", 4.0),
            (path_graph, "n", 3.5),
            (mobius_ladder, "n", 6.0),
        ],
        ids=["sensor-knn-bool", "sensor-knn-float", "sensor-n-bool", "cycle-float", "path-float", "mobius-float"],
    )
    def test_non_integer_size_refused(self, build, arg, value):
        with pytest.raises(InvalidInputError, match=rf"\b{arg} must be an integer .*, got {re.escape(repr(value))}$"):
            build(value)
