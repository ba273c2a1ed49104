import numpy as np
import numpy.testing as npt
import pytest

from graphcov import (
    CovarianceMatrix,
    GraphFilter,
    InvalidInputError,
    SnapshotMatrix,
    build_shift,
    cycle_graph,
    frequency_response,
    generate_ar_signals,
    generate_signals,
    load_snapshots_csv,
    ma_b_from_h,
    mobius_ladder,
    path_graph,
    power_spectrum_from_cov,
    sample_covariance,
    save_snapshots_csv,
    sensor_graph,
    true_covariance,
)


@pytest.fixture
def path2():
    return build_shift(path_graph(2), "laplacian")


class TestCovarianceType:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            CovarianceMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]), kind="true")

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInputError):
            CovarianceMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]), kind="true")

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            CovarianceMatrix(np.eye(2), kind="estimated")

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1.0, np.nan], [np.nan, 1.0]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[1.0, np.inf], [np.inf, 1.0]],
            [[1.0, np.inf], [0.0, 1.0]],
            [[1.0, np.inf], [-np.inf, 1.0]],
        ],
        ids=["nan", "inf-diagonal", "inf-symmetric", "inf-one-side", "inf-opposite-signs"],
    )
    def test_rejects_non_finite(self, matrix):
        with pytest.raises(InvalidInputError, match="non-finite"):
            CovarianceMatrix(np.array(matrix), kind="sample", n_snapshots=10)

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError, match="non-empty"):
            CovarianceMatrix(np.zeros((0, 0)), kind="true")
        with pytest.raises(InvalidInputError, match="non-empty"):
            sample_covariance(np.zeros((0, 5)))


class TestCovarianceStack:
    @staticmethod
    def matrices(count=4, k=5, seed=0):
        x = np.random.default_rng(seed).standard_normal((count, k, 3))  # 3 < k: singular members
        return x @ np.swapaxes(x, 1, 2) / 3

    def test_members_match_single_matrices(self):
        mats = self.matrices()
        stack = CovarianceMatrix(mats, kind="sample", n_snapshots=3)
        assert stack.k == 5 and stack.min_eigenvalue.shape == (4,)
        for t, m in enumerate(mats):
            one = CovarianceMatrix(m, kind="sample", n_snapshots=3)
            npt.assert_array_equal(stack.matrix[t], one.matrix)
            assert stack.min_eigenvalue[t] == one.min_eigenvalue
            assert isinstance(one.min_eigenvalue, float)

    @pytest.mark.parametrize("bad", ["nan", "indefinite", "non-hermitian"])
    def test_one_bad_member_refuses_the_stack(self, bad):
        mats = self.matrices()
        mats[2] = {
            "nan": np.full((5, 5), np.nan),
            "indefinite": -np.eye(5),
            "non-hermitian": np.triu(np.ones((5, 5))),
        }[bad]
        with pytest.raises(InvalidInputError):
            CovarianceMatrix(mats, kind="sample", n_snapshots=3)

    @pytest.mark.parametrize("positions", [[4, 0, 2], [0, 1, 2, 3, 4]], ids=["subset", "every-row"])
    def test_principal_submatrices(self, positions):
        covs = [CovarianceMatrix(m, kind="sample", n_snapshots=3) for m in self.matrices()]
        stack = CovarianceMatrix.principal(CovarianceMatrix(self.matrices(), kind="sample", n_snapshots=3), positions)
        assert stack.kind == "sample" and stack.n_snapshots == 3
        assert not stack.matrix.flags.writeable
        for t, cov in enumerate(covs):
            sub = CovarianceMatrix(cov.matrix[np.ix_(positions, positions)], kind="sample")
            npt.assert_array_equal(stack.matrix[t], sub.matrix)
            assert stack.min_eigenvalue[t] == sub.min_eigenvalue


class TestTrueCovariance:
    def test_identity_filter(self, path2):
        npt.assert_allclose(true_covariance(path2, GraphFilter([1.0])).matrix, np.eye(2))

    def test_pure_shift_gives_s_squared(self, path2):
        cov = true_covariance(path2, GraphFilter([0.0, 1.0]))
        npt.assert_allclose(cov.matrix, path2.matrix @ path2.matrix)

    def test_path2_one_plus_shift(self, path2):
        cov = true_covariance(path2, GraphFilter([1.0, 1.0]))
        npt.assert_allclose(cov.matrix, [[5, -4], [-4, 5]])

    def test_matches_shift_polynomial(self):
        # H H^T is also sum_k b_k S^k with b from the squared filter polynomial
        s = build_shift(sensor_graph(12, seed=3), "laplacian")
        h = GraphFilter([0.8, 0.3, -0.1])
        b = ma_b_from_h(h)
        expected = sum(bk * np.linalg.matrix_power(s.matrix, k) for k, bk in enumerate(b))
        npt.assert_allclose(true_covariance(s, h).matrix, expected, atol=1e-8)


    def test_node_rows_equal_the_full_covariance_block(self):
        s = build_shift(sensor_graph(20, seed=7), "laplacian")
        h = GraphFilter([1.0, 0.5, 0.2])
        nodes = [3, 7, 8, 15]
        full = true_covariance(s, h).matrix
        npt.assert_allclose(true_covariance(s, h, nodes).matrix, full[np.ix_(nodes, nodes)], rtol=1e-13, atol=0)


class TestGenerateSignals:
    def test_deterministic(self, path2):
        h = GraphFilter([1.0, 0.5])
        a = generate_signals(path2, h, 10, seed=42)
        b = generate_signals(path2, h, 10, seed=42)
        npt.assert_array_equal(a, b)

    def test_zero_filter(self, path2):
        out = generate_signals(path2, GraphFilter([0.0]), 5, seed=0)
        npt.assert_array_equal(out, np.zeros((2, 5)))

    def test_white_noise_converges_to_identity(self):
        s = build_shift(sensor_graph(20, seed=0), "laplacian")
        x = generate_signals(s, GraphFilter([1.0]), 50000, seed=123)
        r_hat = sample_covariance(x).matrix
        assert np.abs(r_hat - np.eye(20)).max() < 0.1


# The two generators share one realisation rule; each case is (signal kind, shift, coefficients).
GENERATORS = {
    "ma": lambda shift, coeffs, *args: generate_signals(shift, GraphFilter(coeffs), *args),
    "ar": generate_ar_signals,
}
REALISE_CASES = {
    "ma-sensor30-laplacian": ("ma", lambda: build_shift(sensor_graph(30, seed=7), "laplacian"), [1.0, 0.5, -0.2]),
    "ma-mobius36-adjacency": ("ma", lambda: build_shift(mobius_ladder(36), "adjacency"), [1.0, 0.5, -0.2]),
    "ar-sensor60-adjacency": ("ar", lambda: build_shift(sensor_graph(60, seed=7), "adjacency"), [0.1]),
}


class TestRealise:
    @pytest.mark.parametrize("case", list(REALISE_CASES))
    def test_node_rows_equal_full_realization_rows(self, case):
        kind, make_shift, coeffs = REALISE_CASES[case]
        shift = make_shift()
        nodes = [17, 3, 25, 3, 0, 11]  # unsorted, with a repeat
        seed = np.random.SeedSequence((4, 1, 2))
        full = GENERATORS[kind](shift, coeffs, 300, seed)
        part = GENERATORS[kind](shift, coeffs, 300, seed, nodes)
        assert full.shape == (shift.n, 300) and part.shape == (len(nodes), 300)
        npt.assert_allclose(part, full[nodes], rtol=1e-12, atol=1e-12 * np.abs(full).max())

    @pytest.mark.parametrize("kind", list(GENERATORS))
    @pytest.mark.parametrize("node", [1.5, True, -1, 10], ids=["fractional", "bool", "negative", "n"])
    def test_bad_node_refused(self, kind, node):
        shift = build_shift(cycle_graph(10), "adjacency")
        with pytest.raises(InvalidInputError, match=r"node must be an integer in \[0, 10\)"):
            GENERATORS[kind](shift, [0.1], 5, 0, [2, node])

    @pytest.mark.parametrize("kind", list(GENERATORS))
    @pytest.mark.parametrize("count", [2.5, True, "3", 0], ids=["fractional", "bool", "string", "zero"])
    def test_bad_snapshot_count_refused(self, kind, count):
        shift = build_shift(cycle_graph(10), "adjacency")
        with pytest.raises(InvalidInputError, match="n_snapshots must be an integer"):
            GENERATORS[kind](shift, [0.1], count, 0)

    @pytest.mark.parametrize("kind", list(GENERATORS))
    def test_numpy_integer_count_accepted(self, kind):
        shift = build_shift(cycle_graph(10), "adjacency")
        assert GENERATORS[kind](shift, [0.1], np.int64(3), 0).shape == (10, 3)


class TestKeptTransfer:
    """The shift keeps the transfer rows of the last (signal, nodes) pair it realised."""

    def test_realisations_match_a_fresh_shift_after_other_signals(self):
        graph = sensor_graph(20, seed=7)
        shift = build_shift(graph, "adjacency")
        seed = np.random.SeedSequence((3, 0, 1))
        sequence = [
            ("ma", [1.0, 0.5, 0.2], (0, 4, 9)),
            ("ma", [1.0, -0.3], (0, 4, 9)),  # another filter
            ("ma", [1.0, -0.3], [2, 4]),  # another node set, as a list
            ("ar", [0.1], [2, 4]),  # another signal kind on the same nodes
            ("ar", [0.05, 0.02], (2, 4)),  # other AR coefficients
            ("ar", [0.05, 0.02], None),  # every node
            ("ma", [1.0, 0.5, 0.2], (0, 4, 9)),  # back to the first pair
        ]
        for kind, coeffs, nodes in sequence:
            fresh = GENERATORS[kind](build_shift(graph, "adjacency"), coeffs, 40, seed, nodes)
            for _ in range(2):  # the pair's first call builds the rows, the second reads them
                npt.assert_array_equal(GENERATORS[kind](shift, coeffs, 40, seed, nodes), fresh)

    def test_kept_rows_are_read_only_and_built_once_per_pair(self):
        shift = build_shift(cycle_graph(6), "adjacency")
        built = []

        def build(nodes):
            built.append(nodes)
            return np.ones((len(nodes), 6))

        rows = shift.transfer_rows(("signal", 1), (1, 2), build)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 2.0
        assert shift.transfer_rows(("signal", 1), [1, 2], build) is rows  # the same nodes, as a list
        shift.transfer_rows(("signal", 2), (1, 2), build)
        shift.transfer_rows(("signal", 2), (1, 3), build)
        assert built == [(1, 2), (1, 2), (1, 3)]

    @pytest.mark.parametrize("kind", list(GENERATORS))
    @pytest.mark.parametrize("bad", [(1.0, 2), (True, 2), (1, 10)], ids=["float", "bool", "n"])
    def test_nodes_equal_to_the_kept_ones_are_still_checked(self, kind, bad):
        # 1.0 == 1 and True == 1, so only the check tells them from the kept node 1
        shift = build_shift(cycle_graph(10), "adjacency")
        GENERATORS[kind](shift, [0.1], 5, 0, (1, 2))
        with pytest.raises(InvalidInputError, match=r"node must be an integer in \[0, 10\)"):
            GENERATORS[kind](shift, [0.1], 5, 0, bad)


class TestSampleCovariance:
    def test_single_column(self):
        y = np.array([[1.0], [2.0]])
        npt.assert_allclose(sample_covariance(y).matrix, [[1, 2], [2, 4]])

    def test_repeated_column(self):
        y = np.array([[1.0, 1.0], [0.0, 0.0]])
        npt.assert_allclose(sample_covariance(y).matrix, [[1, 0], [0, 0]])

    def test_orthogonal_columns(self):
        y = np.eye(2)
        npt.assert_allclose(sample_covariance(y).matrix, np.eye(2) / 2)

    def test_demean(self):
        y = np.array([[1.0, 3.0], [2.0, 2.0]])
        cov = sample_covariance(y, demean=True)
        npt.assert_allclose(cov.matrix, [[1, 0], [0, 0]])
        assert cov.n_snapshots == 2

    @pytest.mark.parametrize("demean", [False, True])
    def test_overflowing_product_refused_without_a_warning(self, demean):
        # the suite turns RuntimeWarnings into errors, so an overflow warning would fail here
        y = np.full((2, 3), 1e307)
        y[1, 0] = -1e307
        with pytest.raises(InvalidInputError, match="non-finite values in covariance"):
            sample_covariance(y, demean=demean)

    @pytest.mark.parametrize("demean", [False, True])
    def test_iterator_gives_the_stack_of_each_members_covariance(self, demean):
        rng = np.random.default_rng(5)
        members = [rng.standard_normal((4, 30)) for _ in range(3)]
        stack = sample_covariance((x for x in members), demean=demean)
        assert stack.matrix.shape == (3, 4, 4) and stack.kind == "sample" and stack.n_snapshots == 30
        for t, x in enumerate(members):
            one = sample_covariance(x, demean=demean)
            npt.assert_array_equal(stack.matrix[t], one.matrix)
            assert stack.min_eigenvalue[t] == one.min_eigenvalue

    def test_a_list_is_one_snapshot_matrix(self):
        assert sample_covariance([[1.0, 3.0], [2.0, 2.0]]).matrix.shape == (2, 2)

    @pytest.mark.parametrize(
        ("members", "match"),
        [
            ([np.ones((2, 3)), np.ones((2, 4))], "one shape"),
            ([np.ones((2, 3)), np.ones((3, 3))], "one shape"),
            ([], "one shape"),
            ([np.ones((2, 3)), np.full((2, 3), np.nan)], "non-finite"),
        ],
        ids=["snapshot-counts", "node-counts", "empty", "non-finite"],
    )
    def test_bad_block_refused(self, members, match):
        with pytest.raises(InvalidInputError, match=match):
            sample_covariance(iter(members))

    def test_consistency_rate(self):
        # squared covariance error shrinks like 1/N_s (within a factor of 2)
        s = build_shift(cycle_graph(10), "adjacency")
        h = GraphFilter([1.0, 0.5])
        r_true = true_covariance(s, h).matrix
        err = {}
        for n_s in (100, 1000, 10000):
            total = 0.0
            for trial in range(20):
                x = generate_signals(s, h, n_s, seed=1000 * trial + n_s)
                total += np.linalg.norm(sample_covariance(x).matrix - r_true) ** 2
            err[n_s] = total / 20
        assert 5.0 < err[100] / err[1000] < 20.0
        assert 5.0 < err[1000] / err[10000] < 20.0


class TestPowerSpectrum:
    def test_identity_cov(self):
        basis = build_shift(cycle_graph(6), "adjacency").basis()
        cov = CovarianceMatrix(np.eye(6), kind="true")
        npt.assert_allclose(power_spectrum_from_cov(basis, cov), np.ones(6), atol=1e-12)

    def test_recovers_diagonal(self):
        basis = build_shift(sensor_graph(9, seed=2), "laplacian").basis()
        q = np.arange(1.0, 10.0)
        cov = CovarianceMatrix((basis.eigvecs * q) @ basis.eigvecs.conj().T, kind="true")
        npt.assert_allclose(power_spectrum_from_cov(basis, cov), q, atol=1e-10)

    def test_matches_squared_response(self):
        s = build_shift(sensor_graph(11, seed=5), "laplacian")
        basis = s.basis()
        h = GraphFilter([1.0, -0.4, 0.2])
        p = power_spectrum_from_cov(basis, true_covariance(s, h))
        npt.assert_allclose(p, np.abs(frequency_response(basis.eigvals, h)) ** 2, atol=1e-8)


class TestSnapshotCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        snaps = SnapshotMatrix(rng.standard_normal((3, 7)), (0, 2, 5))
        path = tmp_path / "snaps.csv"
        save_snapshots_csv(path, snaps)
        loaded = load_snapshots_csv(path)
        assert loaded.node_indices == (0, 2, 5)
        npt.assert_array_equal(loaded.data, snaps.data)

    def test_header_layout(self, tmp_path):
        snaps = SnapshotMatrix(np.zeros((2, 3)), (1, 4))
        path = tmp_path / "snaps.csv"
        save_snapshots_csv(path, snaps)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "node_1,node_4"
        assert len(lines) == 4  # header + one row per snapshot

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidInputError):
            load_snapshots_csv(path)

    @pytest.mark.parametrize("column", ["node_-1", "node_1.5"])
    def test_column_that_names_no_node_refused(self, tmp_path, column):
        path = tmp_path / "bad.csv"
        path.write_text(f"node_0,{column}\n1,2\n3,4\n")
        with pytest.raises(InvalidInputError):
            load_snapshots_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"node_0,node_1\n1,2\n3,{value}\n")
        with pytest.raises(InvalidInputError, match="non-finite"):
            load_snapshots_csv(path)
        with pytest.raises(InvalidInputError, match="non-finite"):
            SnapshotMatrix(np.array([[1.0, 3.0], [2.0, float(value)]]), (0, 1))


class TestSnapshotRows:
    def test_rows_follow_node_index_in_requested_order(self):
        data = np.arange(12.0).reshape(4, 3)
        snaps = SnapshotMatrix(data, (7, 2, 5, 9))
        npt.assert_array_equal(snaps.rows((2, 9, 7)), data[[1, 3, 0]])
        npt.assert_array_equal(snaps.rows((5, 5)), data[[2, 2]])

    @pytest.mark.parametrize("nodes", [(1.5, True, -4), (1.5, 2), (True, 2), (0, -1)], ids=str)
    def test_node_index_that_is_not_a_node_refused(self, nodes):
        # int() would truncate a fractional or bool index, and a negative
        # index names no node
        with pytest.raises(InvalidInputError, match="node must be an integer"):
            SnapshotMatrix(np.zeros((len(nodes), 3)), nodes)

    def test_numpy_node_indices_accepted(self):
        snaps = SnapshotMatrix(np.zeros((2, 3)), tuple(np.array([4, 1])))
        assert snaps.node_indices == (4, 1)

    def test_absent_node_refused(self):
        snaps = SnapshotMatrix(np.zeros((2, 3)), (1, 4))
        with pytest.raises(InvalidInputError, match=r"missing nodes \[0, 3\]"):
            snaps.rows((0, 1, 3))
