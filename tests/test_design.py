import functools
import itertools
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from graphcov import design
from graphcov._blas import one_blas_thread
from graphcov import (
    CapabilityError,
    CovarianceModel,
    DesignProblem,
    InvalidInputError,
    RepeatedEigenvaluesWarning,
    SpectralBasis,
    Subsampler,
    build_psi_ma,
    build_psi_spectral,
    build_shift,
    check_valid,
    compress_model,
    cycle_graph,
    default_epsilon,
    gram,
    greedy_design,
    is_sparse_ruler,
    minimal_sparse_ruler,
    mobius_ladder,
    sensor_graph,
    set_objective,
)


def random_psi(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    basis = SpectralBasis(eigvecs=q, eigvals=np.arange(n, dtype=float))
    return build_psi_spectral(basis)


def mobius_psi(n):
    s = build_shift(mobius_ladder(n), "adjacency")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
        return build_psi_spectral(s.basis())


def cycle_psi(n):
    s = build_shift(cycle_graph(n), "adjacency")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
        return build_psi_spectral(s.basis())


def sensor_psi(n):
    return build_psi_spectral(build_shift(sensor_graph(n, seed=7), "laplacian").basis())


def dense(psi):
    """The N^2 x M model matrix, every row of it."""
    return compress_model(psi, Subsampler.full(psi.n_nodes)).matrix


def one_shot_epsilon(psi):
    """The default loading, from the dense model matrix ``psi``."""
    return 1e-6 * (1.0 + np.mean(np.real(np.sum(np.conj(psi) * psi, axis=0))))


def reference_greedy_logdet(psi, k, eps):
    """Per-candidate greedy on the dense model matrix ``psi``: one solve and
    one Cholesky per candidate and step.

    Gains within 1e-9 * |max| of the largest gain are tied, and the lowest
    node index among them is picked.
    """
    n, m = int(round(np.sqrt(psi.shape[0]))), psi.shape[1]
    t = np.zeros((m, m), dtype=psi.dtype)
    chol = np.sqrt(eps) * np.eye(m, dtype=psi.dtype)
    selected, trace = [], []

    def new_rows(s):
        rows = [s * n + s]
        for j in selected:
            rows += [j * n + s, s * n + j]
        return psi[rows]

    for _ in range(k):
        gains = {}
        for s in range(n):
            if s in selected:
                continue
            z = new_rows(s)
            w = scipy.linalg.solve_triangular(chol, z.conj().T, lower=True)
            small = np.eye(z.shape[0]) + w.conj().T @ w
            gains[s] = 2.0 * np.sum(np.log(np.real(np.diag(np.linalg.cholesky(small)))))
        best_gain = max(gains.values())
        best_node = min(s for s, g in gains.items() if g >= best_gain - 1e-9 * abs(best_gain))
        z = new_rows(best_node)
        t = t + z.conj().T @ z
        t = 0.5 * (t + t.conj().T)
        chol = np.linalg.cholesky(t + eps * np.eye(m))
        selected.append(best_node)
        trace.append(2.0 * np.sum(np.log(np.real(np.diag(chol)))) - m * np.log(eps))
    return selected, trace


def brute_force_ruler(n):
    """Smallest (then lexicographically first) mark set covering 0..n-1."""
    universe = range(n)
    for size in range(2, n + 1):
        for marks in itertools.combinations(universe, size):
            diffs = {b - a for i, a in enumerate(marks) for b in marks[i:]}
            if all(d in diffs for d in range(n)):
                return marks
    raise AssertionError


# minimal_sparse_ruler(n) of the left-to-right branch and bound it replaced
PREVIOUS_SEARCH_RULERS = {
    15: (0, 1, 2, 3, 4, 9, 14),
    16: (0, 1, 2, 3, 4, 10, 15),
    17: (0, 1, 2, 3, 8, 12, 16),
    18: (0, 1, 2, 3, 8, 13, 17),
    19: (0, 1, 2, 3, 4, 5, 12, 18),
    20: (0, 1, 2, 3, 4, 9, 14, 19),
    21: (0, 1, 2, 3, 4, 10, 15, 20),
    22: (0, 1, 2, 3, 4, 10, 16, 21),
    23: (0, 1, 2, 3, 8, 13, 18, 22),
    24: (0, 1, 2, 11, 15, 18, 21, 23),
    25: (0, 1, 2, 3, 4, 5, 12, 18, 24),
    26: (0, 1, 2, 3, 4, 5, 12, 19, 25),
    27: (0, 1, 2, 3, 4, 10, 15, 21, 26),
    28: (0, 1, 2, 3, 4, 10, 16, 22, 27),
    29: (0, 1, 2, 13, 18, 21, 24, 27, 28),
    30: (0, 1, 2, 14, 18, 21, 24, 27, 29),
    31: (0, 1, 2, 3, 4, 5, 11, 18, 24, 30),
    32: (0, 1, 2, 3, 4, 5, 12, 18, 25, 31),
    33: (0, 1, 2, 3, 4, 5, 12, 19, 26, 32),
    34: (0, 1, 2, 3, 4, 10, 16, 22, 28, 33),
    35: (0, 1, 2, 3, 15, 20, 24, 28, 31, 34),
    36: (0, 1, 2, 17, 21, 24, 27, 30, 33, 35),
    40: (0, 1, 2, 3, 4, 5, 12, 19, 26, 33, 39),
}

# minimal_sparse_ruler(n) of an enumeration of every k-mark ruler without
# the lexicographic cut, where the previous search was too slow to run
ENUMERATED_RULERS = {
    37: (0, 1, 3, 6, 13, 20, 27, 31, 35, 36),
    38: (0, 1, 2, 3, 4, 5, 6, 14, 22, 30, 37),
    39: (0, 1, 2, 3, 4, 5, 12, 19, 25, 32, 38),
    41: (0, 1, 2, 3, 4, 10, 17, 24, 29, 35, 40),
    42: (0, 1, 2, 3, 14, 19, 26, 31, 35, 39, 41),
    43: (0, 1, 2, 3, 19, 24, 28, 32, 36, 39, 42),
    44: (0, 1, 3, 6, 13, 20, 27, 34, 38, 42, 43),
}


class TestGram:
    def test_all_ones_is_full_gram(self):
        psi = random_psi(4, 0)
        npt.assert_allclose(gram(psi, np.ones(4, dtype=bool)), dense(psi).T @ dense(psi), atol=1e-12)

    def test_empty_is_zero(self):
        psi = random_psi(4, 1)
        npt.assert_array_equal(gram(psi, np.zeros(4, dtype=bool)), np.zeros((4, 4)))

    def test_adding_node_is_loewner_monotone(self):
        psi = random_psi(6, 2)
        w = np.zeros(6, dtype=bool)
        w[[1, 4]] = True
        before = np.linalg.eigvalsh(gram(psi, w))
        w[2] = True
        after = np.linalg.eigvalsh(gram(psi, w))
        assert np.all(after >= before - 1e-12)

    def test_matches_dense_definition_on_tiny_instance(self):
        psi = random_psi(4, 3)
        w = np.array([1, 0, 1, 1], dtype=float)
        dense_weight = np.diag(np.kron(w, w))
        expected = dense(psi).T @ dense_weight @ dense(psi)
        npt.assert_allclose(gram(psi, w.astype(bool)), expected, atol=1e-12)


    def test_peak_memory_is_a_few_n_by_n_arrays(self):
        # the Gram comes from the K x N selected basis rows: no K^2 x M
        # block of pair rows, so no term grows with K^2
        n, k = 1000, 100
        psi = random_psi(n, 8)
        sampler = Subsampler(n, tuple(range(0, n, n // k)))
        tracemalloc.start()
        try:
            gram(psi, sampler)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * n * 8 + 2**20


class TestSetObjective:
    def test_empty_is_exactly_zero(self):
        psi = random_psi(5, 4)
        assert set_objective(psi, (), default_epsilon(psi)) == 0.0

    def test_monotone(self):
        rng = np.random.default_rng(5)
        psi = random_psi(8, 5)
        eps = default_epsilon(psi)
        for _ in range(30):
            size_y = rng.integers(1, 8)
            y = set(rng.choice(8, size=size_y, replace=False).tolist())
            x = set(v for v in y if rng.random() < 0.5)
            assert set_objective(psi, x, eps) <= set_objective(psi, y, eps) + 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        psi = random_psi(8, 6)
        eps = default_epsilon(psi)
        for _ in range(20):
            x = set(rng.choice(8, size=rng.integers(1, 8), replace=False).tolist())
            assert set_objective(psi, x, eps) >= 0.0

    def test_pair_structure_breaks_diminishing_returns(self):
        # The selected-pair sum gains 2|X|+1 summands per added node, so the
        # marginal gain grows with the base set: the objective is monotone
        # but NOT submodular. Pin a counterexample so this stays visible.
        rng = np.random.default_rng(6)
        psi = random_psi(8, 6)
        eps = default_epsilon(psi)
        violated = False
        for _ in range(200):
            y = set(rng.choice(8, size=rng.integers(1, 7), replace=False).tolist())
            x = set(v for v in y if rng.random() < 0.5)
            rest = [s for s in range(8) if s not in y]
            if not rest or x == y:
                continue
            s = rest[rng.integers(len(rest))]
            gain_x = set_objective(psi, x | {s}, eps) - set_objective(psi, x, eps)
            gain_y = set_objective(psi, y | {s}, eps) - set_objective(psi, y, eps)
            if gain_x < gain_y - 1e-6:
                violated = True
                break
        assert violated


class TestGreedy:
    def test_identity_basis_picks_lowest_indices(self):
        basis = SpectralBasis(eigvecs=np.eye(5), eigvals=np.arange(5.0))
        psi = build_psi_spectral(basis)
        result = greedy_design(DesignProblem(psi=psi, k=3))
        assert result.sampler.selected == (0, 1, 2)
        assert len(result.objective_trace) == 3

    def test_near_optimal_vs_exhaustive(self):
        psi = random_psi(8, 7)
        eps = default_epsilon(psi)
        k = 3
        greedy_value = set_objective(psi, greedy_design(DesignProblem(psi=psi, k=k)).sampler.selected, eps)
        best = max(
            set_objective(psi, subset, eps) for subset in itertools.combinations(range(8), k)
        )
        assert greedy_value >= (1 - 1 / np.e) * best - 1e-9

    def test_trace_is_nondecreasing(self):
        psi = random_psi(9, 8)
        trace = greedy_design(DesignProblem(psi=psi, k=5)).objective_trace
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_budget_respected(self):
        psi = random_psi(7, 9)
        assert greedy_design(DesignProblem(psi=psi, k=4)).sampler.k == 4

    def test_bad_budget_rejected(self):
        psi = random_psi(4, 10)
        with pytest.raises(InvalidInputError):
            DesignProblem(psi=psi, k=5)
        with pytest.raises(TypeError, match="epsilon"):
            DesignProblem(psi=psi, k=2, epsilon=1e-3)  # the loading is default_epsilon(psi)

    @pytest.mark.parametrize("k", [True, 2.5, 2.0, "2", None])
    def test_budget_that_is_not_an_integer_rejected(self, k):
        psi = random_psi(4, 10)
        with pytest.raises(InvalidInputError, match="K must be an integer"):
            DesignProblem(psi=psi, k=k)


GREEDY_CASES = {
    "sensor30-real": (lambda: sensor_psi(30), 15),
    "mobius12-complex-ties": (lambda: mobius_psi(12), 5),
    "random9": (lambda: random_psi(9, 18), 5),
    "ma20": (lambda: build_psi_ma(build_shift(sensor_graph(20, seed=3), "laplacian"), 5), 4),
    "mobius36-complex-ties": (lambda: mobius_psi(36), 12),
    "sensor60-real": (lambda: sensor_psi(60), 12),
    # a candidate's row count passes M = 3 from the fourth step on
    "ma20-rows-exceed-m": (lambda: build_psi_ma(build_shift(sensor_graph(20, seed=3), "laplacian"), 3), 8),
    # rows never exceed M = 6, but the Vandermonde Gram is ill-conditioned:
    # Woodbury-downdated Grams drift 7e-12 relative from the reference here
    "ma20-q6": (lambda: build_psi_ma(build_shift(sensor_graph(20, seed=3), "laplacian"), 6), 6),
    "sensor100-real": (lambda: sensor_psi(100), 15),
    # a DFT basis past n = 36
    "mobius64-complex": (lambda: mobius_psi(64), 12),
    "ma100": (lambda: build_psi_ma(build_shift(sensor_graph(100, seed=7), "laplacian"), 5), 10),
    # at the last step a candidate adds 2(K - 1) + 1 = 15 pairs at M = 12 lags,
    # so some lag gains two
    "mobius12-rows-exceed-m": (lambda: mobius_psi(12), 8),
    "cycle64-complex": (lambda: cycle_psi(64), 10),
    "cycle128-complex": (lambda: cycle_psi(128), 14),
}

# the GREEDY_CASES on a DFT basis, which the greedy scores on the difference coarray
DFT_CASES = sorted(case for case in GREEDY_CASES if case.startswith(("mobius", "cycle")))


@functools.cache
def greedy_reference(case):
    """The per-candidate reference's order and trace for a case, computed once
    for every block size, which the reference does not read."""
    make_psi, k = GREEDY_CASES[case]
    psi = make_psi()
    return reference_greedy_logdet(dense(psi), k, default_epsilon(psi))


class TestBlockedGreedy:
    @pytest.mark.parametrize("block_rows", [None, 7])
    @pytest.mark.parametrize("case", sorted(GREEDY_CASES))
    def test_matches_per_candidate_reference(self, case, block_rows, monkeypatch):
        # with 7 rows per block, every step scores the candidates, downdates
        # their Grams and appends their rows over several blocks, the last
        # ones one candidate at a time
        if block_rows is not None:
            monkeypatch.setattr(design, "_BLOCK_ROWS", block_rows)
        make_psi, k = GREEDY_CASES[case]
        psi = make_psi()
        expected_order, expected_trace = greedy_reference(case)
        # the j-step design holds the first j picks, which recovers the order
        order, picked = [], set()
        for j in range(1, k + 1):
            result = greedy_design(DesignProblem(psi=psi, k=j))
            order += sorted(set(result.sampler.selected) - picked)
            picked = set(result.sampler.selected)
        assert order == expected_order
        assert result.objective_trace == pytest.approx(expected_trace, rel=1e-12, abs=0)

    def test_ties_go_to_the_lowest_node(self):
        # the Moebius ladder is vertex-transitive: all first-step gains are
        # equal up to rounding, so the first pick is node 0
        assert greedy_design(DesignProblem(psi=mobius_psi(36), k=1)).sampler.selected == (0,)

    def test_raw_matrix_rejected(self):
        with pytest.raises(InvalidInputError, match="CovarianceModel"):
            DesignProblem(psi=np.ones((36, 12)), k=4)

    @pytest.mark.parametrize("block_rows", [None, 64])
    def test_peak_memory_is_the_grams_and_two_blocks(self, block_rows, monkeypatch):
        # no candidate's rows are stored: besides the Grams, C and the
        # self-pair rows, every working array lives in one pass over a block
        # of candidates, and no term grows with N K M
        if block_rows is not None:
            monkeypatch.setattr(design, "_BLOCK_ROWS", block_rows)
        n, k = 100, 15
        psi = sensor_psi(n)
        m = psi.n_params
        grams = n * k * k * 8  # each candidate's k x k Gram of its rows
        inverse = 2 * m * m * 8  # C = (eps I + T)^{-1} and its downdate
        self_rows = n * m * 8  # each candidate's self-pair row
        block = design._BLOCK_ROWS * m * 8
        tracemalloc.start()
        try:
            greedy_design(DesignProblem(psi=psi, k=k))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= grams + inverse + self_rows + 2 * block + 2**18

    def test_design_sensor250_picks(self):
        # the sampler of the design-sensor250 benchmark workload; a changed
        # pick moves every estimate the study makes with it
        with one_blas_thread():
            psi = sensor_psi(250)
            result = greedy_design(DesignProblem(psi=psi, k=25))
        assert result.sampler.selected == (
            7, 23, 30, 56, 61, 62, 69, 70, 72, 79, 90, 95, 127,
            136, 149, 167, 170, 187, 189, 196, 203, 222, 227, 234, 249,
        )

    def test_mc_circulant36_picks(self):
        # the greedy12 sampler of the mc-circulant36 benchmark workload
        result = greedy_design(DesignProblem(psi=mobius_psi(36), k=12))
        assert result.sampler.selected == (0, 1, 3, 7, 12, 17, 24, 25, 26, 28, 30, 33)

    def test_mc_sensor30_picks(self):
        # the greedy15 sampler of the mc-sensor30 benchmark workload
        with one_blas_thread():
            result = greedy_design(DesignProblem(psi=sensor_psi(30), k=15))
        assert result.sampler.selected == (3, 4, 5, 9, 11, 12, 14, 15, 17, 21, 22, 23, 24, 25, 29)

    @pytest.mark.parametrize(
        "n, k, picks",
        [
            (256, 28, (
                0, 1, 3, 7, 8, 12, 20, 23, 30, 44, 47, 63, 65, 80, 88, 96, 102, 112, 122, 140,
                141, 150, 171, 178, 196, 205, 209, 250,
            )),
            (512, 40, (
                0, 1, 3, 7, 12, 20, 30, 44, 52, 65, 80, 96, 120, 122, 123, 147, 157, 177, 181, 186,
                203, 231, 251, 289, 295, 304, 307, 318, 360, 367, 379, 380, 413, 419, 428, 444,
                449, 465, 467, 509,
            )),
        ],
    )
    def test_large_cycle_picks(self, n, k, picks):
        # the picks of the Woodbury greedy on the DFT rows, which the coarray
        # greedy keeps; the dense reference is too large here
        assert greedy_design(DesignProblem(psi=cycle_psi(n), k=k)).sampler.selected == picks

    @pytest.mark.parametrize("case", DFT_CASES)
    def test_rank_on_a_dft_basis_counts_the_lags_the_picks_cover(self, case):
        # the compressed Gram is circulant with eigenvalues w(m) / N, w(m) the
        # picks' ordered pairs at lag m, so its rank is the count of covered lags
        make_psi, k = GREEDY_CASES[case]
        psi = make_psi()
        sampler = greedy_design(DesignProblem(psi=psi, k=k)).sampler
        picks = np.asarray(sampler.selected)
        counts = np.bincount(((picks[:, None] - picks) % psi.n_nodes).ravel(), minlength=psi.n_nodes)
        assert compress_model(psi, sampler).rank == np.count_nonzero(counts)

    def test_complex_basis_that_is_not_dft_refused(self):
        # rows 1 and 2 swapped: still unitary, but row 2 is not row 1 times the step of row 1
        basis = mobius_psi(12).basis[[0, 2, 1, *range(3, 12)]]
        with pytest.raises(CapabilityError, match="DFT basis"):
            greedy_design(DesignProblem(psi=CovarianceModel(basis), k=3))

    def test_model_and_design_stay_far_below_the_dense_model(self):
        n = 200
        basis = build_shift(sensor_graph(n, seed=7), "laplacian").basis()
        tracemalloc.start()
        try:
            greedy_design(DesignProblem(psi=build_psi_spectral(basis), k=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n**3 * 8 / 8  # the dense N^2 x N model alone is N^3 * 8 bytes


class TestDefaultEpsilon:
    @pytest.mark.parametrize("block_rows", [None, 7])
    @pytest.mark.parametrize(
        "make_psi",
        [
            lambda: sensor_psi(30),
            lambda: mobius_psi(12),
            lambda: random_psi(9, 19),
            lambda: build_psi_ma(build_shift(sensor_graph(20, seed=3), "laplacian"), 5),
        ],
        ids=["real", "complex-dft", "random", "ma"],
    )
    def test_equals_one_shot_formula(self, make_psi, block_rows, monkeypatch):
        # the closed form matches the column norms of the dense matrix and
        # the diagonal of the full-selection Gram, summed in blocks of
        # block_rows rows
        if block_rows is not None:
            monkeypatch.setattr(design, "_BLOCK_ROWS", block_rows)
        psi = make_psi()
        assert default_epsilon(psi) == pytest.approx(one_shot_epsilon(dense(psi)), rel=1e-13, abs=0)
        loaded = 1e-6 * (1.0 + np.mean(np.real(np.diag(gram(psi, Subsampler.full(psi.n_nodes))))))
        assert default_epsilon(psi) == pytest.approx(loaded, rel=1e-13, abs=0)


class TestCheckValid:
    def test_too_few_nodes_is_invalid(self):
        psi = random_psi(9, 14)
        report = check_valid(psi, Subsampler(9, (0, 1)))  # K^2 = 4 < 9
        assert not report.valid
        assert not report.feasible
        assert report.rank <= 4

    def test_symmetric_model_counts_distinct_equations(self):
        # a real symmetric model gives K(K+1)/2 = 36 distinct equations for K=8
        s = build_shift(sensor_graph(40, seed=7), "laplacian")
        psi = build_psi_spectral(s.basis())
        sampler = greedy_design(DesignProblem(psi=psi, k=8)).sampler
        report = check_valid(psi, sampler)
        assert report.rank == 36
        assert not report.valid
        assert not report.feasible

    def test_asymmetric_model_counts_all_pairs(self):
        # the DFT model's rows (p,q) and (q,p) are conjugate, not equal:
        # K=4 gives K(K+1)/2 = 10 < M = 12 <= K^2 = 16
        s = build_shift(cycle_graph(12), "adjacency")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
            psi = build_psi_spectral(s.basis())
        report = check_valid(psi, Subsampler(12, (0, 1, 3, 7)))
        assert report.feasible and report.valid and report.rank == 12

    def test_moving_average_model_counts_distinct_equations(self):
        # the MA columns vec(S^k) are real and symmetric: K=3 gives
        # K(K+1)/2 = 6 distinct equations, fewer than Q = 7 <= K^2 = 9
        psi = build_psi_ma(build_shift(sensor_graph(20, seed=7), "laplacian"), 7)
        report = check_valid(psi, Subsampler(20, (0, 5, 11)))
        assert not report.feasible
        assert not report.valid
        assert report.rank <= 6
        assert check_valid(psi, Subsampler(20, (0, 5, 11, 17))).feasible  # 10 >= 7

    def test_moving_average_rows_are_real_on_a_dft_basis(self):
        # the map's rows depend on the frequency only, so the MA model on the
        # complex DFT basis has real rows: K(K+1)/2 equations and a real Gram
        s = build_shift(mobius_ladder(36), "laplacian")
        assert np.iscomplexobj(s.basis().eigvecs)
        psi = build_psi_ma(s, 7)
        assert not psi.complex_rows
        assert not check_valid(psi, Subsampler(36, (0, 5, 11))).feasible  # 6 < 7 <= 9
        assert check_valid(psi, Subsampler(36, (0, 5, 11, 17))).feasible
        assert gram(psi, Subsampler(36, (0, 5, 11))).dtype == float
        value = set_objective(psi, (0, 5, 11, 17), default_epsilon(psi))
        assert isinstance(value, float) and np.isfinite(value)

    def test_reads_the_compressed_model(self):
        psi = sensor_psi(20)
        sampler = Subsampler(20, (0, 3, 5, 8, 11, 13, 16, 19))
        model = compress_model(psi, sampler)
        report = check_valid(psi, sampler)
        assert report.rank == model.rank
        assert report.valid == model.full_column_rank
        assert report.min_singular == model.min_singular
        assert report.condition_number == model.condition_number
        assert np.isfinite(report.condition_number) and report.condition_number >= 1.0

    def test_full_observation_valid(self):
        psi = random_psi(6, 15)
        report = check_valid(psi, Subsampler.full(6))
        assert report.valid and report.feasible
        assert report.rank == 6
        assert report.min_singular > 0

    def test_cycle_ruler_valid(self):
        s = build_shift(cycle_graph(10), "adjacency")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
            psi = build_psi_spectral(s.basis())
        report = check_valid(psi, Subsampler(10, (0, 1, 4, 7, 9)))
        assert report.valid
        assert report.rank == 10

    def test_rank_never_exceeds_bound(self):
        rng = np.random.default_rng(16)
        psi = random_psi(8, 17)
        for _ in range(10):
            k = int(rng.integers(1, 9))
            selected = tuple(sorted(rng.choice(8, size=k, replace=False).tolist()))
            report = check_valid(psi, Subsampler(8, selected))
            assert report.rank <= min(k * k, 8)
            assert report.valid == (report.rank == 8)


class TestSparseRulers:
    def test_paper_length_ten_set(self):
        assert is_sparse_ruler({0, 1, 4, 7, 9}, 10)

    def test_missing_difference(self):
        assert not is_sparse_ruler({0, 1, 4, 7}, 10)

    def test_endpoints_alone_insufficient(self):
        assert not is_sparse_ruler({0, 2}, 3)

    def test_minimal_n10_has_five_marks(self):
        marks = minimal_sparse_ruler(10)
        assert len(marks) == 5
        assert is_sparse_ruler(marks, 10)

    def test_minimal_n2(self):
        assert minimal_sparse_ruler(2) == (0, 1)

    def test_minimal_n4(self):
        assert minimal_sparse_ruler(4) == (0, 1, 3)

    @pytest.mark.parametrize("n", range(4, 17))
    def test_matches_brute_force(self, n):
        oracle = brute_force_ruler(n)
        marks = minimal_sparse_ruler(n)
        assert len(marks) == len(oracle)
        assert marks == oracle

    @pytest.mark.parametrize("n", sorted(PREVIOUS_SEARCH_RULERS))
    def test_matches_previous_search(self, n):
        marks = minimal_sparse_ruler(n)
        assert marks == PREVIOUS_SEARCH_RULERS[n]
        assert is_sparse_ruler(marks, n)

    @pytest.mark.parametrize("n", sorted(ENUMERATED_RULERS))
    def test_matches_full_enumeration(self, n):
        marks = minimal_sparse_ruler(n)
        assert marks == ENUMERATED_RULERS[n]
        assert is_sparse_ruler(marks, n)

    def test_capability_limit(self):
        searches = design._search_ruler.cache_info().misses
        for n in (65, 100):
            with pytest.raises(CapabilityError, match="capped at n=64"):
                minimal_sparse_ruler(n)
        assert design._search_ruler.cache_info().misses == searches
        with pytest.raises(TypeError):
            minimal_sparse_ruler(16, search_limit=16)

    def test_second_call_returns_stored_marks(self):
        first = minimal_sparse_ruler(13)
        searches = design._search_ruler.cache_info().misses
        assert minimal_sparse_ruler(13) is first
        assert design._search_ruler.cache_info().misses == searches

    @pytest.mark.parametrize(
        "call",
        [
            lambda: minimal_sparse_ruler(36.0),
            lambda: minimal_sparse_ruler("36"),
            lambda: is_sparse_ruler([0, 1.5, 3], 4),
        ],
        ids=["float-length", "string-length", "float-mark"],
    )
    def test_non_integer_length_or_mark_refused(self, call):
        with pytest.raises(InvalidInputError, match="integer"):
            call()

    def test_rulers_give_valid_samplers_on_circulant_graphs(self):
        for n in range(6, 17):
            s = build_shift(cycle_graph(n), "adjacency")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
                psi = build_psi_spectral(s.basis())
            marks = minimal_sparse_ruler(n)
            assert check_valid(psi, Subsampler(n, marks)).valid


class TestMobiusLadder:
    def test_fifteen_node_designs_are_valid(self):
        s = build_shift(mobius_ladder(80), "adjacency")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
            psi = build_psi_spectral(s.basis())
        greedy = greedy_design(DesignProblem(psi=psi, k=15)).sampler
        assert check_valid(psi, greedy).valid
        ruler = Subsampler(80, (0, 1, 2, 5, 10, 15, 26, 37, 48, 59, 65, 71, 77, 78, 79))
        assert check_valid(psi, ruler).valid
