"""Autoregressive graph signal model and its neighborhood sampling scheme.

An AR graph signal satisfies ``x = sum_k a_k S^k x + n``, so
``x = H n`` with the transfer ``H = (I - sum_k a_k S^k)^{-1}``. H shares
the shift's eigenvectors: ``H = U diag(1/d) U^H`` with
``d = 1 - sum_k a_k lam^k``, and ``ar_transfer_matrix`` builds any rows
of it from the shift's cached spectral basis instead of factoring the
N x N system. ``generate_ar_signals`` applies only the requested rows to
the white noise, so a Monte-Carlo trial realises only the nodes its
schemes observe; the shift keeps those rows, so every trial after the
first costs one draw and one product. One coefficient rule (an empty or non-finite vector is
refused) and one pole rule (``|d| < 1e-12`` at some graph frequency
raises SingularityError) serve the transfer, the true covariance and
the spectrum.

Observing a small core node set together with the p-hop neighborhoods
of the core (one selection per lag) lets the covariance equations be
written linearly in the AR coefficients, so plain least squares applies.
What is observed is one covariance, of the scheme's distinct nodes in
ascending order (``true_ar_covariances``, ``sample_ar_covariances``);
``build_ar_model`` cuts each level-pair block ``R_{k,q}`` from it by
position, so the cross-level fit of rows ``R[core, level_q]`` reads the
same matrix. The white-noise cross term is dropped, which biases the
estimate even from exact covariances, and not by a small amount: on a
60-node sensor graph (adjacency shift, largest eigenvalue 4.69) with
a = 0.1, the estimate is 0.211 from a one-node core and 0.232 from a
four-node core, so ``a * lambda_max`` crosses 1 and the estimated
spectrum has a pole inside the graph spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SingularityError
from .estimators import EstimationResult, ls_estimate
from .graphs import Graph, ShiftOperator, SpectralBasis, _check_ints, vandermonde
from .models import AUTOREGRESSIVE, ObservationModel, Subsampler, vec
from .stationary import CovarianceMatrix, SnapshotMatrix, _realise, sample_covariance


@dataclass(frozen=True)
class ARSamplingScheme:
    """Core nodes plus one node selection per hop distance up to the order.

    ``levels[p]`` selects the union of p-hop neighborhoods of the core,
    and level 0 is the core itself, so the levels fix both: ``core`` is
    ``levels[0].selected`` and the AR ``order`` is ``len(levels) - 1``. A
    scheme needs at least two levels. Nodes may repeat across levels; the
    per-level algebra keeps those duplicates, while ``distinct_nodes``
    counts each observed node once: it orders the rows and columns of
    the observed covariance and sets the compression. A scheme has no file
    format: :func:`build_ar_scheme` makes it from a core and an order.
    """

    levels: tuple[Subsampler, ...]

    def __post_init__(self):
        if len(self.levels) < 2:
            raise InvalidInputError("an AR scheme needs the core level and at least one hop level")

    @property
    def core(self) -> tuple[int, ...]:
        return self.levels[0].selected

    @property
    def order(self) -> int:
        return len(self.levels) - 1

    @property
    def distinct_nodes(self) -> tuple[int, ...]:
        nodes = set()
        for level in self.levels:
            nodes.update(level.selected)
        return tuple(sorted(nodes))


def _hop_sets(shift: ShiftOperator, nodes, order: int) -> list[tuple[int, ...]]:
    """Union over ``nodes`` of their p-hop neighborhoods, for p = 1..order.

    Membership follows the Boolean sparsity pattern of S^p, so numerical
    cancellation in the actual powers never changes the sampling scheme.
    """
    base = (shift.matrix != 0).astype(np.int64)
    reach = base[list(nodes)]
    sets = []
    for _ in range(order):
        sets.append(tuple(int(i) for i in np.flatnonzero(reach.any(axis=0))))
        reach = np.sign(reach @ base)
    return sets


def neighborhood(shift: ShiftOperator, node: int, p: int) -> tuple[int, ...]:
    """Nodes reachable in exactly-p applications of the shift pattern."""
    _check_ints((node,), 0, shift.n, "node")
    _check_ints((p,), 1, np.inf, "hop distance")
    return _hop_sets(shift, (node,), p)[p - 1]


def build_ar_scheme(shift: ShiftOperator, core, order: int) -> ARSamplingScheme:
    """Sampling scheme observing the core and its 1..P hop neighborhoods.

    The core's repeated nodes count once. The scheme's level 0 is the core
    and it has ``order`` hop levels after it; an empty core, or a core
    with an empty p-hop neighborhood, is refused.
    """
    core = list(core)
    _check_ints(core, 0, shift.n, "core node")
    _check_ints((order,), 1, np.inf, "AR order")
    core = tuple(sorted({int(i) for i in core}))
    if not core:
        raise InvalidInputError("core set must be non-empty")
    levels = [Subsampler(shift.n, core)]
    for p, hop in enumerate(_hop_sets(shift, core, order), start=1):
        if not hop:
            raise InvalidInputError(f"core has empty {p}-hop neighborhood")
        levels.append(Subsampler(shift.n, hop))
    return ARSamplingScheme(tuple(levels))


def core_by_degree(graph: Graph, k0: int) -> tuple[int, ...]:
    """The k0 highest-degree nodes, ties to the lowest index.

    An ``ar-core`` sampler without a ``core`` uses it, with the ``k0``
    default that ``graphcov.experiment.KINDS`` states.
    """
    if not (1 <= k0 <= graph.n_nodes):
        raise InvalidInputError("need 1 <= k0 <= N")
    degrees = graph.degrees()
    order = sorted(range(graph.n_nodes), key=lambda i: (-degrees[i], i))
    return tuple(sorted(order[:k0]))


def true_ar_covariances(scheme: ARSamplingScheme, cov) -> CovarianceMatrix:
    """Covariance of the scheme's distinct nodes, cut from a full N x N covariance.

    A matrix of any other shape is refused, since its rows and columns name
    no nodes.
    """
    matrix = cov.matrix if isinstance(cov, CovarianceMatrix) else np.asarray(cov)
    n = scheme.levels[0].n_nodes
    if matrix.shape != (n, n):
        raise InvalidInputError(f"need the full {n} x {n} covariance, got shape {matrix.shape}")
    nodes = list(scheme.distinct_nodes)
    return CovarianceMatrix(matrix[np.ix_(nodes, nodes)], kind="true")


def sample_ar_covariances(scheme: ARSamplingScheme, snapshots) -> CovarianceMatrix:
    """Sample covariance of the scheme's distinct nodes.

    ``snapshots`` is a SnapshotMatrix, whose rows are picked by node index,
    or a full N x N_s array, whose rows are the nodes 0..N-1; an array
    with another row count is refused, since its rows name no nodes.
    """
    nodes = scheme.distinct_nodes
    if isinstance(snapshots, SnapshotMatrix):
        return sample_covariance(snapshots.rows(nodes))
    x = np.atleast_2d(np.asarray(snapshots, dtype=float))
    n = scheme.levels[0].n_nodes
    if x.shape[0] != n:
        raise InvalidInputError(
            f"a plain array must hold all {n} nodes, got {x.shape[0]} rows; "
            "pass the rows of some nodes as a SnapshotMatrix"
        )
    return sample_covariance(x[list(nodes)])


def build_ar_model(
    shift: ShiftOperator, scheme: ARSamplingScheme, cov
) -> tuple[ObservationModel, np.ndarray]:
    """Stacked linear system relating the observed covariance to AR coefficients.

    ``cov`` is the covariance of ``scheme.distinct_nodes`` (in that order),
    a CovarianceMatrix or a plain array; the block ``R_{k,q}`` of levels k
    and q is cut from it by position. For each lag q, column k of block q
    is ``vec(S^k[core, level_k] R_{k,q})`` and the corresponding target
    rows are ``vec(R_{0,q})``; blocks are stacked over q = 0..P. Returns
    the observation model together with the target vector.
    """
    matrix = cov.matrix if isinstance(cov, CovarianceMatrix) else np.asarray(cov)
    nodes = scheme.distinct_nodes
    if matrix.shape != (len(nodes), len(nodes)):
        raise InvalidInputError(
            f"covariance has shape {matrix.shape}; the scheme observes {len(nodes)} distinct nodes"
        )
    p_order = scheme.order
    core_rows = [shift.matrix[list(scheme.core)]]  # core rows of S^1..S^P, by repeated shifting
    while len(core_rows) < p_order:
        core_rows.append(core_rows[-1] @ shift.matrix)
    where = [np.searchsorted(nodes, level.selected) for level in scheme.levels]
    g_blocks = []
    r_blocks = []
    for q in range(p_order + 1):
        cols = []
        for k in range(1, p_order + 1):
            # np.ix_ keeps the block C-ordered; an F-ordered [:, sel] slice moves the products' last digits
            sk = core_rows[k - 1][np.ix_(range(len(scheme.core)), scheme.levels[k].selected)]
            cols.append(vec(sk @ matrix[np.ix_(where[k], where[q])]))
        g_blocks.append(np.column_stack(cols))
        r_blocks.append(vec(matrix[np.ix_(where[0], where[q])]))
    model = ObservationModel(matrix=np.vstack(g_blocks), param_kind=AUTOREGRESSIVE)
    return model, np.concatenate(r_blocks)


def estimate_ar(model: ObservationModel, r_y) -> EstimationResult:
    """Least-squares AR coefficients from the stacked covariance system."""
    if model.param_kind != AUTOREGRESSIVE:
        raise InvalidInputError("expected an autoregressive observation model")
    return ls_estimate(model, r_y)


def _ar_denominator(eigvals: np.ndarray, coeffs) -> np.ndarray:
    """``1 - sum_k a_k lam^k`` per graph frequency; a zero (a pole) raises SingularityError.

    An empty or non-finite coefficient vector is refused before any arithmetic.
    """
    lam = np.asarray(eigvals, dtype=float)
    a = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if a.size == 0 or not np.all(np.isfinite(a)):
        raise InvalidInputError(f"AR coefficients {a.tolist()} must be a non-empty vector of finite numbers")
    denom = 1.0 - vandermonde(lam, a.size + 1)[:, 1:] @ a
    bad = np.abs(denom) < 1e-12
    if np.any(bad):
        offender = lam[np.argmax(bad)]
        raise SingularityError(f"AR model has a pole at graph frequency {offender!r}")
    return denom


def ar_power_spectrum(eigvals: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Spectrum of an AR model: ``1 / |1 - sum_k a_k lam^k|^2`` per frequency."""
    return 1.0 / np.abs(_ar_denominator(eigvals, coeffs)) ** 2


def _spectral_matrix(basis: SpectralBasis, response: np.ndarray, nodes=None) -> np.ndarray:
    """Rows ``nodes`` (all by default) of ``U diag(response) U^H``, real for a real response."""
    u = basis.eigvecs
    rows = u if nodes is None else u[list(nodes)]
    matrix = (rows * response) @ u.conj().T
    return matrix.real if np.iscomplexobj(matrix) else matrix


def ar_transfer_matrix(shift: ShiftOperator, coeffs: np.ndarray, nodes=None) -> np.ndarray:
    """Rows ``nodes`` of the transfer ``H = (I - sum_k a_k S^k)^{-1}`` from noise to signal.

    H is ``U diag(1/d) U^H`` with ``d = 1 - sum_k a_k lam^k``, read from
    the shift's cached spectral basis, so no system is factored; the real
    part is kept for the complex DFT basis. ``nodes`` (all by default)
    may repeat and come in any order. A pole (some ``d`` zero) raises
    SingularityError, as in :func:`ar_power_spectrum`.
    """
    if nodes is not None:
        _check_ints(nodes, 0, shift.n, "node")
    basis = shift.basis()
    return _spectral_matrix(basis, 1.0 / _ar_denominator(basis.eigvals, coeffs), nodes)


def true_ar_covariance(shift: ShiftOperator, coeffs: np.ndarray) -> CovarianceMatrix:
    """Exact covariance ``H H^T = U diag(1/|d|^2) U^H`` of the AR signal (see the transfer)."""
    basis = shift.basis()
    return CovarianceMatrix(
        _spectral_matrix(basis, ar_power_spectrum(basis.eigvals, coeffs)), kind="true"
    )


def generate_ar_signals(
    shift: ShiftOperator, coeffs: np.ndarray, n_snapshots: int, seed, nodes=None
) -> np.ndarray:
    """AR realizations ``H n`` on the nodes ``nodes`` (all by default), one column per snapshot.

    The white noise ``n`` is drawn on all N nodes, from
    ``numpy.random.default_rng(seed).standard_normal((N, N_s))``, and only
    the rows ``nodes`` of the transfer (:func:`ar_transfer_matrix`, from
    the eigendecomposition) are applied to it, by the same rule as
    :func:`graphcov.stationary.generate_signals`. So for one seed the
    result equals the rows ``nodes`` of the full realization, while a
    study that observes few nodes pays for those rows only. The shift
    keeps the rows (:meth:`~graphcov.graphs.ShiftOperator.transfer_rows`),
    so a second call with the same coefficients and nodes costs the draw
    and one product.
    """
    a = np.atleast_1d(np.asarray(coeffs, dtype=float))
    rows = shift.transfer_rows(
        ("ar", a.shape, a.tobytes()), nodes, lambda nodes: ar_transfer_matrix(shift, coeffs, nodes)
    )
    return _realise(shift, rows, n_snapshots, seed)
