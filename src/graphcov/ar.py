"""Autoregressive graph signal model and its neighborhood sampling scheme.

An AR graph signal satisfies ``x = sum_k a_k S^k x + n``. Observing a
small core node set together with the p-hop neighborhoods of the core
(one selection per lag) lets the covariance equations be written
linearly in the AR coefficients, so plain least squares applies. The
white-noise cross term is dropped, which biases the estimate even from
exact covariances, and not by a small amount: on a 60-node sensor graph
(adjacency shift, largest eigenvalue 4.69) with a = 0.1, the estimate is
0.211 from a one-node core and 0.232 from a four-node core, so
``a * lambda_max`` crosses 1 and the estimated spectrum has a pole
inside the graph spectrum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SingularityError
from .estimators import EstimationResult, ls_estimate
from .graphs import Graph, ShiftOperator
from .models import AUTOREGRESSIVE, ObservationModel, Subsampler, vec
from .stationary import CovarianceMatrix


@dataclass(frozen=True)
class ARSamplingScheme:
    """Core nodes plus one node selection per hop distance up to the order.

    ``levels[p]`` selects the union of p-hop neighborhoods of the core
    (level 0 is the core itself). Nodes may repeat across levels; the
    per-level algebra keeps those duplicates, while ``distinct_nodes``
    counts each observed node once for compression accounting.
    """

    core: tuple[int, ...]
    order: int
    levels: tuple[Subsampler, ...]

    def __post_init__(self):
        if not self.core:
            raise InvalidInputError("core set must be non-empty")
        if self.order < 1:
            raise InvalidInputError("AR order must be >= 1")
        if len(self.levels) != self.order + 1:
            raise InvalidInputError("need one level per hop 0..P")
        core = tuple(sorted(int(i) for i in self.core))
        if self.levels[0].selected != core:
            raise InvalidInputError("level 0 must select exactly the core set")
        object.__setattr__(self, "core", core)

    @property
    def level_sizes(self) -> tuple[int, ...]:
        return tuple(level.k for level in self.levels)

    @property
    def total_observations(self) -> int:
        """Sum of level sizes (duplicates across levels counted)."""
        return sum(self.level_sizes)

    @property
    def distinct_nodes(self) -> tuple[int, ...]:
        nodes = set()
        for level in self.levels:
            nodes.update(level.selected)
        return tuple(sorted(nodes))

    def to_json(self) -> str:
        return json.dumps(
            {
                "core": list(self.core),
                "P": self.order,
                "levels": [list(level.selected) for level in self.levels],
            }
        )

    @classmethod
    def from_json(cls, text: str, n_nodes: int) -> "ARSamplingScheme":
        try:
            obj = json.loads(text)
            levels = tuple(Subsampler(n_nodes, tuple(sel)) for sel in obj["levels"])
            return cls(core=tuple(obj["core"]), order=obj["P"], levels=levels)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed AR scheme JSON: {exc}") from exc


def _pattern_powers(shift: ShiftOperator, count: int) -> list[np.ndarray]:
    """Boolean sparsity patterns of S^1..S^count (no numerical cancellation)."""
    base = (shift.matrix != 0).astype(np.int64)
    patterns = [base.astype(bool)]
    current = base
    for _ in range(count - 1):
        current = np.sign(current @ base)
        patterns.append(current.astype(bool))
    return patterns


def neighborhood(shift: ShiftOperator, node: int, p: int) -> tuple[int, ...]:
    """Nodes reachable in exactly-p applications of the shift pattern.

    Membership follows the Boolean sparsity pattern of S^p, so numerical
    cancellation in the actual powers never changes the sampling scheme.
    """
    if not (0 <= node < shift.n):
        raise InvalidInputError(f"node {node} out of range")
    if p < 1:
        raise InvalidInputError("hop distance must be >= 1")
    pattern = _pattern_powers(shift, p)[p - 1]
    return tuple(int(i) for i in np.flatnonzero(pattern[node]))


def build_ar_scheme(shift: ShiftOperator, core, order: int) -> ARSamplingScheme:
    """Sampling scheme observing the core and its 1..P hop neighborhoods."""
    core = tuple(sorted(int(i) for i in set(core)))
    if not core:
        raise InvalidInputError("core set must be non-empty")
    if any(not (0 <= c < shift.n) for c in core):
        raise InvalidInputError("core node out of range")
    if order < 1:
        raise InvalidInputError("AR order must be >= 1")
    patterns = _pattern_powers(shift, order)
    levels = [Subsampler(shift.n, core)]
    for p in range(1, order + 1):
        union = set()
        for c in core:
            union.update(int(i) for i in np.flatnonzero(patterns[p - 1][c]))
        if not union:
            raise InvalidInputError(f"core has empty {p}-hop neighborhood")
        levels.append(Subsampler(shift.n, tuple(sorted(union))))
    return ARSamplingScheme(core=core, order=order, levels=tuple(levels))


def core_by_degree(graph: Graph, k0: int = 1) -> tuple[int, ...]:
    """Default core: the k0 highest-degree nodes, ties to the lowest index."""
    if not (1 <= k0 <= graph.n_nodes):
        raise InvalidInputError("need 1 <= k0 <= N")
    degrees = graph.degrees()
    order = sorted(range(graph.n_nodes), key=lambda i: (-degrees[i], i))
    return tuple(sorted(order[:k0]))


def true_ar_covariances(scheme: ARSamplingScheme, cov) -> dict:
    """All level-pair covariance blocks of a full N x N covariance."""
    matrix = cov.matrix if isinstance(cov, CovarianceMatrix) else np.asarray(cov)
    blocks = {}
    for p_idx, level_p in enumerate(scheme.levels):
        for q_idx, level_q in enumerate(scheme.levels):
            blocks[(p_idx, q_idx)] = matrix[np.ix_(level_p.selected, level_q.selected)]
    return blocks


def sample_ar_covariances(scheme: ARSamplingScheme, snapshots: np.ndarray) -> dict:
    """Level-pair sample covariance blocks from full N x N_s snapshot data."""
    x = np.atleast_2d(np.asarray(snapshots, dtype=float))
    n_s = x.shape[1]
    blocks = {}
    for p_idx, level_p in enumerate(scheme.levels):
        for q_idx, level_q in enumerate(scheme.levels):
            blocks[(p_idx, q_idx)] = x[list(level_p.selected)] @ x[list(level_q.selected)].T / n_s
    return blocks


def build_ar_model(
    shift: ShiftOperator, scheme: ARSamplingScheme, covariances: dict
) -> tuple[ObservationModel, np.ndarray]:
    """Stacked linear system relating covariance blocks to AR coefficients.

    For each lag q, column k of block q is
    ``vec(S^k[core, level_k] R_{k,q})`` and the corresponding target rows
    are ``vec(R_{0,q})``; blocks are stacked over q = 0..P. Returns the
    observation model together with the target vector.
    """
    p_order = scheme.order
    powers = shift.powers(p_order + 1)
    core = list(scheme.core)
    g_blocks = []
    r_blocks = []
    for q in range(p_order + 1):
        if (0, q) not in covariances:
            raise InvalidInputError(f"missing covariance block (0, {q})")
        cols = []
        for k in range(1, p_order + 1):
            if (k, q) not in covariances:
                raise InvalidInputError(f"missing covariance block ({k}, {q})")
            sk = powers[k][np.ix_(core, scheme.levels[k].selected)]
            cols.append(vec(sk @ np.asarray(covariances[(k, q)])))
        g_blocks.append(np.column_stack(cols))
        r_blocks.append(vec(np.asarray(covariances[(0, q)])))
    model = ObservationModel(matrix=np.vstack(g_blocks), param_kind=AUTOREGRESSIVE)
    return model, np.concatenate(r_blocks)


def estimate_ar(model: ObservationModel, r_y) -> EstimationResult:
    """Least-squares AR coefficients from the stacked covariance system."""
    if model.param_kind != AUTOREGRESSIVE:
        raise InvalidInputError("expected an autoregressive observation model")
    return ls_estimate(model, r_y)


def estimate_ar_uncompressed(shift: ShiftOperator, cov, order: int) -> EstimationResult:
    """AR coefficients from the full covariance: fit ``vec(R)`` on ``vec(S^k R)``.

    The white-noise cross term is ignored, exactly as in the compressed
    estimator; this is the zero-compression baseline.
    """
    if order < 1:
        raise InvalidInputError("AR order must be >= 1")
    matrix = cov.matrix if isinstance(cov, CovarianceMatrix) else np.asarray(cov)
    if matrix.shape[0] != shift.n:
        raise InvalidInputError("covariance size must match the graph")
    powers = shift.powers(order + 1)
    columns = np.column_stack([vec(powers[k] @ matrix) for k in range(1, order + 1)])
    model = ObservationModel(matrix=columns, param_kind=AUTOREGRESSIVE)
    return ls_estimate(model, vec(matrix))


def ar_power_spectrum(eigvals: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Spectrum of an AR model: ``1 / |1 - sum_k a_k lam^k|^2`` per frequency."""
    lam = np.asarray(eigvals, dtype=float)
    a = np.atleast_1d(np.asarray(coeffs, dtype=float))
    powers = np.vander(lam, a.size + 1, increasing=True)[:, 1:]
    denom = 1.0 - powers @ a
    bad = np.abs(denom) < 1e-12
    if np.any(bad):
        offender = lam[np.argmax(bad)]
        raise SingularityError(f"AR model has a pole at graph frequency {offender!r}")
    return 1.0 / np.abs(denom) ** 2


def ar_system_matrix(shift: ShiftOperator, coeffs: np.ndarray) -> np.ndarray:
    """Inverse-transfer matrix ``I - sum_k a_k S^k``; must be nonsingular."""
    a = np.atleast_1d(np.asarray(coeffs, dtype=float))
    powers = shift.powers(a.size + 1)
    matrix = np.eye(shift.n)
    for k, coeff in enumerate(a, start=1):
        matrix = matrix - coeff * powers[k]
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals[-1] < 1e-12 * svals[0]:
        raise SingularityError("AR system matrix is numerically singular")
    return matrix


def ar_transfer_matrix(shift: ShiftOperator, coeffs: np.ndarray) -> np.ndarray:
    """Transfer matrix ``H = (I - sum_k a_k S^k)^{-1}`` mapping white noise to the signal."""
    return np.linalg.inv(ar_system_matrix(shift, coeffs))


def true_ar_covariance(shift: ShiftOperator, coeffs: np.ndarray) -> CovarianceMatrix:
    """Exact covariance ``H H^T`` of the AR signal, H the transfer matrix."""
    h = ar_transfer_matrix(shift, coeffs)
    return CovarianceMatrix(h @ h.T, kind="true")


def generate_ar_signals(
    shift: ShiftOperator, coeffs: np.ndarray, n_snapshots: int, seed
) -> np.ndarray:
    """Draw N x N_s AR realizations ``H n`` by applying the transfer matrix to white noise."""
    if n_snapshots < 1:
        raise InvalidInputError("n_snapshots must be >= 1")
    transfer = ar_transfer_matrix(shift, coeffs)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((shift.n, n_snapshots))
    return transfer @ noise
