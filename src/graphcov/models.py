"""Linear observation models for covariance recovery from node subsets.

Vectorizing the covariance of the subsampled signal gives a linear
system ``r_y = G theta`` whose unknowns are either the power spectrum
itself (spectral-domain model) or the coefficients of a polynomial
expansion of the covariance in powers of the shift (moving-average
model). All vectorizations are column-major so the Khatri-Rao identity
``vec(A diag(b) C) = (C^T kr A) b`` holds.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, RepeatedEigenvaluesWarning
from .graphs import GraphFilter, ShiftOperator, SpectralBasis
from .stationary import CovarianceMatrix

SPECTRAL = "spectral"
MOVING_AVERAGE = "moving_average"
AUTOREGRESSIVE = "autoregressive"


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-major (Fortran) vectorization."""
    return np.asarray(matrix).ravel(order="F")


def unvec(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`."""
    cols = rows if cols is None else cols
    return np.asarray(v).reshape(rows, cols, order="F")


@dataclass(frozen=True)
class Subsampler:
    """Node-selection pattern: a Boolean vector with K ones.

    ``selected`` holds the chosen node indices sorted ascending, which
    fixes the row order of the induced selection matrix.
    """

    n_nodes: int
    selected: tuple[int, ...]

    def __post_init__(self):
        sel = tuple(sorted(int(i) for i in self.selected))
        if len(sel) != len(set(sel)):
            raise InvalidInputError("duplicate node in sampler")
        if not sel:
            raise InvalidInputError("sampler must select at least one node")
        if sel[0] < 0 or sel[-1] >= self.n_nodes:
            raise InvalidInputError("sampler index out of range")
        object.__setattr__(self, "selected", sel)

    @property
    def k(self) -> int:
        return len(self.selected)

    @property
    def w(self) -> np.ndarray:
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[list(self.selected)] = True
        return mask

    @classmethod
    def from_mask(cls, w) -> "Subsampler":
        w = np.asarray(w, dtype=bool)
        return cls(n_nodes=w.size, selected=tuple(np.flatnonzero(w)))

    @classmethod
    def full(cls, n_nodes: int) -> "Subsampler":
        return cls(n_nodes=n_nodes, selected=tuple(range(n_nodes)))

    def selection_matrix(self) -> np.ndarray:
        """K x N Boolean row-selection matrix."""
        phi = np.zeros((self.k, self.n_nodes))
        phi[np.arange(self.k), list(self.selected)] = 1.0
        return phi

    def to_json(self) -> str:
        return json.dumps({"n": self.n_nodes, "selected": list(self.selected)})

    @classmethod
    def from_json(cls, text: str) -> "Subsampler":
        try:
            obj = json.loads(text)
            return cls(n_nodes=obj["n"], selected=tuple(obj["selected"]))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed sampler JSON: {exc}") from exc


def numerical_rank(svals: np.ndarray, shape: tuple[int, ...]) -> int:
    """Count of singular values above ``max(shape) * eps * sigma_max``."""
    tol = max(shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
    return int(np.sum(svals > tol))


def pair_rows(n: int, selected) -> np.ndarray:
    """Row indices of an N^2-row model matrix picked by a node subset.

    Entry ``m = q*K + p`` of the compressed vector corresponds to the
    covariance entry (selected[p], selected[q]), i.e. row
    ``selected[q]*n + selected[p]`` of the uncompressed matrix; this
    matches column-major vectorization of the compressed covariance.
    """
    sel = np.asarray(list(selected), dtype=int)
    return (sel[None, :] * n + sel[:, None]).ravel(order="F")


@dataclass
class ObservationModel:
    """Compressed linear model ``r_y = G theta`` with real parameters.

    ``row_index`` lists, per row of G, the (row-node, col-node) pair of
    the covariance entry the row equates. A non-finite G is refused.

    Construction takes one SVD, of the real-stacked matrix
    ``stacked_matrix``: ``[Re G; Im G]`` for a complex G and G itself for
    a real one. Every diagnostic and every least-squares solve comes from
    it. ``rank`` counts the singular values above the
    :func:`numerical_rank` threshold ``max(shape) * eps * sigma_max`` of
    the stacked matrix, so it is the rank over real parameters, which is
    what least squares solves for; ``full_column_rank``, ``min_singular``
    and ``condition_number`` read the same singular values. ``pinv``
    inverts the kept singular values and zeroes the rest, so
    ``pinv @ stack(r)`` is the minimum-norm least-squares solution. For
    every model this package builds the real rank equals the complex
    rank of G: spectral models have a real Gram ``G^H G``, and
    moving-average and autoregressive models are real.
    """

    matrix: np.ndarray
    param_kind: str
    row_index: list[tuple[int, int]]
    singular_values: np.ndarray = field(init=False)
    rank: int = field(init=False)
    full_column_rank: bool = field(init=False)
    min_singular: float = field(init=False)
    condition_number: float = field(init=False)
    stacked_matrix: np.ndarray = field(init=False, repr=False)
    pinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g = np.asarray(self.matrix)
        if g.ndim != 2:
            raise InvalidInputError("model matrix must be 2-D")
        if self.param_kind not in (SPECTRAL, MOVING_AVERAGE, AUTOREGRESSIVE):
            raise InvalidInputError(f"unknown parameter kind {self.param_kind!r}")
        if len(self.row_index) != g.shape[0]:
            raise InvalidInputError("row_index length must match matrix rows")
        if not np.all(np.isfinite(g)):
            raise InvalidInputError("non-finite values in model matrix")
        self.matrix = g
        a = np.vstack([g.real, g.imag]) if np.iscomplexobj(g) else np.asarray(g, dtype=float)
        u, svals, vt = np.linalg.svd(a, full_matrices=False)
        rank = numerical_rank(svals, a.shape)
        self.stacked_matrix = a
        self.pinv = (vt[:rank].T / svals[:rank]) @ u[:, :rank].T
        self.singular_values = svals
        self.rank = rank
        self.full_column_rank = rank == g.shape[1]
        self.min_singular = float(svals[g.shape[1] - 1]) if svals.size >= g.shape[1] else 0.0
        self.condition_number = float(svals[0] / svals[rank - 1]) if rank else np.inf

    @property
    def n_params(self) -> int:
        return self.matrix.shape[1]

    def stack(self, r: np.ndarray) -> np.ndarray:
        """Right-hand side matching ``stacked_matrix``: ``[Re r; Im r]`` or ``Re r``.

        A real model has zero imaginary rows, so the imaginary part of r
        cannot change its solution and is dropped.
        """
        if self.stacked_matrix.shape[0] == r.size:
            return np.real(r)
        return np.concatenate([np.real(r), np.imag(r)])


def build_psi_spectral(basis: SpectralBasis) -> np.ndarray:
    """N^2 x N spectral-domain model matrix with columns ``conj(u_i) kron u_i``.

    Full column rank for any orthonormal basis; asserted here on the N x N
    Gram ``psi^H psi = |U^H U|^2`` (element-wise), which has the rank of
    psi: its eigenvalues are cut with the :func:`numerical_rank` threshold.
    Warns when the basis has repeated eigenvalues, since individual
    components within a repeated cluster are then not tied to unique
    frequencies.
    """
    if not basis.distinct:
        warnings.warn(
            "basis has repeated eigenvalues; spectral components within a "
            "cluster share a frequency",
            RepeatedEigenvaluesWarning,
            stacklevel=2,
        )
    u = basis.eigvecs
    n = basis.n
    psi = (u.conj()[:, None, :] * u[None, :, :]).reshape(n * n, n)
    gram = np.abs(u.conj().T @ u) ** 2
    if numerical_rank(np.linalg.eigvalsh(gram)[::-1], gram.shape) != n:
        raise InvalidInputError("spectral model matrix is rank deficient; basis not orthonormal?")
    return psi


def build_psi_ma(shift: ShiftOperator, q: int) -> np.ndarray:
    """N^2 x Q moving-average model matrix with columns ``vec(S^k)``, k < Q."""
    if not (1 <= q <= shift.n):
        raise InvalidInputError(f"need 1 <= Q <= N; powers beyond N-1 are linearly dependent (Q={q}, N={shift.n})")
    powers = shift.powers(q)
    return np.column_stack([vec(p) for p in powers])


def vandermonde(eigvals: np.ndarray, q: int) -> np.ndarray:
    """N x Q Vandermonde matrix of graph frequencies; maps MA coefficients to a spectrum."""
    if q < 1:
        raise InvalidInputError("Q must be >= 1")
    return np.vander(np.asarray(eigvals, dtype=float), q, increasing=True)


def default_ma_order(filt: GraphFilter, n: int) -> int:
    """Covariance expansion order for an L-tap filter: min(2L-1, N)."""
    return min(2 * filt.coeffs.size - 1, n)


def ma_structure_matrix(length: int) -> np.ndarray:
    """(2L-1) x L^2 map from ``vec(h h^T)`` to covariance expansion coefficients.

    Row l is the vectorized L x L matrix with ones on the l-th
    anti-diagonal, so row l sums the products ``h_i h_j`` with i+j = l.
    """
    if length < 1:
        raise InvalidInputError("filter length must be >= 1")
    m = np.zeros((2 * length - 1, length * length))
    for l in range(2 * length - 1):
        theta = np.zeros((length, length))
        for i in range(length):
            j = l - i
            if 0 <= j < length:
                theta[i, j] = 1.0
        m[l] = vec(theta)
    return m


def ma_b_from_h(filt: GraphFilter) -> np.ndarray:
    """Covariance expansion coefficients of a filter: ``b = M vec(h h^T)``.

    Equivalently the coefficients of the squared filter polynomial, e.g.
    L=3 gives ``[h0^2, 2 h0 h1, h1^2 + 2 h0 h2, 2 h1 h2, h2^2]``.
    """
    h = filt.coeffs
    return ma_structure_matrix(h.size) @ vec(np.outer(h, h))


def compress_model(psi: np.ndarray, sampler: Subsampler, param_kind: str | None = None) -> ObservationModel:
    """Restrict a full model matrix to the covariance entries a sampler observes.

    Selects the K^2 rows of ``psi`` indexed by selected-node pairs, in the
    order matching :func:`vectorize_compressed_cov`; the Kronecker
    selection matrix is never materialized.
    """
    psi = np.asarray(psi)
    n = sampler.n_nodes
    if psi.shape[0] != n * n:
        raise InvalidInputError(f"model matrix has {psi.shape[0]} rows, expected {n * n}")
    if param_kind is None:
        param_kind = SPECTRAL if psi.shape[1] == n else MOVING_AVERAGE
    rows = pair_rows(n, sampler.selected)
    sel = sampler.selected
    k = sampler.k
    row_index = [(sel[m % k], sel[m // k]) for m in range(k * k)]
    return ObservationModel(matrix=psi[rows, :], param_kind=param_kind, row_index=row_index)


def vectorize_compressed_cov(cov: CovarianceMatrix | np.ndarray) -> np.ndarray:
    """Column-major vectorization of a (compressed) covariance matrix."""
    matrix = cov.matrix if isinstance(cov, CovarianceMatrix) else np.asarray(cov)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InvalidInputError("expected a square covariance matrix")
    return vec(matrix)
