"""Linear observation models for covariance recovery from node subsets.

Vectorizing the covariance of the subsampled signal gives a linear
system ``r_y = G theta`` whose unknowns are either the power spectrum
itself (spectral-domain model) or the coefficients of a polynomial
expansion of the covariance in powers of the shift (moving-average
model). All vectorizations are column-major so the Khatri-Rao identity
``vec(A diag(b) C) = (C^T kr A) b`` holds.

The uncompressed N^2 x M model is never stored: a
:class:`CovarianceModel` holds its factors, the basis U or the shift
powers, and computes any of its rows on demand. A sampler's compressed
model is the K^2 rows of its selected node pairs.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, RepeatedEigenvaluesWarning
from .graphs import GraphFilter, ShiftOperator, SpectralBasis, _is_int

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
        if not _is_int(self.n_nodes):
            raise InvalidInputError(f"sampler node count must be an integer, got {self.n_nodes!r}")
        bad = [i for i in self.selected if not _is_int(i)]
        if bad:
            raise InvalidInputError(f"sampler node index must be an integer, got {bad[0]!r}")
        object.__setattr__(self, "n_nodes", int(self.n_nodes))
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


@dataclass
class ObservationModel:
    """Compressed linear model ``r_y = G theta`` with real parameters.

    A non-finite G is refused.

    Construction takes one SVD, of the real-stacked matrix ``[Re G; Im G]``
    for a complex G and of G itself for a real one (see :meth:`stack`).
    Every diagnostic and every least-squares solve comes from it. ``rank``
    counts the singular values above the :func:`numerical_rank` threshold
    ``max(shape) * eps * sigma_max`` of the stacked matrix, so it is the
    rank over real parameters, which is what least squares solves for;
    ``full_column_rank``, ``min_singular`` and ``condition_number`` read
    the same singular values. ``pinv`` inverts the kept singular values and
    zeroes the rest, so ``pinv @ stack(r)`` is the minimum-norm
    least-squares solution. ``reduced`` is ``Sigma V^T`` of the same SVD:
    for a full-rank model with real-stacked matrix A,
    ``||A theta - stack(r)||^2`` equals
    ``||reduced (theta - pinv stack(r))||^2`` plus a constant, an M x M
    system. For every model this package builds the real rank equals the
    complex rank of G: spectral models have a real Gram ``G^H G``, and
    moving-average and autoregressive models are real.

    ``sampled_basis`` is set for a spectral model: the K x M sampled basis
    rows U_S whose Khatri-Rao product ``conj(u_i) kron u_i`` is column i of
    G. The weighted estimators reduce to K x M products of it. Only its
    shape is checked against G; :func:`compress_model` builds both.
    """

    matrix: np.ndarray
    param_kind: str
    sampled_basis: np.ndarray | None = field(default=None, repr=False)
    singular_values: np.ndarray = field(init=False)
    rank: int = field(init=False)
    full_column_rank: bool = field(init=False)
    min_singular: float = field(init=False)
    condition_number: float = field(init=False)
    pinv: np.ndarray = field(init=False, repr=False)
    reduced: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g = np.asarray(self.matrix)
        if g.ndim != 2:
            raise InvalidInputError("model matrix must be 2-D")
        if self.param_kind not in (SPECTRAL, MOVING_AVERAGE, AUTOREGRESSIVE):
            raise InvalidInputError(f"unknown parameter kind {self.param_kind!r}")
        if not np.all(np.isfinite(g)):
            raise InvalidInputError("non-finite values in model matrix")
        if self.sampled_basis is not None:
            u_s = np.asarray(self.sampled_basis)
            if u_s.ndim != 2 or u_s.shape[1] != g.shape[1] or u_s.shape[0] ** 2 != g.shape[0]:
                raise InvalidInputError(
                    f"sampled basis of shape {u_s.shape} does not match a {g.shape} model"
                )
            self.sampled_basis = u_s
        self.matrix = g
        a = np.vstack([g.real, g.imag]) if np.iscomplexobj(g) else np.asarray(g, dtype=float)
        u, svals, vt = np.linalg.svd(a, full_matrices=False)
        rank = numerical_rank(svals, a.shape)
        self.pinv = (vt[:rank].T / svals[:rank]) @ u[:, :rank].T
        self.reduced = svals[:, None] * vt
        self.singular_values = svals
        self.rank = rank
        self.full_column_rank = rank == g.shape[1]
        self.min_singular = float(svals[g.shape[1] - 1]) if svals.size >= g.shape[1] else 0.0
        self.condition_number = float(svals[0] / svals[rank - 1]) if rank else np.inf

    @property
    def n_params(self) -> int:
        return self.matrix.shape[1]

    def stack(self, r: np.ndarray) -> np.ndarray:
        """Right-hand side of the real-stacked system: ``[Re r; Im r]`` for a complex G, else ``Re r``.

        A real model has zero imaginary rows, so the imaginary part of r
        cannot change its solution and is dropped.
        """
        if np.iscomplexobj(self.matrix):
            return np.concatenate([np.real(r), np.imag(r)])
        return np.real(r)


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """Uncompressed model ``vec(R) = Psi theta``, held by its factors.

    Column i of the N^2 x M matrix Psi is ``vec(X_i)`` for a Hermitian
    N x N matrix X_i. The spectral model has ``X_i = u_i u_i^H`` and keeps
    the basis U (N x N) as ``factors``; the moving-average model has
    ``X_k = S^k`` and keeps the Q shift powers (Q x N x N). Psi itself is
    never formed: :meth:`rows` computes any of its rows, and it is the
    only code that knows the row layout. Since every X_i is Hermitian,
    rows (a, b) and (b, a) are complex conjugates. Moving-average factors
    that are not real and symmetric (to ``sqrt(eps)`` of each power's
    largest entry) are refused.
    """

    kind: str
    factors: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.factors)
        if self.kind == SPECTRAL:
            if f.ndim != 2 or f.shape[0] != f.shape[1]:
                raise InvalidInputError("spectral factors must be a square basis matrix")
        elif self.kind == MOVING_AVERAGE:
            if f.ndim != 3 or f.shape[1] != f.shape[2]:
                raise InvalidInputError("moving-average factors must be Q x N x N shift powers")
            if np.iscomplexobj(f):
                raise InvalidInputError("moving-average factors must be real")
            f = np.asarray(f, dtype=float)
            scale = np.abs(f).max(axis=(1, 2))
            asymmetry = np.abs(f - f.transpose(0, 2, 1)).max(axis=(1, 2))
            if np.any(asymmetry > np.sqrt(np.finfo(float).eps) * scale):
                raise InvalidInputError("moving-average factors must be symmetric")
        else:
            raise InvalidInputError(f"unknown covariance model kind {self.kind!r}")
        object.__setattr__(self, "factors", f)

    @property
    def n_nodes(self) -> int:
        return self.factors.shape[-1]

    @property
    def n_params(self) -> int:
        return self.factors.shape[1] if self.kind == SPECTRAL else self.factors.shape[0]

    @property
    def nbytes(self) -> int:
        return self.factors.nbytes

    def rows(self, a, b) -> np.ndarray:
        """Rows ``a*N + b`` of Psi: the M model values of covariance entry (b, a).

        ``a`` and ``b`` are node indices that broadcast against each other;
        the rows come back in their broadcast shape, plus an axis of length M.
        """
        if self.kind == SPECTRAL:
            return self.factors[a].conj() * self.factors[b]
        return np.ascontiguousarray(np.moveaxis(self.factors[:, b, a], 0, -1))

    def column_sq_norms(self) -> np.ndarray:
        """``||X_i||_F^2`` per column: ``(sum_a |U_ai|^2)^2`` or ``sum(S^k * S^k)``."""
        if self.kind == SPECTRAL:
            return np.sum(np.abs(self.factors) ** 2, axis=0) ** 2
        return np.sum(self.factors**2, axis=(1, 2))


def build_psi_spectral(basis: SpectralBasis) -> CovarianceModel:
    """Spectral-domain model with columns ``conj(u_i) kron u_i``, held by the basis.

    Its Gram ``Psi^H Psi = |U^H U|^2`` (element-wise) is the identity,
    since a :class:`SpectralBasis` is orthonormal, so Psi has full column
    rank. Warns when the basis has repeated eigenvalues, since individual
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
    return CovarianceModel(SPECTRAL, basis.eigvecs)


def build_psi_ma(shift: ShiftOperator, q: int) -> CovarianceModel:
    """Moving-average model with columns ``vec(S^k)``, k < Q, held by the Q powers."""
    if not (1 <= q <= shift.n):
        raise InvalidInputError(f"need 1 <= Q <= N; powers beyond N-1 are linearly dependent (Q={q}, N={shift.n})")
    return CovarianceModel(MOVING_AVERAGE, np.stack(shift.powers(q)))


def vandermonde(eigvals: np.ndarray, q: int) -> np.ndarray:
    """N x Q Vandermonde matrix of graph frequencies; maps MA coefficients to a spectrum."""
    if q < 1:
        raise InvalidInputError("Q must be >= 1")
    return np.vander(np.asarray(eigvals, dtype=float), q, increasing=True)


def default_ma_order(filt: GraphFilter, n: int) -> int:
    """Covariance expansion order for an L-tap filter: min(2L-1, N)."""
    return min(2 * filt.coeffs.size - 1, n)


def ma_b_from_h(filt: GraphFilter) -> np.ndarray:
    """Covariance expansion coefficients of a filter: the squared filter polynomial.

    ``b_l`` sums the products ``h_i h_j`` with i+j = l, which is ``h * h``
    (convolution); e.g. L=3 gives
    ``[h0^2, 2 h0 h1, h1^2 + 2 h0 h2, 2 h1 h2, h2^2]``.
    """
    h = filt.coeffs
    return np.convolve(h, h)


def compress_model(psi: CovarianceModel, sampler: Subsampler) -> ObservationModel:
    """Restrict a model to the covariance entries a sampler observes.

    Computes the K^2 rows of the selected node pairs, in the order of
    :func:`vec` of the K x K covariance: entry ``q*K + p`` is the covariance
    entry (selected[p], selected[q]). Neither the Kronecker selection
    matrix nor the uncompressed model is formed. A spectral model also
    hands its sampled basis rows U_S to the :class:`ObservationModel`.
    """
    if sampler.n_nodes != psi.n_nodes:
        raise InvalidInputError(f"sampler has {sampler.n_nodes} nodes, the model {psi.n_nodes}")
    sel = np.asarray(sampler.selected)
    rows = psi.rows(sel[:, None], sel[None, :]).reshape(sampler.k**2, psi.n_params)
    sampled_basis = psi.factors[sel] if psi.kind == SPECTRAL else None
    return ObservationModel(matrix=rows, param_kind=psi.kind, sampled_basis=sampled_basis)
