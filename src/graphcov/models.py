"""Linear observation models for covariance recovery from node subsets.

Vectorizing the covariance of the subsampled signal gives a linear
system ``r_y = G theta`` whose unknowns are either the power spectrum
itself (spectral-domain model) or the coefficients of a polynomial
expansion of the covariance in powers of the shift (moving-average
model). All vectorizations are column-major so the Khatri-Rao identity
``vec(A diag(b) C) = (C^T kr A) b`` holds.

The uncompressed N^2 x M model is never stored: a
:class:`CovarianceModel` holds the basis U and, for the moving-average
model, the Vandermonde map T from its parameters to the spectrum, and
computes any of its rows on demand. A sampler's compressed model is the
K^2 rows of its selected node pairs. Their Gram, and the weighted Gram
of WLS and the Fisher information, come from the sampled basis rows
alone (:func:`pair_gram`), without forming a row.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, RepeatedEigenvaluesWarning
from .graphs import GraphFilter, ShiftOperator, SpectralBasis, _is_int, vandermonde

SPECTRAL = "spectral"
MOVING_AVERAGE = "moving_average"
AUTOREGRESSIVE = "autoregressive"

# Rows per working block wherever model rows are computed; it bounds their memory.
_BLOCK_ROWS = 2048


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-major (Fortran) vectorization."""
    return np.asarray(matrix).ravel(order="F")


def unvec(v: np.ndarray, rows: int) -> np.ndarray:
    """Inverse of :func:`vec` for a square matrix of ``rows`` rows."""
    return np.asarray(v).reshape(rows, rows, order="F")


@dataclass(frozen=True)
class Subsampler:
    """Node-selection pattern: a Boolean vector with K ones.

    ``selected`` holds the chosen node indices sorted ascending, which
    fixes the order of the sampled rows and columns.
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

    @classmethod
    def full(cls, n_nodes: int) -> "Subsampler":
        return cls(n_nodes=n_nodes, selected=tuple(range(n_nodes)))

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

    :func:`compress_model` also sets ``sampled_basis``, the K x N sampled
    basis rows U_S, and ``param_map``, the model's map T (None, read as
    the identity, for a spectral model): column i of G is
    ``sum_j T_ji conj(u_j) kron u_j``, so the weighted estimators reduce to
    products of U_S and T. Only their shapes are checked against G.
    """

    matrix: np.ndarray
    param_kind: str
    sampled_basis: np.ndarray | None = field(default=None, repr=False)
    param_map: np.ndarray | None = field(default=None, repr=False)
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
        t, u_s = self.param_map, self.sampled_basis
        if t is not None and (np.ndim(t) != 2 or np.shape(t)[1] != g.shape[1]):
            raise InvalidInputError(f"parameter map of shape {np.shape(t)} does not match a {g.shape} model")
        width = g.shape[1] if t is None else len(t)
        if u_s is not None and (np.ndim(u_s) != 2 or len(u_s) ** 2 != g.shape[0] or np.shape(u_s)[1] != width):
            raise InvalidInputError(f"sampled basis of shape {np.shape(u_s)} does not match a {g.shape} model")
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

    Column j of the spectral model is ``conj(u_j) kron u_j`` for the basis
    U (N x N), which has no ``param_map``. The moving-average model is that
    model times a real map T (N x M), the Vandermonde matrix of the graph
    frequencies: its spectrum is ``T theta`` and column i is ``vec(X_i)``,
    ``X_i = U diag(T[:, i]) U^H = S^i``. Psi itself is never formed:
    :meth:`rows` computes any of its rows, :meth:`pair_products` their
    products with a matrix and :func:`pair_gram` the Gram of the rows of
    some nodes' pairs, and these three are the only code that knows the
    row layout. Every X_i is Hermitian, so rows (a, b) and (b, a) are
    complex conjugates. A row of T depends on the frequency only, and
    conjugate columns of a complex basis share one, so every mapped X_i is
    real. ``kind`` follows from the map: spectral without one,
    moving-average with one.
    """

    basis: np.ndarray
    param_map: np.ndarray | None = None

    def __post_init__(self):
        u = np.asarray(self.basis)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise InvalidInputError("the model basis must be a square matrix")
        t = self.param_map
        if t is not None and (np.ndim(t) != 2 or len(t) != len(u) or np.iscomplexobj(t)):
            raise InvalidInputError(f"the parameter map must be a real {len(u)} x M matrix")
        object.__setattr__(self, "basis", u)

    @property
    def kind(self) -> str:
        """``spectral`` without a parameter map, ``moving_average`` with one."""
        return SPECTRAL if self.param_map is None else MOVING_AVERAGE

    @property
    def n_nodes(self) -> int:
        return self.basis.shape[0]

    @property
    def n_params(self) -> int:
        return (self.basis if self.param_map is None else self.param_map).shape[1]

    @property
    def nbytes(self) -> int:
        return self.basis.nbytes + (0 if self.param_map is None else self.param_map.nbytes)

    @property
    def complex_rows(self) -> bool:
        """Whether the rows are complex: a complex basis with no map. A map's rows are real."""
        return np.iscomplexobj(self.basis) and self.param_map is None

    def rows(self, a, b) -> np.ndarray:
        """Rows ``a*N + b`` of Psi: the M model values of covariance entry (b, a).

        ``a`` and ``b`` are node indices that broadcast against each other;
        the rows come back in their broadcast shape, plus an axis of length
        M. Mapped rows are ``(conj(U[a]) * U[b]) @ T``, real up to rounding.
        """
        rows = self.basis[a].conj() * self.basis[b]
        return rows if self.param_map is None else np.real(rows @ self.param_map)

    def pair_products(self, picks, nodes, w) -> np.ndarray:
        """Products ``rows(p, s) @ w`` of Psi's rows with a real matrix, for every pick p and node s.

        ``w`` is M x c, shared by every node, or len(nodes) x M x c, one
        per node; the products come back as len(nodes) x len(picks) x c.
        No row is formed. Row (p, s) is ``conj(U[p]) * U[s]``, so a shared
        w gives one GEMM of the nodes' basis rows against
        ``[diag(conj(U[p])) T w]_p``, and a per-node w one GEMM of
        ``U[s] * (T w_s)^T`` against the picks' basis rows. Mapped products
        are real, and complex rows give complex products.
        """
        u, t = self.basis, self.param_map
        conj_picks, rows = u[np.asarray(picks, dtype=int)].conj(), u[np.asarray(nodes, dtype=int)]
        if t is not None:
            w = t @ w  # rows(p, s) @ w = Re((conj(U[p]) * U[s]) @ T w)
        if w.ndim == 2:
            factor = conj_picks.T[:, :, None] * w[:, None, :]  # N x picks x c
            products = (rows @ factor.reshape(len(u), -1)).reshape(len(rows), len(conj_picks), w.shape[1])
        else:
            weighted = (rows[:, None, :] * w.transpose(0, 2, 1)).reshape(-1, len(u))  # U[s] * (T w_s)^T
            products = (weighted @ conj_picks.T).reshape(len(rows), -1, len(conj_picks)).transpose(0, 2, 1)
        return products if t is None else np.real(products)

    def column_sq_norms(self) -> np.ndarray:
        """``||X_i||_F^2`` per column: ``sum_j |u_j|^4 T_ji^2``, or ``|u_i|^4`` with no map."""
        norms = np.sum(np.abs(self.basis) ** 2, axis=0) ** 2
        return norms if self.param_map is None else norms @ self.param_map**2


def pair_gram(b: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """Gram ``T^T |B^H B|^2 T`` (elementwise square) of the pair rows of basis rows B.

    B is K x N and T a real N x M map (None for the identity). Row (a, c)
    is ``(conj(B[a]) * B[c]) @ T``, so column i of the K^2 rows is
    ``vec(Y_i)`` with ``Y_i = B diag(T[:, i]) B^H``, and the Gram of all
    K^2 rows is ``T^T |B^H B|^2 T`` with no row formed. With rows of the
    sampled basis, B = U_S, it is the Gram of a compressed model; with
    ``B = L^{-1} U_S`` it is the weighted Gram of WLS and the Fisher
    information. The mapped Gram is formed without its N x N middle
    factor, as the M x M matrix of ``tr(Y_k Y_l)`` (each Y_k K x K), at a
    cost of M K^2 N rather than K N^2. It is also the Gram of the real
    rows :meth:`CovarianceModel.rows` keeps for a mapped model, since
    every mapped X_i is real. The result is real and symmetrised; K = 0
    gives the zero matrix.
    """
    if t is None:
        gram = np.abs(b.conj().T @ b) ** 2
    else:  # tr(Y_k Y_l) is the inner product of vec(Y_k) and vec(Y_l), as each Y_k is Hermitian
        b_h = b.conj().T
        y = np.stack([(b * column) @ b_h for column in t.T]).reshape(t.shape[1], -1)
        gram = np.real(y @ y.conj().T)
    return 0.5 * (gram + gram.T)


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
    return CovarianceModel(basis.eigvecs)


def build_psi_ma(shift: ShiftOperator, q: int) -> CovarianceModel:
    """Moving-average model with columns ``vec(S^k)``, k < Q: the basis and its Vandermonde map.

    No power of S is formed. S^k does not depend on the basis chosen inside
    an eigenspace, so repeated eigenvalues raise no warning.
    """
    if not (1 <= q <= shift.n):
        raise InvalidInputError(f"need 1 <= Q <= N; powers beyond N-1 are linearly dependent (Q={q}, N={shift.n})")
    basis = shift.basis()
    return CovarianceModel(basis.eigvecs, vandermonde(basis.eigvals, q))


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
    matrix nor the uncompressed model is formed; rows are computed in
    blocks of about ``_BLOCK_ROWS``, which bounds a mapped model's N-wide
    intermediate. The sampled basis rows and the map go along.
    """
    if sampler.n_nodes != psi.n_nodes:
        raise InvalidInputError(f"sampler has {sampler.n_nodes} nodes, the model {psi.n_nodes}")
    sel = np.asarray(sampler.selected)
    k, m = sampler.k, psi.n_params
    rows = np.empty((k, k, m), dtype=complex if psi.complex_rows else float)
    per_block = max(1, _BLOCK_ROWS // k)
    for start in range(0, k, per_block):
        rows[start : start + per_block] = psi.rows(sel[start : start + per_block, None], sel[None, :])
    return ObservationModel(rows.reshape(k * k, m), psi.kind, psi.basis[sel], psi.param_map)
