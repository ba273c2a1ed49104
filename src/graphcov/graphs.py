"""Graphs, shift operators, spectral bases, and polynomial graph filters.

A graph signal lives on the nodes of an undirected weighted graph. The
shift operator (Laplacian or adjacency) plays the role the delay plays
for time series: its eigenvectors provide the Fourier-like basis and its
eigenvalues the graph frequencies. Filters are polynomials in the shift.
"""

from __future__ import annotations

import json
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Shift operator kinds.
LAPLACIAN = "laplacian"
ADJACENCY = "adjacency"
CUSTOM = "custom"
CIRCULANT_DFT = "circulant-dft"

_SYMMETRY_RTOL = 1e-12


def _is_int(value) -> bool:
    """Whether ``value`` is a JSON integer: a Python or numpy int, not a bool, float or string."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _rng(seed) -> np.random.Generator:
    """``numpy.random.default_rng(seed)``; a seed numpy refuses, such as -1, is invalid input."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad seed {seed!r}: {exc}") from None


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph with 0-based node indices.

    Each edge is given as ``(i, j)`` or ``(i, j, weight)`` and stored once
    as ``(i, j, weight)`` with ``i < j``. The node count and endpoints
    must be integers (not bools), and weights finite positive numbers.
    Self-loops and duplicate pairs are rejected.
    """

    n_nodes: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if not (_is_int(self.n_nodes) and self.n_nodes >= 1):
            raise InvalidInputError(f"graph must have an integer n >= 1, got {self.n_nodes!r}")
        seen = set()
        canonical = []
        for edge in self.edges:
            if len(edge) not in (2, 3):
                raise InvalidInputError(f"edge {list(edge)} must be [i, j] or [i, j, weight]")
            i, j, w = (*edge, 1.0) if len(edge) == 2 else edge
            if not (_is_int(i) and _is_int(j)):
                raise InvalidInputError(f"edge {list(edge)} has a non-integer endpoint")
            i, j = int(i), int(j)
            if i == j:
                raise InvalidInputError(f"self-loop at node {i}")
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise InvalidInputError(f"edge ({i},{j}) out of range for n={self.n_nodes}")
            if isinstance(w, bool) or not isinstance(w, numbers.Real) or not 0 < w < np.inf:
                raise InvalidInputError(f"edge ({i},{j}) weight {w!r} is not finite and positive")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise InvalidInputError(f"duplicate edge {pair}")
            seen.add(pair)
            canonical.append((pair[0], pair[1], float(w)))
        object.__setattr__(self, "edges", tuple(canonical))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def weight_matrix(self) -> np.ndarray:
        """Symmetric N x N weight matrix W."""
        w = np.zeros((self.n_nodes, self.n_nodes))
        for i, j, wt in self.edges:
            w[i, j] = wt
            w[j, i] = wt
        return w

    def degrees(self) -> np.ndarray:
        """Weighted node degrees (row sums of W)."""
        return self.weight_matrix().sum(axis=1)

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n_nodes, "edges": [[i, j, w] for i, j, w in self.edges]}
        )

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        try:
            obj = json.loads(text)
            n = obj["n"]
            edges = tuple(tuple(e) for e in obj["edges"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed graph JSON: {exc}") from exc
        return cls(n_nodes=n, edges=edges)


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal eigenbasis of a shift operator.

    ``eigvecs`` holds the basis vectors as columns (complex for the DFT
    basis of circulant operators); ``eigvals`` are the corresponding real
    graph frequencies, ascending for numerical decompositions and in DFT
    order for circulant ones. ``distinct`` is False when two eigenvalues
    fall within the gap tolerance of each other. A basis that is not
    N x N with N eigenvalues, or whose ``U^H U`` deviates from the
    identity by 1e-10 or more in any entry, is refused.
    """

    eigvecs: np.ndarray
    eigvals: np.ndarray
    distinct: bool

    def __post_init__(self):
        u, lam = np.asarray(self.eigvecs), np.asarray(self.eigvals)
        if lam.ndim != 1 or u.shape != (lam.size, lam.size):
            raise InvalidInputError(
                f"basis must be N x N with N eigenvalues, got {u.shape} and {lam.shape}"
            )
        gram_err = np.abs(u.conj().T @ u - np.eye(lam.size)).max()
        if gram_err >= 1e-10:
            raise InvalidInputError(f"basis not orthonormal (max deviation {gram_err:.2e})")

    @property
    def n(self) -> int:
        return self.eigvals.shape[0]


@dataclass(frozen=True)
class GraphFilter:
    """Polynomial filter with coefficients ``h[0] + h[1] S + ... + h[L-1] S^{L-1}``."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise InvalidInputError("filter coefficients must be a non-empty 1-D vector")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1


class ShiftOperator:
    """Symmetric shift operator with a lazily computed spectral basis.

    Instances are immutable; powers of the matrix and the basis are
    cached on first use, so sharing across parallel readers is safe.
    """

    def __init__(self, matrix: np.ndarray, kind: str = CUSTOM):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidInputError("shift operator must be a square matrix")
        if matrix.shape[0] == 0:
            raise InvalidInputError("shift operator must be non-empty")
        scale = max(np.abs(matrix).max(), 1.0)
        if np.abs(matrix - matrix.T).max() > _SYMMETRY_RTOL * scale:
            raise InvalidInputError("shift operator must be symmetric")
        if kind not in (LAPLACIAN, ADJACENCY, CUSTOM, CIRCULANT_DFT):
            raise InvalidInputError(f"unknown shift kind {kind!r}")
        if kind == CIRCULANT_DFT and not is_circulant(matrix):
            raise InvalidInputError("kind 'circulant-dft' requires a circulant matrix")
        matrix = 0.5 * (matrix + matrix.T)
        matrix.setflags(write=False)
        self.matrix = matrix
        self.kind = kind
        self._lock = threading.Lock()
        self._basis: SpectralBasis | None = None
        self._powers: list[np.ndarray] = [np.eye(matrix.shape[0])]

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def basis(self) -> SpectralBasis:
        """Spectral basis: closed-form DFT for circulant kind, eigh otherwise."""
        if self._basis is None:
            with self._lock:
                if self._basis is None:
                    if self.kind == CIRCULANT_DFT:
                        self._basis = circulant_dft_basis(self)
                    else:
                        self._basis = eigendecompose(self)
        return self._basis

    def powers(self, count: int) -> list[np.ndarray]:
        """Return ``[S^0, S^1, ..., S^{count-1}]``, cached across calls.

        The cache is guarded so concurrent callers may share the operator.
        """
        if count < 1:
            raise InvalidInputError("power count must be >= 1")
        if len(self._powers) < count:
            with self._lock:
                while len(self._powers) < count:
                    nxt = self._powers[-1] @ self.matrix
                    nxt.setflags(write=False)
                    self._powers.append(nxt)
        return self._powers[:count]

    def __repr__(self):
        return f"ShiftOperator(kind={self.kind!r}, n={self.n})"


def build_shift(graph: Graph, kind: str) -> ShiftOperator:
    """Build the shift operator of a graph.

    ``laplacian`` gives D - W (weighted degree matrix minus weights),
    ``adjacency`` gives W itself.
    """
    if kind not in (LAPLACIAN, ADJACENCY):
        raise InvalidInputError(f"build_shift supports 'laplacian' or 'adjacency', got {kind!r}")
    w = graph.weight_matrix()
    if kind == LAPLACIAN:
        matrix = np.diag(w.sum(axis=1)) - w
    else:
        matrix = w
    return ShiftOperator(matrix, kind=kind)


def _gap_tolerance(matrix: np.ndarray) -> float:
    return 1e-8 * max(1.0, np.abs(matrix).max())


def _has_distinct_eigvals(eigvals: np.ndarray, gap_tol: float) -> bool:
    lam = np.sort(np.asarray(eigvals, dtype=float))
    if lam.size < 2:
        return True
    return float(np.min(np.diff(lam))) > gap_tol


def _fix_signs(eigvecs: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: largest-magnitude entry of each column positive."""
    u = eigvecs.copy()
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs


def _check_basis(basis: SpectralBasis, matrix: np.ndarray) -> None:
    """Refuse a basis whose ``U diag(lam) U^H`` is not the operator."""
    u = basis.eigvecs
    recon = u @ np.diag(basis.eigvals) @ u.conj().T
    scale = max(np.abs(matrix).max(), 1e-300)
    recon_err = np.abs(matrix - recon).max()
    if recon_err >= 1e-8 * scale:
        raise InvalidInputError(f"basis does not reconstruct the operator ({recon_err:.2e})")


def eigendecompose(shift: ShiftOperator) -> SpectralBasis:
    """Numerically diagonalize a shift operator, symmetric by construction.

    Eigenvalues are returned ascending; eigenvector signs follow a fixed
    convention so downstream model matrices are reproducible.
    """
    matrix = np.asarray(shift.matrix, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(matrix)
    eigvecs = _fix_signs(eigvecs)
    gap_tol = _gap_tolerance(matrix)
    basis = SpectralBasis(
        eigvecs=eigvecs,
        eigvals=eigvals,
        distinct=_has_distinct_eigvals(eigvals, gap_tol),
    )
    _check_basis(basis, matrix)
    return basis


def is_circulant(matrix: np.ndarray) -> bool:
    """True when every row is the one-step cyclic shift of the previous (exactly)."""
    matrix = np.asarray(matrix)
    first = matrix[0]
    for i in range(1, matrix.shape[0]):
        if not np.array_equal(matrix[i], np.roll(first, i)):
            return False
    return True


def circulant_dft_basis(shift: ShiftOperator) -> SpectralBasis:
    """Closed-form DFT basis of a circulant shift operator.

    Column n of the basis is ``exp(-2*pi*1j*n*m/N)/sqrt(N)`` over entries
    m, and the eigenvalues are the DFT of the first row (real, since the
    matrix is symmetric). No numerical eigendecomposition is involved.
    """
    matrix = shift.matrix
    if not is_circulant(matrix):
        raise InvalidInputError("matrix is not circulant")
    n = matrix.shape[0]
    m = np.arange(n)
    u = np.exp(-2j * np.pi * np.outer(m, m) / n) / np.sqrt(n)
    eigvals = np.fft.fft(matrix[0])
    if np.abs(eigvals.imag).max() > 1e-9 * max(1.0, np.abs(eigvals).max()):
        raise InvalidInputError("circulant matrix has complex spectrum; not symmetric?")
    eigvals = eigvals.real
    basis = SpectralBasis(
        eigvecs=u,
        eigvals=eigvals,
        distinct=_has_distinct_eigvals(eigvals, _gap_tolerance(matrix)),
    )
    _check_basis(basis, matrix)
    return basis


def gft(basis: SpectralBasis, x: np.ndarray) -> np.ndarray:
    """Graph Fourier transform ``U^H x``."""
    x = np.asarray(x)
    if x.shape[0] != basis.n:
        raise InvalidInputError(f"signal length {x.shape[0]} != basis size {basis.n}")
    return basis.eigvecs.conj().T @ x


def igft(basis: SpectralBasis, x_f: np.ndarray) -> np.ndarray:
    """Inverse graph Fourier transform ``U x_f``."""
    x_f = np.asarray(x_f)
    if x_f.shape[0] != basis.n:
        raise InvalidInputError(f"spectrum length {x_f.shape[0]} != basis size {basis.n}")
    return basis.eigvecs @ x_f


def apply_filter(shift: ShiftOperator, filt: GraphFilter, x: np.ndarray) -> np.ndarray:
    """Apply a polynomial filter by iterated shift-and-accumulate.

    Works on a single signal (1-D) or a stack of signals as columns
    (2-D). Dense powers of S are never formed.
    """
    h = filt.coeffs
    if h.size > shift.n:
        raise InvalidInputError(f"filter length {h.size} exceeds graph size {shift.n}")
    x = np.asarray(x, dtype=float)
    if x.shape[0] != shift.n:
        raise InvalidInputError(f"signal length {x.shape[0]} != graph size {shift.n}")
    out = h[0] * x
    shifted = x
    for coeff in h[1:]:
        shifted = shift.matrix @ shifted
        out = out + coeff * shifted
    return out


def frequency_response(eigvals: np.ndarray, filt: GraphFilter) -> np.ndarray:
    """Filter response ``h[0] + h[1]*lam + ...`` at each graph frequency."""
    lam = np.asarray(eigvals, dtype=float)
    vand = np.vander(lam, filt.coeffs.size, increasing=True)
    return vand @ filt.coeffs


def filter_matrix(shift: ShiftOperator, filt: GraphFilter) -> np.ndarray:
    """Dense filter matrix ``sum_l h_l S^l`` (desk scale only)."""
    h = filt.coeffs
    if h.size > shift.n:
        raise InvalidInputError(f"filter length {h.size} exceeds graph size {shift.n}")
    powers = shift.powers(h.size)
    out = np.zeros_like(shift.matrix)
    for coeff, power in zip(h, powers):
        out = out + coeff * power
    return out


# --- Graph families -------------------------------------------------------


def cycle_graph(n: int) -> Graph:
    """Ring of n nodes with unit weights."""
    if n < 2:
        raise InvalidInputError("cycle graph needs n >= 2")
    if n == 2:
        return Graph(n, ((0, 1, 1.0),))
    edges = tuple((i, (i + 1) % n, 1.0) for i in range(n))
    return Graph(n, edges)


def path_graph(n: int) -> Graph:
    """Chain of n nodes with unit weights."""
    if n < 2:
        raise InvalidInputError("path graph needs n >= 2")
    return Graph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def mobius_ladder(n: int) -> Graph:
    """Cycle of n nodes plus the n/2 rungs i <-> i + n/2 (n even).

    The adjacency matrix of this graph is circulant, so the DFT basis
    applies.
    """
    if n < 4 or n % 2 != 0:
        raise InvalidInputError("Moebius ladder needs an even n >= 4")
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    edges += [(i, i + n // 2, 1.0) for i in range(n // 2)]
    return Graph(n, tuple(edges))


def sensor_graph(n: int, seed: int, k: int = 6) -> Graph:
    """Random sensor graph: uniform points in the unit square, k-NN edges.

    Edges carry Gaussian-kernel weights exp(-d^2 / (2 sigma^2)) with
    sigma the mean k-NN distance; the k-NN relation is symmetrized.
    Deterministic for a fixed seed.
    """
    if n < 2:
        raise InvalidInputError("sensor graph needs n >= 2")
    if not (1 <= k < n):
        raise InvalidInputError("need 1 <= k < n")
    rng = _rng(seed)
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    nn = np.argsort(dist, axis=1)[:, :k]
    sigma = float(np.mean(np.take_along_axis(dist, nn, axis=1)))
    pairs = set()
    for i in range(n):
        for j in nn[i]:
            pairs.add((min(i, int(j)), max(i, int(j))))
    edges = tuple(
        (i, j, float(np.exp(-(dist[i, j] ** 2) / (2.0 * sigma**2)))) for i, j in sorted(pairs)
    )
    return Graph(n, edges)
