"""Graphs, shift operators, spectral bases, and polynomial graph filters.

A graph signal lives on the nodes of an undirected weighted graph. The
shift operator (Laplacian or adjacency) plays the role the delay plays
for time series: its eigenvectors provide the Fourier-like basis and its
eigenvalues the graph frequencies. Filters are polynomials in the shift.
"""

from __future__ import annotations

import json
import math
import numbers
import threading
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Callable

import numpy as np

from .errors import ConvergenceError, InvalidInputError, NumericalError

# Shift operator kinds.
LAPLACIAN = "laplacian"
ADJACENCY = "adjacency"
SHIFTS = (LAPLACIAN, ADJACENCY)

_SYMMETRY_RTOL = 1e-12


def _is_int_type(kind: type) -> bool:
    """Whether values of type ``kind`` are JSON integers: Python or numpy ints, not bools."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _is_real_type(kind: type) -> bool:
    """Whether values of type ``kind`` are real numbers other than bools."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def _is_int(value) -> bool:
    """Whether ``value`` is a JSON integer: a Python or numpy int, not a bool, float or string."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _first_refused(values: tuple | list, accept: Callable, key: Callable = type) -> int:
    """Index of the first of ``values`` whose ``key`` ``accept`` refuses, or their count.

    ``accept`` is asked once per distinct key.
    """
    refused = {kind for kind in set(map(key, values)) if not accept(kind)}
    if not refused:
        return len(values)
    return next(k for k, value in enumerate(values) if key(value) in refused)


def _int_array(values: list) -> np.ndarray:
    """Python or numpy ints as int64, or as Python ints when one lies outside int64."""
    try:
        return np.fromiter(values, np.int64, len(values))
    except OverflowError:
        return np.array(list(map(int, values)), dtype=object)


def _first(bad: np.ndarray) -> int:
    """Index of the first True in ``bad``, or its length when there is none."""
    return int(np.argmax(bad)) if bad.any() else bad.size


def _check_ints(values, low: int, high, what: str) -> None:
    """Refuse any of ``values`` that is not an integer (``_is_int``, no bool or float) in ``[low, high)``."""
    bad = [v for v in values if not (_is_int(v) and low <= v < high)]
    if bad:
        raise InvalidInputError(f"{what} must be an integer in [{low}, {high}), got {bad[0]!r}")


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
    as ``(i, j, weight)`` with ``i < j``, in the order given. The node
    count and endpoints must be integers (not bools), and weights finite
    positive numbers. Self-loops and duplicate pairs are rejected.

    The edges are checked as arrays, one check over all of them at a
    time. A refusal still names the first offending edge and the first
    check it fails, with the message a check of one edge after another
    gives. The graph keeps its checked edges as read-only arrays too,
    which :meth:`weight_matrix` scatters.
    """

    n_nodes: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        n = self.n_nodes
        if not (_is_int(n) and n >= 1):
            raise InvalidInputError(f"graph must have an integer n >= 1, got {n!r}")
        edges = tuple(map(tuple, self.edges))
        # Each check reads only the edges before the first one refused so far, so
        # the last refusal found is the first offending edge's first failed check.
        fault = None
        k = _first_refused(edges, (2, 3).__contains__, len)
        if k < len(edges):
            fault = f"edge {list(edges[k])} must be [i, j] or [i, j, weight]"
        edges = edges[:k]
        first, second = list(map(itemgetter(0), edges)), list(map(itemgetter(1), edges))
        k = min(_first_refused(first, _is_int_type), _first_refused(second, _is_int_type))
        if k < len(edges):
            fault = f"edge {list(edges[k])} has a non-integer endpoint"
        i, j = _int_array(first[:k]), _int_array(second[:k])
        k = _first(i == j)
        if k < i.size:
            fault = f"self-loop at node {int(i[k])}"
        i, j = i[:k], j[:k]
        k = _first((i < 0) | (i >= n) | (j < 0) | (j >= n))
        if k < i.size:
            fault = f"edge ({int(i[k])},{int(j[k])}) out of range for n={n}"
        given = [edge[2] if len(edge) == 3 else 1.0 for edge in edges[:k]]
        typed = _first_refused(given, _is_real_type)
        weights = np.fromiter(given[:typed], float, typed)
        k = _first(~((weights > 0) & (weights < np.inf)))
        if k < len(given):
            fault = f"edge ({int(i[k])},{int(j[k])}) weight {given[k]!r} is not finite and positive"
        i, j = i[:k], j[:k]
        low, high = np.minimum(i, j), np.maximum(i, j)
        order = np.lexsort((high, low))  # stable: a pair's first edge leads its run
        low_run, high_run = low[order], high[order]
        again = (low_run[1:] == low_run[:-1]) & (high_run[1:] == high_run[:-1])
        if again.any():
            k = int(order[1:][again].min())
            fault = f"duplicate edge {(int(low[k]), int(high[k]))}"
        if fault is not None:
            raise InvalidInputError(fault)
        for array in (low, high, weights):
            array.setflags(write=False)
        object.__setattr__(self, "edges", tuple(zip(low.tolist(), high.tolist(), weights.tolist())))
        object.__setattr__(self, "_arrays", (low, high, weights))

    def weight_matrix(self) -> np.ndarray:
        """Symmetric N x N weight matrix W.

        The edge arrays are scattered into zeros at once, so each entry
        is its edge's weight, bit for bit, and every other entry is 0.
        """
        low, high, weights = self._arrays
        w = np.zeros((self.n_nodes, self.n_nodes))
        w[low, high] = w[high, low] = weights
        return w

    def degrees(self) -> np.ndarray:
        """Weighted node degrees: the row sums of :meth:`weight_matrix`.

        They are summed over the rows of W, not over the edges, so they
        keep the bits that the core choice of ``ar.core_by_degree`` reads.
        W is never formed whole: its rows are scattered from the edge
        arrays ``max(1, _KNN_BLOCK // n)`` at a time, each row with its
        values at its positions, so it sums to the bits of ``W.sum(axis=1)``.
        """
        low, high, weights = self._arrays
        n = self.n_nodes
        step = max(1, _KNN_BLOCK // n)
        out = np.empty(n)
        for start in range(0, n, step):
            stop = min(start + step, n)
            rows = np.zeros((stop - start, n))
            for here, there in ((low, high), (high, low)):
                mine = (here >= start) & (here < stop)
                rows[here[mine] - start, there[mine]] = weights[mine]
            out[start:stop] = rows.sum(axis=1)
        return out

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
    order for circulant ones. ``distinct`` is False when two sorted
    eigenvalues lie within ``1e-8 * max(1, max|lam|)`` of each other; the
    scale ``max|lam|`` is the operator's spectral norm, the bound in
    Weyl's perturbation inequality. A basis that is not N x N with N
    eigenvalues, that has a non-finite eigenvalue, or whose ``U^H U``
    does not lie within 1e-10 of the identity in every entry (a NaN
    deviation included), is refused.
    """

    eigvecs: np.ndarray
    eigvals: np.ndarray

    def __post_init__(self):
        u, lam = np.asarray(self.eigvecs), np.asarray(self.eigvals)
        if lam.ndim != 1 or u.shape != (lam.size, lam.size):
            raise InvalidInputError(
                f"basis must be N x N with N eigenvalues, got {u.shape} and {lam.shape}"
            )
        if not np.all(np.isfinite(lam)):
            raise InvalidInputError("basis has a non-finite eigenvalue")
        gram_err = np.abs(u.conj().T @ u - np.eye(lam.size)).max()
        if not gram_err < 1e-10:
            raise InvalidInputError(f"basis not orthonormal (max deviation {gram_err:.2e})")

    @property
    def n(self) -> int:
        return self.eigvals.shape[0]

    @property
    def distinct(self) -> bool:
        lam = np.sort(np.asarray(self.eigvals, dtype=float))
        if lam.size < 2:
            return True
        with np.errstate(over="ignore"):  # a gap that overflows to inf is distinct
            return bool(np.diff(lam).min() > 1e-8 * max(1.0, np.abs(lam).max()))


@dataclass(frozen=True)
class GraphFilter:
    """Polynomial filter with coefficients ``h[0] + h[1] S + ... + h[L-1] S^{L-1}``.

    The coefficients must be a non-empty vector of finite numbers.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise InvalidInputError("filter coefficients must be a non-empty 1-D vector")
        if not np.all(np.isfinite(coeffs)):
            raise InvalidInputError(f"filter coefficients {coeffs.tolist()} are not all finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)


class ShiftOperator:
    """Symmetric shift operator with a lazily computed spectral basis.

    The matrix chooses the basis: the closed-form DFT basis when it is
    circulant (:func:`is_circulant`), the numerical ``eigh`` basis
    otherwise. The matrix is immutable. Two things derived from it are
    kept once computed: the basis, cached on first use under a lock, and
    the transfer rows of the last (signal, nodes) pair realised on the
    shift (:meth:`transfer_rows`), read-only, so that the trials of a
    study build them once. Sharing across parallel readers is safe. No
    power of the matrix is stored. A matrix with a non-finite entry is
    refused before any arithmetic on it.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidInputError("shift operator must be a square matrix")
        if matrix.shape[0] == 0:
            raise InvalidInputError("shift operator must be non-empty")
        if not np.all(np.isfinite(matrix)):
            raise InvalidInputError("shift operator has a non-finite entry")
        scale = max(np.abs(matrix).max(), 1.0)
        with np.errstate(over="ignore"):  # an asymmetry that overflows to inf is refused
            asymmetry = np.abs(matrix - matrix.T).max()
        if asymmetry > _SYMMETRY_RTOL * scale:
            raise InvalidInputError("shift operator must be symmetric")
        matrix = 0.5 * matrix + 0.5 * matrix.T  # halved first: entries near the float maximum do not overflow
        matrix.setflags(write=False)
        self.matrix = matrix
        self._lock = threading.Lock()
        self._basis: SpectralBasis | None = None
        self._transfer: tuple | None = None  # (signal, nodes, rows) of the last transfer_rows call

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def basis(self) -> SpectralBasis:
        """Spectral basis: closed-form DFT for a circulant matrix, eigh otherwise."""
        if self._basis is None:
            with self._lock:
                if self._basis is None:
                    if is_circulant(self.matrix):
                        self._basis = _dft_basis(self.matrix)
                    else:
                        self._basis = eigendecompose(self)
        return self._basis

    def transfer_rows(self, signal: tuple, nodes, build: Callable) -> np.ndarray:
        """Rows ``nodes`` (all when None) of the transfer matrix of ``signal``, read-only.

        ``signal`` is a hashable key that fixes the transfer, such as the
        signal kind and its coefficients' bytes; ``build(nodes)`` computes
        the rows. The shift keeps the rows of the last (signal, nodes)
        pair and returns them while the pair repeats. ``nodes`` are
        checked as node indices unless they are the very tuple kept, which
        was checked when it was kept.
        """
        kept = self._transfer
        if kept is not None and kept[1] is nodes and kept[0] == signal:
            return kept[2]
        if nodes is not None:
            _check_ints(nodes, 0, self.n, "node")
            nodes = tuple(nodes)
        if kept is not None and kept[0] == signal and kept[1] == nodes:
            return kept[2]
        rows = build(nodes)
        rows.setflags(write=False)
        self._transfer = (signal, nodes, rows)  # one assignment: a parallel reader sees the old or the new pair
        return rows

    def __repr__(self):
        return f"ShiftOperator(n={self.n})"


def build_shift(graph: Graph, kind: str) -> ShiftOperator:
    """Build the shift operator of a graph.

    ``laplacian`` gives D - W (weighted degree matrix minus weights),
    ``adjacency`` gives W itself. A degree that overflows to inf makes a
    non-finite Laplacian, which :class:`ShiftOperator` refuses.
    """
    if kind not in SHIFTS:
        raise InvalidInputError(f"build_shift supports 'laplacian' or 'adjacency', got {kind!r}")
    w = graph.weight_matrix()
    if kind == LAPLACIAN:
        with np.errstate(over="ignore"):
            matrix = np.diag(w.sum(axis=1)) - w
    else:
        matrix = w
    return ShiftOperator(matrix)


def _fix_signs(eigvecs: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: largest-magnitude entry of each column positive."""
    u = eigvecs.copy()
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs


def _checked_basis(eigvecs: np.ndarray, eigvals: np.ndarray, matrix: np.ndarray) -> SpectralBasis:
    """The basis of computed eigenpairs of the operator ``matrix``.

    Non-finite eigenvalues, which an operator near the float maximum
    overflows to, raise NumericalError; a basis whose ``U diag(lam) U^H``
    is not the operator is refused.
    """
    if not np.all(np.isfinite(eigvals)):
        raise NumericalError("the shift operator's eigenvalues overflow")
    basis = SpectralBasis(eigvecs=eigvecs, eigvals=eigvals)
    recon = (eigvecs * eigvals) @ eigvecs.conj().T
    scale = max(np.abs(matrix).max(), 1e-300)
    recon_err = np.abs(matrix - recon).max()
    if not recon_err < 1e-8 * scale:
        raise InvalidInputError(f"basis does not reconstruct the operator ({recon_err:.2e})")
    return basis


def eigendecompose(shift: ShiftOperator) -> SpectralBasis:
    """Numerically diagonalize a shift operator, symmetric by construction.

    Eigenvalues are returned ascending; eigenvector signs follow a fixed
    convention so downstream model matrices are reproducible. An ``eigh``
    that does not converge raises ConvergenceError.
    """
    matrix = np.asarray(shift.matrix, dtype=float)
    try:
        eigvals, eigvecs = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition of the shift operator failed: {exc}") from None
    return _checked_basis(_fix_signs(eigvecs), eigvals, matrix)


def is_circulant(matrix: np.ndarray) -> bool:
    """True when every row is the one-step cyclic shift of the previous (exactly).

    Row i must equal row 0 rotated by i. Row 1 is compared first, which
    refuses most matrices that are not circulant, such as a sensor
    graph's, before the rotation index of every row is built; then entry
    (i, j) of rows 1 onward is compared with entry ``(j - i) mod N`` of
    row 0, in one comparison.
    """
    matrix = np.asarray(matrix)
    rows, cols = matrix.shape
    if rows > 1 and not np.array_equal(matrix[1], np.roll(matrix[0], 1)):
        return False
    shifts = np.arange(1, rows)[:, None]
    return np.array_equal(matrix[1:], matrix[0][(np.arange(cols) - shifts) % cols])


def _dft_basis(matrix: np.ndarray) -> SpectralBasis:
    """Closed-form DFT basis of a matrix already known to be circulant.

    Column n of the basis is ``exp(-2*pi*1j*n*m/N)/sqrt(N)`` over entries
    m, and the eigenvalues are the DFT of the first row (real, since the
    matrix is symmetric). No numerical eigendecomposition is involved.
    """
    n = matrix.shape[0]
    m = np.arange(n)
    u = np.exp(-2j * np.pi * np.outer(m, m) / n) / np.sqrt(n)
    with np.errstate(over="ignore"):  # _checked_basis refuses an eigenvalue that overflows
        eigvals = np.fft.fft(matrix[0])
    if np.abs(eigvals.imag).max() > 1e-9 * max(1.0, np.abs(eigvals).max()):
        raise InvalidInputError("circulant matrix has complex spectrum; not symmetric?")
    return _checked_basis(u, eigvals.real, matrix)


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


def vandermonde(eigvals: np.ndarray, q: int) -> np.ndarray:
    """N x Q Vandermonde matrix of graph frequencies; maps polynomial coefficients to a spectrum."""
    if q < 1:
        raise InvalidInputError("Q must be >= 1")
    return np.vander(np.asarray(eigvals, dtype=float), q, increasing=True)


def frequency_response(eigvals: np.ndarray, filt: GraphFilter) -> np.ndarray:
    """Filter response ``h[0] + h[1]*lam + ...`` at each graph frequency."""
    return vandermonde(eigvals, filt.coeffs.size) @ filt.coeffs


# --- Graph families -------------------------------------------------------

# Distances held at once by the k-NN search of sensor_graph, which sorts
# max(1, _KNN_BLOCK // n) rows of the N x N distance matrix at a time, and
# weights held at once by Graph.degrees, which sums as many rows of W.
_KNN_BLOCK = 1 << 17


def cycle_graph(n: int) -> Graph:
    """Ring of n nodes with unit weights."""
    _check_ints((n,), 2, np.inf, "cycle graph n")
    if n == 2:
        return Graph(n, ((0, 1, 1.0),))
    edges = tuple((i, (i + 1) % n, 1.0) for i in range(n))
    return Graph(n, edges)


def path_graph(n: int) -> Graph:
    """Chain of n nodes with unit weights."""
    _check_ints((n,), 2, np.inf, "path graph n")
    return Graph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def mobius_ladder(n: int) -> Graph:
    """Cycle of n nodes plus the n/2 rungs i <-> i + n/2 (n even).

    The adjacency matrix of this graph is circulant, so the DFT basis
    applies.
    """
    _check_ints((n,), 4, np.inf, "Moebius ladder n")
    if n % 2 != 0:
        raise InvalidInputError("Moebius ladder needs an even n >= 4")
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    edges += [(i, i + n // 2, 1.0) for i in range(n // 2)]
    return Graph(n, tuple(edges))


def sensor_graph(n: int, seed: int = 0, knn: int = 6) -> Graph:
    """Random sensor graph: uniform points in the unit square, k-NN edges with k = knn.

    Edges carry Gaussian-kernel weights exp(-d^2 / (2 sigma^2)) with
    sigma the mean k-NN distance; the k-NN relation is symmetrized.
    Deterministic for a fixed seed; ``n`` and ``knn`` must be integers
    (not bools) with 1 <= knn < n.

    The neighbours are found in blocks of rows of the distance matrix,
    ``max(1, _KNN_BLOCK // n)`` rows at a time, so the search holds a few
    arrays of about 2**17 distances (1 MB each) and the N x knn neighbour
    table, never the N x N matrix: its traced peak is about 5 MB at
    N = 1000 and at N = 2000. The edges keep the bytes the whole matrix
    gives them. Each row's distances and sort are the matrix's own, and
    sigma is one mean over the same N x knn table. Each distance is
    squared by libm's ``pow``, as a numpy scalar's ``d ** 2`` is; an
    array's ``d ** 2`` multiplies, which can differ in the last bit.
    """
    _check_ints((n,), 2, np.inf, "sensor graph n")
    _check_ints((knn,), 1, n, "knn")
    rng = _rng(seed)
    pts = rng.random((n, 2))
    nn = np.empty((n, knn), dtype=np.intp)
    nn_dist = np.empty((n, knn))
    step = max(1, _KNN_BLOCK // n)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        dx = pts[rows, 0, None] - pts[:, 0]
        dy = pts[rows, 1, None] - pts[:, 1]
        dist = np.sqrt(dx * dx + dy * dy)
        dist.ravel()[start :: n + 1] = np.inf  # entry (r, start + r): the row's own point
        nn[rows] = np.argsort(dist, axis=1)[:, :knn]
        nn_dist[rows] = np.take_along_axis(dist, nn[rows], axis=1)
    sigma = float(np.mean(nn_dist))
    node = np.repeat(np.arange(n), knn)
    low, high = np.minimum(node, nn.ravel()), np.maximum(node, nn.ravel())
    _, first = np.unique(low * n + high, return_index=True)  # sorted pairs, each at its first entry
    squared = np.fromiter(map(math.pow, nn_dist.ravel()[first].tolist(), repeat(2.0)), float, first.size)
    weights = np.exp(-squared / (2.0 * sigma**2))
    return Graph(n, tuple(zip(low[first].tolist(), high[first].tolist(), weights.tolist())))
