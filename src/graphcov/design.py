"""Design of the observed node subset.

Selecting K of N nodes to keep the compressed model identifiable is a
combinatorial problem. The log-det of the (diagonally loaded) Gram of
the selected model rows is a normalized, monotone set function, which
greedy augmentation maximizes one node at a time. It is not submodular:
a node joining a set of size |X| adds 2|X|+1 model rows, so marginal
gains can grow with the set, and the (1 - 1/e) guarantee of greedy
submodular maximization does not apply. For circulant shift operators
the problem has a closed combinatorial answer: node sets whose pairwise
differences cover 0..N-1 (sparse rulers) are valid, and minimal rulers
give the best compression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CapabilityError, InvalidInputError
from .models import Subsampler, numerical_rank, pair_rows

LOGDET = "logdet"
FRAME_POTENTIAL = "frame_potential"

# Pair rows per working block of the greedy scoring and of default_epsilon;
# a block holds about M x _BLOCK_ROWS values, which bounds their memory.
_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class DesignProblem:
    """Inputs of a sampler design run.

    ``psi`` is the uncompressed N^2 x M model matrix; ``k`` the node
    budget; ``epsilon`` the diagonal loading (a scale-relative default
    is chosen when None).
    """

    psi: np.ndarray
    k: int
    epsilon: float | None = None
    cost: str = LOGDET

    def __post_init__(self):
        psi = np.asarray(self.psi)
        n = int(round(math.isqrt(psi.shape[0])))
        if psi.ndim != 2 or n * n != psi.shape[0]:
            raise InvalidInputError("model matrix must have N^2 rows")
        if not (1 <= self.k <= n):
            raise InvalidInputError(f"need 1 <= K <= {n}, got {self.k}")
        if self.cost not in (LOGDET, FRAME_POTENTIAL):
            raise InvalidInputError(f"unknown design cost {self.cost!r}")
        if self.epsilon is not None and self.epsilon <= 0:
            raise InvalidInputError("epsilon must be positive")

    @property
    def n_nodes(self) -> int:
        return int(round(math.isqrt(self.psi.shape[0])))

    def resolved_epsilon(self) -> float:
        if self.epsilon is not None:
            return float(self.epsilon)
        return default_epsilon(self.psi)


@dataclass(frozen=True)
class DesignResult:
    sampler: Subsampler
    objective_trace: tuple[float, ...]


@dataclass(frozen=True)
class ValidityReport:
    """Rank diagnosis of the compressed model induced by a sampler."""

    valid: bool
    rank: int
    min_singular: float
    feasible: bool  # distinct equations >= number of parameters


def default_epsilon(psi: np.ndarray) -> float:
    """Scale-relative diagonal loading: 1e-6 * (1 + mean diag of psi^H psi).

    The column sums of ``|psi|^2`` are accumulated over row blocks in row
    order, the order numpy uses for an ``axis=0`` sum of a C-ordered matrix
    with more than one column, so the value matches the one-shot sum
    bit for bit without its N^2 x M temporary.
    """
    psi = np.asarray(psi)
    # row 0 carries the running sum into the next block
    buf = np.zeros((min(_BLOCK_ROWS, psi.shape[0]) + 1, psi.shape[1]))
    for start in range(0, psi.shape[0], _BLOCK_ROWS):
        block = psi[start : start + _BLOCK_ROWS]
        rows = buf[: block.shape[0] + 1]
        rows[1:] = np.real(block.conj() * block)
        rows[0] = np.sum(rows, axis=0)
    return 1e-6 * (1.0 + float(np.mean(buf[0])))


def _selected_rows(psi: np.ndarray, selected) -> np.ndarray:
    n = int(round(math.isqrt(psi.shape[0])))
    return psi[pair_rows(n, selected), :]


def gram(psi: np.ndarray, w) -> np.ndarray:
    """Gram matrix of the model rows a selection keeps.

    Sums the outer products of all selected-pair rows; equivalent to
    ``psi^H (diag[w] kron diag[w]) psi`` without forming the N^2 x N^2
    diagonal. Hermitian PSD; empty selections give the zero matrix.
    """
    if isinstance(w, Subsampler):
        selected = w.selected
    else:
        selected = tuple(np.flatnonzero(np.asarray(w, dtype=bool)))
    m = psi.shape[1]
    if not selected:
        return np.zeros((m, m), dtype=psi.dtype)
    z = _selected_rows(psi, selected)
    t = z.conj().T @ z
    return 0.5 * (t + t.conj().T)


def set_objective(psi: np.ndarray, selected, epsilon: float) -> float:
    """Normalized log-det objective ``logdet(T + eps I) - M log eps``.

    Zero on the empty set and monotone nondecreasing, but not submodular.
    """
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    selected = tuple(selected)
    if not selected:
        return 0.0
    m = psi.shape[1]
    t = gram(psi, Subsampler(int(round(math.isqrt(psi.shape[0]))), selected))
    sign, logdet = np.linalg.slogdet(t + epsilon * np.eye(m))
    if sign <= 0:
        raise InvalidInputError("loaded Gram not positive definite")
    return float(logdet - m * np.log(epsilon))


def frame_potential(psi: np.ndarray, w) -> float:
    """Squared Frobenius norm of the selection Gram matrix."""
    t = gram(psi, w)
    return float(np.real(np.sum(np.abs(t) ** 2)))


def _new_pair_rows(n: int, nodes, selected) -> np.ndarray:
    """Rows gained when a node joins ``selected``: (node, node), then
    (j, node), (node, j) for each selected j.

    A scalar ``nodes`` gives one index vector of length 2|X|+1; an array
    gives one such vector per node, stacked as rows.
    """
    node = np.asarray(nodes)[..., None]
    sel = np.asarray(selected, dtype=int)
    rows = np.empty(node.shape[:-1] + (2 * sel.size + 1,), dtype=int)
    rows[..., :1] = node * n + node
    rows[..., 1::2] = sel * n + node
    rows[..., 2::2] = node * n + sel
    return rows


def _logdet_gains(psi: np.ndarray, chol: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``logdet(A + Z^H Z) - logdet(A)`` for each candidate's row block Z.

    ``chol`` is the lower Cholesky factor of A and ``rows`` holds one
    candidate's pair rows per row. Each gain is the log-det of the small
    ``I + W^H W`` with ``W = chol^{-1} Z^H``: all candidates are whitened
    by one triangular solve and their small matrices formed by one
    batched product.
    """
    c, r = rows.shape
    z = psi[rows.ravel(), :]
    w = scipy.linalg.solve_triangular(chol, z.conj().T, lower=True, overwrite_b=True)
    # w comes back in Fortran order, so w.T splits into per-candidate W^T
    # blocks without a copy
    wt = w.T.reshape(c, r, -1)
    small = np.eye(r, dtype=w.dtype) + wt.conj() @ wt.transpose(0, 2, 1)
    diag = np.diagonal(np.linalg.cholesky(small), axis1=1, axis2=2)
    return 2.0 * np.sum(np.log(np.real(diag)), axis=1)


def _greedy_logdet(problem: DesignProblem) -> DesignResult:
    psi = np.asarray(problem.psi)
    n, m = problem.n_nodes, psi.shape[1]
    eps = problem.resolved_epsilon()
    is_complex = np.iscomplexobj(psi)
    t = np.zeros((m, m), dtype=complex if is_complex else float)
    chol = np.sqrt(eps) * np.eye(m, dtype=t.dtype)
    base = -m * np.log(eps)
    selected: list[int] = []
    trace = []
    for _ in range(problem.k):
        candidates = np.setdiff1d(np.arange(n), selected)
        rows = _new_pair_rows(n, candidates, selected)
        per_block = max(1, _BLOCK_ROWS // rows.shape[1])
        gains = np.concatenate(
            [
                _logdet_gains(psi, chol, rows[start : start + per_block])
                for start in range(0, candidates.size, per_block)
            ]
        )
        # argmax returns the first maximum: ties go to the lowest node index
        best_node = int(candidates[np.argmax(gains)])
        z = psi[_new_pair_rows(n, best_node, selected), :]
        t = t + z.conj().T @ z
        t = 0.5 * (t + t.conj().T)
        chol = np.linalg.cholesky(t + eps * np.eye(m))
        selected.append(best_node)
        trace.append(float(2.0 * np.sum(np.log(np.real(np.diag(chol))))) + base)
    return DesignResult(
        sampler=Subsampler(n, tuple(selected)), objective_trace=tuple(trace)
    )


def _greedy_frame_potential(problem: DesignProblem) -> DesignResult:
    """Worst-out greedy: start from all nodes, drop the one whose removal
    leaves the smallest frame potential, until K remain."""
    psi = np.asarray(problem.psi)
    n = problem.n_nodes
    selected = list(range(n))
    t = gram(psi, Subsampler.full(n))
    trace = [float(np.real(np.sum(np.abs(t) ** 2)))]
    while len(selected) > problem.k:
        best_node, best_fp, best_t = -1, np.inf, None
        for s in selected:
            others = [j for j in selected if j != s]
            z = psi[_new_pair_rows(n, s, others), :]
            t_candidate = t - z.conj().T @ z
            fp = float(np.real(np.sum(np.abs(t_candidate) ** 2)))
            if fp < best_fp:
                best_node, best_fp, best_t = s, fp, t_candidate
        selected.remove(best_node)
        t = 0.5 * (best_t + best_t.conj().T)
        trace.append(best_fp)
    return DesignResult(
        sampler=Subsampler(n, tuple(selected)), objective_trace=tuple(trace)
    )


def greedy_design(problem: DesignProblem) -> DesignResult:
    """Greedy sampler design under the configured cost.

    The log-det cost is maximized by K augmentation steps; each step
    scores every remaining candidate exactly, whitening the candidates'
    new rows against the Cholesky factor of the loaded Gram in blocked
    triangular solves. The frame potential is minimized by complement
    removal. Ties break toward the lowest node index and the
    per-iteration objective values are returned alongside the sampler.
    """
    if problem.cost == LOGDET:
        return _greedy_logdet(problem)
    return _greedy_frame_potential(problem)


def _distinct_equations(compressed: np.ndarray, k: int) -> int:
    """K(K+1)/2 when the (p,q) and (q,p) rows coincide, as for every real
    spectral or moving-average model of a symmetric shift; K^2 otherwise."""
    rows = compressed.reshape(k, k, -1, order="F")
    scale = np.abs(rows).max(axis=(0, 1))
    asymmetry = np.abs(rows - rows.transpose(1, 0, 2)).max(axis=(0, 1))
    if np.all(asymmetry <= np.sqrt(np.finfo(float).eps) * scale):
        return k * (k + 1) // 2
    return k * k


def check_valid(psi: np.ndarray, sampler: Subsampler) -> ValidityReport:
    """Decide whether a sampler keeps the compressed model identifiable.

    Computes the numerical rank of the K^2 x M compressed matrix with
    threshold ``max(K^2, M) * eps * sigma_max``; the sampler is valid iff
    the rank equals M. ``feasible`` reports the necessary count condition:
    at least M distinct equations, which is K(K+1)/2 when the model's
    (p,q) and (q,p) rows coincide and K^2 otherwise.
    """
    psi = np.asarray(psi)
    m = psi.shape[1]
    compressed = _selected_rows(psi, sampler.selected)
    svals = np.linalg.svd(compressed, compute_uv=False)
    rank = numerical_rank(svals, compressed.shape)
    min_singular = float(svals[m - 1]) if svals.size >= m else 0.0
    return ValidityReport(
        valid=rank == m,
        rank=rank,
        min_singular=min_singular,
        feasible=_distinct_equations(compressed, sampler.k) >= m,
    )


# --- Sparse rulers --------------------------------------------------------


def is_sparse_ruler(marks, n: int) -> bool:
    """True when the pairwise differences of ``marks`` cover 0..n-1."""
    marks = sorted(int(m) for m in set(marks))
    if not marks:
        return False
    if marks[0] < 0 or marks[-1] >= n:
        raise InvalidInputError("marks must lie in [0, n-1]")
    diffs = {b - a for i, a in enumerate(marks) for b in marks[i:]}
    return all(d in diffs for d in range(n))


def minimal_sparse_ruler(n: int, search_limit: int = 64) -> tuple[int, ...]:
    """Smallest mark set whose differences cover 0..n-1, by branch and bound.

    Searches cardinalities upward from the counting bound; within a
    cardinality the lexicographically smallest ruler is returned. Any
    ruler must contain both 0 and n-1 (the only pair at distance n-1),
    which prunes the search. Beyond ``search_limit`` the combinatorial
    search is refused.
    """
    if n < 2:
        raise InvalidInputError("need n >= 2")
    if n > search_limit:
        raise CapabilityError(
            f"minimal ruler search capped at n={search_limit}; "
            "check a known set with is_sparse_ruler instead"
        )
    if n == 2:
        return (0, 1)
    full_mask = (1 << n) - 1

    def covered_bits(marks: list[int]) -> int:
        bits = 0
        for i, a in enumerate(marks):
            for b in marks[i:]:
                bits |= 1 << (b - a)
        return bits

    # smallest k with k(k-1)/2 >= n-1 distinct positive differences
    k = 2
    while k * (k - 1) // 2 < n - 1:
        k += 1

    while True:
        interior_slots = k - 2
        found: list[tuple[int, ...]] = []

        def dfs(marks: list[int], bits: int, start: int, slots: int) -> bool:
            if slots == 0:
                if bits == full_mask:
                    found.append(tuple(sorted(marks)))
                    return True
                return False
            uncovered = n - int.bit_count(bits)
            size = len(marks)
            # the t-th future mark covers at most size+t-1 new differences
            max_new = slots * size + slots * (slots - 1) // 2
            if uncovered > max_new:
                return False
            for cand in range(start, n - 1):
                if (n - 1 - cand) < slots - 1 + 1:
                    break
                new_bits = bits | 1  # self-difference
                for mark in marks:
                    new_bits |= 1 << abs(cand - mark)
                marks.append(cand)
                if dfs(marks, new_bits, cand + 1, slots - 1):
                    marks.pop()
                    return True
                marks.pop()
            return False

        base = [0, n - 1]
        if interior_slots == 0:
            if covered_bits(base) == full_mask:
                return tuple(base)
        elif dfs(base, covered_bits(base), 1, interior_slots):
            return found[0]
        k += 1
