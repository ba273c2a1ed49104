"""Design of the observed node subset.

Selecting K of N nodes to keep the compressed model identifiable is a
combinatorial problem. The one design cost is the log-det of the
(diagonally loaded) Gram of the selected model rows (Joshi & Boyd, IEEE
TSP 2009): a normalized, monotone set function, which greedy
augmentation maximizes one node at a time. The model rows come from the
factors of a :class:`~graphcov.models.CovarianceModel`, so the N^2 x M
model matrix is never formed. The objective is not submodular:
a node joining a set of size |X| adds 2|X|+1 model rows, so marginal
gains can grow with the set, and the (1 - 1/e) guarantee of greedy
submodular maximization does not apply. Each greedy step still scores
every candidate exactly: a candidate keeps its new rows whitened against
the loaded Gram, and a pick updates them by its own low-rank factor, as
fast greedy MAP inference for determinantal point processes does with
single vectors (Chen, Zhang & Zhou, NeurIPS 2018). For circulant shift
operators the problem has a closed combinatorial answer: node sets whose
pairwise differences cover 0..N-1 (sparse rulers) are valid, and minimal
rulers give the best compression.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, InvalidInputError
from .graphs import _is_int
from .models import _BLOCK_ROWS, CovarianceModel, Subsampler, compress_model

# Greedy scores within this fraction of the best are tied, and the lowest
# node index wins; rounding differences between equal scores stay far below.
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class DesignProblem:
    """Inputs of a greedy log-det design run.

    ``psi`` is the uncompressed model, held by its factors; ``k`` the node
    budget, an integer in 1..N; ``epsilon`` the diagonal loading (a
    scale-relative default is chosen when None). Every column of the model
    is Hermitian, so its pair rows (a,b) and (b,a) are conjugate, which the
    greedy relies on.
    """

    psi: CovarianceModel
    k: int
    epsilon: float | None = None

    def __post_init__(self):
        if not isinstance(self.psi, CovarianceModel):
            raise InvalidInputError("psi must be a CovarianceModel from build_psi_spectral or build_psi_ma")
        n = self.psi.n_nodes
        if not _is_int(self.k):
            raise InvalidInputError(f"K must be an integer, got {self.k!r}")
        if not (1 <= self.k <= n):
            raise InvalidInputError(f"need 1 <= K <= {n}, got {self.k}")
        if self.epsilon is not None and not 0 < self.epsilon < np.inf:
            raise InvalidInputError(f"epsilon must be positive and finite, got {self.epsilon}")

    @property
    def n_nodes(self) -> int:
        return self.psi.n_nodes

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
    condition_number: float  # sigma_max over the smallest kept singular value


def default_epsilon(psi: CovarianceModel) -> float:
    """Scale-relative diagonal loading: 1e-6 * (1 + mean diag of Psi^H Psi).

    Diagonal entry i of ``Psi^H Psi`` is ``||X_i||_F^2`` for the model's
    column matrix X_i, which the model gives in closed form.
    """
    return 1e-6 * (1.0 + float(np.mean(psi.column_sq_norms())))


def gram(psi: CovarianceModel, w) -> np.ndarray:
    """Gram matrix of the model rows a selection keeps.

    Sums the outer products of all selected-pair rows; equivalent to
    ``Psi^H (diag[w] kron diag[w]) Psi`` without forming either factor.
    The rows are computed and summed in blocks of at most ``_BLOCK_ROWS``
    (or one node's K rows). Hermitian PSD; empty selections give the
    zero matrix.
    """
    if isinstance(w, Subsampler):
        selected = w.selected
    else:
        selected = np.flatnonzero(np.asarray(w, dtype=bool))
    sel = np.asarray(selected, dtype=int)
    m = psi.n_params
    t = np.zeros((m, m), dtype=complex if psi.complex_rows else float)
    per_block = max(1, _BLOCK_ROWS // max(1, sel.size))
    for start in range(0, sel.size, per_block):
        z = psi.rows(sel[start : start + per_block, None], sel[None, :]).reshape(-1, m)
        t += z.conj().T @ z
    return 0.5 * (t + t.conj().T)


def set_objective(psi: CovarianceModel, selected, epsilon: float) -> float:
    """Normalized log-det objective ``logdet(T + eps I) - M log eps``.

    Zero on the empty set and monotone nondecreasing, but not submodular.
    """
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    selected = tuple(selected)
    if not selected:
        return 0.0
    m = psi.n_params
    t = gram(psi, Subsampler(psi.n_nodes, selected))
    sign, logdet = np.linalg.slogdet(t + epsilon * np.eye(m))
    if sign <= 0:
        raise InvalidInputError("loaded Gram not positive definite")
    return float(logdet - m * np.log(epsilon))


def _lowest_tied(scores: np.ndarray, nodes: np.ndarray) -> int:
    """Position of the lowest node among those whose score lies within
    ``_TIE_RTOL * |max|`` of the largest score."""
    best = scores.max()
    tied = np.flatnonzero(scores >= best - _TIE_RTOL * abs(best))
    return int(tied[np.argmin(nodes[tied])])


def greedy_design(problem: DesignProblem) -> DesignResult:
    """Greedy log-det sampler design: K augmentation steps, each of which
    scores every remaining candidate exactly.

    Scores within ``1e-9 * |best|`` of the best are tied, and ties go to
    the lowest node index. The running sums of the picked gains, one per
    step, are returned alongside the sampler.

    The greedy runs on folded real rows, updated in place. Pair rows
    (j,s) and (s,j) of the model are conjugate, so together they add
    ``2(a^T a + b^T b)`` to the Gram, with ``z = a + ib``. A candidate s
    therefore brings the real rows ``Re z_ss`` and, per selected j,
    ``sqrt(2) Re z_js`` and (complex rows only) ``sqrt(2) Im z_js``.
    ``y[s]`` holds them whitened, ``Z_s F^{-T}``, where
    ``F F^T = eps I + T`` and T is the Gram of the selected rows, and the
    gain of s is ``logdet(I + Y_s Y_s^T)``. A pick with whitened rows W
    turns F into ``F (I + W^T W)^{1/2}``: with ``W W^T = V diag(lam) V^T``,
    every whitened row y becomes ``y - (y W^T) V diag(phi) V^T W`` with
    ``phi = (1 - (1 + lam)^{-1/2}) / lam``. The candidates' rows and
    ``F^{-T}`` are updated so, and the rows the pick adds to each
    candidate are appended whitened by the new ``F^{-T}``. Picks are
    swap-removed from ``y``, and the scoring and update passes run over
    candidate blocks of at most ``_BLOCK_ROWS`` rows.
    """
    psi = problem.psi
    n, m, k = problem.n_nodes, psi.n_params, problem.k
    eps = problem.resolved_epsilon()
    parts = (np.real, np.imag) if psi.complex_rows else (np.real,)
    candidates = np.arange(n)
    y = np.empty((n, 1 + len(parts) * (k - 1), m))
    y[:, 0] = np.real(psi.rows(candidates, candidates)) / np.sqrt(eps)
    white = np.eye(m) / np.sqrt(eps)  # F^{-T}
    selected: list[int] = []
    trace = []
    total = 0.0
    for step in range(k):
        live = n - step
        r = 1 + len(parts) * step
        per_block = max(1, _BLOCK_ROWS // r)
        gains = np.empty(live)
        for start in range(0, live, per_block):
            block = y[start : min(start + per_block, live), :r]
            small = block @ block.transpose(0, 2, 1)
            small += np.eye(r)
            diag = np.diagonal(np.linalg.cholesky(small), axis1=1, axis2=2)
            gains[start : start + block.shape[0]] = 2.0 * np.sum(np.log(diag), axis=1)
        best = _lowest_tied(gains, candidates[:live])
        pick = int(candidates[best])
        selected.append(pick)
        total += float(gains[best])
        trace.append(total)
        if step == k - 1:
            break
        w = y[best, :r].copy()
        live -= 1
        y[best, :r] = y[live, :r]
        candidates[best] = candidates[live]
        lam, v = np.linalg.eigh(w @ w.T)
        root = np.sqrt(1.0 + np.maximum(lam, 0.0))
        # phi = 1 / (root (1 + root)) is (1 - 1/root) / lam without the
        # cancellation at small lam
        pw = (v / (root * (1.0 + root))) @ (v.T @ w)  # V diag(phi) V^T W
        for start in range(0, live, per_block):
            block = y[start : min(start + per_block, live), :r]
            block -= (block @ w.T) @ pw
        white -= (white @ w.T) @ pw
        folded = np.sqrt(2.0) * white
        for start in range(0, live, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, live)
            z = psi.rows(pick, candidates[start:stop])  # entries (s, pick)
            for offset, part in enumerate(parts):
                np.matmul(np.ascontiguousarray(part(z)), folded, out=y[start:stop, r + offset])
    return DesignResult(
        sampler=Subsampler(n, tuple(selected)), objective_trace=tuple(trace)
    )


def check_valid(psi: CovarianceModel, sampler: Subsampler) -> ValidityReport:
    """Decide whether a sampler keeps the compressed model identifiable.

    Reads the rank diagnostics of :func:`compress_model`: the numerical
    rank of the K^2 x M compressed matrix with threshold
    ``max(K^2, M) * eps * sigma_max``, so the sampler is valid iff the
    model has full column rank. ``feasible`` reports the necessary count
    condition: at least M distinct equations. The model's columns are
    Hermitian, so its (p,q) and (q,p) rows are conjugate: they coincide
    for a model with real rows (a real basis, or any parameter map), which
    gives K(K+1)/2 equations, and complex rows give K^2.
    """
    model = compress_model(psi, sampler)
    k = sampler.k
    equations = k * k if psi.complex_rows else k * (k + 1) // 2
    return ValidityReport(
        valid=model.full_column_rank,
        rank=model.rank,
        min_singular=model.min_singular,
        feasible=equations >= model.n_params,
        condition_number=model.condition_number,
    )


# --- Sparse rulers --------------------------------------------------------


def is_sparse_ruler(marks, n: int) -> bool:
    """True when the pairwise differences of ``marks`` cover 0..n-1.

    The length and every mark must be integers (not bools).
    """
    marks = set(marks)
    if not (_is_int(n) and all(_is_int(m) for m in marks)):
        raise InvalidInputError(
            f"ruler length and marks must be integers, got n={n!r} and marks {tuple(marks)!r}"
        )
    marks = sorted(marks)
    if not marks:
        return False
    if marks[0] < 0 or marks[-1] >= n:
        raise InvalidInputError("marks must lie in [0, n-1]")
    diffs = {b - a for i, a in enumerate(marks) for b in marks[i:]}
    return all(d in diffs for d in range(n))


def minimal_sparse_ruler(n: int, search_limit: int = 64) -> tuple[int, ...]:
    """Smallest mark set whose differences cover 0..n-1, by exact search.

    Cardinalities are tried upward from the counting bound k(k-1)/2 >= n-1.
    For each k, every ruler with k marks is enumerated and the
    lexicographically smallest is returned. The search branches on the
    longest distance D not yet covered: some pair (a, a+D) must join the
    ruler, so each of the n-D pairs is tried. Marks and covered distances
    are bit masks, and a branch is cut when the uncovered count exceeds
    what the remaining marks can add: the largest single-position gains
    plus the differences among the new marks themselves. A ruler and its
    mirror image x -> n-1-x cover the same distances, so a mark set is
    expanded only once for both orientations, and a branch is dropped
    once no completion of either orientation can be lexicographically
    smaller than the best ruler found. Beyond ``search_limit`` the
    combinatorial search is refused. The length must be an integer (not a
    bool). The arguments are checked on every call, and the marks are
    searched once per n in a process: later calls return the stored tuple.
    """
    if not _is_int(n):
        raise InvalidInputError(f"ruler length must be an integer, got {n!r}")
    if n < 2:
        raise InvalidInputError("need n >= 2")
    if n > search_limit:
        raise CapabilityError(
            f"minimal ruler search capped at n={search_limit}; "
            "check a known set with is_sparse_ruler instead"
        )
    return _search_ruler(int(n))


@functools.cache
def _search_ruler(n: int) -> tuple[int, ...]:
    """The marks :func:`minimal_sparse_ruler` returns, for a checked n."""
    full = (1 << n) - 1
    top = n - 1
    ends = 1 | (1 << top)  # every ruler holds 0 and n-1, the only pair at distance n-1

    def smaller(a: int, b: int) -> bool:
        """Whether mark set ``a`` is lexicographically smaller than ``b`` of
        the same size: it holds the lowest element of their symmetric difference."""
        diff = a ^ b
        return bool(diff & -diff & a)

    def smallest_completion(marks: int, rem: int) -> int:
        """The lexicographically smallest superset of ``marks`` with ``rem``
        more marks: the one that fills the lowest free positions."""
        free = full & ~marks
        for _ in range(rem):
            low = free & -free
            marks |= low
            free ^= low
        return marks

    # smallest k with k(k-1)/2 >= n-1 distinct positive differences
    k = 2
    while k * (k - 1) // 2 < n - 1:
        k += 1

    while True:
        best = 0  # mask of the smallest ruler found so far; 0 while none
        seen: set[int] = set()
        # depth-first over (marks, rev, covered, rem): ``marks`` has bit x set
        # for each mark x and ``rev`` bit n-1-x, so the distances from position
        # x to every mark are (marks >> x) | (rev >> (n-1-x))
        stack = [(ends, ends, ends, k - 2)]  # 0 and n-1 cover distances 0 and n-1
        while stack:
            marks, rev, covered, rem = stack.pop()
            if covered == full:
                ruler = marks if smaller(marks, rev) else rev
                if not best or smaller(ruler, best):
                    best = ruler
                continue
            if rem == 0:
                continue
            uncovered = full & ~covered
            need = uncovered.bit_count()
            among_new = rem * (rem - 1) // 2
            if need > rem * marks.bit_count() + among_new:
                continue
            if best and not (
                smaller(smallest_completion(marks, rem), best)
                or smaller(smallest_completion(rev, rem), best)
            ):
                continue
            # with one mark left the children are leaves: remembering the set
            # and bounding its gains would cost more than they save
            if rem > 1:
                key = min(marks, rev)
                if key in seen:
                    continue
                seen.add(key)
                gains = sorted(
                    (((marks >> x) | (rev >> (top - x))) & uncovered).bit_count()
                    for x in range(n)
                    if not marks >> x & 1
                )
                if need > sum(gains[-rem:]) + among_new:
                    continue
            d = uncovered.bit_length() - 1
            for a in reversed(range(n - d)):  # the stack pops the lowest a first
                m, r, c, left = marks, rev, covered, rem
                for x in (a, a + d):
                    if not m >> x & 1:
                        c |= (m >> x) | (r >> (top - x)) | 1
                        m |= 1 << x
                        r |= 1 << (top - x)
                        left -= 1
                if left >= 0:
                    stack.append((m, r, c, left))
        if best:
            return tuple(x for x in range(n) if best >> x & 1)
        k += 1
