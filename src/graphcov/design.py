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
every candidate exactly. No candidate's rows are stored: row (j, s) of
the model is ``conj(u_j) * u_s`` for basis rows u (times the map, for a
mapped model), so every product of a candidate's rows with a matrix is a
GEMM of the candidates' basis rows against a factor built from the
picks' basis rows (:meth:`~graphcov.models.CovarianceModel.pair_products`).
On a spectral model a candidate keeps the small Gram of its rows against
the inverse loaded Gram, and a pick, a rank-r update of the loaded Gram,
downdates every such Gram by the Woodbury identity with one such GEMM:
the incremental update of fast greedy MAP inference for determinantal
point processes (Chen, Zhang & Zhou, NeurIPS 2018), in blocks. A step
costs about 2 N r^2 M flops for r rows per candidate. A moving-average
model, with its few parameters, whitens the rows against a fresh
Cholesky factor each step instead (see :func:`greedy_design`). For
circulant shift operators the problem has a closed combinatorial answer:
node sets whose pairwise differences cover 0..N-1 (sparse rulers) are
valid, and minimal rulers give the best compression.
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
# Longest ruler minimal_sparse_ruler searches; the exact search time grows
# steeply with the length.
_RULER_SEARCH_CAP = 64


@dataclass(frozen=True)
class DesignProblem:
    """Inputs of a greedy log-det design run.

    ``psi`` is the uncompressed model, held by its factors; ``k`` the node
    budget, an integer in 1..N. The diagonal loading is
    :func:`default_epsilon` of the model. Every column of the model is
    Hermitian, so its pair rows (a,b) and (b,a) are conjugate, which the
    greedy relies on.
    """

    psi: CovarianceModel
    k: int

    def __post_init__(self):
        if not isinstance(self.psi, CovarianceModel):
            raise InvalidInputError("psi must be a CovarianceModel from build_psi_spectral or build_psi_ma")
        n = self.psi.n_nodes
        if not _is_int(self.k):
            raise InvalidInputError(f"K must be an integer, got {self.k!r}")
        if not (1 <= self.k <= n):
            raise InvalidInputError(f"need 1 <= K <= {n}, got {self.k}")

    @property
    def n_nodes(self) -> int:
        return self.psi.n_nodes


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


def _fold(pairs: np.ndarray, parts: int) -> np.ndarray:
    """Folded real rows from pair rows, or from their products: ``sqrt(2)``
    times the real part, and with two parts the imaginary part after it,
    pick by pick along the second to last axis."""
    if parts == 1:
        return np.sqrt(2.0) * np.real(pairs)
    folded = np.stack([pairs.real, pairs.imag], axis=-2)
    return np.sqrt(2.0) * folded.reshape(*pairs.shape[:-2], -1, pairs.shape[-1])


def _products(psi: CovarianceModel, parts: int, picks, nodes, diagonal, w) -> np.ndarray:
    """``Z_s w`` for every node s, len(nodes) x r x c: the products of its
    folded rows, its self-pair row ``diagonal`` and its rows with
    ``picks``, with a real w, M x c or one per node. The picks go in
    chunks of at most ``_BLOCK_ROWS / c``, which bounds a shared w's
    factor by a block."""
    head = (diagonal @ w)[:, None] if w.ndim == 2 else diagonal[:, None, :] @ w
    per_chunk = max(1, _BLOCK_ROWS // w.shape[-1])
    pairs = (psi.pair_products(picks[lo : lo + per_chunk], nodes, w) for lo in range(0, len(picks), per_chunk))
    return np.concatenate([head, *(_fold(p, parts) for p in pairs)], axis=1)


def greedy_design(problem: DesignProblem) -> DesignResult:
    """Greedy log-det sampler design: K augmentation steps, each of which
    scores every remaining candidate exactly.

    Scores within ``1e-9 * |best|`` of the best are tied, and ties go to
    the lowest node index. The running sums of the picked gains, one per
    step, are returned alongside the sampler.

    The greedy runs on folded real rows. Pair rows (j,s) and (s,j) of the
    model are conjugate, so together they add ``2(a^T a + b^T b)`` to the
    Gram, with ``z = a + ib``. A candidate s therefore brings the real
    rows ``Re z_ss`` and, per selected j, ``sqrt(2) Re z_js`` and (complex
    rows only) ``sqrt(2) Im z_js``. With T the Gram of the selected rows,
    the gain of s is ``logdet(I + Z_s C Z_s^T)``, with
    ``C = (eps I + T)^{-1}``. No row is stored. A product ``Z_s w`` with a
    real w is ``Re z_ss w`` and the parts of ``z_js w``, which
    :meth:`~graphcov.models.CovarianceModel.pair_products` gives for every
    live candidate as one GEMM of their basis rows against
    ``[diag(conj(u_j)) w]_j``, an N x t c factor for t picks and a w of c
    columns (one complex GEMM gives both parts on a complex basis).

    On a spectral model, candidate s keeps ``I + G_s``, with its small
    Gram ``G_s = Z_s C Z_s^T``, r x r for its r rows, and its gain comes
    from one batched Cholesky. A pick with rows ``Z_p`` and
    ``L L^T = I + G_p`` adds ``Z_p^T Z_p`` to T, so by the Woodbury
    identity C loses ``bw bw^T`` with ``bw = C Z_p^T L^{-T}`` (M x r), and
    every ``G_s`` loses ``(Z_s bw)(Z_s bw)^T``: one product with a shared
    w. The rows z the pick adds to each candidate get the Gram entries
    ``Z_s C z``: ``z C`` is one GEMM of the pick's rows with the
    candidates, ``rows(pick, s)``, against C, and ``Z_s (z C)^T`` one
    product with a per-node w. A step costs about ``2 N r^2 M`` flops for
    the downdate (twice that on a complex basis, whose rows are formed
    from two real parts each), ``N r^3`` for the small Grams and
    ``2 N M^2`` per appended row. The spectral Gram is at most the full
    one, the identity, so ``cond(eps I + T)`` stays below
    ``(1 + eps) / eps``, which bounds the digits the downdates lose.

    A mapped model's Gram has no such bound: its Vandermonde columns grow
    as powers of the eigenvalues, and downdated Grams lose digits in
    proportion to ``cond(eps I + T)``. Its M is small, so each step
    instead whitens every candidate's rows against a fresh Cholesky
    factor, ``Y_s = Z_s F^{-T}`` with ``F F^T = eps I + T``, the product
    with ``w = F^{-T}``, and scores ``logdet(I + Y_s Y_s^T)``, or the equal
    ``logdet(I + Y_s^T Y_s)`` once r exceeds M: about ``4 N r M^2`` flops
    a step.

    Picks are swap-removed. Each pass over the candidates runs in blocks,
    whose working arrays hold at most ``_BLOCK_ROWS`` x N floats. Besides
    them the greedy holds the Grams, N r^2 floats, C and the candidates'
    self-pair rows, M^2 and N M floats, and no array grows with N K M.
    """
    psi = problem.psi
    n, m, k = problem.n_nodes, psi.n_params, problem.k
    eps = default_epsilon(psi)
    parts = 2 if psi.complex_rows else 1  # real rows per pair: Re, and Im for complex rows
    spectral = psi.param_map is None
    candidates = np.arange(n)
    diagonals = np.empty((n, m))  # the self-pair rows Re z_ss, swap-removed with the candidates
    for start in range(0, n, _BLOCK_ROWS):
        nodes = candidates[start : start + _BLOCK_ROWS]
        diagonals[start : start + _BLOCK_ROWS] = np.real(psi.rows(nodes, nodes))
    if spectral:
        width = 1 + parts * (k - 1)
        grams = np.empty((n, width, width))  # I + G_s, loaded with the identity once
        grams[:, 0, 0] = 1.0 + np.einsum("sm,sm->s", diagonals, diagonals) / eps
        c = np.eye(m) / eps  # (eps I + T)^{-1}
    else:
        loaded = eps * np.eye(m)  # eps I + T
    order = np.empty(k, dtype=int)  # the picks, in the order made
    trace = []
    total = 0.0
    for step in range(k):
        live = n - step
        r = 1 + parts * step
        picks = order[:step]  # before this step's pick
        # candidates per pass: each pass's arrays hold at most _BLOCK_ROWS x N floats
        per_block = max(1, _BLOCK_ROWS * n // max(n, r * (r if spectral else m)))
        if not spectral:
            white = np.linalg.inv(np.linalg.cholesky(loaded)).T  # F^{-T}
        gains = np.empty(live)
        for start in range(0, live, per_block):
            stop = min(start + per_block, live)
            if spectral:
                factors = np.linalg.cholesky(grams[start:stop, :r, :r])
            else:
                nodes = candidates[start:stop]
                y = _products(psi, parts, picks, nodes, diagonals[start:stop], white)
                small = y.transpose(0, 2, 1) @ y if r > m else y @ y.transpose(0, 2, 1)
                factors = np.linalg.cholesky(small + np.eye(small.shape[-1]))
            gains[start:stop] = 2.0 * np.sum(np.log(np.diagonal(factors, axis1=1, axis2=2)), axis=1)
        best = _lowest_tied(gains, candidates[:live])
        pick = int(candidates[best])
        order[step] = pick
        total += float(gains[best])
        trace.append(total)
        if step == k - 1:
            break
        # Z_p: the pick's r rows, its self-pair row and its rows with the earlier picks
        rows = np.concatenate([diagonals[best][None], _fold(psi.rows(picks, pick), parts)])
        live -= 1
        candidates[best] = candidates[live]
        diagonals[best] = diagonals[live]
        if not spectral:
            loaded += rows.T @ rows
            continue
        # L, from the last block's factors when the pick lies in it
        root = factors[best - start] if best >= start else np.linalg.cholesky(grams[best, :r, :r])
        bw = (np.linalg.inv(root) @ (rows @ c)).T  # C Z_p^T L^{-T}
        del factors, root  # freed before the pass over the candidates
        c -= bw @ bw.T
        grams[best, :r, :r] = grams[live, :r, :r]
        grown = r + parts
        for start in range(0, live, per_block):
            stop = min(start + per_block, live)
            nodes, diagonal = candidates[start:stop], diagonals[start:stop]
            zbw = _products(psi, parts, picks, nodes, diagonal, bw)  # Z_s bw
            grams[start:stop, :r, :r] -= zbw @ zbw.transpose(0, 2, 1)
            zc = _fold(psi.rows(pick, nodes)[:, None], parts).reshape(-1, m) @ c  # z C, z the new rows
            zc = zc.reshape(-1, parts, m).transpose(0, 2, 1)
            entries = _products(psi, parts, order[: step + 1], nodes, diagonal, zc)  # Z_s C z
            for q in range(parts):
                entries[:, r + q, q] += 1.0  # the identity's entries on the new rows
            grams[start:stop, :grown, r:grown] = entries
            grams[start:stop, r:grown, :grown] = entries.transpose(0, 2, 1)
    return DesignResult(
        sampler=Subsampler(n, tuple(order.tolist())), objective_trace=tuple(trace)
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


def minimal_sparse_ruler(n: int) -> tuple[int, ...]:
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
    smaller than the best ruler found. Beyond n = 64 the combinatorial
    search is refused. The length must be an integer (not a bool). It is
    checked on every call, and the marks are searched once per n in a
    process: later calls return the stored tuple.
    """
    if not _is_int(n):
        raise InvalidInputError(f"ruler length must be an integer, got {n!r}")
    if n < 2:
        raise InvalidInputError("need n >= 2")
    if n > _RULER_SEARCH_CAP:
        raise CapabilityError(
            f"minimal ruler search capped at n={_RULER_SEARCH_CAP}; "
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
