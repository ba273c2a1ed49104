"""Parameter recovery from compressed covariances.

Every estimator is least squares on ``r_y = G theta`` with real
parameters. Ordinary least squares is one product with the pseudo-inverse
the model keeps from its single SVD. The nonnegative variant enforces,
on a spectral model, the sign a power spectrum carries by definition. It
runs on the M x M system ``Sigma V^T`` of that SVD, which has the same
minimiser as the real-stacked K^2-row system, by the Lawson-Hanson
active-set method in its normal-equation form, started from the clipped
LS estimate. A moving-average model's parameters are the coefficients
``b = h * h``, which may be negative, so the experiment and the CLI
refuse the nonnegative variant there. One-step
weighted least squares solves the Gaussian likelihood stationarity
equations with the weight built from the sample covariance itself: its
normal matrix is the weighted Gram ``Re(G_w^H G_w)`` of the whitened
columns, solved by Cholesky. The Fisher information is the same Gram,
built from the true covariance and scaled by ``nu N_s``, with nu = 1/2
because the data are real; it gives the Cramer-Rao floor the unweighted
estimator does not reach.

For a spectral model column j is ``conj(u_j) kron u_j`` for a sampled
basis row set U_S, so with ``R = L L^H`` and ``B = L^{-1} U_S`` the Gram
is ``|B^H B|^2`` (elementwise) and the right-hand side is
``Re diag(B^H L^{-1} R_hat L^{-H} B)``: K x N and N x N products, the
covariance-matching weighting of Ottersten, Stoica and Roy (COMET, 1998).
A parametric model is the spectral model times its real map T, such as
the Vandermonde matrix of a moving-average model, so its Gram is
``T^T |B^H B|^2 T`` and its right-hand side ``T^T`` times the spectral
one: every weighted estimate takes this one path, and a model without
sampled basis rows (autoregressive) is refused. The Gram is
:func:`~graphcov.models.pair_gram`, the rule the design's unweighted
Gram uses too. WLS solves a stack of trials with the same arrays given a
leading trial axis, and a single trial is a stack of one.

Every estimator, the Fisher information and the WLS stationarity check
run on numpy alone: their linear algebra runs in numpy's BLAS, which
``run_experiment`` and the CLI pin to one thread (``graphcov._blas``).
graphcov imports no scipy module, so scipy's own OpenBLAS and its thread
pool never load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidInputError,
    NumericalError,
    RankDeficiencyError,
    SingularityError,
)
from .models import _BLOCK_ROWS, ObservationModel, numerical_rank, pair_gram, unvec
from .stationary import CovarianceMatrix

LS = "ls"
NNLS = "nnls"
WLS = "wls"

# nu of the Fisher information: SnapshotMatrix and sample_covariance cast data to float.
NU_REAL = 0.5

# nnls_estimate gives up after NNLS_CAP * M^2 solves on the passive set.
NNLS_CAP = 10


@dataclass(frozen=True)
class EstimationResult:
    """Parameter estimate of one trial, or one row per trial for a stacked call.

    ``residual_norm`` is ``||G theta - r||`` and ``condition_number`` the
    condition number of the system solved: the model's for LS and NNLS,
    the whitened system's for WLS (from ``normal``, its weighted normal
    matrix). Neither is computed until it is read, since a study reads
    neither; for a stack each is one value per trial, NaN for a trial
    whose solve failed.
    """

    theta: np.ndarray
    method: str
    model: ObservationModel = field(repr=False, compare=False)
    r: np.ndarray = field(repr=False, compare=False)
    normal: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def residual_norm(self) -> float | np.ndarray:
        def norm(theta, r):
            return float(np.linalg.norm(self.model.matrix @ theta - r))

        if self.theta.ndim == 1:
            return norm(self.theta, self.r)
        return np.array([norm(theta, r) for theta, r in zip(self.theta, self.r)])

    @cached_property
    def condition_number(self) -> float | np.ndarray:
        if self.normal is None:
            return self.model.condition_number
        if self.normal.ndim == 2:
            return _whitened_condition(self.normal)
        return np.array([_whitened_condition(normal) for normal in self.normal])


def _whitened_condition(normal: np.ndarray) -> float:
    """``sqrt(lambda_max / lambda_min)`` of a weighted normal matrix; NaN for a failed trial's."""
    if not np.all(np.isfinite(normal)):
        return np.nan
    eigs = np.linalg.eigvalsh(normal)
    return float(np.sqrt(eigs[-1] / eigs[0])) if eigs[0] > 0.0 else np.inf


@dataclass(frozen=True)
class FisherInfo:
    """Fisher information of the covariance-model parameters.

    ``crb`` is the inverse (pseudo-inverse when singular, flagged by
    ``crb_is_pinv``).
    """

    matrix: np.ndarray
    n_snapshots: int
    crb: np.ndarray
    crb_is_pinv: bool


def _require_full_rank(model: ObservationModel) -> None:
    if not model.full_column_rank:
        raise RankDeficiencyError(
            f"model rank {model.rank} < {model.n_params} parameters", rank=model.rank
        )


def _require_one(cov: CovarianceMatrix) -> CovarianceMatrix:
    """The covariance, refused when it is a stack of them."""
    if cov.matrix.ndim != 2:
        raise InvalidInputError(f"expected one covariance, got a stack of shape {cov.matrix.shape}")
    return cov


def _require_vector(model: ObservationModel, r_y, stack: bool = False) -> np.ndarray:
    """The observation as a finite vector of the model's length; the model itself is finite.

    With ``stack``, a T x K^2 array is kept as T observations, one per row.
    """
    r = np.asarray(r_y)
    r = r if stack and r.ndim == 2 else r.ravel()
    if r.shape[-1] != model.matrix.shape[0]:
        raise InvalidInputError(
            f"observation vector has length {r.shape[-1]}, model expects {model.matrix.shape[0]}"
        )
    if not np.all(np.isfinite(r)):
        raise InvalidInputError("non-finite values in estimation input")
    return r


def ls_estimate(model: ObservationModel, r_y) -> EstimationResult:
    """Least-squares parameter estimate ``argmin ||r_y - G theta||``.

    Complex models with real parameters are solved on the real-stacked
    system, so each solve is one product with the pseudo-inverse the
    model keeps from its SVD. Requires a full-column-rank model; raises
    RankDeficiencyError (carrying the numerical rank) otherwise.
    """
    r = _require_vector(model, r_y)
    _require_full_rank(model)
    return EstimationResult(model.pinv @ model.stack(r), LS, model, r)


def nnls_estimate(model: ObservationModel, r_y) -> EstimationResult:
    """Least squares with elementwise nonnegativity on the parameters.

    The constraint is the sign of a power spectrum only for a spectral
    model, whose parameters are the spectrum. A moving-average model's
    parameters are the expansion coefficients ``b = h * h``: a filter with
    a negative tap gives a negative coefficient and a nonnegative
    spectrum. ``experiment.estimate`` and the CLI refuse nnls there.

    For the full-rank model's SVD ``U Sigma V^T`` of the real-stacked
    matrix, ``||U Sigma V^T theta - b||^2`` is ``||R (theta - theta_LS)||^2``
    plus a constant, with ``R = Sigma V^T`` (``model.reduced``), so the
    problem is the M x M pair ``(R, t = R theta_LS)``. A least-squares
    estimate with every entry positive meets the optimality conditions and
    is returned as it is; this is the exact-covariance case.

    Otherwise the Lawson-Hanson active-set method (1974) runs in its
    normal-equation form (Bro and De Jong, 1997) on ``H = R^T R`` and
    ``f = R^T t``. It starts from the clipped LS estimate, with the
    positive entries as the passive set P. An inner step solves
    ``H[P, P] s = f[P]``; while some entry of s is not positive it moves
    from theta toward s until an entry reaches zero, and drops that entry
    from P. An outer step adds to P the zero entry with the largest
    ``w = f - H theta``. The solver stops when every zero entry has
    ``w_j <= 10 M eps ||H||_1 max|theta_LS|``, the optimality tolerance.
    The final solve on P gets one correction ``H[P, P]^{-1} R_P^T (t - R_P
    theta_P)``, which brings it from the accuracy of the normal equations,
    ``cond(R)^2 eps``, to that of R. More than ``NNLS_CAP * M^2`` solves
    raise ConvergenceError.
    """
    r = _require_vector(model, r_y)
    _require_full_rank(model)
    theta_ls = model.pinv @ model.stack(r)
    if theta_ls.min() > 0.0:
        theta = theta_ls
    else:
        theta = _lawson_hanson(model.reduced, model.reduced @ theta_ls, theta_ls)
    return EstimationResult(theta, NNLS, model, r)


def _lawson_hanson(reduced: np.ndarray, target: np.ndarray, theta_ls: np.ndarray) -> np.ndarray:
    """``argmin ||reduced theta - target||`` over theta >= 0, as :func:`nnls_estimate` states it."""
    h = reduced.T @ reduced
    f = reduced.T @ target
    m = f.size
    tol = 10 * m * np.finfo(float).eps * np.abs(h).sum(axis=0).max() * np.abs(theta_ls).max()
    passive = theta_ls > 0.0
    theta = np.where(passive, theta_ls, 0.0)
    solves = 0
    while True:
        while True:  # theta is feasible and positive on P
            if solves == NNLS_CAP * m * m:
                raise ConvergenceError(f"nonnegative solver exhausted its {solves} solves")
            solves += 1
            idx = np.flatnonzero(passive)
            h_p = h[np.ix_(idx, idx)]
            s = np.zeros(m)
            s[idx] = np.linalg.solve(h_p, f[idx])
            if np.all(s[idx] > 0.0):
                break
            out = idx[s[idx] <= 0.0]
            steps = theta[out] / (theta[out] - s[out])
            theta = theta + steps.min() * (s - theta)
            passive[out[np.argmin(steps)]] = False
            passive &= theta > 0.0
            theta[~passive] = 0.0
        theta = s
        w = f - h @ theta
        zero = np.flatnonzero(~passive)
        if zero.size == 0 or w[zero].max() <= tol:
            break
        passive[zero[np.argmax(w[zero])]] = True
    if idx.size:
        r_p = reduced[:, idx]
        theta[idx] += np.linalg.solve(h_p, r_p.T @ (target - r_p @ theta[idx]))
    return np.maximum(theta, 0.0)


def trial_blocks(n_trials: int, n: int) -> list[range]:
    """The trials ``0 .. n_trials - 1`` in blocks of ``max(1, _BLOCK_ROWS // n)``.

    A block's stacked arrays of N-wide rows, such as the whitened basis
    rows of WLS (K x N per trial, K <= N), then hold at most
    ``_BLOCK_ROWS`` x N floats: the rule the greedy design and
    ``compress_model`` follow.
    """
    per_block = max(1, _BLOCK_ROWS // n)
    return [range(start, min(start + per_block, n_trials)) for start in range(0, n_trials, per_block)]


def _sampled_basis(model: ObservationModel) -> np.ndarray:
    """The model's sampled basis rows U_S; a model without them is refused."""
    if model.sampled_basis is None:
        raise InvalidInputError(
            f"weighted estimators need sampled basis rows; a model of kind {model.param_kind!r} has none"
        )
    return model.sampled_basis


def _regularized_cholesky(matrix: np.ndarray, min_eigenvalue) -> np.ndarray:
    """Lower Cholesky factor of each covariance of a stack, diagonally loaded where near-singular.

    ``min_eigenvalue`` holds each matrix's smallest eigenvalue. A matrix
    whose eigenvalue is below ``delta = 1e-8 tr(R) / K`` is loaded by delta.
    """
    k = matrix.shape[-1]
    delta = 1e-8 * np.real(np.trace(matrix, axis1=-2, axis2=-1)) / k
    if np.any(delta <= 0.0):
        raise SingularityError("covariance has nonpositive trace; cannot regularize")
    loaded = np.asarray(min_eigenvalue) < delta
    if np.any(loaded):
        matrix = matrix + (delta * loaded)[..., None, None] * np.eye(k)
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("covariance not positive definite") from exc


def _weighted_system(model: ObservationModel, chol: np.ndarray, r=None):
    """Weighted normal matrix and, given r, right-hand side, from ``B = L^{-1} U_S``.

    For ``R = L L^H`` the normal matrix of least squares weighted by
    ``R^{-T} kron R^{-1}``, which is never formed, has entries
    ``Re tr(R^{-1} X_i R^{-1} X_j^H)`` for the model columns ``vec(X_i)``.
    Spectral columns are ``u_j u_j^H``, which gives ``|B^H B|^2``
    (elementwise) and ``Re diag(B^H L^{-1} R_hat L^{-H} B)``; a parameter
    map T maps both by T. The normal matrix ``T^T |B^H B|^2 T`` is
    :func:`~graphcov.models.pair_gram` of B and T, the rule the design's
    unweighted Gram uses too. ``chol`` may be a stack of factors, with r
    one observation per factor; each gets its own system. A model without
    sampled basis rows is refused.
    """
    l_inv = np.linalg.inv(chol)
    b = l_inv @ _sampled_basis(model)
    t = model.param_map
    rhs = None
    if r is not None:
        r_w = l_inv @ unvec(r, chol.shape[-1]) @ np.swapaxes(l_inv.conj(), -2, -1)
        rhs = np.real(np.sum(b.conj() * (r_w @ b), axis=-2))
        rhs = rhs if t is None else rhs @ t
    return pair_gram(b, t), rhs


def _wls_solve(model: ObservationModel, r: np.ndarray, matrix: np.ndarray, min_eigenvalue):
    """Theta and weighted normal matrix of each trial of a stack, or the error of the first that fails."""
    normal, rhs = _weighted_system(model, _regularized_cholesky(matrix, min_eigenvalue), r)
    try:
        factor = np.linalg.cholesky(normal)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("weighted normal matrix is not positive definite") from exc
    half = np.linalg.solve(factor, rhs[..., None])
    return np.linalg.solve(np.swapaxes(factor, -2, -1), half)[..., 0], normal


def wls_estimate(model: ObservationModel, r_hat, cov_hat: CovarianceMatrix) -> EstimationResult:
    """One-step weighted least squares with the likelihood weighting.

    Minimizes ``||R^{-1/2} (unvec(r_hat - G theta)) R^{-1/2}||_F`` over
    real theta, i.e. least squares weighted by ``R^{-T} kron R^{-1}``,
    where R is the supplied (sample) covariance, diagonally loaded when
    near-singular. The normal matrix is the weighted Gram of the model
    columns, the Fisher information up to the factor ``nu N_s``, and the
    right-hand side is the same product with ``r_hat``. Both come from
    ``B = L^{-1} U_S``, with L the Cholesky factor of the loaded R and U_S
    the sampled basis rows: the normal matrix is ``T^T |B^H B|^2 T`` and
    the right-hand side ``T^T Re diag(B^H L^{-1} R_hat L^{-H} B)``, with T
    the model's parameter map (the identity for a spectral model), so no
    K^2 x M array is formed. It is solved by Cholesky, which makes the
    likelihood stationarity equations hold at the solution. A normal
    matrix that is not positive definite raises RankDeficiencyError, and
    a model without sampled basis rows (autoregressive) InvalidInputError.
    ``condition_number`` is ``sqrt(lambda_max / lambda_min)`` of the
    normal matrix, the condition number of the whitened system, computed
    when read. With fewer snapshots than observed nodes (N_s < K) the
    sample covariance is singular; its loading ``delta = 1e-8 tr(R) / K``
    puts a weight of about ``1/delta`` on its null space, which drives the
    estimate toward theta = 0.

    A stack of T trials, ``r_hat`` T x K^2 and ``cov_hat`` a stack of T
    covariances, is solved with the same arrays given a leading trial
    axis, in the blocks of :func:`trial_blocks`; a single trial is a stack
    of one. Where a block's factorization or loading fails, its trials are
    solved one at a time, and a trial that fails alone gets a NaN row of
    ``theta``, where a single-trial call raises.
    """
    stack = np.ndim(cov_hat.matrix) == 3
    r = _require_vector(model, r_hat, stack)
    k = cov_hat.k
    if k * k != r.shape[-1] or r.shape[:-1] != cov_hat.matrix.shape[:-2]:
        raise InvalidInputError(
            f"weight covariances {cov_hat.matrix.shape} do not match observations {r.shape}"
        )
    _require_full_rank(model)
    n = _sampled_basis(model).shape[1]
    matrix, min_eig = cov_hat.matrix, np.atleast_1d(cov_hat.min_eigenvalue)
    if not stack:
        theta, normal = _wls_solve(model, r[None], matrix[None], min_eig)
        return EstimationResult(theta[0], WLS, model, r, normal[0])
    m = model.n_params
    theta, normal = np.full((len(r), m), np.nan), np.full((len(r), m, m), np.nan)

    def solve(trials: slice) -> None:
        theta[trials], normal[trials] = _wls_solve(model, r[trials], matrix[trials], min_eig[trials])

    for block in trial_blocks(len(r), n):
        try:
            solve(slice(block.start, block.stop))
        except (NumericalError, np.linalg.LinAlgError):  # find the failing trials: each alone
            for t in block:
                try:
                    solve(slice(t, t + 1))
                except (NumericalError, np.linalg.LinAlgError):
                    pass  # its row stays NaN
    return EstimationResult(theta, WLS, model, r, normal)


def wls_stationarity_residual(
    model: ObservationModel,
    theta: np.ndarray,
    r_hat,
    cov_hat: CovarianceMatrix,
) -> float:
    """Max likelihood-equation residual ``|g_i^H C_w (G theta - r)|`` at theta.

    Uses the same regularized weight as :func:`wls_estimate`, so the WLS
    solution should drive this to numerical zero.
    """
    r = _require_vector(model, r_hat)
    k = _require_one(cov_hat).k
    chol = _regularized_cholesky(cov_hat.matrix, cov_hat.min_eigenvalue)
    misfit = unvec(model.matrix @ np.asarray(theta) - r, k)

    def solve(x):  # R^{-1} x, for R = L L^H
        return np.linalg.solve(chol.conj().T, np.linalg.solve(chol, x))

    weighted = solve(solve(misfit).conj().T).conj().T  # R^{-1} X R^{-1}
    weighted = NU_REAL * (cov_hat.n_snapshots or 1) * weighted.ravel(order="F")
    grad = model.matrix.conj().T @ weighted
    return float(np.abs(grad).max())


def fisher_info(model: ObservationModel, cov: CovarianceMatrix, n_snapshots: int) -> FisherInfo:
    """Fisher information ``F_ij = nu N_s tr(R^{-1} G_i R^{-1} G_j^H)``, nu = 1/2 for real data.

    ``G_i`` is column i of the model reshaped K x K: the weighted Gram
    that :func:`wls_estimate` solves, built from the true covariance and
    scaled by ``nu N_s``: ``nu N_s T^T |B^H B|^2 T`` with
    ``B = L^{-1} U_S``, L the Cholesky factor of R and T the model's
    parameter map (the identity for a spectral model), so only K x N and
    N x N factors are formed; a model without sampled basis rows is
    refused. F is symmetric, and one eigendecomposition ``F = V diag(lam) V^T``
    gives both its rank, by :func:`numerical_rank` on the descending
    eigenvalues, and the CRB ``V_r diag(1/lam_r) V_r^T`` over the r kept
    eigenpairs. That is ``F^{-1}`` at full rank; a singular F sets
    ``crb_is_pinv``, and every eigenvalue the rank counts as zero is
    zeroed, not inverted. A covariance that is not positive definite, by
    its smallest eigenvalue or by a failed Cholesky factorisation (a
    barely positive one), is refused with :class:`SingularityError`.
    """
    if n_snapshots < 1:
        raise InvalidInputError("n_snapshots must be >= 1")
    k = _require_one(cov).k
    if k * k != model.matrix.shape[0]:
        raise InvalidInputError(f"covariance is {k}x{k} but model has {model.matrix.shape[0]} rows")
    if cov.min_eigenvalue <= 0.0:
        raise SingularityError("covariance must be positive definite for the Fisher information")
    try:
        factor = np.linalg.cholesky(cov.matrix)
    except np.linalg.LinAlgError:
        raise SingularityError(
            f"covariance is too close to singular for the Fisher information: its Cholesky factorisation "
            f"failed (smallest eigenvalue {cov.min_eigenvalue:.3g})"
        ) from None
    fim, _ = _weighted_system(model, factor)
    fim *= NU_REAL * n_snapshots
    lam, vecs = np.linalg.eigh(fim)  # ascending
    rank = numerical_rank(lam[::-1], fim.shape)
    kept = slice(lam.size - rank, None)
    crb = (vecs[:, kept] / lam[kept]) @ vecs[:, kept].T
    crb = 0.5 * (crb + crb.T)
    return FisherInfo(
        matrix=fim, n_snapshots=n_snapshots, crb=crb, crb_is_pinv=rank < fim.shape[0]
    )


NMSE_FLOOR_DB = -300.0


def nmse_db(sse: float, count: int, norm: float) -> float:
    """``10 log10(sse / (count ||theta||))`` floored at NMSE_FLOOR_DB.

    ``sse`` sums the squared errors of ``count`` estimates of a parameter
    vector of 2-norm ``norm``. This is the one NMSE rule: Monte-Carlo
    scores and the expected error at the CRB both go through it. A norm
    that is not positive and finite, or a count below 1, is refused.
    """
    if not (np.isfinite(norm) and norm > 0.0):
        raise InvalidInputError(f"true parameter norm must be positive and finite, got {norm}")
    if count < 1:
        raise InvalidInputError("need at least one estimate")
    ratio = sse / (count * norm)
    if ratio <= 10.0 ** (NMSE_FLOOR_DB / 10.0):
        return NMSE_FLOOR_DB
    return float(max(10.0 * np.log10(ratio), NMSE_FLOOR_DB))
