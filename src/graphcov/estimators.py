"""Parameter recovery from compressed covariances.

Ordinary least squares matches the vectorized sample covariance to the
linear model; the nonnegative variant enforces the sign constraint a
power spectrum carries by definition; one-step weighted least squares
solves the Gaussian likelihood stationarity equations with the weight
built from the sample covariance itself. The Fisher information gives
the Cramer-Rao floor the unweighted estimator does not reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import (
    ConvergenceError,
    InvalidInputError,
    RankDeficiencyError,
    SingularityError,
)
from .models import ObservationModel, numerical_rank, unvec
from .stationary import CovarianceMatrix

LS = "ls"
NNLS = "nnls"
WLS = "wls"

# 0.5 for real-valued data, 1.0 for circular complex data.
NU_REAL = 0.5
NU_COMPLEX = 1.0


@dataclass(frozen=True)
class EstimationResult:
    theta: np.ndarray
    residual_norm: float
    method: str
    condition_number: float


@dataclass(frozen=True)
class FisherInfo:
    """Fisher information of the covariance-model parameters.

    ``crb`` is the inverse (pseudo-inverse when singular, flagged by
    ``crb_is_pinv``).
    """

    matrix: np.ndarray
    nu: float
    n_snapshots: int
    crb: np.ndarray
    crb_is_pinv: bool


def _check_finite(*arrays) -> None:
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("non-finite values in estimation input")


def _real_stacked(g: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stack real and imaginary parts so a complex model yields real parameters."""
    if np.iscomplexobj(g) or np.iscomplexobj(r):
        a = np.vstack([np.real(g), np.imag(g)])
        b = np.concatenate([np.real(r), np.imag(r)])
        return a, b
    return np.asarray(g, dtype=float), np.asarray(r, dtype=float)


def _solve_ls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    rcond = max(a.shape) * np.finfo(float).eps
    theta, _, rank, svals = np.linalg.lstsq(a, b, rcond=rcond)
    return theta, int(rank), svals


def _condition(svals: np.ndarray, rank: int) -> float:
    if rank == 0 or svals.size == 0:
        return np.inf
    return float(svals[0] / svals[rank - 1])


def _require_vector(model: ObservationModel, r_y) -> np.ndarray:
    r = np.asarray(r_y).ravel()
    if r.size != model.matrix.shape[0]:
        raise InvalidInputError(
            f"observation vector has length {r.size}, model expects {model.matrix.shape[0]}"
        )
    return r


def ls_estimate(model: ObservationModel, r_y) -> EstimationResult:
    """Least-squares parameter estimate ``argmin ||r_y - G theta||``.

    Complex models with real parameters are solved on the real-stacked
    system, whose SVD pseudo-inverse the model keeps, so every solve after
    the first is one matrix-vector product. Requires a full-column-rank
    model; raises RankDeficiencyError (carrying the numerical rank)
    otherwise.
    """
    r = _require_vector(model, r_y)
    _check_finite(model.matrix, r)
    if not model.full_column_rank:
        raise RankDeficiencyError(
            f"model rank {model.rank} < {model.n_params} parameters", rank=model.rank
        )
    factor = model.stacked
    if factor.rank < model.n_params:
        raise RankDeficiencyError(
            f"stacked system rank {factor.rank} < {model.n_params} parameters", rank=factor.rank
        )
    theta = factor.pinv @ factor.stack(r)
    residual = float(np.linalg.norm(model.matrix @ theta - r))
    return EstimationResult(theta, residual, LS, _condition(factor.singular_values, factor.rank))


def nnls_estimate(model: ObservationModel, r_y) -> EstimationResult:
    """Least squares with elementwise nonnegativity on the parameters.

    Backed by the Lawson-Hanson active-set solver with an iteration cap
    of 10 * M^2; exhausting the cap raises ConvergenceError.
    """
    r = _require_vector(model, r_y)
    _check_finite(model.matrix, r)
    if not model.full_column_rank:
        raise RankDeficiencyError(
            f"model rank {model.rank} < {model.n_params} parameters", rank=model.rank
        )
    factor = model.stacked
    m = model.n_params
    try:
        theta, _ = scipy.optimize.nnls(factor.matrix, factor.stack(r), maxiter=10 * m * m)
    except RuntimeError as exc:
        raise ConvergenceError(f"nonnegative solver did not converge: {exc}") from exc
    residual = float(np.linalg.norm(model.matrix @ theta - r))
    return EstimationResult(theta, residual, NNLS, _condition(factor.singular_values, factor.rank))


def _regularized_cholesky(cov: CovarianceMatrix) -> np.ndarray:
    """Lower Cholesky factor of the covariance, diagonally loaded if near-singular."""
    r = np.asarray(cov.matrix)
    k = r.shape[0]
    delta = 1e-8 * float(np.real(np.trace(r))) / k
    if delta <= 0.0:
        raise SingularityError("covariance has nonpositive trace; cannot regularize")
    min_eig = float(np.linalg.eigvalsh(r).min())
    if min_eig < delta:
        r = r + delta * np.eye(k)
    try:
        return np.linalg.cholesky(r)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("covariance not positive definite") from exc


def _whiten_columns(g: np.ndarray, chol: np.ndarray, k: int) -> np.ndarray:
    """Map each column ``vec(X)`` to ``vec(L^{-1} X L^{-H})``.

    All M columns are whitened together: two triangular solves on the
    K x (K M) matrix ``[X_1 ... X_M]``, with every K x K block
    conjugate-transposed in between.
    """
    m = g.shape[1]
    blocks = g.reshape(k, k, m, order="F").transpose(0, 2, 1)  # X_i[p, q] at [p, i, q]
    half = scipy.linalg.solve_triangular(chol, blocks.reshape(k, m * k), lower=True)
    half_h = half.reshape(k, m, k).conj().transpose(2, 1, 0)  # (L^{-1} X_i)^H
    full_h = scipy.linalg.solve_triangular(chol, half_h.reshape(k, m * k), lower=True)
    full = full_h.reshape(k, m, k).conj().transpose(2, 0, 1)  # back to [p, q, i]
    return full.reshape(k * k, m, order="F")


def wls_estimate(
    model: ObservationModel,
    r_hat,
    cov_hat: CovarianceMatrix,
    nu: float = NU_REAL,
) -> EstimationResult:
    """One-step weighted least squares with the likelihood weighting.

    The weight ``nu * N_s * (R^{-T} kron R^{-1})`` is applied through the
    identity ``W vec(X) = nu N_s vec(R^{-1} X R^{-1})``, never forming the
    K^2 x K^2 matrix; R comes from the supplied (sample) covariance,
    regularized by diagonal loading when near-singular. Solving the
    whitened system makes the likelihood stationarity equations hold at
    the solution.
    """
    r = _require_vector(model, r_hat)
    _check_finite(model.matrix, r)
    k = cov_hat.k
    if k * k != r.size:
        raise InvalidInputError(f"weight covariance is {k}x{k} but observation has {r.size} entries")
    if not model.full_column_rank:
        raise RankDeficiencyError(
            f"model rank {model.rank} < {model.n_params} parameters", rank=model.rank
        )
    chol = _regularized_cholesky(cov_hat)
    scale = np.sqrt(nu * (cov_hat.n_snapshots or 1))
    g_w = scale * _whiten_columns(model.matrix, chol, k)
    r_w = scale * _whiten_columns(r.reshape(-1, 1), chol, k)[:, 0]
    a, b = _real_stacked(g_w, r_w)
    theta, rank, svals = _solve_ls(a, b)
    if rank < model.n_params:
        raise RankDeficiencyError(
            f"weighted system rank {rank} < {model.n_params} parameters", rank=rank
        )
    residual = float(np.linalg.norm(model.matrix @ theta - r))
    return EstimationResult(theta, residual, WLS, _condition(svals, rank))


def wls_stationarity_residual(
    model: ObservationModel,
    theta: np.ndarray,
    r_hat,
    cov_hat: CovarianceMatrix,
    nu: float = NU_REAL,
) -> float:
    """Max likelihood-equation residual ``|g_i^H C_w (G theta - r)|`` at theta.

    Uses the same regularized weight as :func:`wls_estimate`, so the WLS
    solution should drive this to numerical zero.
    """
    r = _require_vector(model, r_hat)
    k = cov_hat.k
    chol = _regularized_cholesky(cov_hat)
    misfit = unvec(model.matrix @ np.asarray(theta) - r, k)
    half = scipy.linalg.cho_solve((chol, True), misfit)  # R^{-1} X
    weighted = scipy.linalg.cho_solve((chol, True), half.conj().T).conj().T
    weighted = nu * (cov_hat.n_snapshots or 1) * weighted.ravel(order="F")
    grad = model.matrix.conj().T @ weighted
    return float(np.abs(grad).max())


def fisher_info(
    model: ObservationModel,
    cov: CovarianceMatrix,
    n_snapshots: int,
    nu: float = NU_REAL,
) -> FisherInfo:
    """Fisher information ``F_ij = nu N_s tr(R^{-1} G_i R^{-1} G_j^H)``.

    ``G_i`` is column i of the model reshaped K x K. Computed through
    whitened columns so only K x K solves are involved. The CRB is
    ``F^{-1}``; a singular F falls back to the pseudo-inverse with
    ``crb_is_pinv`` set.
    """
    if n_snapshots < 1:
        raise InvalidInputError("n_snapshots must be >= 1")
    k = cov.k
    if k * k != model.matrix.shape[0]:
        raise InvalidInputError(f"covariance is {k}x{k} but model has {model.matrix.shape[0]} rows")
    eigs = np.linalg.eigvalsh(cov.matrix)
    if eigs.min() <= 0.0:
        raise SingularityError("covariance must be positive definite for the Fisher information")
    chol = np.linalg.cholesky(cov.matrix)
    whitened = _whiten_columns(model.matrix, chol, k)
    fim = nu * n_snapshots * (whitened.conj().T @ whitened)
    fim = np.real(fim)
    fim = 0.5 * (fim + fim.T)
    svals = np.linalg.svd(fim, compute_uv=False)
    if numerical_rank(svals, fim.shape) == fim.shape[0]:
        crb = np.linalg.inv(fim)
        is_pinv = False
    else:
        crb = np.linalg.pinv(fim)
        is_pinv = True
    crb = 0.5 * (crb + crb.T)
    return FisherInfo(matrix=fim, nu=nu, n_snapshots=n_snapshots, crb=crb, crb_is_pinv=is_pinv)


NMSE_FLOOR_DB = -300.0


def nmse_db(sse: float, count: int, norm: float, squared_norm: bool = False) -> float:
    """``10 log10(sse / (count ||theta||))`` floored at NMSE_FLOOR_DB.

    ``sse`` sums the squared errors of ``count`` estimates of a parameter
    vector of 2-norm ``norm``; ``squared_norm`` divides by the squared
    norm instead. This is the one NMSE rule: Monte-Carlo scores and the
    expected error at the CRB both go through it.
    """
    ratio = sse / (count * (norm**2 if squared_norm else norm))
    if ratio <= 10.0 ** (NMSE_FLOOR_DB / 10.0):
        return NMSE_FLOOR_DB
    return float(max(10.0 * np.log10(ratio), NMSE_FLOOR_DB))


def nmse(true_theta, estimates, squared_norm: bool = False) -> float:
    """Normalized mean squared error over Monte-Carlo estimates, in dB.

    ``10 log10( sum_m ||theta - theta_m||^2 / (N_exp ||theta||) )``; the
    denominator uses the plain 2-norm by default, the squared norm with
    ``squared_norm=True``. Exact recovery reports the -300 dB floor.
    """
    p = np.asarray(true_theta, dtype=float).ravel()
    norm = float(np.linalg.norm(p))
    if norm == 0.0:
        raise InvalidInputError("true parameter vector must be nonzero")
    estimates = list(estimates)
    if not estimates:
        raise InvalidInputError("need at least one estimate")
    sse = 0.0
    for est in estimates:
        err = np.asarray(est, dtype=float).ravel() - p
        if err.size != p.size:
            raise InvalidInputError("estimate length mismatch")
        sse += float(err @ err)
    return nmse_db(sse, len(estimates), norm, squared_norm)
