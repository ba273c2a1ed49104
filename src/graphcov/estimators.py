"""Parameter recovery from compressed covariances.

Every estimator is least squares on ``r_y = G theta`` with real
parameters. Ordinary least squares is one product with the pseudo-inverse
the model keeps from its single SVD; the nonnegative variant enforces the
sign constraint a power spectrum carries by definition on the model's
real-stacked matrix. One-step weighted least squares solves the Gaussian
likelihood stationarity equations with the weight built from the sample
covariance itself: its normal matrix is the weighted Gram
``Re(G_w^H G_w)`` of the whitened columns, solved by Cholesky. The
Fisher information is the same Gram, built from the true covariance and
scaled by ``nu N_s``; it gives the Cramer-Rao floor the unweighted
estimator does not reach. LS, WLS and the Fisher information make no
``scipy.linalg`` call: their linear algebra runs in numpy's BLAS, which
is a different OpenBLAS from scipy's, with its own thread pool.
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


def _require_full_rank(model: ObservationModel) -> None:
    if not model.full_column_rank:
        raise RankDeficiencyError(
            f"model rank {model.rank} < {model.n_params} parameters", rank=model.rank
        )


def _require_vector(model: ObservationModel, r_y) -> np.ndarray:
    """The observation as a finite vector of the model's length; the model itself is finite."""
    r = np.asarray(r_y).ravel()
    if r.size != model.matrix.shape[0]:
        raise InvalidInputError(
            f"observation vector has length {r.size}, model expects {model.matrix.shape[0]}"
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
    theta = model.pinv @ model.stack(r)
    residual = float(np.linalg.norm(model.matrix @ theta - r))
    return EstimationResult(theta, residual, LS, model.condition_number)


def nnls_estimate(model: ObservationModel, r_y) -> EstimationResult:
    """Least squares with elementwise nonnegativity on the parameters.

    Backed by the Lawson-Hanson active-set solver on the model's
    real-stacked matrix, with an iteration cap of 10 * M^2; exhausting the
    cap raises ConvergenceError.
    """
    r = _require_vector(model, r_y)
    _require_full_rank(model)
    m = model.n_params
    try:
        theta, _ = scipy.optimize.nnls(model.stacked_matrix, model.stack(r), maxiter=10 * m * m)
    except RuntimeError as exc:
        raise ConvergenceError(f"nonnegative solver did not converge: {exc}") from exc
    residual = float(np.linalg.norm(model.matrix @ theta - r))
    return EstimationResult(theta, residual, NNLS, model.condition_number)


def _regularized_cholesky(cov: CovarianceMatrix) -> np.ndarray:
    """Lower Cholesky factor of the covariance, diagonally loaded if near-singular."""
    r = np.asarray(cov.matrix)
    k = r.shape[0]
    delta = 1e-8 * float(np.real(np.trace(r))) / k
    if delta <= 0.0:
        raise SingularityError("covariance has nonpositive trace; cannot regularize")
    if cov.min_eigenvalue < delta:
        r = r + delta * np.eye(k)
    try:
        return np.linalg.cholesky(r)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("covariance not positive definite") from exc


def _whiten_columns(g: np.ndarray, chol: np.ndarray, k: int) -> np.ndarray:
    """Map each column ``vec(X)`` to ``vec(L^{-1} X L^{-H})``.

    ``L^{-1}`` is formed once (K x K), and all M columns are whitened
    together by two matrix products: ``L^{-1}`` times the K x (K M) matrix
    ``[X_1 ... X_M]``, then the (K M) x K stack of the ``L^{-1} X_i`` times
    ``L^{-H}``.
    """
    m = g.shape[1]
    l_inv = np.linalg.inv(chol)
    blocks = g.reshape(k, k, m, order="F").transpose(0, 2, 1)  # X_i[p, q] at [p, i, q]
    half = l_inv @ blocks.reshape(k, m * k)
    full = half.reshape(k * m, k) @ l_inv.conj().T
    return full.reshape(k, m, k).transpose(0, 2, 1).reshape(k * k, m, order="F")


def _weighted_gram(columns: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Symmetrised ``Re(C_w^H C_w)`` of the whitened columns ``C_w``.

    Entry (i, j) is ``Re tr(R^{-1} X_i R^{-1} X_j^H)`` for columns
    ``vec(X_i)`` and ``R = L L^H``: the normal matrix of least squares
    weighted by ``R^{-T} kron R^{-1}``, which is never formed.
    """
    whitened = _whiten_columns(columns, chol, chol.shape[0])
    gram = np.real(whitened.conj().T @ whitened)
    return 0.5 * (gram + gram.T)


def wls_estimate(model: ObservationModel, r_hat, cov_hat: CovarianceMatrix) -> EstimationResult:
    """One-step weighted least squares with the likelihood weighting.

    Minimizes ``||R^{-1/2} (unvec(r_hat - G theta)) R^{-1/2}||_F`` over
    real theta, i.e. least squares weighted by ``R^{-T} kron R^{-1}``,
    where R is the supplied (sample) covariance, diagonally loaded when
    near-singular. The normal matrix is the weighted Gram of the model
    columns, the Fisher information up to the factor ``nu N_s``, and the
    right-hand side is the same product with ``r_hat``; both come from one
    whitening of ``[G r_hat]``. It is solved by Cholesky, which makes the
    likelihood stationarity equations hold at the solution. A normal
    matrix that is not positive definite raises RankDeficiencyError.
    ``condition_number`` is ``sqrt(lambda_max / lambda_min)`` of the
    normal matrix, the condition number of the whitened system.
    """
    r = _require_vector(model, r_hat)
    k = cov_hat.k
    if k * k != r.size:
        raise InvalidInputError(f"weight covariance is {k}x{k} but observation has {r.size} entries")
    _require_full_rank(model)
    m = model.n_params
    gram = _weighted_gram(np.column_stack([model.matrix, r]), _regularized_cholesky(cov_hat))
    normal = gram[:m, :m]
    try:
        factor = np.linalg.cholesky(normal)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("weighted normal matrix is not positive definite") from exc
    theta = np.linalg.solve(factor.T, np.linalg.solve(factor, gram[:m, m]))
    residual = float(np.linalg.norm(model.matrix @ theta - r))
    eigs = np.linalg.eigvalsh(normal)
    condition = float(np.sqrt(eigs[-1] / eigs[0])) if eigs[0] > 0.0 else np.inf
    return EstimationResult(theta, residual, WLS, condition)


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

    ``G_i`` is column i of the model reshaped K x K: the weighted Gram
    that :func:`wls_estimate` solves, built from the true covariance and
    scaled by ``nu N_s``, so only K x K factors are formed. The CRB is
    ``F^{-1}``; a singular F falls back to the pseudo-inverse with
    ``crb_is_pinv`` set.
    """
    if n_snapshots < 1:
        raise InvalidInputError("n_snapshots must be >= 1")
    k = cov.k
    if k * k != model.matrix.shape[0]:
        raise InvalidInputError(f"covariance is {k}x{k} but model has {model.matrix.shape[0]} rows")
    if cov.min_eigenvalue <= 0.0:
        raise SingularityError("covariance must be positive definite for the Fisher information")
    fim = nu * n_snapshots * _weighted_gram(model.matrix, np.linalg.cholesky(cov.matrix))
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
