"""Correctness checks for the benchmark's studies.

Every check is computed apart from the program, from numpy and the
identities of the spectral model, or from a property the method must
have. None compares against stored output. Each check function returns
None when the check passes and a one-line reason when it fails.

For a sampled node set S with basis rows ``U_S`` (K x N) the spectral
model obeys, with ``∘²`` the element-wise squared modulus:

- normal equations ``|U_Sᴴ U_S|∘² θ = diag(U_Sᴴ R̂ U_S)``;
- Fisher information ``ν N_s |U_Sᴴ R⁻¹ U_S|∘²`` (ν = 1/2, real data);
- for real bases and Gaussian data the LS error covariance is exactly
  ``(2/N_s) Γ⁻¹ |U_Sᵀ R U_S|∘² Γ⁻¹`` with ``Γ = |U_Sᵀ U_S|∘²``.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict

import numpy as np

NU_REAL = 0.5
LS_RTOL = 1e-8
CRB_RTOL = 1e-6
# Exact-covariance recovery must reach this NMSE; double precision on the
# workloads' models gives -188 dB (N=250, condition 5e5) to -274 dB.
EXACT_DB = -100.0
# Standard deviations of Monte-Carlo noise a check tolerates.
MC_SIGMAS = 5.0
AR_LOG_SIGMAS = 4.0


def gram(u_s: np.ndarray) -> np.ndarray:
    """``|U_Sᴴ U_S|∘²``: Gram of the compressed spectral model."""
    return np.abs(u_s.conj().T @ u_s) ** 2


def independent_ls(u_s, r_hat, theta) -> str | None:
    """The program's LS estimate solves the normal equations to LS_RTOL."""
    rhs = np.real(np.einsum("ki,kl,li->i", u_s.conj(), r_hat, u_s))
    reference = np.linalg.solve(gram(u_s), rhs)
    err = np.linalg.norm(np.asarray(theta) - reference) / np.linalg.norm(reference)
    if not err <= LS_RTOL:
        return f"LS estimate differs from the normal-equation solution by {err:.2e} (relative)"
    return None


def exact_recovery(nmse_db) -> str | None:
    """Every exact-covariance cell recovers the spectrum to EXACT_DB."""
    worst = max(nmse_db)
    if not worst <= EXACT_DB:
        return f"exact-covariance NMSE {worst:.1f} dB is above {EXACT_DB} dB"
    return None


def sampler_valid(u_s) -> str | None:
    """``|U_Sᴴ U_S|∘²`` has full rank, so the sampler identifies the spectrum."""
    n = u_s.shape[1]
    rank = np.linalg.matrix_rank(gram(u_s), hermitian=True)
    if rank != n:
        return f"sampler Gram has rank {rank} of {n}"
    return None


def greedy_monotone(trace) -> str | None:
    """The greedy objective trace does not decrease."""
    trace = np.asarray(trace, dtype=float)
    drops = np.diff(trace) < -1e-9 * np.maximum(1.0, np.abs(trace[1:]))
    if drops.any():
        step = int(np.argmax(drops)) + 1
        return f"greedy objective decreases at step {step}: {trace[step - 1]:.6g} -> {trace[step]:.6g}"
    return None


def ruler_covers(marks, n: int) -> str | None:
    """Pairwise differences of the marks cover 0..n-1."""
    diffs = {abs(a - b) for a in marks for b in marks}
    missing = [d for d in range(n) if d not in diffs]
    if missing:
        return f"ruler {sorted(marks)} misses differences {missing[:5]}"
    return None


def nonnegative(theta) -> str | None:
    low = float(np.min(theta))
    if low < 0.0:
        return f"NNLS estimate has a negative entry {low:.3g}"
    return None


def crb_trace(u_s, r_s, n_s: int) -> float:
    """Trace of the inverse Fisher information ``ν N_s |U_Sᵀ R⁻¹ U_S|∘²``."""
    fim = NU_REAL * n_s * np.abs(u_s.T @ np.linalg.solve(r_s, u_s)) ** 2
    return float(np.trace(np.linalg.inv(fim)))


def crb_matches(crb_db: float, u_s, r_s, n_s: int, p_norm: float) -> str | None:
    """The program's CRB column equals the independent inverse-Fisher trace."""
    reference = crb_trace(u_s, r_s, n_s) / p_norm
    err = abs(10.0 ** (crb_db / 10.0) / reference - 1.0)
    if not err <= CRB_RTOL:
        return f"CRB {crb_db:.6f} dB differs from the independent bound by {err:.2e} (relative)"
    return None


def ls_not_below_crb(nmse_db: float, u_s, r_s, n_s: int, n_trials: int, p_norm: float) -> str | None:
    """LS NMSE does not undercut the CRB by more than MC_SIGMAS of Monte-Carlo noise.

    The noise of a mean of ``n_trials`` squared errors with covariance C is
    taken as ``sqrt(2 tr(C²) / n_trials)``, C being the exact LS covariance.
    """
    g_inv = np.linalg.inv(gram(u_s))
    c_ls = (2.0 / n_s) * g_inv @ (np.abs(u_s.T @ r_s @ u_s) ** 2) @ g_inv
    sd = math.sqrt(2.0 * float(np.sum(c_ls * c_ls.T)) / n_trials) / p_norm
    bound = crb_trace(u_s, r_s, n_s) / p_norm
    nmse = 10.0 ** (nmse_db / 10.0)
    if nmse < bound - MC_SIGMAS * sd:
        return f"LS NMSE {nmse:.4g} is below the CRB {bound:.4g} by more than {MC_SIGMAS} x {sd:.3g}"
    return None


def ar_convergence(exact, estimates_by_ns: dict) -> str | None:
    """RMS distance to the exact-covariance AR estimate shrinks as 1/sqrt(N_s).

    The ratio of RMS distances between the smallest and largest N_s must
    match sqrt of their ratio within AR_LOG_SIGMAS / sqrt(trials) in log.
    """
    if len(estimates_by_ns) < 2:
        return "AR estimates at two snapshot counts are needed"
    lo, hi = min(estimates_by_ns), max(estimates_by_ns)
    exact = np.atleast_1d(np.asarray(exact, dtype=float))
    rms = {
        ns: float(np.sqrt(np.mean(np.sum((np.asarray(estimates_by_ns[ns]) - exact) ** 2, axis=1))))
        for ns in (lo, hi)
    }
    if rms[hi] == 0.0:
        return f"AR estimates at N_s={hi} equal the exact-covariance estimate"
    trials = min(len(estimates_by_ns[lo]), len(estimates_by_ns[hi]))
    expected = math.sqrt(hi / lo)
    ratio = rms[lo] / rms[hi]
    if abs(math.log(ratio / expected)) > AR_LOG_SIGMAS / math.sqrt(trials):
        return f"AR RMS error ratio N_s={lo}/{hi} is {ratio:.3g}, expected about {expected:.3g}"
    return None


def identical(csv_a: str, csv_b: str) -> str | None:
    if csv_a != csv_b:
        return "studies of the same config gave different CSV"
    return None


class Observations:
    """What the checks need, kept from the traced study's calls.

    Called from the study's worker threads, so updates take a lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.basis = None
        self.samplers = {}  # cell -> sampler of its compressed model
        self.greedy_traces = []
        self.rulers = []  # (n, marks)
        self.ls_samples = {}  # cell -> (r_y, theta) of its first LS estimate
        self.nnls_thetas = []
        self.ar_shift = None
        self.ar_schemes = {}  # cell -> scheme
        self.ar_estimates = defaultdict(dict)  # cell -> ns -> [theta]

    def __call__(self, key, args, result, cause):
        with self._lock:
            self._keep(key, args, result, cause)

    def _keep(self, key, args, result, cause):
        if key == "graphs.basis":
            self.basis = result
        elif key == "models.compress":
            self.samplers[cause.get("cell")] = args[1]
        elif key == "design.greedy":
            self.greedy_traces.append(result.objective_trace)
        elif key == "design.ruler":
            self.rulers.append((args[0], result))
        elif key == "estimators.ls":
            cell = cause.get("cell")
            if cell is not None and cause.get("trial") is not None and cell not in self.ls_samples:
                self.ls_samples[cell] = (args[1], result.theta)
        elif key == "estimators.nnls":
            self.nnls_thetas.append(result.theta)
        elif key == "ar.generate":
            self.ar_shift = args[0]
        elif key == "ar.blocks":
            self.ar_schemes.setdefault(cause.get("cell"), args[0])
        elif key == "ar.estimate":
            by_ns = self.ar_estimates[cause.get("cell")]
            by_ns.setdefault(cause.get("ns"), []).append(np.asarray(result.theta, dtype=float))
