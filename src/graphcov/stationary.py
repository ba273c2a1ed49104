"""Stationary graph signals: generation, covariances, and power spectra.

A second-order stationary graph signal has a covariance matrix that is
diagonal in the spectral basis of the shift operator; the diagonal is
the graph power spectrum. Signals with a prescribed spectrum are
generated by filtering white noise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .graphs import GraphFilter, ShiftOperator, SpectralBasis, _rng, apply_filter, filter_matrix

TRUE = "true"
SAMPLE = "sample"


@dataclass(frozen=True)
class CovarianceMatrix:
    """Hermitian PSD covariance, either exact ('true') or estimated ('sample').

    ``min_eigenvalue`` is the smallest eigenvalue, computed once for the
    PSD check and read by every consumer that needs it.
    """

    matrix: np.ndarray
    kind: str
    n_snapshots: int | None = None
    min_eigenvalue: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError("covariance must be a square matrix")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m - m.conj().T).max() > 1e-12 * scale:
            raise InvalidInputError("covariance must be Hermitian")
        m = 0.5 * (m + m.conj().T)
        trace = float(np.real(np.trace(m)))
        min_eig = float(np.linalg.eigvalsh(m).min()) if m.shape[0] else 0.0
        if min_eig < -1e-10 * max(trace, 1e-300):
            raise InvalidInputError(f"covariance not PSD (min eigenvalue {min_eig:.2e})")
        if self.kind not in (TRUE, SAMPLE):
            raise InvalidInputError(f"unknown covariance kind {self.kind!r}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "min_eigenvalue", min_eig)

    @property
    def k(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SnapshotMatrix:
    """K x N_s matrix of finite signal realizations on the distinct nodes ``node_indices``."""

    data: np.ndarray
    node_indices: tuple[int, ...]

    def __post_init__(self):
        data = np.atleast_2d(np.asarray(self.data, dtype=float))
        nodes = tuple(int(i) for i in self.node_indices)
        if data.shape[0] != len(nodes):
            raise InvalidInputError("row count must match node_indices")
        if len(set(nodes)) != len(nodes):
            raise InvalidInputError(f"repeated node in node_indices {list(nodes)}")
        if data.shape[1] < 1:
            raise InvalidInputError("need at least one snapshot")
        if not np.all(np.isfinite(data)):
            raise InvalidInputError("non-finite values in snapshot data")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "node_indices", nodes)

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[1]

    def rows(self, nodes) -> np.ndarray:
        """Data rows of the graph nodes ``nodes``, in that order; an absent node is refused."""
        position = {node: idx for idx, node in enumerate(self.node_indices)}
        missing = [node for node in nodes if node not in position]
        if missing:
            raise InvalidInputError(f"snapshots missing nodes {missing}")
        return self.data[[position[node] for node in nodes]]


def true_covariance(shift: ShiftOperator, filt: GraphFilter) -> CovarianceMatrix:
    """Exact covariance ``H H^T`` of a filtered unit-variance white signal."""
    h_mat = filter_matrix(shift, filt)
    return CovarianceMatrix(h_mat @ h_mat.T, kind=TRUE)


def generate_signals(
    shift: ShiftOperator,
    filt: GraphFilter,
    n_snapshots: int,
    seed,
) -> np.ndarray:
    """Generate N x N_s realizations by filtering standard-normal noise.

    The noise comes from ``numpy.random.default_rng(seed)`` (PCG64), which
    is stable across platforms, so output is reproducible. ``seed`` may
    be a non-negative int or a ``SeedSequence``.
    """
    if n_snapshots < 1:
        raise InvalidInputError("n_snapshots must be >= 1")
    rng = _rng(seed)
    noise = rng.standard_normal((shift.n, n_snapshots))
    return apply_filter(shift, filt, noise)


def sample_covariance(snapshots, demean: bool = False) -> CovarianceMatrix:
    """Sample covariance ``Y Y^H / N_s`` of a snapshot matrix.

    Accepts a SnapshotMatrix or a plain K x N_s array. With ``demean``
    the per-node sample mean is subtracted first.
    """
    data = snapshots.data if isinstance(snapshots, SnapshotMatrix) else np.atleast_2d(
        np.asarray(snapshots, dtype=float)
    )
    n_s = data.shape[1]
    if n_s < 1:
        raise InvalidInputError("need at least one snapshot")
    if demean:
        data = data - data.mean(axis=1, keepdims=True)
    return CovarianceMatrix(data @ data.conj().T / n_s, kind=SAMPLE, n_snapshots=n_s)


def power_spectrum_from_cov(basis: SpectralBasis, cov: CovarianceMatrix) -> np.ndarray:
    """Quadratic forms ``u_n^H R u_n`` for every basis vector.

    This is the uncompressed baseline estimator of the power spectrum;
    it needs the full N x N covariance.
    """
    r = cov.matrix
    if r.shape[0] != basis.n:
        raise InvalidInputError(f"covariance size {r.shape[0]} != basis size {basis.n}")
    u = basis.eigvecs
    return np.real(np.einsum("ni,nm,mi->i", u.conj(), r, u))


def stationarity_score(basis: SpectralBasis, cov: CovarianceMatrix) -> float:
    """Fraction of covariance energy on the diagonal of the spectral basis.

    1.0 means exactly stationary (the covariance is diagonalized by the
    basis); the zero matrix scores 1.0 by convention.
    """
    r = cov.matrix
    if r.shape[0] != basis.n:
        raise InvalidInputError(f"covariance size {r.shape[0]} != basis size {basis.n}")
    spectral = basis.eigvecs.conj().T @ r @ basis.eigvecs
    total = float(np.sum(np.abs(spectral) ** 2))
    if total == 0.0:
        return 1.0
    diag = float(np.sum(np.abs(np.diag(spectral)) ** 2))
    return diag / total


# --- Snapshot CSV ---------------------------------------------------------
# On-disk layout is one row per snapshot under a `node_<i>` header, i.e.
# N_s x K; it is transposed into the K x N_s SnapshotMatrix on load.


def save_snapshots_csv(path, snapshots: SnapshotMatrix) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"node_{i}" for i in snapshots.node_indices])
        for row in snapshots.data.T:
            writer.writerow([repr(float(v)) for v in row])


def load_snapshots_csv(path) -> SnapshotMatrix:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInputError(f"{path}: empty snapshot file") from None
        try:
            nodes = tuple(int(name.removeprefix("node_")) for name in header)
        except ValueError:
            raise InvalidInputError(f"{path}: header must be node_<i> columns") from None
        try:
            rows = [[float(v) for v in row] for row in reader if row]
        except ValueError as exc:
            raise InvalidInputError(f"{path}: non-numeric snapshot value: {exc}") from exc
    for number, row in enumerate(rows, start=1):
        if len(row) != len(nodes):
            raise InvalidInputError(
                f"{path}: snapshot {number} has {len(row)} values for {len(nodes)} node columns"
            )
    if not rows:
        raise InvalidInputError(f"{path}: no snapshots")
    return SnapshotMatrix(np.asarray(rows, dtype=float).T, nodes)
