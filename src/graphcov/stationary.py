"""Stationary graph signals: generation, covariances, and power spectra.

A second-order stationary graph signal has a covariance matrix that is
diagonal in the spectral basis of the shift operator; the diagonal is
the graph power spectrum. Signals with a prescribed spectrum are
generated by filtering white noise, ``x = H n``. Moving-average signals
(:func:`generate_signals`) and autoregressive ones
(:func:`graphcov.ar.generate_ar_signals`) follow one rule: the noise is
drawn on all N nodes and only the rows of H for the requested nodes are
applied to it, so a study's trial realises only the nodes its cells read.
The shift keeps those rows (:meth:`~graphcov.graphs.ShiftOperator.transfer_rows`),
so repeated realisations of one signal on one node set cost one draw
and one product each.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .graphs import GraphFilter, ShiftOperator, SpectralBasis, _check_ints, _rng, apply_filter

TRUE = "true"
SAMPLE = "sample"


@dataclass(frozen=True)
class CovarianceMatrix:
    """Hermitian PSD covariance, either exact ('true') or estimated ('sample').

    ``matrix`` is one K x K matrix or a stack of them, ``(..., K, K)``,
    such as one sample covariance per trial; every check runs on each
    matrix of a stack, and one that fails refuses the stack. An empty or
    non-finite matrix is refused. ``min_eigenvalue`` is the smallest
    eigenvalue (one per matrix of a stack), computed once for the PSD
    check and read by every consumer that needs it.
    """

    matrix: np.ndarray
    kind: str
    n_snapshots: int | None = None
    min_eigenvalue: float | np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim < 2 or m.shape[-2] != m.shape[-1] or m.size == 0:
            raise InvalidInputError(f"covariance must be a non-empty square matrix, got shape {m.shape}")
        largest = np.abs(m).max(axis=(-2, -1))
        if not np.isfinite(largest).all():
            raise InvalidInputError("non-finite values in covariance")
        m_h = m.conj().swapaxes(-2, -1)
        if (np.abs(m - m_h).max(axis=(-2, -1)) > 1e-12 * np.maximum(largest, 1.0)).any():
            raise InvalidInputError("covariance must be Hermitian")
        m = 0.5 * (m + m_h)
        trace = m.trace(axis1=-2, axis2=-1).real
        min_eig = np.linalg.eigvalsh(m)[..., 0]  # ascending
        bad = min_eig < -1e-10 * np.maximum(trace, 1e-300)
        if bad.any():
            raise InvalidInputError(f"covariance not PSD (min eigenvalue {min_eig[bad].min():.2e})")
        if self.kind not in (TRUE, SAMPLE):
            raise InvalidInputError(f"unknown covariance kind {self.kind!r}")
        self._freeze(m, float(min_eig) if m.ndim == 2 else min_eig)

    def _freeze(self, m: np.ndarray, min_eig) -> None:
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "min_eigenvalue", min_eig)

    @classmethod
    def principal(cls, covs: "CovarianceMatrix", positions) -> "CovarianceMatrix":
        """Stack of the principal submatrices on ``positions`` of the stacked K x K covariances ``covs``.

        Member t is the covariance of the rows ``positions`` of member t of
        ``covs``, such as one trial's covariance of a sampler's nodes cut
        from the trial's covariance of every observed node. A principal
        submatrix of a finite Hermitian PSD matrix is one, so the members
        are not checked again: only their smallest eigenvalues are
        computed, in one call. When ``positions`` keeps every row in order
        the stack is ``covs`` itself. The stack takes the kind and snapshot
        count of ``covs``.
        """
        idx = np.asarray(positions, dtype=np.intp)
        if covs.matrix.ndim != 3:
            raise InvalidInputError(f"expected a stack of covariances, got shape {covs.matrix.shape}")
        if np.array_equal(idx, np.arange(covs.k)):
            return covs
        stack = covs.matrix[:, idx[:, None], idx]
        out = object.__new__(cls)
        object.__setattr__(out, "kind", covs.kind)
        object.__setattr__(out, "n_snapshots", covs.n_snapshots)
        out._freeze(stack, np.linalg.eigvalsh(stack)[:, 0])
        return out

    @property
    def k(self) -> int:
        return self.matrix.shape[-1]


@dataclass(frozen=True)
class SnapshotMatrix:
    """K x N_s matrix of finite signal realizations on the distinct nodes ``node_indices``."""

    data: np.ndarray
    node_indices: tuple[int, ...]

    def __post_init__(self):
        data = np.atleast_2d(np.asarray(self.data, dtype=float))
        _check_ints(self.node_indices, 0, np.inf, "node")
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


def _filter_rows(shift: ShiftOperator, filt: GraphFilter, nodes) -> np.ndarray:
    """Rows ``nodes`` (all when None) of ``H = sum_k h_k S^k``, as the shift keeps them.

    S is symmetric, so they are the filter applied to the identity's
    columns ``nodes``, transposed.
    """

    def build(nodes):
        identity = np.eye(shift.n)
        if nodes is not None:
            identity = identity[:, list(nodes)]
        return apply_filter(shift, filt, identity).T

    return shift.transfer_rows(("ma", filt.coeffs.tobytes()), nodes, build)


def true_covariance(shift: ShiftOperator, filt: GraphFilter, nodes=None) -> CovarianceMatrix:
    """Exact covariance ``H_O H_O^T`` of a filtered unit-variance white signal on the nodes O.

    O is ``nodes`` (all by default) and ``H_O`` the rows of the filter
    matrix H that :func:`generate_signals` applies, so the covariance of
    a study's observed nodes costs O(|O| N) rows, not the N x N ``H H^T``.
    """
    rows = _filter_rows(shift, filt, nodes)
    return CovarianceMatrix(rows @ rows.T, kind=TRUE)


def _realise(shift: ShiftOperator, transfer: np.ndarray, n_snapshots: int, seed) -> np.ndarray:
    """``transfer @ n`` for ``n = default_rng(seed).standard_normal((N, N_s))``, drawn on all N nodes.

    ``transfer`` holds the rows of H for the requested nodes, so the
    noise stream, and each node's realization, does not depend on which
    nodes are requested. A snapshot count that is not an integer >= 1 is
    refused. A product that overflows gives inf or nan with no
    floating-point warning; :class:`SnapshotMatrix` refuses it.
    """
    _check_ints((n_snapshots,), 1, np.inf, "n_snapshots")
    noise = _rng(seed).standard_normal((shift.n, n_snapshots))
    with np.errstate(over="ignore", invalid="ignore"):
        return transfer @ noise


def generate_signals(
    shift: ShiftOperator,
    filt: GraphFilter,
    n_snapshots: int,
    seed,
    nodes=None,
) -> np.ndarray:
    """Realizations ``H n`` of the filtered noise on ``nodes`` (all by default), one column per snapshot.

    The noise comes from ``numpy.random.default_rng(seed)`` (PCG64), which
    is stable across platforms, so output is reproducible. ``seed`` may
    be a non-negative int or a ``SeedSequence``. S is symmetric, so the
    rows ``nodes`` of ``H = sum_k h_k S^k`` are the filter applied to the
    identity's columns ``nodes``; only those rows are applied to the
    noise. The shift keeps them, so a second call with the same filter
    and nodes costs the draw and one product. ``nodes`` may repeat and
    come in any order, and for one seed the result equals those rows of
    the full realization, up to rounding.
    """
    return _realise(shift, _filter_rows(shift, filt, nodes), n_snapshots, seed)


def _product(snapshots, demean: bool) -> tuple[np.ndarray, int]:
    """``Y Y^H / N_s``, unchecked, and N_s, of one snapshot matrix or plain K x N_s array."""
    data = snapshots.data if isinstance(snapshots, SnapshotMatrix) else np.atleast_2d(
        np.asarray(snapshots, dtype=float)
    )
    n_s = data.shape[1]
    if n_s < 1:
        raise InvalidInputError("need at least one snapshot")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by CovarianceMatrix, as inf or nan
        if demean:
            data = data - data.mean(axis=1, keepdims=True)
        return data @ data.conj().T / n_s, n_s


def sample_covariance(snapshots, demean: bool = False) -> CovarianceMatrix:
    """Sample covariance ``Y Y^H / N_s`` of a snapshot matrix, or of each of a block of them.

    Accepts a SnapshotMatrix or a plain K x N_s array. An iterator (not a
    list) of K x N_s arrays of one shape, such as one realisation per
    Monte-Carlo trial from a generator, gives one covariance per member,
    as a stack: each member's product is formed as it is read, so a
    generator holds one member at a time, and the stack is checked once
    (a bad member refuses the whole stack). With ``demean`` the per-node
    sample mean is subtracted first. Snapshots large enough for the
    product to overflow give a non-finite matrix, which
    :class:`CovarianceMatrix` refuses (InvalidInputError), with no
    floating-point warning on the way.
    """
    if not isinstance(snapshots, Iterator):
        product, n_s = _product(snapshots, demean)
        return CovarianceMatrix(product, kind=SAMPLE, n_snapshots=n_s)
    shapes, products = set(), []
    for member in snapshots:
        member = np.atleast_2d(np.asarray(member, dtype=float))
        shapes.add(member.shape)
        products.append(_product(member, demean)[0])
    if len(shapes) != 1:
        raise InvalidInputError(f"a block of snapshots needs members of one shape, got {sorted(shapes)}")
    return CovarianceMatrix(np.stack(products), kind=SAMPLE, n_snapshots=shapes.pop()[1])


def power_spectrum_from_cov(basis: SpectralBasis, cov: CovarianceMatrix) -> np.ndarray:
    """Quadratic forms ``u_n^H R u_n`` for every basis vector.

    This is the uncompressed baseline estimator of the power spectrum;
    it needs the full N x N covariance.
    """
    r = cov.matrix
    if r.shape != (basis.n, basis.n):
        raise InvalidInputError(f"covariance of shape {r.shape} is not {basis.n} x {basis.n}, the basis size")
    u = basis.eigvecs
    return np.real(np.einsum("ni,nm,mi->i", u.conj(), r, u))


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
