"""Monte-Carlo NMSE experiment harness.

Runs generate -> subsample -> estimate trials over a grid of snapshot
counts, samplers, and estimation methods, and writes a plot-ready CSV.
Per-trial seeds are derived from the master seed by counter, and one
data realization is shared by every sampler of a trial and one sample
covariance by every method of a sampler (paired comparisons), so output
is byte-identical for a fixed config. Trials run one after another; the
only parallelism is the BLAS library's own.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import ar as armod
from .design import DesignProblem, greedy_design, is_sparse_ruler, minimal_sparse_ruler
from .errors import GraphCovError, InvalidInputError, NumericalError
from .estimators import NU_REAL, fisher_info, ls_estimate, nmse_db, nnls_estimate, wls_estimate
from .graphs import (
    CIRCULANT_DFT,
    Graph,
    GraphFilter,
    ShiftOperator,
    build_shift,
    cycle_graph,
    frequency_response,
    is_circulant,
    mobius_ladder,
    path_graph,
    sensor_graph,
)
from .models import (
    CovarianceModel,
    Subsampler,
    build_psi_ma,
    build_psi_spectral,
    compress_model,
    vandermonde,
    vec,
)
from .stationary import CovarianceMatrix, generate_signals, sample_covariance, true_covariance

CSV_HEADER = "n_snapshots,method,compression,nmse_db,crb_db,failures"


def make_graph(spec: dict) -> Graph:
    kind = spec.get("kind")
    if kind == "sensor":
        return sensor_graph(spec["n"], spec.get("seed", 0), spec.get("knn", 6))
    if kind == "cycle":
        return cycle_graph(spec["n"])
    if kind == "mobius":
        return mobius_ladder(spec["n"])
    if kind == "path":
        return path_graph(spec["n"])
    if kind == "file":
        path = spec["path"]
        if not os.path.exists(path):
            raise InvalidInputError(f"graph file not found: {path}")
        with open(path) as fh:
            return Graph.from_json(fh.read())
    raise InvalidInputError(f"unknown graph kind {kind!r}")


def make_shift(graph: Graph, kind: str, use_dft: str | bool = "auto") -> ShiftOperator:
    """Build the shift; circulant operators get the closed-form DFT basis."""
    shift = build_shift(graph, kind)
    dft = is_circulant(shift.matrix) if use_dft == "auto" else bool(use_dft)
    if dft:
        return ShiftOperator(shift.matrix, kind=CIRCULANT_DFT)
    return shift


@dataclass
class ExperimentConfig:
    """Declarative description of one NMSE experiment."""

    graph: dict
    shift: str
    signal: dict  # {"kind": "ma", "h": [...]} or {"kind": "ar", "a": [...]}
    model: dict  # {"kind": "spectral"} | {"kind": "ma", "q": Q} | {"kind": "ar", "p": P, ...}
    samplers: list
    methods: list
    n_snapshots: list
    n_trials: int
    seed: int = 0
    exact_covariance: bool = False
    nmse_squared_norm: bool = False
    output: str | None = None

    def __post_init__(self):
        if not self.n_snapshots:
            raise InvalidInputError("snapshot grid must be non-empty")
        if self.n_trials < 1:
            raise InvalidInputError("n_trials must be >= 1")
        if not self.samplers:
            raise InvalidInputError("need at least one sampler")
        if not self.methods:
            raise InvalidInputError("need at least one method")
        if self.model.get("kind") == "ar" and any(m != "ls" for m in self.methods):
            raise InvalidInputError("the autoregressive estimator is least squares only")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"malformed experiment config: {exc}") from exc
        try:
            return cls(**obj)
        except TypeError as exc:
            raise InvalidInputError(f"bad experiment config fields: {exc}") from exc


def n_workers() -> int:
    """Trials run one at a time in the calling thread."""
    return 1


def _resolve_sampler(entry: dict, psi: CovarianceModel, n: int) -> Subsampler:
    kind = entry.get("kind")
    if kind == "full":
        return Subsampler.full(n)
    if kind == "explicit":
        return Subsampler(n, tuple(entry["selected"]))
    if kind == "greedy":
        k = int(entry["k"])
        if k > n:
            raise InvalidInputError(f"sampler budget {k} exceeds N={n}")
        problem = DesignProblem(
            psi=psi, k=k, epsilon=entry.get("epsilon"), cost=entry.get("cost", "logdet")
        )
        return greedy_design(problem).sampler
    if kind == "ruler":
        marks = entry.get("marks")
        if marks is None:
            marks = minimal_sparse_ruler(n)
        elif not is_sparse_ruler(marks, n):
            raise InvalidInputError(f"marks {tuple(marks)} are not a sparse ruler for n={n}")
        return Subsampler(n, tuple(marks))
    raise InvalidInputError(f"unknown sampler kind {kind!r}")


class _Pipeline:
    """Precomputed, immutable state shared by all trials of one experiment."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.graph = make_graph(config.graph)
        self.shift = make_shift(self.graph, config.shift)
        self.basis = self.shift.basis()
        n = self.shift.n

        sig = config.signal
        if sig.get("kind") == "ma":
            self.filt = GraphFilter(np.asarray(sig["h"], dtype=float))
            self.ar_coeffs = None
            self.true_p = np.abs(frequency_response(self.basis.eigvals, self.filt)) ** 2
            self.true_cov = true_covariance(self.shift, self.filt).matrix
        elif sig.get("kind") == "ar":
            self.filt = None
            self.ar_coeffs = np.asarray(sig["a"], dtype=float)
            self.true_p = armod.ar_power_spectrum(self.basis.eigvals, self.ar_coeffs)
            self.true_cov = armod.true_ar_covariance(self.shift, self.ar_coeffs).matrix
        else:
            raise InvalidInputError("signal kind must be 'ma' or 'ar'")
        self.p_norm = float(np.linalg.norm(self.true_p))

        model = config.model
        self.model_kind = model.get("kind")
        if self.model_kind == "spectral":
            self.psi = build_psi_spectral(self.basis)
            self.vand = None
        elif self.model_kind == "ma":
            self.q = int(model["q"])
            self.psi = build_psi_ma(self.shift, self.q)
            self.vand = vandermonde(self.basis.eigvals, self.q)
        elif self.model_kind == "ar":
            self.psi = None
            self.vand = None
            self.p_order = int(model["p"])
        else:
            raise InvalidInputError(f"unknown model kind {self.model_kind!r}")

        self.cells = []  # (name, compression, compressed model or AR scheme)
        for entry in config.samplers:
            if self.model_kind == "ar":
                if entry.get("kind", "ar-core") != "ar-core":
                    raise InvalidInputError(
                        "the autoregressive model samples cores plus neighborhoods; "
                        f"use sampler kind 'ar-core', not {entry.get('kind')!r}"
                    )
                core = entry.get("core") or armod.core_by_degree(
                    self.graph, entry.get("k0", 1)
                )
                scheme = armod.build_ar_scheme(self.shift, core, self.p_order)
                compression = 1.0 - len(scheme.distinct_nodes) / n
                name = entry.get("name", f"ar-core-{len(scheme.core)}")
                self.cells.append((name, compression, scheme))
            else:
                sampler = _resolve_sampler(entry, self.psi, n)
                compressed = compress_model(self.psi, sampler)
                if not compressed.full_column_rank:
                    raise InvalidInputError(
                        f"sampler {entry!r} is not a valid covariance subsampler "
                        f"(rank {compressed.rank} of {compressed.n_params})"
                    )
                compression = 1.0 - sampler.k / n
                name = entry.get("name", f"k{sampler.k}")
                self.cells.append((name, compression, (sampler, compressed)))

    # -- per-trial work ---------------------------------------------------

    def generate(self, n_snapshots: int, seed) -> np.ndarray:
        if self.ar_coeffs is not None:
            return armod.generate_ar_signals(self.shift, self.ar_coeffs, n_snapshots, seed)
        return generate_signals(self.shift, self.filt, n_snapshots, seed)

    def reconstruct(self, theta: np.ndarray) -> np.ndarray:
        if self.model_kind == "spectral":
            return theta
        if self.model_kind == "ma":
            return self.vand @ theta
        return armod.ar_power_spectrum(self.basis.eigvals, theta)

    def run_trial(self, trial: int, ns: int, ns_idx: int, sqerr: np.ndarray) -> None:
        """Fill ``sqerr[:, :, trial]`` for one trial; NaN stays where an estimate failed."""
        if self.config.exact_covariance:
            data = None
        else:
            data = self.generate(ns, np.random.SeedSequence((self.config.seed, ns_idx, trial)))
        for c_idx, cell in enumerate(self.cells):
            try:
                observed = self.observe(cell, data)
            except (GraphCovError, np.linalg.LinAlgError):
                continue  # every method of the cell fails
            for m_idx, method in enumerate(self.config.methods):
                try:
                    sqerr[c_idx, m_idx, trial] = self.estimate_cell(cell, method, observed)
                except (GraphCovError, np.linalg.LinAlgError):
                    pass  # failure recorded as NaN

    def observe(self, cell, data: np.ndarray | None):
        """What every method of a cell estimates from in one trial; data=None for exact mode.

        Node-sampled cells get ``(r_y, cov)``: the vectorized compressed
        covariance and the sample covariance it came from (None in exact
        mode), built once and shared by all methods. Autoregressive cells
        get the snapshots, since their one method builds its own blocks.
        """
        if self.model_kind == "ar":
            return data
        sampler, _ = cell[2]
        if data is None:
            return vec(self.true_cov[np.ix_(sampler.selected, sampler.selected)]), None
        cov = sample_covariance(data[list(sampler.selected)])
        return vec(cov.matrix), cov

    def estimate_cell(self, cell, method: str, observed):
        """Squared spectrum error of one (cell, method) estimate from :meth:`observe`'s output."""
        _, _, payload = cell
        if self.model_kind == "ar":
            scheme = payload
            if observed is None:
                blocks = armod.true_ar_covariances(scheme, self.true_cov)
            else:
                blocks = armod.sample_ar_covariances(scheme, observed)
            model, r_y = armod.build_ar_model(self.shift, scheme, blocks)
            theta = armod.estimate_ar(model, r_y).theta
        else:
            _, model = payload
            r_y, cov = observed
            if method == "ls":
                theta = ls_estimate(model, r_y).theta
            elif method == "nnls":
                theta = nnls_estimate(model, r_y).theta
            elif method == "wls":
                if cov is None:
                    theta = ls_estimate(model, r_y).theta
                else:
                    theta = wls_estimate(model, r_y, cov).theta
            else:
                raise InvalidInputError(f"unknown method {method!r}")
        p_hat = self.reconstruct(theta)
        err = p_hat - self.true_p
        return float(err @ err)

    def crb_sse(self, cell) -> float | None:
        """Expected squared spectrum error at the CRB for one snapshot; None when unavailable.

        The Fisher information grows as N_s, so the CRB at N_s snapshots is
        this value divided by N_s.
        """
        if self.model_kind == "ar":
            return None
        sampler, model = cell[2]
        r_true = self.true_cov[np.ix_(sampler.selected, sampler.selected)]
        try:
            info = fisher_info(model, CovarianceMatrix(r_true, kind="true"), 1, nu=NU_REAL)
        except NumericalError:
            return None
        if self.model_kind == "ma":
            cov_p = self.vand @ info.crb @ self.vand.T
        else:
            cov_p = info.crb
        return float(np.trace(cov_p))

    def crb_db(self, crb_sse: float | None, n_snapshots: int) -> float | None:
        """CRB at N_s snapshots on the NMSE scale, from :meth:`crb_sse`."""
        if crb_sse is None:
            return None
        return nmse_db(crb_sse / n_snapshots, 1, self.p_norm, self.config.nmse_squared_norm)


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Run all cells and return one result row per (n_snapshots, sampler, method)."""
    pipe = _Pipeline(config)
    n_cells = len(pipe.cells)
    n_methods = len(config.methods)
    crb_sse = [pipe.crb_sse(cell) for cell in pipe.cells]
    rows = []
    for ns_idx, ns in enumerate(config.n_snapshots):
        if ns < 1:
            raise InvalidInputError("snapshot counts must be >= 1")
        # sqerr[cell][method][trial]; NaN marks a failed estimation
        sqerr = np.full((n_cells, n_methods, config.n_trials), np.nan)

        for trial in range(config.n_trials):
            pipe.run_trial(trial, ns, ns_idx, sqerr)

        for c_idx, cell in enumerate(pipe.cells):
            crb = pipe.crb_db(crb_sse[c_idx], ns)
            for m_idx, method in enumerate(config.methods):
                values = sqerr[c_idx, m_idx]
                good = values[~np.isnan(values)]
                failures = int(np.isnan(values).sum())
                nmse = (
                    nmse_db(float(good.sum()), good.size, pipe.p_norm, config.nmse_squared_norm)
                    if good.size
                    else None
                )
                rows.append(
                    {
                        "n_snapshots": ns,
                        "method": method,
                        "sampler": cell[0],
                        "compression": cell[1],
                        "nmse_db": nmse,
                        "crb_db": crb,
                        "failures": failures,
                    }
                )
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        nmse_db = "" if row["nmse_db"] is None else repr(row["nmse_db"])
        crb_db = "" if row["crb_db"] is None else repr(row["crb_db"])
        lines.append(
            f"{row['n_snapshots']},{row['method']},{row['compression']!r},{nmse_db},{crb_db},{row['failures']}"
        )
    return "\n".join(lines) + "\n"
