"""Monte-Carlo NMSE experiment harness.

Runs generate -> subsample -> estimate trials over a grid of snapshot
counts, samplers, and estimation methods, and writes a plot-ready CSV.
Per-trial seeds are derived from the master seed by counter. A trial
realises the nodes some cell reads once and forms one sample covariance
of them; every spectral or moving-average cell reads its principal
submatrix, and every method of a cell reads that (paired comparisons).
LS and NNLS run per trial. WLS runs once per cell on the stacked
covariances of a block of trials (all of a snapshot count's trials,
unless they are more than :func:`~graphcov.estimators.trial_blocks`
allows at once). An autoregressive trial builds its own system from its
data and runs per trial. Trials run one after another, with numpy's BLAS
pinned to one thread, so output is byte-identical for a fixed config at
any thread setting.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import ar as armod
from ._blas import one_blas_thread
from .design import DesignProblem, greedy_design, is_sparse_ruler, minimal_sparse_ruler
from .errors import GraphCovError, InvalidInputError, NumericalError, RankDeficiencyError
from .estimators import (
    LS,
    NNLS,
    WLS,
    EstimationResult,
    fisher_info,
    ls_estimate,
    nmse_db,
    nnls_estimate,
    trial_blocks,
    wls_estimate,
)
from .graphs import (
    Graph,
    GraphFilter,
    ShiftOperator,
    _is_int,
    build_shift,
    cycle_graph,
    frequency_response,
    mobius_ladder,
    path_graph,
    sensor_graph,
)
from .models import (
    AUTOREGRESSIVE,
    MOVING_AVERAGE,
    CovarianceModel,
    ObservationModel,
    Subsampler,
    build_psi_ma,
    build_psi_spectral,
    compress_model,
    vec,
)
from .stationary import (
    CovarianceMatrix,
    SnapshotMatrix,
    generate_signals,
    sample_covariance,
    true_covariance,
)

CSV_HEADER = "n_snapshots,method,sampler,compression,nmse_db,crb_db,failures"
METHODS = (LS, NNLS, WLS)


def _int(value) -> int:
    if not _is_int(value):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return int(value)


def _ints(value) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list of integers, got {type(value).__name__}")
    return tuple(_int(v) for v in value)


def _floats(value) -> np.ndarray:
    if isinstance(value, str):
        raise TypeError("expected a number or a list of numbers, got a string")
    values = np.atleast_1d(np.asarray(value, dtype=float))
    if not np.all(np.isfinite(values)):
        raise ValueError("expected finite numbers")
    return values


class Kind(NamedTuple):
    """One kind of a config section."""

    keys: dict = {}  # besides "kind": key: (convert,) when required, key: (convert, default) when not
    build: Callable | None = None  # a generated graph's builder; it defaults a key left out or None
    refuses: dict = {}  # the methods a model kind refuses: method: why


_NAME = {"name": (str, None)}
# Every kind of every config section; a key its kind does not list is refused.
KINDS = {
    "graph": {
        "sensor": Kind({"n": (_int,), "seed": (_int, None), "knn": (_int, None)}, sensor_graph),
        "cycle": Kind({"n": (_int,)}, cycle_graph),
        "mobius": Kind({"n": (_int,)}, mobius_ladder),
        "path": Kind({"n": (_int,)}, path_graph),
        "file": Kind({"path": (str,)}),
    },
    "signal": {"ma": Kind({"h": (_floats,)}), "ar": Kind({"a": (_floats,)})},
    "model": {
        "spectral": Kind(),
        "ma": Kind({"q": (_int,)}, refuses={NNLS: (
            "nnls constrains the parameters to be nonnegative, but a moving-average model's "
            "parameters are the coefficients b = h * h, which may be negative; use ls or wls"
        )}),
        "ar": Kind(
            {"p": (_int,)}, refuses=dict.fromkeys((NNLS, WLS), "the autoregressive estimator is least squares only")
        ),
    },
    "sampler": {
        "full": Kind(_NAME),
        "explicit": Kind({**_NAME, "selected": (_ints,)}),
        "greedy": Kind({**_NAME, "k": (_int,)}),
        "ruler": Kind({**_NAME, "marks": (_ints, None)}),
        "ar-core": Kind({**_NAME, "core": (_ints, None), "k0": (_int, 1)}),
    },
}


def _refuse_repeat(values, what: str) -> None:
    """Refuse a value that repeats: a CSV row is keyed by (n_snapshots, method, sampler)."""
    seen = set()
    for value in values:
        if value in seen:
            raise InvalidInputError(f"{what} {value!r} is given twice; the rows of the two could not be told apart")
        seen.add(value)


def fields(spec: dict, section: str) -> dict:
    """Every key of ``spec``'s kind in ``KINDS[section]``, converted, or its default when missing or null.

    Refused: an unknown kind, a key the kind does not take, a missing key
    without a default and a value its converter cannot take, each key by
    its name ``section.key``. Numbers must be finite, integers JSON integers.
    """
    kind = KINDS[section].get(spec.get("kind")) if isinstance(spec.get("kind"), str) else None
    if kind is None:
        raise InvalidInputError(f"unknown {section} kind {spec.get('kind')!r}")
    unknown = sorted(set(spec) - {"kind", *kind.keys})
    if unknown:
        raise InvalidInputError(
            f"{section} kind {spec['kind']!r} takes no key {unknown[0]!r}; its keys are {['kind', *kind.keys]}"
        )
    out = {}
    for key, (convert, *default) in kind.keys.items():
        value = spec.get(key)
        if value is None and not default:
            raise InvalidInputError(f"{section}.{key} is required for {section} kind {spec['kind']!r}")
        try:
            out[key] = default[0] if value is None else convert(value)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad {section}.{key} {value!r}: {exc}") from None
    return out


def make_graph(spec: dict) -> Graph:
    """The graph of a config's graph section, by its kind in ``KINDS["graph"]``; other keys are refused.

    A generated kind's builder gets the keys given and defaults the rest; a
    ``file`` graph is read from its ``path``, which must exist.
    """
    keys = {key: value for key, value in fields(spec, "graph").items() if value is not None}
    build = KINDS["graph"][spec["kind"]].build
    if build is not None:
        return build(**keys)
    if not os.path.exists(keys["path"]):
        raise InvalidInputError(f"graph file not found: {keys['path']}")
    with open(keys["path"]) as fh:
        return Graph.from_json(fh.read())


def _check_methods(kind: Kind, methods) -> None:
    """Refuse an unknown method, and one the model kind ``kind`` refuses, for its reason."""
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise InvalidInputError(f"unknown methods {unknown}; choose from {list(METHODS)}")
    refused = [kind.refuses[m] for m in methods if m in kind.refuses]
    if refused:
        raise InvalidInputError(refused[0])


def make_model(shift: ShiftOperator, spec: dict) -> CovarianceModel:
    """Uncompressed model of ``spec``: ``{"kind": "spectral"}`` or ``{"kind": "ma", "q": Q}``."""
    keys = fields(spec, "model")
    if spec["kind"] == "spectral":
        return build_psi_spectral(shift.basis())
    if spec["kind"] == "ma":
        return build_psi_ma(shift, keys["q"])
    raise InvalidInputError(f"unknown model kind {spec['kind']!r}")


def ruler_sampler(n: int, marks=None) -> Subsampler:
    """Sampler on sparse-ruler marks: the given ones, checked, or the minimal ruler for n."""
    if marks is None:
        marks = minimal_sparse_ruler(n)
    elif not is_sparse_ruler(marks, n):
        raise InvalidInputError(f"marks {tuple(marks)} are not a sparse ruler for n={n}")
    return Subsampler(n, tuple(marks))


def estimate(
    model: ObservationModel, method: str, r_y, cov: CovarianceMatrix | None
) -> EstimationResult:
    """Parameters of ``model`` from the observed ``r_y`` by ``method`` (ls, nnls or wls).

    ``cov`` is the sample covariance WLS weights with; without one (exact
    covariances) WLS is plain LS. A method the model's kind refuses in
    ``KINDS["model"]`` is refused: autoregressive models are fitted by
    least squares only, and moving-average models refuse nnls.
    """
    kind = {MOVING_AVERAGE: "ma", AUTOREGRESSIVE: "ar"}.get(model.param_kind, model.param_kind)
    _check_methods(KINDS["model"][kind], [method])
    if model.param_kind == AUTOREGRESSIVE:
        return armod.estimate_ar(model, r_y)
    if method == LS or (method == WLS and cov is None):
        return ls_estimate(model, r_y)
    if method == NNLS:
        return nnls_estimate(model, r_y)
    return wls_estimate(model, r_y, cov)


def model_spectrum(model: ObservationModel, eigvals: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Power spectrum of theta, one value per graph frequency: ``T theta`` for a model with a map T."""
    if model.param_kind == AUTOREGRESSIVE:
        return armod.ar_power_spectrum(eigvals, theta)
    return np.asarray(theta) if model.param_map is None else model.param_map @ theta


@dataclass
class ExperimentConfig:
    """Declarative description of one NMSE experiment."""

    graph: dict
    shift: str
    signal: dict  # graph, signal, model and each sampler: a kind in KINDS and its keys
    model: dict
    samplers: list
    methods: list
    n_snapshots: list
    n_trials: int
    seed: int = 0
    exact_covariance: bool = False
    output: str | None = None

    def __post_init__(self):
        for section in ("graph", "signal", "model"):
            if not isinstance(getattr(self, section), dict):
                raise InvalidInputError(f"config section {section!r} must be an object")
            fields(getattr(self, section), section)
        if not isinstance(self.samplers, (list, tuple)) or not all(
            isinstance(entry, dict) for entry in self.samplers
        ):
            raise InvalidInputError("samplers must be a list of objects")
        ar_model = self.model.get("kind") == "ar"
        for entry in self.samplers:
            if not isinstance(entry.get("name", ""), str):
                raise InvalidInputError(f"bad sampler.name {entry['name']!r}: expected a string")
            fields({"kind": "ar-core", **entry} if ar_model else entry, "sampler")
        if not isinstance(self.exact_covariance, bool):
            raise InvalidInputError(
                f"exact_covariance must be true or false, got {self.exact_covariance!r}"
            )
        if not (self.output is None or isinstance(self.output, str)):
            raise InvalidInputError(f"output must be a file path or null, got {self.output!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise InvalidInputError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.n_snapshots, (list, tuple)) or not self.n_snapshots:
            raise InvalidInputError("snapshot grid must be a non-empty list")
        if not all(_is_int(ns) and ns >= 1 for ns in self.n_snapshots):
            raise InvalidInputError(
                f"snapshot counts must be >= 1 and whole, got n_snapshots {self.n_snapshots!r}"
            )
        if not (_is_int(self.n_trials) and self.n_trials >= 1):
            raise InvalidInputError(f"n_trials must be a whole number >= 1, got {self.n_trials!r}")
        if not self.samplers:
            raise InvalidInputError("need at least one sampler")
        if not isinstance(self.methods, (list, tuple)) or not self.methods:
            raise InvalidInputError(f"methods must be a non-empty list of method names, got {self.methods!r}")
        _check_methods(KINDS["model"][self.model["kind"]], self.methods)
        for what, values in (("method", self.methods), ("snapshot count", self.n_snapshots)):
            _refuse_repeat(values, what)

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
    keys, kind = fields(entry, "sampler"), entry["kind"]
    if kind == "full":
        return Subsampler.full(n)
    if kind == "explicit":
        return Subsampler(n, keys["selected"])
    if kind == "greedy":
        return greedy_design(DesignProblem(psi=psi, k=keys["k"])).sampler
    if kind == "ruler":
        return ruler_sampler(n, keys["marks"])
    raise InvalidInputError(f"unknown sampler kind {kind!r}")


class _Pipeline:
    """Precomputed, immutable state shared by all trials of one experiment."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.graph = make_graph(config.graph)
        self.shift = build_shift(self.graph, config.shift)
        self.basis = self.shift.basis()
        n = self.shift.n

        sig, keys = config.signal, fields(config.signal, "signal")
        if sig["kind"] == "ma":
            self.filt = GraphFilter(keys["h"])
            self.ar_coeffs = None
            self.true_p = np.abs(frequency_response(self.basis.eigvals, self.filt)) ** 2
            self.true_cov = true_covariance(self.shift, self.filt).matrix
        else:
            self.filt = None
            self.ar_coeffs = keys["a"]
            self.true_p = armod.ar_power_spectrum(self.basis.eigvals, self.ar_coeffs)
            self.true_cov = armod.true_ar_covariance(self.shift, self.ar_coeffs).matrix
        self.p_norm = float(np.linalg.norm(self.true_p))
        if not (np.isfinite(self.p_norm) and self.p_norm > 0.0):
            raise InvalidInputError(f"signal {sig!r} has a zero or non-finite power spectrum")

        self.model_kind = config.model.get("kind")
        if self.model_kind == "ar":
            self.psi = None
            self.p_order = fields(config.model, "model")["p"]
        else:
            self.psi = make_model(self.shift, config.model)

        self.cells = []  # (name, compression, compressed model or AR scheme)
        observed = set()  # the nodes some cell reads
        for entry in config.samplers:
            if self.model_kind == "ar":
                if entry.get("kind", "ar-core") != "ar-core":
                    raise InvalidInputError(
                        "the autoregressive model samples cores plus neighborhoods; "
                        f"use sampler kind 'ar-core', not {entry.get('kind')!r}"
                    )
                keys = fields({"kind": "ar-core", **entry}, "sampler")
                core = armod.core_by_degree(self.graph, keys["k0"]) if keys["core"] is None else keys["core"]
                scheme = armod.build_ar_scheme(self.shift, core, self.p_order)
                observed.update(scheme.distinct_nodes)
                compression = 1.0 - len(scheme.distinct_nodes) / n
                name = entry.get("name", f"ar-core-{len(scheme.core)}")
                self.cells.append((name, compression, scheme))
            else:
                sampler = _resolve_sampler(entry, self.psi, n)
                compressed = compress_model(self.psi, sampler)
                if not compressed.full_column_rank:
                    raise RankDeficiencyError(
                        f"sampler {entry!r} is not a valid covariance subsampler "
                        f"(rank {compressed.rank} of {compressed.n_params})",
                        rank=compressed.rank,
                    )
                observed.update(sampler.selected)
                compression = 1.0 - sampler.k / n
                name = entry.get("name", f"k{sampler.k}")
                self.cells.append((name, compression, (sampler, compressed)))
        _refuse_repeat([cell[0] for cell in self.cells], "sampler name")
        self.observed_nodes = tuple(sorted(observed))
        # each node cell's rows of the trial covariance of observed_nodes
        where = {node: idx for idx, node in enumerate(self.observed_nodes)}
        self.positions = [
            None if self.model_kind == "ar" else np.array([where[node] for node in cell[2][0].selected])
            for cell in self.cells
        ]

    # -- per-trial work ---------------------------------------------------

    def generate(self, n_snapshots: int, seed) -> SnapshotMatrix:
        """One trial's realization of ``observed_nodes``, the nodes some cell reads.

        Both signal kinds draw the noise on all N nodes and apply only the
        transfer rows of those nodes, so a trial holds only the rows its cells read.
        """
        nodes = self.observed_nodes
        if self.ar_coeffs is not None:
            data = armod.generate_ar_signals(self.shift, self.ar_coeffs, n_snapshots, seed, nodes)
        else:
            data = generate_signals(self.shift, self.filt, n_snapshots, seed, nodes)
        return SnapshotMatrix(data, nodes)

    def run_trial(self, trial: int, ns: int, ns_idx: int, sqerr: np.ndarray) -> CovarianceMatrix | None:
        """Fill ``sqerr[:, :, trial]`` for the methods that run per trial; NaN stays where an estimate failed.

        Returns the trial's sample covariance of ``observed_nodes``, whose
        principal submatrices :meth:`weigh_trials` stacks for WLS; None in
        exact mode (where WLS is LS and runs here), for an autoregressive
        model, and when the covariance is refused, which fails every cell
        of the trial.
        """
        if self.config.exact_covariance:
            data = None
        else:
            data = self.generate(ns, np.random.SeedSequence((self.config.seed, ns_idx, trial)))
        cov = None
        if data is not None and self.model_kind != "ar":
            try:
                cov = sample_covariance(data)
            except GraphCovError:
                return None
        for c_idx, cell in enumerate(self.cells):
            self.estimate_cell(cell, self.positions[c_idx], data, cov, sqerr[c_idx, :, trial])
        return cov

    def estimate_cell(
        self, cell, positions, data: SnapshotMatrix | None, cov: CovarianceMatrix | None, out: np.ndarray
    ) -> None:
        """Squared spectrum error of each per-trial method of one cell into ``out``; data=None for exact mode.

        The cell's linear system ``(model, r_y)`` is built once and shared
        by its methods: from the principal submatrix on ``positions`` of the
        trial covariance ``cov``, from the true covariance in exact mode, or
        from an AR scheme's covariance of the data. WLS of sampled data is
        left to :meth:`weigh_trials`. An entry of ``out`` stays NaN where its
        estimate failed.
        """
        _, _, payload = cell
        try:
            if self.model_kind == "ar":
                scheme = payload
                if data is None:
                    ar_cov = armod.true_ar_covariances(scheme, self.true_cov)
                else:
                    ar_cov = armod.sample_ar_covariances(scheme, data)
                model, r_y = armod.build_ar_model(self.shift, scheme, ar_cov)
            else:
                sampler, model = payload
                if data is None:
                    r_y = vec(self.true_cov[np.ix_(sampler.selected, sampler.selected)])
                else:
                    r_y = vec(cov.matrix[np.ix_(positions, positions)])
        except (GraphCovError, np.linalg.LinAlgError):
            return  # every method of the cell fails
        for m_idx, method in enumerate(self.config.methods):
            if method == WLS and data is not None:
                continue
            try:
                theta = estimate(model, method, r_y, None).theta  # no weight: exact-mode WLS is LS
                out[m_idx] = self.squared_error(model, theta)
            except (GraphCovError, np.linalg.LinAlgError):
                continue

    def weigh_trials(self, trials, covs: list, sqerr: np.ndarray) -> None:
        """WLS of every node cell for ``trials``, one stacked call per cell, into ``sqerr``.

        ``covs`` are the trials' covariances from :meth:`run_trial`; a
        trial whose covariance is None is skipped. Each cell weighs with the
        principal submatrices on its positions, and a trial whose solve
        fails alone stays NaN.
        """
        kept = [(trial, cov) for trial, cov in zip(trials, covs) if cov is not None]
        if WLS not in self.config.methods or not kept:
            return
        m_idx = self.config.methods.index(WLS)
        for c_idx, (_, _, (_, model)) in enumerate(self.cells):
            weights = CovarianceMatrix.principal([cov for _, cov in kept], self.positions[c_idx])
            r_y = vec(weights.matrix)
            try:
                thetas = wls_estimate(model, r_y, weights).theta
            except (GraphCovError, np.linalg.LinAlgError):
                continue
            for (trial, _), theta in zip(kept, thetas):
                if not np.isnan(theta).any():
                    sqerr[c_idx, m_idx, trial] = self.squared_error(model, theta)

    def squared_error(self, model: ObservationModel, theta: np.ndarray) -> float:
        err = model_spectrum(model, self.basis.eigvals, theta) - self.true_p
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
            info = fisher_info(model, CovarianceMatrix(r_true, kind="true"), 1)
        except NumericalError:
            return None
        cov_p, t = info.crb, model.param_map
        if t is not None:
            cov_p = t @ cov_p @ t.T
        return float(np.trace(cov_p))

    def crb_db(self, crb_sse: float | None, n_snapshots: int) -> float | None:
        """CRB at N_s snapshots on the NMSE scale, from :meth:`crb_sse`."""
        if crb_sse is None:
            return None
        return nmse_db(crb_sse / n_snapshots, 1, self.p_norm)


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Run all cells and return one result row per (n_snapshots, sampler, method).

    For each snapshot count the trials run in the blocks of
    :func:`~graphcov.estimators.trial_blocks` (one block unless there are
    more than ``_BLOCK_ROWS // N``): each trial of a block realises its
    data, forms one covariance and runs LS and NNLS per cell
    (:meth:`_Pipeline.run_trial`); then WLS runs once per cell on the
    block's stacked covariances (:meth:`_Pipeline.weigh_trials`).
    numpy's OpenBLAS runs on one thread for the whole call, whatever
    ``OPENBLAS_NUM_THREADS`` says (see :mod:`graphcov._blas`), so the rows
    are byte-identical for a fixed config at any thread setting. The
    caller's thread count is restored on return and on an exception.
    """
    with one_blas_thread():
        pipe = _Pipeline(config)
        n_cells = len(pipe.cells)
        n_methods = len(config.methods)
        crb_sse = [pipe.crb_sse(cell) for cell in pipe.cells]
        rows = []
        for ns_idx, ns in enumerate(config.n_snapshots):
            # sqerr[cell][method][trial]; NaN marks a failed estimation
            sqerr = np.full((n_cells, n_methods, config.n_trials), np.nan)

            for trials in trial_blocks(config.n_trials, pipe.shift.n):
                covs = [pipe.run_trial(trial, ns, ns_idx, sqerr) for trial in trials]
                pipe.weigh_trials(trials, covs, sqerr)

            for c_idx, cell in enumerate(pipe.cells):
                crb = pipe.crb_db(crb_sse[c_idx], ns)
                for m_idx, method in enumerate(config.methods):
                    values = sqerr[c_idx, m_idx]
                    good = values[~np.isnan(values)]
                    failures = int(np.isnan(values).sum())
                    nmse = nmse_db(float(good.sum()), good.size, pipe.p_norm) if good.size else None
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
    """The rows as CSV under ``CSV_HEADER``; a sampler name holding a comma or quote is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for row in rows:
        numbers = ["" if row[key] is None else repr(row[key]) for key in ("compression", "nmse_db", "crb_db")]
        writer.writerow([row["n_snapshots"], row["method"], row["sampler"], *numbers, row["failures"]])
    return out.getvalue()
