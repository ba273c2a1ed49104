"""Monte-Carlo NMSE experiment harness.

Runs generate -> subsample -> estimate trials over a grid of snapshot
counts, samplers, and estimation methods, and writes a plot-ready CSV.
Per-trial seeds are derived from the master seed by counter, and one
data realization is shared by every cell of a trial and one covariance
and linear system by every method of a cell (paired comparisons). Trials
run one after another, with numpy's BLAS pinned to one thread, so output
is byte-identical for a fixed config at any thread setting.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass

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
MA_NNLS_REFUSED = (
    "nnls constrains the parameters to be nonnegative, but a moving-average model's "
    "parameters are the coefficients b = h * h, which may be negative; use ls or wls"
)
# The keys each sampler kind takes besides "kind"; any other key is refused.
SAMPLER_KEYS = {
    "full": ("name",),
    "explicit": ("name", "selected"),
    "greedy": ("name", "k"),
    "ruler": ("name", "marks"),
    "ar-core": ("name", "core", "k0"),
}
# The keys each model and signal kind takes besides "kind", by config section.
SECTION_KEYS = {
    "model": {"spectral": (), "ma": ("q",), "ar": ("p",)},
    "signal": {"ma": ("h",), "ar": ("a",)},
}


_REQUIRED = object()


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


def _refuse_repeat(values, what: str) -> None:
    """Refuse a value that repeats: a CSV row is keyed by (n_snapshots, method, sampler)."""
    seen = set()
    for value in values:
        if value in seen:
            raise InvalidInputError(f"{what} {value!r} is given twice; the rows of the two could not be told apart")
        seen.add(value)


def _field(spec: dict, key: str, where: str, convert, default=_REQUIRED):
    """``convert(spec[key])``, or ``default`` when the value is missing or null.

    A missing value without a default, or one ``convert`` (``_int``,
    ``_ints`` or ``_floats``) cannot take, is refused by the name
    ``where.key``. Numbers must be finite, and integers JSON integers.
    """
    value = spec.get(key)
    if value is None:
        if default is _REQUIRED:
            raise InvalidInputError(
                f"{where}.{key} is required for {where} kind {spec.get('kind')!r}"
            )
        return default
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad {where}.{key} {value!r}: {exc}") from None


def make_graph(spec: dict) -> Graph:
    kind = spec.get("kind")
    if kind == "sensor":
        return sensor_graph(
            _field(spec, "n", "graph", _int),
            _field(spec, "seed", "graph", _int, 0),
            _field(spec, "knn", "graph", _int, 6),
        )
    if kind == "cycle":
        return cycle_graph(_field(spec, "n", "graph", _int))
    if kind == "mobius":
        return mobius_ladder(_field(spec, "n", "graph", _int))
    if kind == "path":
        return path_graph(_field(spec, "n", "graph", _int))
    if kind == "file":
        path = _field(spec, "path", "graph", str)
        if not os.path.exists(path):
            raise InvalidInputError(f"graph file not found: {path}")
        with open(path) as fh:
            return Graph.from_json(fh.read())
    raise InvalidInputError(f"unknown graph kind {kind!r}")


def check_keys(spec: dict, keys: dict, where: str) -> None:
    """Refuse a key of ``spec`` that its kind does not take, by ``keys[kind]``.

    ``keys`` is ``SAMPLER_KEYS`` or a table of ``SECTION_KEYS``. A kind
    the table does not know passes: it is refused where it is built.
    """
    kind = spec.get("kind")
    if not (isinstance(kind, str) and kind in keys):
        return
    unknown = sorted(set(spec) - {"kind", *keys[kind]})
    if unknown:
        raise InvalidInputError(
            f"{where} kind {kind!r} takes no key {unknown[0]!r}; its keys are {['kind', *keys[kind]]}"
        )


def make_model(shift: ShiftOperator, spec: dict) -> CovarianceModel:
    """Uncompressed model of ``spec``: ``{"kind": "spectral"}`` or ``{"kind": "ma", "q": Q}``."""
    kind = spec.get("kind")
    if kind == "spectral":
        return build_psi_spectral(shift.basis())
    if kind == "ma":
        return build_psi_ma(shift, _field(spec, "q", "model", _int))
    raise InvalidInputError(f"unknown model kind {kind!r}")


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
    covariances) WLS is plain LS. Autoregressive models are fitted by
    least squares only, and moving-average models refuse nnls.
    """
    if model.param_kind == AUTOREGRESSIVE:
        if method != LS:
            raise InvalidInputError("the autoregressive estimator is least squares only")
        return armod.estimate_ar(model, r_y)
    if model.param_kind == MOVING_AVERAGE and method == NNLS:
        raise InvalidInputError(MA_NNLS_REFUSED)
    if method == LS or (method == WLS and cov is None):
        return ls_estimate(model, r_y)
    if method == NNLS:
        return nnls_estimate(model, r_y)
    if method == WLS:
        return wls_estimate(model, r_y, cov)
    raise InvalidInputError(f"unknown method {method!r}")


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
    signal: dict  # {"kind": "ma", "h": [...]} or {"kind": "ar", "a": [...]}
    model: dict  # {"kind": "spectral"} | {"kind": "ma", "q": Q} | {"kind": "ar", "p": P}
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
        if not isinstance(self.samplers, (list, tuple)) or not all(
            isinstance(entry, dict) for entry in self.samplers
        ):
            raise InvalidInputError("samplers must be a list of objects")
        for section, keys in SECTION_KEYS.items():
            check_keys(getattr(self, section), keys, section)
        ar_model = self.model.get("kind") == "ar"
        for entry in self.samplers:
            if not isinstance(entry.get("name", ""), str):
                raise InvalidInputError(f"bad sampler.name {entry['name']!r}: expected a string")
            check_keys({"kind": "ar-core", **entry} if ar_model else entry, SAMPLER_KEYS, "sampler")
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
        if not self.methods:
            raise InvalidInputError("need at least one method")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise InvalidInputError(f"unknown methods {unknown}; choose from {list(METHODS)}")
        for what, values in (("method", self.methods), ("snapshot count", self.n_snapshots)):
            _refuse_repeat(values, what)
        if ar_model and any(m != LS for m in self.methods):
            raise InvalidInputError("the autoregressive estimator is least squares only")
        if self.model.get("kind") == "ma" and NNLS in self.methods:
            raise InvalidInputError(MA_NNLS_REFUSED)

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
        return Subsampler(n, _field(entry, "selected", "sampler", _ints))
    if kind == "greedy":
        problem = DesignProblem(psi=psi, k=_field(entry, "k", "sampler", _int))
        return greedy_design(problem).sampler
    if kind == "ruler":
        return ruler_sampler(n, _field(entry, "marks", "sampler", _ints, None))
    raise InvalidInputError(f"unknown sampler kind {kind!r}")


class _Pipeline:
    """Precomputed, immutable state shared by all trials of one experiment."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.graph = make_graph(config.graph)
        self.shift = build_shift(self.graph, config.shift)
        self.basis = self.shift.basis()
        n = self.shift.n

        sig = config.signal
        if sig.get("kind") == "ma":
            self.filt = GraphFilter(_field(sig, "h", "signal", _floats))
            self.ar_coeffs = None
            self.true_p = np.abs(frequency_response(self.basis.eigvals, self.filt)) ** 2
            self.true_cov = true_covariance(self.shift, self.filt).matrix
        elif sig.get("kind") == "ar":
            self.filt = None
            self.ar_coeffs = _field(sig, "a", "signal", _floats)
            self.true_p = armod.ar_power_spectrum(self.basis.eigvals, self.ar_coeffs)
            self.true_cov = armod.true_ar_covariance(self.shift, self.ar_coeffs).matrix
        else:
            raise InvalidInputError("signal kind must be 'ma' or 'ar'")
        self.p_norm = float(np.linalg.norm(self.true_p))
        if not (np.isfinite(self.p_norm) and self.p_norm > 0.0):
            raise InvalidInputError(f"signal {sig!r} has a zero or non-finite power spectrum")

        self.model_kind = config.model.get("kind")
        if self.model_kind == "ar":
            self.psi = None
            self.p_order = _field(config.model, "p", "model", _int)
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
                core = _field(entry, "core", "sampler", _ints, None)
                if core is None:
                    k0 = _field(entry, "k0", "sampler", _int, 1)
                    core = armod.core_by_degree(self.graph, k0)
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

    def run_trial(self, trial: int, ns: int, ns_idx: int, sqerr: np.ndarray) -> None:
        """Fill ``sqerr[:, :, trial]`` for one trial; NaN stays where an estimate failed."""
        if self.config.exact_covariance:
            data = None
        else:
            data = self.generate(ns, np.random.SeedSequence((self.config.seed, ns_idx, trial)))
        for c_idx, cell in enumerate(self.cells):
            self.estimate_cell(cell, data, sqerr[c_idx, :, trial])

    def estimate_cell(self, cell, data: SnapshotMatrix | None, out: np.ndarray) -> None:
        """Squared spectrum error of each method of one cell into ``out``; data=None for exact mode.

        The cell's covariance and its linear system ``(model, r_y)`` are
        built once and shared by all methods: the compressed covariance of
        the sampled nodes, or an AR scheme's covariance and the system built
        from it. An entry of ``out`` stays NaN where its estimate failed.
        """
        _, _, payload = cell
        try:
            if self.model_kind == "ar":
                scheme = payload
                if data is None:
                    cov = armod.true_ar_covariances(scheme, self.true_cov)
                else:
                    cov = armod.sample_ar_covariances(scheme, data)
                model, r_y = armod.build_ar_model(self.shift, scheme, cov)
            else:
                sampler, model = payload
                if data is None:
                    cov, r_y = None, vec(self.true_cov[np.ix_(sampler.selected, sampler.selected)])
                else:
                    cov = sample_covariance(data.rows(sampler.selected))
                    r_y = vec(cov.matrix)
        except (GraphCovError, np.linalg.LinAlgError):
            return  # every method of the cell fails
        for m_idx, method in enumerate(self.config.methods):
            try:
                theta = estimate(model, method, r_y, cov).theta
                err = model_spectrum(model, self.basis.eigvals, theta) - self.true_p
            except (GraphCovError, np.linalg.LinAlgError):
                continue
            out[m_idx] = float(err @ err)

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

            for trial in range(config.n_trials):
                pipe.run_trial(trial, ns, ns_idx, sqerr)

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
