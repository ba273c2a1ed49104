"""Monte-Carlo NMSE experiment harness.

Runs generate -> subsample -> estimate trials over a grid of snapshot
counts, samplers, and estimation methods, and writes a plot-ready CSV.
Per-trial seeds are derived from the master seed by counter. Set-up
resolves what every trial shares: the signal and its kind, the true
covariance ``H_O H_O^T`` of the observed nodes O (the nodes some cell
reads), and each cell's model, the positions of its nodes in that
covariance and its CRB. Every estimate, here and in the CLI, is one call
of :func:`estimate` on the system of :func:`cell_system`. The shift keeps
the transfer rows ``H_O``. An exact-covariance study is estimated at
set-up: each cell once, on its block of the true covariance, with WLS as
LS, and every trial of every snapshot count repeats that estimate, so it
runs no trials. A sampled trial realises O once (one noise draw and one
product) and forms one sample covariance of it; the covariances of a
block of trials (all of a snapshot count's trials, unless they are more
than :func:`~graphcov.estimators.trial_blocks` allows at once) are
checked once, as a stack. Every read of a covariance, true or sampled,
cuts the cell's principal block by its positions, and every method of a
cell reads that (paired comparisons). LS and NNLS run per trial; WLS
runs once per cell on the block's stack. An autoregressive trial builds
its own system from its data and runs per trial. Trials run one after
another, with numpy's BLAS pinned to one thread, so output is
byte-identical for a fixed config at any thread setting.
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
    SPECTRAL,
    CovarianceModel,
    ObservationModel,
    Subsampler,
    build_psi_ma,
    build_psi_spectral,
    compress_model,
    vec,
)
from .stationary import (
    SAMPLE,
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
    samplers: tuple = ()  # the sampler kinds a model kind takes; the only one is an entry's default


_NAME = {"name": (str, None)}
_NODE_SAMPLERS = ("full", "explicit", "greedy", "ruler")
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
        SPECTRAL: Kind(samplers=_NODE_SAMPLERS),
        MOVING_AVERAGE: Kind({"q": (_int,)}, refuses={NNLS: (
            "nnls constrains the parameters to be nonnegative, but a moving-average model's "
            "parameters are the coefficients b = h * h, which may be negative; use ls or wls"
        )}, samplers=_NODE_SAMPLERS),
        AUTOREGRESSIVE: Kind({"p": (_int,)}, samplers=("ar-core",), refuses=dict.fromkeys(
            (NNLS, WLS), "the autoregressive estimator is least squares only"
        )),
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
    if spec["kind"] == SPECTRAL:
        return build_psi_spectral(shift.basis())
    if spec["kind"] == MOVING_AVERAGE:
        return build_psi_ma(shift, keys["q"])
    raise InvalidInputError("the autoregressive model has no uncompressed model; ar.build_ar_model builds its system")


def ruler_sampler(n: int, marks=None) -> Subsampler:
    """Sampler on sparse-ruler marks: the given ones, checked, or the minimal ruler for n."""
    if marks is None:
        marks = minimal_sparse_ruler(n)
    elif not is_sparse_ruler(marks, n):
        raise InvalidInputError(f"marks {tuple(marks)} are not a sparse ruler for n={n}")
    return Subsampler(n, tuple(marks))


def estimate(model: ObservationModel, method: str, r_y, cov: CovarianceMatrix | None) -> EstimationResult:
    """Parameters of ``model`` from the observed ``r_y`` by ``method`` (ls, nnls or wls).

    The one place a method name turns into an estimator call, for the
    study and the CLI alike. ``cov`` is the sample covariance WLS weights
    with; without one (exact covariances) WLS is plain LS. A method the
    model's kind refuses in ``KINDS["model"]`` is refused: autoregressive
    models are fitted by least squares only, and moving-average models
    refuse nnls.
    """
    _check_methods(KINDS["model"][model.param_kind], [method])
    if model.param_kind == AUTOREGRESSIVE:
        return armod.estimate_ar(model, r_y)
    if method == WLS and cov is not None:
        return wls_estimate(model, r_y, cov)
    return nnls_estimate(model, r_y) if method == NNLS else ls_estimate(model, r_y)


def cell_system(shift: ShiftOperator, payload, cov: np.ndarray) -> tuple[ObservationModel, np.ndarray]:
    """The linear system ``(model, r_y)`` of a cell from ``cov``, a covariance of the cell's nodes.

    ``payload`` is the cell's compressed model, which observes ``vec`` of
    ``cov``, or its AR scheme, whose stacked system is built from ``cov``
    (:func:`graphcov.ar.build_ar_model`).
    """
    if isinstance(payload, armod.ARSamplingScheme):
        return armod.build_ar_model(shift, payload, cov)
    return payload, vec(cov)


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
        for entry in self.samplers:
            if not isinstance(entry.get("name", ""), str):
                raise InvalidInputError(f"bad sampler.name {entry['name']!r}: expected a string")
            _sampler_keys(self.model["kind"], entry)
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
        if not isinstance(obj, dict):
            raise InvalidInputError("experiment config must be a JSON object")
        try:
            return cls(**obj)
        except TypeError as exc:
            raise InvalidInputError(f"bad experiment config fields: {exc}") from exc


def _sampler_keys(model_kind: str, entry: dict) -> dict:
    """The keys of a sampler entry under a model of kind ``model_kind``; a kind the model does not take is refused.

    The model's row of ``KINDS["model"]`` lists the sampler kinds it
    takes; an entry without a kind defaults to the only one, if the model
    takes one only (``ar-core`` under ``ar``). ``core`` and ``k0`` each
    choose the core, so an entry giving both is refused, naming both.
    """
    kinds = KINDS["model"][model_kind].samplers
    entry = {"kind": kinds[0], **entry} if len(kinds) == 1 else entry
    if entry.get("kind") not in kinds:
        raise InvalidInputError(f"model kind {model_kind!r} takes sampler kinds {[*kinds]}, not {entry.get('kind')!r}")
    keys = fields(entry, "sampler")
    if entry.get("core") is not None and entry.get("k0") is not None:
        raise InvalidInputError(
            f"sampler.core {entry['core']!r} and sampler.k0 {entry['k0']!r} both choose the core; give one"
        )
    return keys


def ar_core(graph: Graph, entry: dict) -> tuple[int, ...]:
    """Core of an ``ar-core`` sampler entry: its ``core``, or else the ``k0`` highest-degree nodes.

    ``k0`` defaults as ``KINDS["sampler"]["ar-core"]`` says; an entry
    giving both keys is refused.
    """
    keys = _sampler_keys(AUTOREGRESSIVE, entry)
    return armod.core_by_degree(graph, keys["k0"]) if keys["core"] is None else keys["core"]


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
    return ruler_sampler(n, keys["marks"])


class _Cell(NamedTuple):
    """One sampler of a study, with what its trials read, resolved at set-up.

    Its nodes are a sampler's selected nodes or an AR scheme's distinct nodes.
    """

    name: str
    compression: float  # 1 - |nodes| / N
    payload: ObservationModel | armod.ARSamplingScheme  # compressed model, or an AR scheme
    positions: np.ndarray  # its nodes' rows of the covariance of observed_nodes; every read cuts by them
    crb_sse: float | None  # squared spectrum error at the CRB for one snapshot; None for an AR cell
    exact_sse: np.ndarray  # each method's squared error on the true covariance; NaN if it failed or not exact


class _Pipeline:
    """Precomputed, immutable state shared by all trials of one experiment.

    Set-up decides each mode once: the signal's kind picks the true
    spectrum, covariance and generator, the model's kind the cells, and an
    exact-covariance study estimates every cell here (:attr:`_Cell.exact_sse`).
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.graph = make_graph(config.graph)
        self.shift = build_shift(self.graph, config.shift)
        self.basis = self.shift.basis()
        n = self.shift.n

        self.signal_kind, keys = config.signal["kind"], fields(config.signal, "signal")
        if self.signal_kind == "ma":
            self.signal = GraphFilter(keys["h"])
            self.true_p = np.abs(frequency_response(self.basis.eigvals, self.signal)) ** 2
        else:
            self.signal = keys["a"]
            self.true_p = armod.ar_power_spectrum(self.basis.eigvals, self.signal)
        self.p_norm = float(np.linalg.norm(self.true_p))
        if not (np.isfinite(self.p_norm) and self.p_norm > 0.0):
            raise InvalidInputError(f"signal {config.signal!r} has a zero or non-finite power spectrum")

        self.model_kind = config.model.get("kind")
        if self.model_kind == "ar":
            self.psi = None
            self.p_order = fields(config.model, "model")["p"]
        else:
            self.psi = make_model(self.shift, config.model)

        resolved = []  # (name, nodes, compressed model or AR scheme)
        for entry in config.samplers:
            if self.model_kind == "ar":
                scheme = armod.build_ar_scheme(self.shift, ar_core(self.graph, entry), self.p_order)
                resolved.append((entry.get("name", f"ar-core-{len(scheme.core)}"), scheme.distinct_nodes, scheme))
            else:
                sampler = _resolve_sampler(entry, self.psi, n)
                compressed = compress_model(self.psi, sampler)
                if not compressed.full_column_rank:
                    raise RankDeficiencyError(
                        f"sampler {entry!r} is not a valid covariance subsampler "
                        f"(rank {compressed.rank} of {compressed.n_params})",
                        rank=compressed.rank,
                    )
                resolved.append((entry.get("name", f"k{sampler.k}"), sampler.selected, compressed))
        _refuse_repeat([name for name, _, _ in resolved], "sampler name")
        self.observed_nodes = tuple(sorted(set().union(*(nodes for _, nodes, _ in resolved))))
        # H_O H_O^T of the observed nodes O; the shift keeps H_O for the trials' realisations
        true_cov = true_covariance if self.signal_kind == "ma" else armod.true_ar_covariance
        self.true_cov = true_cov(self.shift, self.signal, self.observed_nodes).matrix

        # (index, method) of each method estimate_cell runs: sampled WLS runs per block, exact WLS is LS
        self.methods = [
            (m_idx, method) for m_idx, method in enumerate(config.methods) if method != WLS or config.exact_covariance
        ]
        self.wls_index = config.methods.index(WLS) if WLS in config.methods else None
        self.cells = []
        # the loop keeps ``entry``, unread here: bench/tracing.py names the cell of a Fisher call by it
        for entry, (name, nodes, payload) in zip(config.samplers, resolved):
            positions = np.searchsorted(self.observed_nodes, nodes)
            crb_sse = None if self.model_kind == "ar" else self.crb_sse(payload, positions)
            cell = _Cell(name, 1.0 - len(nodes) / n, payload, positions, crb_sse, np.full(len(config.methods), np.nan))
            if config.exact_covariance:  # every trial of every snapshot count repeats this estimate
                self.estimate_cell(cell, self.true_cov, cell.exact_sse)
            self.cells.append(cell)

    # -- per-trial work ---------------------------------------------------

    def seed(self, ns_idx: int, trial: int) -> np.random.SeedSequence:
        """Seed of one trial: the master seed, the snapshot count's index and the trial, by counter."""
        return np.random.SeedSequence((self.config.seed, ns_idx, trial))

    def generate(self, n_snapshots: int, seed) -> np.ndarray:
        """One trial's realization of ``observed_nodes``, the nodes some cell reads, one row per node.

        The signal's kind picks the generator. Both kinds draw the noise on
        all N nodes and apply only the transfer rows of those nodes, which
        the shift keeps after the first use, so a trial costs one draw and
        one product.
        """
        generate = generate_signals if self.signal_kind == "ma" else armod.generate_ar_signals
        return generate(self.shift, self.signal, n_snapshots, seed, self.observed_nodes)

    def run_block(self, trials: range, ns: int, ns_idx: int, sqerr: np.ndarray) -> None:
        """Every estimate of the sampled trials ``trials`` at ``ns`` snapshots into ``sqerr``.

        Spectral or moving-average trials form their covariances as one
        checked stack (:meth:`sample_block`); each trial then runs its
        per-trial methods on its member of the stack (:meth:`run_trial`),
        and WLS runs once per cell on the stack (:meth:`weigh_trials`).
        Autoregressive trials realise their snapshots and run one by one.
        """
        if self.model_kind == "ar":
            for trial in trials:  # passed, not held: a trial's snapshots are freed before the next is drawn
                self.run_trial(
                    trial, ns, SnapshotMatrix(self.generate(ns, self.seed(ns_idx, trial)), self.observed_nodes), sqerr
                )
            return
        kept, covs = self.sample_block(trials, ns, ns_idx)
        if covs is None:
            return
        for trial, cov in zip(kept, covs.matrix):
            self.run_trial(trial, ns, cov, sqerr)
        self.weigh_trials(kept, covs, sqerr)

    def sample_block(self, trials, ns: int, ns_idx: int) -> tuple[list, CovarianceMatrix | None]:
        """The trials of ``trials`` whose sample covariance is accepted, and those covariances as one stack.

        Each trial realises ``observed_nodes`` and its product is formed as
        it comes (:func:`sample_covariance` of a generator), so one trial's
        data is held at a time; the stack is checked once. When the stack
        is refused the block is redone one trial at a time, so only a trial
        whose own covariance is refused, such as one with a non-finite
        realization, is left out. With none accepted the stack is None.
        """

        def realise(block):
            for trial in block:
                yield self.generate(ns, self.seed(ns_idx, trial))

        try:
            return list(trials), sample_covariance(realise(trials))
        except GraphCovError:
            pass
        kept, members = [], []
        for trial in trials:
            try:
                members.append(sample_covariance(realise([trial])).matrix)
            except GraphCovError:
                continue
            kept.append(trial)
        return kept, CovarianceMatrix(np.concatenate(members), kind=SAMPLE, n_snapshots=ns) if kept else None

    def run_trial(self, trial: int, ns: int, data: np.ndarray | SnapshotMatrix, sqerr: np.ndarray) -> None:
        """Fill ``sqerr[:, :, trial]`` for the methods that run per trial; NaN stays where an estimate failed.

        ``data`` is the trial's sample covariance of ``observed_nodes``, its
        member of the block's stack (:meth:`sample_block`), or an
        autoregressive trial's snapshots. ``ns`` is unread here:
        bench/tracing.py names the snapshot count of a call by it.
        """
        for c_idx, cell in enumerate(self.cells):
            self.estimate_cell(cell, data, sqerr[c_idx, :, trial])

    def estimate_cell(self, cell: _Cell, data: np.ndarray | SnapshotMatrix, out: np.ndarray) -> None:
        """Squared spectrum error of one cell by each method in ``methods`` into ``out``.

        ``data`` is a covariance of ``observed_nodes`` (a trial's, or the
        true one at set-up of an exact study), whose :meth:`block` the cell
        reads, or a sampled autoregressive trial's :class:`SnapshotMatrix`,
        whose covariance of the scheme's nodes it forms. The cell's linear
        system (:func:`cell_system`) is built once and shared by its
        methods, each run by :func:`estimate` without a covariance: exact
        WLS is LS, and WLS of sampled data is left to :meth:`weigh_trials`.
        An entry of ``out`` stays NaN where its estimate failed.
        """
        try:
            if isinstance(data, SnapshotMatrix):
                cov = armod.sample_ar_covariances(cell.payload, data).matrix
            else:
                cov = self.block(cell.positions, data)
            model, r_y = cell_system(self.shift, cell.payload, cov)
        except (GraphCovError, np.linalg.LinAlgError):
            return  # every method of the cell fails
        for m_idx, method in self.methods:
            try:
                out[m_idx] = self.squared_error(model, estimate(model, method, r_y, None).theta)
            except (GraphCovError, np.linalg.LinAlgError):
                continue

    def weigh_trials(self, trials: list, covs: CovarianceMatrix, sqerr: np.ndarray) -> None:
        """WLS of every node cell for ``trials``, one stacked call per cell, into ``sqerr``.

        ``covs`` is the trials' stack from :meth:`sample_block`. Each cell
        weighs with the stack of its principal blocks
        (:meth:`CovarianceMatrix.principal` on its positions) and observes
        ``vec`` of that stack; a trial whose solve fails alone stays NaN.
        """
        if self.wls_index is None:
            return
        for c_idx, cell in enumerate(self.cells):
            model = cell.payload
            weights = CovarianceMatrix.principal(covs, cell.positions)
            try:
                thetas = estimate(model, WLS, vec(weights.matrix), weights).theta
            except (GraphCovError, np.linalg.LinAlgError):
                continue
            for trial, theta in zip(trials, thetas):
                if not np.isnan(theta).any():
                    sqerr[c_idx, self.wls_index, trial] = self.squared_error(model, theta)

    def block(self, positions: np.ndarray, cov: np.ndarray) -> np.ndarray:
        """The block on ``positions`` of ``cov``, a covariance of ``observed_nodes``."""
        return cov[np.ix_(positions, positions)]

    def squared_error(self, model: ObservationModel, theta: np.ndarray) -> float:
        err = model_spectrum(model, self.basis.eigvals, theta) - self.true_p
        return float(err @ err)

    def crb_sse(self, model: ObservationModel, positions: np.ndarray) -> float | None:
        """Expected squared spectrum error at the CRB for one snapshot; None when unavailable.

        The true covariance is the :meth:`block` on ``positions`` of
        ``true_cov``. The Fisher information grows as N_s, so the CRB at
        N_s snapshots is this value divided by N_s.
        """
        try:
            info = fisher_info(model, CovarianceMatrix(self.block(positions, self.true_cov), kind="true"), 1)
        except NumericalError:
            return None
        cov_p, t = info.crb, model.param_map
        if t is not None:
            cov_p = t @ cov_p @ t.T
        return float(np.trace(cov_p))

    def crb_db(self, cell: _Cell, n_snapshots: int) -> float | None:
        """CRB of ``cell`` at N_s snapshots on the NMSE scale, from its :meth:`crb_sse`; None without one."""
        if cell.crb_sse is None:
            return None
        return nmse_db(cell.crb_sse / n_snapshots, 1, self.p_norm)


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Run all cells and return one result row per (n_snapshots, sampler, method).

    Set-up (:class:`_Pipeline`) forms the true covariance of the
    observed nodes, whose transfer rows the shift keeps, and resolves
    each cell's model, its positions in that covariance and its CRB. An
    exact-covariance study runs no trials: set-up estimated each cell once
    on its block of the true covariance, and every trial of every snapshot
    count repeats that estimate, so a method's ``failures`` is 0 or
    ``n_trials``. For a sampled study, each snapshot count's trials run in the blocks of
    :func:`~graphcov.estimators.trial_blocks` (one block unless there
    are more than ``_BLOCK_ROWS // N``): each trial of a block realises
    its data and forms its covariance, and the block's covariances are
    checked once, as a stack; then each trial runs LS and NNLS per cell
    on its member (:meth:`_Pipeline.run_trial`), and WLS runs once per
    cell on the stack (:meth:`_Pipeline.weigh_trials`). The CRB column
    follows N_s in both. numpy's OpenBLAS runs on one thread for the
    whole call, whatever ``OPENBLAS_NUM_THREADS`` says (see
    :mod:`graphcov._blas`), so the rows are byte-identical for a fixed
    config at any thread setting. The caller's thread count is restored
    on return and on an exception.
    """
    with one_blas_thread():
        pipe = _Pipeline(config)
        n_cells = len(pipe.cells)
        n_methods = len(config.methods)
        rows = []
        for ns_idx, ns in enumerate(config.n_snapshots):
            # sqerr[cell][method][trial]; NaN marks a failed estimation
            sqerr = np.full((n_cells, n_methods, config.n_trials), np.nan)
            if config.exact_covariance:
                sqerr[:] = np.array([cell.exact_sse for cell in pipe.cells])[:, :, None]
            else:
                for trials in trial_blocks(config.n_trials, pipe.shift.n):
                    pipe.run_block(trials, ns, ns_idx, sqerr)

            for c_idx, cell in enumerate(pipe.cells):
                crb = pipe.crb_db(cell, ns)
                for m_idx, method in enumerate(config.methods):
                    values = sqerr[c_idx, m_idx]
                    good = values[~np.isnan(values)]
                    failures = int(np.isnan(values).sum())
                    nmse = nmse_db(float(good.sum()), good.size, pipe.p_norm) if good.size else None
                    rows.append(
                        {
                            "n_snapshots": ns,
                            "method": method,
                            "sampler": cell.name,
                            "compression": cell.compression,
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
