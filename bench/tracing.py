"""Spans around graphcov's layer functions, recorded from outside the package.

``Tracer`` replaces each layer's public function where the study looks it
up (``graphcov.experiment`` imports most of them by name, the AR layer
is reached as ``graphcov.ar.<fn>`` and the basis as a ``ShiftOperator``
method) with a wrapper that records one span per call, and puts the
originals back on exit. No file of the package changes. A function that
the package no longer has is skipped, so its metrics read zero calls.

Each span carries its layer, function, start, end, thread, and the cell,
snapshot count, trial and method that caused it. Those are read from the
locals of the study's own frames; a span outside them leaves them None.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import asdict, dataclass

# (layer, function, module, attribute path) of every wrapped call site.
TARGETS = (
    ("graphs", "basis", "graphcov.graphs", "ShiftOperator.basis"),
    ("models", "psi", "graphcov.experiment", "build_psi_spectral"),
    ("models", "psi", "graphcov.experiment", "build_psi_ma"),
    ("models", "compress", "graphcov.experiment", "compress_model"),
    ("design", "greedy", "graphcov.experiment", "greedy_design"),
    ("design", "ruler", "graphcov.experiment", "minimal_sparse_ruler"),
    ("design", "check_valid", "graphcov.experiment", "check_valid"),
    ("stationary", "generate", "graphcov.experiment", "generate_signals"),
    ("stationary", "sample_cov", "graphcov.experiment", "sample_covariance"),
    ("estimators", "ls", "graphcov.experiment", "ls_estimate"),
    ("estimators", "nnls", "graphcov.experiment", "nnls_estimate"),
    ("estimators", "wls", "graphcov.experiment", "wls_estimate"),
    ("estimators", "fisher", "graphcov.experiment", "fisher_info"),
    ("ar", "generate", "graphcov.ar", "generate_ar_signals"),
    ("ar", "blocks", "graphcov.ar", "sample_ar_covariances"),
    ("ar", "blocks", "graphcov.ar", "true_ar_covariances"),
    ("ar", "model", "graphcov.ar", "build_ar_model"),
    ("ar", "estimate", "graphcov.ar", "estimate_ar"),
)

LAYER_FUNCTIONS = tuple(dict.fromkeys(f"{layer}.{fn}" for layer, fn, _, _ in TARGETS))

# Study frames whose locals name the cause of a call: function -> {local: field}.
_CAUSE_LOCALS = {
    "estimate_cell": {"cell": "cell", "method": "method"},
    "crb_db": {"cell": "cell", "n_snapshots": "ns"},
    "run_trial": {"trial": "trial", "ns": "ns"},
    "__init__": {"entry": "cell"},
}
_STOP_FRAME = "run_experiment"


@dataclass
class Span:
    layer: str
    fn: str
    start: float
    end: float
    thread: int
    cell: str | None = None
    ns: int | None = None
    trial: int | None = None
    method: str | None = None
    nbytes: int | None = None


def _cell_name(value):
    if isinstance(value, tuple) and value and isinstance(value[0], str):
        return value[0]  # the study's (name, compression, payload) cell
    if isinstance(value, dict):
        return value.get("name") or value.get("kind")
    return None


def _cause(frame) -> dict:
    cause = {}
    while frame is not None and frame.f_code.co_name != _STOP_FRAME:
        wanted = _CAUSE_LOCALS.get(frame.f_code.co_name)
        if wanted:
            local_vars = frame.f_locals
            for local, key in wanted.items():
                if key not in cause and local in local_vars:
                    value = local_vars[local]
                    cause[key] = _cell_name(value) if key == "cell" else value
        frame = frame.f_back
    return cause


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a dotted attribute path, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    """Context manager that records spans of every wrapped call while active.

    ``on_call(key, args, result, cause)`` is called after each successful
    call, so the caller can keep what it needs of the arguments and result.
    """

    def __init__(self, on_call=None):
        self.on_call = on_call
        self.spans: list[Span] = []
        self.origin = 0.0
        self._saved = []

    def __enter__(self):
        self.origin = time.perf_counter()
        for layer, fn, module_name, path in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, fn, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, layer: str, fn: str, original):
        tracer = self
        key = f"{layer}.{fn}"

        def record(start: float, end: float, cause: dict, nbytes=None) -> None:
            tracer.spans.append(
                Span(layer, fn, start - tracer.origin, end - tracer.origin,
                     threading.get_ident(), nbytes=nbytes, **cause)
            )

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            cause = _cause(sys._getframe(1))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                record(start, time.perf_counter(), cause)
                raise
            end = time.perf_counter()
            record(start, end, cause, int(result.nbytes) if key == "models.psi" else None)
            if tracer.on_call is not None:
                tracer.on_call(key, args, result, cause)
            return result

        return wrapper

    def span_dicts(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def covered_seconds(spans) -> float:
    """Length of the union of the span intervals, across all threads."""
    total, reach = 0.0, float("-inf")
    for span in sorted(spans, key=lambda s: s.start):
        if span.end <= reach:
            continue
        total += span.end - max(span.start, reach)
        reach = span.end
    return total


def layer_table(spans, study_seconds: float) -> dict:
    """Per-layer metrics: total seconds and calls per function, psi bytes, self time."""
    table = {}
    for key in LAYER_FUNCTIONS:
        mine = [s for s in spans if f"{s.layer}.{s.fn}" == key]
        table[f"{key}_s"] = sum(s.end - s.start for s in mine)
        table[f"{key}_calls"] = len(mine)
    table["models.psi_mb"] = sum(s.nbytes or 0 for s in spans) / 1e6
    table["experiment.self_s"] = study_seconds - covered_seconds(spans)
    return table
