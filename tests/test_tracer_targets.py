"""Every call site the benchmark's tracer wraps, and every frame it reads, still exists in the package.

``bench/tracing.py`` skips a target it cannot resolve, so a renamed or
deleted function would silently read zero calls in the per-layer table
and starve the bench checks that read its results. This test resolves
each target the way the tracer does, without changing the tracer. The
tracer also names each call's cell, snapshot count, trial and method
from the locals of the study's frames (``_CAUSE_LOCALS``); the bench's
LS and AR checks read them, so each of those functions must keep them.
Each per-layer row but the known-dead one must also read at least one
call when every workload's shrunk study runs under the tracer.
"""

import importlib.util
import inspect
import sys
import warnings
from pathlib import Path

from graphcov import RepeatedEigenvaluesWarning, experiment
from graphcov.experiment import ExperimentConfig, run_experiment

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"

# experiment.py reads compress_model's rank and never calls check_valid,
# so this target reads zero calls until the benchmark drops or retargets it
KNOWN_DEAD = {("design", "check_valid", "graphcov.experiment", "check_valid")}


def load_tracing():
    spec = importlib.util.spec_from_file_location("graphcov_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracing = load_tracing()
    missing = [t for t in tracing.TARGETS if t not in KNOWN_DEAD and tracing._resolve(*t[2:]) is None]
    assert not missing, f"tracer targets absent from graphcov: {missing}"


def test_known_dead_targets_are_still_listed():
    # a target dropped from the tracer, or fixed, should leave KNOWN_DEAD too
    tracing = load_tracing()
    assert KNOWN_DEAD <= set(tracing.TARGETS)
    assert all(tracing._resolve(*t[2:]) is None for t in KNOWN_DEAD)


def experiment_functions() -> dict:
    """Name -> the functions and methods of that name defined in graphcov.experiment."""
    found = {}
    for obj in vars(experiment).values():
        if getattr(obj, "__module__", None) != experiment.__name__:
            continue
        members = vars(obj).values() if inspect.isclass(obj) else [obj]
        for member in members:
            if inspect.isfunction(member):
                found.setdefault(member.__name__, []).append(member)
    return found


def test_cause_frames_keep_their_locals():
    # a study that calls an estimator outside these frames leaves the span's cell or
    # trial unnamed, and the bench's LS check then reads "LS was observed in 0 cells"
    tracing = load_tracing()
    functions = experiment_functions()
    assert tracing._STOP_FRAME in functions
    for name, wanted in tracing._CAUSE_LOCALS.items():
        local_sets = [set(f.__code__.co_varnames) | set(f.__code__.co_cellvars) for f in functions.get(name, [])]
        assert any(set(wanted) <= names for names in local_sets), (
            f"no function {name!r} of graphcov.experiment has the locals {sorted(wanted)}"
        )


def load_workloads():
    spec = importlib.util.spec_from_file_location("graphcov_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_layer_row_is_live():
    # a study that bypasses a wrapped call site, such as graphcov.experiment.wls_estimate or
    # sample_covariance, would zero its per-layer row, which no bench check reads
    tracing = load_tracing()
    workloads = load_workloads()
    dead = {f"{layer}.{fn}" for layer, fn, _, _ in KNOWN_DEAD}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)  # mc-circulant36's ladder
        with tracing.Tracer() as tracer:
            for workload in workloads.WORKLOADS.values():
                run_experiment(ExperimentConfig(**workload.shrunk().study_config(1)))
    table = tracing.layer_table(tracer.spans, 0.0)
    silent = [key for key in tracing.LAYER_FUNCTIONS if key not in dead and table[f"{key}_calls"] == 0]
    assert not silent, f"per-layer rows with no span: {silent}"
