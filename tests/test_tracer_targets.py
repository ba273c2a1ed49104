"""Every call site the benchmark's tracer wraps still exists in the package.

``bench/tracing.py`` skips a target it cannot resolve, so a renamed or
deleted function would silently read zero calls in the per-layer table
and starve the bench checks that read its results. This test resolves
each target the way the tracer does, without changing the tracer.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

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
