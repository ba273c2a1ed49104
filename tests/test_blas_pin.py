"""The one-thread pin of numpy's OpenBLAS around a run (``graphcov._blas``)."""

import ctypes
import threading

import pytest

from graphcov import InvalidInputError, _blas
from graphcov.cli import main
from graphcov.experiment import ExperimentConfig, _Pipeline, run_experiment

needs_pin = pytest.mark.skipif(
    _blas.unavailable_reason() is not None, reason=str(_blas.unavailable_reason())
)


def threads() -> int:
    return _blas._threads_api()[0]()


@pytest.fixture
def caller_threads():
    """Set numpy's BLAS to 3 threads for the test, and put the old count back after it."""
    get, set_ = _blas._threads_api()
    old = get()
    set_(3)
    yield get()
    set_(old)


@pytest.fixture
def fresh_lookup():
    """Forget the cached library lookup before and after the test."""
    _blas._threads_api.cache_clear()
    yield
    _blas._threads_api.cache_clear()


def study(**overrides):
    cfg = {
        "graph": {"kind": "sensor", "n": 16, "seed": 3},
        "shift": "laplacian",
        "signal": {"kind": "ma", "h": [1.0, 0.5, 0.2]},
        "model": {"kind": "spectral"},
        "samplers": [{"name": "half", "kind": "greedy", "k": 8}],
        "methods": ["ls", "wls"],
        "n_snapshots": [100],
        "n_trials": 2,
        "seed": 11,
    }
    return ExperimentConfig(**{**cfg, **overrides})


@needs_pin
class TestPin:
    def test_trial_sees_one_thread(self, caller_threads, monkeypatch):
        seen = []
        estimate_cell = _Pipeline.estimate_cell

        def observed(self, *args):
            seen.append(threads())
            return estimate_cell(self, *args)

        monkeypatch.setattr(_Pipeline, "estimate_cell", observed)
        rows = run_experiment(study())
        assert len(rows) == 2 and all(row["failures"] == 0 for row in rows)
        assert seen and set(seen) == {1}
        assert caller_threads > 1
        assert threads() == caller_threads

    def test_count_restored_after_error_mid_pipeline(self, caller_threads):
        # the graph and basis are built before the greedy budget is refused
        with pytest.raises(InvalidInputError, match="K <= 16"):
            run_experiment(study(samplers=[{"kind": "greedy", "k": 17}]))
        assert threads() == caller_threads
        assert _blas._depth == 0

    def test_cli_error_exit_restores_count(self, caller_threads, tmp_path):
        assert main(["graph", "gen", "--kind", "sensor", "--n", "0", "--out", str(tmp_path / "g")]) == 2
        assert threads() == caller_threads

    def test_nested_entry_restores_at_outermost_exit(self, caller_threads):
        with _blas.one_blas_thread():
            assert threads() == 1
            with _blas.one_blas_thread():
                assert threads() == 1
            assert threads() == 1
            run_experiment(study(n_trials=1))
            assert threads() == 1
        assert threads() == caller_threads
        assert _blas._depth == 0

    def test_concurrent_callers_share_one_pin(self, caller_threads):
        entered, release = threading.Event(), threading.Event()
        inside = []

        def other():
            with _blas.one_blas_thread():
                entered.set()
                release.wait(10)
                inside.append(threads())

        worker = threading.Thread(target=other)
        with _blas.one_blas_thread():
            worker.start()
            assert entered.wait(10)
        # this caller left first; the other still holds the pin
        assert threads() == 1
        release.set()
        worker.join(10)
        assert inside == [1]
        assert threads() == caller_threads

    def test_lookup_runs_once_per_process(self, fresh_lookup, monkeypatch, tmp_path):
        calls = {"find": 0, "load": 0}
        find, load = _blas._find_library, ctypes.CDLL

        def counted_find():
            calls["find"] += 1
            return find()

        def counted_load(*args, **kwargs):
            calls["load"] += 1
            return load(*args, **kwargs)

        monkeypatch.setattr(_blas, "_find_library", counted_find)
        monkeypatch.setattr(ctypes, "CDLL", counted_load)
        for _ in range(3):
            run_experiment(study(n_trials=1))
        assert main(["graph", "gen", "--kind", "cycle", "--n", "8", "--out", str(tmp_path / "g")]) == 0
        assert calls == {"find": 1, "load": 1}


@needs_pin
def test_missing_symbol_is_a_noop_that_names_it(caller_threads, fresh_lookup, monkeypatch):
    get = _blas._threads_api()[0]
    monkeypatch.setattr(_blas, "SET_SYMBOL", "scipy_openblas_no_such_symbol64_")
    _blas._threads_api.cache_clear()
    seen = []
    estimate_cell = _Pipeline.estimate_cell

    def observed(self, *args):
        seen.append(get())
        return estimate_cell(self, *args)

    monkeypatch.setattr(_Pipeline, "estimate_cell", observed)
    rows = run_experiment(study())
    assert len(rows) == 2 and all(row["failures"] == 0 for row in rows)
    assert seen and set(seen) == {caller_threads}  # not pinned
    assert get() == caller_threads
    reason = _blas.unavailable_reason()
    assert reason.endswith("has no symbol scipy_openblas_no_such_symbol64_")
    assert "\n" not in reason


def test_missing_library_is_a_noop_with_a_reason(fresh_lookup, monkeypatch):
    monkeypatch.setattr(_blas, "_find_library", lambda: None)
    rows = run_experiment(study())
    assert len(rows) == 2 and all(row["failures"] == 0 for row in rows)
    assert _blas._depth == 0
    assert "bundles no OpenBLAS" in _blas.unavailable_reason()
