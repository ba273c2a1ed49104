#!/usr/bin/env python3
"""graphcov benchmark: study time, set-up, memory and accuracy per workload.

    python3 bench/run.py --workload mc-sensor30 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

One run of one workload, in this order:

1. set-up: the exact-covariance one-trial study, in batches (see
   ``SETUP_BATCH_SECONDS``); ``setup_s`` is the median over the batches of
   the mean wall time of one set-up;
2. timed rounds, for at least ``--seconds``: each round runs the Monte-Carlo
   study once at the fixed ``ACCURACY_SEED`` and once at ``--seed``;
   ``study_s`` and ``cpu_s`` are the medians over every study, ``nmse`` is
   read from the fixed-seed study and ``peak_rss_mb`` is taken after them;
3. one traced study at ``--seed``, with every layer function wrapped: it
   gives the per-layer table, the tracing overhead and the objects the
   correctness checks inspect.

The thread settings are the program's own: nothing here sets
``GRAPHCOV_THREADS``, ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``). A report with both, the checks and the
run's environment is written to ``bench/out/``, and with ``--trace 1`` the
spans too. ``--workload all`` runs every workload in its own process, one
after another, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracing import LAYER_FUNCTIONS, Tracer, layer_table
from workloads import ACCURACY_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
# Set-up is timed in batches of consecutive set-ups lasting at least
# SETUP_BATCH_SECONDS; setup_s is the median over at least SETUP_REPEATS
# batches and SETUP_SECONDS of the per-set-up mean of each batch. At the
# default thread settings a set-up of tens of milliseconds alternates
# between a fast and a slow mode, which puts a plain median of single
# set-ups anywhere between the two.
SETUP_REPEATS = 3
SETUP_SECONDS = 5.0
SETUP_BATCH_SECONDS = 1.0
THREAD_VARS = ("GRAPHCOV_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "study_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "nmse": "ratio"}
PER_LAYER_UNITS = {
    **{f"{key}_s": "s" for key in LAYER_FUNCTIONS},
    **{f"{key}_calls": "count" for key in LAYER_FUNCTIONS},
    "models.psi_mb": "MB",
    "experiment.self_s": "s",
    "trace.study_s": "s",
    "trace.overhead_s": "s",
}


def import_graphcov():
    """Import graphcov from this checkout's ``src``; exit with status 1 when it is absent."""
    if not (SRC / "graphcov" / "__init__.py").is_file():
        sys.exit(f"error: no graphcov sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import graphcov

    if Path(graphcov.__file__).resolve().parent != SRC / "graphcov":
        sys.exit(f"error: imported graphcov from {graphcov.__file__}, not {SRC}")


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy

    from graphcov.experiment import n_workers

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload.name,
        "seed": seed,
        "accuracy_seed": ACCURACY_SEED,
        "config_hash": workload.config_hash(),
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "graphcov_workers": n_workers(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


class Study:
    """One timed ``run_experiment`` call and its rows."""

    def __init__(self, config: dict):
        from graphcov.experiment import ExperimentConfig, rows_to_csv, run_experiment

        cfg = ExperimentConfig(**config)
        self.seed = cfg.seed
        self.n_trials = cfg.n_trials
        wall, cpu = time.perf_counter(), time.process_time()
        self.rows = run_experiment(cfg)
        self.wall = time.perf_counter() - wall
        self.cpu = time.process_time() - cpu
        self.csv = rows_to_csv(self.rows)

    @property
    def attempted(self) -> int:
        return self.n_trials * len(self.rows)

    @property
    def failed(self) -> int:
        return sum(row["failures"] for row in self.rows)


class Verdicts:
    """Outcome of every check by name: how many instances ran, and the failures."""

    def __init__(self):
        self.runs = {}
        self.failures = {}

    def add(self, name: str, outcome: str | None) -> None:
        self.runs[name] = self.runs.get(name, 0) + 1
        if outcome is not None:
            self.failures.setdefault(name, []).append(outcome)

    def require(self, name: str, what: str) -> None:
        if not self.runs.get(name):
            self.add(name, f"no {what} was observed")

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {
            name: {"instances": count, "failures": self.failures.get(name, [])}
            for name, count in self.runs.items()
        }


def verify(workload, setups, timed, traced, obs) -> Verdicts:
    """Run every check that applies to the workload."""
    v = Verdicts()
    by_seed = {}
    for study in timed + [traced]:
        reference = by_seed.setdefault(study.seed, study.csv)
        v.add("determinism", checks.identical(reference, study.csv))
    for study in setups[1:]:
        v.add("determinism", checks.identical(setups[0].csv, study.csv))

    if workload.spectral:
        check_spectral(workload, setups, timed, obs, v)
    else:
        check_ar(workload, obs, v)
    return v


def check_spectral(workload, setups, timed, obs, v: Verdicts) -> None:
    import numpy as np

    v.add("exact_recovery", checks.exact_recovery([row["nmse_db"] for row in setups[0].rows]))
    if obs.basis is None:
        v.add("sampler_validity", "the study built no spectral basis")
        return
    u = obs.basis.eigvecs
    samplers = obs.samplers
    for sampler in samplers.values():
        v.add("sampler_validity", checks.sampler_valid(u[list(sampler.selected)]))
    v.require("sampler_validity", "compressed model")

    kinds = {entry["kind"] for entry in workload.config["samplers"]}
    for trace in obs.greedy_traces:
        v.add("greedy_objective", checks.greedy_monotone(trace))
    if "greedy" in kinds:
        v.require("greedy_objective", "greedy design")
    for n, marks in obs.rulers:
        v.add("ruler_coverage", checks.ruler_covers(marks, n))
    if "ruler" in kinds:
        v.require("ruler_coverage", "ruler search")
    for theta in obs.nnls_thetas:
        v.add("nnls_nonnegative", checks.nonnegative(theta))
    if "nnls" in workload.methods:
        v.require("nnls_nonnegative", "NNLS estimate")

    for cell, (r_y, theta) in obs.ls_samples.items():
        sel = list(samplers[cell].selected)
        r_hat = np.asarray(r_y).reshape(len(sel), len(sel), order="F")
        v.add("independent_ls", checks.independent_ls(u[sel], r_hat, theta))
    if len(obs.ls_samples) < len(workload.config["samplers"]):
        v.add("independent_ls", f"LS was observed in {len(obs.ls_samples)} cells only")

    if np.iscomplexobj(u):
        return  # the program's CRB is not a bound on complex bases (see README)
    h = workload.config["signal"]["h"]
    p = np.abs(np.polynomial.polynomial.polyval(obs.basis.eigvals, h)) ** 2
    p_norm = float(np.linalg.norm(p))
    one_per_seed = {study.seed: study for study in timed}
    for study in one_per_seed.values():
        for row in study.rows:
            if row["method"] != "ls":
                continue
            u_s = u[list(samplers[row["sampler"]].selected)]
            r_s = (u_s * p) @ u_s.T
            ns = row["n_snapshots"]
            v.add("crb_independent", checks.crb_matches(row["crb_db"], u_s, r_s, ns, p_norm))
            v.add(
                "ls_above_crb",
                checks.ls_not_below_crb(row["nmse_db"], u_s, r_s, ns, study.n_trials, p_norm),
            )
    v.require("crb_independent", "LS cell with a CRB")


def check_ar(workload, obs, v: Verdicts) -> None:
    from graphcov import ar

    if obs.ar_shift is None:
        v.add("ar_convergence", "the study generated no AR data")
        return
    true_cov = ar.true_ar_covariance(obs.ar_shift, workload.config["signal"]["a"])
    for cell, scheme in obs.ar_schemes.items():
        blocks = ar.true_ar_covariances(scheme, true_cov)
        exact = ar.estimate_ar(*ar.build_ar_model(obs.ar_shift, scheme, blocks)).theta
        v.add("ar_convergence", checks.ar_convergence(exact, obs.ar_estimates.get(cell, {})))
    if len(obs.ar_schemes) < len(workload.config["samplers"]):
        v.add("ar_convergence", f"AR estimates were observed in {len(obs.ar_schemes)} cells only")


def nmse(study, methods) -> float:
    """Mean linear NMSE over the study's WLS cells, or its LS cells where no WLS runs."""
    method = "wls" if "wls" in methods else "ls"
    values = [10.0 ** (row["nmse_db"] / 10.0) for row in study.rows if row["method"] == method]
    return float(statistics.fmean(values))


def run_workload(workload, seed: int, seconds: float) -> dict:
    """Run one workload as described in the module docstring; return its report."""
    import warnings

    from graphcov.errors import RepeatedEigenvaluesWarning

    with warnings.catch_warnings():
        # mc-circulant36's ladder has repeated eigenvalues by construction.
        warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
        return _run_workload(workload, seed, seconds)


def _run_workload(workload, seed: int, seconds: float) -> dict:
    env = environment(workload, seed)
    setups, setup_means = [], []
    start = time.perf_counter()
    while len(setup_means) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        batch_start, batch = time.perf_counter(), []
        while not batch or time.perf_counter() - batch_start < SETUP_BATCH_SECONDS:
            batch.append(Study(workload.setup_config()))
        setup_means.append(statistics.fmean(s.wall for s in batch))
        setups += batch

    timed = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        for round_seed in (ACCURACY_SEED, seed):
            timed.append(Study(workload.study_config(round_seed)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    obs = checks.Observations()
    with Tracer(obs) as tracer:
        traced = Study(workload.study_config(seed))

    verdicts = verify(workload, setups, timed, traced, obs)
    studies = setups + timed + [traced]
    untraced_wall = statistics.median(s.wall for s in timed if s.seed == seed)
    per_layer = layer_table(tracer.spans, traced.wall)
    per_layer["trace.study_s"] = traced.wall
    per_layer["trace.overhead_s"] = traced.wall - untraced_wall
    accuracy = next(s for s in timed if s.seed == ACCURACY_SEED)
    return {
        "environment": env,
        "correct": verdicts.ok,
        "attempted": sum(s.attempted for s in studies),
        "failed": sum(s.failed for s in studies),
        "end_to_end": {
            "setup_s": statistics.median(setup_means),
            "study_s": statistics.median(s.wall for s in timed),
            "cpu_s": statistics.median(s.cpu for s in timed),
            "peak_rss_mb": peak_rss_mb,
            "nmse": nmse(accuracy, workload.methods),
        },
        "per_layer": per_layer,
        "samples": {
            "setup_s": setup_means,
            "study_s": [s.wall for s in timed],
            "cpu_s": [s.cpu for s in timed],
            "study_seeds": [s.seed for s in timed],
        },
        "checks": verdicts.summary(),
        "spans": tracer.span_dicts(),
    }


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:34s} {value:>16.6g} {units[name]}")


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    report = run_workload(workload, args.seed, args.seconds)
    spans = report.pop("spans")
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in spans)
    with open(f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print_metrics(report["end_to_end"], END_TO_END_UNITS)
    print_metrics(report["per_layer"], PER_LAYER_UNITS)
    for name, outcome in report["checks"].items():
        state = "FAIL " + "; ".join(outcome["failures"]) if outcome["failures"] else "ok"
        print(f"check {name:28s} x{outcome['instances']:<4d} {state}")
    print(f"estimates attempted {report['attempted']} failed {report['failed']}")

    metrics, units = (
        (report["per_layer"], PER_LAYER_UNITS) if args.trace else (report["end_to_end"], END_TO_END_UNITS)
    )
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one at a time, then one table."""
    reports, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "1"]
        print(f"== {name}", flush=True)
        code = subprocess.run(cmd, check=False).returncode
        path = OUT / f"{name}-seed{args.seed}-trace1.json"
        if code != 0 or not path.is_file():
            status = 1
            continue
        with open(path) as fh:
            reports[name] = json.load(fh)
        status |= 0 if reports[name]["correct"] else 1

    names = list(reports)
    print(f"\n{'metric':34s} {'unit':6s}" + "".join(f"{n:>18s}" for n in names))
    for section, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        for metric, unit in units.items():
            cells = "".join(f"{reports[n][section][metric]:>18.6g}" for n in names)
            print(f"{metric:34s} {unit:6s}{cells}")
    for label in ("correct", "attempted", "failed"):
        print(f"{label:41s}" + "".join(f"{str(reports[n][label]):>18s}" for n in names))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_graphcov()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
