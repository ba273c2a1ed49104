"""Command-line front end.

Subcommands: ``graph gen``, ``sampler design``, ``sampler ruler``,
``signal gen``, ``estimate``, ``experiment nmse``. Exit codes: 0 ok,
2 invalid input (an unreadable or unwritable path and a non-UTF-8 file
included), 3 numerical failure, 4 capability limit (an array numpy cannot
allocate included, such as the dense N x N matrices of a graph too large
for memory).

Every command runs with numpy's OpenBLAS pinned to one thread
(:func:`graphcov._blas.one_blas_thread`), whatever ``OPENBLAS_NUM_THREADS``
says, so a command writes the same bytes at any thread setting.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import ar as armod
from ._blas import one_blas_thread
from .design import DesignProblem, check_valid, default_epsilon, greedy_design
from .errors import (
    CapabilityError,
    GraphCovError,
    InvalidInputError,
    NumericalError,
)
from .experiment import (
    KINDS,
    METHODS,
    ExperimentConfig,
    ar_core,
    cell_system,
    estimate,
    fields,
    make_graph,
    make_model,
    model_spectrum,
    rows_to_csv,
    ruler_sampler,
    run_experiment,
)
from .graphs import SHIFTS, Graph, GraphFilter, build_shift
from .models import Subsampler, compress_model
from .stationary import (
    SnapshotMatrix,
    generate_signals,
    load_snapshots_csv,
    parse_number,
    sample_covariance,
    save_snapshots_csv,
)

EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_CAPABILITY = 4


def _write(path: str | None, text: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_graph(path: str) -> Graph:
    return make_graph({"kind": "file", "path": path})


def _parse_list(text: str, convert, what: str) -> list:
    """The comma-separated values of ``text`` by ``convert`` (:func:`parse_number`)."""
    try:
        return [parse_number(v, convert) for v in text.split(",") if v != ""]
    except ValueError:
        raise InvalidInputError(f"expected comma-separated {what}, got {text!r}") from None


def integer(text: str) -> int:
    """The value of an integer option (:func:`parse_number`); argparse names the type in its message."""
    return parse_number(text, int)


def _parse_floats(text: str) -> np.ndarray:
    return np.asarray(_parse_list(text, float, "numbers"), dtype=float)


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(_parse_list(text, int, "integers"))


def _spec(section: str, kind: str, args) -> dict:
    """``kind`` with the options given of the keys in ``KINDS[section]``, checked by :func:`fields`."""
    keys = {key for entry in KINDS[section].values() for key in entry.keys}
    spec = {"kind": kind, **{key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}}
    fields(spec, section)
    return spec


def cmd_graph_gen(args) -> int:
    _write(args.out, make_graph(_spec("graph", args.kind, args)).to_json())
    return 0


def cmd_sampler_design(args) -> int:
    graph = _load_graph(args.graph)
    shift = build_shift(graph, args.shift)
    psi = make_model(shift, _spec("model", args.model, args))
    result = greedy_design(DesignProblem(psi=psi, k=args.k))
    report = check_valid(psi, result.sampler)
    _write(args.out, result.sampler.to_json())
    if args.report:
        _write(
            args.report,
            json.dumps(
                {
                    "selected": list(result.sampler.selected),
                    "objective_trace": list(result.objective_trace),
                    "valid": report.valid,
                    "min_singular": report.min_singular,
                    "epsilon": default_epsilon(psi),
                    "rank": report.rank,
                    "feasible": report.feasible,
                    "condition_number": report.condition_number,
                }
            ),
        )
    if not report.valid:
        raise NumericalError(
            f"designed sampler is not valid (rank {report.rank} of {psi.n_params})"
        )
    return 0


def cmd_sampler_ruler(args) -> int:
    marks = None if args.marks is None else _parse_ints(args.marks)
    sampler = ruler_sampler(args.n, marks)
    _write(args.out, sampler.to_json())
    if args.report:
        _write(
            args.report,
            json.dumps(
                {"selected": list(sampler.selected), "n": args.n, "minimal_search": marks is None}
            ),
        )
    return 0


def cmd_signal_gen(args) -> int:
    graph = _load_graph(args.graph)
    shift = build_shift(graph, args.shift)
    coeffs = _parse_floats(args.coeffs)
    nodes = tuple(range(shift.n))
    if args.sampler:
        with open(args.sampler) as fh:
            sampler = Subsampler.from_json(fh.read())
        if sampler.n_nodes != shift.n:
            raise InvalidInputError(f"sampler has {sampler.n_nodes} nodes, the graph {shift.n}")
        nodes = sampler.selected
    if args.signal == "ma":
        data = generate_signals(shift, GraphFilter(coeffs), args.ns, args.seed, nodes)
    else:
        data = armod.generate_ar_signals(shift, coeffs, args.ns, args.seed, nodes)
    save_snapshots_csv(args.out, SnapshotMatrix(data, nodes))
    return 0


def cmd_estimate(args) -> int:
    graph = _load_graph(args.graph)
    shift = build_shift(graph, args.shift)
    snapshots = load_snapshots_csv(args.snapshots)
    spec = _spec("model", args.model, args)

    if args.model == "ar":
        if args.sampler is not None:
            raise InvalidInputError("the autoregressive model takes --core, not --sampler")
        core = ar_core(graph, {} if args.core is None else {"core": _parse_ints(args.core)})
        payload = armod.build_ar_scheme(shift, core, args.p)
        nodes = payload.distinct_nodes
    else:
        if args.sampler is None:
            raise InvalidInputError("--sampler is required for the spectral and ma models")
        if args.core is not None:
            raise InvalidInputError(f"the {args.model} model takes --sampler, not --core")
        with open(args.sampler) as fh:
            sampler = Subsampler.from_json(fh.read())
        payload = compress_model(make_model(shift, spec), sampler)
        nodes = sampler.selected
    cov = sample_covariance(snapshots.rows(nodes), demean=args.demean)
    model, r_y = cell_system(shift, payload, cov.matrix)
    result = estimate(model, args.method, r_y, cov)
    spectrum = model_spectrum(model, shift.basis().eigvals, result.theta)

    _write(
        args.out,
        json.dumps(
            {
                "method": result.method,
                "theta": [float(v) for v in np.atleast_1d(result.theta)],
                "residual": result.residual_norm if np.isfinite(result.residual_norm) else None,
                "cond": result.condition_number,
                "power_spectrum": [float(v) for v in spectrum],
            }
        ),
    )
    return 0


def cmd_experiment_nmse(args) -> int:
    with open(args.config) as fh:
        config = ExperimentConfig.from_json(fh.read())
    rows = run_experiment(config)
    _write(args.out or config.output, rows_to_csv(rows))
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose refusal is one ``error:`` line and exit code 2, as every other refusal.

    ``add_subparsers`` builds each subcommand's parser of this class too.
    """

    def error(self, message: str):
        self.exit(EXIT_INVALID, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphcov",
        description="Second-order statistics of stationary graph signals from few nodes",
    )
    top = parser.add_subparsers(dest="command", required=True)

    graph = top.add_parser("graph", help="graph construction").add_subparsers(
        dest="subcommand", required=True
    )
    gen = graph.add_parser("gen", help="generate a graph JSON file")
    generated = {kind: entry.keys for kind, entry in KINDS["graph"].items() if entry.build}
    gen.add_argument("--kind", required=True, choices=list(generated))
    for key in dict.fromkeys(key for keys in generated.values() for key in keys):
        gen.add_argument(f"--{key}", type=integer, help="/".join(k for k in generated if key in generated[k]) + " only")
    gen.add_argument("--out", default="-")
    gen.set_defaults(func=cmd_graph_gen)

    sampler = top.add_parser("sampler", help="sampler design").add_subparsers(
        dest="subcommand", required=True
    )
    design = sampler.add_parser("design", help="greedy log-det design")
    design.add_argument("--graph", required=True)
    design.add_argument("--shift", default="laplacian", choices=SHIFTS)
    greedy_models = [kind for kind, row in KINDS["model"].items() if "greedy" in row.samplers]
    design.add_argument("--model", default="spectral", choices=greedy_models)
    design.add_argument("--k", type=integer, required=True)
    design.add_argument("--q", type=integer)
    design.add_argument("--out", default="-")
    design.add_argument("--report")
    design.set_defaults(func=cmd_sampler_design)
    ruler = sampler.add_parser("ruler", help="sparse-ruler sampler for circulant graphs")
    ruler.add_argument("--n", type=integer, required=True)
    ruler.add_argument("--marks", help="comma-separated marks; omit to search the minimal ruler")
    ruler.add_argument("--out", default="-")
    ruler.add_argument("--report")
    ruler.set_defaults(func=cmd_sampler_ruler)

    signal = top.add_parser("signal", help="signal generation").add_subparsers(
        dest="subcommand", required=True
    )
    sgen = signal.add_parser("gen", help="generate stationary snapshots as CSV")
    sgen.add_argument("--graph", required=True)
    sgen.add_argument("--shift", default="laplacian", choices=SHIFTS)
    sgen.add_argument("--signal", default="ma", choices=list(KINDS["signal"]))
    sgen.add_argument("--coeffs", required=True, help="filter (ma) or AR coefficients")
    sgen.add_argument("--ns", type=integer, required=True)
    sgen.add_argument("--seed", type=integer, default=0)
    sgen.add_argument("--sampler", help="store only the nodes this sampler selects")
    sgen.add_argument("--out", required=True)
    sgen.set_defaults(func=cmd_signal_gen)

    est = top.add_parser("estimate", help="estimate the power spectrum from snapshots")
    est.add_argument("--graph", required=True)
    est.add_argument("--shift", default="laplacian", choices=SHIFTS)
    est.add_argument("--snapshots", required=True)
    est.add_argument("--sampler", help="sampler JSON (spectral/ma models)")
    est.add_argument("--model", default="spectral", choices=list(KINDS["model"]))
    est.add_argument("--q", type=integer)
    est.add_argument("--p", type=integer)
    est.add_argument("--core", help="comma-separated AR core nodes")
    est.add_argument("--method", default="ls", choices=METHODS)
    est.add_argument("--demean", action="store_true")
    est.add_argument("--out", default="-")
    est.set_defaults(func=cmd_estimate)

    experiment = top.add_parser("experiment", help="Monte-Carlo studies").add_subparsers(
        dest="subcommand", required=True
    )
    nmse_cmd = experiment.add_parser("nmse", help="NMSE vs snapshot count")
    nmse_cmd.add_argument("--config", required=True)
    nmse_cmd.add_argument("--out")
    nmse_cmd.set_defaults(func=cmd_experiment_nmse)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with one_blas_thread():
            return args.func(args)
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except MemoryError as exc:
        print(f"error: out of memory: {exc or 'an allocation was refused'}", file=sys.stderr)
        return EXIT_CAPABILITY
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (GraphCovError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
