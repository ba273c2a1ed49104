"""Command-line front end.

Subcommands: ``graph gen``, ``sampler design``, ``sampler ruler``,
``signal gen``, ``estimate``, ``experiment nmse``. Exit codes: 0 ok,
2 invalid input, 3 numerical failure, 4 capability limit.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import ar as armod
from .design import (
    LOGDET,
    DesignProblem,
    check_valid,
    greedy_design,
    is_sparse_ruler,
    minimal_sparse_ruler,
)
from .errors import (
    CapabilityError,
    GraphCovError,
    InvalidInputError,
    NumericalError,
)
from .estimators import ls_estimate, nnls_estimate, wls_estimate
from .experiment import ExperimentConfig, make_graph, make_shift, rows_to_csv, run_experiment
from .graphs import Graph, GraphFilter, ShiftOperator
from .models import (
    CovarianceModel,
    Subsampler,
    build_psi_ma,
    build_psi_spectral,
    compress_model,
    vandermonde,
    vec,
)
from .stationary import (
    SnapshotMatrix,
    generate_signals,
    load_snapshots_csv,
    sample_covariance,
    save_snapshots_csv,
)

EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_CAPABILITY = 4


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _load_graph(path: str) -> Graph:
    return make_graph({"kind": "file", "path": path})


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.asarray([float(v) for v in text.split(",") if v != ""], dtype=float)
    except ValueError:
        raise InvalidInputError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v != "")
    except ValueError:
        raise InvalidInputError(f"expected comma-separated integers, got {text!r}") from None


def cmd_graph_gen(args) -> int:
    spec = {"kind": args.kind, "n": args.n, "seed": args.seed, "knn": args.knn}
    graph = make_graph(spec)
    _write(args.out, graph.to_json())
    return 0


def _model(args, shift: ShiftOperator) -> CovarianceModel:
    """Uncompressed spectral or moving-average model named by ``--model``/``--q``."""
    if args.model == "spectral":
        return build_psi_spectral(shift.basis())
    if args.q is None:
        raise InvalidInputError("--q is required for the moving-average model")
    return build_psi_ma(shift, args.q)


def cmd_sampler_design(args) -> int:
    graph = _load_graph(args.graph)
    shift = make_shift(graph, args.shift, use_dft="auto" if args.dft is None else args.dft)
    psi = _model(args, shift)
    problem = DesignProblem(
        psi=psi,
        k=args.k,
        epsilon=args.epsilon,
        cost=args.cost.replace("-", "_"),
    )
    result = greedy_design(problem)
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
                    "epsilon": problem.resolved_epsilon() if problem.cost == LOGDET else None,
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
    if args.marks is not None:
        marks = _parse_ints(args.marks)
        if not is_sparse_ruler(marks, args.n):
            raise InvalidInputError(f"marks {marks} are not a sparse ruler for n={args.n}")
    else:
        marks = minimal_sparse_ruler(args.n)
    sampler = Subsampler(args.n, marks)
    _write(args.out, sampler.to_json())
    if args.report:
        _write(
            args.report,
            json.dumps({"selected": list(marks), "n": args.n, "minimal_search": args.marks is None}),
        )
    return 0


def cmd_signal_gen(args) -> int:
    graph = _load_graph(args.graph)
    shift = make_shift(graph, args.shift)
    coeffs = _parse_floats(args.coeffs)
    if args.signal == "ma":
        data = generate_signals(shift, GraphFilter(coeffs), args.ns, args.seed)
    else:
        data = armod.generate_ar_signals(shift, coeffs, args.ns, args.seed)
    nodes = tuple(range(shift.n))
    if args.sampler:
        with open(args.sampler) as fh:
            sampler = Subsampler.from_json(fh.read())
        data = data[list(sampler.selected)]
        nodes = sampler.selected
    save_snapshots_csv(args.out, SnapshotMatrix(data, nodes))
    return 0


def _subsampled_snapshots(snapshots: SnapshotMatrix, nodes) -> np.ndarray:
    position = {node: idx for idx, node in enumerate(snapshots.node_indices)}
    missing = [node for node in nodes if node not in position]
    if missing:
        raise InvalidInputError(f"snapshots missing nodes {missing}")
    return snapshots.data[[position[node] for node in nodes]]


def cmd_estimate(args) -> int:
    graph = _load_graph(args.graph)
    shift = make_shift(graph, args.shift)
    basis = shift.basis()
    snapshots = load_snapshots_csv(args.snapshots)

    if args.model == "ar":
        if args.p is None:
            raise InvalidInputError("--p is required for the autoregressive model")
        if args.method != "ls":
            raise InvalidInputError("the autoregressive estimator is least squares only")
        core = _parse_ints(args.core) if args.core else armod.core_by_degree(graph)
        scheme = armod.build_ar_scheme(shift, core, args.p)
        nodes = list(scheme.distinct_nodes)
        full = np.zeros((shift.n, snapshots.n_snapshots))
        full[nodes] = _subsampled_snapshots(snapshots, nodes)
        blocks = armod.sample_ar_covariances(scheme, full)
        model, r_y = armod.build_ar_model(shift, scheme, blocks)
        result = armod.estimate_ar(model, r_y)
        spectrum = armod.ar_power_spectrum(basis.eigvals, result.theta)
    else:
        with open(args.sampler) as fh:
            sampler = Subsampler.from_json(fh.read())
        if sampler.n_nodes != shift.n:
            raise InvalidInputError("sampler and graph disagree on the node count")
        data = _subsampled_snapshots(snapshots, sampler.selected)
        cov = sample_covariance(data, demean=args.demean)
        r_y = vec(cov.matrix)
        model = compress_model(_model(args, shift), sampler)
        if args.method == "ls":
            result = ls_estimate(model, r_y)
        elif args.method == "nnls":
            result = nnls_estimate(model, r_y)
        else:
            result = wls_estimate(model, r_y, cov)
        if args.model == "spectral":
            spectrum = np.asarray(result.theta)
        else:
            spectrum = vandermonde(basis.eigvals, args.q) @ result.theta

    _write(
        args.out,
        json.dumps(
            {
                "method": result.method,
                "theta": [float(v) for v in np.atleast_1d(result.theta)],
                "residual": result.residual_norm,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcov",
        description="Second-order statistics of stationary graph signals from few nodes",
    )
    top = parser.add_subparsers(dest="command", required=True)

    graph = top.add_parser("graph", help="graph construction").add_subparsers(
        dest="subcommand", required=True
    )
    gen = graph.add_parser("gen", help="generate a graph JSON file")
    gen.add_argument("--kind", required=True, choices=["sensor", "cycle", "mobius", "path"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--knn", type=int, default=6, help="sensor graph neighbors")
    gen.add_argument("--out", default="-")
    gen.set_defaults(func=cmd_graph_gen)

    sampler = top.add_parser("sampler", help="sampler design").add_subparsers(
        dest="subcommand", required=True
    )
    design = sampler.add_parser("design", help="greedy log-det design")
    design.add_argument("--graph", required=True)
    design.add_argument("--shift", default="laplacian", choices=["laplacian", "adjacency"])
    design.add_argument("--model", default="spectral", choices=["spectral", "ma"])
    design.add_argument("--k", type=int, required=True)
    design.add_argument("--q", type=int)
    design.add_argument("--cost", default="logdet", choices=["logdet", "frame-potential"])
    design.add_argument("--epsilon", type=float)
    design.add_argument("--dft", action=argparse.BooleanOptionalAction, default=None)
    design.add_argument("--out", default="-")
    design.add_argument("--report")
    design.set_defaults(func=cmd_sampler_design)
    ruler = sampler.add_parser("ruler", help="sparse-ruler sampler for circulant graphs")
    ruler.add_argument("--n", type=int, required=True)
    ruler.add_argument("--marks", help="comma-separated marks; omit to search the minimal ruler")
    ruler.add_argument("--out", default="-")
    ruler.add_argument("--report")
    ruler.set_defaults(func=cmd_sampler_ruler)

    signal = top.add_parser("signal", help="signal generation").add_subparsers(
        dest="subcommand", required=True
    )
    sgen = signal.add_parser("gen", help="generate stationary snapshots as CSV")
    sgen.add_argument("--graph", required=True)
    sgen.add_argument("--shift", default="laplacian", choices=["laplacian", "adjacency"])
    sgen.add_argument("--signal", default="ma", choices=["ma", "ar"])
    sgen.add_argument("--coeffs", required=True, help="filter (ma) or AR coefficients")
    sgen.add_argument("--ns", type=int, required=True)
    sgen.add_argument("--seed", type=int, default=0)
    sgen.add_argument("--sampler", help="store only the nodes this sampler selects")
    sgen.add_argument("--out", required=True)
    sgen.set_defaults(func=cmd_signal_gen)

    estimate = top.add_parser("estimate", help="estimate the power spectrum from snapshots")
    estimate.add_argument("--graph", required=True)
    estimate.add_argument("--shift", default="laplacian", choices=["laplacian", "adjacency"])
    estimate.add_argument("--snapshots", required=True)
    estimate.add_argument("--sampler", help="sampler JSON (spectral/ma models)")
    estimate.add_argument("--model", default="spectral", choices=["spectral", "ma", "ar"])
    estimate.add_argument("--q", type=int)
    estimate.add_argument("--p", type=int)
    estimate.add_argument("--core", help="comma-separated AR core nodes")
    estimate.add_argument("--method", default="ls", choices=["ls", "nnls", "wls"])
    estimate.add_argument("--demean", action="store_true")
    estimate.add_argument("--out", default="-")
    estimate.set_defaults(func=cmd_estimate)

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
        return args.func(args)
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (InvalidInputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except GraphCovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
