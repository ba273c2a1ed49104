import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import graphcov
from graphcov import (
    Graph,
    InvalidInputError,
    RepeatedEigenvaluesWarning,
    Subsampler,
    build_psi_spectral,
    build_shift,
    default_epsilon,
)
from graphcov.cli import main
from graphcov.experiment import (
    CSV_HEADER,
    ExperimentConfig,
    make_graph,
    rows_to_csv,
    run_experiment,
)


def run_cli(*argv):
    return main(list(argv))


def strict_json(text):
    """Parse JSON as the standard defines it: a NaN or Infinity token is refused."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture
def sensor_graph_file(tmp_path):
    path = tmp_path / "g.json"
    assert run_cli("graph", "gen", "--kind", "sensor", "--n", "16", "--seed", "3", "--out", str(path)) == 0
    return str(path)


# an AR study on the 20-node sensor graph whose two cells observe fewer than N nodes
AR_STUDY = {
    "graph": {"kind": "sensor", "n": 20, "seed": 7},
    "shift": "adjacency",
    "signal": {"kind": "ar", "a": [0.1]},
    "model": {"kind": "ar", "p": 1},
    "samplers": [{"kind": "ar-core", "k0": 1, "name": "top"}, {"kind": "ar-core", "core": [5], "name": "node5"}],
}


def base_config(**overrides):
    cfg = {
        "graph": {"kind": "sensor", "n": 16, "seed": 3},
        "shift": "laplacian",
        "signal": {"kind": "ma", "h": [1.0, 0.5, 0.2]},
        "model": {"kind": "spectral"},
        "samplers": [{"name": "full", "kind": "full"}, {"name": "half", "kind": "greedy", "k": 8}],
        "methods": ["ls"],
        "n_snapshots": [100],
        "n_trials": 5,
        "seed": 11,
    }
    cfg.update(overrides)
    return cfg


class TestGraphGen:
    def test_cycle_edges(self, tmp_path):
        out = tmp_path / "c.json"
        assert run_cli("graph", "gen", "--kind", "cycle", "--n", "4", "--out", str(out)) == 0
        g = Graph.from_json(out.read_text())
        assert set((i, j) for i, j, _ in g.edges) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_mobius_rungs(self, tmp_path):
        out = tmp_path / "m.json"
        assert run_cli("graph", "gen", "--kind", "mobius", "--n", "6", "--out", str(out)) == 0
        g = Graph.from_json(out.read_text())
        assert {(0, 3), (1, 4), (2, 5)} <= set((i, j) for i, j, _ in g.edges)

    def test_mobius_odd_exit_code(self, tmp_path):
        assert run_cli("graph", "gen", "--kind", "mobius", "--n", "7", "--out", str(tmp_path / "x.json")) == 2

    def test_sensor_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("graph", "gen", "--kind", "sensor", "--n", "30", "--seed", "7", "--out", str(a))
        run_cli("graph", "gen", "--kind", "sensor", "--n", "30", "--seed", "7", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert run_cli("graph", "gen", "--kind", "sensor", "--n", "12", "--seed", "-1", "--out", str(out)) == 2
        assert "bad seed -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [(["--kind", "cycle", "--n", "5", "--seed", "3"], "graph kind 'cycle' takes no key 'seed'"),
         (["--kind", "mobius", "--n", "6", "--knn", "2"], "graph kind 'mobius' takes no key 'knn'"),
         (["--kind", "path"], "graph.n is required for graph kind 'path'")],
        ids=["cycle-seed", "mobius-knn", "path-no-n"],
    )
    def test_option_the_kind_does_not_take_exit_code(self, tmp_path, capsys, argv, message):
        # an option of another graph kind is refused and named, not ignored
        out = tmp_path / "g.json"
        assert run_cli("graph", "gen", *argv, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_sensor_defaults(self, tmp_path):
        # a sensor graph without --seed and --knn is the one of seed 0 and knn 6
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("graph", "gen", "--kind", "sensor", "--n", "20", "--out", str(a)) == 0
        assert run_cli("graph", "gen", "--kind", "sensor", "--n", "20", "--seed", "0", "--knn", "6",
                       "--out", str(b)) == 0
        assert a.read_text() == b.read_text()


class TestSamplerCommands:
    def test_design_spectral_cycle(self, tmp_path):
        g = tmp_path / "g.json"
        run_cli("graph", "gen", "--kind", "cycle", "--n", "10", "--out", str(g))
        s = tmp_path / "s.json"
        rep = tmp_path / "rep.json"
        code = run_cli(
            "sampler", "design", "--graph", str(g), "--shift", "adjacency",
            "--model", "spectral", "--k", "5", "--out", str(s), "--report", str(rep),
        )
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["valid"] is True
        assert len(report["selected"]) == 5
        assert len(report["objective_trace"]) == 5
        assert report["min_singular"] > 0
        cycle = build_shift(Graph.from_json(g.read_text()), "adjacency")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
            psi = build_psi_spectral(cycle.basis())
        assert report["epsilon"] == default_epsilon(psi)
        assert report["rank"] == 10
        assert report["feasible"] is True
        assert 1.0 <= report["condition_number"] < 1e6

    def test_design_report_written_for_an_invalid_design(self, tmp_path):
        # three nodes of the 10-cycle keep only 7 of its 10 spectral parameters
        g = tmp_path / "g.json"
        run_cli("graph", "gen", "--kind", "cycle", "--n", "10", "--out", str(g))
        rep = tmp_path / "rep.json"
        code = run_cli(
            "sampler", "design", "--graph", str(g), "--shift", "adjacency",
            "--k", "3", "--out", str(tmp_path / "s.json"), "--report", str(rep),
        )
        assert code == 3
        report = json.loads(rep.read_text())
        assert report["valid"] is False
        assert report["rank"] == 7
        assert report["feasible"] is False
        cycle = build_shift(Graph.from_json(g.read_text()), "adjacency")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
            psi = build_psi_spectral(cycle.basis())
        assert report["epsilon"] == default_epsilon(psi)

    def test_design_has_no_cost_option(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        run_cli("graph", "gen", "--kind", "cycle", "--n", "10", "--out", str(g))
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "sampler", "design", "--graph", str(g), "--k", "5", "--cost", "logdet",
                "--out", str(tmp_path / "s.json"),
            )
        assert exc.value.code == 2
        assert "--cost" in capsys.readouterr().err

    def test_design_ma_feasible(self, sensor_graph_file, tmp_path):
        s = tmp_path / "s.json"
        code = run_cli(
            "sampler", "design", "--graph", sensor_graph_file, "--model", "ma",
            "--q", "5", "--k", "3", "--out", str(s),
        )
        assert code == 0  # K^2 = 9 >= Q = 5 and the greedy set is valid
        assert len(json.loads(s.read_text())["selected"]) == 3

    def test_design_infeasible_exit_code(self, sensor_graph_file, tmp_path):
        code = run_cli(
            "sampler", "design", "--graph", sensor_graph_file, "--model", "ma",
            "--q", "5", "--k", "1", "--out", str(tmp_path / "s.json"),
        )
        assert code == 3  # K^2 = 1 < 5: numerically invalid sampler

    def test_design_nan_epsilon_exit_code(self, sensor_graph_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "sampler", "design", "--graph", sensor_graph_file, "--k", "6",
                "--epsilon", "nan", "--out", str(tmp_path / "s.json"),
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "graph_json, message",
        [
            ('{"n": 4, "edges": [[0]]}', "must be [i, j] or [i, j, weight]"),
            ('{"n": "x", "edges": [[0, 1]]}', "integer n >= 1, got 'x'"),
            ('{"n": 2.5, "edges": [[0, 1]]}', "integer n >= 1, got 2.5"),
            ('{"n": 4, "edges": [[0, 1, "x"]]}', "weight 'x' is not finite and positive"),
            ('{"n": 4, "edges": [[0, 1, NaN]]}', "weight nan is not finite and positive"),
            ('{"n": 4, "edges": [[0, 1, Infinity]]}', "weight inf is not finite and positive"),
            ('{"n": 4, "edges": [[0, 1.5]]}', "non-integer endpoint"),
        ],
        ids=["short-edge", "n-string", "n-fraction", "weight-string", "weight-nan",
             "weight-inf", "endpoint-fraction"],
    )
    def test_design_malformed_graph_exit_code(self, tmp_path, capsys, graph_json, message):
        g = tmp_path / "g.json"
        g.write_text(graph_json)
        out = tmp_path / "s.json"
        assert run_cli("sampler", "design", "--graph", str(g), "--k", "2", "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edges, shift, code, message",
        [
            ([[0, 1, 1.5e308], [0, 2, 1.5e308]], "laplacian", 2, "shift operator has a non-finite entry"),
            ([[0, 1, 1.5e308], [0, 2, 1.5e308]], "adjacency", 3, "eigenvalues overflow"),
            ([[0, 1, 1.5e308], [1, 2, 1.5e308], [2, 3, 1.5e308], [3, 0, 1.5e308]], "laplacian", 2,
             "shift operator has a non-finite entry"),
            ([[0, 1, 1.5e308], [1, 2, 1.5e308], [2, 3, 1.5e308], [3, 0, 1.5e308]], "adjacency", 3,
             "eigenvalues overflow"),
        ],
        ids=["star-laplacian", "star-adjacency", "cycle-laplacian", "cycle-adjacency"],
    )
    def test_design_overflowing_graph_exit_code(self, tmp_path, capsys, edges, shift, code, message):
        # finite weights whose degrees or eigenvalues overflow the float range
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 1 + max(max(e[:2]) for e in edges), "edges": edges}))
        out = tmp_path / "s.json"
        code_seen = run_cli("sampler", "design", "--graph", str(g), "--k", "2", "--shift", shift, "--out", str(out))
        assert code_seen == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_ruler_minimal(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("sampler", "ruler", "--n", "10", "--out", str(out)) == 0
        sampler = Subsampler.from_json(out.read_text())
        assert sampler.k == 5

    def test_ruler_capability_exit_code(self, tmp_path):
        assert run_cli("sampler", "ruler", "--n", "100", "--out", str(tmp_path / "r.json")) == 4

    def test_ruler_rejects_non_ruler_marks(self, tmp_path):
        code = run_cli("sampler", "ruler", "--n", "10", "--marks", "0,1,4,7", "--out", str(tmp_path / "r.json"))
        assert code == 2

    def test_experiment_rejects_non_ruler_marks(self, tmp_path, capsys):
        cfg = base_config(
            graph={"kind": "cycle", "n": 10},
            shift="adjacency",
            samplers=[{"name": "ruler", "kind": "ruler", "marks": [0, 1, 4, 7]}],
        )
        with pytest.raises(InvalidInputError, match="not a sparse ruler for n=10"):
            run_experiment(ExperimentConfig(**cfg))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run_cli("experiment", "nmse", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "not a sparse ruler for n=10" in capsys.readouterr().err


class TestSignalAndEstimate:
    def test_full_observation_matches_direct_spectrum(self, sensor_graph_file, tmp_path):
        snaps = tmp_path / "snaps.csv"
        run_cli(
            "signal", "gen", "--graph", sensor_graph_file, "--signal", "ma",
            "--coeffs", "1,0.5,0.2", "--ns", "400", "--seed", "1", "--out", str(snaps),
        )
        sampler_path = tmp_path / "full.json"
        sampler_path.write_text(Subsampler.full(16).to_json())
        report_path = tmp_path / "est.json"
        assert run_cli(
            "estimate", "--graph", sensor_graph_file, "--snapshots", str(snaps),
            "--sampler", str(sampler_path), "--model", "spectral", "--method", "ls",
            "--out", str(report_path),
        ) == 0
        report = json.loads(report_path.read_text())

        # direct baseline: quadratic forms of the sample covariance
        from graphcov import load_snapshots_csv, power_spectrum_from_cov, sample_covariance

        graph = Graph.from_json(open(sensor_graph_file).read())
        shift = build_shift(graph, "laplacian")
        cov = sample_covariance(load_snapshots_csv(snaps))
        expected = power_spectrum_from_cov(shift.basis(), cov)
        npt.assert_allclose(report["power_spectrum"], expected, atol=1e-8)

    @pytest.mark.parametrize(
        "seed, command, message",
        [(0, "estimate", "non-finite values in covariance"),
         (2, "signal gen", "non-finite values in snapshot data")],
    )
    def test_overflowing_snapshots_exit_code(self, tmp_path, capsys, seed, command, message):
        # one edge of weight 1.5e308 passes every shift and basis check; with seed 0 the
        # snapshots are finite (about 1e307) and their covariance overflows, with seed 2
        # the filtered noise itself overflows; either is refused, with no overflow warning
        graph, sampler, snaps = (tmp_path / name for name in ("g.json", "s.json", "snaps.csv"))
        graph.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1.5e308]]}))
        sampler.write_text(Subsampler.full(2).to_json())
        gen = run_cli("signal", "gen", "--graph", str(graph), "--shift", "adjacency", "--coeffs", "1,0.5",
                      "--ns", "3", "--seed", str(seed), "--out", str(snaps))
        if command == "estimate":
            assert gen == 0
            code = run_cli("estimate", "--graph", str(graph), "--shift", "adjacency", "--snapshots", str(snaps),
                           "--sampler", str(sampler), "--method", "wls", "--out", str(tmp_path / "e.json"))
        else:
            code = gen
        assert code == 2
        assert message in capsys.readouterr().err

    def test_estimate_missing_nodes_exit_code(self, sensor_graph_file, tmp_path):
        snaps = tmp_path / "snaps.csv"
        partial = tmp_path / "partial.json"
        partial.write_text(Subsampler(16, (0, 1, 2, 3, 4)).to_json())
        run_cli(
            "signal", "gen", "--graph", sensor_graph_file, "--signal", "ma",
            "--coeffs", "1,0.5", "--ns", "50", "--seed", "2",
            "--sampler", str(partial), "--out", str(snaps),
        )
        other = tmp_path / "other.json"
        other.write_text(Subsampler(16, (10, 11, 12, 13, 14)).to_json())
        code = run_cli(
            "estimate", "--graph", sensor_graph_file, "--snapshots", str(snaps),
            "--sampler", str(other), "--model", "spectral", "--method", "ls",
            "--out", str(tmp_path / "out.json"),
        )
        assert code == 2

    @pytest.mark.parametrize("column", ["node_-1", "node_1.5"])
    def test_estimate_snapshot_column_that_names_no_node_exit_code(self, sensor_graph_file, tmp_path, capsys, column):
        snaps = tmp_path / "snaps.csv"
        # the sampler's nodes 0 and 1 are present; only the third column is bad
        snaps.write_text(f"node_0,node_1,{column}\n1,2,0\n3,4,1\n5,7,2\n")
        sampler = tmp_path / "s.json"
        sampler.write_text(Subsampler(16, (0, 1)).to_json())
        code = run_cli(
            "estimate", "--graph", sensor_graph_file, "--snapshots", str(snaps),
            "--sampler", str(sampler), "--model", "spectral", "--method", "ls",
            "--out", str(tmp_path / "out.json"),
        )
        assert code == 2
        assert "node" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["graph", "gen", "--kind", "cycle", "--n", "1_0"], ["sampler", "ruler", "--n", "1_0"]],
        ids=["graph-n", "ruler-n"],
    )
    def test_digit_separator_in_an_integer_option_exit_code(self, capsys, argv):
        # int("1_0") reads 10
        with pytest.raises(SystemExit) as exit_:
            run_cli(*argv)
        assert exit_.value.code == 2
        assert "argument --n: invalid integer value: '1_0'" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["node_1_0", "node_+2", "node_3 "], ids=["separator", "sign", "space"])
    def test_snapshot_header_is_node_and_ascii_digits(self, sensor_graph_file, tmp_path, capsys, column):
        # int() reads these as nodes 10, 2 and 3
        snaps = tmp_path / "snaps.csv"
        snaps.write_text(f"node_0,{column}\n1,2\n3,4\n")
        sampler = tmp_path / "s.json"
        sampler.write_text(Subsampler(16, (0,)).to_json())
        code = run_cli(
            "estimate", "--graph", sensor_graph_file, "--snapshots", str(snaps),
            "--sampler", str(sampler), "--out", str(tmp_path / "out.json"),
        )
        assert code == 2
        assert "header must be node_<i> columns" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["estimate", "--shift", "adjacency", "--model", "ar", "--p", "1", "--core", "1_0"],
             "expected comma-separated integers, got '1_0'"),
            (["signal", "gen", "--coeffs", "1_0", "--ns", "5"], "expected comma-separated numbers, got '1_0'"),
        ],
        ids=["estimate-core", "signal-coeffs"],
    )
    def test_digit_separator_in_a_list_exit_code(self, sensor_graph_file, tmp_path, capsys, argv, message):
        # int("1_0") and float("1_0") both read 10
        snaps = tmp_path / "snaps.csv"
        assert run_cli(
            "signal", "gen", "--graph", sensor_graph_file, "--shift", "adjacency", "--signal", "ar",
            "--coeffs", "0.1", "--ns", "20", "--out", str(snaps),
        ) == 0
        out = tmp_path / "out"
        files = ["--snapshots", str(snaps)] if argv[0] == "estimate" else []
        assert run_cli(*argv, "--graph", sensor_graph_file, *files, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sampler",
        [{"n": 16, "selected": [0, 1.5, 2.7]}, {"n": 16, "selected": [True, 2]}, {"n": 16.5, "selected": [0, 1]}],
        ids=["fractional-index", "bool-index", "fractional-n"],
    )
    def test_estimate_non_integer_sampler_exit_code(self, sensor_graph_file, tmp_path, capsys, sampler):
        snaps = tmp_path / "snaps.csv"
        run_cli(
            "signal", "gen", "--graph", sensor_graph_file, "--signal", "ma",
            "--coeffs", "1,0.5", "--ns", "50", "--seed", "2", "--out", str(snaps),
        )
        sampler_path = tmp_path / "s.json"
        sampler_path.write_text(json.dumps(sampler))
        code = run_cli(
            "estimate", "--graph", sensor_graph_file, "--snapshots", str(snaps),
            "--sampler", str(sampler_path), "--model", "spectral", "--method", "ls",
            "--out", str(tmp_path / "out.json"),
        )
        assert code == 2
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("sampler", [{"n": 20, "selected": [0, 19]}, {"n": 4, "selected": [0, 1]}],
                             ids=["more-nodes", "fewer-nodes"])
    def test_signal_gen_sampler_node_count_exit_code(self, tmp_path, capsys, sampler):
        g = tmp_path / "g.json"
        run_cli("graph", "gen", "--kind", "sensor", "--n", "12", "--seed", "3", "--out", str(g))
        sampler_path = tmp_path / "s.json"
        sampler_path.write_text(json.dumps(sampler))
        snaps = tmp_path / "snaps.csv"
        code = run_cli(
            "signal", "gen", "--graph", str(g), "--coeffs", "1,0.5", "--ns", "10",
            "--sampler", str(sampler_path), "--out", str(snaps),
        )
        assert code == 2
        assert f"sampler has {sampler['n']} nodes, the graph 12" in capsys.readouterr().err
        assert not snaps.exists()

    @pytest.mark.parametrize("signal, coeffs", [("ma", "1,0.5,0.2"), ("ar", "0.1")])
    def test_signal_gen_sampler_keeps_columns_of_full_output(self, sensor_graph_file, tmp_path,
                                                             signal, coeffs):
        from graphcov import load_snapshots_csv

        sampler_path = tmp_path / "s.json"
        sampler_path.write_text(Subsampler(16, (1, 4, 9, 15)).to_json())
        snaps = {}
        for name, extra in (("full", []), ("sampled", ["--sampler", str(sampler_path)])):
            path = tmp_path / f"{name}.csv"
            assert run_cli(
                "signal", "gen", "--graph", sensor_graph_file, "--shift", "adjacency",
                "--signal", signal, "--coeffs", coeffs, "--ns", "50", "--seed", "3",
                *extra, "--out", str(path),
            ) == 0
            snaps[name] = load_snapshots_csv(path)
        assert snaps["sampled"].node_indices == (1, 4, 9, 15)
        full = snaps["full"].rows((1, 4, 9, 15))
        npt.assert_allclose(snaps["sampled"].data, full, rtol=1e-12, atol=1e-12 * np.abs(full).max())

    @pytest.mark.parametrize(
        "signal, coeffs, message",
        [
            ("ar", "inf", "AR coefficients [inf]"),
            ("ar", "", "AR coefficients []"),
            ("ar", "nan", "AR coefficients [nan]"),
            ("ma", "nan", "filter coefficients [nan]"),
            ("ma", "1,-inf", "filter coefficients [1.0, -inf]"),
        ],
        ids=["ar-inf", "ar-empty", "ar-nan", "ma-nan", "ma-inf"],
    )
    def test_signal_gen_bad_coefficients_exit_code(self, sensor_graph_file, tmp_path, capsys,
                                                   signal, coeffs, message):
        out = tmp_path / "x.csv"
        code = run_cli("signal", "gen", "--graph", sensor_graph_file, "--signal", signal,
                       "--coeffs", coeffs, "--ns", "10", "--out", str(out))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("signal, coeffs", [("ma", "1,0.5"), ("ar", "0.1")])
    def test_signal_gen_negative_seed_exit_code(self, sensor_graph_file, tmp_path, capsys,
                                                signal, coeffs):
        code = run_cli(
            "signal", "gen", "--graph", sensor_graph_file, "--shift", "adjacency",
            "--signal", signal, "--coeffs", coeffs, "--ns", "10", "--seed", "-1",
            "--out", str(tmp_path / "snaps.csv"),
        )
        assert code == 2
        assert "bad seed -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "csv_text, message",
        [
            ("node_0,node_1,node_2\n1.0,2.0,3.0\n1.0,2.0\n", "snapshot 2 has 2 values for 3 node columns"),
            ("node_3,node_3,node_5\n1.0,2.0,3.0\n", "repeated node in node_indices [3, 3, 5]"),
            # float("1_0") reads 10.0
            ("node_0,node_1,node_2\n1_0,2.0,3.0\n",
             "non-numeric snapshot value: digit separator in '1_0'"),
        ],
        ids=["short-row", "repeated-node", "digit-separator"],
    )
    def test_estimate_malformed_snapshots_exit_code(self, sensor_graph_file, tmp_path, capsys,
                                                    csv_text, message):
        snaps = tmp_path / "snaps.csv"
        snaps.write_text(csv_text)
        sampler_path = tmp_path / "s.json"
        sampler_path.write_text(Subsampler(16, (0, 1, 2, 3, 5)).to_json())
        code = run_cli(
            "estimate", "--graph", sensor_graph_file, "--snapshots", str(snaps),
            "--sampler", str(sampler_path), "--out", str(tmp_path / "o.json"),
        )
        assert code == 2
        assert message in capsys.readouterr().err

    def test_ar_estimate(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        run_cli("graph", "gen", "--kind", "cycle", "--n", "12", "--out", str(g))
        snaps = tmp_path / "snaps.csv"
        run_cli(
            "signal", "gen", "--graph", str(g), "--shift", "adjacency", "--signal", "ar",
            "--coeffs", "0.2", "--ns", "3000", "--seed", "4", "--out", str(snaps),
        )
        report_path = tmp_path / "ar.json"
        assert run_cli(
            "estimate", "--graph", str(g), "--shift", "adjacency", "--snapshots", str(snaps),
            "--model", "ar", "--p", "1", "--out", str(report_path),
        ) == 0
        report = json.loads(report_path.read_text())
        assert len(report["theta"]) == 1
        assert len(report["power_spectrum"]) == 12
        # an explicitly empty core is refused, not replaced by the default core
        assert run_cli(
            "estimate", "--graph", str(g), "--shift", "adjacency", "--snapshots", str(snaps),
            "--model", "ar", "--p", "1", "--core", "", "--out", str(report_path),
        ) == 2
        assert "core set must be non-empty" in capsys.readouterr().err

    def test_cli_and_a_bare_config_choose_the_same_default_core(self, tmp_path, monkeypatch):
        # the k0 default lives in KINDS alone: with it changed, both pick that many nodes
        from graphcov import ar
        from graphcov.experiment import KINDS, _Pipeline

        convert, _ = KINDS["sampler"]["ar-core"].keys["k0"]
        monkeypatch.setitem(KINDS["sampler"]["ar-core"].keys, "k0", (convert, 3))
        cores, build = [], ar.build_ar_scheme

        def recorded(shift, core, order):
            cores.append(tuple(core))
            return build(shift, core, order)

        monkeypatch.setattr(ar, "build_ar_scheme", recorded)
        _Pipeline(ExperimentConfig(**base_config(
            graph={"kind": "sensor", "n": 20, "seed": 7}, shift="adjacency", signal={"kind": "ar", "a": [0.1]},
            model={"kind": "ar", "p": 1}, samplers=[{"kind": "ar-core"}],
        )))
        g, snaps = tmp_path / "g.json", tmp_path / "snaps.csv"
        assert run_cli("graph", "gen", "--kind", "sensor", "--n", "20", "--seed", "7", "--out", str(g)) == 0
        assert run_cli(
            "signal", "gen", "--graph", str(g), "--shift", "adjacency", "--signal", "ar",
            "--coeffs", "0.1", "--ns", "200", "--seed", "4", "--out", str(snaps),
        ) == 0
        assert run_cli(
            "estimate", "--graph", str(g), "--shift", "adjacency", "--snapshots", str(snaps),
            "--model", "ar", "--p", "1", "--out", str(tmp_path / "ar.json"),
        ) == 0
        assert len(cores) == 2 and cores[0] == cores[1] and len(cores[0]) == 3

    def test_circulant_ruler_pipeline(self, tmp_path):
        # cycle graph: sampler ruler -> subsampled snapshots -> estimate uses
        # the closed-form DFT basis and the real-stacked complex model
        g = tmp_path / "g.json"
        run_cli("graph", "gen", "--kind", "cycle", "--n", "10", "--out", str(g))
        ruler = tmp_path / "ruler.json"
        run_cli("sampler", "ruler", "--n", "10", "--marks", "0,1,4,7,9", "--out", str(ruler))
        snaps = tmp_path / "snaps.csv"
        run_cli(
            "signal", "gen", "--graph", str(g), "--shift", "adjacency", "--signal", "ma",
            "--coeffs", "1,0.4", "--ns", "2000", "--seed", "6",
            "--sampler", str(ruler), "--out", str(snaps),
        )
        out = tmp_path / "est.json"
        assert run_cli(
            "estimate", "--graph", str(g), "--shift", "adjacency", "--snapshots", str(snaps),
            "--sampler", str(ruler), "--model", "spectral", "--method", "ls",
            "--out", str(out),
        ) == 0
        report = json.loads(out.read_text())
        assert len(report["power_spectrum"]) == 10
        assert all(np.isfinite(v) for v in report["power_spectrum"])

    @pytest.mark.parametrize("model", ["spectral", "ar"])
    def test_estimate_nan_snapshot_exit_code(self, sensor_graph_file, tmp_path, capsys, model):
        snaps = tmp_path / "snaps.csv"
        run_cli(
            "signal", "gen", "--graph", sensor_graph_file, "--signal", "ma",
            "--coeffs", "1,0.5", "--ns", "50", "--seed", "2", "--out", str(snaps),
        )
        lines = snaps.read_text().splitlines()
        row = lines[5].split(",")
        row[2] = "nan"
        lines[5] = ",".join(row)
        snaps.write_text("\n".join(lines) + "\n")
        sampler_path = tmp_path / "full.json"
        sampler_path.write_text(Subsampler.full(16).to_json())
        model_args = ["--sampler", str(sampler_path)] if model == "spectral" else ["--p", "1"]
        code = run_cli(
            "estimate", "--graph", sensor_graph_file, "--snapshots", str(snaps),
            "--model", model, *model_args, "--out", str(tmp_path / "out.json"),
        )
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_ar_rejects_other_methods(self, tmp_path):
        g = tmp_path / "g.json"
        run_cli("graph", "gen", "--kind", "cycle", "--n", "8", "--out", str(g))
        snaps = tmp_path / "snaps.csv"
        run_cli(
            "signal", "gen", "--graph", str(g), "--shift", "adjacency", "--signal", "ar",
            "--coeffs", "0.1", "--ns", "100", "--seed", "4", "--out", str(snaps),
        )
        code = run_cli(
            "estimate", "--graph", str(g), "--shift", "adjacency", "--snapshots", str(snaps),
            "--model", "ar", "--p", "1", "--method", "wls", "--out", str(tmp_path / "o.json"),
        )
        assert code == 2

    def test_ar_demean_equals_estimate_from_demeaned_data(self, tmp_path):
        from graphcov import SnapshotMatrix, load_snapshots_csv, save_snapshots_csv

        g = tmp_path / "g.json"
        run_cli("graph", "gen", "--kind", "cycle", "--n", "12", "--out", str(g))
        raw = tmp_path / "raw.csv"
        run_cli(
            "signal", "gen", "--graph", str(g), "--shift", "adjacency", "--signal", "ar",
            "--coeffs", "0.2", "--ns", "500", "--seed", "4", "--out", str(raw),
        )
        snaps = load_snapshots_csv(raw)
        data = snaps.data + np.linspace(1.0, 3.0, 12)[:, None]  # a mean that demeaning must remove
        shifted, centred = tmp_path / "shifted.csv", tmp_path / "centred.csv"
        save_snapshots_csv(shifted, SnapshotMatrix(data, snaps.node_indices))
        save_snapshots_csv(
            centred, SnapshotMatrix(data - data.mean(axis=1, keepdims=True), snaps.node_indices)
        )
        reports = []
        for path, extra in ((shifted, ["--demean"]), (centred, []), (shifted, [])):
            out = tmp_path / "est.json"
            assert run_cli(
                "estimate", "--graph", str(g), "--shift", "adjacency", "--snapshots", str(path),
                "--model", "ar", "--p", "1", *extra, "--out", str(out),
            ) == 0
            reports.append(json.loads(out.read_text()))
        npt.assert_allclose(reports[0]["theta"], reports[1]["theta"], rtol=1e-12)
        assert abs(reports[2]["theta"][0] - reports[1]["theta"][0]) > 1e-3

    @pytest.mark.parametrize(
        "sampler, code, message",
        [
            ({"n": 12, "selected": [0, 1, 2]}, 3, "model rank 6 < 12 parameters"),
            ({"n": 16, "selected": [0, 1, 2, 3]}, 2, "sampler has 16 nodes, the model 12"),
        ],
        ids=["rank-deficient", "other-node-count"],
    )
    def test_estimate_bad_sampler_exit_code(self, tmp_path, capsys, sampler, code, message):
        g = tmp_path / "g.json"
        run_cli("graph", "gen", "--kind", "sensor", "--n", "12", "--seed", "3", "--out", str(g))
        snaps = tmp_path / "snaps.csv"
        run_cli(
            "signal", "gen", "--graph", str(g), "--signal", "ma",
            "--coeffs", "1,0.5", "--ns", "50", "--seed", "2", "--out", str(snaps),
        )
        sampler_path = tmp_path / "s.json"
        sampler_path.write_text(json.dumps(sampler))
        capsys.readouterr()
        assert run_cli(
            "estimate", "--graph", str(g), "--snapshots", str(snaps),
            "--sampler", str(sampler_path), "--out", str(tmp_path / "o.json"),
        ) == code
        assert message in capsys.readouterr().err

    def test_missing_model_option_exit_code(self, sensor_graph_file, tmp_path, capsys):
        snaps = tmp_path / "snaps.csv"
        run_cli(
            "signal", "gen", "--graph", sensor_graph_file, "--signal", "ma",
            "--coeffs", "1,0.5", "--ns", "50", "--seed", "2", "--out", str(snaps),
        )
        sampler_path = tmp_path / "full.json"
        sampler_path.write_text(Subsampler.full(16).to_json())
        common = ["--graph", sensor_graph_file, "--out", str(tmp_path / "o.json")]
        for argv in (
            ["sampler", "design", "--model", "ma", "--k", "3"],  # no --q
            ["estimate", "--model", "ma", "--sampler", str(sampler_path), "--snapshots", str(snaps)],
            ["estimate", "--model", "spectral", "--snapshots", str(snaps)],  # no --sampler
        ):
            assert run_cli(*argv, *common) == 2, argv
            assert "required" in capsys.readouterr().err

    def test_estimate_ma_nnls_exit_code(self, sensor_graph_file, tmp_path, capsys):
        snaps = tmp_path / "snaps.csv"
        run_cli(
            "signal", "gen", "--graph", sensor_graph_file, "--signal", "ma",
            "--coeffs", "1,-0.3", "--ns", "50", "--seed", "2", "--out", str(snaps),
        )
        sampler_path = tmp_path / "full.json"
        sampler_path.write_text(Subsampler.full(16).to_json())
        out = tmp_path / "o.json"
        common = ["estimate", "--graph", sensor_graph_file, "--snapshots", str(snaps),
                  "--sampler", str(sampler_path), "--model", "ma", "--q", "3", "--out", str(out)]
        assert run_cli(*common, "--method", "nnls") == 2
        assert "moving-average" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli(*common, "--method", "ls") == 0

    @pytest.fixture
    def huge_snapshots(self, tmp_path):
        """A 4-cycle, its full sampler and two snapshots of entries near 1e100:
        the covariance is finite, and the squares of the residual's entries are not."""
        graph, sampler, snaps = (tmp_path / name for name in ("g.json", "s.json", "snaps.csv"))
        assert run_cli("graph", "gen", "--kind", "cycle", "--n", "4", "--out", str(graph)) == 0
        sampler.write_text('{"n": 4, "selected": [0, 1, 2, 3]}')
        snaps.write_text("node_0,node_1,node_2,node_3\n1.0e100,-3.0e100,2.0e100,5.0e99\n"
                         "-2.0e100,1.0e100,4.0e100,-1.0e100\n")
        return ["estimate", "--graph", str(graph), "--shift", "adjacency", "--method", "nnls",
                "--sampler", str(sampler), "--snapshots", str(snaps)]

    def test_estimate_residual_near_the_float_range_is_finite(self, huge_snapshots, tmp_path):
        out = tmp_path / "e.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
            assert run_cli(*huge_snapshots, "--out", str(out)) == 0
        report = strict_json(out.read_text())
        assert 1e200 < report["residual"] < 1e202

    def test_estimate_writes_null_for_a_residual_that_is_not_finite(self, huge_snapshots, tmp_path, monkeypatch):
        monkeypatch.setattr(graphcov.estimators.EstimationResult, "residual_norm", float("inf"))
        out = tmp_path / "e.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
            assert run_cli(*huge_snapshots, "--out", str(out)) == 0
        assert strict_json(out.read_text())["residual"] is None

    def test_option_the_model_does_not_take_exit_code(self, sensor_graph_file, tmp_path, capsys):
        # an option of another model is refused and named, not ignored
        snaps = tmp_path / "snaps.csv"
        run_cli(
            "signal", "gen", "--graph", sensor_graph_file, "--signal", "ma",
            "--coeffs", "1,0.5", "--ns", "50", "--seed", "2", "--out", str(snaps),
        )
        sampler_path = tmp_path / "full.json"
        sampler_path.write_text(Subsampler.full(16).to_json())
        out = tmp_path / "o.json"
        common = ["--graph", sensor_graph_file, "--out", str(out)]
        estimate = ["estimate", "--snapshots", str(snaps)]
        for argv, message in (
            (["sampler", "design", "--model", "spectral", "--q", "99", "--k", "8"],
             "model kind 'spectral' takes no key 'q'"),
            ([*estimate, "--model", "spectral", "--sampler", str(sampler_path), "--p", "3", "--core", "1,2",
              "--q", "7"], "model kind 'spectral' takes no key 'p'"),
            ([*estimate, "--model", "spectral", "--sampler", str(sampler_path), "--core", "1,2"],
             "takes --sampler, not --core"),
            ([*estimate, "--model", "ma", "--q", "3", "--p", "1", "--sampler", str(sampler_path)],
             "model kind 'ma' takes no key 'p'"),
            ([*estimate, "--model", "ar", "--p", "1", "--sampler", str(sampler_path)],
             "takes --core, not --sampler"),
            ([*estimate, "--model", "ar", "--p", "1", "--q", "2"], "model kind 'ar' takes no key 'q'"),
        ):
            assert run_cli(*argv, *common) == 2, argv
            assert message in capsys.readouterr().err, argv
            assert not out.exists()


@pytest.mark.parametrize(
    "command",
    ["estimate-graph-dir", "estimate-binary-snapshots", "estimate-snapshots-dir",
     "experiment-config-dir", "design-out-dir"],
)
def test_unreadable_path_exit_code(sensor_graph_file, tmp_path, capsys, command):
    """A path that is a directory, a file that is not UTF-8 or an unwritable --out exits 2 in one line."""
    snaps = tmp_path / "snaps.csv"
    assert run_cli(
        "signal", "gen", "--graph", sensor_graph_file, "--coeffs", "1,0.5", "--ns", "20", "--out", str(snaps)
    ) == 0
    sampler_path = tmp_path / "s.json"
    sampler_path.write_text(Subsampler.full(16).to_json())
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\x00")
    folder = tmp_path / "folder"
    folder.mkdir()
    estimate = ["estimate", "--sampler", str(sampler_path), "--out", str(tmp_path / "o.json")]
    argv = {
        "estimate-graph-dir": [*estimate, "--graph", str(folder), "--snapshots", str(snaps)],
        "estimate-binary-snapshots": [*estimate, "--graph", sensor_graph_file, "--snapshots", str(binary)],
        "estimate-snapshots-dir": [*estimate, "--graph", sensor_graph_file, "--snapshots", str(folder)],
        "experiment-config-dir": ["experiment", "nmse", "--config", str(folder)],
        "design-out-dir": ["sampler", "design", "--graph", sensor_graph_file, "--k", "8", "--out", str(folder)],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["sampler-design", "experiment-nmse"])
def test_graph_too_large_for_memory_exit_code(tmp_path, capsys, command):
    """A graph whose dense N x N matrix numpy refuses to allocate (7.28 TiB at N = 10^6) exits 4 in one line."""
    graph = tmp_path / "huge.json"
    graph.write_text(json.dumps({"n": 1_000_000, "edges": [[0, 1]]}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base_config(graph={"kind": "file", "path": str(graph)}, samplers=[{"kind": "full"}])))
    out = tmp_path / "out"
    argv = {
        "sampler-design": ["sampler", "design", "--graph", str(graph), "--k", "4", "--out", str(out)],
        "experiment-nmse": ["experiment", "nmse", "--config", str(cfg), "--out", str(out)],
    }[command]
    assert run_cli(*argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err
    assert not out.exists()


class TestOneKindVocabulary:
    """A model kind has one name, its row of ``KINDS["model"]``, and the row lists the sampler kinds it takes."""

    def test_every_built_model_names_its_kinds_row(self):
        from graphcov import ar
        from graphcov.experiment import KINDS, make_model
        from graphcov.models import compress_model

        shift = build_shift(make_graph({"kind": "sensor", "n": 12, "seed": 3}), "adjacency")
        for spec in ({"kind": "spectral"}, {"kind": "ma", "q": 3}):
            psi = make_model(shift, spec)
            assert psi.kind == spec["kind"]
            assert compress_model(psi, Subsampler.full(12)).param_kind == spec["kind"]
        scheme = ar.build_ar_scheme(shift, (0,), 1)
        cov = ar.true_ar_covariance(shift, np.array([0.1]), scheme.distinct_nodes)
        model, _ = ar.build_ar_model(shift, scheme, cov)
        assert model.param_kind == "ar"
        assert {psi.kind, model.param_kind} <= set(KINDS["model"])

    def test_sampler_kinds_follow_the_rows(self, monkeypatch, sensor_graph_file, tmp_path, capsys):
        from graphcov.experiment import KINDS

        spectral, ma = KINDS["model"]["spectral"], KINDS["model"]["ma"]
        monkeypatch.setitem(KINDS["model"], "spectral", spectral._replace(samplers=("full", "explicit", "greedy")))
        refusal = r"model kind 'spectral' takes sampler kinds \['full', 'explicit', 'greedy'\], not 'ruler'"
        with pytest.raises(InvalidInputError, match=refusal):
            ExperimentConfig(**base_config(samplers=[{"kind": "ruler"}]))
        ExperimentConfig(**base_config())  # full and greedy stay
        # sampler design offers the models whose row takes greedy
        design = ["sampler", "design", "--graph", sensor_graph_file, "--k", "8", "--q", "3",
                  "--out", str(tmp_path / "s")]
        assert run_cli(*design, "--model", "ma") == 0
        monkeypatch.setitem(KINDS["model"], "ma", ma._replace(samplers=("full",)))
        with pytest.raises(SystemExit) as exit_:
            run_cli(*design, "--model", "ma")
        assert exit_.value.code == 2
        assert "invalid choice: 'ma'" in capsys.readouterr().err


@pytest.fixture
def malformed_inputs(tmp_path):
    """The files of the malformed invocations: a 12-node graph, snapshots of it, and bad samplers, CSVs and configs.

    A 4-cycle, its full sampler and one snapshot of entries near 1e154 make a
    sample covariance whose entries reach 1e308 and whose trace overflows.
    """
    paths = {"graph": tmp_path / "g.json", "snaps": tmp_path / "snaps.csv", "out": tmp_path / "out",
             "cycle4": tmp_path / "c4.json"}
    assert run_cli("graph", "gen", "--kind", "sensor", "--n", "12", "--seed", "3", "--out", str(paths["graph"])) == 0
    assert run_cli("graph", "gen", "--kind", "cycle", "--n", "4", "--out", str(paths["cycle4"])) == 0
    assert run_cli(
        "signal", "gen", "--graph", str(paths["graph"]), "--shift", "adjacency", "--signal", "ar",
        "--coeffs", "0.2", "--ns", "50", "--out", str(paths["snaps"]),
    ) == 0
    files = {
        "sampler13": json.dumps({"n": 13, "selected": [0, 1, 2]}),
        "sampler_empty": json.dumps({"n": 12, "selected": []}),
        "header_separator": "node_0,node_1_0\n1,2\n",
        "header_sign": "node_0,node_+2\n1,2\n",
        "header_space": "node_0,node_3 \n1,2\n",
        "config_list": "[1, 2]",
        "config_null": "null",
        "config_string": '"x"',
        "config_shift": json.dumps(base_config(shift="lap")),
        "config_selected_empty": json.dumps(base_config(samplers=[{"kind": "explicit", "selected": []}])),
        "sampler4": json.dumps({"n": 4, "selected": [0, 1, 2, 3]}),
        "snaps_large": "node_0,node_1,node_2,node_3\n1.0e154,1.0e154,1.0,1.0\n",
    }
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    return {name: str(path) for name, path in paths.items()}


_ESTIMATE = ["estimate", "--graph", "{graph}", "--snapshots", "{snaps}", "--out", "{out}"]
_SIGNAL = ["signal", "gen", "--graph", "{graph}", "--coeffs", "1,0.5", "--ns", "5", "--out", "{out}"]
MALFORMED_INVOCATIONS = {
    "core-separator": [*_ESTIMATE, "--model", "ar", "--p", "1", "--core", "1_0"],
    "coeffs-separator": ["signal", "gen", "--graph", "{graph}", "--coeffs", "1_0", "--ns", "5", "--out", "{out}"],
    "marks-separator": ["sampler", "ruler", "--n", "12", "--marks", "0,1,1_0", "--out", "{out}"],
    "header-separator": ["estimate", "--graph", "{graph}", "--snapshots", "{header_separator}", "--model", "ar",
                         "--p", "1", "--core", "0", "--out", "{out}"],
    "header-sign": ["estimate", "--graph", "{graph}", "--snapshots", "{header_sign}", "--model", "ar",
                    "--p", "1", "--core", "0", "--out", "{out}"],
    "header-space": ["estimate", "--graph", "{graph}", "--snapshots", "{header_space}", "--model", "ar",
                     "--p", "1", "--core", "0", "--out", "{out}"],
    "config-list": ["experiment", "nmse", "--config", "{config_list}", "--out", "{out}"],
    "config-null": ["experiment", "nmse", "--config", "{config_null}", "--out", "{out}"],
    "config-string": ["experiment", "nmse", "--config", "{config_string}", "--out", "{out}"],
    "config-shift-lap": ["experiment", "nmse", "--config", "{config_shift}", "--out", "{out}"],
    "ar-order-past-the-graph": [*_ESTIMATE, "--shift", "adjacency", "--model", "ar", "--p", "40"],
    "estimate-sampler-of-13-nodes": [*_ESTIMATE, "--sampler", "{sampler13}"],
    "signal-sampler-of-13-nodes": [*_SIGNAL, "--sampler", "{sampler13}"],
    "estimate-empty-sampler": [*_ESTIMATE, "--sampler", "{sampler_empty}"],
    "signal-empty-sampler": [*_SIGNAL, "--sampler", "{sampler_empty}"],
    "config-empty-selected": ["experiment", "nmse", "--config", "{config_selected_empty}", "--out", "{out}"],
    "estimate-overflowing-covariance": ["estimate", "--graph", "{cycle4}", "--sampler", "{sampler4}",
                                        "--snapshots", "{snaps_large}", "--out", "{out}"],
    # refused by argparse, before any command runs
    "argparse-integer-separator": ["graph", "gen", "--kind", "cycle", "--n", "1_0", "--out", "{out}"],
    "argparse-unknown-choice": ["graph", "gen", "--kind", "foo", "--n", "4", "--out", "{out}"],
    "argparse-missing-option": ["sampler", "design", "--graph", "{graph}", "--out", "{out}"],
    "argparse-no-command": [],
}


@pytest.mark.parametrize("case", list(MALFORMED_INVOCATIONS))
def test_malformed_invocation_exits_in_one_error_line(malformed_inputs, capsys, case):
    """Each malformed invocation exits 2, 3 or 4 with one ``error:`` line on stderr and writes nothing.

    argparse refuses by raising ``SystemExit``, whose code is the exit code.
    """
    capsys.readouterr()
    try:
        code = run_cli(*(arg.format(**malformed_inputs) for arg in MALFORMED_INVOCATIONS[case]))
    except SystemExit as exit_:
        code = exit_.code
    err = capsys.readouterr().err
    assert code in (2, 3, 4)
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err
    assert not os.path.exists(malformed_inputs["out"])


README_STUDY = {
    "graph": {"kind": "sensor", "n": 30, "seed": 7},
    "shift": "laplacian",
    "signal": {"kind": "ma", "h": [1.0, 0.5, 0.2]},
    "model": {"kind": "spectral"},
    "samplers": [{"name": "full", "kind": "full"}, {"name": "greedy15", "kind": "greedy", "k": 15}],
    "methods": ["ls", "nnls", "wls"],
    "n_snapshots": [100, 1000],
    "n_trials": 10,
    "seed": 0,
}


class TestFailedEstimates:
    """A failed estimate, a refused covariance and a missing CRB leave their rows empty, not the study."""

    def test_capped_nnls_fails_only_its_own_rows(self, monkeypatch):
        from graphcov import estimators

        plain = run_experiment(ExperimentConfig(**README_STUDY))
        monkeypatch.setattr(estimators, "NNLS_CAP", 0)
        capped = run_experiment(ExperimentConfig(**README_STUDY))
        changed = [(row["n_snapshots"], row["method"], row["sampler"], row["failures"])
                   for row, before in zip(capped, plain) if row != before]
        assert changed == [(100, "nnls", "greedy15", 10), (1000, "nnls", "greedy15", 7)]
        by_key = {(row["n_snapshots"], row["method"], row["sampler"]): row for row in capped}
        assert by_key[100, "nnls", "greedy15"]["nmse_db"] is None

    def test_refused_covariance_fails_its_trial_in_every_cell(self, monkeypatch):
        # the third realisation of the first snapshot count is non-finite, so its
        # covariance, and with it the block's stack, is refused
        from graphcov import experiment

        plain = run_experiment(ExperimentConfig(**README_STUDY))

        def non_finite_third(shift, filt, n_snapshots, seed, nodes):
            data = graphcov.generate_signals(shift, filt, n_snapshots, seed, nodes)
            if seed.entropy == (README_STUDY["seed"], 0, 2):
                data[0, 0] = np.nan
            return data

        monkeypatch.setattr(experiment, "generate_signals", non_finite_third)
        refused = run_experiment(ExperimentConfig(**README_STUDY))
        assert [row["failures"] for row in refused if row["n_snapshots"] == 100] == [1] * 6
        assert [row for row in refused if row["n_snapshots"] == 1000] == [
            row for row in plain if row["n_snapshots"] == 1000
        ]

    def test_zero_in_the_spectrum_leaves_only_the_crb_empty(self):
        # h = [0, 1] on the Laplacian gives p(0) = 0: the full sampler's true
        # covariance is singular and its Fisher information has no inverse
        rows = run_experiment(ExperimentConfig(**dict(
            README_STUDY, graph={"kind": "sensor", "n": 12, "seed": 7}, signal={"kind": "ma", "h": [0, 1]},
            samplers=[{"name": "full", "kind": "full"}, {"name": "greedy8", "kind": "greedy", "k": 8}],
        )))
        assert {row["crb_db"] for row in rows if row["sampler"] == "full"} == {None}
        assert all(np.isfinite(row["crb_db"]) for row in rows if row["sampler"] == "greedy8")
        assert all(row["failures"] == 0 and np.isfinite(row["nmse_db"]) for row in rows)

    def test_barely_positive_definite_covariance_leaves_only_the_crb_empty(self, tmp_path, capsys):
        # the same zero on N=8 (seed 17) leaves the full sampler's true covariance a smallest
        # eigenvalue of about 4e-15: positive, but its Cholesky factorisation fails
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        cfg_path.write_text(json.dumps(dict(
            README_STUDY, graph={"kind": "sensor", "n": 8, "seed": 17}, signal={"kind": "ma", "h": [0, 1]},
            samplers=[{"name": "full", "kind": "full"}],
        )))
        assert run_cli("experiment", "nmse", "--config", str(cfg_path), "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 1 + 2 * 3
        for line in lines[1:]:
            *_, nmse, crb, failures = line.split(",")
            assert np.isfinite(float(nmse)) and crb == "" and failures == "0"


@pytest.mark.parametrize(
    "config",
    [
        {**README_STUDY, "exact_covariance": True},
        README_STUDY,
        {**README_STUDY, "model": {"kind": "ma", "q": 3}, "methods": ["ls", "wls"]},
        base_config(**AR_STUDY),
    ],
    ids=["readme-exact", "readme-sampled", "ma", "ar"],
)
def test_every_estimate_of_a_study_is_one_estimate_call(monkeypatch, config):
    # experiment.estimate is the one place a method turns into an estimator call: an exact
    # study calls it once per cell and method at set-up, a sampled one once per cell, trial and
    # per-trial method, and once per cell and block for WLS; no estimator is called outside it
    from graphcov import ar, experiment
    from graphcov.estimators import trial_blocks

    calls, solved, inside = [], [], []  # inside holds one entry while an estimate call runs
    original = experiment.estimate

    def estimate(*args):
        calls.append(args[1])
        inside.append(None)
        try:
            return original(*args)
        finally:
            inside.pop()

    def solver(solve):
        def wrapper(*args):
            solved.append(bool(inside))
            return solve(*args)

        return wrapper

    monkeypatch.setattr(experiment, "estimate", estimate)
    for module, name in ((experiment, "ls_estimate"), (experiment, "nnls_estimate"),
                         (experiment, "wls_estimate"), (ar, "estimate_ar")):
        monkeypatch.setattr(module, name, solver(getattr(module, name)))
    cfg = ExperimentConfig(**config)
    rows = run_experiment(cfg)
    assert all(row["failures"] == 0 for row in rows)

    n_cells, per_trial = len(cfg.samplers), [m for m in cfg.methods if m != "wls"]
    if cfg.exact_covariance:
        expected = n_cells * len(cfg.methods)
    else:
        blocks = len(trial_blocks(cfg.n_trials, cfg.graph["n"]))
        wls_calls = blocks if "wls" in cfg.methods else 0
        expected = n_cells * len(cfg.n_snapshots) * (cfg.n_trials * len(per_trial) + wls_calls)
    assert len(calls) == expected
    assert len(solved) == expected and all(solved)


REFERENCE_SENSOR = {
    "methods": ["ls", "nnls", "wls"],
    "samplers": [{"name": "full", "kind": "full"},
                 {"name": "part", "kind": "explicit", "selected": [0, 2, 3, 5, 7, 8, 11, 12, 14]}],
}
REFERENCE_MA = {
    "graph": {"kind": "sensor", "n": 20, "seed": 7}, "model": {"kind": "ma", "q": 3}, "methods": ["ls", "wls"],
    "samplers": [{"name": "full", "kind": "full"},
                 {"name": "part", "kind": "explicit", "selected": [1, 4, 6, 9, 12, 15, 18]}],
}


class TestExperiment:
    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config()))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("experiment", "nmse", "--config", str(cfg_path), "--out", str(a)) == 0
        assert run_cli("experiment", "nmse", "--config", str(cfg_path), "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().split("\n")[0]
        assert header == "n_snapshots,method,sampler,compression,nmse_db,crb_db,failures"

    def test_csv_names_the_sampler_of_each_row(self):
        import csv

        samplers = [
            {"name": "greedy, k=8", "kind": "greedy", "k": 8},
            {"name": 'first "eight"', "kind": "explicit", "selected": list(range(8))},
        ]
        rows = run_experiment(ExperimentConfig(**base_config(samplers=samplers, n_trials=2)))
        text = rows_to_csv(rows)
        parsed = list(csv.reader(text.splitlines()))
        assert parsed[0] == CSV_HEADER.split(",")
        assert [line[2] for line in parsed[1:]] == ["greedy, k=8", 'first "eight"']
        for row, line in zip(rows, text.splitlines()[1:]):
            name = row["sampler"]
            quoted = '"' + name.replace('"', '""') + '"'
            assert line == (
                f"{row['n_snapshots']},{row['method']},{quoted},{row['compression']!r},"
                f"{row['nmse_db']!r},{row['crb_db']!r},{row['failures']}"
            )

    def test_thread_env_does_not_change_results(self, tmp_path):
        # One study on a real sensor basis, one on a complex DFT basis, one
        # AR study and one whose WLS stack spans two trial blocks, and a
        # greedy design of 12 of 60 sensor nodes on the spectral and the
        # moving-average model, each run in a fresh process at one and at
        # two BLAS threads.
        from graphcov.estimators import trial_blocks

        graph = tmp_path / "g60.json"
        assert run_cli("graph", "gen", "--kind", "sensor", "--n", "60", "--seed", "7",
                       "--out", str(graph)) == 0
        configs = [
            base_config(
                methods=["ls", "nnls", "wls"],
                samplers=[{"name": "full", "kind": "full"},
                          {"name": "part", "kind": "explicit", "selected": [0, 2, 3, 5, 7, 8, 11, 12, 14]}],
            ),
            base_config(
                graph={"kind": "cycle", "n": 10},
                shift="adjacency",
                methods=["ls", "nnls", "wls"],
                samplers=[{"name": "ruler", "kind": "ruler"}],
            ),
            base_config(
                graph={"kind": "sensor", "n": 20, "seed": 7},
                shift="adjacency",
                signal={"kind": "ar", "a": [0.1]},
                model={"kind": "ar", "p": 1},
                # 13 and 17 distinct nodes: trials realise 17 of the 20 nodes
                samplers=[{"name": "core1", "kind": "ar-core", "k0": 1},
                          {"name": "core2", "kind": "ar-core", "k0": 2}],
            ),
            base_config(
                graph={"kind": "sensor", "n": 60, "seed": 7},
                methods=["wls"],
                samplers=[{"name": "full", "kind": "full"}],
                n_trials=40,
            ),
        ]
        assert len(trial_blocks(40, 60)) >= 2
        paths = []
        for idx, cfg in enumerate(configs):
            path = tmp_path / f"cfg{idx}.json"
            path.write_text(json.dumps(cfg))
            paths.append(str(path))
        script = (
            "import sys, warnings\n"
            "warnings.simplefilter('ignore')\n"
            "from graphcov.experiment import ExperimentConfig, rows_to_csv, run_experiment\n"
            "for path in sys.argv[1:]:\n"
            "    cfg = ExperimentConfig.from_json(open(path).read())\n"
            "    sys.stdout.write(rows_to_csv(run_experiment(cfg)))\n"
        )
        src = str(Path(graphcov.__file__).resolve().parents[1])
        outputs, reports = [], {}
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
            env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", script, *paths], env=env, capture_output=True, timeout=300
            )
            assert done.returncode == 0, done.stderr.decode()
            outputs.append(done.stdout)
            for model, options in (("spectral", []), ("ma", ["--q", "5"])):
                report = tmp_path / f"report-{model}{threads}.json"
                design = subprocess.run(
                    [sys.executable, "-m", "graphcov.cli", "sampler", "design", "--graph", str(graph),
                     "--model", model, *options, "--k", "12",
                     "--out", str(tmp_path / f"s-{model}{threads}.json"), "--report", str(report)],
                    env=env, capture_output=True, timeout=300,
                )
                assert design.returncode == 0, design.stderr.decode()
                reports.setdefault(model, []).append(report.read_bytes())
        header = b"n_snapshots,method,sampler,compression,nmse_db,crb_db,failures\n"
        studies = outputs[0].split(header)
        assert studies[0] == b""
        assert [study.count(b"\n") for study in studies[1:]] == [2 * 3, 1 * 3, 2 * 1, 1 * 1]  # rows
        assert b",," not in studies[1] + studies[2] + studies[4]  # every spectral cell has an NMSE and a CRB
        assert studies[4].endswith(b",0\n")  # no failed WLS trial in either block
        for row in studies[3].splitlines():  # every AR cell has an NMSE; AR has no CRB
            fields = row.split(b",")
            assert fields[4] != b"" and fields[5] == b"" and fields[6] == b"0"
        assert outputs[0] == outputs[1]
        for model, (one, two) in reports.items():
            assert len(json.loads(one)["objective_trace"]) == 12
            assert one == two, model

    def test_large_study_and_design_same_bytes_at_any_thread_count(self, tmp_path):
        # At N=250 a second OpenBLAS thread changes the bits of eigh, so
        # this holds only because a run pins numpy's BLAS to one thread.
        graph = tmp_path / "g250.json"
        assert run_cli("graph", "gen", "--kind", "sensor", "--n", "250", "--seed", "7",
                       "--out", str(graph)) == 0
        cfg = base_config(
            graph={"kind": "sensor", "n": 250, "seed": 7},
            samplers=[{"name": "greedy25", "kind": "greedy", "k": 25}],
            methods=["ls", "wls"],
            n_snapshots=[1000],
            n_trials=2,
            seed=0,
        )
        cfg_path = tmp_path / "cfg250.json"
        cfg_path.write_text(json.dumps(cfg))
        src = str(Path(graphcov.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
            env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            files = {name: tmp_path / f"{name}{threads}" for name in ("csv", "sampler", "report")}
            for argv in (
                ["experiment", "nmse", "--config", str(cfg_path), "--out", str(files["csv"])],
                ["sampler", "design", "--graph", str(graph), "--k", "25",
                 "--out", str(files["sampler"]), "--report", str(files["report"])],
            ):
                done = subprocess.run(
                    [sys.executable, "-m", "graphcov.cli", *argv],
                    env=env, capture_output=True, timeout=300,
                )
                assert done.returncode == 0, done.stderr.decode()
            outputs.append({name: path.read_bytes() for name, path in files.items()})
        assert outputs[0]["csv"].count(b"\n") == 1 + 2  # header, ls and wls rows
        assert len(json.loads(outputs[0]["sampler"])["selected"]) == 25
        for name in ("csv", "sampler", "report"):
            assert outputs[0][name] == outputs[1][name], name

    def test_trials_make_no_scipy_linalg_call(self, monkeypatch):
        import scipy.linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.linalg called inside a trial")

        for name in ("solve_triangular", "cho_factor", "cho_solve"):
            monkeypatch.setattr(scipy.linalg, name, forbidden)
        for graph, shift, selected in (
            ({"kind": "sensor", "n": 16, "seed": 3}, "laplacian", [0, 2, 3, 5, 7, 8, 11, 12, 14]),
            ({"kind": "cycle", "n": 10}, "adjacency", [0, 1, 4, 7, 9]),
        ):
            cfg = base_config(
                graph=graph,
                shift=shift,
                methods=["ls", "nnls", "wls"],
                samplers=[{"name": "full", "kind": "full"},
                          {"name": "part", "kind": "explicit", "selected": selected}],
                n_trials=3,
            )
            rows = run_experiment(ExperimentConfig(**cfg))
            assert len(rows) == 6
            assert all(row["failures"] == 0 and row["nmse_db"] is not None for row in rows)

    def test_no_scipy_module_loads_at_run_time(self, tmp_path):
        # Run in a fresh process, so that the scipy modules this test process
        # has imported (the tests use scipy as a reference) cannot hide one
        # that graphcov loads. Each step records every scipy module loaded so far.
        studies = {
            "spectral": base_config(methods=["ls", "wls"], n_trials=2),
            "ar": base_config(
                graph={"kind": "sensor", "n": 20, "seed": 7},
                shift="adjacency",
                signal={"kind": "ar", "a": [0.1]},
                model={"kind": "ar", "p": 1},
                samplers=[{"name": "core1", "kind": "ar-core", "k0": 1}],
                n_trials=2,
            ),
            "ma": base_config(model={"kind": "ma", "q": 3}, methods=["ls", "wls"], n_trials=2),
            "nnls": base_config(methods=["nnls"], n_trials=2),
        }
        paths = {}
        for name, cfg in studies.items():
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(cfg))
        graph, sampler, snaps = (str(tmp_path / name) for name in ("g.json", "s.json", "snaps.csv"))
        estimate = ["estimate", "--graph", graph, "--snapshots", snaps]
        commands = {
            "graph gen": ["graph", "gen", "--kind", "sensor", "--n", "16", "--seed", "3", "--out", graph],
            "sampler design": ["sampler", "design", "--graph", graph, "--k", "8", "--out", sampler,
                               "--report", str(tmp_path / "report.json")],
            "sampler ruler": ["sampler", "ruler", "--n", "10", "--out", str(tmp_path / "ruler.json")],
            "signal gen": ["signal", "gen", "--graph", graph, "--coeffs", "1,0.5,0.2", "--ns", "20",
                           "--seed", "1", "--out", snaps],
            "estimate nnls": [*estimate, "--sampler", sampler, "--method", "nnls", "--out", str(tmp_path / "e1")],
            "estimate ma wls": [*estimate, "--sampler", sampler, "--model", "ma", "--q", "3", "--method", "wls",
                                "--out", str(tmp_path / "e2")],
            "estimate ar": [*estimate, "--shift", "adjacency", "--model", "ar", "--p", "1",
                            "--out", str(tmp_path / "e3")],
            "experiment nmse": ["experiment", "nmse", "--config", paths["nnls"], "--out", str(tmp_path / "nnls.csv")],
        }
        script = (
            "import json, sys, warnings\n"
            "warnings.simplefilter('ignore')\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
            "import graphcov\n"
            "loaded = {'import graphcov': scipy_modules()}\n"
            "import numpy as np\n"
            "from graphcov.cli import main\n"
            "from graphcov.experiment import ExperimentConfig, rows_to_csv, run_experiment\n"
            "studies, commands = json.loads(sys.argv[1])\n"
            "csv = {}\n"
            "for name, path in studies.items():\n"
            "    csv[name] = rows_to_csv(run_experiment(ExperimentConfig.from_json(open(path).read())))\n"
            "    loaded[name + ' study'] = scipy_modules()\n"
            "cov = graphcov.CovarianceMatrix(np.eye(2), kind='sample', n_snapshots=10)\n"
            "model = graphcov.ObservationModel(np.eye(4), 'spectral')\n"
            "graphcov.wls_stationarity_residual(model, np.ones(4), np.ones(4), cov)\n"
            "loaded['wls stationarity residual'] = scipy_modules()\n"
            "for name, argv in commands.items():\n"
            "    assert main(argv) == 0, name\n"
            "    loaded[name] = scipy_modules()\n"
            "print(json.dumps({'loaded': loaded, 'csv': csv}))\n"
        )
        src = str(Path(graphcov.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps([paths, commands])],
            env=env, capture_output=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr.decode()
        out = json.loads(done.stdout)
        steps = ["import graphcov", *(f"{name} study" for name in studies), "wls stationarity residual", *commands]
        assert out["loaded"] == {step: [] for step in steps}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert out["csv"]["nnls"] == rows_to_csv(run_experiment(ExperimentConfig(**studies["nnls"])))
        assert out["csv"]["nnls"].count("\n") == 1 + 2  # header and the nnls row of each sampler
        assert (tmp_path / "nnls.csv").read_text() == out["csv"]["nnls"]

    @pytest.mark.parametrize(
        ("overrides", "blocks"),
        [
            (REFERENCE_SENSOR, 1),
            ({"graph": {"kind": "cycle", "n": 10}, "shift": "adjacency", "methods": ["ls", "nnls", "wls"],
              "samplers": [{"name": "ruler", "kind": "ruler"}]}, 1),
            (REFERENCE_MA, 1),
            (REFERENCE_SENSOR, 3),
            (REFERENCE_MA, 3),
        ],
        ids=["sensor", "cycle-ruler", "ma", "sensor-three-blocks", "ma-three-blocks"],
    )
    def test_rows_equal_a_per_trial_reference_loop(self, monkeypatch, overrides, blocks):
        # every cell and method estimated trial by trial from its own sample covariance,
        # with public functions only; N_s = 5 is below every sampler's K, so WLS takes its
        # loaded branch there. With blocks=3 the trials span three blocks of two.
        from graphcov import (
            GraphFilter, build_shift, compress_model, experiment, frequency_response, generate_signals,
            sample_covariance, vec,
        )
        from graphcov import estimators
        from graphcov.estimators import nmse_db, trial_blocks

        cfg = ExperimentConfig(**base_config(n_snapshots=[5, 200], n_trials=6, **overrides))
        shift = build_shift(experiment.make_graph(cfg.graph), cfg.shift)
        if blocks == 3:
            monkeypatch.setattr(estimators, "_BLOCK_ROWS", 2 * shift.n)
        assert len(trial_blocks(cfg.n_trials, shift.n)) == blocks
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
            rows = run_experiment(cfg)
            psi = experiment.make_model(shift, cfg.model)
        filt = GraphFilter(cfg.signal["h"])
        eigvals = shift.basis().eigvals
        true_p = np.abs(frequency_response(eigvals, filt)) ** 2
        p_norm = float(np.linalg.norm(true_p))
        cells = []
        for entry in cfg.samplers:
            if entry["kind"] == "full":
                sampler = Subsampler.full(shift.n)
            elif entry["kind"] == "ruler":
                sampler = experiment.ruler_sampler(shift.n)
            else:
                sampler = Subsampler(shift.n, entry["selected"])
            cells.append((entry["name"], sampler, compress_model(psi, sampler)))
        expected = []
        for ns_idx, ns in enumerate(cfg.n_snapshots):
            sse = {}
            for trial in range(cfg.n_trials):
                seed = np.random.SeedSequence((cfg.seed, ns_idx, trial))
                for name, sampler, model in cells:
                    cov = sample_covariance(generate_signals(shift, filt, ns, seed, sampler.selected))
                    for method in cfg.methods:
                        theta = experiment.estimate(model, method, vec(cov.matrix), cov).theta
                        err = experiment.model_spectrum(model, eigvals, theta) - true_p
                        sse[name, method] = sse.get((name, method), 0.0) + float(err @ err)
            for name, _, _ in cells:
                for method in cfg.methods:
                    expected.append((ns, method, name, nmse_db(sse[name, method], cfg.n_trials, p_norm)))
        assert len(rows) == len(expected)
        for row, (ns, method, name, nmse) in zip(rows, expected):
            assert (row["n_snapshots"], row["method"], row["sampler"]) == (ns, method, name)
            assert row["failures"] == 0
            assert abs(row["nmse_db"] - nmse) <= 1e-9

    def test_crb_column_matches_per_snapshot_fisher(self):
        from graphcov import CovarianceMatrix, fisher_info
        from graphcov.estimators import nmse_db
        from graphcov.experiment import _Pipeline

        cfg = ExperimentConfig(**base_config(n_snapshots=[10, 100, 1000], n_trials=1))
        rows = run_experiment(cfg)
        pipe = _Pipeline(cfg)
        for row in rows:
            cell = next(c for c in pipe.cells if c.name == row["sampler"])
            model = cell.payload
            # the pipeline keeps the true covariance of the observed nodes only; a cell's positions cut its block
            r_true = pipe.true_cov[np.ix_(cell.positions, cell.positions)]
            info = fisher_info(model, CovarianceMatrix(r_true, kind="true"), row["n_snapshots"])
            expected = nmse_db(float(np.trace(info.crb)), 1, pipe.p_norm)
            assert row["crb_db"] == pytest.approx(expected, rel=1e-12)

    def test_exact_mode_hits_floor(self):
        cfg = ExperimentConfig(**base_config(n_trials=1, exact_covariance=True))
        rows = run_experiment(cfg)
        for row in rows:
            assert row["nmse_db"] <= -160.0

    def test_compression_ordering_and_finiteness(self):
        cfg = ExperimentConfig(**base_config(n_trials=20, n_snapshots=[200]))
        rows = run_experiment(cfg)
        by_sampler = {row["sampler"]: row for row in rows}
        assert by_sampler["half"]["nmse_db"] >= by_sampler["full"]["nmse_db"]
        for row in rows:
            assert row["nmse_db"] >= -300.0
            assert np.isfinite(row["nmse_db"])
            assert row["failures"] == 0

    def test_ar_model_config(self):
        cfg = ExperimentConfig(
            **base_config(
                graph={"kind": "cycle", "n": 12},
                shift="adjacency",
                signal={"kind": "ar", "a": [0.2]},
                model={"kind": "ar", "p": 1},
                samplers=[{"kind": "ar-core"}],
                n_trials=3,
                n_snapshots=[500],
            )
        )
        rows = run_experiment(cfg)
        assert len(rows) == 1
        assert rows[0]["crb_db"] is None
        assert rows[0]["failures"] == 0

    def test_ar_trials_realise_only_observed_nodes(self):
        from graphcov import generate_ar_signals
        from graphcov.experiment import _Pipeline

        cfg = ExperimentConfig(
            **base_config(
                graph={"kind": "sensor", "n": 20, "seed": 7},
                shift="adjacency",
                signal={"kind": "ar", "a": [0.1]},
                model={"kind": "ar", "p": 1},
                samplers=[
                    {"kind": "ar-core", "k0": 1, "name": "top"},
                    {"kind": "ar-core", "core": [5], "name": "node5"},
                ],
            )
        )
        pipe = _Pipeline(cfg)
        schemes = [cell[2] for cell in pipe.cells]
        union = sorted(set(schemes[0].distinct_nodes) | set(schemes[1].distinct_nodes))
        assert pipe.observed_nodes == tuple(union) and len(union) < 20
        data = pipe.generate(50, np.random.SeedSequence((11, 0, 0)))
        assert data.shape == (len(union), 50)  # one row per observed node, in pipe.observed_nodes order
        full = generate_ar_signals(pipe.shift, [0.1], 50, np.random.SeedSequence((11, 0, 0)))
        npt.assert_allclose(data, full[union], rtol=1e-12, atol=1e-12 * np.abs(full).max())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"samplers": [{"kind": "full"}, {"kind": "greedy", "k": 8}]},
            {
                "graph": {"kind": "mobius", "n": 12},
                "shift": "adjacency",
                "samplers": [{"kind": "ruler"}, {"kind": "greedy", "k": 5}],
            },
            {
                "graph": {"kind": "sensor", "n": 20, "seed": 7},
                "shift": "adjacency",
                "signal": {"kind": "ar", "a": [0.1]},
                "model": {"kind": "ar", "p": 1},
                "samplers": [
                    {"kind": "ar-core", "k0": 1, "name": "top"},
                    {"kind": "ar-core", "core": [5], "name": "node5"},
                ],
            },
        ],
        ids=["ma-sensor-full-greedy", "ma-mobius-ruler-greedy", "ar-core"],
    )
    def test_trials_realise_only_observed_nodes(self, monkeypatch, overrides):
        # every realization of a study holds the rows some cell reads, and no others
        import graphcov.ar
        import graphcov.experiment
        from graphcov.experiment import _Pipeline

        cfg = ExperimentConfig(**base_config(n_trials=2, **overrides))
        observed = _Pipeline(cfg).observed_nodes
        rows = []
        for module, name in ((graphcov.experiment, "generate_signals"), (graphcov.ar, "generate_ar_signals")):
            def traced(*args, _original=getattr(module, name), **kwargs):
                data = _original(*args, **kwargs)
                rows.append(data.shape[0])
                return data

            monkeypatch.setattr(module, name, traced)
        run_experiment(cfg)
        assert rows == [len(observed)] * 2

    @pytest.mark.parametrize(("n_trials", "n_snapshots"), [(1, [50]), (7, [20, 50, 100])], ids=["one", "many"])
    @pytest.mark.parametrize("model", [{"kind": "spectral"}, {"kind": "ma", "q": 3}], ids=["spectral", "ma"])
    def test_ma_study_builds_its_transfer_rows_once(self, monkeypatch, n_trials, n_snapshots, model):
        # set-up builds H_O for the true covariance, and every trial reads the rows the shift keeps
        import graphcov.stationary

        calls, original = [], graphcov.stationary.apply_filter

        def counted(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(graphcov.stationary, "apply_filter", counted)
        rows = run_experiment(ExperimentConfig(**base_config(
            model=model, methods=["ls", "wls"], n_trials=n_trials, n_snapshots=n_snapshots,
        )))
        assert all(row["failures"] == 0 for row in rows)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        ("n_trials", "n_snapshots", "exact"),
        [(1, [50], False), (7, [20, 50, 100], False), (1, [50], True), (7, [20, 50, 100], True)],
        ids=["one", "many", "one-exact", "many-exact"],
    )
    def test_ar_study_builds_its_transfer_rows_once(self, monkeypatch, n_trials, n_snapshots, exact):
        # set-up builds H_O for the true covariance, and every trial reads the rows the shift keeps
        import graphcov.ar

        calls, original = [], graphcov.ar.ar_transfer_matrix

        def counted(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(graphcov.ar, "ar_transfer_matrix", counted)
        rows = run_experiment(ExperimentConfig(**base_config(**AR_STUDY, n_trials=n_trials, n_snapshots=n_snapshots,
                                                             exact_covariance=exact)))
        assert all(row["failures"] == 0 for row in rows)
        assert len(calls) == 1

    def test_ar_pipeline_holds_the_covariance_of_its_observed_nodes(self):
        from graphcov.ar import true_ar_covariance
        from graphcov.experiment import _Pipeline

        pipe = _Pipeline(ExperimentConfig(**base_config(**AR_STUDY)))
        k = len(pipe.observed_nodes)
        assert k < pipe.shift.n and pipe.true_cov.shape == (k, k)
        full = true_ar_covariance(pipe.shift, [0.1]).matrix
        npt.assert_allclose(pipe.true_cov, full[np.ix_(pipe.observed_nodes, pipe.observed_nodes)], rtol=0, atol=1e-13)
        for cell in pipe.cells:
            # each cell's positions name its scheme's distinct nodes in the observed covariance
            assert tuple(pipe.observed_nodes[i] for i in cell.positions) == cell.payload.distinct_nodes
            assert cell.compression == 1.0 - len(cell.payload.distinct_nodes) / pipe.shift.n

    @pytest.mark.parametrize("p", [1, 2])
    def test_exact_ar_rows_equal_a_reference_loop(self, p):
        # the N x N true covariance, cut per scheme by the public functions, gives the rows
        # the pipeline reads from its covariance of the observed nodes
        from graphcov import ar
        from graphcov.estimators import nmse_db

        cfg = ExperimentConfig(**base_config(**{**AR_STUDY, "model": {"kind": "ar", "p": p}},
                                             n_trials=2, n_snapshots=[10, 100], exact_covariance=True))
        rows = run_experiment(cfg)
        graph = make_graph(cfg.graph)
        shift = build_shift(graph, cfg.shift)
        eigvals = shift.basis().eigvals
        true_p = ar.ar_power_spectrum(eigvals, [0.1])
        full = ar.true_ar_covariance(shift, [0.1])
        expected = {}
        for entry in cfg.samplers:
            core = ar.core_by_degree(graph, entry["k0"]) if "k0" in entry else entry["core"]
            scheme = ar.build_ar_scheme(shift, core, p)
            theta = ar.estimate_ar(*ar.build_ar_model(shift, scheme, ar.true_ar_covariances(scheme, full))).theta
            err = ar.ar_power_spectrum(eigvals, theta) - true_p
            expected[entry["name"]] = nmse_db(float(err @ err), 1, float(np.linalg.norm(true_p)))
        assert len(rows) == 2 * len(cfg.samplers)
        for row in rows:
            assert row["failures"] == 0
            assert abs(row["nmse_db"] - expected[row["sampler"]]) <= 1e-9

    @pytest.mark.parametrize(
        ("overrides", "expected"),
        [
            ({"methods": ["ls", "nnls", "wls"]}, {"ls_estimate": 4, "nnls_estimate": 2}),
            ({"model": {"kind": "ma", "q": 3}, "methods": ["ls", "wls"]}, {"ls_estimate": 4}),
            (AR_STUDY, {"build_ar_model": 2, "estimate_ar": 2}),
        ],
        ids=["spectral", "ma", "ar"],
    )
    def test_exact_study_estimates_each_cell_once(self, monkeypatch, overrides, expected):
        # set-up estimates each cell once, WLS as LS; no trial or snapshot count adds an
        # estimate, and nothing is drawn or sampled
        import collections

        import graphcov.ar
        from graphcov import experiment

        calls = collections.Counter()
        for module, name in ((experiment, "ls_estimate"), (experiment, "nnls_estimate"),
                             (graphcov.ar, "build_ar_model"), (graphcov.ar, "estimate_ar")):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        for module, name in ((experiment, "generate_signals"), (graphcov.ar, "generate_ar_signals"),
                             (experiment, "sample_covariance")):
            def forbidden(*args, _name=name, **kwargs):
                raise AssertionError(f"an exact study called {_name}")

            monkeypatch.setattr(module, name, forbidden)
        for n_trials in (1, 7):
            for n_snapshots in ([50], [10, 50, 100]):
                calls.clear()
                rows = run_experiment(ExperimentConfig(**base_config(
                    **overrides, n_trials=n_trials, n_snapshots=n_snapshots, exact_covariance=True,
                )))
                assert len(rows) == 2 * len(n_snapshots) * len(overrides.get("methods", ["ls"]))
                assert all(row["failures"] == 0 for row in rows)
                assert dict(calls) == expected, (n_trials, n_snapshots)

    @pytest.mark.parametrize(
        "overrides",
        [
            README_STUDY,
            {"graph": {"kind": "cycle", "n": 10}, "shift": "adjacency", "methods": ["ls", "nnls", "wls"],
             "samplers": [{"name": "ruler", "kind": "ruler"}]},
            REFERENCE_MA,
        ],
        ids=["readme-full-greedy15", "cycle-ruler", "ma"],
    )
    def test_exact_rows_equal_a_reference_loop(self, overrides):
        # each sampler estimated once from the true covariance by public functions, WLS as LS
        # (no weights); every trial and snapshot count repeats that estimate. The reference
        # cuts each sampler's block from the true covariance of the union of the samplers'
        # nodes, as the pipeline does: the covariance of a sampler's own nodes differs in its
        # last bits, which moves an exact recovery's roundoff-level NMSE (about -266 dB) by 0.1 dB
        from graphcov import (
            DesignProblem, GraphFilter, compress_model, experiment, frequency_response, greedy_design,
            true_covariance, vec,
        )
        from graphcov.estimators import nmse_db

        cfg = ExperimentConfig(**base_config(**{**overrides, "n_trials": 3, "n_snapshots": [10, 100],
                                                "exact_covariance": True}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RepeatedEigenvaluesWarning)
            rows = run_experiment(cfg)
            shift = build_shift(make_graph(cfg.graph), cfg.shift)
            psi = experiment.make_model(shift, cfg.model)
        n, filt = shift.n, GraphFilter(cfg.signal["h"])
        eigvals = shift.basis().eigvals
        true_p = np.abs(frequency_response(eigvals, filt)) ** 2
        samplers = {}
        for entry in cfg.samplers:
            if entry["kind"] == "full":
                samplers[entry["name"]] = Subsampler.full(n)
            elif entry["kind"] == "ruler":
                samplers[entry["name"]] = experiment.ruler_sampler(n)
            elif entry["kind"] == "greedy":
                samplers[entry["name"]] = greedy_design(DesignProblem(psi=psi, k=entry["k"])).sampler
            else:
                samplers[entry["name"]] = Subsampler(n, entry["selected"])
        union = sorted(set().union(*(sampler.selected for sampler in samplers.values())))
        r_union = true_covariance(shift, filt, union).matrix
        expected = {}
        for name, sampler in samplers.items():
            model = compress_model(psi, sampler)
            at = [union.index(node) for node in sampler.selected]
            r_y = vec(r_union[np.ix_(at, at)])
            for method in cfg.methods:
                theta = experiment.estimate(model, method, r_y, None).theta
                err = experiment.model_spectrum(model, eigvals, theta) - true_p
                expected[name, method] = nmse_db(float(err @ err), 1, float(np.linalg.norm(true_p)))
        assert len(rows) == 2 * len(expected)
        for row in rows:
            assert row["failures"] == 0
            assert abs(row["nmse_db"] - expected[row["sampler"], row["method"]]) <= 1e-9

    def test_exact_study_fails_a_method_in_every_trial(self, monkeypatch):
        # an exact estimate is made once per cell, so a method that fails there fails every
        # trial of every snapshot count, and leaves every other row as it was
        from graphcov import ConvergenceError, experiment

        cfg = ExperimentConfig(**dict(README_STUDY, n_trials=3, exact_covariance=True))
        plain = run_experiment(cfg)

        def diverged(*args, **kwargs):
            raise ConvergenceError("nnls did not converge")

        monkeypatch.setattr(experiment, "nnls_estimate", diverged)
        failed = run_experiment(cfg)
        assert len(failed) == len(plain) == 2 * 2 * 3
        for row, before in zip(failed, plain):
            if row["method"] == "nnls":
                assert row == {**before, "nmse_db": None, "failures": 3}
            else:
                assert row == before

    @pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
    def test_ar_study_cuts_no_full_covariance(self, monkeypatch, exact):
        import graphcov.ar

        def forbidden(*args, **kwargs):
            raise AssertionError("a study cut its AR blocks from an N x N covariance")

        monkeypatch.setattr(graphcov.ar, "true_ar_covariances", forbidden)
        rows = run_experiment(ExperimentConfig(**base_config(**AR_STUDY, exact_covariance=exact)))
        assert rows and all(row["failures"] == 0 for row in rows)

    def test_ar_model_threaded_determinism(self):
        cfg_dict = base_config(
            graph={"kind": "cycle", "n": 12},
            shift="adjacency",
            signal={"kind": "ar", "a": [0.15]},
            model={"kind": "ar", "p": 2},
            samplers=[{"kind": "ar-core"}],
            n_trials=16,
            n_snapshots=[300],
        )
        first = rows_to_csv(run_experiment(ExperimentConfig(**cfg_dict)))
        second = rows_to_csv(run_experiment(ExperimentConfig(**cfg_dict)))
        assert first == second

    def test_ar_rejects_node_sampler_kinds(self):
        from graphcov import InvalidInputError

        # refused when the config is read, before any set-up
        with pytest.raises(InvalidInputError, match=r"model kind 'ar' takes sampler kinds \['ar-core'\], not 'greedy'"):
            ExperimentConfig(
                **base_config(
                    graph={"kind": "cycle", "n": 12},
                    shift="adjacency",
                    signal={"kind": "ar", "a": [0.2]},
                    model={"kind": "ar", "p": 1},
                    samplers=[{"kind": "greedy", "k": 4}],
                )
            )

    @pytest.mark.parametrize("text", ["[1, 2]", "null", '"x"'], ids=["list", "null", "string"])
    def test_config_that_is_not_an_object_exit_code(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert run_cli("experiment", "nmse", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")) == 2
        err = capsys.readouterr().err
        assert err == "error: experiment config must be a JSON object\n", err

    def test_rejects_wls_for_ar(self):
        from graphcov import InvalidInputError

        with pytest.raises(InvalidInputError):
            ExperimentConfig(
                **base_config(
                    signal={"kind": "ar", "a": [0.2]},
                    model={"kind": "ar", "p": 1},
                    samplers=[{"kind": "ar-core"}],
                    methods=["wls"],
                )
            )

    def test_rejects_empty_grid(self):
        from graphcov import InvalidInputError

        with pytest.raises(InvalidInputError):
            ExperimentConfig(**base_config(n_snapshots=[]))

    def test_missing_graph_file_rejected(self):
        from graphcov import InvalidInputError

        with pytest.raises(InvalidInputError):
            make_graph({"kind": "file", "path": "/nonexistent/graph.json"})

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"model": {"kind": "ma"}}, "model.q"),
            ({"samplers": [{"kind": "greedy"}]}, "sampler.k"),
            ({"samplers": [{"kind": "explicit"}]}, "sampler.selected"),
            ({"graph": {"kind": "sensor", "seed": 3}}, "graph.n"),
            ({"signal": {"kind": "ma"}}, "signal.h"),
            (
                {"signal": {"kind": "ar"}, "model": {"kind": "ar", "p": 1},
                 "samplers": [{"kind": "ar-core"}]},
                "signal.a",
            ),
            (
                {"signal": {"kind": "ar", "a": [0.2]}, "model": {"kind": "ar"},
                 "samplers": [{"kind": "ar-core"}]},
                "model.p",
            ),
            ({"methods": ["ls", "lsq"]}, "unknown methods ['lsq']"),
            ({"n_snapshots": [100, 0]}, "snapshot counts must be >= 1"),
            ({"graph": "sensor"}, "config section 'graph' must be an object"),
            ({"signal": "ma"}, "config section 'signal' must be an object"),
            ({"model": "spectral"}, "config section 'model' must be an object"),
            ({"samplers": ["full"]}, "samplers must be a list of objects"),
            ({"samplers": [{"kind": "greedy", "k": "x"}]}, "bad sampler.k 'x'"),
            ({"signal": {"kind": "ma", "h": "abc"}}, "bad signal.h 'abc'"),
            ({"graph": {"kind": "sensor", "n": "x"}}, "bad graph.n 'x'"),
            ({"seed": "x"}, "seed must be a non-negative integer"),
            ({"signal": {"kind": "ma", "h": [0.0]}}, "zero or non-finite power spectrum"),
            ({"signal": {"kind": "ma", "h": [1.0, float("nan")]}}, "bad signal.h [1.0, nan]"),
            ({"signal": {"kind": "ma", "h": [float("inf")]}}, "bad signal.h [inf]"),
            (
                {"signal": {"kind": "ar", "a": [float("nan")]}, "model": {"kind": "ar", "p": 1},
                 "samplers": [{"kind": "ar-core"}]},
                "bad signal.a [nan]",
            ),
            (
                {"signal": {"kind": "ar", "a": []}, "model": {"kind": "ar", "p": 1},
                 "samplers": [{"kind": "ar-core"}]},
                "AR coefficients [] must be a non-empty vector",
            ),
            # a row is keyed by (n_snapshots, method, sampler): a repeat of any is refused
            ({"samplers": [{"kind": "greedy", "k": 8}, {"kind": "greedy", "k": 8}]},
             "sampler name 'k8' is given twice"),
            ({"samplers": [{"name": "a", "kind": "full"}, {"name": "a", "kind": "greedy", "k": 8}]},
             "sampler name 'a' is given twice"),
            ({"methods": ["ls", "ls"]}, "method 'ls' is given twice"),
            ({"n_snapshots": [50, 50]}, "snapshot count 50 is given twice"),
            (
                {"graph": {"kind": "sensor", "n": 20, "seed": 7}, "shift": "adjacency",
                 "signal": {"kind": "ar", "a": [0.1]}, "model": {"kind": "ar", "p": 1},
                 "samplers": [{"kind": "ar-core", "k0": 1}, {"kind": "ar-core", "core": [5]}]},
                "sampler name 'ar-core-1' is given twice",
            ),
            ({"n_trials": 2.5}, "n_trials must be"),
            ({"n_trials": float("nan")}, "n_trials must be"),
            ({"n_trials": True}, "n_trials must be"),
            ({"n_snapshots": [10.5]}, "n_snapshots [10.5]"),
            ({"n_snapshots": [float("nan")]}, "n_snapshots [nan]"),
            ({"samplers": [{"kind": "greedy", "k": 8, "epsilon": float("nan")}]},
             "sampler kind 'greedy' takes no key 'epsilon'"),
            ({"samplers": [{"kind": "greedy", "k": 8.7}]}, "bad sampler.k 8.7"),
            ({"seed": True}, "seed must be a non-negative integer"),
            ({"samplers": [{"kind": "greedy", "k": "8"}]}, "bad sampler.k '8'"),
            ({"samplers": [{"kind": "greedy", "k": 8.0}]}, "bad sampler.k 8.0"),
            ({"graph": {"kind": "sensor", "n": "12"}}, "bad graph.n '12'"),
            ({"graph": {"kind": "sensor", "n": 12, "seed": -1}}, "bad seed -1"),
            ({"samplers": [{"kind": "greedy", "k": 17}]}, "need 1 <= K <= 16, got 17"),
            ({"exact_covariance": "false"}, "exact_covariance must be true or false, got 'false'"),
            ({"exact_covariance": 0.5}, "exact_covariance must be true or false, got 0.5"),
            ({"output": 7}, "output must be a file path or null, got 7"),
            ({"samplers": [{"kind": "greedy", "k": 8, "cost": "frame_potential"}]},
             "sampler kind 'greedy' takes no key 'cost'"),
            ({"samplers": [{"kind": "full", "kost": "x"}]}, "sampler kind 'full' takes no key 'kost'"),
            ({"samplers": [{"kind": "full", "name": 5}]}, "bad sampler.name 5"),
            (
                {"signal": {"kind": "ar", "a": [0.2]}, "model": {"kind": "ar", "p": 1},
                 "samplers": [{"kind": "ar-core", "ko": 2}]},
                "sampler kind 'ar-core' takes no key 'ko'",
            ),
            (
                {"signal": {"kind": "ar", "a": [0.2]}, "model": {"kind": "ar", "p": 1},
                 "samplers": [{"cores": [0]}]},
                "sampler kind 'ar-core' takes no key 'cores'",
            ),
            (
                {"signal": {"kind": "ar", "a": [0.2]}, "model": {"kind": "ar", "p": 1},
                 "samplers": [{"kind": "ar-core", "core": []}]},
                "core set must be non-empty",
            ),
            (
                # b = h * h = [1, -0.6, 0.09]: nnls would constrain b, not the spectrum
                {"signal": {"kind": "ma", "h": [1.0, -0.3]}, "model": {"kind": "ma", "q": 3},
                 "methods": ["ls", "nnls"]},
                "moving-average model's parameters are the coefficients b = h * h",
            ),
            ({"model": {"kind": "spectral", "q": 5}}, "model kind 'spectral' takes no key 'q'"),
            ({"model": {"kind": "ma", "q": 3, "p": 1}}, "model kind 'ma' takes no key 'p'"),
            (
                {"signal": {"kind": "ar", "a": [0.2]}, "model": {"kind": "ar", "p": 1, "q": 2},
                 "samplers": [{"kind": "ar-core"}]},
                "model kind 'ar' takes no key 'q'",
            ),
            ({"signal": {"kind": "ma", "h": [1, 0.5], "a": [0.3]}}, "signal kind 'ma' takes no key 'a'"),
            (
                {"signal": {"kind": "ar", "a": [0.2], "h": [1.0]}, "model": {"kind": "ar", "p": 1},
                 "samplers": [{"kind": "ar-core"}]},
                "signal kind 'ar' takes no key 'h'",
            ),
            ({"graph": {"kind": "sensor", "n": 12, "sed": 7}},
             "graph kind 'sensor' takes no key 'sed'; its keys are ['kind', 'n', 'seed', 'knn']"),
            ({"graph": {"kind": "cycle", "n": 12, "seed": 7}}, "graph kind 'cycle' takes no key 'seed'"),
            ({"graph": {"kind": "file", "path": "g.json", "n": 12}}, "graph kind 'file' takes no key 'n'"),
            ({"methods": "wls"}, "methods must be a non-empty list of method names, got 'wls'"),
            (
                {"signal": {"kind": "ar", "a": [0.2]}, "model": {"kind": "ar", "p": 1},
                 "samplers": [{"kind": "ar-core", "core": [0], "k0": 5}]},
                "sampler.core [0] and sampler.k0 5 both choose the core",
            ),
            (
                {"signal": {"kind": "ar", "a": [0.2]}, "model": {"kind": "ar", "p": 1},
                 "samplers": [{"core": [0], "k0": 1}]},
                "sampler.core [0] and sampler.k0 1 both choose the core",
            ),
            ({"samplers": [{"kind": "ar-core", "k0": 1}]},
             "model kind 'spectral' takes sampler kinds ['full', 'explicit', 'greedy', 'ruler'], not 'ar-core'"),
            ({"model": {"kind": "ma", "q": 3}, "samplers": [{"kind": "ar-core"}]},
             "model kind 'ma' takes sampler kinds ['full', 'explicit', 'greedy', 'ruler'], not 'ar-core'"),
            (
                {"signal": {"kind": "ar", "a": [0.2]}, "model": {"kind": "ar", "p": 1},
                 "samplers": [{"kind": "greedy", "k": 4}]},
                "model kind 'ar' takes sampler kinds ['ar-core'], not 'greedy'",
            ),
        ],
        ids=["ma-q", "greedy-k", "explicit-selected", "sensor-n", "signal-h", "signal-a",
             "ar-p", "unknown-method", "zero-snapshots", "graph-not-object", "signal-not-object",
             "model-not-object", "sampler-not-object", "greedy-k-not-int", "signal-h-not-numbers",
             "sensor-n-not-int", "seed-not-int", "zero-spectrum", "signal-h-nan", "signal-h-inf",
             "signal-a-nan", "signal-a-empty", "repeated-default-sampler-name", "repeated-sampler-name",
             "repeated-method", "repeated-snapshot-count", "repeated-ar-core-default-name",
             "trials-fraction", "trials-nan", "trials-bool", "snapshots-fraction",
             "snapshots-nan", "greedy-epsilon-nan", "greedy-k-fraction", "seed-bool",
             "greedy-k-string", "greedy-k-float", "sensor-n-string", "graph-seed-negative",
             "greedy-k-above-n", "exact-covariance-string", "exact-covariance-number",
             "output-not-string", "greedy-cost", "full-unknown-key", "sampler-name-not-string",
             "ar-core-misspelled-key",
             "ar-core-default-kind-unknown-key", "ar-core-empty", "ma-nnls", "spectral-model-q",
             "ma-model-p", "ar-model-q", "ma-signal-a", "ar-signal-h", "sensor-graph-typo",
             "cycle-graph-seed", "file-graph-n", "methods-string", "ar-core-core-and-k0",
             "ar-core-default-kind-core-and-k0", "spectral-ar-core", "ma-ar-core", "ar-greedy"],
    )
    def test_bad_config_exit_code(self, tmp_path, capsys, overrides, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(**overrides)))
        out = tmp_path / "o.csv"
        code = run_cli("experiment", "nmse", "--config", str(cfg_path), "--out", str(out))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "h, message",
        [(1e150, "has a finite power spectrum whose norm overflows"),
         (1e200, "has a zero or non-finite power spectrum")],
    )
    def test_overflowing_spectrum_exit_code(self, tmp_path, capsys, h, message):
        # each spectrum value is h^2: 1e300 is finite and only its norm overflows,
        # 1e400 overflows itself; either is refused in one error line, with no warning
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(signal={"kind": "ma", "h": [h]})))
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("experiment", "nmse", "--config", str(cfg_path), "--out", str(out))
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "shift, code, message", [("laplacian", 2, "non-finite entry"), ("adjacency", 3, "eigenvalues overflow")]
    )
    def test_overflowing_graph_file_exit_code(self, tmp_path, capsys, shift, code, message):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 3, "edges": [[0, 1, 1.5e308], [0, 2, 1.5e308]]}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            graph={"kind": "file", "path": str(g)}, shift=shift, samplers=[{"kind": "full"}]
        )))
        out = tmp_path / "o.csv"
        assert run_cli("experiment", "nmse", "--config", str(cfg_path), "--out", str(out)) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sampler", [{"kind": "explicit", "selected": [0, 1, 2]}, {"kind": "greedy", "k": 3}],
        ids=["explicit", "greedy"],
    )
    def test_rank_deficient_sampler_exit_code(self, tmp_path, capsys, sampler):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            graph={"kind": "sensor", "n": 12, "seed": 3}, samplers=[sampler]
        )))
        out = tmp_path / "o.csv"
        assert run_cli("experiment", "nmse", "--config", str(cfg_path), "--out", str(out)) == 3
        assert "(rank 6 of 12)" in capsys.readouterr().err
        assert not out.exists()

    def test_estimate_refuses_nnls_on_a_moving_average_model(self):
        # h = [1, -0.3] gives b = h * h = [1, -0.6, 0.09]: the constraint theta >= 0
        # would fall on b, whose middle entry is negative, not on the spectrum
        from graphcov import build_psi_ma, compress_model, vec
        from graphcov.experiment import _Pipeline, estimate

        cfg = ExperimentConfig(**base_config(
            graph={"kind": "sensor", "n": 30, "seed": 7}, signal={"kind": "ma", "h": [1.0, -0.3]},
            model={"kind": "ma", "q": 3}, samplers=[{"name": "full", "kind": "full"}], n_trials=1,
        ))
        pipe = _Pipeline(cfg)
        model = compress_model(build_psi_ma(pipe.shift, 3), Subsampler.full(30))
        r_y = vec(pipe.true_cov)
        npt.assert_allclose(estimate(model, "ls", r_y, None).theta, [1.0, -0.6, 0.09], atol=1e-9)
        with pytest.raises(InvalidInputError, match="moving-average"):
            estimate(model, "nnls", r_y, None)

    def test_make_model_refuses_the_ar_model(self):
        # the AR system is built per scheme from its observed covariance; there is no psi to build
        from graphcov.experiment import make_model

        shift = build_shift(make_graph({"kind": "cycle", "n": 12}), "adjacency")
        with pytest.raises(InvalidInputError, match="the autoregressive model has no uncompressed model"):
            make_model(shift, {"kind": "ar", "p": 1})

    @pytest.mark.parametrize(
        "overrides",
        [{"methods": ["lsq"]}, {"n_snapshots": [0]}, {"model": {"kind": "ma", "q": 3}, "methods": ["nnls"]},
         {"model": {"kind": "spectral", "q": 5}}, {"signal": {"kind": "ma", "h": [1.0], "a": [0.3]}},
         {"methods": ["wls", "ls", "wls"]}, {"n_snapshots": [10, 20, 10]}],
    )
    def test_bad_method_and_snapshot_count_refused_at_construction(self, overrides):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(**base_config(**overrides))
