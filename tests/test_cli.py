import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdglasso
from pdglasso.cli import (
    _admm_config,
    _graph_edges_json,
    _graph_from_json,
    _nesting_violation,
    _simulate_threads,
    build_parser,
    dump_report,
    main,
    read_fit_report,
    write_grid_csv,
)
from pdglasso.errors import MleError
from pdglasso.model import GridPoint, PdColouredGraph, n_params, rcon_residual
from pdglasso.paired import PairedIndex, swap_blocks
from pdglasso.penalties import PenaltySpec, lambda1_diag_max, penalty_weights
from pdglasso.solver import AdmmConfig, kkt_residual

from conftest import (
    equicorrelated,
    example_structures,
    graph_of,
    random_coloured_graph,
    random_pd,
    strong_ggm_truth,
)


def write_cov(path, S, names=None):
    p = S.shape[0]
    if names is None:
        names = [f"g{i+1}_L" for i in range(p // 2)] + [f"g{i+1}_R" for i in range(p // 2)]
    lines = [",".join(names)]
    for row in S:
        lines.append(",".join(repr(float(x)) for x in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_data(path, Y, names=None):
    n, p = Y.shape
    if names is None:
        names = [f"g{i+1}_L" for i in range(p // 2)] + [f"g{i+1}_R" for i in range(p // 2)]
    lines = [",".join(names)]
    for row in Y:
        lines.append(",".join(repr(float(x)) for x in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _names(q):
    return [f"g{i + 1}_L" for i in range(q)] + [f"g{i + 1}_R" for i in range(q)]


class TestReportGraph:
    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_round_trips(self, q, seed):
        g = random_coloured_graph(q, np.random.default_rng(seed))
        assert PdColouredGraph(q, g.present, g.coloured) == g
        names = _names(q)
        tied = g.index.fused_pairs[0][g.coloured]
        doc = {
            "variables": names,
            "edges": _graph_edges_json(g, names),
            "vertex_symmetries": [names[i] for i in range(q) if g.index.coord_of[i, i] in tied],
        }
        assert _graph_from_json(doc) == g

    def test_edge_order_and_symmetry_labels(self):
        names = ["a1", "a2", "a3", "b1", "b2", "b3"]

        def rows(g):
            return [(e["i"], e["j"], e["kind"], e["symmetry"]) for e in _graph_edges_json(g, names)]

        assert rows(example_structures()[3]) == [
            ("a1", "a2", "inside-L", "parametric"),
            ("b1", "b2", "inside-R", "parametric"),
            ("a1", "b2", "across", "parametric"),
            ("b1", "a2", "across", "parametric"),
            ("a2", "a3", "inside-L", "parametric"),
            ("b2", "b3", "inside-R", "parametric"),
            ("a2", "b3", "across", "parametric"),
            ("b2", "a3", "across", "parametric"),
            ("a1", "b1", "across-diagonal", "none"),
            ("a2", "b2", "across-diagonal", "none"),
        ]
        assert rows(example_structures()[1]) == [
            ("b1", "b2", "inside-R", "none"),
            ("a1", "b2", "across", "parametric"),
            ("b1", "a2", "across", "parametric"),
            ("b1", "b3", "inside-R", "none"),
            ("b2", "b3", "inside-R", "none"),
            ("a2", "b3", "across", "structural"),
            ("b2", "a3", "across", "structural"),
        ]


class TestFit:
    def test_identity_covariance_empty_model(self, tmp_path, capsys):
        cov = write_cov(tmp_path / "S.csv", np.eye(6))
        out = tmp_path / "report.json"
        code = main([
            "fit", str(cov), "--cov", "--lambda1", "0", "--n", "10",
            "--output", str(out),
        ])
        assert code == 0
        doc = read_fit_report(str(out))
        assert doc["edges"] == []
        assert doc["d"] == 6
        assert "seed" not in doc
        assert doc["solver_report"]["converged"] is True

    def test_negative_zero_penalties_write_the_report_of_zero(self, tmp_path, rng):
        cov = write_cov(tmp_path / "S.csv", random_pd(4, rng))

        def report(lambda1, lambda2):
            out = tmp_path / "report.json"
            assert main(["fit", str(cov), "--cov", "--n", "40", "--lambda1", lambda1,
                         "--lambda2-vertex", lambda2, "--lambda2-inside", lambda2,
                         "--lambda2-across", lambda2, "-o", str(out)]) == 0
            return out.read_bytes()

        assert report("-0", "0") == report("0", "0")
        assert report("0.3", "-0") == report("0.3", "0")
        assert report("-0", "-0") == report("0", "0")

    def test_lambda_at_printed_threshold_gives_empty_graph(self, tmp_path, rng):
        S = random_pd(6, rng)
        cov = write_cov(tmp_path / "S.csv", S)
        out = tmp_path / "report.json"

        code = main(["thresholds", str(cov), "--cov", "--json"])
        assert code == 0

        lam = 1.0001 * lambda1_diag_max(S)
        code = main([
            "fit", str(cov), "--cov", "--lambda1", repr(lam), "--n", "40",
            "--output", str(out),
        ])
        assert code == 0
        doc = read_fit_report(str(out))
        assert doc["edges"] == []

    def test_all_infinite_components_fully_symmetric(self, tmp_path, rng):
        S = random_pd(6, rng)
        cov = write_cov(tmp_path / "S.csv", S)
        out = tmp_path / "report.json"
        code = main([
            "fit", str(cov), "--cov", "--lambda1", "0.05", "--n", "40",
            "--lambda2-vertex", "Inf", "--lambda2-inside", "Inf",
            "--lambda2-across", "Inf", "--output", str(out),
        ])
        assert code == 0
        doc = read_fit_report(str(out))
        assert doc["solver_report"]["stop_reason"] == "kkt"
        theta_hat = np.asarray(doc["theta_hat"])
        assert np.array_equal(swap_blocks(theta_hat, PairedIndex(3)), theta_hat)
        assert _graph_from_json(doc).is_fully_symmetric()

    def test_every_float_spelling_of_infinity_writes_the_same_report(self, tmp_path, rng):
        cov = write_cov(tmp_path / "S.csv", random_pd(6, rng))
        reports = []
        for text in ("Inf", "infinity", "inf", "1e999"):
            out = tmp_path / f"{text}.json"
            code = main(["fit", str(cov), "--cov", "--lambda1", "0.05", "--n", "40",
                         "--lambda2-vertex", text, "--lambda2-inside", "0.02", "-o", str(out)])
            assert code == 0
            reports.append(out.read_bytes())
        assert reports[1:] == reports[:1] * 3
        assert json.loads(reports[0])["penalties"]["lambda2_vertex"] == "Inf"

    def test_data_input_counts_rows(self, tmp_path, rng):
        Y = rng.standard_normal((30, 4))
        data = write_data(tmp_path / "Y.csv", Y)
        out = tmp_path / "report.json"
        code = main(["fit", str(data), "--lambda1", "0.2", "--output", str(out)])
        assert code == 0
        assert read_fit_report(str(out))["n"] == 30

    def test_missing_n_for_covariance(self, tmp_path):
        cov = write_cov(tmp_path / "S.csv", np.eye(4))
        assert main(["fit", str(cov), "--cov", "--lambda1", "0"]) == 1

    def test_nonconvergence_exit_code(self, tmp_path, rng, capsys):
        cov = write_cov(tmp_path / "S.csv", random_pd(4, rng))
        out = tmp_path / "report.json"
        code = main([
            "fit", str(cov), "--cov", "--lambda1", "0.1", "--n", "10",
            "--max-outer", "1", "--output", str(out),
        ])
        assert code == 2
        assert out.exists()  # report still written

    def test_failed_refit_reports_the_single_penalized_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        # n=6 observations of p=20 variables: the refit's MLE does not exist.
        # MLE refits do not call solve_weighted, so this counts penalized solves.
        import pdglasso.solver as solver

        calls = []
        solve = solver.solve_weighted

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_weighted", counting_solve)
        Y = np.random.default_rng(11).standard_normal((6, 20))
        data = write_data(tmp_path / "Y.csv", Y)
        out = tmp_path / "report.json"
        code = main(["fit", str(data), "--lambda1", "0.01", "--output", str(out)])
        assert code == 2
        assert "MLE refit failed" in capsys.readouterr().err
        doc = read_fit_report(str(out))
        assert doc["theta_mle"] is None and doc["ebic"] is None
        assert doc["rcon_residual"] is None
        assert doc["n"] == 6 and len(doc["theta_hat"]) == 20
        assert len(calls) == 1

    def test_every_config_field_reachable_from_flags(self, tmp_path):
        args = build_parser().parse_args([
            "fit", str(tmp_path / "S.csv"), "--lambda1", "0.1",
            "--eps-abs", "1e-6", "--max-outer", "7",
        ])
        cfg, default = _admm_config(args), AdmmConfig()
        same = [f.name for f in fields(AdmmConfig)
                if getattr(cfg, f.name) == getattr(default, f.name)]
        assert same == []

    def test_report_round_trip_is_byte_identical(self, tmp_path, rng):
        cov = write_cov(tmp_path / "S.csv", random_pd(4, rng))
        out = tmp_path / "report.json"
        main([
            "fit", str(cov), "--cov", "--lambda1", "0.1", "--n", "25",
            "--lambda2-inside", "0.05", "--output", str(out),
        ])
        first = out.read_bytes()
        doc = read_fit_report(str(out))
        assert dump_report(doc).encode() == first

    def test_report_carries_polish_work(self, tmp_path, rng):
        cov = write_cov(tmp_path / "S.csv", random_pd(6, rng))
        out = tmp_path / "report.json"
        main([
            "fit", str(cov), "--cov", "--lambda1", "0.1", "--n", "25",
            "--lambda2-inside", "0.05", "--output", str(out),
        ])
        doc = read_fit_report(str(out))
        rep = doc["solver_report"]
        assert rep["polish_attempts"] >= 1 and rep["stop_reason"] == "kkt"
        assert set(rep) == {
            "outer_iterations", "converged", "objective_value", "kkt_residual", "z_not_pd",
            "stop_reason", "polish_attempts",
        }
        assert rep["converged"] is True

    def test_report_carries_refit_certificate(self, tmp_path, rng):
        S = random_pd(4, rng)
        cov = write_cov(tmp_path / "S.csv", S)
        out = tmp_path / "report.json"
        main([
            "fit", str(cov), "--cov", "--lambda1", "0.1", "--n", "25",
            "--lambda2-inside", "0.05", "--output", str(out),
        ])
        doc = read_fit_report(str(out))
        theta_mle = np.asarray(doc["theta_mle"])
        assert doc["rcon_residual"] == rcon_residual(theta_mle, S, _graph_from_json(doc))
        assert doc["rcon_residual"] <= 10 * 1e-8 * max(1.0, float(np.abs(S).max()))

    def test_standardize_prints_caveat(self, tmp_path, rng, capsys):
        cov = write_cov(tmp_path / "S.csv", random_pd(4, rng))
        out = tmp_path / "report.json"
        code = main([
            "fit", str(cov), "--cov", "--standardize", "--lambda1", "0.1",
            "--n", "25", "--output", str(out),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "symmetries" in err and "rescaling" in err

    @staticmethod
    def singular_solve(tmp_path, *flags):
        """Exit code, S and report of a fit whose one iteration from the
        diagonal start of an equicorrelated S at a small penalty leaves Z
        singular, so that the Theta step is returned."""
        S = equicorrelated(6)
        cov = write_cov(tmp_path / "S.csv", S)
        out = tmp_path / "report.json"
        code = main([
            "fit", str(cov), "--cov", "--n", "50", "--lambda1", repr(0.1 * lambda1_diag_max(S)),
            "--max-outer", "1", "--output", str(out), *flags,
        ])
        return code, S, read_fit_report(str(out))

    def test_singular_solve_writes_its_report(self, tmp_path):
        # the report carries the certificate of the Theta step it returns
        code, S, doc = self.singular_solve(tmp_path)
        assert code == 2
        rep = doc["solver_report"]
        assert rep["stop_reason"] == "max_outer" and rep["z_not_pd"] is True
        idx = PairedIndex(3)
        l1, w = penalty_weights(PenaltySpec(doc["penalties"]["lambda1"]), idx)
        assert rep["kkt_residual"] == kkt_residual(np.array(doc["theta_hat"]), S, idx, l1, w)
        assert 0 < rep["kkt_residual"] < math.inf

    def test_singular_solve_under_an_infinite_weight_writes_nulls(self, tmp_path, capsys):
        # the Theta step breaks the vertex ties, so its objective and its
        # certificate are +inf, which JSON cannot hold: both are written as null
        code, _, doc = self.singular_solve(tmp_path, "--lambda2-vertex", "Inf")
        assert code == 2 and "error" not in capsys.readouterr().err
        rep = doc["solver_report"]
        assert rep["z_not_pd"] is True
        assert rep["objective_value"] is None and rep["kkt_residual"] is None

    def test_zero_column_without_diagonal_penalty_has_no_minimizer(self, tmp_path, capsys):
        # theta_00 has no price: the objective falls without bound, so the
        # fit stops before any step instead of returning a large finite value
        S = random_pd(4, np.random.default_rng(0))
        S[0, :] = S[:, 0] = 0.0
        cov = write_cov(tmp_path / "S.csv", S)
        out = tmp_path / "report.json"
        code = main([
            "fit", str(cov), "--cov", "--n", "50", "--lambda1", "0.1", "--no-diag-penalty",
            "--output", str(out),
        ])
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no minimizer" in err and "unbounded" in err


class TestInputValidation:
    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a_L,a_R\n1.0,2.0\n1.0\n")
        assert main(["thresholds", str(bad)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_non_numeric_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a_L,a_R\n1.0,x\n")
        assert main(["thresholds", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_odd_column_count(self, tmp_path):
        bad = tmp_path / "odd.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert main(["thresholds", str(bad)]) == 1

    def test_asymmetric_covariance_rejected(self, tmp_path):
        M = np.eye(4)
        M[0, 1] = 0.5  # asymmetry far above 1e-10
        bad = write_cov(tmp_path / "S.csv", M)
        assert main(["thresholds", str(bad), "--cov"]) == 1

    def test_missing_file(self):
        assert main(["thresholds", "no-such-file.csv"]) == 1

    @pytest.mark.parametrize("command", ["fit", "path", "thresholds", "compare"])
    @pytest.mark.parametrize("S, cause", [
        ([[1.0, 2.0], [2.0, 1.0]], "not positive semidefinite"),  # eigenvalues 3 and -1
        ([[1.0, 0.5], [0.0, 1.0]], "not symmetric"),
    ], ids=["indefinite", "asymmetric"])
    def test_covariance_outside_the_contract_exits_1_naming_the_fault(
        self, tmp_path, capsys, command, S, cause
    ):
        bad = write_cov(tmp_path / "bad.csv", np.array(S))
        report = tmp_path / "report.json"
        assert main(["fit", str(write_cov(tmp_path / "S.csv", np.eye(2))), "--cov",
                     "--n", "10", "--lambda1", "0.05", "-o", str(report)]) == 0
        capsys.readouterr()
        args = {
            "fit": ["fit", str(bad), "--lambda1", "0.05"],
            "path": ["path", str(bad), "--m", "3"],
            "thresholds": ["thresholds", str(bad)],
            "compare": ["compare", str(report), str(report), "--input", str(bad)],
        }[command]
        assert main([*args, "--cov", *(["--n", "10"] if command != "thresholds" else [])]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert cause in captured.err

    @pytest.mark.parametrize("command", ["fit", "path", "thresholds", "compare"])
    def test_repeated_column_name_exits_1_naming_it(self, tmp_path, capsys, command):
        Y = np.random.default_rng(0).standard_normal((30, 4))
        report = tmp_path / "report.json"
        assert main(["fit", str(write_data(tmp_path / "good.csv", Y)), "--lambda1", "0.05",
                     "-o", str(report)]) == 0
        bad = write_data(tmp_path / "bad.csv", Y, names=["a", "b", "a", "c"])
        capsys.readouterr()
        args = {
            "fit": ["fit", str(bad), "--lambda1", "0.05"],
            "path": ["path", str(bad), "--m", "3"],
            "thresholds": ["thresholds", str(bad)],
            "compare": ["compare", str(report), str(report), "--input", str(bad)],
        }[command]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "column name 'a' is repeated" in captured.err

    @pytest.mark.parametrize("text, flags, message", [
        ("", [], "empty file"),
        ("a_L,a_R\n\n", [], "no data rows"),
        ("a_L,b_L,a_R,b_R\n1,0,0,0\n0,1,0,0\n", ["--cov"], "covariance must be 4 x 4, got 2 x 4"),
        ("a_L,a_R\n0.0,1.0\n0.0,2.0\n", ["--standardize"], "zero variance column"),
    ], ids=["empty", "header-only", "covariance-shape", "zero-variance"])
    def test_unusable_input_exits_1(self, tmp_path, capsys, text, flags, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert main(["thresholds", str(bad), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_small_covariance_asymmetry_is_symmetrized(self, tmp_path, capsys):
        M = np.eye(4)
        M[0, 1] = 5e-11  # within the tolerance of 1e-10 max|S|
        cov = write_cov(tmp_path / "S.csv", M)
        assert main(["thresholds", str(cov), "--cov", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["lambda1_diag"] == 2.5e-11

    def test_unknown_path_penalty_mode(self, tmp_path, capsys):
        cov = write_cov(tmp_path / "S.csv", np.eye(4))
        assert main(["path", str(cov), "--cov", "--n", "10", "--lambda2-vertex", "foo"]) == 1
        assert "penalty mode must be 0, grid or Inf, got 'foo'" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_thresholds_of_non_finite_data_exit_1_without_output(
        self, tmp_path, capsys, cell, as_json
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"a_L,a_R\n1.0,2.0\n{cell},0.5\n0.3,1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["thresholds", str(bad), *(["--json"] if as_json else [])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err


class TestNonFiniteSettings:
    @pytest.mark.parametrize("flags", [
        ["--lambda1", "inf"],
        ["--lambda1", "nan"],
        ["--lambda1", "0.1", "--lambda2-inside", "nan"],
        ["--lambda1", "0.1", "--eps-abs", "nan"],
        ["--lambda1", "0.1", "--lambda2-vertex=-inf"],
        ["--lambda1", "0.1", "--lambda2-across", "infinite"],
    ])
    def test_fit_exits_1_before_any_solve(self, tmp_path, monkeypatch, capsys, flags):
        from pdglasso import solver

        calls = []
        monkeypatch.setattr(solver, "solve_weighted", lambda *a, **k: calls.append(a))
        cov = write_cov(tmp_path / "S.csv", np.eye(4))
        out = tmp_path / "report.json"
        assert main(["fit", str(cov), "--cov", "--n", "10", "-o", str(out), *flags]) == 1
        assert calls == [] and not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text", ["zero", "0.5", "nan", "-inf", "foo"])
    def test_path_mode_other_than_0_grid_or_inf_exits_1_before_any_solve(
        self, tmp_path, monkeypatch, capsys, text
    ):
        from pdglasso import solver

        calls = []
        monkeypatch.setattr(solver, "solve_weighted", lambda *a, **k: calls.append(a))
        cov = write_cov(tmp_path / "S.csv", np.eye(4))
        out = tmp_path / "report.json"
        assert main(["path", str(cov), "--cov", "--n", "10", "-o", str(out),
                     f"--lambda2-inside={text}"]) == 1
        assert calls == [] and not out.exists()
        assert capsys.readouterr().err == (
            f"error: penalty mode must be 0, grid or Inf, got {text!r}\n"
        )

    @staticmethod
    def run_with_gamma(tmp_path, monkeypatch, command, gamma, n="10"):
        """Exit code, report written and penalized solves of one CLI call."""
        from pdglasso import solver

        calls = []
        solve = solver.solve_weighted

        def counting_solve(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_weighted", counting_solve)
        cov = write_cov(tmp_path / "S.csv", np.eye(4))
        out = tmp_path / "report.json"
        code = main([command[0], str(cov), "--cov", "--n", n, *command[1:],
                     "--gamma", gamma, "-o", str(out)])
        return code, out.exists(), len(calls)

    @pytest.mark.parametrize("command", [["fit", "--lambda1", "0.1"], ["path", "--m", "2"]])
    def test_nan_gamma_exits_1_without_a_report(self, tmp_path, monkeypatch, capsys, command):
        assert self.run_with_gamma(tmp_path, monkeypatch, command, "nan") == (1, False, 0)
        assert "gamma must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["fit", "--lambda1", "0.1"], ["path", "--m", "2"]])
    def test_negative_gamma_exits_1_before_any_solve(self, tmp_path, monkeypatch, capsys,
                                                     command):
        assert self.run_with_gamma(tmp_path, monkeypatch, command, "-1") == (1, False, 0)
        assert "gamma must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-3"])
    @pytest.mark.parametrize("command", [["fit", "--lambda1", "0.1"], ["path", "--m", "2"]])
    def test_sample_size_below_1_exits_1_before_any_solve(self, tmp_path, monkeypatch,
                                                          capsys, command, n):
        assert self.run_with_gamma(tmp_path, monkeypatch, command, "0", n=n) == (1, False, 0)
        assert f"--n must be >= 1, got {n}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["fit", "--lambda1", "0.2"], ["path", "--m", "2"]])
    def test_n_without_cov_exits_1_before_any_solve(self, tmp_path, monkeypatch, capsys,
                                                    command):
        from pdglasso import solver

        calls = []
        monkeypatch.setattr(solver, "solve_weighted", lambda *a, **k: calls.append(a))
        data = write_data(tmp_path / "Y.csv", np.random.default_rng(3).standard_normal((30, 4)))
        out = tmp_path / "report.json"
        code = main([command[0], str(data), *command[1:], "--n", "5", "-o", str(out)])
        assert code == 1 and calls == [] and not out.exists()
        assert "--n applies only with --cov" in capsys.readouterr().err

    def test_simulate_nan_gamma_exits_1_before_any_cell(self, tmp_path, monkeypatch):
        import pdglasso.simulate as simulate

        calls = []
        monkeypatch.setattr(simulate, "selection_path", lambda *a, **k: calls.append(a))
        out = tmp_path / "table.csv"
        code = main(TestSimulateCommand.ARGS + ["--gamma", "nan", "--threads", "1",
                                                "--output", str(out)])
        assert code == 1 and calls == [] and not out.exists()


class TestThresholds:
    def test_q1_frozen_values(self, tmp_path, capsys):
        S = np.array([[2.0, 0.5], [0.5, 1.0]])
        cov = write_cov(tmp_path / "S.csv", S, names=["x_L", "x_R"])
        code = main(["thresholds", str(cov), "--cov", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "lambda1_diag": 0.5,
            "lambda1_block": 0.5,
            "lambda2_sym": 0.5,
        }

    def test_bit_exact_with_library(self, tmp_path, capsys, rng):
        from pdglasso.penalties import (
            lambda1_block_max,
            lambda1_diag_max,
            lambda2_sym_max,
        )

        S = random_pd(6, rng)
        cov = write_cov(tmp_path / "S.csv", S)
        main(["thresholds", str(cov), "--cov", "--json"])
        doc = json.loads(capsys.readouterr().out)
        idx = PairedIndex(3)
        assert doc["lambda1_diag"] == lambda1_diag_max(S)
        assert doc["lambda1_block"] == lambda1_block_max(S, idx)
        assert doc["lambda2_sym"] == lambda2_sym_max(S, idx)

    def test_identity_all_zero(self, tmp_path, capsys):
        cov = write_cov(tmp_path / "S.csv", np.eye(4))
        main(["thresholds", str(cov), "--cov", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert set(doc.values()) == {0.0}


class TestPath:
    def test_identity_selects_empty(self, tmp_path):
        cov = write_cov(tmp_path / "S.csv", np.eye(6))
        out = tmp_path / "win.json"
        code = main([
            "path", str(cov), "--cov", "--n", "50", "--m", "2",
            "--output", str(out),
            "--eps-abs", "1e-7",
        ])
        assert code == 0
        doc = read_fit_report(str(out))
        assert doc["edges"] == []
        assert doc["d"] == 6

    def test_grid_csv_has_two_m_rows(self, tmp_path, rng):
        cov = write_cov(tmp_path / "S.csv", random_pd(6, rng))
        out = tmp_path / "win.json"
        grid = tmp_path / "grid.csv"
        m = 3
        code = main([
            "path", str(cov), "--cov", "--n", "80", "--m", str(m),
            "--output", str(out), "--grid-csv", str(grid),
            "--eps-abs", "1e-7",
        ])
        assert code == 0
        lines = grid.read_text().splitlines()
        assert lines[0] == "stage,lambda1,lambda2,ebic,d,converged,stop_reason,error"
        assert len(lines) - 1 == 2 * m  # stage-1 winner reused, not re-solved
        rows = list(csv.DictReader(io.StringIO(grid.read_text())))
        assert all(r["stop_reason"] == "kkt" and r["error"] == "" for r in rows)

    def test_grid_csv_shows_failure_text(self):
        points = [
            GridPoint(1, 0.5, 0.0, None, None, False, error="MLE failed, does not exist"),
        ]
        fh = io.StringIO()
        write_grid_csv(fh, points)
        (row,) = csv.DictReader(io.StringIO(fh.getvalue()))
        assert row["ebic"] == "" and row["stop_reason"] == ""
        assert row["error"] == "MLE failed, does not exist"

    def test_failed_points_are_listed_and_a_winner_chosen(self, tmp_path):
        # n = 6 < p = 20: at the smallest l1 weight the selected model has no MLE
        data = write_data(tmp_path / "Y.csv", np.random.default_rng(0).standard_normal((6, 20)))
        out, grid = tmp_path / "win.json", tmp_path / "grid.csv"
        code = main(["path", str(data), "--m", "8", "-o", str(out), "--grid-csv", str(grid)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(grid.read_text())))
        first = min(rows[:8], key=lambda r: float(r["lambda1"]))
        assert first["error"].startswith("Newton system is numerically singular")
        assert first["ebic"] == "" and first["converged"] == "false"
        doc = read_fit_report(str(out))
        assert doc["penalties"]["lambda1"] > float(first["lambda1"])
        assert doc["theta_mle"] is not None

    def test_every_point_failed_exits_2(self, tmp_path, capsys):
        Y = np.random.default_rng(1).standard_normal((30, 6))
        Y[:, 2] = 0.0  # a constant variable: no refit exists
        data = write_data(tmp_path / "Y.csv", Y)
        out = tmp_path / "win.json"
        assert main(["path", str(data), "--m", "2", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: every penalty grid point failed\n"
        assert not out.exists()

    def test_infinite_mode_ties_every_vertex(self, tmp_path):
        data = write_data(tmp_path / "Y.csv", np.random.default_rng(2).standard_normal((40, 6)))
        out = tmp_path / "win.json"
        code = main(["path", str(data), "--m", "3", "--lambda2-vertex", "Inf", "-o", str(out)])
        assert code == 0
        doc = read_fit_report(str(out))
        assert doc["penalties"]["lambda2_vertex"] == "Inf"
        assert doc["vertex_symmetries"] == ["g1_L", "g2_L", "g3_L"]

    def test_every_spelling_of_0_and_inf_that_fit_reads_selects_the_same(self, tmp_path, rng):
        cov = write_cov(tmp_path / "S.csv", random_pd(4, rng))

        def outputs(vertex, across):
            out, grid = tmp_path / "win.json", tmp_path / "grid.csv"
            assert main(["path", str(cov), "--cov", "--n", "40", "--m", "3",
                         "--lambda2-vertex", vertex, "--lambda2-across", across,
                         "-o", str(out), "--grid-csv", str(grid)]) == 0
            return out.read_bytes(), grid.read_bytes()

        reference = outputs("Inf", "0")
        for text in ("infinity", "+inf", "1e999", "INF"):
            assert outputs(text, "0") == reference, text
        for text in ("0.0", "-0"):
            assert outputs("Inf", text) == reference, text
        penalties = json.loads(reference[0])["penalties"]
        assert (penalties["lambda2_vertex"], penalties["lambda2_across"]) == ("Inf", 0.0)

    def test_threads_flag_removed(self, tmp_path):
        cov = write_cov(tmp_path / "S.csv", np.eye(4))
        with pytest.raises(SystemExit):
            main(["path", str(cov), "--cov", "--n", "10", "--threads", "2"])

    def test_larger_gamma_never_denser(self, tmp_path, rng):
        theta = strong_ggm_truth(6, rng)
        from pdglasso.simulate import mvn_sample_cov

        S = mvn_sample_cov(np.linalg.inv(theta), 500, 3)
        cov = write_cov(tmp_path / "S.csv", S)
        winners = {}
        for gamma in ("0", "0.5"):
            out = tmp_path / f"win{gamma}.json"
            code = main([
                "path", str(cov), "--cov", "--n", "500", "--m", "5",
                "--gamma", gamma, "--output", str(out),
                "--eps-abs", "1e-7",
            ])
            assert code == 0
            winners[gamma] = read_fit_report(str(out))["d"]
        assert winners["0.5"] <= winners["0"]


class TestSimulateCommand:
    ARGS = [
        "simulate", "--p", "6", "--density", "0.3", "--symmetry-fraction", "1",
        "--n-list", "40", "--replications", "2", "--seed", "99", "--m", "3",
        "--eps-abs", "1e-7",
    ]

    def test_writes_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(self.ARGS + ["--output", str(out), "--threads", "1"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "scenario,n,rep,method,ppv,tpr,f1,mcc,frob,entropy,d,ebic,converged"
        )
        assert len(lines) == 1 + 2 * 2  # reps x methods

    def test_byte_identical_reruns_and_threads(self, tmp_path):
        outs = []
        for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
            out = tmp_path / name
            assert main(self.ARGS + ["--output", str(out), "--threads", threads]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_invalid_spec(self, tmp_path):
        assert main(["simulate", "--p", "7", "--n-list", "10"]) == 1

    @pytest.mark.parametrize("flags, env, message", [
        (["--threads", "0"], None, "--threads must be an integer >= 1, got '0'"),
        (["--threads", "two"], None, "--threads must be an integer >= 1, got 'two'"),
        ([], "0", "PDGLASSO_THREADS must be an integer >= 1, got '0'"),
        ([], "two", "PDGLASSO_THREADS must be an integer >= 1, got 'two'"),
    ], ids=["flag-0", "flag-two", "env-0", "env-two"])
    def test_bad_worker_count_exits_1_before_any_truth(
        self, tmp_path, monkeypatch, capsys, flags, env, message
    ):
        import pdglasso.simulate as simulate

        calls = []
        monkeypatch.setattr(simulate, "pdrcon_covariance", lambda *a, **k: calls.append(a))
        if env is None:
            monkeypatch.delenv("PDGLASSO_THREADS", raising=False)
        else:
            monkeypatch.setenv("PDGLASSO_THREADS", env)
        out = tmp_path / "table.csv"
        code = main(self.ARGS + flags + ["--output", str(out)])
        assert code == 1 and calls == [] and not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["fit", "--lambda1", "0.1"], ["path", "--m", "2"]])
    def test_bad_worker_variable_leaves_fit_and_path_alone(self, tmp_path, monkeypatch,
                                                           command):
        monkeypatch.setenv("PDGLASSO_THREADS", "two")
        cov = write_cov(tmp_path / "S.csv", np.eye(4))
        out = tmp_path / "report.json"
        code = main([command[0], str(cov), "--cov", "--n", "10", *command[1:], "-o", str(out)])
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--n-list", "30,0"], "every n >= 1"),
        (["--m", "1"], "select_m must be >= 2"),
    ], ids=["n-list-with-0", "m-1"])
    def test_bad_sample_size_or_grid_exits_1_before_any_truth(
        self, tmp_path, monkeypatch, capsys, flags, message
    ):
        import pdglasso.simulate as simulate

        calls = []
        monkeypatch.setattr(simulate, "pdrcon_covariance", lambda *a, **k: calls.append(a))
        out = tmp_path / "table.csv"
        code = main(self.ARGS + flags + ["--threads", "1", "--output", str(out)])
        assert code == 1 and calls == [] and not out.exists()
        assert message in capsys.readouterr().err

    def test_failed_cell_is_named_on_stderr(self, tmp_path, monkeypatch, capsys):
        import pdglasso.simulate as simulate

        calls = []
        real = simulate.selection_path

        def fail_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise MleError("every penalty grid point failed")
            return real(*args, **kwargs)

        # a cell's one selection path serves both methods, so its failure
        # fails both rows of the cell, and the next cell still runs
        monkeypatch.setattr(simulate, "selection_path", fail_first)
        out = tmp_path / "table.csv"
        assert main(self.ARGS + ["--output", str(out), "--threads", "1"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"simulate: cell n=40 rep=0 method={method} failed: every penalty grid point failed"
            for method in ("pdglasso", "glasso")
        ]
        assert len(calls) == 2
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [r["f1"] for r in rows].count("nan") == 2
        assert [(r["rep"], r["method"], r["converged"]) for r in rows[:2]] == [
            ("0", "pdglasso", "false"), ("0", "glasso", "false")
        ]
        assert all(r["f1"] != "nan" for r in rows[2:])

    def test_default_worker_count_is_the_affinity_mask(self, monkeypatch):
        import pdglasso.cli as cli

        monkeypatch.delenv("PDGLASSO_THREADS", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert _simulate_threads(None) == 3

    def test_default_worker_count_without_affinity_is_the_cpu_count(self, monkeypatch):
        import pdglasso.cli as cli

        monkeypatch.delenv("PDGLASSO_THREADS", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 7)
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        assert _simulate_threads(None) == 7


class TestStandardOutput:
    @pytest.mark.parametrize("command", ["fit", "path", "simulate"])
    def test_without_output_flag_writes_the_same_bytes_to_stdout(
        self, tmp_path, rng, capsys, command
    ):
        cov = str(write_cov(tmp_path / "S.csv", random_pd(4, rng)))
        args = {
            "fit": ["fit", cov, "--cov", "--n", "40", "--lambda1", "0.1"],
            "path": ["path", cov, "--cov", "--n", "40", "--m", "2"],
            "simulate": TestSimulateCommand.ARGS + ["--threads", "1"],
        }[command]
        out = tmp_path / "out"
        assert main(args + ["--output", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    @staticmethod
    def assert_canonical_json(out, keys):
        """out is the document with exactly these keys, sorted, indented by
        two spaces and ended by one newline."""
        doc = json.loads(out)
        assert list(doc) == keys
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        return doc

    def test_thresholds_json_bytes(self, tmp_path, capsys):
        S = np.array([[1.0, 0.5, 0.25, 0.125], [0.5, 2.0, 0.0, 0.375],
                      [0.25, 0.0, 1.5, 0.5], [0.125, 0.375, 0.5, 1.0]])
        cov = write_cov(tmp_path / "S.csv", S)
        assert main(["thresholds", str(cov), "--cov", "--json"]) == 0
        assert capsys.readouterr().out == (
            '{\n  "lambda1_block": 0.375,\n  "lambda1_diag": 0.5,\n  "lambda2_sym": 0.5\n}\n'
        )

    def test_precomputed_compare_bytes(self, capsys):
        assert main(["compare", "--precomputed", "--deviance-full", "10", "--d-full", "5",
                     "--deviance-sub", "14.5", "--d-sub", "3"]) == 0
        doc = self.assert_canonical_json(capsys.readouterr().out, [
            "critical", "degenerate", "deviance_full", "deviance_sub", "df", "reject", "stat",
        ])
        assert doc["critical"] == pytest.approx(5.99146454710798, rel=1e-12)
        del doc["critical"]
        assert doc == {"degenerate": False, "deviance_full": 10.0, "deviance_sub": 14.5,
                       "df": 2, "reject": False, "stat": 4.5}

    def test_report_compare_bytes(self, tmp_path, rng, capsys):
        from pdglasso.simulate import mvn_sample_cov

        theta = strong_ggm_truth(6, rng, n_edges=6)
        cov = write_cov(tmp_path / "S.csv", mvn_sample_cov(np.linalg.inv(theta), 200, 9))
        reports = []
        for lam1 in ("0.02", "0.35"):
            reports.append(str(tmp_path / f"{lam1}.json"))
            assert main(["fit", str(cov), "--cov", "--lambda1", lam1, "--n", "200",
                         "-o", reports[-1]]) == 0
        flags = ["--input", str(cov), "--cov", "--n", "200"]
        capsys.readouterr()
        assert main(["compare", *reports, *flags]) == 0
        self.assert_canonical_json(capsys.readouterr().out, [
            "critical", "degenerate", "deviance_full", "deviance_sub", "df", "reject", "stat",
        ])
        assert main(["compare", reports[0], reports[0], *flags]) == 0
        self.assert_canonical_json(capsys.readouterr().out, [
            "degenerate", "deviance_full", "deviance_sub", "df", "stat",
        ])


class TestIgnoredRefineFlag:
    """``--no-kkt-refine`` and ``--eps-rel`` are accepted and ignored, so that
    command lines written for older versions still parse: every solve ends at
    its certificate, and no ADMM residual test is left for ``--eps-rel`` to
    set.  Even an ``--eps-rel`` that no tolerance could take, such as nan,
    changes no output byte."""

    LOOSE = ["--eps-abs", "1e-3"]
    IGNORED = (["--no-kkt-refine"], ["--eps-rel", "1e-3"], ["--eps-rel", "nan"])

    def outputs_with_and_without(self, tmp_path, args, output_flags):
        """The bytes each output flag's file gets with each ignored flag, and
        those it gets without any."""
        runs = []
        for k, extra in enumerate(self.IGNORED + ([],)):
            paths = [tmp_path / f"run{k}-{j}" for j in range(len(output_flags))]
            outputs = [x for flag, path in zip(output_flags, paths) for x in (flag, str(path))]
            assert main(args + self.LOOSE + outputs + extra) == 0
            runs.append([path.read_bytes() for path in paths])
        return runs[:-1], runs[-1]

    def test_fit(self, tmp_path, rng):
        cov = write_cov(tmp_path / "S.csv", random_pd(6, rng))
        args = ["fit", str(cov), "--cov", "--n", "25", "--lambda1", "0.1",
                "--lambda2-vertex", "0.05", "--lambda2-inside", "0.05",
                "--lambda2-across", "0.05"]
        with_flags, without = self.outputs_with_and_without(tmp_path, args, ["-o"])
        assert all(with_flag == without for with_flag in with_flags)
        assert json.loads(without[0])["solver_report"]["stop_reason"] == "kkt"

    def test_path(self, tmp_path, rng):
        cov = write_cov(tmp_path / "S.csv", random_pd(6, rng))
        args = ["path", str(cov), "--cov", "--n", "80", "--m", "3"]
        with_flags, without = self.outputs_with_and_without(tmp_path, args, ["-o", "--grid-csv"])
        assert all(with_flag == without for with_flag in with_flags)

    def test_simulate(self, tmp_path):
        args = ["simulate", "--p", "6", "--density", "0.3", "--n-list", "40", "--m", "3",
                "--seed", "99", "--threads", "1"]
        with_flags, without = self.outputs_with_and_without(tmp_path, args, ["-o"])
        assert all(with_flag == without for with_flag in with_flags)

    @pytest.mark.parametrize("command", ["fit", "path", "simulate"])
    def test_not_listed_in_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--eps-abs" in out
        assert "eps-rel" not in out and "kkt-refine" not in out


class TestUsageErrors:
    """A command line argparse rejects exits 1, the code of every input
    error; 2 is left to numerical non-convergence."""

    @pytest.mark.parametrize("argv", [
        ["fit", "input.csv"],
        ["nosuch"],
        ["compare", "a.json", "b.json", "--eps-rel", "1e-6"],
        ["path", "input.csv", "--m", "x"],
    ], ids=["missing-required", "unknown-command", "unknown-flag", "bad-int"])
    def test_exits_1_with_the_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: pdglasso") and "error: " in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["path", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_import(preamble="", **variables):
    """Environment of a fresh interpreter before and after ``import pdglasso``
    (after running ``preamble``), and its thread count after the import
    (None where /proc/self/status does not exist)."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARIABLES}
    src = str(Path(pdglasso.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(variables)
    code = (
        "import json, os\n"
        + preamble
        + "before = dict(os.environ)\n"
        "import pdglasso\n"
        "threads = None\n"
        "if os.path.exists('/proc/self/status'):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        threads = [int(line.split()[1]) for line in fh if line.startswith('Threads:')][0]\n"
        "print(json.dumps([before, dict(os.environ), threads]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return json.loads(done.stdout)


class TestBlasThreads:
    @pytest.mark.parametrize("variables", [{}, {"OPENBLAS_NUM_THREADS": ""}],
                             ids=["unset", "empty"])
    def test_import_before_numpy_sets_one_thread(self, variables):
        before, after, threads = _fresh_import(**variables)
        assert after.pop("OPENBLAS_NUM_THREADS") == "1"
        before.pop("OPENBLAS_NUM_THREADS", None)
        assert after == before
        if threads is not None:
            assert threads == 1

    @pytest.mark.parametrize("name", _BLAS_VARIABLES)
    def test_user_thread_count_is_left_alone(self, name):
        before, after, _ = _fresh_import(**{name: "3"})
        assert before[name] == "3"
        assert after == before

    def test_import_after_numpy_changes_no_variable(self):
        before, after, _ = _fresh_import("import numpy\n")
        assert "OPENBLAS_NUM_THREADS" not in after
        assert after == before


def _add_edge(i, j, kind):
    def edit(doc):
        doc["edges"].append({"i": i, "j": j, "kind": kind, "symmetry": "none"})
    return edit


# q = 2: variables 0, 1 on the left and 2, 3 their partners on the right
_INSIDE = [(0, 1), (2, 3)]
_ACROSS = [(0, 3), (2, 1)]


class TestCompare:
    def test_precomputed_reference_row(self, capsys):
        code = main([
            "compare", "--precomputed",
            "--deviance-full", "12242.22", "--d-full", "194",
            "--deviance-sub", "12285.79", "--d-sub", "187",
            "--alpha", "0.05",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stat"] == pytest.approx(43.57, abs=1e-9)
        assert doc["df"] == 7
        assert doc["critical"] == pytest.approx(14.07, abs=0.01)
        assert doc["reject"] is True

    def test_precomputed_missing_flag(self, capsys):
        assert main(["compare", "--precomputed", "--d-full", "10"]) == 1

    @pytest.mark.parametrize("flags", [
        ["--deviance-full", "nan", "--deviance-sub", "12"],
        ["--deviance-full", "7", "--deviance-sub", "inf"],
        ["--deviance-full", "7", "--deviance-sub", "12", "--d-sub", "-3"],
    ], ids=["nan-deviance", "inf-deviance", "negative-count"])
    def test_precomputed_bad_value_exits_1_without_output(self, capsys, flags):
        # the last --d-sub wins, so the negative count replaces the valid one
        code = main(["compare", "--precomputed", "--d-full", "7", "--d-sub", "5", *flags])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def _fit(self, tmp_path, cov, out, lam1, lam2="0"):
        return main([
            "fit", str(cov), "--cov", "--lambda1", lam1, "--n", "200",
            "--lambda2-inside", lam2, "--output", str(out),
        ])

    def test_self_comparison_degenerate(self, tmp_path, rng, capsys):
        S = random_pd(4, rng)
        cov = write_cov(tmp_path / "S.csv", S)
        rep = tmp_path / "m.json"
        assert self._fit(tmp_path, cov, rep, "0.1") == 0
        code = main([
            "compare", str(rep), str(rep), "--input", str(cov), "--cov",
            "--n", "200",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["degenerate"] is True
        assert doc["stat"] == 0.0

    @pytest.mark.parametrize("edit, message", [
        (_add_edge("g1_L", "g2_R", "inside-L"), "not of kind 'inside-L'"),
        (_add_edge("g1_L", "g1_L", "inside-L"), "not of kind 'inside-L'"),
        (_add_edge("g1_L", "g1_R", "across"), "not of kind 'across'"),
        (_add_edge("g2_R", "g2_L", "inside-R"), "not of kind 'inside-R'"),
        (_add_edge("g1_L", "g9_L", "inside-L"), "unknown variable 'g9_L'"),
        (lambda doc: doc["vertex_symmetries"].append("g9_L"), "unknown variable 'g9_L'"),
        (lambda doc: doc.pop("edges"), "malformed report: KeyError('edges')"),
        (_add_edge("g1_L", "g2_L", "diagonal"), "unknown edge kind 'diagonal'"),
    ], ids=["across-as-inside", "self-loop", "diagonal-as-across", "across-as-inside-R",
            "unknown-variable", "unknown-vertex-symmetry", "missing-key", "unknown-kind"])
    def test_malformed_report_is_an_input_error(self, tmp_path, rng, capsys, edit, message):
        cov = write_cov(tmp_path / "S.csv", random_pd(4, rng))
        rep = tmp_path / "m.json"
        assert self._fit(tmp_path, cov, rep, "0.1") == 0
        doc = read_fit_report(str(rep))
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(dump_report(doc))
        capsys.readouterr()
        code = main(["compare", str(bad), str(rep), "--input", str(cov), "--cov", "--n", "200"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("flags, message", [
        (["--n", "0"], "--n must be >= 1, got 0"),
        (["--n", "200", "--alpha", "2"], "alpha must be in (0, 1), got 2.0"),
    ], ids=["n-0", "alpha-2"])
    def test_bad_sample_size_or_alpha_exits_1_before_any_refit(
        self, tmp_path, rng, monkeypatch, capsys, flags, message
    ):
        import pdglasso.cli as cli

        cov = write_cov(tmp_path / "S.csv", random_pd(4, rng))
        full, sub = tmp_path / "full.json", tmp_path / "sub.json"
        assert self._fit(tmp_path, cov, full, "0.02") == 0
        assert self._fit(tmp_path, cov, sub, "0.3") == 0
        calls = []
        monkeypatch.setattr(cli, "mle", lambda *a, **k: calls.append(a))
        capsys.readouterr()
        code = main(["compare", str(full), str(sub), "--input", str(cov), "--cov", *flags])
        assert code == 1 and calls == []
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("moved", ["input", "sub"])
    def test_reordered_columns_are_an_input_error(self, tmp_path, rng, capsys, moved):
        # the graphs are read by position, so a report whose variables are in
        # another order than the input's columns would refit the wrong pairs
        Y = rng.standard_normal((80, 6))
        names = ["a_L", "b_L", "c_L", "a_R", "b_R", "c_R"]
        order = [2, 0, 1, 5, 3, 4]
        data = write_data(tmp_path / "Y.csv", Y, names)
        other = write_data(tmp_path / "moved.csv", Y[:, order], [names[k] for k in order])
        full, sub = tmp_path / "full.json", tmp_path / "sub.json"
        assert main(["fit", str(data), "--lambda1", "0", "--output", str(full)]) == 0
        sub_input = other if moved == "sub" else data
        assert main(["fit", str(sub_input), "--lambda1", "1.0", "--output", str(sub)]) == 0
        if moved == "input":
            assert main(["compare", str(full), str(sub), "--input", str(data)]) == 0
        capsys.readouterr()
        compared = other if moved == "input" else data
        code = main(["compare", str(full), str(sub), "--input", str(compared)])
        assert code == 1
        bad, got, want = (full, "a_L", "c_L") if moved == "input" else (sub, "c_L", "a_L")
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: variable 1 of the report is {got!r}, "
            f"column 1 of the input is {want!r}"
        )

    def test_alpha_is_checked_before_any_report_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["compare", missing, missing, "--input", missing, "--alpha", "2"]) == 1
        assert "alpha must be in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["r.json"], "compare needs two report files (or --precomputed)"),
        (["r.json", "r.json"], "--input is required unless --precomputed is used"),
    ], ids=["one-report", "no-input"])
    def test_missing_operand_exits_1(self, capsys, args, message):
        assert main(["compare", *args]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unreadable_report_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        cov = write_cov(tmp_path / "S.csv", np.eye(4))
        assert main(["compare", str(bad), str(bad), "--input", str(cov), "--cov"]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read report {bad}: ")

    def test_precomputed_critical_value_far_in_the_lower_tail(self, capsys):
        # 1 - alpha = 1e-9 at df 9 once underflowed the chi-square density
        code = main([
            "compare", "--precomputed", "--deviance-full", "100", "--d-full", "20",
            "--deviance-sub", "110", "--d-sub", "11", "--alpha", "0.999999999",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["df"] == 9 and doc["reject"] is True
        assert doc["critical"] == pytest.approx(0.04840705813071332, rel=1e-10)

    @pytest.mark.parametrize("flag", [["--eps-rel", "1e-6"], ["--no-kkt-refine"]])
    def test_takes_only_the_refit_settings(self, flag, capsys):
        args = build_parser().parse_args(
            ["compare", "a.json", "b.json", "--eps-abs", "1e-6", "--max-outer", "7"]
        )
        assert (args.eps_abs, args.max_outer) == (1e-6, 7)
        # refits read no other solver setting, so compare offers none
        with pytest.raises(SystemExit) as exc:
            main(["compare", "a.json", "b.json", *flag])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_nested_pair_and_violation(self, tmp_path, rng, capsys):
        theta = strong_ggm_truth(6, rng, n_edges=6)
        from pdglasso.simulate import mvn_sample_cov

        S = mvn_sample_cov(np.linalg.inv(theta), 200, 9)
        cov = write_cov(tmp_path / "S.csv", S)
        full = tmp_path / "full.json"
        sub = tmp_path / "sub.json"
        assert self._fit(tmp_path, cov, full, "0.02") == 0
        assert self._fit(tmp_path, cov, sub, "0.35") == 0
        code = main([
            "compare", str(full), str(sub), "--input", str(cov), "--cov",
            "--n", "200", "--alpha", "0.05",
        ])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["df"] == n_params(_graph_from_json(read_fit_report(str(full)))) - (
            n_params(_graph_from_json(read_fit_report(str(sub))))
        )
        # swapped direction is not nested: the "submodel" has extra edges
        code = main([
            "compare", str(sub), str(full), "--input", str(cov), "--cov",
            "--n", "200",
        ])
        assert code == 1
        assert "not nested" in capsys.readouterr().err

    @pytest.mark.parametrize("full, sub, expected", [
        (graph_of(2), graph_of(3), "different dimensions"),
        (graph_of(2), graph_of(2, [(2, 3), (0, 2)]), "submodel adds edges in inside block"),
        (graph_of(2), graph_of(2, [(2, 1), (1, 3)]), "submodel adds edges in across block"),
        (graph_of(2), graph_of(2, [(1, 3)]), "submodel adds across-diagonal edges"),
        (graph_of(2, _INSIDE, [(1, 1), (0, 1)]), graph_of(2, _INSIDE),
         "full-model vertex symmetry missing in submodel"),
        (graph_of(2, _INSIDE + _ACROSS, [(0, 1), (0, 3)]), graph_of(2, [(0, 1)] + _ACROSS),
         "full-model inside symmetry missing in submodel"),
        (graph_of(2, _ACROSS, [(0, 3)]), graph_of(2, [(2, 1)]),
         "full-model across symmetry missing in submodel"),
        # a shared absence implies a colour, and the submodel may add colours
        (graph_of(2, _INSIDE + _ACROSS + [(0, 2)], [(0, 0), (0, 1)]),
         graph_of(2, _ACROSS, [(0, 0), (1, 1), (0, 3)]), None),
    ], ids=["dimensions", "inside-edges", "across-edges", "across-diagonal-edges",
            "vertex-symmetry", "inside-symmetry", "across-symmetry", "nested"])
    def test_nesting_violation_names_the_first_failed_constraint(self, full, sub, expected):
        assert _nesting_violation(full, sub) == expected
