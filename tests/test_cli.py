import csv
import io
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdglasso.cli import (
    _admm_config,
    _graph_edges_json,
    _graph_from_json,
    build_parser,
    dump_report,
    main,
    read_fit_report,
    report_fit_result,
    write_grid_csv,
)
from pdglasso.model import GridPoint, PdColouredGraph, n_params, rcon_residual
from pdglasso.paired import PairedIndex, swap_blocks
from pdglasso.penalties import lambda1_diag_max
from pdglasso.solver import AdmmConfig

from conftest import example_structures, random_coloured_graph, random_pd, strong_ggm_truth


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


def _assert_same_graph(h, g):
    for f in fields(PdColouredGraph):
        assert np.array_equal(getattr(h, f.name), getattr(g, f.name)), f.name


class TestReportGraph:
    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_round_trips(self, q, seed):
        g = random_coloured_graph(q, np.random.default_rng(seed))
        _assert_same_graph(
            PdColouredGraph.from_masks(q, ~g.absent_coord_mask(), g.coloured_row_mask()), g
        )
        names = _names(q)
        doc = {
            "variables": names,
            "edges": _graph_edges_json(g, names),
            "vertex_symmetries": [names[i] for i in np.flatnonzero(g.vertex_coloured)],
        }
        _assert_same_graph(_graph_from_json(doc), g)

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
        fit = report_fit_result(read_fit_report(str(out)))
        assert fit.report.stop_reason == "kkt"
        idx = PairedIndex(3)
        assert np.array_equal(swap_blocks(fit.theta_hat, idx), fit.theta_hat)
        assert fit.graph.is_fully_symmetric()

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
            "--max-outer", "1", "--no-kkt-refine", "--output", str(out),
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
            "--eps-abs", "1e-6", "--eps-rel", "1e-6", "--max-outer", "7",
            "--no-kkt-refine",
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

    def test_report_carries_refit_certificate(self, tmp_path, rng):
        S = random_pd(4, rng)
        cov = write_cov(tmp_path / "S.csv", S)
        out = tmp_path / "report.json"
        main([
            "fit", str(cov), "--cov", "--lambda1", "0.1", "--n", "25",
            "--lambda2-inside", "0.05", "--output", str(out),
        ])
        doc = read_fit_report(str(out))
        fit = report_fit_result(doc)
        assert doc["rcon_residual"] == rcon_residual(fit.theta_mle, S, fit.graph)
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
            "--eps-abs", "1e-7", "--eps-rel", "1e-7", "--no-kkt-refine",
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
            "--eps-abs", "1e-7", "--eps-rel", "1e-7", "--no-kkt-refine",
        ])
        assert code == 0
        lines = grid.read_text().splitlines()
        assert lines[0] == "stage,lambda1,lambda2,ebic,d,converged,stop_reason,error"
        assert len(lines) - 1 == 2 * m  # stage-1 winner reused, not re-solved
        rows = list(csv.DictReader(io.StringIO(grid.read_text())))
        assert all(r["stop_reason"] == "residuals" and r["error"] == "" for r in rows)

    def test_grid_csv_shows_failure_text(self):
        points = [
            GridPoint(1, 0.5, 0.0, None, None, False, error="MLE failed, does not exist"),
        ]
        fh = io.StringIO()
        write_grid_csv(fh, points)
        (row,) = csv.DictReader(io.StringIO(fh.getvalue()))
        assert row["ebic"] == "" and row["stop_reason"] == ""
        assert row["error"] == "MLE failed, does not exist"

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
                "--eps-abs", "1e-7", "--eps-rel", "1e-7", "--no-kkt-refine",
            ])
            assert code == 0
            winners[gamma] = read_fit_report(str(out))["d"]
        assert winners["0.5"] <= winners["0"]


class TestSimulateCommand:
    ARGS = [
        "simulate", "--p", "6", "--density", "0.3", "--symmetry-fraction", "1",
        "--n-list", "40", "--replications", "2", "--seed", "99", "--m", "3",
        "--eps-abs", "1e-7", "--eps-rel", "1e-7", "--no-kkt-refine",
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


def _add_edge(i, j, kind):
    def edit(doc):
        doc["edges"].append({"i": i, "j": j, "kind": kind, "symmetry": "none"})
    return edit


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
    ], ids=["across-as-inside", "self-loop", "diagonal-as-across", "across-as-inside-R",
            "unknown-variable", "unknown-vertex-symmetry", "missing-key"])
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

    @pytest.mark.parametrize("flag", [["--eps-rel", "1e-6"], ["--no-kkt-refine"]])
    def test_takes_only_the_refit_settings(self, flag, capsys):
        args = build_parser().parse_args(
            ["compare", "a.json", "b.json", "--eps-abs", "1e-6", "--max-outer", "7"]
        )
        assert (args.eps_abs, args.max_outer) == (1e-6, 7)
        # refits read no other solver setting, so compare offers none
        with pytest.raises(SystemExit) as exc:
            main(["compare", "a.json", "b.json", *flag])
        assert exc.value.code == 2
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
        assert doc["df"] == n_params(report_fit_result(read_fit_report(str(full))).graph) - (
            n_params(report_fit_result(read_fit_report(str(sub))).graph)
        )
        # swapped direction is not nested: the "submodel" has extra edges
        code = main([
            "compare", str(sub), str(full), "--input", str(cov), "--cov",
            "--n", "200",
        ])
        assert code == 1
        assert "not nested" in capsys.readouterr().err
