"""The names the benchmark's layer tracer wraps.

``perfbench/tracehooks.py`` replaces each of these module attributes with a
timing wrapper, looking it up by name, and reports 0 calls for a name it
does not find.  A rename or a move would therefore not fail the benchmark
but silently empty a per-layer metric; these tests fail instead.  It also
reads fields of the solve report by name, where a removed field would crash
every traced run; the last tests feed it a real report.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import pdglasso.cli as cli
import pdglasso.model as model
import pdglasso.simulate as simulate
import pdglasso.solver as solver
from pdglasso.paired import PairedIndex
from pdglasso.penalties import PenaltySpec, penalty_weights

from conftest import random_pd

ROOT = Path(__file__).resolve().parents[1]

HOOKED = [
    (solver, "theta_step"),
    (solver, "kkt_residual"),
    (solver, "solve_weighted"),
    (model, "mle"),
    (model, "fit_point"),
    (simulate, "mle"),
    (simulate, "pdrcon_covariance"),
    (simulate, "selection_path"),
    (simulate, "_run_cell"),
    (cli, "selection_path"),
    (cli, "run_scenario"),
    (cli, "read_matrix_csv"),
    (cli, "write_fit_report"),
    (cli, "results_to_csv"),
]


@pytest.mark.parametrize("module, name", HOOKED,
                         ids=[f"{m.__name__}.{n}" for m, n in HOOKED])
def test_hooked_name_is_a_function_of_its_module(module, name):
    assert callable(getattr(module, name, None))


def test_solve_config_is_the_fifth_positional_parameter():
    # the tracer reads cfg.max_outer from args[4] when cfg is not a keyword
    params = list(inspect.signature(solver.solve_weighted).parameters)
    assert params[4] == "cfg"


def test_input_is_read_through_the_cli_global(tmp_path, monkeypatch):
    calls = []
    read = cli.read_matrix_csv

    def counting_read(*args, **kwargs):
        calls.append(args)
        return read(*args, **kwargs)

    monkeypatch.setattr(cli, "read_matrix_csv", counting_read)
    path = tmp_path / "S.csv"
    path.write_text("a_L,a_R\n1.0,0.0\n0.0,1.0\n")
    assert cli.main(["thresholds", str(path), "--cov"]) == 0
    assert len(calls) == 1


@pytest.fixture
def tracehooks(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracehooks", ROOT / "perfbench" / "tracehooks.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("max_outer, kkt_ok", [(5000, True), (1, False)],
                         ids=["certified", "budget-stop"])
@pytest.mark.parametrize("cfg_keyword", [False, True], ids=["positional", "keyword"])
def test_solve_counts_read_a_real_report(tracehooks, rng, max_outer, kkt_ok, cfg_keyword):
    S = random_pd(6, rng)
    idx = PairedIndex(3)
    l1, w = penalty_weights(PenaltySpec.uniform(0.1, 0.05), idx)
    cfg = solver.AdmmConfig(max_outer=max_outer)
    args, kwargs = ((S, idx, l1, w), {"cfg": cfg}) if cfg_keyword else ((S, idx, l1, w, cfg), {})
    result = solver.solve_weighted(*args, **kwargs)
    report = result[1]
    assert report.kkt_ok is kkt_ok
    tracehooks._solve_counts("solver.solve")(result, args, kwargs)
    assert tracehooks.REC.counts == {
        "solver.solve.outer_iters": report.outer_iterations,
        "solver.solve.at_max_outer": float(not kkt_ok),
        "solver.solve.kkt_ok": float(kkt_ok),
    }
