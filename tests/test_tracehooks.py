"""The names the benchmark's layer tracer wraps.

``perfbench/tracehooks.py`` replaces module attributes with timing wrappers,
looking each up by name, and reports 0 calls for a name it does not find.
A rename or a move would therefore not fail the benchmark but silently empty
a per-layer metric; these tests fail instead.  The wrapped names are read
from the tracer's source, so the list cannot drift from it.  It also reads
fields of the solve report by name, where a removed field would crash every
traced run; the last tests feed it a real report.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import pdglasso.cli as cli
import pdglasso.solver as solver
from pdglasso.paired import PairedIndex
from pdglasso.penalties import PenaltySpec, penalty_weights

from conftest import random_pd

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracehooks.py"


def wrapped_names(source: str) -> list[tuple[str, str]]:
    """(module, name) of each ``patch(module, "name", ...)`` call and each
    ``module.name = ...`` assignment in the tracer, modules by full name."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "patch" and isinstance(node.args[0], ast.Name)):
            found.append((modules[node.args[0].id], node.args[1].value))
        elif isinstance(node, ast.Assign):
            found += [(modules[t.value.id], t.attr) for t in node.targets
                      if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                      and t.value.id in modules]
    return list(dict.fromkeys(found))


WRAPPED = wrapped_names(TRACER.read_text(encoding="utf-8"))
# wrapped by the tracer but gone from the package, so their metrics read 0
STALE = [
    ("pdglasso.solver", "inner_generalized_lasso"),
    ("pdglasso.model", "solve_weighted"),
    ("pdglasso.model", "fit_point"),
    ("pdglasso.simulate", "model_select"),
]
LIVE = [pair for pair in WRAPPED if pair not in STALE]


def test_tracer_source_parses_to_its_wrapped_names():
    assert {("pdglasso.solver", "theta_step"), ("pdglasso.model", "mle"),
            ("pdglasso.simulate", "_run_cell")} <= set(LIVE)
    assert set(STALE) <= set(WRAPPED)


@pytest.mark.parametrize("module, name", LIVE, ids=[f"{m}.{n}" for m, n in LIVE])
def test_hooked_name_is_a_function_of_its_module(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("module, name", STALE, ids=[f"{m}.{n}" for m, n in STALE])
def test_known_stale_name_is_still_missing(module, name):
    # a stale name that exists again is wrapped again: drop it from STALE
    assert not hasattr(importlib.import_module(module), name)


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
    spec = importlib.util.spec_from_file_location("perfbench_tracehooks", TRACER)
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
