"""The command lines the benchmark runs.

``perfbench/run.py`` builds each workload's ``pdglasso`` command line.  A
flag that the CLI stopped accepting would not fail a test there, but would
make argparse exit 2 in every benchmark run; these tests fail instead.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from pdglasso.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def run_module(monkeypatch):
    # run.py puts perfbench/ at the front of sys.path when it is loaded
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cli_parses_the_workload_command_line(run_module, tmp_path, workload):
    inst = run_module.make_instance(workload, run_module.DEFAULT_SEED, str(tmp_path))
    assert build_parser().parse_args(inst.cli_args).command == inst.cli_args[0]
