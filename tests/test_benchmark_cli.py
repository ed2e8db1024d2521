"""The command lines the benchmark runs, and the checks it applies to their outputs.

``perfbench/run.py`` builds each workload's ``pdglasso`` command line and
checks what the job writes.  A flag that the CLI stopped accepting would
make argparse exit 2 in every benchmark run, and a fault in value
conversion or a changed selection would fail every run's checks; these
tests fail instead.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from pdglasso.cli import build_parser, main

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


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_the_benchmark_checks(run_module, monkeypatch, tmp_path, workload):
    """One job at the default seed, run in this process through ``cli.main``
    and judged by ``run.py``'s own ``evaluate`` and ``expected_failures``."""

    def in_process(cmd, log_path):
        assert cmd[1:3] == ["-m", "pdglasso"]
        return main(cmd[3:]), 0.0, 0.0, 0.0

    monkeypatch.setattr(run_module, "timed_process", in_process)
    seed = run_module.DEFAULT_SEED
    inst = run_module.make_instance(workload, seed, str(tmp_path))
    job = run_module.run_job(workload, seed, inst, str(tmp_path), "job")
    assert (job.failed, job.messages) == (0, [])
    assert job.attempted > 0 and job.selection is not None
