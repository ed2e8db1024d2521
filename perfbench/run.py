"""pdglasso benchmark: three CLI jobs, checked, timed end to end or traced by layer.

Run from the repository root:

    python3 perfbench/run.py --workload path-p20 --seed 1 --seconds 30 --trace 0

With --trace 0 the job runs through ``python -m pdglasso`` (``src`` on
PYTHONPATH) as often as fits in --seconds, and the end-to-end metrics are
medians over those jobs.  With --trace 1 the job runs once untraced and once
under perfbench/tracehooks.py, and the per-layer metrics come from the traced
run.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402

_STARTED = time.perf_counter()
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 1
SETUP_REPS = 9
RUN_LIMIT_S = 170.0  # every job is killed by then, so a run ends within 180 s
DENSITY = 0.2
SYM_FRACTION = 0.5
N_OBS = 200
PATH_M = 20
SIM_N_LIST = (50, 200)
SIM_M = 8
SIM_REPLICATIONS = 1
SIM_SCENARIO_SEED = 20250808  # acceptance criterion 7's scenario seed


@dataclass
class Instance:
    """A workload's inputs for one seed: CLI arguments plus what the checks need."""

    cli_args: list[str]
    setup_csv: str
    S: np.ndarray | None = None
    truth_adj: np.ndarray | None = None


@dataclass
class JobResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    edge_f1: float
    messages: list[str] = field(default_factory=list)
    selection: dict | None = None


def relabelled_sample(p: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The workload's fixed sample, with pairs permuted and groups swapped by seed.

    Truth and sample are drawn once per p; the seed relabels the pairs and may
    swap the left and right groups.  The fused penalties are invariant under
    both, so every seed poses the same problem in another order and does the
    same work up to rounding.
    """
    truth = gen.make_truth(np.random.default_rng([p, 0]), p, DENSITY, SYM_FRACTION)
    Y = gen.sample(np.random.default_rng([p, 1]), truth.theta, N_OBS)
    rng = np.random.default_rng(seed)
    q = p // 2
    perm = rng.permutation(q)
    order = np.concatenate([perm, perm + q] if rng.integers(2) == 0 else [perm + q, perm])
    return Y[:, order], truth.adj[np.ix_(order, order)]


def write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def make_instance(workload: str, seed: int, work: str) -> Instance:
    if workload == "simulate-p20":
        # The scenario is fixed; the seed only orders the n-list, which reorders
        # the cells between the workers and the CSV rows but not the work.
        n_list = SIM_N_LIST if np.random.default_rng(seed).integers(2) == 0 else SIM_N_LIST[::-1]
        Y, _ = relabelled_sample(20, seed)
        return Instance(
            cli_args=[
                "simulate", "--p", "20", "--density", str(DENSITY),
                "--symmetry-fraction", str(SYM_FRACTION),
                "--n-list", ",".join(map(str, n_list)), "--m", str(SIM_M),
                "--replications", str(SIM_REPLICATIONS),
                "--seed", str(SIM_SCENARIO_SEED), "--eps-abs", "1e-7", "--eps-rel", "1e-7",
                "--no-kkt-refine",
            ],
            setup_csv=write(os.path.join(work, "setup.csv"), gen.data_csv(Y)),
        )
    p = 20 if workload == "path-p20" else 80
    Y, adj = relabelled_sample(p, seed)
    csv_path = write(os.path.join(work, "input.csv"), gen.data_csv(Y))
    S = gen.second_moment(Y)
    if workload == "path-p20":
        args = ["path", csv_path, "--m", str(PATH_M)]
    else:
        args = [
            "fit", csv_path,
            "--lambda1", repr(0.3 * gen.lambda1_diag_max(S)),
            "--lambda2-vertex", "Inf",
            "--lambda2-inside", repr(0.1 * gen.lambda2_sym_max(S)),
            "--lambda2-across", "0",
        ]
    return Instance(cli_args=args, setup_csv=csv_path, S=S, truth_adj=adj)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PDGLASSO_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def timed_process(cmd: list[str], log_path: str) -> tuple[int, float, float, float]:
    """(exit code, wall s, user+sys CPU s of it and its children, peak RSS MB of any one)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        remaining = max(1.0, RUN_LIMIT_S - (t0 - _STARTED))
        timer = threading.Timer(remaining, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # anything the job left running in its process group
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def read(path: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def evaluate(workload: str, inst: Instance, out: str, rc: int) -> tuple[int, int, float, list[str], dict | None]:
    """(operations attempted, failed, edge F1, messages, selection) of one finished job."""
    msgs = [] if rc == 0 else [f"exit code {rc}"]
    if workload == "simulate-p20":
        cells = SIM_REPLICATIONS * len(SIM_N_LIST)
        text = read(out + ".csv")
        if text is None:
            return 1 + cells, 1 + cells, 0.0, msgs + ["no simulate CSV"], None
        rows, bad_cells, fails = checks.simulate_rows(text, 2 * cells)
        msgs += fails
        f1s = [float(r["f1"]) for r in rows if r["method"] == "pdglasso"]
        f1 = statistics.fmean(f1s) if f1s and not bad_cells else 0.0
        selection = {"rows": sorted([int(r["n"]), int(r["rep"]), r["method"], int(r["d"]),
                                      round(float(r["f1"]), 9)] for r in rows)}
        return 1 + cells, int(bool(msgs)) + bad_cells, f1, msgs, selection

    text = read(out + ".json")
    attempted = 1 + (2 * PATH_M if workload == "path-p20" else 0)
    if text is None:
        return attempted, attempted, 0.0, msgs + ["no fit report"], None
    doc = json.loads(text)
    msgs += checks.check_fit_report(doc, inst.S)
    failed_points = 0
    if workload == "path-p20":
        grid = read(out + ".grid.csv")
        if grid is None:
            msgs.append("no grid CSV")
            failed_points = 2 * PATH_M
        else:
            failed_points, fails = checks.grid_failures(grid, 2 * PATH_M)
            msgs += fails
    edges = sorted((e["i"], e["j"]) for e in doc["edges"])
    selection = {
        "d": doc["d"],
        "lambda1": doc["penalties"]["lambda1"],
        "edges_sha256": hashlib.sha256(json.dumps(edges).encode()).hexdigest(),
    }
    f1 = checks.edge_f1(doc, inst.truth_adj)
    return attempted, int(bool(msgs)) + failed_points, f1, msgs, selection


def run_job(workload: str, seed: int, inst: Instance, work: str, tag: str,
            trace_dir: str | None = None) -> JobResult:
    out = os.path.join(work, tag)
    if workload == "simulate-p20":
        outputs = ["-o", out + ".csv"]
    elif workload == "path-p20":
        outputs = ["-o", out + ".json", "--grid-csv", out + ".grid.csv"]
    else:
        outputs = ["-o", out + ".json"]
    cli = inst.cli_args + outputs
    if trace_dir is None:
        cmd = [sys.executable, "-m", "pdglasso", *cli]
    else:
        cmd = [sys.executable, os.path.join(HERE, "tracehooks.py"), trace_dir, *cli]
    rc, wall, cpu, rss = timed_process(cmd, out + ".log")
    attempted, failed, f1, msgs, selection = evaluate(workload, inst, out, rc)
    mismatch = expected_failures(workload, seed, selection)
    failed += int(bool(mismatch) and not msgs)  # the run itself counts once
    msgs += mismatch
    return JobResult(wall, cpu, rss, attempted, failed, f1, msgs, selection)


def measure_setup(inst: Instance, work: str) -> float:
    """Median wall time of a CLI call that only starts, imports and loads the input."""
    cmd = [sys.executable, "-m", "pdglasso", "thresholds", inst.setup_csv, "--json"]
    times = []
    for k in range(SETUP_REPS):
        rc, wall, _, _ = timed_process(cmd, os.path.join(work, f"setup{k}.log"))
        if rc != 0:
            raise RuntimeError(f"thresholds call exited {rc}")
        times.append(wall)
    return statistics.median(times)


def same_selection(got: dict | None, recorded: dict) -> bool:
    """Exact match, except that lambda1 (a float derived from S) may differ in its last bits."""
    if got is None or got.keys() != recorded.keys():
        return False
    return all(
        math.isclose(got[k], recorded[k], rel_tol=1e-9) if k == "lambda1" else got[k] == recorded[k]
        for k in recorded
    )


def expected_failures(workload: str, seed: int, selection: dict | None) -> list[str]:
    """At the default seed, the selection must match the one recorded in expected.json."""
    if seed != DEFAULT_SEED:
        return []
    recorded = json.loads(read(EXPECTED) or "{}").get(workload)
    if recorded is None or same_selection(selection, recorded):
        return []
    return [f"selection differs from the recorded one: {selection} != {recorded}"]


def merged_trace(trace_dir: str) -> tuple[dict[str, float], dict[str, list[float]]]:
    counts: dict[str, float] = {}
    spans: dict[str, list[float]] = {}
    for name in sorted(os.listdir(trace_dir)):
        if not name.endswith(".json"):
            continue
        doc = json.loads(read(os.path.join(trace_dir, name)))
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0.0) + value
        for key, values in doc["spans"].items():
            spans.setdefault(key, []).extend(values)
    return counts, spans


def layer_metrics(trace_dir: str, traced: JobResult, untraced: JobResult, cells: int) -> dict:
    counts, spans = merged_trace(trace_dir)

    def c(key: str) -> float:
        return counts.get(key, 0.0)

    def quantile(values: list[float], k: int) -> float:
        if len(values) < 2:
            return values[0] if values else 0.0
        return statistics.quantiles(values, n=4, method="inclusive")[k]

    fit_spans = spans.get("model.fit_point", [])
    cell_spans = spans.get("simulate.cell", [])
    workers = min(len(os.sched_getaffinity(0)), cells) if cells else 0
    m = {}
    for key in ("solver.theta_step", "solver.fused_prox", "solver.kkt_residual",
                "solver.solve", "model.mle"):
        m[f"{key}.calls"] = (c(f"{key}.calls"), "count")
        m[f"{key}.s"] = (c(f"{key}.s"), "s")
    m["solver.fused_prox.inner_iters"] = (c("solver.fused_prox.inner_iters"), "count")
    for key in ("solver.solve", "model.mle"):
        m[f"{key}.outer_iters"] = (c(f"{key}.outer_iters"), "count")
        m[f"{key}.at_max_outer"] = (c(f"{key}.at_max_outer"), "count")
    solves = c("solver.solve.calls")
    m["solver.solve.kkt_ok_share"] = (c("solver.solve.kkt_ok") / solves if solves else 0.0, "ratio")
    m["model.fit_point.p50_s"] = (quantile(fit_spans, 1), "s")
    m["model.fit_point.p75_s"] = (quantile(fit_spans, 2), "s")
    sel = c("model.selection.s")
    m["model.selection.concurrency"] = (sum(fit_spans) / sel if sel else 0.0, "ratio")
    m["simulate.truth.s"] = (c("simulate.truth.s"), "s")
    m["simulate.select.s"] = (c("simulate.select.s"), "s")
    run_s = c("simulate.run.s")
    m["simulate.pool_efficiency"] = (
        sum(cell_spans) / (workers * run_s) if run_s and workers else 0.0, "ratio")
    m["cli.read_matrix_csv.s"] = (c("cli.read_matrix_csv.s"), "s")
    m["cli.write.s"] = (c("cli.write.s"), "s")
    m["trace_overhead"] = (traced.wall_s / untraced.wall_s - 1.0, "ratio")
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    inst = make_instance(workload, seed, work)
    jobs: list[JobResult] = []
    if trace:
        jobs.append(run_job(workload, seed, inst, work, "untraced"))
        trace_dir = os.path.join(work, "trace")
        os.makedirs(trace_dir)
        jobs.append(run_job(workload, seed, inst, work, "traced", trace_dir))
    else:
        t0 = time.perf_counter()
        setup_s = measure_setup(inst, work)
        while True:
            jobs.append(run_job(workload, seed, inst, work, f"job{len(jobs)}"))
            typical = statistics.median(j.wall_s for j in jobs)
            if time.perf_counter() - t0 + typical > seconds:
                break
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    if trace:
        cells = SIM_REPLICATIONS * len(SIM_N_LIST) if workload == "simulate-p20" else 0
        metrics = layer_metrics(trace_dir, jobs[1], jobs[0], cells)
    else:
        metrics = {
            "wall_s": (statistics.median(j.wall_s for j in jobs), "s"),
            "cpu_s": (statistics.median(j.cpu_s for j in jobs), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (statistics.median(j.peak_rss_mb for j in jobs), "MB"),
            "success_rate": (1.0 - failed / attempted, "ratio"),
            "edge_f1": (statistics.median(j.edge_f1 for j in jobs), "ratio"),
        }
    for k, job in enumerate(jobs):
        for msg in job.messages:
            print(f"check failed (job {k}): {msg}")
    print(f"jobs {len(jobs)}  selection {json.dumps(jobs[0].selection)}")
    print(f"error_rate {failed / attempted:.6g} ({failed}/{attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["path-p20", "fit-p80", "simulate-p20"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "pdglasso", "__main__.py")):
        print(f"error: no pdglasso sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
