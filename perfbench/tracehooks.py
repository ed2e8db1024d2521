"""Run the pdglasso CLI with the public functions at each module boundary wrapped.

Usage: python perfbench/tracehooks.py TRACE_DIR CLI_ARG...

Each wrapper replaces a name where its caller looks it up (for example
``pdglasso.solver.theta_step``, which ``solve_weighted`` calls), counts the
calls, sums their wall time and, where the return value carries it, the work
done.  No source file of the program is changed.  The totals go to
TRACE_DIR/main.json when the CLI returns.  Simulation cells run in forked
worker processes, which inherit the wrappers; each worker rewrites
TRACE_DIR/worker-<pid>.json after every cell.  Requires the ``fork`` start
method (the default on Linux up to Python 3.13).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time


class Recorder:
    """Counters, summed seconds and span lists, safe to update from threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.counts: dict[str, float] = {}
        self.spans: dict[str, list[float]] = {}
        self.pid = os.getpid()

    def add(self, key: str, value: float = 1.0) -> None:
        with self.lock:
            self.counts[key] = self.counts.get(key, 0.0) + value

    def span(self, key: str, seconds: float) -> None:
        with self.lock:
            self.spans.setdefault(key, []).append(seconds)

    def dump(self, path: str) -> None:
        with self.lock:
            doc = {"counts": self.counts, "spans": self.spans}
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


REC = Recorder()
_TRACE_DIR = ""
_ORIG: dict[str, object] = {}


def _timed(key: str, func, on_result=None, keep_spans: bool = False):
    """Wrap func: count calls into key.calls, seconds into key.s."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = func(*args, **kwargs)
        dt = time.perf_counter() - t0
        REC.add(f"{key}.calls")
        REC.add(f"{key}.s", dt)
        if keep_spans:
            REC.span(key, dt)
        if on_result is not None:
            on_result(result, args, kwargs)
        return result

    return wrapper


def _solve_counts(key: str):
    """Work counts from the SolveReport of solve_weighted(S, idx, l1, op, cfg, ...)."""

    def record(result, args, kwargs):
        _, report = result
        cfg = kwargs["cfg"] if "cfg" in kwargs else args[4]
        REC.add(f"{key}.outer_iters", report.outer_iterations)
        REC.add(f"{key}.at_max_outer", float(report.outer_iterations >= cfg.max_outer))
        REC.add(f"{key}.kkt_ok", float(report.kkt_ok))

    return record


def _inner_counts(result, args, kwargs):
    REC.add("solver.fused_prox.inner_iters", result.iterations)


def run_cell(*args, **kwargs):
    """Traced stand-in for pdglasso.simulate._run_cell (module level so it pickles)."""
    global REC
    if os.getpid() != REC.pid:  # first cell in a forked worker: drop the parent's totals
        REC = Recorder()
    t0 = time.perf_counter()
    result = _ORIG["_run_cell"](*args, **kwargs)
    REC.span("simulate.cell", time.perf_counter() - t0)
    if os.getpid() != _MAIN_PID:
        REC.dump(os.path.join(_TRACE_DIR, f"worker-{os.getpid()}.json"))
    return result


_MAIN_PID = os.getpid()


def install() -> None:
    import pdglasso.cli as cli
    import pdglasso.model as model
    import pdglasso.simulate as simulate
    import pdglasso.solver as solver

    def patch(module, name, wrapper_factory):
        func = getattr(module, name, None)
        if func is not None:  # a layer a later version removed reports 0 calls
            setattr(module, name, wrapper_factory(func))

    patch(solver, "theta_step", lambda f: _timed("solver.theta_step", f))
    patch(solver, "inner_generalized_lasso",
          lambda f: _timed("solver.fused_prox", f, _inner_counts))
    patch(solver, "kkt_residual", lambda f: _timed("solver.kkt_residual", f))
    # penalized solves reach solve_weighted through the solver module, MLE refits
    # through the model module
    patch(solver, "solve_weighted",
          lambda f: _timed("solver.solve", f, _solve_counts("solver.solve")))
    patch(model, "solve_weighted",
          lambda f: _timed("model.mle_solve", f, _solve_counts("model.mle")))
    mle = _timed("model.mle", model.mle)
    model.mle = mle
    simulate.mle = mle  # truth generation refits through the simulate module
    patch(model, "fit_point", lambda f: _timed("model.fit_point", f, keep_spans=True))
    patch(cli, "selection_path", lambda f: _timed("model.selection", f))
    patch(simulate, "pdrcon_covariance", lambda f: _timed("simulate.truth", f))
    patch(simulate, "model_select", lambda f: _timed("simulate.select", f))
    patch(cli, "run_scenario", lambda f: _timed("simulate.run", f))
    patch(cli, "read_matrix_csv", lambda f: _timed("cli.read_matrix_csv", f))
    patch(cli, "write_fit_report", lambda f: _timed("cli.write", f))
    patch(cli, "results_to_csv", lambda f: _timed("cli.write", f))
    _ORIG["_run_cell"] = simulate._run_cell
    simulate._run_cell = run_cell


def main(argv: list[str]) -> int:
    global _TRACE_DIR
    _TRACE_DIR = argv[0]
    install()
    import pdglasso.cli as cli

    try:
        return cli.main(argv[1:])
    finally:
        REC.dump(os.path.join(_TRACE_DIR, "main.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
