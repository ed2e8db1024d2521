"""Command-line interface: fit, thresholds, path, simulate, compare.

Matrix input is CSV with a header row of variable names; the first half of
the columns is the left group and the second half the right group with
positional pairing.  Rows are observations unless --cov marks the file as a
p x p covariance matrix.  Fit reports are canonical JSON documents:
``dump_report(json.load(fh))`` gives back the bytes of the file.  Tables
are CSV rendered from their records by :func:`render_csv`, and every
artifact, file or stdout, is written by :func:`write_output`.

Exit codes: 0 success, 1 input error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import stat
import sys
from dataclasses import asdict, fields
from itertools import zip_longest

import numpy as np

from . import __version__
from .errors import InputError, MleError, PdglassoError
from .model import (
    FitResult,
    GridPoint,
    LrtResult,
    PdColouredGraph,
    SubmodelClass,
    check_alpha,
    check_gamma,
    deviance,
    lrt,
    mle,
    n_params,
    rcon_residual,
    refit_point,
    selection_path,
    solve_point,
)
from .paired import PairedIndex, checked_cov
from .penalties import PenaltySpec, lambda1_block_max, lambda1_diag_max, lambda2_sym_max
from .simulate import CellResult, ScenarioSpec, run_scenario
from .solver import AdmmConfig

_STANDARDIZE_CAVEAT = (
    "note: rescaling the variables does not preserve equality constraints, "
    "so symmetries found on standardized data need careful interpretation"
)


def _simulate_threads(flag: str | None) -> int:
    """Workers for simulate, this process included: ``--threads``, else a non-empty
    ``PDGLASSO_THREADS``, else the CPUs in this process's affinity mask (the
    CPU count where the platform has no mask).  A value that is not an
    integer >= 1 is an :class:`InputError` naming where it came from."""
    if flag is not None:
        source, text = "--threads", flag
    else:
        source, text = "PDGLASSO_THREADS", os.environ.get("PDGLASSO_THREADS")
        if not text:
            if hasattr(os, "sched_getaffinity"):
                return len(os.sched_getaffinity(0))
            return os.cpu_count() or 1
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise InputError(f"{source} must be an integer >= 1, got {text!r}")
    return threads


# ---------------------------------------------------------------------------
# matrix file handling


def read_matrix_csv(path: str, cov: bool) -> tuple[np.ndarray, list[str]]:
    """Load a data or covariance CSV; returns (matrix, column names)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise InputError(f"{path}: empty file")
    names = [c.strip() for c in lines[0].split(",")]
    if len(names) < 2 or len(names) % 2 != 0:
        raise InputError(
            f"{path}: expected an even column count >= 2, got {len(names)}"
        )
    seen = set()
    for k, name in enumerate(names, start=1):
        if not name:
            raise InputError(f"{path}: column {k} has an empty name")
        if name in seen:
            raise InputError(f"{path}: column name {name!r} is repeated")
        seen.add(name)
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(names):
            raise InputError(
                f"{path}: line {ln} has {len(parts)} fields, expected {len(names)}"
            )
        try:
            rows.append([float(x) for x in parts])
        except ValueError as exc:
            raise InputError(f"{path}: line {ln}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no data rows")
    M = np.asarray(rows, dtype=float)

    p = len(names)
    if cov and M.shape != (p, p):  # every row has p fields
        raise InputError(f"{path}: covariance must be {p} x {p}, got {len(M)} x {p}")
    return M, names


def _read_sample(args) -> tuple[np.ndarray, list[str], int | None]:
    """S, the variable names and the sample size of the subcommand's input.

    The sample size is the row count of a data file, or ``--n`` with
    ``--cov``; a subcommand with an ``--n`` flag gets an :class:`InputError`
    when it is missing or below 1 with ``--cov``, or given without it.
    """
    if not args.cov and getattr(args, "n", None) is not None:
        raise InputError("--n applies only with --cov; a data file's sample size "
                         "is its row count")
    M, names = read_matrix_csv(args.input, args.cov)
    if args.cov:
        S, n = M, getattr(args, "n", None)
    else:
        n = M.shape[0]
        S = M.T @ M / n
    if "n" in args:
        if n is None:
            raise InputError("--n is required with --cov")
        if n < 1:
            raise InputError(f"--n must be >= 1, got {n}")
    S = checked_cov(S)
    if args.standardize:
        d = np.sqrt(np.diag(S))
        if np.any(d <= 0):
            raise InputError("cannot standardize: zero variance column")
        S = S / np.outer(d, d)
        print(_STANDARDIZE_CAVEAT, file=sys.stderr)
    return S, names, n


# ---------------------------------------------------------------------------
# fit report serialization


_EDGE_KINDS = ("inside-L", "inside-R", "across", "across-diagonal")


def _edge_kind(idx: PairedIndex, i: int, j: int) -> str | None:
    """Report kind of the edge between variables i and j; None when i == j."""
    if i == j:
        return None
    if idx.swap_perm[i] == j:
        return "across-diagonal"
    left = (i < idx.q, j < idx.q)
    if all(left):
        return "inside-L"
    return "across" if any(left) else "inside-R"


def _graph_edges_json(g: PdColouredGraph, names: list[str]) -> list[dict]:
    """Present edges in report order: for each pair i < j of the left group
    the entries (i, j), (i', j'), (i, j') and (i', j), then every (i, i')."""
    idx = g.index
    present = g.present
    a, b = idx.fused_pairs
    symmetry = np.full(idx.vec_length, "none", dtype=object)
    symmetry[a] = symmetry[b] = np.where(
        g.coloured,
        "parametric",
        np.where(present[a] & present[b], "structural", "none"),
    )
    swap = idx.swap_perm
    i, j = idx.pairs
    left = np.arange(idx.q)
    rows = np.concatenate([np.stack([i, swap[i], i, swap[i]], axis=1).ravel(), left])
    cols = np.concatenate([np.stack([j, swap[j], swap[j], j], axis=1).ravel(), swap[left]])
    edges = []
    for r, c in zip(rows.tolist(), cols.tolist()):
        k = idx.coord_of[r, c]
        if present[k]:
            edges.append({"i": names[r], "j": names[c], "kind": _edge_kind(idx, r, c),
                          "symmetry": str(symmetry[k])})
    return edges


def _graph_from_json(doc: dict) -> PdColouredGraph:
    """The graph of a report; a name, kind or endpoint that does not fit the
    report's variables raises :class:`InputError`."""
    names = doc["variables"]
    idx = PairedIndex.from_p(len(names))
    pos = {name: k for k, name in enumerate(names)}

    def position(name) -> int:
        if name not in pos:
            raise InputError(f"unknown variable {name!r} in report")
        return pos[name]

    present = np.zeros(idx.vec_length, dtype=bool)
    tied = np.zeros(idx.vec_length, dtype=bool)
    for name in doc["vertex_symmetries"]:
        v = position(name)
        tied[idx.coord_of[v, v]] = True
    for e in doc["edges"]:
        i, j, kind = position(e["i"]), position(e["j"]), e["kind"]
        if kind not in _EDGE_KINDS:
            raise InputError(f"unknown edge kind {kind!r} in report")
        if _edge_kind(idx, i, j) != kind:
            raise InputError(f"edge {e['i']}-{e['j']} in report is not of kind {kind!r}")
        k = idx.coord_of[i, j]
        present[k] = True
        tied[k] |= e["symmetry"] == "parametric"
    a, b = idx.fused_pairs
    return PdColouredGraph(idx.q, present, tied[a] | tied[b])


def _penalty_json(value):
    return "Inf" if value == math.inf else value


def _finite_or_none(value: float) -> float | None:
    """JSON has no inf or NaN: a non-finite value is written as null."""
    return value if math.isfinite(value) else None


def fit_report_doc(
    fit: FitResult, S: np.ndarray, names: list[str], n: int | None, gamma: float,
    cfg: AdmmConfig,
) -> dict:
    """JSON-ready document for a fitted model.

    The ``penalties``, ``solver_report`` and ``config`` blocks are the
    fields of :class:`PenaltySpec`, :class:`SolveReport` (plus
    ``converged``) and :class:`AdmmConfig`, so a field added there is a
    change of the report format.  ``rcon_residual`` is the
    likelihood-equation residual of ``theta_mle`` against S (see
    :func:`pdglasso.model.rcon_residual`), null without a refit.
    The solver report's ``objective_value`` and ``kkt_residual`` are null
    where they are +inf: at a Theta step returned for a singular Z, which
    breaks the constraints of infinite weights.
    """
    g, report = fit.graph, fit.report
    idx = g.index
    # the first entry of a vertex row is the left variable's diagonal
    vertex_tied = idx.fused_pairs[0][g.coloured & idx.component_rows(True, False, False)]
    return {
        "version": __version__,
        "variables": list(names),
        "n": n,
        "gamma": gamma,
        "penalties": {name: _penalty_json(v) for name, v in asdict(fit.spec).items()},
        "d": fit.d,
        "ebic": None if math.isnan(fit.ebic) else fit.ebic,
        "edges": _graph_edges_json(g, names),
        "vertex_symmetries": [names[i] for i in idx.coords[0][vertex_tied]],
        "solver_report": {
            **asdict(report),
            "converged": report.converged,
            "objective_value": _finite_or_none(report.objective_value),
            "kkt_residual": _finite_or_none(report.kkt_residual),
        },
        "theta_hat": fit.theta_hat.tolist(),
        "theta_mle": None if fit.theta_mle is None else fit.theta_mle.tolist(),
        "rcon_residual": None
        if fit.theta_mle is None
        else rcon_residual(fit.theta_mle, S, g),
        "config": asdict(cfg),
    }


def dump_report(doc: dict) -> str:
    """The canonical JSON text of every document the CLI writes."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_cell(value) -> str:
    """A table cell: blank for None, ``true`` or ``false`` for a bool, the
    shortest round-trip form for a float."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def render_csv(rows: list, record: type, omit: str) -> str:
    """CSV table with one line per dataclass record; the columns are the
    fields of ``record`` but ``omit``."""
    columns = [f.name for f in fields(record) if f.name != omit]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_cell(getattr(row, col)) for col in columns] for row in rows)
    return out.getvalue()


def results_to_csv(rows: list[CellResult]) -> str:
    """The simulate table: one line per (scenario, n, rep, method)."""
    return render_csv(rows, CellResult, "error")


def write_output(path: str | None, text: str, *also: tuple[str, str]) -> None:
    """Write text to the file at path, or to stdout when path is not given,
    and each further (path, text) pair of ``also`` likewise.

    The files are written all or none: each text goes to a new temporary
    file beside its regular file, and the temporaries replace their files
    only after every text is written.  A file already there keeps its mode,
    and a symbolic link to it stays.  A target that is not a regular file,
    such as a pipe or ``/dev/null``, is written in place before any file is
    replaced (so a directory fails there), and stdout last.  A file that
    cannot be written is an :class:`InputError` naming it; then no regular
    file has changed and no temporary is left.
    """
    outputs = [(path, text), *also]
    staged = []  # (target, file, temporary) until the temporary replaces its file
    in_place = []
    try:
        for target, body in outputs:
            if not target:
                continue
            mode = os.stat(target).st_mode if os.path.exists(target) else None
            if mode is not None and not stat.S_ISREG(mode):
                in_place.append((target, body))
                continue
            if mode is not None and not os.access(target, os.W_OK):  # a replace would ignore it
                raise InputError(f"cannot write {target}: Permission denied")
            real = os.path.realpath(target)
            head, tail = os.path.split(real)
            tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
            with open(tmp, "x", encoding="utf-8", newline="") as fh:
                staged.append((target, real, tmp))
                if mode is not None:
                    os.chmod(tmp, stat.S_IMODE(mode))
                fh.write(body)
        for target, body in in_place:
            with open(target, "w", encoding="utf-8", newline="") as fh:
                fh.write(body)
        while staged:
            target, real, tmp = staged[0]
            os.replace(tmp, real)
            del staged[0]
    except OSError as exc:
        raise InputError(f"cannot write {target}: {exc.strerror}") from exc
    finally:
        for _, _, tmp in staged:
            os.remove(tmp)
    for target, body in outputs:
        if not target:
            sys.stdout.write(body)


def write_fit_report(path: str | None, doc: dict, *also: tuple[str, str]) -> None:
    """Write the canonical text of doc as :func:`write_output` does, together
    with the (path, text) pairs of ``also``."""
    write_output(path, dump_report(doc), *also)


def read_fit_report(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read report {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _admm_config(args) -> AdmmConfig:
    return AdmmConfig(eps_abs=args.eps_abs, max_outer=args.max_outer)


def _add_refit_flags(parser):
    """The settings an MLE refit reads (see :class:`AdmmConfig`)."""
    parser.add_argument("--eps-abs", type=float, default=1e-8)
    parser.add_argument("--max-outer", type=int, default=5000)


def _add_solver_flags(parser):
    _add_refit_flags(parser)
    # accepted and ignored, so that command lines passing them still parse:
    # every solve ends at its certificate, and no residual test is left
    parser.add_argument("--eps-rel", help=argparse.SUPPRESS)
    parser.add_argument("--no-kkt-refine", action="store_true", help=argparse.SUPPRESS)


def _add_input_flags(parser):
    parser.add_argument("input", help="CSV matrix file (header row of variable names)")
    parser.add_argument("--cov", action="store_true",
                        help="input is a p x p covariance matrix, not data rows")
    parser.add_argument("--standardize", action="store_true",
                        help="rescale to unit diagonal before fitting")


def cmd_fit(args) -> int:
    check_gamma(args.gamma)
    S, names, n = _read_sample(args)
    spec = PenaltySpec(
        args.lambda1,
        float(args.lambda2_vertex),
        float(args.lambda2_inside),
        float(args.lambda2_across),
    )
    cfg = _admm_config(args)
    fit = solve_point(S, spec, cfg, diag_penalty=not args.no_diag_penalty)
    try:
        fit = refit_point(fit, S, n, args.gamma, cfg)
    except MleError as exc:
        # the refit failed: report the penalized solve alone and exit 2
        print(f"warning: MLE refit failed ({exc})", file=sys.stderr)
    write_fit_report(args.output, fit_report_doc(fit, S, names, n, args.gamma, cfg))
    print(
        f"fit: {fit.graph.n_edges} edges, d={fit.d}, eBIC={fit.ebic:.4f}, "
        f"converged={fit.report.converged}",
        file=sys.stderr,
    )
    return 0 if fit.report.converged and fit.theta_mle is not None else 2


def cmd_thresholds(args) -> int:
    S, _, _ = _read_sample(args)
    idx = PairedIndex.from_p(S.shape[0])
    values = {
        "lambda1_diag": lambda1_diag_max(S),
        "lambda1_block": lambda1_block_max(S, idx),
        "lambda2_sym": lambda2_sym_max(S, idx),
    }
    if args.json:
        write_output(None, dump_report(values))
    else:
        write_output(None, "".join(f"{key} {value!r}\n" for key, value in values.items()))
    return 0


def cmd_path(args) -> int:
    check_gamma(args.gamma)
    S, names, n = _read_sample(args)
    class_spec = SubmodelClass(
        _mode(args.lambda2_vertex), _mode(args.lambda2_inside), _mode(args.lambda2_across)
    )
    cfg = _admm_config(args)
    winner, points = selection_path(S, n, args.m, args.gamma, class_spec, cfg)
    grid = [(args.grid_csv, render_csv(points, GridPoint, "fit"))] if args.grid_csv else []
    write_fit_report(args.output, fit_report_doc(winner, S, names, n, args.gamma, cfg), *grid)
    print(
        f"path: winner lambda1={float(winner.spec.lambda1)!r} d={winner.d} "
        f"eBIC={winner.ebic:.4f}",
        file=sys.stderr,
    )
    return 0 if winner.report.converged else 2


def _mode(text: str) -> float | str:
    """A component of a path's submodel class: ``grid``, or a float that
    ``fit`` reads from its ``--lambda2-*`` flags and that is 0 or +inf."""
    if text.strip().lower() == "grid":
        return "grid"
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if value not in (0.0, math.inf):
        raise InputError(f"penalty mode must be 0, grid or Inf, got {text!r}")
    return value


def cmd_simulate(args) -> int:
    threads = _simulate_threads(args.threads)
    try:
        n_list = tuple(int(x) for x in args.n_list.split(","))
    except ValueError:
        raise InputError(
            f"--n-list must be comma-separated integers, got {args.n_list!r}"
        ) from None
    spec = ScenarioSpec(
        p=args.p,
        density=args.density,
        symmetry_fraction=args.symmetry_fraction,
        n_list=n_list,
        replications=args.replications,
        seed=args.seed,
        select_m=args.m,
        select_gamma=args.gamma,
    )
    cfg = _admm_config(args)
    rows = run_scenario(spec, cfg, threads=threads)
    write_output(args.output, results_to_csv(rows))
    for r in rows:
        if r.error:
            print(f"simulate: cell n={r.n} rep={r.rep} method={r.method} failed: {r.error}",
                  file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    check_alpha(args.alpha)
    if args.precomputed:
        missing = [
            flag
            for flag, value in (
                ("--deviance-full", args.deviance_full),
                ("--d-full", args.d_full),
                ("--deviance-sub", args.deviance_sub),
                ("--d-sub", args.d_sub),
            )
            if value is None
        ]
        if missing:
            raise InputError(f"--precomputed needs {', '.join(missing)}")
        result = lrt(args.deviance_full, args.d_full, args.deviance_sub, args.d_sub,
                     args.alpha)
        _write_lrt(result, args.deviance_full, args.deviance_sub)
        return 0

    if args.full is None or args.sub is None:
        raise InputError("compare needs two report files (or --precomputed)")
    if not args.input:
        raise InputError("--input is required unless --precomputed is used")
    full_doc = read_fit_report(args.full)
    sub_doc = read_fit_report(args.sub)
    try:
        g_full = _graph_from_json(full_doc)
        g_sub = _graph_from_json(sub_doc)
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed report: {exc!r}") from exc
    S, names, n = _read_sample(args)
    # both graphs are read by position: each report must list the input's
    # columns in their order
    for path, doc in ((args.full, full_doc), (args.sub, sub_doc)):
        for k, (var, name) in enumerate(zip_longest(doc["variables"], names), start=1):
            if var != name:
                raise InputError(f"{path}: variable {k} of the report is {var!r}, "
                                 f"column {k} of the input is {name!r}")
    violation = _nesting_violation(g_full, g_sub)
    if violation:
        raise InputError(f"models are not nested: {violation}")

    cfg = _admm_config(args)
    theta_full = mle(S, g_full, cfg)
    theta_sub = mle(S, g_sub, cfg)
    dev_full = deviance(theta_full, S, n)
    dev_sub = deviance(theta_sub, S, n)
    d_full = n_params(g_full)
    d_sub = n_params(g_sub)
    if d_full == d_sub:
        write_output(None, dump_report({
            "degenerate": True, "stat": 0.0, "df": 0,
            "deviance_full": dev_full, "deviance_sub": dev_sub,
        }))
        return 0
    result = lrt(dev_full, d_full, dev_sub, d_sub, args.alpha)
    _write_lrt(result, dev_full, dev_sub)
    return 0


def _write_lrt(result: LrtResult, dev_full: float, dev_sub: float) -> None:
    write_output(None, dump_report({
        "degenerate": False, "deviance_full": dev_full, "deviance_sub": dev_sub,
        **asdict(result),
    }))


def _nesting_violation(g_full: PdColouredGraph, g_sub: PdColouredGraph) -> str | None:
    """First constraint of the full model the submodel fails to imply."""
    if g_full.q != g_sub.q:
        return "different dimensions"
    idx = g_full.index
    # every absence in full must persist in sub; coordinates run inside,
    # across, across diagonal, so the first extra edge names the first block
    extra = np.flatnonzero(g_sub.present & ~g_full.present)
    if extra.size:
        rows, cols = idx.coords
        kind = _edge_kind(idx, rows[extra[0]], cols[extra[0]])
        if kind == "across-diagonal":
            return "submodel adds across-diagonal edges"
        return f"submodel adds edges in {kind.split('-')[0]} block"
    # every colour in full must be a colour (or a shared absence) in sub;
    # rows run vertex, inside, across
    a, b = idx.fused_pairs
    missing = np.flatnonzero(
        g_full.coloured & ~g_sub.coloured & (g_sub.present[a] | g_sub.present[b])
    )
    if missing.size:
        family = idx.component_rows("vertex", "inside", "across")[missing[0]]
        return f"full-model {family} symmetry missing in submodel"
    return None


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any input error: 2 means non-convergence."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pdglasso",
        description="Joint structure learning of two dependent Gaussian graphical models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="solve at fixed penalties and report the model")
    _add_input_flags(p_fit)
    p_fit.add_argument("--lambda1", type=float, required=True)
    p_fit.add_argument("--lambda2-vertex", default="0", metavar="VAL|Inf")
    p_fit.add_argument("--lambda2-inside", default="0", metavar="VAL|Inf")
    p_fit.add_argument("--lambda2-across", default="0", metavar="VAL|Inf")
    p_fit.add_argument("--n", type=int, default=None,
                       help="sample size (required with --cov)")
    p_fit.add_argument("--gamma", type=float, default=0.0, help="eBIC gamma")
    p_fit.add_argument("--no-diag-penalty", action="store_true",
                       help="exclude diagonal entries from the l1 penalty")
    p_fit.add_argument("--output", "-o", default=None, help="report JSON path")
    _add_solver_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_thr = sub.add_parser("thresholds", help="print the maximal useful penalty values")
    _add_input_flags(p_thr)
    p_thr.add_argument("--json", action="store_true")
    p_thr.set_defaults(func=cmd_thresholds)

    p_path = sub.add_parser("path", help="two-stage eBIC model selection over a grid")
    _add_input_flags(p_path)
    p_path.add_argument("--n", type=int, default=None)
    p_path.add_argument("--m", type=int, default=20, help="grid length per stage")
    p_path.add_argument("--gamma", type=float, default=0.0)
    p_path.add_argument("--lambda2-vertex", default="grid", metavar="0|grid|Inf")
    p_path.add_argument("--lambda2-inside", default="grid", metavar="0|grid|Inf")
    p_path.add_argument("--lambda2-across", default="grid", metavar="0|grid|Inf")
    p_path.add_argument("--output", "-o", default=None)
    p_path.add_argument("--grid-csv", default=None, help="write all grid points as CSV")
    _add_solver_flags(p_path)
    p_path.set_defaults(func=cmd_path)

    p_sim = sub.add_parser("simulate", help="benchmark the two selection methods")
    p_sim.add_argument("--p", type=int, required=True)
    p_sim.add_argument("--density", type=float, default=0.2)
    p_sim.add_argument("--symmetry-fraction", type=float, default=0.0)
    p_sim.add_argument("--n-list", default="100", help="comma-separated sample sizes")
    p_sim.add_argument("--replications", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--m", type=int, default=20)
    p_sim.add_argument("--gamma", type=float, default=0.0)
    p_sim.add_argument("--output", "-o", default=None, help="CSV path (default stdout)")
    p_sim.add_argument("--threads", default=None,
                       help="worker processes for the simulation cells, this one "
                            "included, at most one per cell (default: "
                            "PDGLASSO_THREADS, else the CPUs this process may run on)")
    _add_solver_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="likelihood ratio test of nested reports")
    p_cmp.add_argument("full", nargs="?", default=None, help="report JSON of the fuller model")
    p_cmp.add_argument("sub", nargs="?", default=None, help="report JSON of the submodel")
    p_cmp.add_argument("--input", default=None, help="matrix CSV both models were fit on")
    p_cmp.add_argument("--cov", action="store_true")
    p_cmp.add_argument("--standardize", action="store_true")
    p_cmp.add_argument("--n", type=int, default=None)
    p_cmp.add_argument("--alpha", type=float, default=0.05)
    p_cmp.add_argument("--precomputed", action="store_true",
                       help="test from supplied deviances and parameter counts")
    p_cmp.add_argument("--deviance-full", type=float, default=None)
    p_cmp.add_argument("--d-full", type=int, default=None)
    p_cmp.add_argument("--deviance-sub", type=float, default=None)
    p_cmp.add_argument("--d-sub", type=int, default=None)
    _add_refit_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PdglassoError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, MleError) else 1


if __name__ == "__main__":
    sys.exit(main())
