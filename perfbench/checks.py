"""Output checks that hold for any seed, written against the CLI's file formats.

Each check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Likelihood equations of theta_mle: entries of inv(theta_mle) - S on free
# positions (and class sums on coloured ones) within this share of max|S|.
MLE_REL_TOL = 1e-4

SIM_COLUMNS = ["scenario", "n", "rep", "method", "ppv", "tpr", "f1", "mcc",
               "frob", "entropy", "d", "ebic", "converged"]


def report_graph(doc: dict):
    """(edge presence matrix, tied entry pairs, vertex-tied indices) of a fit report."""
    names = doc["variables"]
    p = len(names)
    q = p // 2
    pos = {name: k for k, name in enumerate(names)}
    present = np.zeros((p, p), dtype=bool)
    tie_pairs = []
    for e in doc["edges"]:
        a, b = pos[e["i"]], pos[e["j"]]
        present[a, b] = present[b, a] = True
        # a parametric pair lists both edges; keep each tie once, keyed by its left edge
        if e["symmetry"] == "parametric":
            if e["kind"] == "inside-L":
                tie_pairs.append(((a, b), (a + q, b + q)))
            elif e["kind"] == "across" and a < q:
                tie_pairs.append(((a, b), (a + q, b - q)))
    vertex = [pos[name] for name in doc["vertex_symmetries"]]
    return present, tie_pairs, vertex


def check_fit_report(doc: dict, S: np.ndarray) -> list[str]:
    """Positive definiteness, the likelihood equations and the parameter count."""
    fails = []
    if doc.get("theta_mle") is None:
        return ["report has no theta_mle"]
    theta = np.asarray(doc["theta_mle"], dtype=float)
    theta_hat = np.asarray(doc["theta_hat"], dtype=float)
    p = S.shape[0]
    q = p // 2
    for name, M in (("theta_mle", theta), ("theta_hat", theta_hat)):
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            fails.append(f"{name} is not positive definite")
    if fails:
        return fails

    present, tie_pairs, vertex = report_graph(doc)
    resid = np.linalg.inv(theta) - S
    tol = MLE_REL_TOL * float(np.abs(S).max())

    absent = ~present & ~np.eye(p, dtype=bool)
    if np.any(theta[absent] != 0.0):
        fails.append("theta_mle is not exactly zero off the graph")
    tied = np.zeros((p, p), dtype=bool)
    for (a, b), (c, d) in tie_pairs:
        if theta[a, b] != theta[c, d]:
            fails.append(f"tie {a},{b} ~ {c},{d} is not exact")
        if abs(resid[a, b] + resid[c, d]) > tol:
            fails.append(f"class sum at {a},{b} ~ {c},{d} off by {resid[a, b] + resid[c, d]:.3e}")
        tied[a, b] = tied[b, a] = tied[c, d] = tied[d, c] = True
    for i in vertex:
        if theta[i, i] != theta[i + q, i + q]:
            fails.append(f"vertex tie {i} is not exact")
        if abs(resid[i, i] + resid[i + q, i + q]) > tol:
            fails.append(f"vertex class sum at {i} off by {resid[i, i] + resid[i + q, i + q]:.3e}")
        tied[i, i] = tied[i + q, i + q] = True
    free = (present | np.eye(p, dtype=bool)) & ~tied
    worst = float(np.abs(resid[free]).max()) if free.any() else 0.0
    if worst > tol:
        fails.append(f"free-entry likelihood equation off by {worst:.3e} (tol {tol:.3e})")

    n_edges = int(present.sum()) // 2
    d = p + n_edges - len(vertex) - len(tie_pairs)
    if d != doc["d"]:
        fails.append(f"d={doc['d']} but the edges give {d}")
    return fails


def edge_f1(doc: dict, truth_adj: np.ndarray) -> float:
    present, _, _ = report_graph(doc)
    iu = np.triu_indices(truth_adj.shape[0], k=1)
    est, true = present[iu], truth_adj[iu]
    tp = int(np.sum(est & true))
    denom = int(est.sum() + true.sum())
    return 2.0 * tp / denom if denom else 0.0


def grid_failures(text: str, expected_rows: int) -> tuple[int, list[str]]:
    """(grid points with a blank eBIC, format failures) of a --grid-csv file."""
    rows = list(csv.DictReader(io.StringIO(text)))
    fails = []
    if len(rows) != expected_rows:
        fails.append(f"grid CSV has {len(rows)} rows, expected {expected_rows}")
    blank = sum(1 for r in rows if not r["ebic"])
    return blank, fails


def simulate_rows(text: str, expected_rows: int) -> tuple[list[dict], int, list[str]]:
    """(parsed rows, failed cells, format failures) of a simulate CSV."""
    reader = csv.DictReader(io.StringIO(text))
    fails = []
    if reader.fieldnames != SIM_COLUMNS:
        return [], 0, [f"simulate CSV header is {reader.fieldnames}"]
    rows = list(reader)
    if len(rows) != expected_rows:
        fails.append(f"simulate CSV has {len(rows)} rows, expected {expected_rows}")
    bad_cells = set()
    for r in rows:
        values = [float(r[c]) for c in ("ppv", "tpr", "f1", "mcc", "frob", "entropy", "ebic")]
        if not all(math.isfinite(v) for v in values):  # a cell that raised is all NaN
            bad_cells.add((r["n"], r["rep"]))
    return rows, len(bad_cells), fails
