"""Ground-truth model generation, sampling and benchmark metrics.

Random truths start from a Wishart draw whose inverse is thresholded to a
graph of the requested density; the covariance is then the inverse of the
constrained MLE refit, so the truth is exactly adapted to its graph.  An
adjustable share of vertex, inside and across positions is converted into
parametric symmetries to produce paired coloured truths.

:func:`run_scenario` scores pdglasso against the plain graphical lasso in
each (replication, n) cell.  Each replication's truth is drawn once, before
any cell runs, and shared by the cells of that replication.  Both
selections come from one pdglasso selection path: the glasso baseline is
the best point of its stage 1, which is the glasso path itself, so each
cell solves its path once.  The cells are shared out between this process
and plain forked children (Linux only; elsewhere they all run here), which
send their rows back through pipes.

All randomness flows through numpy's default PCG64 generator; child streams
are derived from the master seed and integer tags, so runs are reproducible
bit for bit regardless of execution order or thread count.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError, PdglassoError
from .model import (
    PdColouredGraph,
    SubmodelClass,
    _best,
    check_gamma,
    mle,
    selection_path,
)
from .paired import PairedIndex, is_positive_definite, logdet_pd
from .solver import AdmmConfig, check_count

_TRUTH_TAG = 1
_SAMPLE_TAG = 2


def child_rng(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic child generator for (seed, tags); PCG64 underneath."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def _rng(seed) -> np.random.Generator:
    """``seed`` itself when it is a Generator, else :func:`child_rng` of it."""
    return seed if isinstance(seed, np.random.Generator) else child_rng(seed)


@dataclass(frozen=True)
class ScenarioSpec:
    """One benchmark scenario: truth shape, sample sizes and selection knobs."""

    p: int
    density: float
    symmetry_fraction: float
    n_list: tuple[int, ...]
    replications: int
    seed: int
    select_m: int = 20
    select_gamma: float = 0.0

    def __post_init__(self):
        check_count(self.p, "p", 2)
        if self.p % 2 != 0:
            raise ValueError(f"p must be even, got {self.p}")
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {self.density}")
        if not 0.0 <= self.symmetry_fraction <= 1.0:
            raise ValueError(
                f"symmetry_fraction must be in [0, 1], got {self.symmetry_fraction}"
            )
        check_count(self.replications, "replications", 1)
        check_gamma(self.select_gamma, "select_gamma")
        if not self.n_list:
            raise ValueError("n_list must be nonempty")
        for k, n in enumerate(self.n_list):
            check_count(n, "every n in n_list", 1)
            if n in self.n_list[:k]:  # its cells would draw the same samples
                raise ValueError(f"n_list must hold distinct sample sizes, got n = {n} twice")
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        check_count(self.select_m, "select_m", 2)

    @property
    def label(self) -> str:
        return f"sym{self.symmetry_fraction:.2f}"


def wishart_identity(p: int, df: int, seed) -> np.ndarray:
    """One draw W = G G' with G a p x df matrix of standard normals."""
    if df < p:
        raise ValueError(f"need df >= p, got df={df}, p={p}")
    rng = _rng(seed)
    G = rng.standard_normal((p, df))
    return G @ G.T


def graph_from_threshold(K: np.ndarray, density: float) -> PdColouredGraph:
    """Uncoloured graph keeping the largest-magnitude off-diagonal entries.

    Selects the top ceil(density * p(p-1)/2) upper-triangle entries of |K|,
    breaking ties by pair order.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    K = np.asarray(K, dtype=float)
    p = K.shape[0]
    idx = PairedIndex.from_p(p)
    rows, cols = np.triu_indices(p, k=1)
    values = np.abs(K[rows, cols])
    n_edges = math.ceil(density * len(values))
    keep = np.argsort(-values, kind="stable")[:n_edges]
    present = np.zeros(idx.vec_length, dtype=bool)
    present[idx.coord_of[rows[keep], cols[keep]]] = True
    return PdColouredGraph(idx.q, present, np.zeros(idx.n_rows, dtype=bool))


def _inject_symmetries(
    graph: PdColouredGraph, fraction: float, rng: np.random.Generator
) -> PdColouredGraph:
    """Convert a share of each symmetry pool into parametric symmetries.

    Selected fused rows (vertex, inside and across pairs, drawn in that
    order) with at least one present entry get both entries present and
    coloured, while fully absent selections already are symmetries (a shared
    zero) and stay absent.  Vertex pairs are always present.
    """
    idx = graph.index
    present = graph.present.copy()
    coloured = graph.coloured.copy()
    a, b = idx.fused_pairs
    component = idx.component_rows(0, 1, 2)
    for c in range(3):
        pool = np.flatnonzero(component == c)
        k = int(round(fraction * len(pool)))
        if k == 0:
            continue
        chosen = pool[rng.choice(len(pool), size=k, replace=False)]
        chosen = chosen[present[a[chosen]] | present[b[chosen]]]
        present[a[chosen]] = present[b[chosen]] = True
        coloured[chosen] = True
    return PdColouredGraph(graph.q, present, coloured)


def pdrcon_covariance(
    spec: ScenarioSpec, cfg: Optional[AdmmConfig] = None, seed=None
) -> tuple[np.ndarray, PdColouredGraph]:
    """Random paired coloured truth with the requested symmetry share.

    At fraction 1 the result is invariant under the block swap.  At
    fraction 0 no row is coloured, and the result is the plain GGM truth: a
    covariance exactly adapted to the graph thresholded from the inverse of
    a Wishart draw.
    """
    cfg = cfg or AdmmConfig()
    rng = _rng(spec.seed if seed is None else seed)
    S_star = wishart_identity(spec.p, spec.p, rng)
    graph = graph_from_threshold(np.linalg.inv(S_star), spec.density)
    graph = _inject_symmetries(graph, spec.symmetry_fraction, rng)
    theta = mle(S_star, graph, cfg)
    return np.linalg.inv(theta), graph


def mvn_sample_cov(Sigma: np.ndarray, n: int, seed) -> np.ndarray:
    """Second-moment matrix of n zero-mean normal draws with covariance Sigma,
    an integer n >= 1 (else ValueError) and a Sigma that passes Cholesky
    (else :class:`NotPositiveDefiniteError`)."""
    check_count(n, "n", 1)
    Sigma = np.asarray(Sigma, dtype=float)
    if not is_positive_definite(Sigma):
        raise NotPositiveDefiniteError("Sigma must be positive definite")
    d, Q = np.linalg.eigh(Sigma)
    root = (Q * np.sqrt(d)) @ Q.T
    rng = _rng(seed)
    Y = rng.standard_normal((n, Sigma.shape[0])) @ root
    return Y.T @ Y / n


def _edge_vector(g: PdColouredGraph) -> np.ndarray:
    return g.present[~g.index.diagonal]


@dataclass(frozen=True)
class EdgeMetrics:
    ppv: float
    tpr: float
    f1: float
    mcc: float


def edge_metrics(truth: PdColouredGraph, est: PdColouredGraph) -> EdgeMetrics:
    """Edge-recovery scores over all p(p-1)/2 possible edges; 0/0 counts as 0."""
    if truth.q != est.q:
        raise DimensionError("graphs have different sizes")
    t = _edge_vector(truth)
    e = _edge_vector(est)
    tp = float(np.sum(t & e))
    fp = float(np.sum(~t & e))
    fn = float(np.sum(t & ~e))
    tn = float(np.sum(~t & ~e))

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    ppv = ratio(tp, tp + fp)
    tpr = ratio(tp, tp + fn)
    f1 = ratio(2 * ppv * tpr, ppv + tpr)
    mcc_den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = (tp * tn - fp * fn) / mcc_den if mcc_den > 0 else 0.0
    return EdgeMetrics(ppv=ppv, tpr=tpr, f1=f1, mcc=mcc)


@dataclass(frozen=True)
class MatrixLosses:
    frobenius: float
    entropy: float


def matrix_losses(theta_hat: np.ndarray, theta_true: np.ndarray) -> MatrixLosses:
    """Frobenius distance and the entropy (Stein) loss of an estimate."""
    A = np.asarray(theta_hat, dtype=float)
    B = np.asarray(theta_true, dtype=float)
    if A.shape != B.shape:
        raise DimensionError("estimates have different shapes")
    p = A.shape[0]
    try:
        logdet = logdet_pd(A) - logdet_pd(B)
    except NotPositiveDefiniteError as exc:
        raise ValueError("inputs must be positive definite") from exc
    frob = float(np.linalg.norm(A - B))
    entropy = float(np.trace(A @ np.linalg.inv(B)) - logdet - p)
    return MatrixLosses(frobenius=frob, entropy=entropy)


@dataclass(frozen=True)
class CellResult:
    scenario: str
    n: int
    rep: int
    method: str
    ppv: float
    tpr: float
    f1: float
    mcc: float
    frob: float
    entropy: float
    d: int
    ebic: float
    converged: bool
    error: Optional[str] = None


_METHODS = ("pdglasso", "glasso")
_PDGLASSO = SubmodelClass("grid", "grid", "grid")


def _draw_truth(spec: ScenarioSpec, cfg: AdmmConfig, rep: int):
    """Replication ``rep``'s truth: (Sigma, its graph, its inverse)."""
    Sigma, truth = pdrcon_covariance(spec, cfg, seed=child_rng(spec.seed, _TRUTH_TAG, rep))
    return Sigma, truth, np.linalg.inv(Sigma)


def _run_cell(
    spec: ScenarioSpec, cfg: AdmmConfig, truth, cell: tuple[int, int]
) -> list[CellResult]:
    """Draw one cell's sample from its replication's truth, and score both
    methods' selections.

    ``truth`` is :func:`_draw_truth` of the cell's replication.  Both
    selections come from one pdglasso selection path.  The glasso baseline
    is the eBIC winner of the l1 path with every fused component at zero,
    and that path is stage 1 of pdglasso's, point for point: the same
    penalties, grid, sweep order and warm starts.  So its winner is the best
    stage-1 point under the tie-break rule of every selection
    (:func:`pdglasso.model._best`), and the path is solved once per cell.
    The path fails only when every stage-1 point fails; then both rows
    record the same error.
    """
    rep, n = cell
    Sigma, graph, theta_true = truth
    S = mvn_sample_cov(Sigma, n, child_rng(spec.seed, _SAMPLE_TAG, rep, n))
    try:
        winner, points = selection_path(
            S, n, spec.select_m, spec.select_gamma, _PDGLASSO, cfg
        )
    except PdglassoError as exc:
        return [_failed_row(spec, n, rep, method, exc) for method in _METHODS]
    fits = (winner, _best([pt for pt in points if pt.stage == 1]).fit)
    out = []
    for method, fit in zip(_METHODS, fits):
        try:
            scores = edge_metrics(graph, fit.graph)
            losses = matrix_losses(fit.theta_mle, theta_true)
        except PdglassoError as exc:
            out.append(_failed_row(spec, n, rep, method, exc))
            continue
        out.append(
            CellResult(
                spec.label, n, rep, method,
                scores.ppv, scores.tpr, scores.f1, scores.mcc,
                losses.frobenius, losses.entropy,
                fit.d, fit.ebic, fit.report.converged,
            )
        )
    return out


def _failed_row(spec: ScenarioSpec, n: int, rep: int, method: str, exc: Exception) -> CellResult:
    return CellResult(
        spec.label, n, rep, method,
        math.nan, math.nan, math.nan, math.nan,
        math.nan, math.nan, 0, math.nan, False, error=str(exc),
    )


def run_scenario(
    spec: ScenarioSpec, cfg: Optional[AdmmConfig] = None, threads: int = 1
) -> list[CellResult]:
    """Simulate every (replication, n) cell and score both selection methods.

    Each replication's truth is drawn once, in this process, and each cell
    draws its sample from it; truths and samples come from child streams of
    the scenario seed, so the output depends only on (spec, cfg).  The cells
    run on W = min(``threads``, number of cells) workers, this process
    included: on Linux it forks W - 1 children, child k computes the cells
    ``cells[k::W]`` and this process computes share 0.  On other platforms,
    where fork is unsafe (macOS) or missing (Windows), every cell runs in
    this process.  The rows come back in cell order, so
    the table is the same bit for bit for any W.  Per-cell failures are
    recorded in the table and the run continues.  An exception that escapes
    a cell is raised here with its type, after every child has ended; a
    child that ends without a result raises :class:`PdglassoError` naming
    its exit status.  Raises ValueError unless ``threads`` is an integer >= 1.
    """
    check_count(threads, "threads", 1)
    cfg = cfg or AdmmConfig()
    truths = [_draw_truth(spec, cfg, rep) for rep in range(spec.replications)]
    cells = [(rep, n) for rep in range(spec.replications) for n in spec.n_list]

    def run(cell):
        return _run_cell(spec, cfg, truths[cell[0]], cell)

    workers = min(threads, len(cells)) if sys.platform.startswith("linux") else 1
    chunks = _run_forked(run, cells, workers)
    return [row for chunk in chunks for row in chunk]


def _run_forked(run, cells: list, workers: int) -> list:
    """``[run(cell) for cell in cells]`` on ``workers`` processes, this one
    included; forked children send their share back pickled through a pipe.

    If this process's own share fails, or a child's result is an exception,
    the children still running are killed, and every child is reaped before
    the error is raised.
    """
    children: dict[int, int] = {}  # pid -> read end of its pipe
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                for fd in children.values():
                    os.close(fd)
                _child_main(run, cells[k::workers], write_fd)
            os.close(write_fd)
            children[pid] = read_fd
        shares = [[run(cell) for cell in cells[0::workers]]]
        for pid in list(children):
            shares.append(_child_result(pid, children.pop(pid)))
    finally:
        for pid, fd in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
    chunks = [None] * len(cells)
    for k, share in enumerate(shares):
        chunks[k::workers] = share
    return chunks


def _child_main(run, share: list, write_fd: int) -> None:
    """Body of a forked child: compute ``share``, send (ok, rows or
    exception) pickled, and leave without running the parent's exit code."""
    status = 1
    try:
        try:
            payload = pickle.dumps((True, [run(cell) for cell in share]))
        except BaseException as exc:  # the parent raises it; never unwind into its code
            try:
                payload = pickle.dumps((False, exc))
            except Exception:  # an exception that does not pickle
                payload = pickle.dumps((False, PdglassoError(f"{type(exc).__name__}: {exc}")))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _child_result(pid: int, read_fd: int) -> list:
    """Read a child's result to EOF, reap the child, and return its rows or
    raise its exception."""
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise PdglassoError(f"simulate worker process {pid} ended without a result ({how})")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value

