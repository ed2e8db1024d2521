"""Ground-truth model generation, sampling and benchmark metrics.

Random truths start from a Wishart draw whose inverse is thresholded to a
graph of the requested density; the covariance is then the inverse of the
constrained MLE refit, so the truth is exactly adapted to its graph.  An
adjustable share of vertex, inside and across positions is converted into
parametric symmetries to produce paired coloured truths.

All randomness flows through numpy's default PCG64 generator; child streams
are derived from the master seed and integer tags, so runs are reproducible
bit for bit regardless of execution order or thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError, PdglassoError
from .model import (
    PdColouredGraph,
    SubmodelClass,
    mle,
    model_select,
)
from .paired import PairedIndex, logdet_pd
from .solver import AdmmConfig

_TRUTH_TAG = 1
_SAMPLE_TAG = 2


def child_rng(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic child generator for (seed, tags); PCG64 underneath."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


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
        if self.p < 2 or self.p % 2 != 0:
            raise ValueError(f"p must be even and >= 2, got {self.p}")
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {self.density}")
        if not 0.0 <= self.symmetry_fraction <= 1.0:
            raise ValueError(
                f"symmetry_fraction must be in [0, 1], got {self.symmetry_fraction}"
            )
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))

    @property
    def label(self) -> str:
        return f"sym{self.symmetry_fraction:.2f}"


def wishart_identity(p: int, df: int, seed) -> np.ndarray:
    """One draw W = G G' with G a p x df matrix of standard normals."""
    if df < p:
        raise ValueError(f"need df >= p, got df={df}, p={p}")
    rng = seed if isinstance(seed, np.random.Generator) else child_rng(seed)
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
    return PdColouredGraph.from_masks(idx.q, present, np.zeros(idx.n_rows, dtype=bool))


def _ggm_truth(p: int, density: float, rng: np.random.Generator):
    """Wishart draw S_star and the graph thresholded from its inverse."""
    S_star = wishart_identity(p, p, rng)
    return graph_from_threshold(np.linalg.inv(S_star), density), S_star


def ggm_covariance(
    p: int, density: float, seed, cfg: Optional[AdmmConfig] = None
) -> tuple[np.ndarray, PdColouredGraph]:
    """Random covariance exactly adapted to a random graph of given density."""
    cfg = cfg or AdmmConfig()
    rng = seed if isinstance(seed, np.random.Generator) else child_rng(seed)
    graph, S_star = _ggm_truth(p, density, rng)
    return np.linalg.inv(mle(S_star, graph, cfg)), graph


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
    present = ~graph.absent_coord_mask()
    coloured = graph.coloured_row_mask()
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
    return PdColouredGraph.from_masks(graph.q, present, coloured)


def pdrcon_covariance(
    spec: ScenarioSpec, cfg: Optional[AdmmConfig] = None, seed=None
) -> tuple[np.ndarray, PdColouredGraph]:
    """Random paired coloured truth with the requested symmetry share.

    At fraction 1 the result is invariant under the block swap; at fraction 0
    it coincides with :func:`ggm_covariance` for the same seed.
    """
    cfg = cfg or AdmmConfig()
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else child_rng(spec.seed if seed is None else seed)
    )
    graph, S_star = _ggm_truth(spec.p, spec.density, rng)
    graph = _inject_symmetries(graph, spec.symmetry_fraction, rng)
    theta = mle(S_star, graph, cfg)
    return np.linalg.inv(theta), graph


def mvn_sample_cov(Sigma: np.ndarray, n: int, seed) -> np.ndarray:
    """Second-moment matrix of n zero-mean normal draws with covariance Sigma."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    Sigma = np.asarray(Sigma, dtype=float)
    d, Q = np.linalg.eigh(Sigma)
    if d.min() <= 0:
        raise DimensionError("Sigma must be positive definite")
    root = (Q * np.sqrt(d)) @ Q.T
    rng = seed if isinstance(seed, np.random.Generator) else child_rng(seed)
    Y = rng.standard_normal((n, Sigma.shape[0])) @ root
    return Y.T @ Y / n


def _edge_vector(g: PdColouredGraph) -> np.ndarray:
    return ~g.absent_coord_mask()[~g.index.diagonal]


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


_CSV_COLUMNS = (
    "scenario",
    "n",
    "rep",
    "method",
    "ppv",
    "tpr",
    "f1",
    "mcc",
    "frob",
    "entropy",
    "d",
    "ebic",
    "converged",
)


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


_METHODS = (
    ("pdglasso", SubmodelClass("grid", "grid", "grid")),
    ("glasso", SubmodelClass("zero", "zero", "zero")),
)


def _run_cell(spec: ScenarioSpec, cfg: AdmmConfig, cell: tuple[int, int]) -> list[CellResult]:
    rep, n = cell
    truth_rng = child_rng(spec.seed, _TRUTH_TAG, rep)
    Sigma, truth = pdrcon_covariance(spec, cfg, seed=truth_rng)
    theta_true = np.linalg.inv(Sigma)
    S = mvn_sample_cov(Sigma, n, child_rng(spec.seed, _SAMPLE_TAG, rep, n))
    out = []
    for method, class_spec in _METHODS:
        try:
            fit = model_select(S, n, spec.select_m, spec.select_gamma, class_spec, cfg)
            scores = edge_metrics(truth, fit.graph)
            losses = matrix_losses(fit.theta_mle, theta_true)
            out.append(
                CellResult(
                    spec.label, n, rep, method,
                    scores.ppv, scores.tpr, scores.f1, scores.mcc,
                    losses.frobenius, losses.entropy,
                    fit.d, fit.ebic, fit.report.converged,
                )
            )
        except (PdglassoError, np.linalg.LinAlgError) as exc:
            out.append(
                CellResult(
                    spec.label, n, rep, method,
                    math.nan, math.nan, math.nan, math.nan,
                    math.nan, math.nan, 0, math.nan, False, error=str(exc),
                )
            )
    return out


def run_scenario(
    spec: ScenarioSpec, cfg: Optional[AdmmConfig] = None, threads: int = 1
) -> list[CellResult]:
    """Simulate every (replication, n) cell and score both selection methods.

    Each cell draws its truth and sample from child streams of the scenario
    seed, so the output depends only on (spec, cfg).  Cells run in worker
    processes when ``threads`` > 1 with a deterministic, order-preserving
    reduction, so parallel and serial runs agree bit for bit.  Per-cell
    failures are recorded in the table and the run continues.
    """
    cfg = cfg or AdmmConfig()
    cells = [(rep, n) for rep in range(spec.replications) for n in spec.n_list]
    worker = partial(_run_cell, spec, cfg)
    if threads > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(worker, cells))
    else:
        chunks = [worker(cell) for cell in cells]
    return [row for chunk in chunks for row in chunk]


def results_to_csv(rows: list[CellResult]) -> str:
    """Flat CSV with one row per (scenario, n, rep, method)."""

    def fmt(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(float(value))  # plain shortest round-trip form
        return str(value)

    lines = [",".join(_CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(fmt(getattr(row, col)) for col in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"
