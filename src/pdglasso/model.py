"""Coloured-graph models: extraction, parameter counts, constrained MLE,
information criteria and the two-stage penalty-path model selection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .chisq import chi2_quantile
from .errors import DimensionError, MleError, PdglassoError
from .face import _colour_classes, _rcon_newton
from .paired import (
    PairedIndex,
    _check_square,
    checked_cov,
    log_likelihood,
    pd_vec,
    symmetrize_paired,
)
from .penalties import PenaltySpec, lambda1_diag_max, lambda2_sym_max, penalty_weights
from .solver import _KKT_TOL_FACTOR, AdmmConfig, SolveReport, check_count, pdglasso_solve


@dataclass(frozen=True, eq=False)
class PdColouredGraph:
    """Paired coloured graph: two masks over :class:`PairedIndex`'s layout.

    ``present`` has one flag per half-vectorized coordinate (see
    :func:`pdglasso.paired.pd_vec`): the entry is an edge, or a diagonal
    entry, which is always present.  ``coloured`` has one flag per row of
    :attr:`PairedIndex.fused_pairs`: a coloured row ties its two entries to
    equal concentrations, and both must be present.  Across-diagonal edges
    {i,i'} lie in no row and are never coloured.  Entry (i, j) is present
    when ``g.present[g.index.coord_of[i, j]]``.

    The masks are copied from the caller's arrays and stored read-only;
    graphs compare, and hash, by q and the masks.
    """

    q: int
    present: np.ndarray
    coloured: np.ndarray

    def __post_init__(self):
        idx = self.index
        # copy so freezing never makes a caller's array read-only
        present = np.array(self.present, dtype=bool)
        coloured = np.array(self.coloured, dtype=bool)
        if present.shape != (idx.vec_length,) or coloured.shape != (idx.n_rows,):
            raise DimensionError(
                f"expected masks of lengths {idx.vec_length} and {idx.n_rows} for q={self.q}"
            )
        present[idx.diagonal] = True
        a, b = idx.fused_pairs
        if np.any(coloured & ~(present[a] & present[b])):
            raise ValueError("a coloured row must have both of its entries present")
        for name, arr in (("present", present), ("coloured", coloured)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        return (isinstance(other, PdColouredGraph) and self.q == other.q
                and np.array_equal(self.present, other.present)
                and np.array_equal(self.coloured, other.coloured))

    def __hash__(self):
        return hash((self.q, self.present.tobytes(), self.coloured.tobytes()))

    @property
    def p(self) -> int:
        return 2 * self.q

    @cached_property
    def index(self) -> PairedIndex:
        return PairedIndex.of(self.q)

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.present)) - self.p

    def is_fully_symmetric(self) -> bool:
        """All vertices coloured, every present pair colour-matched on both sides."""
        a, b = self.index.fused_pairs
        return bool(np.array_equal(self.present[a], self.present[b])
                    and np.array_equal(self.coloured, self.present[a]))

    @classmethod
    def empty(cls, q: int) -> "PdColouredGraph":
        idx = PairedIndex.of(q)
        return cls(q, np.zeros(idx.vec_length, dtype=bool), np.zeros(idx.n_rows, dtype=bool))

    @classmethod
    def complete(cls, q: int, coloured: bool = False) -> "PdColouredGraph":
        idx = PairedIndex.of(q)
        return cls(q, np.ones(idx.vec_length, dtype=bool), np.full(idx.n_rows, coloured))


@dataclass(frozen=True, eq=False)
class FitResult:
    """A fitted model: penalized estimate, extracted graph and its MLE refit,
    compared by identity.

    ``theta_mle`` is None (with ``ebic`` NaN) before the refit, or when a
    caller tolerates a failed one; everything produced by the selection path
    has both.
    """

    theta_hat: np.ndarray
    graph: PdColouredGraph
    d: int
    ebic: float
    spec: PenaltySpec
    report: SolveReport
    theta_mle: Optional[np.ndarray]


def extract_graph(
    theta: np.ndarray,
    idx: PairedIndex,
    zero_tol: Optional[float] = None,
    eq_tol: Optional[float] = None,
) -> PdColouredGraph:
    """Read the coloured graph off an estimated concentration matrix.

    An edge is present when its entry exceeds ``zero_tol`` in absolute value;
    a present symmetric pair is coloured when the two entries differ by at
    most ``eq_tol``, and likewise for vertex pairs on the diagonal.  Both
    default to 1e-5 max(1, max|theta|), which guards float noise in estimates.
    """
    _check_square(theta, idx, "theta")
    default = 1e-5 * max(1.0, float(np.abs(theta).max()))
    zero_tol = default if zero_tol is None else zero_tol
    eq_tol = default if eq_tol is None else eq_tol
    if not (zero_tol > 0 and eq_tol > 0):  # NaN fails too
        raise ValueError("tolerances must be > 0")

    z = pd_vec(theta, idx)
    a, b = idx.fused_pairs
    present = (np.abs(z) > zero_tol) | idx.diagonal
    coloured = present[a] & present[b] & (np.abs(z[a] - z[b]) <= eq_tol)
    return PdColouredGraph(idx.q, present, coloured)


def n_params(g: PdColouredGraph) -> int:
    """Free parameters: saturated count minus zero and equality constraints."""
    return int(g.present.sum() - g.coloured.sum())


def _refit(S: np.ndarray, idx: PairedIndex, absent, coloured, cfg: AdmmConfig) -> np.ndarray:
    """The face solver with the refit's certificate, scaled by max|S|."""
    tol = _KKT_TOL_FACTOR * cfg.eps_abs * max(1.0, float(np.abs(S).max()))
    return _rcon_newton(S, idx, absent, coloured, tol, cfg.max_outer)[0]


def mle(S: np.ndarray, g: PdColouredGraph, cfg: Optional[AdmmConfig] = None) -> np.ndarray:
    """Constrained maximum likelihood estimate of the concentration matrix.

    The estimate minimizes -log det(Theta) + tr(S Theta) over the graph's d
    free parameters: one per present uncoloured entry and one per colour
    class, so zeros and ties are exact by construction.  The minimizer is the
    damped Newton-CG method of :func:`pdglasso.face._rcon_newton`, which the
    penalized solver also uses to polish its solves; memory stays O(p^2)
    for any d.

    The estimate is returned only with a certificate: :func:`rcon_residual`
    at most ``_KKT_TOL_FACTOR * cfg.eps_abs * max(1, max|S|)``, and the
    fitted covariance with that residual removed still positive definite,
    which proves the MLE exists rather than being approached by an estimate
    diverging to infinity.  ``cfg.max_outer`` caps the Newton steps.  Every
    other exit raises :class:`MleError`: a zero sample variance, a Newton
    system that is not numerically positive definite, a failed line search,
    Newton steps stalled at float precision, or the step cap.  S is checked
    by :func:`pdglasso.paired.checked_cov`.
    """
    cfg = cfg or AdmmConfig()
    idx = g.index
    return _refit(checked_cov(S, idx), idx, ~g.present, g.coloured, cfg)


def mle_fully_symmetric(
    S: np.ndarray, g: PdColouredGraph, cfg: Optional[AdmmConfig] = None
) -> np.ndarray:
    """MLE of a fully symmetric model via the block-swap-averaged matrix.

    Fits the plain graphical model (zero constraints only) to the average of
    S with its block-swapped image, by the Newton method of :func:`mle`; the
    result is an exact fixed point of the block swap.
    """
    cfg = cfg or AdmmConfig()
    if not g.is_fully_symmetric():
        raise ValueError("graph is not fully symmetric")
    idx = g.index
    S_bar = symmetrize_paired(checked_cov(S, idx), idx)
    no_ties = np.zeros(idx.n_rows, dtype=bool)
    return symmetrize_paired(_refit(S_bar, idx, ~g.present, no_ties, cfg), idx)


def rcon_residual(theta: np.ndarray, S: np.ndarray, g: PdColouredGraph) -> float:
    """Largest violation of the constrained likelihood equations at ``theta``.

    Present uncoloured entries of the inverse must match S; colour classes
    must match on class sums; absent entries and colour differences must be
    exactly zero.  S is checked by :func:`~pdglasso.paired.checked_cov`.
    """
    idx = g.index
    S = checked_cov(S, idx)
    absent = ~g.present
    owner, cls = _colour_classes(idx, absent, g.coloured)
    z = pd_vec(theta, idx)
    d_hat = pd_vec(np.linalg.inv(theta), idx) - pd_vec(S, idx)
    parts = (z[absent], z - z[owner], np.bincount(cls, weights=d_hat[~absent]))
    return max([0.0] + [float(np.abs(part).max()) for part in parts if part.size])


def check_gamma(gamma: float, name: str = "gamma") -> None:
    """Raise ValueError unless the eBIC ``gamma`` is finite and >= 0."""
    if not 0 <= gamma < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be finite and >= 0, got {gamma}")


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless the test level ``alpha`` is in (0, 1)."""
    if not 0.0 < alpha < 1.0:  # NaN fails too
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def deviance(theta_mle: np.ndarray, S: np.ndarray, n: int) -> float:
    """-n l(theta), comparable across nested models fitted on the same S,
    which is checked by :func:`~pdglasso.paired.checked_cov`."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    return -n * log_likelihood(theta_mle, checked_cov(S))


def ebic(theta_mle: np.ndarray, S: np.ndarray, n: int, d: int, gamma: float) -> float:
    """Extended BIC: the :func:`deviance` plus log(n) d + 4 d gamma log(p)."""
    if d < 0:
        raise ValueError(f"parameter count must be >= 0, got {d}")
    check_gamma(gamma)
    p = theta_mle.shape[0]
    return deviance(theta_mle, S, n) + math.log(n) * d + 4.0 * d * gamma * math.log(p)


@dataclass(frozen=True)
class LrtResult:
    stat: float
    df: int
    critical: float
    reject: bool


def lrt(
    deviance_full: float,
    d_full: int,
    deviance_sub: float,
    d_sub: int,
    alpha: float,
) -> LrtResult:
    """Likelihood ratio test of a nested submodel against a fuller model.

    Raises ValueError for a non-finite deviance, a negative parameter count
    or a pair that is not nested."""
    if not (math.isfinite(deviance_full) and math.isfinite(deviance_sub)):
        raise ValueError(f"deviances must be finite, got {deviance_full} and {deviance_sub}")
    if d_sub < 0:
        raise ValueError(f"parameter counts must be >= 0, got {d_sub}")
    if d_sub >= d_full:
        raise ValueError(
            f"submodel must have fewer parameters ({d_sub} >= {d_full})"
        )
    slack = 1e-6 * max(1.0, abs(deviance_full))
    if deviance_sub < deviance_full - slack:
        raise ValueError("submodel deviance is below the full model's: not nested")
    check_alpha(alpha)
    stat = deviance_sub - deviance_full
    df = d_full - d_sub
    critical = chi2_quantile(1.0 - alpha, df)
    return LrtResult(stat=stat, df=df, critical=critical, reject=stat > critical)


def partial_correlations(theta: np.ndarray) -> np.ndarray:
    """-theta_ij / sqrt(theta_ii theta_jj) off the diagonal, 1 on it."""
    theta = np.asarray(theta, dtype=float)
    diag = np.diag(theta)
    if np.any(diag <= 0):
        raise ValueError("diagonal of theta must be positive")
    scale = np.sqrt(np.outer(diag, diag))
    P = -theta / scale
    np.fill_diagonal(P, 1.0)
    return P


def partial_variances(theta: np.ndarray) -> np.ndarray:
    """Reciprocal diagonal of the concentration matrix."""
    diag = np.diag(np.asarray(theta, dtype=float))
    if np.any(diag <= 0):
        raise ValueError("diagonal of theta must be positive")
    return 1.0 / diag


@dataclass(frozen=True)
class GraphSummary:
    p: int
    total_edges: int
    density: float
    inside_edges: int
    inside_structural_edges: int
    inside_parametric_edges: int
    across_edges: int
    across_structural_edges: int
    across_parametric_edges: int


def graph_summary(g: PdColouredGraph) -> GraphSummary:
    """Edge and symmetry counts as reported in model summaries.

    Symmetric-pair counts are in edges (two per pair); structural counts
    cover present pairs that are not coloured.
    """
    idx, p, total = g.index, g.p, g.n_edges
    a, b = idx.fused_pairs
    row_edges = g.present[a].astype(int) + g.present[b]
    structural = (row_edges == 2) & ~g.coloured
    inside = idx.component_rows(False, True, False)
    across = idx.component_rows(False, False, True)
    inside_edges = int(row_edges[inside].sum())
    return GraphSummary(
        p=p,
        total_edges=total,
        density=total / (p * (p - 1) / 2),
        inside_edges=inside_edges,
        inside_structural_edges=2 * int(structural[inside].sum()),
        inside_parametric_edges=2 * int(g.coloured[inside].sum()),
        # the across diagonal lies in no fused row
        across_edges=total - inside_edges,
        across_structural_edges=2 * int(structural[across].sum()),
        across_parametric_edges=2 * int(g.coloured[across].sum()),
    )


@dataclass(frozen=True)
class SubmodelClass:
    """Per-component penalty for model selection, as :class:`PenaltySpec`
    holds it: ``0.0`` (off), ``math.inf`` (exact equality), or ``"grid"``
    for the fused weight of the grid point."""

    vertex: float | str = "grid"
    inside: float | str = "grid"
    across: float | str = "grid"

    def __post_init__(self):
        for name in ("vertex", "inside", "across"):
            value = getattr(self, name)
            if value != "grid":
                if value not in (0.0, math.inf):
                    raise ValueError(f"{name} mode must be 0.0, math.inf or 'grid', "
                                     f"got {value!r}")
                # -0.0 and numpy scalars are stored as the plain float
                object.__setattr__(self, name, 0.0 if value == 0 else math.inf)

    def spec(self, lambda1: float, lambda2: float) -> PenaltySpec:
        modes = (self.vertex, self.inside, self.across)
        return PenaltySpec(lambda1, *(lambda2 if v == "grid" else v for v in modes))

    @property
    def any_gridded(self) -> bool:
        return "grid" in (self.vertex, self.inside, self.across)


@dataclass(frozen=True)
class GridPoint:
    stage: int
    lambda1: float
    lambda2: float
    ebic: Optional[float]
    d: Optional[int]
    converged: bool
    error: Optional[str] = None
    fit: Optional[FitResult] = field(default=None, repr=False, compare=False)

    @property
    def valid(self) -> bool:
        return self.error is None


def _log_grid(top: float, m: int) -> list[float]:
    if top <= 0:
        return [0.0]
    return [float(x) for x in np.geomspace(top / m, top, m)]


def solve_point(
    S: np.ndarray, spec: PenaltySpec, cfg: AdmmConfig, diag_penalty: bool = True,
    *, start: Optional[np.ndarray] = None,
) -> FitResult:
    """Solve at one penalty value and extract the model, without the refit.

    Colours are kept only on the fused rows that ``spec`` weights
    positively: under a zero weight a tie is accidental (symmetric input,
    say), and the fit stays within its submodel class.  The
    solve starts from ``start``, an estimate at a nearby penalty (see
    :func:`pdglasso.solver.solve_weighted`), cold, at the diagonal optimum,
    when it is None.
    """
    theta_hat, report = pdglasso_solve(S, spec, cfg, diag_penalty=diag_penalty, start=start)
    idx = PairedIndex.from_p(S.shape[0])
    g = extract_graph(theta_hat, idx)
    graph = PdColouredGraph(idx.q, g.present, g.coloured & (penalty_weights(spec, idx)[1] > 0))
    return FitResult(theta_hat, graph, n_params(graph), math.nan, spec, report,
                     theta_mle=None)


def refit_point(
    fit: FitResult, S: np.ndarray, n: int, gamma: float, cfg: AdmmConfig
) -> FitResult:
    """Refit the MLE of a solved point's model and score it by eBIC."""
    theta_mle = mle(S, fit.graph, cfg)
    return replace(fit, ebic=ebic(theta_mle, S, n, fit.d, gamma), theta_mle=theta_mle)


def _attempt(step, *args, **kwargs):
    """``step(*args, **kwargs)``, or the :class:`PdglassoError` it raised."""
    try:
        return step(*args, **kwargs)
    except PdglassoError as exc:
        return exc


def _best(points: list[GridPoint]) -> GridPoint:
    valid = [pt for pt in points if pt.valid]
    if not valid:
        raise MleError("every penalty grid point failed")
    # ties broken toward fewer parameters, then the larger (sparser) penalty
    return min(valid, key=lambda pt: (pt.ebic, pt.d, -pt.lambda1, -pt.lambda2))


def selection_path(
    S: np.ndarray,
    n: int,
    m: int,
    gamma: float,
    class_spec: SubmodelClass,
    cfg: Optional[AdmmConfig] = None,
) -> tuple[FitResult, list[GridPoint]]:
    """Two-stage penalty search, returning the winner and all grid points.

    Stage 1 grids the l1 weight over m log-spaced values up to the diagonal
    threshold with gridded fused components at zero; stage 2 fixes the chosen
    l1 weight and grids the fused weight up to the full-symmetry threshold.
    For a class with no infinite component, stage 1 is the plain graphical
    lasso path, point for point, whatever the class: the simulation module
    reads its glasso baseline off it (see :func:`pdglasso.simulate._run_cell`).
    The stage-1 winner stays in the stage-2 candidate set (not re-solved).
    Stage 2 is skipped when no component is gridded or the symmetry threshold
    is zero.

    Each stage runs in two passes: a warm solve chain, then the MLE refits
    of the solved points in the same order.  The chain is warm-started as
    in glasso and glmnet (Friedman, Hastie & Tibshirani 2008, Biostatistics
    9:432; 2010, J. Stat. Softw. 33(1)) and swept from each stage's
    sparsest point down: stage 1 in descending l1 weight, from the diagonal
    threshold, and stage 2 in descending fused weight, from the
    full-symmetry threshold.  The top of stage 1 starts cold, at the
    diagonal optimum, which solves it; each later solve starts from the
    estimate ``theta_hat`` of the solve before it, except that stage 2
    starts from the stage-1 winner's, whose l1 weight it keeps.  A solve
    after one that raised starts cold; a failed refit does not break the
    chain, since the next solve starts from the failed point's
    ``theta_hat``.  Each solve still ends only on its own certificate.  The
    returned points are in ascending penalty order within each stage.
    """
    cfg = cfg or AdmmConfig()
    check_count(m, "grid length m", 2)
    check_gamma(gamma)
    S = checked_cov(S)
    idx = PairedIndex.from_p(S.shape[0])

    def sweep(stage: int, grid: list[tuple[float, float]],
              start: Optional[np.ndarray]) -> list[GridPoint]:
        """Solve (lambda1, lambda2) pairs from the last one down, the first
        from ``start``, then refit the solved ones in that order; return the
        points in grid order."""
        chain = []  # (lambda1, lambda2, the solve's FitResult or its error)
        for lam1, lam2 in reversed(grid):
            fit = _attempt(solve_point, S, class_spec.spec(lam1, lam2), cfg, start=start)
            start = None if isinstance(fit, PdglassoError) else fit.theta_hat
            chain.append((lam1, lam2, fit))
        points = []
        for lam1, lam2, fit in chain:
            if not isinstance(fit, PdglassoError):
                fit = _attempt(refit_point, fit, S, n, gamma, cfg)
            if isinstance(fit, PdglassoError):
                points.append(GridPoint(stage, lam1, lam2, None, None, False, error=str(fit)))
            else:
                points.append(GridPoint(stage, lam1, lam2, fit.ebic, fit.d,
                                        fit.report.converged, fit=fit))
        return points[::-1]

    stage1 = sweep(1, [(lam1, 0.0) for lam1 in _log_grid(lambda1_diag_max(S), m)], None)
    winner1 = _best(stage1)

    points = list(stage1)
    candidates = [winner1]
    lam2_top = lambda2_sym_max(S, idx)
    if class_spec.any_gridded and lam2_top > 0:
        stage2 = sweep(2, [(winner1.lambda1, lam2) for lam2 in _log_grid(lam2_top, m)],
                       winner1.fit.theta_hat)
        points.extend(stage2)
        candidates.extend(stage2)
    winner = _best(candidates)
    assert winner.fit is not None
    return winner.fit, points

