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
    log_likelihood,
    pd_vec,
    symmetrize_paired,
)
from .penalties import (
    INF,
    PenaltySpec,
    is_inf,
    lambda1_diag_max,
    lambda2_sym_max,
)
from .solver import _KKT_TOL_FACTOR, AdmmConfig, SolveReport, pdglasso_solve


@dataclass(frozen=True)
class PdColouredGraph:
    """Paired coloured graph: edge presence plus equality (colour) flags.

    ``inside_present[k]`` holds presence of the pair of inside edges
    ({i,j} in L, {i',j'} in R) for the k-th unordered pair i < j;
    ``across_present[k]`` does the same for the across pair ({i,j'}, {i',j}).
    A coloured pair is constrained to equal concentrations and must have both
    edges present.  Across-diagonal edges {i,i'} are never coloured.

    Over :class:`PairedIndex`'s layout the graph is two masks: the present
    half-vectorized coordinates and the coloured fused rows;
    :meth:`from_masks` and the two ``*_mask`` methods convert between them.
    """

    q: int
    vertex_coloured: np.ndarray
    inside_present: np.ndarray
    inside_coloured: np.ndarray
    across_present: np.ndarray
    across_coloured: np.ndarray
    across_diag: np.ndarray

    def __post_init__(self):
        s = self.s
        shapes = {
            "vertex_coloured": (self.q,),
            "inside_present": (s, 2),
            "inside_coloured": (s,),
            "across_present": (s, 2),
            "across_coloured": (s,),
            "across_diag": (self.q,),
        }
        for name, shape in shapes.items():
            # copy so freezing never makes a caller's array read-only
            arr = np.array(getattr(self, name), dtype=bool)
            if arr.shape != shape:
                raise DimensionError(f"{name} has shape {arr.shape}, expected {shape}")
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)
        if np.any(self.inside_coloured & ~self.inside_present.all(axis=1)):
            raise ValueError("a coloured inside pair must have both edges present")
        if np.any(self.across_coloured & ~self.across_present.all(axis=1)):
            raise ValueError("a coloured across pair must have both edges present")

    @property
    def p(self) -> int:
        return 2 * self.q

    @property
    def s(self) -> int:
        return self.q * (self.q - 1) // 2

    @cached_property
    def index(self) -> PairedIndex:
        return PairedIndex.of(self.q)

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(~self.absent_coord_mask())) - self.p

    def is_fully_symmetric(self) -> bool:
        """All vertices coloured, every present pair colour-matched on both sides."""
        a, b = self.index.fused_pairs
        present = ~self.absent_coord_mask()
        return bool(np.array_equal(present[a], present[b])
                    and np.array_equal(self.coloured_row_mask(), present[a]))

    @classmethod
    def empty(cls, q: int) -> "PdColouredGraph":
        idx = PairedIndex.of(q)
        return cls.from_masks(q, np.zeros(idx.vec_length, dtype=bool),
                              np.zeros(idx.n_rows, dtype=bool))

    @classmethod
    def complete(cls, q: int, coloured: bool = False) -> "PdColouredGraph":
        idx = PairedIndex.of(q)
        return cls.from_masks(q, np.ones(idx.vec_length, dtype=bool),
                              np.full(idx.n_rows, coloured))

    @classmethod
    def from_masks(cls, q: int, present: np.ndarray, coloured: np.ndarray) -> "PdColouredGraph":
        """The graph with the given present coordinates and coloured fused
        rows; the inverse of ``~absent_coord_mask()`` and
        ``coloured_row_mask()``.  Diagonal coordinates are always present and
        their entries of ``present`` are ignored."""
        idx = PairedIndex.of(q)
        present = np.asarray(present, dtype=bool)
        coloured = np.asarray(coloured, dtype=bool)
        if present.shape != (idx.vec_length,) or coloured.shape != (idx.n_rows,):
            raise DimensionError(
                f"expected masks of lengths {idx.vec_length} and {idx.n_rows} for q={q}"
            )
        s = idx.s
        edges = present[2 * q :]
        return cls(
            q,
            coloured[:q],
            edges[: 2 * s].reshape(2, s).T,
            coloured[q : q + s],
            edges[2 * s : 4 * s].reshape(2, s).T,
            coloured[q + s :],
            edges[4 * s :],
        )

    def absent_coord_mask(self) -> np.ndarray:
        """Half-vectorized coordinates constrained to zero by missing edges."""
        return ~np.concatenate([
            np.ones(2 * self.q, dtype=bool),
            self.inside_present.T.ravel(),
            self.across_present.T.ravel(),
            self.across_diag,
        ])

    def coloured_row_mask(self) -> np.ndarray:
        """Rows of :attr:`PairedIndex.fused_pairs` tied exactly by colours."""
        return np.concatenate(
            [self.vertex_coloured, self.inside_coloured, self.across_coloured]
        )


@dataclass(frozen=True)
class FitResult:
    """A fitted model: penalized estimate, extracted graph and its MLE refit.

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
    return PdColouredGraph.from_masks(idx.q, present, coloured)


def n_params(g: PdColouredGraph) -> int:
    """Free parameters: saturated count minus zero and equality constraints."""
    return int((~g.absent_coord_mask()).sum() - g.coloured_row_mask().sum())


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
    Newton steps stalled at float precision, or the step cap.  Raises
    ValueError when S has non-finite entries.
    """
    cfg = cfg or AdmmConfig()
    idx = g.index
    _check_square(S, idx, "S")
    return _refit(S, idx, g.absent_coord_mask(), g.coloured_row_mask(), cfg)


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
    _check_square(S, idx, "S")
    S_bar = symmetrize_paired(S, idx)
    no_ties = np.zeros(idx.n_rows, dtype=bool)
    return symmetrize_paired(_refit(S_bar, idx, g.absent_coord_mask(), no_ties, cfg), idx)


def rcon_residual(theta: np.ndarray, S: np.ndarray, g: PdColouredGraph) -> float:
    """Largest violation of the constrained likelihood equations at ``theta``.

    Present uncoloured entries of the inverse must match S; colour classes
    must match on class sums; absent entries and colour differences must be
    exactly zero.
    """
    idx = g.index
    absent = g.absent_coord_mask()
    owner, cls = _colour_classes(idx, absent, g.coloured_row_mask())
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
    """-n l(theta), comparable across nested models fitted on the same S."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    return -n * log_likelihood(theta_mle, S)


def ebic(theta_mle: np.ndarray, S: np.ndarray, n: int, d: int, gamma: float) -> float:
    """Extended BIC: the deviance plus log(n) d + 4 d gamma log(p)."""
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
    """Likelihood ratio test of a nested submodel against a fuller model."""
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
    p = g.p
    inside_edges = int(g.inside_present.sum())
    across_edges = int(g.across_present.sum() + g.across_diag.sum())
    total = inside_edges + across_edges
    inside_both = g.inside_present.all(axis=1)
    across_both = g.across_present.all(axis=1)
    return GraphSummary(
        p=p,
        total_edges=total,
        density=total / (p * (p - 1) / 2),
        inside_edges=inside_edges,
        inside_structural_edges=2 * int((inside_both & ~g.inside_coloured).sum()),
        inside_parametric_edges=2 * int(g.inside_coloured.sum()),
        across_edges=across_edges,
        across_structural_edges=2 * int((across_both & ~g.across_coloured).sum()),
        across_parametric_edges=2 * int(g.across_coloured.sum()),
    )


@dataclass(frozen=True)
class SubmodelClass:
    """Per-component penalty mode for model selection: zero, grid or inf."""

    vertex: str = "grid"
    inside: str = "grid"
    across: str = "grid"

    _MODES = ("zero", "grid", "inf")

    def __post_init__(self):
        for name in ("vertex", "inside", "across"):
            if getattr(self, name) not in self._MODES:
                raise ValueError(f"{name} mode must be one of {self._MODES}")

    def component(self, name: str, grid_value: float):
        mode = getattr(self, name)
        if mode == "zero":
            return 0.0
        if mode == "inf":
            return INF
        return grid_value

    def spec(self, lambda1: float, lambda2: float) -> PenaltySpec:
        return PenaltySpec(
            lambda1,
            self.component("vertex", lambda2),
            self.component("inside", lambda2),
            self.component("across", lambda2),
        )

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


def filter_extracted_colours(graph: PdColouredGraph, spec: PenaltySpec) -> PdColouredGraph:
    """Drop colours of penalty families that were not active in the solve.

    With a zero fused weight any exact equality in the estimate is accidental
    (e.g. perfectly symmetric input), not a fusion selected by the penalty,
    so the extracted model stays within the searched submodel class.
    """
    active = [is_inf(c) or c > 0 for c in spec.components]
    return PdColouredGraph.from_masks(
        graph.q,
        ~graph.absent_coord_mask(),
        graph.coloured_row_mask() & graph.index.component_rows(*active),
    )


def solve_point(
    S: np.ndarray, spec: PenaltySpec, cfg: AdmmConfig, diag_penalty: bool = True,
    *, start: Optional[np.ndarray] = None,
) -> FitResult:
    """Solve at one penalty value and extract the model, without the refit.

    Colours are read off the estimate only for fused components that were
    active in the solve, so the fit stays within its submodel class.  The
    solve starts from ``start``, an estimate at a nearby penalty (see
    :func:`pdglasso.solver.solve_weighted`), cold, at the diagonal optimum,
    when it is None.
    """
    theta_hat, report = pdglasso_solve(S, spec, cfg, diag_penalty=diag_penalty, start=start)
    idx = PairedIndex.from_p(S.shape[0])
    graph = filter_extracted_colours(extract_graph(theta_hat, idx), spec)
    return FitResult(theta_hat, graph, n_params(graph), math.nan, spec, report,
                     theta_mle=None)


def refit_point(
    fit: FitResult, S: np.ndarray, n: int, gamma: float, cfg: AdmmConfig
) -> FitResult:
    """Refit the MLE of a solved point's model and score it by eBIC."""
    theta_mle = mle(S, fit.graph, cfg)
    return replace(fit, ebic=ebic(theta_mle, S, n, fit.d, gamma), theta_mle=theta_mle)


def fit_point(
    S: np.ndarray,
    n: int,
    gamma: float,
    spec: PenaltySpec,
    cfg: AdmmConfig,
    *,
    start: Optional[np.ndarray] = None,
) -> FitResult:
    """Solve at one penalty value from ``start`` (cold when None), extract
    the model and refit its MLE."""
    return refit_point(solve_point(S, spec, cfg, start=start), S, n, gamma, cfg)


def _evaluate(stage, lam1, lam2, S, n, gamma, class_spec, cfg, start) -> GridPoint:
    spec = class_spec.spec(lam1, lam2)
    try:
        fit = fit_point(S, n, gamma, spec, cfg, start=start)
    except (PdglassoError, np.linalg.LinAlgError) as exc:
        return GridPoint(stage, lam1, lam2, None, None, False, error=str(exc))
    return GridPoint(
        stage, lam1, lam2, fit.ebic, fit.d, fit.report.converged, fit=fit
    )


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
    For a class with no ``"inf"`` component, stage 1 is the plain graphical
    lasso path, point for point, whatever the class: the simulation module
    reads its glasso baseline off it (see :func:`pdglasso.simulate._run_cell`).
    The stage-1 winner stays in the stage-2 candidate set (not re-solved).
    Stage 2 is skipped when no component is gridded or the symmetry threshold
    is zero.

    Grid points are evaluated one after another and the path is
    warm-started as in glasso and glmnet (Friedman, Hastie & Tibshirani
    2008, Biostatistics 9:432; 2010, J. Stat. Softw. 33(1)).  Each stage is
    swept from its sparsest point down: stage 1 in descending l1 weight,
    from the diagonal threshold, and stage 2 in descending fused weight,
    from the full-symmetry threshold.  The top of stage 1 starts cold, at
    the diagonal optimum, which solves it; each
    later solve starts from the estimate ``theta_hat`` of the solve
    evaluated before it, except that stage 2 starts from the stage-1
    winner's, whose l1 weight it keeps.  A point after one that failed
    starts cold.  Each solve still ends only on its own certificate.  The
    returned points are in ascending penalty order within each stage.
    """
    cfg = cfg or AdmmConfig()
    if m < 2:
        raise ValueError(f"grid length must be >= 2, got {m}")
    check_gamma(gamma)
    S = np.asarray(S, dtype=float)
    idx = PairedIndex.from_p(S.shape[0])

    def sweep(stage: int, grid: list[tuple[float, float]],
              start: Optional[np.ndarray]) -> list[GridPoint]:
        """Evaluate (lambda1, lambda2) pairs from the last one down, the first
        from ``start``, and return the points in grid order."""
        swept = []
        for lam1, lam2 in reversed(grid):
            pt = _evaluate(stage, lam1, lam2, S, n, gamma, class_spec, cfg, start)
            start = pt.fit.theta_hat if pt.valid else None
            swept.append(pt)
        return swept[::-1]

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

