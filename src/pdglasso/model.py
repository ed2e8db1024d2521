"""Coloured-graph models: extraction, parameter counts, constrained MLE,
information criteria and the two-stage penalty-path model selection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .chisq import chi2_quantile
from .errors import DimensionError, MleError, PdglassoError
from .paired import (
    PairedIndex,
    _check_square,
    is_positive_definite,
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
from .solver import (
    AdmmConfig,
    FusedDiffOperator,
    SolveReport,
    pdglasso_solve,
    solve_weighted,
)


@dataclass(frozen=True)
class PdColouredGraph:
    """Paired coloured graph: edge presence plus equality (colour) flags.

    ``inside_present[k]`` holds presence of the pair of inside edges
    ({i,j} in L, {i',j'} in R) for the k-th unordered pair i < j;
    ``across_present[k]`` does the same for the across pair ({i,j'}, {i',j}).
    A coloured pair is constrained to equal concentrations and must have both
    edges present.  Across-diagonal edges {i,i'} are never coloured.
    """

    q: int
    vertex_coloured: np.ndarray
    inside_present: np.ndarray
    inside_coloured: np.ndarray
    across_present: np.ndarray
    across_coloured: np.ndarray
    across_diag: np.ndarray

    def __post_init__(self):
        s = self.q * (self.q - 1) // 2
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

    @property
    def index(self) -> PairedIndex:
        return PairedIndex(self.q)

    @property
    def n_edges(self) -> int:
        return int(
            self.inside_present.sum() + self.across_present.sum() + self.across_diag.sum()
        )

    def is_fully_symmetric(self) -> bool:
        """All vertices coloured, every present pair colour-matched on both sides."""
        inside_ok = bool(
            np.all(self.inside_present[:, 0] == self.inside_present[:, 1])
            and np.all(self.inside_coloured == self.inside_present.all(axis=1))
        )
        across_ok = bool(
            np.all(self.across_present[:, 0] == self.across_present[:, 1])
            and np.all(self.across_coloured == self.across_present.all(axis=1))
        )
        return bool(np.all(self.vertex_coloured)) and inside_ok and across_ok

    @classmethod
    def empty(cls, q: int) -> "PdColouredGraph":
        s = q * (q - 1) // 2
        return cls(
            q,
            np.zeros(q, dtype=bool),
            np.zeros((s, 2), dtype=bool),
            np.zeros(s, dtype=bool),
            np.zeros((s, 2), dtype=bool),
            np.zeros(s, dtype=bool),
            np.zeros(q, dtype=bool),
        )

    @classmethod
    def complete(cls, q: int, coloured: bool = False) -> "PdColouredGraph":
        s = q * (q - 1) // 2
        return cls(
            q,
            np.full(q, coloured),
            np.ones((s, 2), dtype=bool),
            np.full(s, coloured),
            np.ones((s, 2), dtype=bool),
            np.full(s, coloured),
            np.ones(q, dtype=bool),
        )

    def absent_coord_mask(self) -> np.ndarray:
        """Half-vectorized coordinates constrained to zero by missing edges."""
        idx = self.index
        mask = np.zeros(idx.vec_length, dtype=bool)
        q, s = self.q, self.s
        mask[2 * q : 2 * q + s] = ~self.inside_present[:, 0]
        mask[2 * q + s : 2 * q + 2 * s] = ~self.inside_present[:, 1]
        mask[2 * q + 2 * s : 2 * q + 3 * s] = ~self.across_present[:, 0]
        mask[2 * q + 3 * s : 2 * q + 4 * s] = ~self.across_present[:, 1]
        mask[2 * q + 4 * s :] = ~self.across_diag
        return mask

    def coloured_row_mask(self) -> np.ndarray:
        """Fused-operator rows constrained to exact equality by colours."""
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


def default_tolerances(theta: np.ndarray) -> tuple[float, float]:
    """Relative zero/equality tolerances guarding float noise in estimates."""
    scale = 1e-5 * max(1.0, float(np.abs(theta).max()))
    return scale, scale


def extract_graph(
    theta: np.ndarray,
    idx: PairedIndex,
    zero_tol: Optional[float] = None,
    eq_tol: Optional[float] = None,
) -> PdColouredGraph:
    """Read the coloured graph off an estimated concentration matrix.

    An edge is present when its entry exceeds ``zero_tol`` in absolute value;
    a present symmetric pair is coloured when the two entries differ by at
    most ``eq_tol``, and likewise for vertex pairs on the diagonal.
    """
    _check_square(theta, idx, "theta")
    if zero_tol is None or eq_tol is None:
        z_def, e_def = default_tolerances(theta)
        zero_tol = z_def if zero_tol is None else zero_tol
        eq_tol = e_def if eq_tol is None else eq_tol
    if zero_tol <= 0 or eq_tol <= 0:
        raise ValueError("tolerances must be > 0")

    q, s = idx.q, idx.s
    z = pd_vec(theta, idx)
    vertex_coloured = np.abs(z[:q] - z[q : 2 * q]) <= eq_tol
    upper_ll = z[2 * q : 2 * q + s]
    upper_rr = z[2 * q + s : 2 * q + 2 * s]
    upper_lr = z[2 * q + 2 * s : 2 * q + 3 * s]
    upper_rl = z[2 * q + 3 * s : 2 * q + 4 * s]
    diag_lr = z[2 * q + 4 * s :]

    inside_present = np.stack(
        [np.abs(upper_ll) > zero_tol, np.abs(upper_rr) > zero_tol], axis=1
    )
    inside_coloured = inside_present.all(axis=1) & (
        np.abs(upper_ll - upper_rr) <= eq_tol
    )
    across_present = np.stack(
        [np.abs(upper_lr) > zero_tol, np.abs(upper_rl) > zero_tol], axis=1
    )
    across_coloured = across_present.all(axis=1) & (
        np.abs(upper_lr - upper_rl) <= eq_tol
    )
    return PdColouredGraph(
        q,
        vertex_coloured,
        inside_present,
        inside_coloured,
        across_present,
        across_coloured,
        np.abs(diag_lr) > zero_tol,
    )


def n_params(g: PdColouredGraph) -> int:
    """Free parameters: saturated count minus zero and equality constraints."""
    p = g.p
    absents = int(
        (~g.inside_present).sum() + (~g.across_present).sum() + (~g.across_diag).sum()
    )
    colours = int(
        g.vertex_coloured.sum() + g.inside_coloured.sum() + g.across_coloured.sum()
    )
    return p * (p + 1) // 2 - absents - colours


def mle(S: np.ndarray, g: PdColouredGraph, cfg: Optional[AdmmConfig] = None) -> np.ndarray:
    """Constrained maximum likelihood estimate of the concentration matrix.

    Runs the solver with infinite weights on the zero and equality
    constraints of the graph and zero penalties elsewhere, so the estimate
    meets its constraints exactly.  Raises :class:`MleError` when the
    estimate does not exist (solver divergence or a non-positive-definite
    projection).
    """
    cfg = cfg or AdmmConfig()
    idx = g.index
    _check_square(S, idx, "S")

    l1_coord = np.where(g.absent_coord_mask(), math.inf, 0.0)
    row_weights = np.where(g.coloured_row_mask(), math.inf, 0.0)
    op = FusedDiffOperator.from_row_weights(idx, row_weights)

    theta, report = solve_weighted(S, idx, l1_coord, op, cfg)
    if not report.converged:
        raise MleError("constrained MLE did not converge; it may not exist")
    if report.z_not_pd or not is_positive_definite(theta):
        raise MleError("constrained MLE projection is not positive definite")
    return theta


def mle_fully_symmetric(
    S: np.ndarray, g: PdColouredGraph, cfg: Optional[AdmmConfig] = None
) -> np.ndarray:
    """MLE of a fully symmetric model via the block-swap-averaged matrix.

    Fits the plain graphical model (zero constraints only) to the average of
    S with its block-swapped image; the result is an exact fixed point of the
    block swap.
    """
    cfg = cfg or AdmmConfig()
    if not g.is_fully_symmetric():
        raise ValueError("graph is not fully symmetric")
    idx = g.index
    _check_square(S, idx, "S")
    S_bar = symmetrize_paired(S, idx)
    l1_coord = np.where(g.absent_coord_mask(), math.inf, 0.0)
    op = FusedDiffOperator.from_row_weights(idx, np.zeros(idx.q + 2 * idx.s))

    theta, report = solve_weighted(S_bar, idx, l1_coord, op, cfg)
    if not report.converged:
        raise MleError("constrained MLE did not converge; it may not exist")
    theta = symmetrize_paired(theta, idx)
    if not is_positive_definite(theta):
        raise MleError("constrained MLE projection is not positive definite")
    return theta


def rcon_residual(theta: np.ndarray, S: np.ndarray, g: PdColouredGraph) -> float:
    """Largest violation of the constrained likelihood equations at ``theta``.

    Present uncoloured entries of the inverse must match S; colour classes
    must match on class sums; absent entries and colour differences must be
    exactly zero.
    """
    idx = g.index
    Sigma_hat = np.linalg.inv(theta)
    d_hat = pd_vec(Sigma_hat, idx) - pd_vec(S, idx)
    z = pd_vec(theta, idx)
    q, s = idx.q, idx.s

    worst = 0.0
    absent = g.absent_coord_mask()
    if absent.any():
        worst = max(worst, float(np.abs(z[absent]).max()))

    op = FusedDiffOperator.from_row_weights(idx, np.zeros(q + 2 * s))
    coloured = g.coloured_row_mask()
    if coloured.any():
        worst = max(
            worst,
            float(np.abs(z[op.first[coloured]] - z[op.second[coloured]]).max()),
        )
        class_sum = d_hat[op.first[coloured]] + d_hat[op.second[coloured]]
        worst = max(worst, float(np.abs(class_sum).max()))

    free = ~absent
    fused_coord = np.zeros(idx.vec_length, dtype=bool)
    fused_coord[op.first[coloured]] = True
    fused_coord[op.second[coloured]] = True
    free &= ~fused_coord
    if free.any():
        worst = max(worst, float(np.abs(d_hat[free]).max()))
    return worst


def ebic(theta_mle: np.ndarray, S: np.ndarray, n: int, d: int, gamma: float) -> float:
    """Extended BIC: -n l(theta) + log(n) d + 4 d gamma log(p)."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if d < 0:
        raise ValueError(f"parameter count must be >= 0, got {d}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    p = theta_mle.shape[0]
    ll = log_likelihood(theta_mle, S)
    return -n * ll + math.log(n) * d + 4.0 * d * gamma * math.log(p)


def deviance(theta_mle: np.ndarray, S: np.ndarray, n: int) -> float:
    """-n l(theta), comparable across nested models fitted on the same S."""
    return -n * log_likelihood(theta_mle, S)


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
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
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
    def active(c):
        return is_inf(c) or c > 0

    vertex = graph.vertex_coloured
    inside = graph.inside_coloured
    across = graph.across_coloured
    if not active(spec.lambda2_vertex):
        vertex = np.zeros_like(vertex)
    if not active(spec.lambda2_inside):
        inside = np.zeros_like(inside)
    if not active(spec.lambda2_across):
        across = np.zeros_like(across)
    return PdColouredGraph(
        graph.q, vertex, graph.inside_present, inside,
        graph.across_present, across, graph.across_diag,
    )


def solve_point(
    S: np.ndarray, spec: PenaltySpec, cfg: AdmmConfig, diag_penalty: bool = True
) -> FitResult:
    """Solve at one penalty value and extract the model, without the refit.

    Colours are read off the estimate only for fused components that were
    active in the solve, so the fit stays within its submodel class.
    """
    theta_hat, report = pdglasso_solve(S, spec, cfg, diag_penalty=diag_penalty)
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
    diag_penalty: bool = True,
) -> FitResult:
    """Solve at one penalty value, extract the model and refit its MLE."""
    return refit_point(solve_point(S, spec, cfg, diag_penalty), S, n, gamma, cfg)


def _evaluate(stage, lam1, lam2, S, n, gamma, class_spec, cfg) -> GridPoint:
    spec = class_spec.spec(lam1, lam2)
    try:
        fit = fit_point(S, n, gamma, spec, cfg)
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
    The stage-1 winner stays in the stage-2 candidate set (not re-solved).
    Stage 2 is skipped when no component is gridded or the symmetry threshold
    is zero.  Grid points are evaluated one after another.
    """
    cfg = cfg or AdmmConfig()
    if m < 2:
        raise ValueError(f"grid length must be >= 2, got {m}")
    S = np.asarray(S, dtype=float)
    idx = PairedIndex.from_p(S.shape[0])

    lam1_grid = _log_grid(lambda1_diag_max(S), m)
    stage1 = [_evaluate(1, lam1, 0.0, S, n, gamma, class_spec, cfg) for lam1 in lam1_grid]
    winner1 = _best(stage1)

    points = list(stage1)
    candidates = [winner1]
    lam2_top = lambda2_sym_max(S, idx)
    if class_spec.any_gridded and lam2_top > 0:
        lam2_grid = _log_grid(lam2_top, m)
        stage2 = [
            _evaluate(2, winner1.lambda1, lam2, S, n, gamma, class_spec, cfg)
            for lam2 in lam2_grid
        ]
        points.extend(stage2)
        candidates.extend(stage2)
    winner = _best(candidates)
    assert winner.fit is not None
    return winner.fit, points


def model_select(
    S: np.ndarray,
    n: int,
    m: int,
    gamma: float,
    class_spec: SubmodelClass,
    cfg: Optional[AdmmConfig] = None,
) -> FitResult:
    """Two-stage eBIC model selection; see :func:`selection_path`."""
    winner, _ = selection_path(S, n, m, gamma, class_spec, cfg)
    return winner
