"""Coloured-graph models: extraction, parameter counts, constrained MLE,
information criteria and the two-stage penalty-path model selection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .chisq import chi2_quantile
from .errors import DimensionError, MleError, NotPositiveDefiniteError, PdglassoError
from .paired import (
    PairedIndex,
    _check_square,
    log_likelihood,
    logdet_pd,
    pd_unvec,
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
        return PairedIndex(self.q)

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
        idx = PairedIndex(q)
        return cls.from_masks(q, np.zeros(idx.vec_length, dtype=bool),
                              np.zeros(idx.n_rows, dtype=bool))

    @classmethod
    def complete(cls, q: int, coloured: bool = False) -> "PdColouredGraph":
        idx = PairedIndex(q)
        return cls.from_masks(q, np.ones(idx.vec_length, dtype=bool),
                              np.full(idx.n_rows, coloured))

    @classmethod
    def from_masks(cls, q: int, present: np.ndarray, coloured: np.ndarray) -> "PdColouredGraph":
        """The graph with the given present coordinates and coloured fused
        rows; the inverse of ``~absent_coord_mask()`` and
        ``coloured_row_mask()``.  Diagonal coordinates are always present and
        their entries of ``present`` are ignored."""
        idx = PairedIndex(q)
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
    if zero_tol <= 0 or eq_tol <= 0:
        raise ValueError("tolerances must be > 0")

    z = pd_vec(theta, idx)
    a, b = idx.fused_pairs
    present = (np.abs(z) > zero_tol) | idx.diagonal
    coloured = present[a] & present[b] & (np.abs(z[a] - z[b]) <= eq_tol)
    return PdColouredGraph.from_masks(idx.q, present, coloured)


def n_params(g: PdColouredGraph) -> int:
    """Free parameters: saturated count minus zero and equality constraints."""
    return int((~g.absent_coord_mask()).sum() - g.coloured_row_mask().sum())


def _colour_classes(idx: PairedIndex, absent: np.ndarray, coloured: np.ndarray):
    """The free parameters behind the masks of a coloured graph.

    Returns ``owner``, the first coordinate of each coordinate's class (the
    coordinate itself unless a coloured row ties it to an earlier one), and
    ``cls``, the class number of each coordinate not in ``absent``, with the
    classes numbered in the order of their owners.
    """
    first, second = idx.fused_pairs
    owner = np.arange(idx.vec_length)
    owner[second[coloured]] = first[coloured]
    return owner, np.unique(owner[~absent], return_inverse=True)[1]


# Newton-CG refit: Armijo constant, step halvings before the line search
# gives up, and the largest CG forcing term (see _pcg)
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_MAX_FORCING = 0.1
# squared Newton decrement at or below which a full step meets the Armijo
# condition in exact arithmetic (Boyd & Vandenberghe 2004, section 9.6.4)
_LOCAL_DECREMENT = ((1.0 - 2.0 * _ARMIJO) / 4.0) ** 2


def _rcon_newton(
    S: np.ndarray, idx: PairedIndex, absent: np.ndarray, coloured: np.ndarray,
    cfg: AdmmConfig,
) -> np.ndarray:
    """Minimize -log det(Theta) + tr(S Theta) with the half-vectorized
    coordinates in ``absent`` held at zero and the pairs of the fused rows in
    ``coloured`` tied; see :func:`mle`.

    Raises :class:`MleError` when no certified estimate is found, and
    ValueError when S has non-finite entries.
    """
    S = np.asarray(S, dtype=float)
    if not np.all(np.isfinite(S)):
        raise ValueError("S contains non-finite entries")
    # one free parameter per class: a tied pair or a lone present coordinate
    _, cls = _colour_classes(idx, absent, coloured)
    free = ~absent
    d = int(cls.max()) + 1
    size = np.bincount(cls, minlength=d).astype(float)
    diag = np.bincount(cls, weights=idx.diagonal[free], minlength=d) > 0
    weight = np.where(diag, 1.0, 2.0)  # matrix entries per coordinate

    def expand(v):
        z = np.zeros(idx.vec_length)
        z[free] = v[cls]
        return pd_unvec(z, idx)

    def classsum(M):
        return np.bincount(cls, weights=pd_vec(M, idx)[free], minlength=d)

    def objective(Theta):
        try:
            return -logdet_pd(Theta) + float(np.sum(S * Theta))
        except NotPositiveDefiniteError:
            return math.inf

    S_sum = classsum(S)
    if np.any(S_sum[diag] <= 0):
        raise MleError("a variable has zero sample variance; the MLE does not exist")
    # start from the MLE of the graph without edges
    theta = np.zeros(d)
    theta[diag] = size[diag] / S_sum[diag]
    Theta = expand(theta)
    f = objective(Theta)
    tol = _KKT_TOL_FACTOR * cfg.eps_abs * max(1.0, float(np.abs(S).max()))
    last_local = math.inf

    for steps in range(cfg.max_outer + 1):
        Sigma = np.linalg.inv(Theta)
        resid = classsum(Sigma) - S_sum
        # Sigma with the residual spread over each class has the class sums of
        # S; when it is positive definite the MLE exists, so the equations are
        # not merely approached by an estimate diverging to infinity
        if float(np.abs(resid).max()) <= tol and np.linalg.eigvalsh(Sigma)[0] > float(
            np.linalg.norm(expand(resid / size))
        ):
            return Theta
        if steps == cfg.max_outer:
            break
        # Newton system H step = w * resid with H v = classsum(w Sigma V Sigma);
        # preconditioner: the inverse Hessian of the model without zeros or
        # ties, pulled back to the parameters through the class means
        rhs = weight * resid
        step = _pcg(
            lambda v: weight * classsum(Sigma @ expand(v) @ Sigma),
            lambda r: classsum(Theta @ expand(r / (weight * size)) @ Theta) / size,
            rhs,
            d,
        )
        decrement = float(rhs @ step)
        if not decrement > 0:
            raise MleError("Newton direction is not a descent direction")
        local = decrement <= _LOCAL_DECREMENT
        if local and decrement >= last_local:
            # near the optimum the decrement falls quadratically in exact arithmetic
            raise MleError("Newton steps stalled at float precision before the "
                           "certificate was met; the tolerance is too tight")
        last_local = decrement if local else math.inf
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = expand(theta + t * step)
            f_cand = objective(cand)
            # a local full step meets Armijo in exact arithmetic, where the
            # computed test would only compare rounding errors of f; the strict
            # test also rejects a step too small to change f
            if (local and math.isfinite(f_cand)) or f_cand < f - _ARMIJO * t * decrement:
                break
            t *= 0.5
        else:
            raise MleError("constrained MLE line search failed; it may not exist")
        theta, Theta, f = theta + t * step, cand, f_cand
    raise MleError(
        f"constrained MLE did not meet its certificate in {cfg.max_outer} Newton steps"
    )


def _pcg(hvp, precond, b: np.ndarray, max_iter: int) -> np.ndarray:
    """Preconditioned conjugate gradients for H x = b, H positive definite.

    Stops once the preconditioned residual norm falls below
    min(_MAX_FORCING, sqrt(lambda)) times its start, where lambda^2 = b' P b
    approximates the squared Newton decrement; the outer Newton loop then
    converges superlinearly.  Raises :class:`MleError` when the curvature
    along a direction is not positive or the iterations exceed ``max_iter``.
    """
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    rz = float(r @ z)
    stop = min(_MAX_FORCING**2, math.sqrt(rz)) * rz
    direction = z
    for _ in range(max_iter):
        Hd = hvp(direction)
        curvature = float(direction @ Hd)
        if not curvature > 0:
            raise MleError("Newton system is not positive definite")
        alpha = rz / curvature
        x += alpha * direction
        r -= alpha * Hd
        z = precond(r)
        rz_new = float(r @ z)
        if rz_new <= stop:
            return x
        direction = z + (rz_new / rz) * direction
        rz = rz_new
    # in exact arithmetic CG ends within as many steps as there are unknowns
    raise MleError("Newton system is numerically singular; the MLE may not exist")


def mle(S: np.ndarray, g: PdColouredGraph, cfg: Optional[AdmmConfig] = None) -> np.ndarray:
    """Constrained maximum likelihood estimate of the concentration matrix.

    The estimate minimizes -log det(Theta) + tr(S Theta) over the graph's d
    free parameters: one per present uncoloured entry and one per colour
    class, so zeros and ties are exact by construction.  A damped Newton
    method starts from the MLE of the graph without edges.  Each Newton
    system is solved by conjugate gradients on Hessian-vector products
    v -> classsum(w * Sigma V Sigma), where w counts each coordinate's
    matrix entries, preconditioned by v -> classsum(Theta V Theta), the
    exact inverse Hessian of the model without zeros or ties; memory stays
    O(p^2) for any d.  A step is taken only if the Cholesky-checked
    objective decreases enough (Armijo backtracking); once the Newton
    decrement is small enough that a full step meets the Armijo condition in
    exact arithmetic, the full step is taken if it is positive definite.

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
    return _rcon_newton(S, idx, g.absent_coord_mask(), g.coloured_row_mask(), cfg)


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
    return symmetrize_paired(
        _rcon_newton(S_bar, idx, g.absent_coord_mask(), no_ties, cfg), idx
    )


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
    active = [is_inf(c) or c > 0 for c in spec.components]
    return PdColouredGraph.from_masks(
        graph.q,
        ~graph.absent_coord_mask(),
        graph.coloured_row_mask() & graph.index.component_rows(*active),
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
) -> FitResult:
    """Solve at one penalty value, extract the model and refit its MLE."""
    return refit_point(solve_point(S, spec, cfg), S, n, gamma, cfg)


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
