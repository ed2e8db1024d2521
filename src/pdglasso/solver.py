"""ADMM solver for the paired-data fused graphical lasso.

The loop splits the penalized log-likelihood over (Theta, Z, U): an analytic
log-det proximal step for Theta, a fused/l1 proximal step for Z in
half-vectorized coordinates, and a scaled dual update.  Every coordinate
belongs to at most one fused difference row, so the Z step has a closed form:
each fused pair keeps its mean and soft-thresholds its gap, then the l1
soft-threshold follows.  The difference operator is never materialized as a
dense matrix.

Infinite weights are exact: an infinite row weight ties its pair and an
infinite l1 weight zeroes its coordinate in every iterate.  Constrained
maximum likelihood estimates do not use this route: the model module refits
them by a Newton method over the graph's free parameters, and the tests keep
the infinite-weight ADMM as its reference.  Solves are single-threaded and
deterministic.

Two choices are constants, not settings.  The step size starts at
``_RHO_INIT`` and residual balancing (Boyd et al. 2011, section 3.4.1)
always adapts it, doubling or halving within [``_RHO_MIN``, ``_RHO_MAX``]
when one residual exceeds ten times the other, so its start matters little.
The optimality certificate must fall to ``_KKT_TOL_FACTOR * eps_abs``, tied
to the residual tolerance a caller already sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError
from .paired import (
    PairedIndex,
    is_positive_definite,
    logdet_pd,
    pd_unvec,
    pd_vec,
)
from .penalties import PenaltySpec, is_inf

_RHO_INIT = 1.0
_RHO_MIN = 1e-6
_RHO_MAX = 1e6
_KKT_TOL_FACTOR = 10.0


@dataclass(frozen=True)
class AdmmConfig:
    """Tolerances and iteration limit of the ADMM, and of the MLE refit.

    When ``kkt_refine`` is set, the loop keeps iterating (within
    ``max_outer``) after the residual criteria are met until the
    coordinate-wise optimality residual drops below
    ``_KKT_TOL_FACTOR * eps_abs``; the step size is adapted, not set (see
    the module docstring).  ``eps_abs`` and ``max_outer`` also bound
    :func:`pdglasso.model.mle`: its likelihood-equation residual must fall
    to ``_KKT_TOL_FACTOR * eps_abs * max(1, max|S|)`` within ``max_outer``
    Newton steps.
    """

    eps_abs: float = 1e-8
    eps_rel: float = 1e-8
    max_outer: int = 5000
    kkt_refine: bool = True

    def __post_init__(self):
        for name in ("eps_abs", "eps_rel"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.eps_abs > 1e-2 or self.eps_rel > 1e-2:
            raise ValueError("stopping tolerances must be <= 1e-2")
        if self.max_outer < 1:
            raise ValueError("iteration limit must be >= 1")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve.

    ``converged`` means the primal and dual residuals met their tolerances
    on the last iteration.  ``stop_reason`` says why the loop ended:
    ``"kkt"`` (the optimality certificate met its tolerance),
    ``"residuals"`` (the residuals were met and no certificate was asked
    for, or none exists because the iterate is singular) or ``"max_outer"``
    (the iteration budget ran out, whatever the residuals).
    """

    outer_iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool
    objective_value: float
    kkt_residual: Optional[float] = None
    z_not_pd: bool = False
    stop_reason: str = "max_outer"

    @property
    def kkt_ok(self) -> bool:
        """The optimality certificate met its tolerance."""
        return self.stop_reason == "kkt"


def soft_threshold(x, t):
    """Shrink toward zero: 0 where |x| <= t, otherwise x - sign(x) t.

    Accepts scalars or arrays for both arguments; thresholds must be >= 0.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("threshold must be >= 0")
    x_arr = np.asarray(x, dtype=float)
    out = np.sign(x_arr) * np.maximum(np.abs(x_arr) - t_arr, 0.0)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class FusedDiffOperator:
    """Pairwise difference operator over half-vectorized coordinates.

    Row r computes v[first[r]] - v[second[r]] over the rows of
    :attr:`PairedIndex.fused_pairs`; ``weights`` holds one fused penalty
    weight per row.
    """

    q: int
    first: np.ndarray
    second: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for arr in (self.first, self.second, self.weights):
            arr.setflags(write=False)
        if not (len(self.first) == len(self.second) == len(self.weights)):
            raise DimensionError("operator index/weight arrays must have equal length")

    @property
    def n_rows(self) -> int:
        return len(self.first)

    @classmethod
    def from_row_weights(cls, idx: PairedIndex, weights: np.ndarray) -> "FusedDiffOperator":
        first, second = idx.fused_pairs
        weights = np.asarray(weights, dtype=float).copy()
        if weights.shape != first.shape:
            raise DimensionError(
                f"expected {len(first)} row weights for q={idx.q}, got {weights.shape}"
            )
        return cls(idx.q, first, second, weights)

    @classmethod
    def from_components(
        cls, idx: PairedIndex, w_vertex: float, w_inside: float, w_across: float
    ) -> "FusedDiffOperator":
        return cls.from_row_weights(idx, idx.component_rows(w_vertex, w_inside, w_across))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Row-wise differences; never builds the dense matrix."""
        v = np.asarray(v, dtype=float)
        return v[self.first] - v[self.second]


def theta_step(S: np.ndarray, Z: np.ndarray, U: np.ndarray, rho1: float) -> np.ndarray:
    """Analytic log-det proximal step.

    Returns the unique positive definite minimizer of
    -log det(Theta) + tr(S Theta) + (rho1/2) ||Theta - Z + U||_F^2,
    obtained from the eigendecomposition of rho1 (Z - U) - S by mapping each
    eigenvalue d to (d + sqrt(d^2 + 4 rho1)) / (2 rho1).
    """
    if rho1 <= 0:
        raise ValueError("rho1 must be > 0")
    A = rho1 * (Z - U) - S
    if not np.all(np.isfinite(A)):
        raise NotPositiveDefiniteError("non-finite input to the log-det proximal step")
    d, Q = np.linalg.eigh(A)
    x = (d + np.sqrt(d * d + 4.0 * rho1)) / (2.0 * rho1)
    return (Q * x) @ Q.T


def fused_l1_prox(
    b: np.ndarray, op: FusedDiffOperator, l1_coord, rho: float
) -> np.ndarray:
    """Closed-form minimizer of
    (rho/2) ||z - b||^2 + sum_r w_r |z[first_r] - z[second_r]| + sum_i l1_i |z_i|.

    Every coordinate lies in at most one row, so the problem splits into
    independent pairs.  Each positively weighted row keeps its pair's mean and
    soft-thresholds the gap at 2 w_r / rho; an infinite w_r gives an exact
    tie.  The l1 soft-threshold at l1_i / rho follows (fuse-then-shrink is
    exact because the l1 weights of an active pair must be equal), and an
    infinite l1 weight gives an exact zero.  Rows with zero weight leave
    their coordinates untouched.
    """
    z = np.array(b, dtype=float)
    active = op.weights > 0
    a, c = op.first[active], op.second[active]
    mean = 0.5 * (z[a] + z[c])
    half_gap = 0.5 * soft_threshold(z[a] - z[c], 2.0 * op.weights[active] / rho)
    z[a] = mean + half_gap
    z[c] = mean - half_gap
    return soft_threshold(z, np.asarray(l1_coord, dtype=float) / rho)


def _penalty_weights(
    spec: PenaltySpec, idx: PairedIndex, diag_penalty: bool = True
) -> tuple[np.ndarray, FusedDiffOperator]:
    """Per-coordinate l1 weights and the fused operator of ``spec``.

    ``INF`` components become ``math.inf`` row weights; with ``diag_penalty``
    unset the l1 weight is dropped on the diagonal entries.
    """
    l1_coord = np.full(idx.vec_length, float(spec.lambda1))
    if not diag_penalty:
        l1_coord[idx.diagonal] = 0.0
    weights = [math.inf if is_inf(c) else float(c) for c in spec.components]
    return l1_coord, FusedDiffOperator.from_components(idx, *weights)


def z_step(A: np.ndarray, spec: PenaltySpec, rho1: float) -> np.ndarray:
    """Fused/l1 proximal step in half-vectorized coordinates.

    Minimizes (rho1/2) ||Z - A||_F^2 plus the penalty of ``spec`` through
    :func:`fused_l1_prox`; ``INF`` components give exact ties.
    """
    idx = PairedIndex.from_p(A.shape[0])
    l1_coord, op = _penalty_weights(spec, idx)
    return pd_unvec(fused_l1_prox(pd_vec(A, idx), op, l1_coord, rho1), idx)


def _weighted_abs_sum(weights: np.ndarray, values: np.ndarray) -> float:
    """sum_i weights_i |values_i|; an exact zero adds 0 even under an infinite
    weight (never inf * 0), a nonzero value under one makes the sum +inf."""
    nz = values != 0
    return float(np.sum(weights[nz] * np.abs(values[nz])))


def _weighted_objective(
    Z: np.ndarray, S: np.ndarray, idx: PairedIndex, l1_coord: np.ndarray, op: FusedDiffOperator
) -> float:
    """Penalized negative log-likelihood with per-coordinate/per-row weights."""
    try:
        logdet = logdet_pd(Z)
    except NotPositiveDefiniteError:
        return math.inf
    z = pd_vec(Z, idx)
    nll = -(logdet - float(np.sum(S * Z)))
    mult = np.where(idx.diagonal, 1.0, 2.0)  # matrix entries per coordinate
    l1 = _weighted_abs_sum(mult * l1_coord, z)
    fused = _weighted_abs_sum(mult[op.first] * op.weights, op.apply(z))
    return nll + l1 + fused


def kkt_residual(
    Z: np.ndarray,
    S: np.ndarray,
    idx: PairedIndex,
    l1_coord: np.ndarray,
    op: FusedDiffOperator,
) -> float:
    """Largest coordinate-wise violation of the first-order conditions at Z.

    The smooth gradient is G = S - Z^{-1}; see :func:`kkt_violation` for the
    conditions, with pairs within 1e-7 max(1, max|Z|) of each other counted
    as tied.  Returns +inf when Z is not positive definite (checked by
    Cholesky).
    """
    if not is_positive_definite(Z):
        return math.inf
    z = pd_vec(Z, idx)
    tie_tol = 1e-7 * max(1.0, float(np.abs(z).max()))
    return kkt_violation(z, pd_vec(S - np.linalg.inv(Z), idx), l1_coord, op, tie_tol)


def kkt_violation(
    z: np.ndarray, G: np.ndarray, l1_coord: np.ndarray, op: FusedDiffOperator, tie_tol: float
) -> float:
    """Largest violation of the first-order conditions in half-vectorized
    coordinates, given the iterate z and the smooth gradient G.

    Works in normalized per-coordinate units: zero coordinates must satisfy
    |G| <= l1 weight (plus the fused weight where applicable), nonzero ones
    must cancel the gradient against the active l1/fused signs.  Pairs of a
    finite positive row weight within ``tie_tol`` of each other count as
    tied.  Infinite weights are constraints: an exact zero or an exact tie
    meets them and adds nothing, anything else returns +inf.
    """
    l1_coord = np.asarray(l1_coord, dtype=float)
    active = op.weights > 0
    a, b, w = op.first[active], op.second[active], op.weights[active]
    za, zb = z[a], z[b]
    hard_row = np.isinf(w)
    if np.any(z[np.isinf(l1_coord)] != 0) or np.any(za[hard_row] != zb[hard_row]):
        return math.inf

    # coordinates on their own: those in no active row as they are, the two
    # of an untied pair with the fused term w sign(gap) added to the gradient
    split = np.abs(za - zb) > tie_tol
    ws = np.where(split, w * np.copysign(1.0, za - zb), 0.0)
    shift = np.zeros(len(z))
    shift[a] = ws
    shift[b] = -ws
    alone = np.ones(len(z), dtype=bool)
    alone[a[~split]] = False
    alone[b[~split]] = False
    coord = np.where(
        z != 0,
        np.abs(G + l1_coord * np.copysign(1.0, z) + shift),
        np.maximum(np.abs(G + shift) - l1_coord, 0.0),
    )
    parts = [coord[alone]]

    ta, tb, w = a[~split], b[~split], w[~split]
    za, zb, ga, gb, la, lb = z[ta], z[tb], G[ta], G[tb], l1_coord[ta], l1_coord[tb]
    # tied at a common nonzero value: a multiplier gamma in [-w, w] must
    # cancel both gradients simultaneously
    t = (za != 0) | (zb != 0)
    sv = np.copysign(1.0, za[t] + zb[t])
    gamma = -(ga[t] + la[t] * sv)
    parts.append(np.abs(ga[t] + gb[t] + (la[t] + lb[t]) * sv))
    parts.append(np.maximum(np.abs(gamma) - w[t], 0.0))

    # both zero: the intervals for gamma implied by each coordinate's l1
    # subdifferential must intersect [-w, w]
    o = ~t
    lo = np.maximum(np.maximum(-w[o], -ga[o] - la[o]), gb[o] - lb[o])
    hi = np.minimum(np.minimum(w[o], -ga[o] + la[o]), gb[o] + lb[o])
    parts.append(np.maximum(lo - hi, 0.0))
    return max([0.0] + [float(part.max()) for part in parts if part.size])


def solve_weighted(
    S: np.ndarray,
    idx: PairedIndex,
    l1_coord: np.ndarray,
    op: FusedDiffOperator,
    cfg: AdmmConfig,
) -> tuple[np.ndarray, SolveReport]:
    """Run the ADMM with explicit per-coordinate l1 and per-row fused weights.

    Infinite weights are exact constraints: an infinite l1 weight holds its
    coordinate at zero and an infinite row weight ties its pair.  Within any
    positively weighted row the two l1 weights must be equal, otherwise the
    fuse-then-shrink proximal step is invalid.

    Returns the sparse/fused iterate Z (or the positive definite iterate
    Theta when Z is not positive definite, flagged in the report).
    """
    S = np.asarray(S, dtype=float)
    if not np.all(np.isfinite(S)):
        raise ValueError("S contains non-finite entries")
    l1_coord = np.asarray(l1_coord, dtype=float)
    if l1_coord.shape != (idx.vec_length,):
        raise DimensionError("l1 weight vector has wrong length")
    active = op.weights > 0
    if np.any(l1_coord[op.first[active]] != l1_coord[op.second[active]]):
        raise ValueError("l1 weights must match within each active fused pair")

    p = idx.p
    rho1 = _RHO_INIT
    Z = np.zeros((p, p))
    U = np.zeros((p, p))
    primal = math.inf
    dual = math.inf
    residuals_ok = False
    kkt = None
    stop_reason = "max_outer"
    iterations = 0

    for l in range(cfg.max_outer):
        iterations = l + 1
        Theta = theta_step(S, Z, U, rho1)
        Z_new = pd_unvec(fused_l1_prox(pd_vec(Theta + U, idx), op, l1_coord, rho1), idx)
        U = U + Theta - Z_new

        primal = float(np.linalg.norm(Theta - Z_new))
        dual = rho1 * float(np.linalg.norm(Z_new - Z))
        eps_pri = p * cfg.eps_abs + cfg.eps_rel * max(
            float(np.linalg.norm(Theta)), float(np.linalg.norm(Z_new))
        )
        eps_dual = p * cfg.eps_abs + cfg.eps_rel * rho1 * float(np.linalg.norm(U))
        Z = Z_new
        residuals_ok = primal <= eps_pri and dual <= eps_dual
        if residuals_ok:
            if not cfg.kkt_refine:
                stop_reason = "residuals"
                break
            kkt = kkt_residual(Z, S, idx, l1_coord, op)
            if kkt <= _KKT_TOL_FACTOR * cfg.eps_abs:
                stop_reason = "kkt"
                break
            if not math.isfinite(kkt):
                # no certificate exists for a singular iterate
                stop_reason = "residuals"
                break
        # residual balancing
        if primal > 10.0 * dual and rho1 * 2.0 <= _RHO_MAX:
            rho1 *= 2.0
            U = U / 2.0
        elif dual > 10.0 * primal and rho1 / 2.0 >= _RHO_MIN:
            rho1 /= 2.0
            U = U * 2.0

    z_not_pd = False
    result = Z
    if not is_positive_definite(Z):
        z_not_pd = True
        result = theta_step(S, Z, U, rho1)

    report = SolveReport(
        outer_iterations=iterations,
        primal_residual=primal,
        dual_residual=dual,
        converged=bool(residuals_ok),
        objective_value=_weighted_objective(result, S, idx, l1_coord, op),
        kkt_residual=None if kkt is None else float(kkt),
        z_not_pd=bool(z_not_pd),
        stop_reason=stop_reason,
    )
    return result, report


def pdglasso_solve(
    S: np.ndarray,
    spec: PenaltySpec,
    cfg: Optional[AdmmConfig] = None,
    diag_penalty: bool = True,
) -> tuple[np.ndarray, SolveReport]:
    """Minimize the paired-data fused graphical lasso objective.

    Returns the final Z iterate, which carries exact zeros from the l1
    shrinkage and exact ties from the fused step, together with a solve
    report.  Infinite penalty components are passed to the solver as
    ``math.inf`` and act as hard equality constraints.  With
    ``diag_penalty`` unset the l1 weight is dropped on the diagonal entries.
    """
    cfg = cfg or AdmmConfig()
    S = np.asarray(S, dtype=float)
    idx = PairedIndex.from_p(S.shape[0])
    if not np.all(np.isfinite(S)):
        raise ValueError("S contains non-finite entries")

    unpenalized = spec.lambda1 == 0 and all(
        (not is_inf(c)) and c == 0 for c in spec.components
    )
    if unpenalized and not is_positive_definite(S):
        raise NotPositiveDefiniteError(
            "with all penalties zero the problem is unbounded unless S is positive definite"
        )

    l1_coord, op = _penalty_weights(spec, idx, diag_penalty)
    return solve_weighted(S, idx, l1_coord, op, cfg)


def optimality_residual(
    theta: np.ndarray, S: np.ndarray, spec: PenaltySpec, diag_penalty: bool = True
) -> float:
    """Coordinate-wise first-order residual of the objective at ``theta``.

    ``INF`` components are constraints (see :func:`kkt_violation`): +inf
    when ``theta`` breaks one.
    """
    idx = PairedIndex.from_p(theta.shape[0])
    l1_coord, op = _penalty_weights(spec, idx, diag_penalty)
    return kkt_residual(theta, S, idx, l1_coord, op)
