"""ADMM solver for the paired-data fused graphical lasso.

The loop splits the penalized log-likelihood over (Theta, Z, U): an analytic
log-det proximal step for Theta, a fused/l1 proximal step for Z in
half-vectorized coordinates, and a scaled dual update.  The fused penalty
is sum_r w_r |z[a_r] - z[b_r]| over the rows (a_r, b_r) of
:attr:`PairedIndex.fused_pairs`, passed as one row-weight vector ``row_w``;
the difference operator is never built.  Every coordinate belongs to at most
one row, so the Z step has a closed form: each fused pair keeps its mean and
soft-thresholds its gap, then the l1 soft-threshold follows.

Infinite weights are exact: an infinite row weight ties its pair and an
infinite l1 weight zeroes its coordinate in every iterate.  Constrained
maximum likelihood estimates do not use this route: the model module refits
them by the Newton method of :mod:`pdglasso.face`, and the tests keep the
infinite-weight ADMM as its reference.  Solves are single-threaded and
deterministic; through the CLI the BLAS under them is single-threaded too
(see :mod:`pdglasso`).

The ADMM finds the face of the solution (its zeros, its tied fused rows and
the signs of everything else) long before its linear-rate tail meets the
tolerances.  The proximal step gives exact zeros and ties, so the face is
read off Z without a tolerance.  Once it has held for ``_POLISH_AFTER``
iterations, the loop polishes: on that face the penalized objective is the
smooth likelihood of the face solver with S shifted by the penalty's
gradient there, so Newton's method solves it exactly (the second-order step
on a fixed free set of QUIC, Hsieh et al. 2014, and of proximal Newton
methods, Lee, Sun & Saunders 2014).  A Newton point with an untied gap
or a nonzero coordinate past zero, or nearer to it than the certificate
can tell, lies on the boundary of its face: the gap is tied or the
coordinate zeroed and the smaller face solved once more, the projection
step of active-set methods.  The polished point is kept only if the
optimality certificate, with exact ties, meets its tolerance; strict
convexity then makes it the optimum.  A rejected polish is still the exact
optimum on the face it tried.  When its certificate is strictly below that
of every polish rejected before it in the solve, the ADMM restarts there,
at most ``_MAX_RESTARTS`` times per solve: Z becomes the polished point and
U the dual that makes the next Theta step return it, so the next Z step is
a proximal-gradient step from the Newton point that moves the face toward
the coordinates it violates.  This alternation of a Newton solve on a face
with a step that updates the face is the orthant-based Newton method of
Oztoprak, Nocedal, Rennie & Olsen (2012, NIPS) and the free-set update of
QUIC (Hsieh et al. 2014, JMLR 15:2911).  Restarts need a strict gain and
are capped, because restarting on every rejection can cycle between
neighbouring faces.  After any other rejection the ADMM continues from
where it was.  The ADMM converges from any start, so a restart changes
where the loop goes on from, not what ends it: the certificate still does.

Every solve starts at a positive definite Theta_0 by the restart rule:
Z = Theta_0 and U = (Theta_0^{-1} - S) / rho1, so the first Theta step
returns Theta_0, and the first rho1 is the curvature of -log det there (see
:func:`_rho_start`).  Without a given start, Theta_0 is the minimizer over
diagonal matrices (see :func:`_diagonal_start`), which is the solution
itself once lambda1 reaches the diagonal threshold of the paper; a problem
without that minimizer is unbounded below and raises before any step.
The selection path sweeps each stage from its sparsest penalty down and
starts each grid point from the estimate of the point solved before it,
and stage 2 from the stage-1 winner's: the pathwise warm starts of glasso
and glmnet (Friedman, Hastie & Tibshirani 2008, Biostatistics 9:432; 2010,
J. Stat. Softw. 33(1)).  A start changes where the loop begins, not what
ends it, so a warm solve meets the same certificate, usually sooner.

One rule ends a solve: the certificate.  At each iteration whose ADMM
residuals (Boyd et al. 2011, section 3.3) meet ``eps_abs`` and
``eps_rel``, the certificate of the iterate is computed, and the solve
ends when it, or that of a polish, meets its tolerance.  A singular
iterate has no certificate, and the loop goes on from it.  A solve that
does not certify within ``max_outer`` iterations ends there, and when its
last Z is singular it returns the positive definite Theta step instead.
The residual test only gates the certificate, an inverse and a Cholesky
factorization that every ADMM step would otherwise pay.

Two choices are constants, not settings.  The step size rho1 is the
curvature of the smooth term at the start, the scale of the optimal ADMM
step for quadratic problems (Ghadimi, Teixeira, Shames & Johansson 2015,
IEEE TAC 60:644), and it stays there for the whole solve, restarts
included.  Residual balancing (Boyd et al. 2011, section 3.4.1) is not
used: from the diagonal start, over 1,512 solves with S scaled by 1e-3 to
1e3, it took 18,639 iterations in all against 10,493 without it, and its
slowest solve 499 against 19.  A given start far from the scale of the
solution keeps a step size to match, and its solve can be slow.  The
optimality certificate must fall to ``_KKT_TOL_FACTOR * eps_abs``, tied to
the residual tolerance a caller already sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, MleError, NotPositiveDefiniteError
from .face import _rcon_newton
from .paired import (
    PairedIndex,
    is_positive_definite,
    logdet_pd,
    pd_unvec,
    pd_vec,
)
from .penalties import PenaltySpec, is_inf

_RHO_MIN = 2.0**-19
_RHO_MAX = 2.0**19
_KKT_TOL_FACTOR = 10.0
_POLISH_AFTER = 3  # iterations a face must hold before it is polished
_MAX_RESTARTS = 5  # restarts of the ADMM from a rejected polish, per solve


@dataclass(frozen=True)
class AdmmConfig:
    """Tolerances and iteration limit of the ADMM, and of the MLE refit.

    A solve ends only when the coordinate-wise optimality certificate falls
    to ``_KKT_TOL_FACTOR * eps_abs``, at an ADMM iterate or at a Newton
    polish of its face, or when ``max_outer`` iterations are spent; the step
    size is the problem's curvature at the start, not a setting (see the
    module docstring).  ``eps_abs`` and ``eps_rel`` bound the ADMM
    residuals, whose test decides when the certificate of an iterate is
    computed.  The polish runs within ``max_outer`` Newton steps.
    ``eps_abs`` and ``max_outer`` also bound :func:`pdglasso.model.mle`: its
    likelihood-equation residual must fall to
    ``_KKT_TOL_FACTOR * eps_abs * max(1, max|S|)`` within ``max_outer``
    Newton steps.
    """

    eps_abs: float = 1e-8
    eps_rel: float = 1e-8
    max_outer: int = 5000

    def __post_init__(self):
        for name in ("eps_abs", "eps_rel"):
            if not 0 < getattr(self, name) <= 1e-2:  # NaN fails too
                raise ValueError(f"{name} must be in (0, 1e-2], got {getattr(self, name)}")
        if self.max_outer < 1:
            raise ValueError("iteration limit must be >= 1")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve.

    ``stop_reason`` says why the loop ended: ``"kkt"`` (the optimality
    certificate met its tolerance, at an ADMM iterate or at a polished
    one) or ``"max_outer"`` (the iteration budget ran out, whatever the
    residuals).  ``primal_residual`` and ``dual_residual`` belong to the
    last ADMM iterate, which a polished solve replaces before they meet
    their tolerances.  ``kkt_residual`` is the certificate of the returned
    estimate at a ``"kkt"`` stop; at a ``"max_outer"`` stop it is the last
    certificate the loop computed, None when it computed none (a singular
    iterate has none).  ``polish_attempts`` counts the Newton polishes
    tried; at most the last one was accepted.  ``restarts`` counts the
    rejected polishes the ADMM restarted from, each with a certificate
    strictly below the earlier ones', at most ``_MAX_RESTARTS``.
    """

    outer_iterations: int
    primal_residual: float
    dual_residual: float
    objective_value: float
    kkt_residual: Optional[float] = None
    z_not_pd: bool = False
    stop_reason: str = "max_outer"
    polish_attempts: int = 0
    restarts: int = 0

    @property
    def converged(self) -> bool:
        """The optimality certificate met its tolerance within the budget."""
        return self.stop_reason == "kkt"

    @property
    def kkt_ok(self) -> bool:
        """The same as :attr:`converged`."""
        return self.converged


def soft_threshold(x, t):
    """Shrink toward zero: 0 where |x| <= t, otherwise x - sign(x) t.

    Accepts scalars or arrays for both arguments; thresholds must be >= 0.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("threshold must be >= 0")
    x_arr = np.asarray(x, dtype=float)
    out = _shrink(x_arr, t_arr)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


def _shrink(x: np.ndarray, t) -> np.ndarray:
    """:func:`soft_threshold` of an array, with thresholds known to be >= 0."""
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


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


def _active_rows(idx: PairedIndex, row_w: np.ndarray) -> tuple[np.ndarray, ...]:
    """Coordinates (a, b) and weights of the positively weighted fused rows."""
    active = row_w > 0
    first, second = idx.fused_pairs
    return first[active], second[active], row_w[active]


def fused_l1_prox(
    b: np.ndarray, idx: PairedIndex, l1_coord, row_w: np.ndarray, rho: float
) -> np.ndarray:
    """Closed-form minimizer of
    (rho/2) ||z - b||^2 + sum_r w_r |z[first_r] - z[second_r]| + sum_i l1_i |z_i|,
    the rows r being :attr:`PairedIndex.fused_pairs` and ``row_w`` their
    weights.

    Every coordinate lies in at most one row, so the problem splits into
    independent pairs.  Each positively weighted row keeps its pair's mean and
    soft-thresholds the gap at 2 w_r / rho; an infinite w_r gives an exact
    tie.  The l1 soft-threshold at l1_i / rho follows (fuse-then-shrink is
    exact because the l1 weights of an active pair must be equal), and an
    infinite l1 weight gives an exact zero.  Rows with zero weight leave
    their coordinates untouched.
    """
    a, c, w = _active_rows(idx, row_w)
    gap_t = 2.0 * w / rho
    l1_t = np.asarray(l1_coord, dtype=float) / rho
    if np.any(gap_t < 0) or np.any(l1_t < 0):
        raise ValueError("threshold must be >= 0")
    return _prox(np.array(b, dtype=float), a, c, gap_t, l1_t)


def _prox(z: np.ndarray, a: np.ndarray, c: np.ndarray, gap_t: np.ndarray,
          l1_t: np.ndarray) -> np.ndarray:
    """:func:`fused_l1_prox` of z, which it overwrites, given the active rows
    (a, c), their gap thresholds 2 w / rho and the l1 thresholds l1 / rho,
    all known to be >= 0."""
    za, zc = z[a], z[c]
    mean = 0.5 * (za + zc)
    half_gap = 0.5 * _shrink(za - zc, gap_t)
    z[a] = mean + half_gap
    z[c] = mean - half_gap
    return _shrink(z, l1_t)


def _penalty_weights(
    spec: PenaltySpec, idx: PairedIndex, diag_penalty: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate l1 weights and per-row fused weights of ``spec``.

    ``INF`` components become ``math.inf`` row weights; with ``diag_penalty``
    unset the l1 weight is dropped on the diagonal entries.
    """
    l1_coord = np.full(idx.vec_length, float(spec.lambda1))
    if not diag_penalty:
        l1_coord[idx.diagonal] = 0.0
    weights = [math.inf if is_inf(c) else float(c) for c in spec.components]
    return l1_coord, idx.component_rows(*weights)


def z_step(A: np.ndarray, spec: PenaltySpec, rho1: float) -> np.ndarray:
    """Fused/l1 proximal step in half-vectorized coordinates.

    Minimizes (rho1/2) ||Z - A||_F^2 plus the penalty of ``spec`` through
    :func:`fused_l1_prox`; ``INF`` components give exact ties.
    """
    idx = PairedIndex.from_p(A.shape[0])
    l1_coord, row_w = _penalty_weights(spec, idx)
    return pd_unvec(fused_l1_prox(pd_vec(A, idx), idx, l1_coord, row_w, rho1), idx)


def _weighted_abs_sum(weights: np.ndarray, values: np.ndarray) -> float:
    """sum_i weights_i |values_i|; an exact zero adds 0 even under an infinite
    weight (never inf * 0), a nonzero value under one makes the sum +inf."""
    nz = values != 0
    return float(np.sum(weights[nz] * np.abs(values[nz])))


def _weighted_objective(
    Z: np.ndarray, S: np.ndarray, idx: PairedIndex, l1_coord: np.ndarray, row_w: np.ndarray
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
    first, second = idx.fused_pairs
    fused = _weighted_abs_sum(mult[first] * row_w, z[first] - z[second])
    return nll + l1 + fused


def kkt_residual(
    Z: np.ndarray, S: np.ndarray, idx: PairedIndex, l1_coord: np.ndarray, row_w: np.ndarray
) -> float:
    """Optimality certificate of a solver iterate Z: the largest
    coordinate-wise violation of the first-order conditions.

    The smooth gradient is G = S - Z^{-1}; see :func:`kkt_violation` for the
    conditions.  Ties are read exactly, as the proximal step and the face
    polish make them.  Returns +inf when Z is not positive definite (checked
    by Cholesky).
    """
    if not is_positive_definite(Z):
        return math.inf
    return _certificate(Z, np.linalg.inv(Z), S, idx, l1_coord, row_w)


def _certificate(
    Z: np.ndarray, Sigma: np.ndarray, S: np.ndarray, idx: PairedIndex,
    l1_coord: np.ndarray, row_w: np.ndarray,
) -> float:
    """:func:`kkt_residual` of a positive definite Z, given Sigma = Z^{-1}."""
    return kkt_violation(pd_vec(Z, idx), pd_vec(S - Sigma, idx), idx, l1_coord, row_w, 0.0)


def kkt_violation(
    z: np.ndarray, G: np.ndarray, idx: PairedIndex, l1_coord: np.ndarray,
    row_w: np.ndarray, tie_tol: float,
) -> float:
    """Largest violation of the first-order conditions in half-vectorized
    coordinates, given the iterate z and the smooth gradient G, under the
    per-coordinate l1 weights and the per-row weights ``row_w`` of
    :attr:`PairedIndex.fused_pairs`.

    Works in normalized per-coordinate units: zero coordinates must satisfy
    |G| <= l1 weight (plus the fused weight where applicable), nonzero ones
    must cancel the gradient against the active l1/fused signs.  Pairs of a
    finite positive row weight within ``tie_tol`` of each other count as
    tied.  Infinite weights are constraints: an exact zero or an exact tie
    meets them and adds nothing, anything else returns +inf.
    """
    l1_coord = np.asarray(l1_coord, dtype=float)
    a, b, w = _active_rows(idx, row_w)
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


def _face(z: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The face of a proximal output z, exactly: the sign of every
    coordinate and of every active row's gap z[a] - z[b], 0 at a zero or a
    tie."""
    return np.concatenate([np.sign(z), np.sign(z[a] - z[b])])


def _face_newton(
    Z: np.ndarray, S: np.ndarray, idx: PairedIndex, l1_coord: np.ndarray,
    row_w: np.ndarray, cfg: AdmmConfig,
) -> Optional[tuple[np.ndarray, float]]:
    """Solve the penalized problem on the face of the positive definite Z by
    Newton's method, started at Z.

    On the face the penalty is linear, with gradient Delta: l1_i sign(z_i)
    on each nonzero coordinate, plus w_r sign(z_a - z_b) on a and minus it
    on b for each untied active row r.  So the face solver with S + Delta,
    the zeros of z absent and the tied rows coloured, minimizes the
    objective there.  When that optimum has an untied gap or a nonzero
    coordinate past zero, or so near it that the certificate cannot tell
    it from zero (the gradient of -log det moves by at most
    ||Theta^{-1}||_2^2 times it), the optimum over the closed face is on
    that boundary: those gaps are tied, those coordinates absent, and the
    smaller face is solved once, from the first optimum.
    Returns (Theta, certificate), the certificate being
    :func:`kkt_residual` of Theta, whether or not it meets its tolerance,
    computed from the inverse the face solver certified Theta with; None
    when the face solver fails.
    """
    tol = _KKT_TOL_FACTOR * cfg.eps_abs
    z = pd_vec(Z, idx)
    a, b, w = _active_rows(idx, row_w)
    gap = z[a] - z[b]
    untied = gap != 0  # never an infinite row: the proximal step ties those
    nonzero = z != 0  # never an infinite l1 weight: those coordinates are zero
    Theta = Z
    for _ in range(2):
        delta = np.zeros(len(z))
        delta[nonzero] = l1_coord[nonzero] * np.sign(z[nonzero])
        shift = w[untied] * np.sign(gap[untied])
        delta[a[untied]] += shift
        delta[b[untied]] -= shift
        coloured = row_w > 0
        coloured[coloured] = ~untied
        try:
            Theta, Sigma = _rcon_newton(
                S + pd_unvec(delta, idx), idx, ~nonzero, coloured, tol, cfg.max_outer, Theta
            )
        except MleError:
            return None
        # a gap or coordinate within noise of zero moves the gradient by at
        # most tol, and extract_graph's default tolerance reads it as zero
        t = pd_vec(Theta, idx)
        noise = min(tol / float(np.sum(Sigma * Sigma)), 1e-5 * max(1.0, float(np.abs(t).max())))
        tie = untied & ((t[a] - t[b]) * np.sign(gap) <= noise)
        drop = nonzero & (t * np.sign(z) <= noise)
        if not (tie.any() or drop.any()):
            break
        untied &= ~tie
        nonzero &= ~drop
    return Theta, _certificate(Theta, Sigma, S, idx, l1_coord, row_w)


def _rho_start(start: np.ndarray) -> float:
    """The step size of a solve that starts at ``start``.

    The Hessian of -log det at Theta has eigenvalues 1/(x_i x_j) over the
    eigenvalues x of Theta, so its scale at the start Theta_0 is
    (p / tr Theta_0)^2.  That value is clamped to [``_RHO_MIN``,
    ``_RHO_MAX``] and rounded to a power of two: division by it is then
    exact in floating point, so the Z step's thresholds l1 / rho1 and
    2 w / rho1 carry no rounding of their own, and nearby starts, such as
    the warm starts along a path, share one step size.
    """
    scale = start.shape[0] / float(np.trace(start))
    rho = min(max(scale * scale, _RHO_MIN), _RHO_MAX)
    return 2.0 ** round(math.log2(rho))


def _diagonal_start(
    S: np.ndarray, idx: PairedIndex, l1_coord: np.ndarray, a: np.ndarray, b: np.ndarray,
    w2: np.ndarray,
) -> np.ndarray:
    """The minimizer diag(1/u) of the objective over diagonal matrices, given
    the active fused rows (a, b) and twice their weights ``w2``.

    Over diagonal matrices the objective is sum_i (-log theta_i + c_i
    theta_i) plus the vertex rows' w |theta_a - theta_b|, with c = diag(S)
    plus the diagonal l1 weights.  Its optimality conditions make u =
    1/theta the fused step of c at gap threshold 2 w: each vertex pair keeps
    its mean and soft-thresholds its gap, and an infinite weight ties it.  A
    u that is not finite and positive leaves no minimizer, so the problem is
    unbounded below (or, under an infinite diagonal l1 weight, infeasible):
    that raises :class:`NotPositiveDefiniteError`.
    """
    v = np.zeros(idx.vec_length)
    v[idx.diagonal] = np.diag(S) + l1_coord[idx.diagonal]
    with np.errstate(divide="ignore", invalid="ignore"):  # u = 0, or inf - inf
        theta = 1.0 / _prox(v, a, b, w2, np.zeros(idx.vec_length))[idx.diagonal]
    if not np.all(np.isfinite(theta) & (theta > 0)):
        raise NotPositiveDefiniteError(
            "the problem has no minimizer: the objective is unbounded below on the "
            "diagonal, where an entry of S plus its l1 weight, after the vertex "
            "fusion, is not positive (a zero column without a diagonal penalty, "
            "for example)"
        )
    return np.diag(theta)


def _dual_at(Theta: np.ndarray, S: np.ndarray, rho1: float) -> np.ndarray:
    """The scaled dual U = (Theta^{-1} - S) / rho1 at which, with Z = Theta,
    the next :func:`theta_step` returns the positive definite Theta."""
    return (np.linalg.inv(Theta) - S) / rho1


def solve_weighted(
    S: np.ndarray, idx: PairedIndex, l1_coord: np.ndarray, row_w: np.ndarray,
    cfg: AdmmConfig, *, start: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, SolveReport]:
    """Run the ADMM with explicit per-coordinate l1 weights and one weight
    per row of :attr:`PairedIndex.fused_pairs` in ``row_w``.

    Infinite weights are exact constraints: an infinite l1 weight holds its
    coordinate at zero and an infinite row weight ties its pair.  Within any
    positively weighted row the two l1 weights must be equal, otherwise the
    fuse-then-shrink proximal step is invalid, and no l1 weight may be
    negative.  Rows of zero or negative weight are inactive.

    Once the face of Z (see :func:`_face`) has held for ``_POLISH_AFTER``
    iterations, is not the face last polished, and Z is positive definite,
    the face is solved by :func:`_face_newton`.  A certified face optimum
    ends the solve with ``stop_reason`` ``"kkt"``.  A rejected one whose
    certificate is strictly below that of every earlier rejected polish of
    this solve restarts the ADMM from it, at most ``_MAX_RESTARTS`` times:
    Z = Theta_f, U = (Theta_f^{-1} - S) / rho1 and a new face hold, while
    the face last polished is kept, so it is not polished again at once.
    Any other rejection, or a face solver failure, leaves the ADMM state as
    it was.  A singular iterate has no certificate; the loop goes on.

    The loop starts at ``start``, a positive definite p x p matrix such as
    an earlier estimate, or, when it is None, at the minimizer over
    diagonal matrices (:func:`_diagonal_start`), by the restart rule, at the
    step size :func:`_rho_start` of that start, which the whole solve keeps
    (see the module docstring).
    A start of the wrong shape raises :class:`DimensionError`, one that
    fails Cholesky :class:`NotPositiveDefiniteError`, and so does a problem
    without a diagonal minimizer, all before any step.

    Returns the polished estimate, or the sparse/fused iterate Z, or, when
    ``max_outer`` is spent at a Z that is not positive definite, the
    positive definite iterate Theta (flagged in the report).
    """
    S = np.asarray(S, dtype=float)
    if not np.all(np.isfinite(S)):
        raise ValueError("S contains non-finite entries")
    l1_coord = np.asarray(l1_coord, dtype=float)
    if l1_coord.shape != (idx.vec_length,):
        raise DimensionError("l1 weight vector has wrong length")
    row_w = np.asarray(row_w, dtype=float)
    if row_w.shape != (idx.n_rows,):
        raise DimensionError("row weight vector has wrong length")
    if np.any(l1_coord < 0):
        raise ValueError("l1 weights must be >= 0")
    a, b, w = _active_rows(idx, row_w)
    if np.any(l1_coord[a] != l1_coord[b]):
        raise ValueError("l1 weights must match within each active fused pair")
    w2 = 2.0 * w

    p = idx.p
    if start is None:
        Z = _diagonal_start(S, idx, l1_coord, a, b, w2)
    else:
        Z = np.asarray(start, dtype=float)
        if Z.shape != (p, p):
            raise DimensionError(f"start has shape {Z.shape}, expected {(p, p)}")
        if not is_positive_definite(Z):
            raise NotPositiveDefiniteError("start is not positive definite")
    rho1 = _rho_start(Z)
    U = _dual_at(Z, S, rho1)
    primal = math.inf
    dual = math.inf
    kkt = None
    stop_reason = "max_outer"
    iterations = 0
    face = tried = None
    held = 0
    polish_attempts = 0
    restarts = 0
    best = math.inf  # the best certificate of a rejected polish so far
    polished = None

    for l in range(cfg.max_outer):
        iterations = l + 1
        Theta = theta_step(S, Z, U, rho1)
        z = _prox((Theta + U).take(idx.coord_flat), a, b, w2 / rho1, l1_coord / rho1)
        Z_new = z.take(idx.entry_coord).reshape(p, p)
        U = U + Theta - Z_new

        primal = float(np.linalg.norm(Theta - Z_new))
        dual = rho1 * float(np.linalg.norm(Z_new - Z))
        eps_pri = p * cfg.eps_abs + cfg.eps_rel * max(
            float(np.linalg.norm(Theta)), float(np.linalg.norm(Z_new))
        )
        eps_dual = p * cfg.eps_abs + cfg.eps_rel * rho1 * float(np.linalg.norm(U))
        Z = Z_new
        if primal <= eps_pri and dual <= eps_dual:
            certificate = kkt_residual(Z, S, idx, l1_coord, row_w)
            if certificate <= _KKT_TOL_FACTOR * cfg.eps_abs:
                kkt, stop_reason = certificate, "kkt"
                break
            if math.isfinite(certificate):  # a singular iterate has none
                kkt = certificate
        new_face = _face(z, a, b)
        held = held + 1 if face is not None and np.array_equal(new_face, face) else 0
        face = new_face
        if (held >= _POLISH_AFTER and not np.array_equal(face, tried)
                and is_positive_definite(Z)):
            tried = face
            polish_attempts += 1
            candidate = _face_newton(Z, S, idx, l1_coord, row_w, cfg)
            if candidate is not None and candidate[1] <= _KKT_TOL_FACTOR * cfg.eps_abs:
                polished = candidate
                stop_reason = "kkt"
                break
            if candidate is not None and candidate[1] < best and restarts < _MAX_RESTARTS:
                # restart at the face optimum, which the next theta_step returns
                Z, best = candidate
                U = _dual_at(Z, S, rho1)
                restarts += 1
                face = None
                held = 0

    z_not_pd = False
    result = Z
    if polished is not None:
        result, kkt = polished
    elif not is_positive_definite(Z):
        z_not_pd = True
        result = theta_step(S, Z, U, rho1)

    report = SolveReport(
        outer_iterations=iterations,
        primal_residual=primal,
        dual_residual=dual,
        objective_value=_weighted_objective(result, S, idx, l1_coord, row_w),
        kkt_residual=None if kkt is None else float(kkt),
        z_not_pd=bool(z_not_pd),
        stop_reason=stop_reason,
        polish_attempts=polish_attempts,
        restarts=restarts,
    )
    return result, report


def pdglasso_solve(
    S: np.ndarray,
    spec: PenaltySpec,
    cfg: Optional[AdmmConfig] = None,
    diag_penalty: bool = True,
    *,
    start: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, SolveReport]:
    """Minimize the paired-data fused graphical lasso objective.

    Returns the final Z iterate, which carries exact zeros from the l1
    shrinkage and exact ties from the fused step, together with a solve
    report.  Infinite penalty components are passed to the solver as
    ``math.inf`` and act as hard equality constraints.  With
    ``diag_penalty`` unset the l1 weight is dropped on the diagonal entries.
    ``start``, a positive definite matrix such as an earlier estimate, is
    passed to :func:`solve_weighted`: a cold solve, from the diagonal
    optimum, when None.
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

    l1_coord, row_w = _penalty_weights(spec, idx, diag_penalty)
    return solve_weighted(S, idx, l1_coord, row_w, cfg, start=start)


def optimality_residual(
    theta: np.ndarray, S: np.ndarray, spec: PenaltySpec, diag_penalty: bool = True
) -> float:
    """Coordinate-wise first-order residual of the objective at ``theta``.

    As :func:`kkt_residual`, but for a matrix that need not come from the
    solver: pairs within 1e-7 max(1, max|theta|) of each other count as
    tied.  ``INF`` components are constraints (see :func:`kkt_violation`):
    +inf when ``theta`` breaks one.
    """
    idx = PairedIndex.from_p(theta.shape[0])
    if not is_positive_definite(theta):
        return math.inf
    l1_coord, row_w = _penalty_weights(spec, idx, diag_penalty)
    z = pd_vec(theta, idx)
    G = pd_vec(S - np.linalg.inv(theta), idx)
    return kkt_violation(z, G, idx, l1_coord, row_w, 1e-7 * max(1.0, float(np.abs(z).max())))
