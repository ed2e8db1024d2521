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
convexity then makes it the optimum.  A rejected polish, or a failed one,
leaves the ADMM state as it was, and no face is polished twice in a row,
so a solve is a certificate of its start, then the plain ADMM plus at most
one accepted polish.

Every solve starts at a positive definite Theta_0 by the start rule:
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

One rule ends a solve: the certificate.  It is computed once at the
start, from the inverse the start rule needs anyway, and a certified start
is returned as it is, after no step: the cold start at or above the
diagonal threshold, or a warm start at an optimum.  After that only an
accepted polish ends the loop.  The ADMM residuals of Boyd et al. (2011,
section 3.3) are not tested: they gated a certificate of the iterate, which
at the default tolerance ended no solve after its first step.  A solve that
does not certify within ``max_outer`` iterations ends there, and when its
last Z is singular it returns the positive definite Theta step instead;
its certificate is computed once, on what it returns.

Two choices are constants, not settings.  The step size rho1 is the
curvature of the smooth term at the start, the scale of the optimal ADMM
step for quadratic problems (Ghadimi, Teixeira, Shames & Johansson 2015,
IEEE TAC 60:644), and it stays there for the whole solve.  Residual
balancing (Boyd et al. 2011, section 3.4.1) is not used: from the diagonal
start, over 1,512 solves with S scaled by 1e-3 to 1e3, it took 18,639
iterations in all against 10,493 without it, and its slowest solve 499
against 19.  A given start far from the scale of the solution keeps a step
size to match, and its solve can be slow.  The optimality certificate
must fall to ``_KKT_TOL_FACTOR * eps_abs``, where ``eps_abs`` is the one
tolerance a caller sets.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, MleError, NotPositiveDefiniteError
from .face import _rcon_newton
from .paired import (
    PairedIndex,
    is_positive_definite,
    log_likelihood,
    pd_unvec,
    pd_vec,
)
from .penalties import PenaltySpec, penalty_terms, penalty_weights

_RHO_MIN = 2.0**-19
# only an overflow guard: (p / tr Theta_0)^2 is inf once tr Theta_0 < 1e-154 p,
# and below 2^500 the Theta step's d^2 + 4 rho1 stays far from overflowing
_RHO_MAX = 2.0**500
_KKT_TOL_FACTOR = 10.0
_POLISH_AFTER = 3  # iterations a face must hold before it is polished


def check_count(value, name: str, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an integer (a numpy one too) >= ``minimum``."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class AdmmConfig:
    """Tolerance and iteration limit of the ADMM, and of the MLE refit.

    A solve ends when the coordinate-wise optimality certificate falls to
    ``_KKT_TOL_FACTOR * eps_abs``, at its start or at a Newton polish of a
    face, or when ``max_outer`` iterations are spent; the step size is the
    problem's curvature at the start, not a setting (see the module
    docstring).  The polish runs within ``max_outer`` Newton steps.
    ``eps_abs`` and ``max_outer`` also bound :func:`pdglasso.model.mle`: its
    likelihood-equation residual must fall to
    ``_KKT_TOL_FACTOR * eps_abs * max(1, max|S|)`` within ``max_outer``
    Newton steps.
    """

    eps_abs: float = 1e-8
    max_outer: int = 5000

    def __post_init__(self):
        if not 0 < self.eps_abs <= 1e-2:  # NaN fails too
            raise ValueError(f"eps_abs must be in (0, 1e-2], got {self.eps_abs}")
        check_count(self.max_outer, "max_outer", 1)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve.

    ``stop_reason`` says why the solve ended: ``"kkt"`` (the optimality
    certificate met its tolerance, at the start or at a polished iterate)
    or ``"max_outer"`` (the iteration budget ran out).  ``kkt_residual`` is
    the certificate (:func:`kkt_residual`) of the returned estimate, +inf
    when that breaks an infinite weight's constraint (a Theta step
    returned for a singular Z can).  ``polish_attempts`` counts the Newton
    polishes tried; at most the last one was accepted.
    """

    outer_iterations: int
    objective_value: float
    kkt_residual: float
    stop_reason: str
    z_not_pd: bool = False
    polish_attempts: int = 0

    @property
    def converged(self) -> bool:
        """The optimality certificate met its tolerance within the budget."""
        return self.stop_reason == "kkt"

    @property
    def kkt_ok(self) -> bool:
        """The same as :attr:`converged`; ``perfbench/tracehooks.py`` reads it."""
        return self.converged


def _shrink(x: np.ndarray, t) -> np.ndarray:
    """Shrink toward zero: 0 where |x| <= t, otherwise x - sign(x) t; the
    thresholds t are known to be >= 0."""
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


def _weighted_objective(
    Z: np.ndarray, S: np.ndarray, idx: PairedIndex, l1_coord: np.ndarray, row_w: np.ndarray
) -> float:
    """Penalized negative log-likelihood with per-coordinate/per-row weights,
    nll + l1 + fused as in :func:`pdglasso.penalties.objective`, Z read once
    through :func:`pd_vec`; +inf when Z is not positive definite."""
    z = pd_vec(Z, idx)
    try:
        nll = -log_likelihood(pd_unvec(z, idx), S)
    except NotPositiveDefiniteError:
        return math.inf
    l1, fused = penalty_terms(z, idx, l1_coord, row_w)
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
    ``_RHO_MAX``] and rounded to a power of two.  The upper bound only keeps
    it finite; a lower one such as 2^19 bound from S x 1e4 up, where
    solves then ran to ``max_outer``.  Division by a power of two is
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

    The loop starts at ``start``, a positive definite p x p matrix such as
    an earlier estimate, or, when it is None, at the minimizer over
    diagonal matrices (:func:`_diagonal_start`), by the start rule, at the
    step size :func:`_rho_start` of that start, which the whole solve keeps
    (see the module docstring).
    A start of the wrong shape raises :class:`DimensionError`, one that
    fails Cholesky :class:`NotPositiveDefiniteError`, and so does a problem
    without a diagonal minimizer, all before any step.

    The start's certificate is computed once, from the inverse the start
    rule needs anyway; a certified start is returned as it is, after 0
    iterations.  Otherwise, once the face of Z (see :func:`_face`) has held
    for ``_POLISH_AFTER`` iterations, is not the face last polished, and Z
    is positive definite, the face is solved by :func:`_face_newton`.  A
    certified face optimum ends the solve with ``stop_reason`` ``"kkt"``.
    A rejected one, or a face solver failure, leaves the ADMM state as it
    was.

    Returns the certified start, or the polished estimate, or, at a
    ``max_outer`` stop, the sparse/fused iterate Z, or the positive definite
    iterate Theta when Z is not positive definite (flagged in the report).
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
        Z = np.array(start, dtype=float)  # a copy: a certified start is returned
        if Z.shape != (p, p):
            raise DimensionError(f"start has shape {Z.shape}, expected {(p, p)}")
        if not is_positive_definite(Z):
            raise NotPositiveDefiniteError("start is not positive definite")
    tol = _KKT_TOL_FACTOR * cfg.eps_abs
    Sigma = np.linalg.inv(Z)
    kkt = _certificate(Z, Sigma, S, idx, l1_coord, row_w)
    if kkt <= tol:
        return Z, SolveReport(
            outer_iterations=0, objective_value=_weighted_objective(Z, S, idx, l1_coord, row_w),
            kkt_residual=kkt, stop_reason="kkt",
        )
    rho1 = _rho_start(Z)
    U = (Sigma - S) / rho1  # so the first Theta step returns the start
    iterations = 0
    face = tried = None
    held = 0
    polish_attempts = 0
    polished = None

    for l in range(cfg.max_outer):
        iterations = l + 1
        Theta = theta_step(S, Z, U, rho1)
        z = _prox((Theta + U).take(idx.coord_flat), a, b, w2 / rho1, l1_coord / rho1)
        Z = z.take(idx.coord_of)
        U = U + Theta - Z
        new_face = _face(z, a, b)
        held = held + 1 if face is not None and np.array_equal(new_face, face) else 0
        face = new_face
        if (held >= _POLISH_AFTER and not np.array_equal(face, tried)
                and is_positive_definite(Z)):
            tried = face
            polish_attempts += 1
            candidate = _face_newton(Z, S, idx, l1_coord, row_w, cfg)
            if candidate is not None and candidate[1] <= tol:
                polished = candidate
                break

    z_not_pd = False
    if polished is not None:
        result, kkt = polished
    else:
        z_not_pd = not is_positive_definite(Z)
        result = theta_step(S, Z, U, rho1) if z_not_pd else Z
        kkt = kkt_residual(result, S, idx, l1_coord, row_w)

    report = SolveReport(
        outer_iterations=iterations,
        objective_value=_weighted_objective(result, S, idx, l1_coord, row_w),
        kkt_residual=float(kkt),
        z_not_pd=z_not_pd,
        stop_reason="max_outer" if polished is None else "kkt",
        polish_attempts=polish_attempts,
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
    report.  Infinite penalty components act as hard equality constraints.
    With ``diag_penalty`` unset the l1 weight is dropped on the diagonal
    entries.
    ``start``, a positive definite matrix such as an earlier estimate, is
    passed to :func:`solve_weighted`: a cold solve, from the diagonal
    optimum, when None.
    """
    cfg = cfg or AdmmConfig()
    S = np.asarray(S, dtype=float)
    idx = PairedIndex.from_p(S.shape[0])
    if not np.all(np.isfinite(S)):
        raise ValueError("S contains non-finite entries")

    unpenalized = spec.lambda1 == 0 and not any(spec.components)
    if unpenalized and not is_positive_definite(S):
        raise NotPositiveDefiniteError(
            "with all penalties zero the problem is unbounded unless S is positive definite"
        )

    l1_coord, row_w = penalty_weights(spec, idx, diag_penalty)
    return solve_weighted(S, idx, l1_coord, row_w, cfg, start=start)


def optimality_residual(
    theta: np.ndarray, S: np.ndarray, spec: PenaltySpec, diag_penalty: bool = True
) -> float:
    """Coordinate-wise first-order residual of the objective at ``theta``.

    As :func:`kkt_residual`, but for a matrix that need not come from the
    solver: pairs within 1e-7 max(1, max|theta|) of each other count as
    tied.  Infinite components are constraints (see :func:`kkt_violation`):
    +inf when ``theta`` breaks one.
    """
    idx = PairedIndex.from_p(theta.shape[0])
    if not is_positive_definite(theta):
        return math.inf
    l1_coord, row_w = penalty_weights(spec, idx, diag_penalty)
    z = pd_vec(theta, idx)
    G = pd_vec(S - np.linalg.inv(theta), idx)
    return kkt_violation(z, G, idx, l1_coord, row_w, 1e-7 * max(1.0, float(np.abs(z).max())))
