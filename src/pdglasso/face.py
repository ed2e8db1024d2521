"""Newton-CG solver for the Gaussian likelihood on one face of the paired
coordinate layout.

A face holds some half-vectorized coordinates at zero and ties the pairs of
some fused rows.  On it,

    -log det(Theta) + tr(S Theta)

is smooth in the face's free parameters (one per present coordinate outside
the ties and one per tied class), and :func:`_rcon_newton` minimizes it.  Two
callers share it: the model module refits coloured-graph MLEs with the sample
moment S, and the solver module polishes a penalized solve on the face its
ADMM iterate identified, with S shifted by the subgradient of the penalty on
that face.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MleError, NotPositiveDefiniteError
from .paired import PairedIndex, logdet_pd

# Newton-CG: Armijo constant, step halvings before the line search gives up,
# and the largest CG forcing term (see _pcg)
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_MAX_FORCING = 0.1
# squared Newton decrement at or below which a full step meets the Armijo
# condition in exact arithmetic (Boyd & Vandenberghe 2004, section 9.6.4)
_LOCAL_DECREMENT = ((1.0 - 2.0 * _ARMIJO) / 4.0) ** 2


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


def _rcon_newton(
    S: np.ndarray, idx: PairedIndex, absent: np.ndarray, coloured: np.ndarray,
    tol: float, max_steps: int, start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize -log det(Theta) + tr(S Theta) with the half-vectorized
    coordinates in ``absent`` held at zero and the pairs of the fused rows in
    ``coloured`` tied.

    A damped Newton method over the free parameters starts from ``start``, a
    positive definite matrix on the face, or else from the minimizer without
    edges.  Each Newton system is solved by :func:`_pcg` on
    Hessian-vector products v -> classsum(w * Sigma V Sigma), where w counts
    each coordinate's matrix entries, preconditioned by
    v -> classsum(Theta V Theta), the exact inverse Hessian of the model
    without zeros or ties; memory stays O(p^2).  A step is taken only if the
    Cholesky-checked objective decreases enough (Armijo backtracking); once
    the Newton decrement is small enough that a full step meets the Armijo
    condition in exact arithmetic, the full step is taken if it is positive
    definite.

    Returns (Theta, inv(Theta)) only with a certificate: the class sums of
    inv(Theta) - S are at most ``tol`` in absolute value, and inv(Theta)
    with that residual spread over each class is still positive definite,
    which proves the minimizer exists rather than being approached by an
    estimate diverging to infinity.  Every other exit raises
    :class:`MleError`: a zero diagonal class sum of S, a Newton system that
    is not numerically positive definite, a failed line search, Newton steps
    stalled at float precision, or more than ``max_steps`` Newton steps.
    S is finite and symmetric (see :func:`pdglasso.paired.checked_cov`).
    """
    # one free parameter per class: a tied pair or a lone present coordinate
    _, cls = _colour_classes(idx, absent, coloured)
    free = ~absent
    d = int(cls.max()) + 1
    size = np.bincount(cls, minlength=d).astype(float)
    diag = np.bincount(cls, weights=idx.diagonal[free], minlength=d) > 0
    weight = np.where(diag, 1.0, 2.0)  # matrix entries per coordinate
    weight_size = weight * size
    # the class of every matrix entry, slot d (held at zero) for absent ones,
    # and the flat positions of the free coordinates' entries
    slot = np.full(idx.vec_length, d)
    slot[free] = cls
    entry_cls = slot.take(idx.coord_of)
    free_flat = idx.coord_flat[free]
    padded = np.zeros(d + 1)

    def expand(v):
        padded[:d] = v
        return padded.take(entry_cls)

    def classsum(M):
        return np.bincount(cls, weights=M.take(free_flat), minlength=d)

    def objective(Theta):
        try:
            return -logdet_pd(Theta) + float(np.sum(S * Theta))
        except NotPositiveDefiniteError:
            return math.inf

    S_sum = classsum(S)
    if np.any(S_sum[diag] <= 0):
        raise MleError("a variable has zero sample variance; the MLE does not exist")
    theta = np.zeros(d)
    if start is None:
        # start from the MLE of the graph without edges
        theta[diag] = size[diag] / S_sum[diag]
    else:
        theta[cls] = np.asarray(start, dtype=float).take(free_flat)
    Theta = expand(theta)
    f = objective(Theta)
    last_local = math.inf

    for steps in range(max_steps + 1):
        Sigma = np.linalg.inv(Theta)
        resid = classsum(Sigma) - S_sum
        # Sigma with the residual spread over each class has the class sums of
        # S; when it is positive definite the MLE exists, so the equations are
        # not merely approached by an estimate diverging to infinity
        if float(np.abs(resid).max()) <= tol and np.linalg.eigvalsh(Sigma)[0] > float(
            np.linalg.norm(expand(resid / size))
        ):
            return Theta, Sigma
        if steps == max_steps:
            break
        # Newton system H step = w * resid with H v = classsum(w Sigma V Sigma);
        # preconditioner: the inverse Hessian of the model without zeros or
        # ties, pulled back to the parameters through the class means
        rhs = weight * resid
        step = _pcg(
            lambda v: weight * classsum(Sigma @ expand(v) @ Sigma),
            lambda r: classsum(Theta @ expand(r / weight_size) @ Theta) / size,
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
        f"constrained MLE did not meet its certificate in {max_steps} Newton steps"
    )


def _pcg(hvp, precond, b: np.ndarray, max_iter: int) -> np.ndarray:
    """Preconditioned conjugate gradients for H x = b, H positive definite.

    Stops once the preconditioned residual norm falls below
    min(_MAX_FORCING, sqrt(lambda)) times its start, where lambda^2 = b' P b
    approximates the squared Newton decrement; the outer Newton loop then
    converges superlinearly.  Raises :class:`MleError` when b' P b or the
    curvature along a direction is not positive, or after ``max_iter`` steps.
    """
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    rz = float(r @ z)
    if not rz > 0:  # P is positive definite in exact arithmetic
        raise MleError("Newton preconditioner is not numerically positive definite")
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
