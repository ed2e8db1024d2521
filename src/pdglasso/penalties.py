"""Penalty functionals for the paired-data graphical lasso.

The objective combines an l1 penalty on all entries of the concentration
matrix with a fused penalty on the three families of corresponding-entry
differences: vertex (diagonal LL vs RR), inside-block (off-diagonal LL vs RR)
and across-block (LR vs RL).  Each fused component can be switched off, set
to a finite weight, or forced to an exact equality constraint by the
infinite weight ``INF``, which is ``math.inf``: ``float("inf")`` does the same.
The layout is :class:`PairedIndex`'s: S and theta are read through
:func:`pd_vec`, one entry of each symmetric pair (the upper one within each
q x q block), and each difference is a row of
:attr:`PairedIndex.fused_pairs`, weighted by :func:`penalty_weights`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .paired import PairedIndex, checked_cov, log_likelihood, pd_unvec, pd_vec

INF = math.inf


@dataclass(frozen=True)
class PenaltySpec:
    """l1 weight plus the three fused penalty components.

    ``lambda1`` is a finite nonnegative weight.  Each lambda2 component is
    0.0 (off), a finite nonnegative weight, or ``INF`` (``math.inf``),
    which enforces exact equality of the corresponding entries.
    """

    lambda1: float
    lambda2_vertex: float = 0.0
    lambda2_inside: float = 0.0
    lambda2_across: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # written so that NaN fails
            if f.name == "lambda1" and not 0 <= value < math.inf:
                raise ValueError(f"lambda1 must be finite and >= 0, got {value}")
            if not 0 <= value <= math.inf:
                raise ValueError(f"{f.name} must be >= 0 or Inf, got {value}")
            if value == 0:  # -0.0 too, so that both spellings report 0.0
                object.__setattr__(self, f.name, 0.0)

    @classmethod
    def uniform(cls, lambda1: float, lambda2: float) -> "PenaltySpec":
        """The single-lambda2 fused penalty: all three components equal."""
        return cls(lambda1, lambda2, lambda2, lambda2)

    @property
    def components(self):
        return (self.lambda2_vertex, self.lambda2_inside, self.lambda2_across)


def penalty_weights(
    spec: PenaltySpec, idx: PairedIndex, diag_penalty: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """One l1 weight per coordinate of :func:`pd_vec` and one fused weight
    per row of :attr:`PairedIndex.fused_pairs`, infinite ones included; with
    ``diag_penalty`` unset the l1 weight is dropped on the diagonal entries.
    """
    l1_coord = np.full(idx.vec_length, float(spec.lambda1))
    if not diag_penalty:
        l1_coord[idx.diagonal] = 0.0
    return l1_coord, idx.component_rows(*map(float, spec.components))


def penalty_terms(
    z: np.ndarray, idx: PairedIndex, l1_coord: np.ndarray, row_w: np.ndarray
) -> tuple[float, float]:
    """The l1 and fused terms at z = ``pd_vec(theta)`` under the weights of
    :func:`penalty_weights`, summed over all matrix entries: an off-diagonal
    coordinate, or a row of them, counts twice.  An exact zero adds 0 even
    under an infinite weight (never inf * 0); a nonzero one makes it +inf.
    """
    first, second = idx.fused_pairs
    mult = np.where(idx.diagonal, 1.0, 2.0)  # matrix entries per coordinate
    terms = ((mult * l1_coord, z), (mult[first] * row_w, z[first] - z[second]))
    return tuple(float(np.sum(w[v != 0] * np.abs(v[v != 0]))) for w, v in terms)


def fused_penalty(theta: np.ndarray, spec: PenaltySpec, idx: PairedIndex) -> float:
    """The fused term of :func:`penalty_terms` for ``spec``: theta is read
    through :func:`pd_vec`, and an infinite component adds 0 where its
    differences vanish exactly and makes the value +inf otherwise."""
    return penalty_terms(pd_vec(theta, idx), idx, *penalty_weights(spec, idx))[1]


def weighted_objective(
    theta: np.ndarray, S: np.ndarray, idx: PairedIndex, l1_coord: np.ndarray, row_w: np.ndarray
) -> float:
    """Penalized negative log-likelihood being minimized, nll + l1 + fused,
    under the weights of :func:`penalty_weights`, the penalty read through
    :func:`penalty_terms`.  Theta is read once, through :func:`pd_vec`, for
    all three terms; S is read as given, so it must come from
    :func:`~pdglasso.paired.checked_cov`.  Raises
    :class:`NotPositiveDefiniteError` off the cone."""
    z = pd_vec(theta, idx)
    nll = -log_likelihood(pd_unvec(z, idx), S)
    l1, fused = penalty_terms(z, idx, l1_coord, row_w)
    return nll + l1 + fused


def objective(theta: np.ndarray, S: np.ndarray, spec: PenaltySpec) -> float:
    """:func:`weighted_objective` under the weights of ``spec``, S checked by
    :func:`~pdglasso.paired.checked_cov`."""
    idx = PairedIndex.from_p(theta.shape[0])
    return weighted_objective(theta, checked_cov(S, idx), idx, *penalty_weights(spec, idx))


def lambda1_diag_max(S: np.ndarray) -> float:
    """Smallest l1 weight at which the estimate is diagonal for any lambda2.

    Equals the largest off-diagonal absolute value of S, which is checked
    by :func:`~pdglasso.paired.checked_cov`.
    """
    S = checked_cov(S)
    return float(np.abs(S - np.diag(np.diag(S))).max())


def lambda1_block_max(S: np.ndarray, idx: PairedIndex) -> float:
    """Smallest l1 weight zeroing the whole LR block for any lambda2.

    Equals the largest absolute value of the LR block of S, which is
    checked by :func:`~pdglasso.paired.checked_cov`.
    """
    q = idx.q
    return float(np.abs(checked_cov(S, idx)[:q, q:]).max())


def lambda2_sym_max(S: np.ndarray, idx: PairedIndex) -> float:
    """Smallest uniform fused weight forcing a fully symmetric estimate.

    Half the largest gap |s_a - s_b| over the rows (a, b) of
    :attr:`PairedIndex.fused_pairs`, S read through :func:`pd_vec`: the
    largest of |s_ij - s_i'j'| / 2 and |s_i'j - s_ij'| / 2 over i, j in the
    left block.  Stated for the uniform penalty only.  S is checked by
    :func:`checked_cov`.
    """
    s = pd_vec(checked_cov(S, idx), idx)
    a, b = idx.fused_pairs
    return float(np.abs(s[a] - s[b]).max() / 2.0)
