"""Penalty functionals for the paired-data graphical lasso.

The objective combines an l1 penalty on all entries of the concentration
matrix with a fused penalty on the three families of corresponding-entry
differences: vertex (diagonal LL vs RR), inside-block (off-diagonal LL vs RR)
and across-block (LR vs RL).  Each fused component can be switched off, set
to a finite weight, or forced to an exact equality constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionError
from .paired import PairedIndex, _check_square, log_likelihood


class _Infinite:
    """Symbolic infinite penalty component (hard equality constraint).

    Kept distinct from float('inf') in specifications; the solver passes it
    on as ``math.inf``, which its closed-form proximal step turns into an
    exact tie.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Inf"


INF = _Infinite()

PenaltyValue = Union[float, _Infinite]


def is_inf(value: PenaltyValue) -> bool:
    return isinstance(value, _Infinite)


def parse_penalty_value(text: str) -> PenaltyValue:
    """Parse a penalty component from CLI text: a number or the word 'Inf'."""
    if text.strip().lower() in ("inf", "infinite"):
        return INF
    value = float(text)
    if value < 0:
        raise ValueError(f"penalty component must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class PenaltySpec:
    """l1 weight plus the three fused penalty components.

    Each lambda2 component is 0.0 (off), a finite nonnegative weight, or the
    symbolic ``INF`` enforcing exact equality of the corresponding entries.
    """

    lambda1: float
    lambda2_vertex: PenaltyValue = 0.0
    lambda2_inside: PenaltyValue = 0.0
    lambda2_across: PenaltyValue = 0.0

    def __post_init__(self):
        if self.lambda1 < 0:
            raise ValueError(f"lambda1 must be >= 0, got {self.lambda1}")
        for name in ("lambda2_vertex", "lambda2_inside", "lambda2_across"):
            value = getattr(self, name)
            if not is_inf(value) and value < 0:
                raise ValueError(f"{name} must be >= 0 or Inf, got {value}")

    @classmethod
    def uniform(cls, lambda1: float, lambda2: float) -> "PenaltySpec":
        """The single-lambda2 fused penalty: all three components equal."""
        return cls(lambda1, lambda2, lambda2, lambda2)

    @property
    def components(self):
        return (self.lambda2_vertex, self.lambda2_inside, self.lambda2_across)

    @property
    def has_infinite(self) -> bool:
        return any(is_inf(c) for c in self.components)


def l1_penalty(theta: np.ndarray, lambda1: float) -> float:
    """lambda1 times the sum of absolute values of all entries, diagonal included."""
    if lambda1 < 0:
        raise ValueError(f"lambda1 must be >= 0, got {lambda1}")
    return float(lambda1 * np.abs(theta).sum())


def _block_diffs(theta: np.ndarray, idx: PairedIndex):
    """The three l1 block norms of the fused penalty: vertex, inside, across."""
    q = idx.q
    theta = np.asarray(theta, dtype=float)
    LL = theta[:q, :q]
    RR = theta[q:, q:]
    LR = theta[:q, q:]
    RL = theta[q:, :q]
    diag_diff = np.abs(np.diag(LL) - np.diag(RR)).sum()
    off = LL - RR
    inside_diff = np.abs(off).sum() - np.abs(np.diag(off)).sum()
    across_diff = np.abs(LR - RL).sum()
    return float(diag_diff), float(inside_diff), float(across_diff)


def fused_penalty(theta: np.ndarray, spec: PenaltySpec, idx: PairedIndex) -> float:
    """Evaluate the fused penalty as its three l1 block norms.

    Infinite components contribute zero when the corresponding differences
    vanish exactly and make the value +inf otherwise.
    """
    _check_square(theta, idx, "theta")
    diffs = _block_diffs(theta, idx)
    total = 0.0
    for weight, diff in zip(spec.components, diffs):
        if is_inf(weight):
            if diff != 0.0:
                return math.inf
        else:
            total += weight * diff
    return total


def objective(theta: np.ndarray, S: np.ndarray, spec: PenaltySpec) -> float:
    """Penalized negative log-likelihood being minimized."""
    idx = PairedIndex.from_p(theta.shape[0])
    return (
        -log_likelihood(theta, S)
        + l1_penalty(theta, spec.lambda1)
        + fused_penalty(theta, spec, idx)
    )


def lambda1_diag_max(S: np.ndarray) -> float:
    """Smallest l1 weight at which the estimate is diagonal for any lambda2.

    Equals the largest off-diagonal absolute value of S.
    """
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    if S.ndim != 2 or S.shape[1] != p or p < 2:
        raise DimensionError(f"S must be square with p >= 2, got shape {S.shape}")
    off = np.abs(S - np.diag(np.diag(S)))
    return float(off.max())


def lambda1_block_max(S: np.ndarray, idx: PairedIndex) -> float:
    """Smallest l1 weight zeroing the whole LR block for any lambda2.

    Equals the largest absolute value of the LR block of S.
    """
    _check_square(S, idx, "S")
    q = idx.q
    return float(np.abs(np.asarray(S)[:q, q:]).max())


def lambda2_sym_max(S: np.ndarray, idx: PairedIndex) -> float:
    """Smallest uniform fused weight forcing a fully symmetric estimate.

    Equals the largest of |s_ij - s_i'j'| / 2 and |s_i'j - s_ij'| / 2 over
    i, j in the left block.  Stated for the uniform penalty only.
    """
    _check_square(S, idx, "S")
    q = idx.q
    S = np.asarray(S, dtype=float)
    inside = np.abs(S[:q, :q] - S[q:, q:]) / 2.0
    across = np.abs(S[q:, :q] - S[:q, q:]) / 2.0
    return float(max(inside.max(), across.max()))
