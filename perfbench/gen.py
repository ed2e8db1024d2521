"""Seeded benchmark inputs, made with numpy alone.

The design follows the paper's simulation: a Wishart draw W with df = p, its
inverse thresholded to the requested edge density, a share of the vertex,
inside and across pairs made symmetric (coloured), and the coloured graphical
model on that graph fitted to W.  Nothing is standardized, so the truth's
variances are close to W's diagonal and the entries of S stay of order p.

No function of the program is called here: a numerics change in the library
cannot alter a workload's input.  The same generator state gives the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ascent steps of the coloured fit; more change no property the benchmark relies on
_FIT_STEPS = 300


@dataclass(frozen=True)
class Truth:
    theta: np.ndarray  # p x p concentration matrix
    adj: np.ndarray  # p x p boolean adjacency, no diagonal


def names(p: int) -> list[str]:
    q = p // 2
    return [f"g{i + 1}_L" for i in range(q)] + [f"g{i + 1}_R" for i in range(q)]


def _coloured_fit(W: np.ndarray, mask: np.ndarray, ties: np.ndarray) -> np.ndarray:
    """Approximate MLE of the coloured graphical model fitted to W.

    ``mask`` marks the free entries (graph plus diagonal) and each row of
    ``ties`` holds the (row, col) entries of a pair held equal.  Starting from
    diag(1/W_ii), each step moves along the projected natural gradient
    P(Theta (Sigma - W) Theta) with Armijo backtracking, and accepts a point
    only when Cholesky shows it positive definite.  Zeros and ties are exact by
    construction; a fixed step count keeps the work bounded.
    """
    a_r, a_c, b_r, b_c = ties.T if len(ties) else (np.zeros(0, dtype=int),) * 4

    def project(M: np.ndarray) -> np.ndarray:
        M = np.where(mask, M, 0.0)
        mean = 0.5 * (M[a_r, a_c] + M[b_r, b_c])
        M[a_r, a_c] = M[a_c, a_r] = M[b_r, b_c] = M[b_c, b_r] = mean
        return M

    def neg_loglik(theta: np.ndarray) -> float:
        try:
            L = np.linalg.cholesky(theta)
        except np.linalg.LinAlgError:
            return math.inf
        return -2.0 * float(np.log(np.diag(L)).sum()) + float(np.sum(W * theta))

    theta = project(np.diag(1.0 / np.diag(W)))
    value = neg_loglik(theta)
    t = 1.0
    for _ in range(_FIT_STEPS):
        resid = np.linalg.inv(theta) - W
        grad = project(resid)
        direction = project(theta @ resid @ theta)
        slope = float(np.sum(grad * direction))
        if slope <= 0.0:
            direction, slope = grad, float(np.sum(grad * grad))
        if slope == 0.0:
            break
        while True:
            trial = theta + t * direction
            trial_value = neg_loglik(trial)
            if trial_value <= value - 1e-4 * t * slope:
                break
            t *= 0.5
        theta, value = trial, trial_value
        t = min(1.0, 2.0 * t)
    return theta


def make_truth(rng: np.random.Generator, p: int, density: float, sym_fraction: float) -> Truth:
    q = p // 2
    G = rng.standard_normal((p, p))
    W = G @ G.T
    K = np.linalg.inv(W)

    rows, cols = np.triu_indices(p, k=1)
    keep = np.argsort(-np.abs(K[rows, cols]), kind="stable")[: math.ceil(density * len(rows))]
    adj = np.zeros((p, p), dtype=bool)
    adj[rows[keep], cols[keep]] = True
    adj |= adj.T

    def pick(size: int) -> np.ndarray:
        return rng.choice(size, size=int(round(sym_fraction * size)), replace=False)

    ties = [(i, i, i + q, i + q) for i in pick(q)]  # vertex pairs
    # inside pairs {i,j} ~ {i',j'} and across pairs {i,j'} ~ {i',j}; a pair with
    # at least one edge gets both edges, tied
    iu, ju = np.triu_indices(q, k=1)
    for family in ("inside", "across"):
        for k in pick(len(iu)):
            i, j = int(iu[k]), int(ju[k])
            a, b = ((i, j), (i + q, j + q)) if family == "inside" else ((i, j + q), (i + q, j))
            if adj[a] or adj[b]:
                for r, c in (a, b):
                    adj[r, c] = adj[c, r] = True
                ties.append((*a, *b))
    mask = adj | np.eye(p, dtype=bool)
    theta = _coloured_fit(W, mask, np.array(ties, dtype=int).reshape(-1, 4))
    return Truth(theta=theta, adj=adj)


def sample(rng: np.random.Generator, theta: np.ndarray, n: int) -> np.ndarray:
    """n zero-mean normal rows with concentration theta."""
    L = np.linalg.cholesky(theta)  # theta = L L', so inv(L') z has covariance inv(theta)
    Z = rng.standard_normal((n, theta.shape[0]))
    return np.linalg.solve(L.T, Z.T).T


def data_csv(Y: np.ndarray) -> str:
    lines = [",".join(names(Y.shape[1]))]
    lines.extend(",".join(repr(float(x)) for x in row) for row in Y)
    return "\n".join(lines) + "\n"


def second_moment(Y: np.ndarray) -> np.ndarray:
    """S as the CLI computes it from data rows (no centering)."""
    return Y.T @ Y / Y.shape[0]


def lambda1_diag_max(S: np.ndarray) -> float:
    """Largest off-diagonal |S_ij|: the l1 weight that gives a diagonal estimate."""
    return float(np.abs(S - np.diag(np.diag(S))).max())


def lambda2_sym_max(S: np.ndarray) -> float:
    """Largest half-difference of paired entries: the fused weight that gives full symmetry."""
    q = S.shape[0] // 2
    inside = np.abs(S[:q, :q] - S[q:, q:]) / 2.0
    across = np.abs(S[q:, :q] - S[:q, q:]) / 2.0
    return float(max(inside.max(), across.max()))
