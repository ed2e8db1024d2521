"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the production code paths: dense
operator matrices instead of index arithmetic, cofactor expansion instead of
LAPACK, subgradient descent and iterative proportional scaling instead of
ADMM, and hand-derived closed forms for the tiny fused problems.
"""

import math

import numpy as np


def dense_F(q: int) -> np.ndarray:
    """Dense fused difference matrix built from its three row blocks."""
    s = q * (q - 1) // 2
    n = 3 * q + 4 * s
    I_q = np.eye(q)
    I_s = np.eye(s)
    block1 = np.hstack([I_q, -I_q, np.zeros((q, 4 * s + q))])
    block2 = np.hstack([np.zeros((s, 2 * q)), I_s, -I_s, np.zeros((s, 2 * s + q))])
    block3 = np.hstack([np.zeros((s, 2 * q + 2 * s)), I_s, -I_s, np.zeros((s, q))])
    F = np.vstack([block1, block2, block3])
    assert F.shape == (q + 2 * s, n)
    return F


def cofactor_det(M: np.ndarray) -> float:
    """Determinant by recursive cofactor expansion along the first row."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if n == 1:
        return float(M[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += (-1) ** j * M[0, j] * cofactor_det(minor)
    return total


def naive_log_likelihood(theta: np.ndarray, S: np.ndarray) -> float:
    det = cofactor_det(theta)
    assert det > 0
    trace = float(sum(S[i, j] * theta[j, i] for i in range(len(S)) for j in range(len(S))))
    return float(np.log(det)) - trace


def two_point_fused(b1: float, b2: float, w: float) -> tuple[float, float]:
    """Exact minimizer of .5 (z1-b1)^2 + .5 (z2-b2)^2 + w |z1 - z2|.

    If the fusion weight reaches half the gap the points merge at the mean;
    otherwise each moves toward the other by w.
    """
    if abs(b1 - b2) <= 2 * w:
        m = 0.5 * (b1 + b2)
        return m, m
    shift = w * np.sign(b1 - b2)
    return b1 - shift, b2 + shift


def kkt_violation_loop(z, G, l1_coord, first, second, weights, tie_tol) -> float:
    """Row-by-row reference for the first-order violation of the fused/l1
    problem in half-vectorized coordinates, for finite weights.

    Free coordinates (in no positively weighted row) need G + l1 sign(z) = 0
    when nonzero and |G| <= l1 when zero.  An untied pair adds the fused
    sign to each gradient; a pair tied at a nonzero value needs a common
    multiplier in [-w, w]; a pair tied at zero needs the two multiplier
    intervals to meet [-w, w].
    """
    z = np.asarray(z, dtype=float)
    G = np.asarray(G, dtype=float)
    l1_coord = np.asarray(l1_coord, dtype=float)
    fused_coord = np.zeros(len(z), dtype=bool)
    fused_coord[first] = weights > 0
    fused_coord[second] = weights > 0

    worst = 0.0
    free = ~fused_coord
    zf, gf, lf = z[free], G[free], l1_coord[free]
    nz = zf != 0
    if np.any(nz):
        worst = max(worst, float(np.max(np.abs(gf[nz] + lf[nz] * np.sign(zf[nz])))))
    if np.any(~nz):
        worst = max(worst, float(np.max(np.maximum(np.abs(gf[~nz]) - lf[~nz], 0.0))))

    for r in range(len(weights)):
        w = weights[r]
        a, bcoord = first[r], second[r]
        za, zb = z[a], z[bcoord]
        ga, gb = G[a], G[bcoord]
        la, lb = l1_coord[a], l1_coord[bcoord]
        if w == 0:
            for zv, gv, lv in ((za, ga, la), (zb, gb, lb)):
                if zv != 0:
                    worst = max(worst, abs(gv + lv * math.copysign(1.0, zv)))
                else:
                    worst = max(worst, max(abs(gv) - lv, 0.0))
            continue
        if abs(za - zb) > tie_tol:
            sd = math.copysign(1.0, za - zb)
            for zv, gv, lv, fsign in ((za, ga, la, sd), (zb, gb, lb, -sd)):
                if zv != 0:
                    worst = max(worst, abs(gv + lv * math.copysign(1.0, zv) + w * fsign))
                else:
                    worst = max(worst, max(abs(gv + w * fsign) - lv, 0.0))
        elif za != 0 or zb != 0:
            sv = math.copysign(1.0, za + zb)
            gamma = -(ga + la * sv)
            worst = max(worst, abs(ga + gb + (la + lb) * sv))
            worst = max(worst, max(abs(gamma) - w, 0.0))
        else:
            lo = max(-w, -ga - la, gb - lb)
            hi = min(w, -ga + la, gb + lb)
            worst = max(worst, max(lo - hi, 0.0))
    return worst


def soft(x: float, t: float) -> float:
    return float(np.sign(x) * max(abs(x) - t, 0.0))


def pair_prox(b1: float, b2: float, w: float, t: float) -> tuple[float, float]:
    """Fused-then-shrink solution of the pair problem with an added l1 term."""
    z1, z2 = two_point_fused(b1, b2, w)
    return soft(z1, t), soft(z2, t)


def subgradient_prox(b, pairs, weights, l1, iters=400, epochs=60, t0=0.25, shrink=0.8):
    """Annealed subgradient descent for
    min_z 0.5 ||z - b||^2 + sum_r w_r |z[a_r] - z[b_r]| + sum_i l1_i |z_i|.

    Strongly convex, so a geometrically shrinking step with best-iterate
    tracking reaches high accuracy.
    """
    b = np.asarray(b, dtype=float)
    l1 = np.broadcast_to(np.asarray(l1, dtype=float), b.shape)

    def objective(z):
        val = 0.5 * np.sum((z - b) ** 2) + np.sum(l1 * np.abs(z))
        for (a, c), w in zip(pairs, weights):
            val += w * abs(z[a] - z[c])
        return val

    z = b.copy()
    best = z.copy()
    best_f = objective(z)
    step = t0
    for _ in range(epochs):
        for _ in range(iters):
            g = z - b + l1 * np.sign(z)
            for (a, c), w in zip(pairs, weights):
                sg = np.sign(z[a] - z[c])
                g[a] += w * sg
                g[c] -= w * sg
            z = z - step * g
            f = objective(z)
            if f < best_f:
                best_f = f
                best = z.copy()
        step *= shrink
        z = best.copy()
    return best


def projected_subgradient_glasso(
    S, lam1, iters=300, epochs=45, t0=0.05, shrink=0.8, floor=1e-8
):
    """Projected subgradient minimizer of
    -log det(T) + tr(S T) + lam1 * sum |T_ij| over positive definite T.

    An annealed subgradient phase with best-iterate tracking localizes the
    solution and its support; a second phase descends the smooth reduced
    objective on that support (signs and zeros fixed), which is exact once
    the support is right.  The identified zeros are verified against the
    stationarity bound before being trusted.
    """
    S = np.asarray(S, dtype=float)
    p = S.shape[0]

    def objective(T):
        sign, logdet = np.linalg.slogdet(T)
        if sign <= 0:
            return np.inf
        return -logdet + np.sum(S * T) + lam1 * np.abs(T).sum()

    def project(T):
        d, Q = np.linalg.eigh(0.5 * (T + T.T))
        return (Q * np.maximum(d, floor)) @ Q.T

    T = project(np.linalg.inv(S + lam1 * np.eye(p)))
    best = T.copy()
    best_f = objective(T)
    step = t0
    for _ in range(epochs):
        for _ in range(iters):
            G = S - np.linalg.inv(T) + lam1 * np.sign(T)
            T = project(T - step * G)
            f = objective(T)
            if f < best_f:
                best_f = f
                best = T.copy()
        step *= shrink
        T = best.copy()

    # polish: fix support and signs, descend the now-smooth objective
    # (backtracking treats a non-PD trial, whose objective is inf, as an increase)
    support = np.abs(best) > max(50 * step, 1e-6)
    np.fill_diagonal(support, True)
    signs = np.sign(best) * support
    T = best * support
    if objective(T) == np.inf:
        return best
    pol_step = 1e-2
    f_prev = objective(T)
    for _ in range(3000):
        G = (S - np.linalg.inv(T) + lam1 * signs) * support
        T_new = (T - pol_step * G) * support
        f_new = objective(T_new)
        if f_new > f_prev:
            pol_step *= 0.5
            if pol_step < 1e-12:
                break
            continue
        if f_prev - f_new < 1e-16 * max(1.0, abs(f_prev)):
            T = T_new
            break
        T, f_prev = T_new, f_new

    # accept the polish only if the excluded entries satisfy stationarity
    G_zero = (S - np.linalg.inv(T))[~support]
    if f_prev <= best_f and (G_zero.size == 0 or np.abs(G_zero).max() <= lam1 + 1e-6):
        return T
    return best


def matrix_prox_subgradient(A, rho1, lam1, lam_v, lam_i, lam_a,
                            iters=300, epochs=60, t0=0.3, shrink=0.8):
    """Full matrix-space minimizer of
    rho1/2 ||Z - A||_F^2 + lam1 ||Z||_1 + fused block penalties,
    by annealed subgradient descent over symmetric matrices.  Checks the
    half-vectorized reduction used by the production proximal step.
    """
    A = np.asarray(A, dtype=float)
    q = A.shape[0] // 2

    def objective(Z):
        LL, RR = Z[:q, :q], Z[q:, q:]
        LR, RL = Z[:q, q:], Z[q:, :q]
        off = LL - RR
        fused = (
            lam_v * np.abs(np.diag(off)).sum()
            + lam_i * (np.abs(off).sum() - np.abs(np.diag(off)).sum())
            + lam_a * np.abs(LR - RL).sum()
        )
        return 0.5 * rho1 * np.sum((Z - A) ** 2) + lam1 * np.abs(Z).sum() + fused

    Z = A.copy()
    best, best_f = Z.copy(), objective(Z)
    step = t0
    for _ in range(epochs):
        for _ in range(iters):
            G = rho1 * (Z - A) + lam1 * np.sign(Z)
            LL, RR = Z[:q, :q], Z[q:, q:]
            LR, RL = Z[:q, q:], Z[q:, :q]
            Gf = np.zeros_like(Z)
            dv = np.sign(np.diag(LL) - np.diag(RR))
            Gf[:q, :q] += lam_v * np.diag(dv)
            Gf[q:, q:] -= lam_v * np.diag(dv)
            off = np.sign(LL - RR)
            np.fill_diagonal(off, 0.0)
            Gf[:q, :q] += lam_i * off
            Gf[q:, q:] -= lam_i * off
            da = np.sign(LR - RL)
            Gf[:q, q:] += lam_a * da
            Gf[q:, :q] -= lam_a * da
            Z = Z - step * (G + Gf)
            Z = 0.5 * (Z + Z.T)
            f = objective(Z)
            if f < best_f:
                best_f = f
                best = Z.copy()
        step *= shrink
        Z = best.copy()
    return best


def ips_ggm_mle(S, cliques, max_iter=2000, tol=1e-13):
    """Iterative proportional scaling for the graphical Gaussian MLE.

    ``cliques`` lists index tuples covering every edge of the graph.  The
    concentration matrix starts diagonal and each sweep matches the
    marginal covariance on one clique at a time.
    """
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    K = np.diag(1.0 / np.diag(S))
    for _ in range(max_iter):
        K_old = K.copy()
        for c in cliques:
            c = np.asarray(c)
            Sigma = np.linalg.inv(K)
            adj = np.linalg.inv(S[np.ix_(c, c)]) - np.linalg.inv(Sigma[np.ix_(c, c)])
            K[np.ix_(c, c)] += adj
        if np.abs(K - K_old).max() < tol:
            break
    return K
