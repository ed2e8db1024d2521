"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the production code paths: dense
operator matrices instead of index arithmetic, cofactor expansion instead of
LAPACK, subgradient descent and iterative proportional scaling instead of
ADMM, and hand-derived closed forms for the tiny fused problems.  The two
exceptions are built from the production steps so that they can be compared
bit for bit: :func:`admm_loop`, the solver's loop without its face polish,
and :func:`two_path_rows`, the simulation cells with one selection path per
method.
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


def diagonal_start(S, idx, l1_coord, row_w):
    """Reference for the solver's cold start: the minimizer over diagonal
    matrices, vertex pair by vertex pair, in the production's arithmetic so
    that the two agree bit for bit.

    With u = 1/diag(Theta) and c = diag(S) plus the diagonal l1 weights, a
    vertex pair (k, k + q) of weight w > 0 keeps its mean and shrinks its gap
    by 2 w, tying at a gap of at most 2 w; every other u_i is c_i.
    """
    q = idx.q
    u = [float(S[i, i]) + float(l1_coord[idx.coord_of[i, i]]) for i in range(idx.p)]
    for k in range(q):
        w = float(row_w[k])  # the vertex rows come first
        if w > 0:
            ca, cb = u[k], u[k + q]
            gap = ca - cb
            half = 0.5 * math.copysign(max(abs(gap) - 2.0 * w, 0.0), gap)
            mean = 0.5 * (ca + cb)
            u[k], u[k + q] = mean + half, mean - half
    return np.diag([1.0 / x for x in u])


def two_variable_minimizer(ca: float, cb: float, w: float, rounds: int = 30):
    """Brute-force minimizer of -log x - log y + ca x + cb y + w |x - y| over
    x, y > 0: a grid search in log coordinates that zooms in on its best
    point, the problem being convex there."""
    s = np.linspace(-1.0, 1.0, 201)
    center = np.zeros(2)
    half = 8.0
    for _ in range(rounds):
        lx, ly = np.meshgrid(center[0] + half * s, center[1] + half * s, indexing="ij")
        x, y = np.exp(lx), np.exp(ly)
        f = -lx - ly + ca * x + cb * y + w * np.abs(x - y)
        i, j = np.unravel_index(np.argmin(f), f.shape)
        center = np.array([lx[i, j], ly[i, j]])
        half /= 4.0
    return float(np.exp(center[0])), float(np.exp(center[1]))


def admm_loop(S, idx, l1_coord, row_w, cfg, start=None):
    """Reference for ``solve_weighted``: the same ADMM loop, from the same
    production steps and step size, without the Newton polish on the
    identified face, started at ``start`` or, when it is None, at
    :func:`diagonal_start`, with the dual that makes the first Theta step
    return it.

    Returns (estimate, outer iterations, stop reason), the estimate being Z,
    or the Theta step when Z is not positive definite.
    """
    from pdglasso import solver
    from pdglasso.paired import is_positive_definite, pd_unvec, pd_vec

    S = np.asarray(S, dtype=float)
    p = idx.p
    Z = diagonal_start(S, idx, l1_coord, row_w) if start is None else start
    rho1 = solver._rho_start(Z)
    U = (np.linalg.inv(Z) - S) / rho1
    stop_reason = "max_outer"
    iterations = 0
    for l in range(cfg.max_outer):
        iterations = l + 1
        Theta = solver.theta_step(S, Z, U, rho1)
        Z_new = pd_unvec(solver.fused_l1_prox(pd_vec(Theta + U, idx), idx, l1_coord, row_w, rho1), idx)
        U = U + Theta - Z_new
        primal = float(np.linalg.norm(Theta - Z_new))
        dual = rho1 * float(np.linalg.norm(Z_new - Z))
        eps_pri = p * cfg.eps_abs + cfg.eps_rel * max(
            float(np.linalg.norm(Theta)), float(np.linalg.norm(Z_new))
        )
        eps_dual = p * cfg.eps_abs + cfg.eps_rel * rho1 * float(np.linalg.norm(U))
        Z = Z_new
        if primal <= eps_pri and dual <= eps_dual:
            kkt = solver.kkt_residual(Z, S, idx, l1_coord, row_w)
            if kkt <= solver._KKT_TOL_FACTOR * cfg.eps_abs:
                stop_reason = "kkt"
                break
    if not is_positive_definite(Z):
        Z = solver.theta_step(S, Z, U, rho1)
    return Z, iterations, stop_reason


def two_path_rows(spec, cfg):
    """Reference for ``simulate.run_scenario``: every cell draws its own truth
    and is scored from the winners of two independent ``selection_path``
    calls, one per submodel class (grid on every fused component for
    pdglasso, zero on every one for glasso).

    Returns the rows in ``run_scenario``'s order.  A failed selection gives
    that method's row NaN scores and the error message.
    """
    from pdglasso import simulate
    from pdglasso.errors import PdglassoError
    from pdglasso.model import SubmodelClass, selection_path

    methods = (("pdglasso", SubmodelClass("grid", "grid", "grid")),
               ("glasso", SubmodelClass("zero", "zero", "zero")))
    rows = []
    for rep in range(spec.replications):
        for n in spec.n_list:
            truth_rng = simulate.child_rng(spec.seed, simulate._TRUTH_TAG, rep)
            Sigma, truth = simulate.pdrcon_covariance(spec, cfg, seed=truth_rng)
            theta_true = np.linalg.inv(Sigma)
            S = simulate.mvn_sample_cov(
                Sigma, n, simulate.child_rng(spec.seed, simulate._SAMPLE_TAG, rep, n)
            )
            for method, class_spec in methods:
                try:
                    fit, _ = selection_path(S, n, spec.select_m, spec.select_gamma,
                                            class_spec, cfg)
                except (PdglassoError, np.linalg.LinAlgError) as exc:
                    rows.append(simulate.CellResult(
                        spec.label, n, rep, method, *[math.nan] * 6, 0, math.nan, False,
                        error=str(exc),
                    ))
                    continue
                scores = simulate.edge_metrics(truth, fit.graph)
                losses = simulate.matrix_losses(fit.theta_mle, theta_true)
                rows.append(simulate.CellResult(
                    spec.label, n, rep, method,
                    scores.ppv, scores.tpr, scores.f1, scores.mcc,
                    losses.frobenius, losses.entropy,
                    fit.d, fit.ebic, fit.report.converged,
                ))
    return rows
