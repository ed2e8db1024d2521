"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The simulation study (criterion 7) is the slow part and stays
within ten minutes on four cores.
"""

import time

import numpy as np
import pytest

from pdglasso.model import (
    lrt,
    mle,
    mle_fully_symmetric,
    rcon_residual,
)
from pdglasso.paired import PairedIndex, swap_blocks
from pdglasso.penalties import (
    PenaltySpec,
    lambda1_block_max,
    lambda1_diag_max,
    lambda2_sym_max,
    objective,
)
from pdglasso.simulate import ScenarioSpec, run_scenario
from pdglasso.solver import AdmmConfig, optimality_residual, pdglasso_solve

from conftest import (
    graph_of,
    random_coloured_graph,
    random_fully_symmetric_graph,
    random_pd,
    random_sym,
)
from oracles import ips_ggm_mle, projected_subgradient_glasso

SIM_CFG = AdmmConfig(eps_abs=1e-7)


def _report(capfd, k, text):
    # emit outside capture so the line shows in plain `pytest -v` runs too
    with capfd.disabled():
        print(f"\nACCEPTANCE {k}: PASS - {text}")


def test_criterion_1_glasso_oracle_equivalence(capfd):
    rng = np.random.default_rng(101)
    worst = 0.0
    slowest = 0.0
    for i in range(10):
        S = random_pd(4, rng)
        for lam in (0.05, 0.2):
            t0 = time.perf_counter()
            theta, report = pdglasso_solve(S, PenaltySpec(lam))
            elapsed = time.perf_counter() - t0
            assert report.converged
            assert elapsed < 1.0, f"solve took {elapsed:.2f}s"
            ref = projected_subgradient_glasso(S, lam)
            err = float(np.abs(theta - ref).max())
            assert err <= 1e-4, f"instance {i}, lambda {lam}: {err:.2e}"
            worst = max(worst, err)
            slowest = max(slowest, elapsed)
    _report(capfd, 1, f"20 solves match the subgradient oracle "
               f"(worst {worst:.2e}, slowest {slowest*1e3:.0f} ms)")


def test_criterion_2_penalty_threshold_theorems(capfd):
    rng = np.random.default_rng(202)
    idx = PairedIndex(5)
    passed = 0
    for i in range(20):
        S = random_pd(10, rng)

        lam = 1.0001 * lambda1_diag_max(S)
        theta, rep = pdglasso_solve(S, PenaltySpec(lam, 0.05, 0.05, 0.05))
        off = theta - np.diag(np.diag(theta))
        assert rep.converged
        assert np.abs(off).max() <= 1e-6, f"diagonal threshold failed at {i}"

        lam = 1.0001 * lambda1_block_max(S, idx)
        theta, rep = pdglasso_solve(S, PenaltySpec(lam, 0.05, 0.05, 0.05))
        assert rep.converged
        assert np.abs(theta[:5, 5:]).max() <= 1e-6, f"block threshold failed at {i}"

        lam2 = 1.0001 * lambda2_sym_max(S, idx)
        lam1 = 0.02 * lambda1_diag_max(S)
        theta, rep = pdglasso_solve(S, PenaltySpec.uniform(lam1, lam2))
        assert rep.converged
        assert np.abs(theta[:5, :5] - theta[5:, 5:]).max() <= 1e-6
        assert np.abs(theta[:5, 5:] - theta[5:, :5]).max() <= 1e-6
        passed += 1
    assert passed == 20
    _report(capfd, 2, "20/20 instances hit the diagonal, block and symmetry thresholds")


def test_criterion_3_mle_correctness(capfd):
    rng = np.random.default_rng(303)
    # decomposable four-variable chain vs iterative proportional scaling
    chain = graph_of(2, [(0, 1), (1, 2), (2, 3)])
    S = random_pd(4, rng)
    theta = mle(S, chain)
    gap = float(np.abs(theta - ips_ggm_mle(S, [(0, 1), (1, 2), (2, 3)])).max())
    assert gap <= 1e-4

    from conftest import example_structures

    graphs = example_structures() + [random_coloured_graph(3, rng) for _ in range(6)]
    assert len(graphs) == 10
    worst = 0.0
    for k, g in enumerate(graphs):
        S = random_pd(6, rng)
        theta = mle(S, g)
        resid = rcon_residual(theta, S, g)
        assert resid <= 1e-5, f"model {k}: residual {resid:.2e}"
        worst = max(worst, resid)
    _report(capfd, 3, f"chain vs IPS gap {gap:.2e}; worst likelihood-equation "
               f"residual {worst:.2e} over 10 coloured models")


def test_criterion_4_fully_symmetric_equivalence(capfd):
    rng = np.random.default_rng(404)
    idx = PairedIndex(4)
    worst = 0.0
    for k in range(10):
        g = random_fully_symmetric_graph(4, rng)
        S = random_pd(8, rng)
        a = mle(S, g)
        b = mle_fully_symmetric(S, g)
        gap = float(np.abs(a - b).max())
        assert gap <= 1e-5, f"model {k}: {gap:.2e}"
        assert np.array_equal(swap_blocks(a, idx), a)
        assert np.array_equal(swap_blocks(b, idx), b)
        worst = max(worst, gap)
    _report(capfd, 4, f"10/10 fully symmetric models agree across both routes "
               f"(worst gap {worst:.2e}); outputs are exact swap fixed points")


def test_criterion_5_reference_lrt_arithmetic(capfd):
    dev_full, d_full = 12242.22, 194
    rows = [
        # (deviance_sub, d_sub, stat_ref, df_ref, critical_ref)
        (12285.79, 187, 43.56, 7, 14.07),
        (14218.92, 126, 1976.69, 68, 88.25),
        (12393.96, 185, 151.73, 9, 16.92),
    ]
    for dev_sub, d_sub, stat_ref, df_ref, crit_ref in rows:
        r = lrt(dev_full, d_full, dev_sub, d_sub, alpha=0.05)
        assert r.stat == pytest.approx(dev_sub - dev_full, abs=1e-9)
        assert abs(r.stat - stat_ref) <= 0.02
        assert r.df == df_ref
        assert abs(r.critical - crit_ref) <= 0.01
        assert r.reject
    _report(capfd, 5, "three reference tests reproduced: stats within 0.02, "
               "dfs exact, critical quantiles within 0.01")


def test_criterion_6_kkt_optimality(capfd):
    rng = np.random.default_rng(606)
    cfg = AdmmConfig()
    worst_kkt = 0.0
    for k in range(20):
        S = random_pd(10, rng)
        scale = float(np.abs(S).max())
        spec = PenaltySpec.uniform(
            0.1 * scale * rng.uniform(0.3, 1.0), 0.05 * scale * rng.uniform(0.2, 1.0)
        )
        theta, report = pdglasso_solve(S, spec, cfg)
        assert report.converged, f"problem {k} did not converge"
        assert report.kkt_ok, f"problem {k}: kkt residual {report.kkt_residual:.2e}"
        resid = optimality_residual(theta, S, spec)
        assert resid <= 10 * cfg.eps_abs, f"problem {k}: {resid:.2e}"
        worst_kkt = max(worst_kkt, resid)

        base = objective(theta, S, spec)
        for _ in range(100):
            E = random_sym(10, rng)
            E *= 1e-3 / np.linalg.norm(E)
            if np.linalg.eigvalsh(theta + E).min() <= 0:
                continue
            assert objective(theta + E, S, spec) >= base
    _report(capfd, 6, f"20/20 problems optimal to {worst_kkt:.2e} <= 1e-7; "
               f"objective non-improvable under 100 perturbations each")


def test_criterion_7_scaled_simulation_study(capfd):
    t0 = time.perf_counter()
    means = {}
    for frac in (1.0, 0.0):
        spec = ScenarioSpec(
            p=20, density=0.2, symmetry_fraction=frac, n_list=(50, 200),
            replications=5, seed=20250808, select_m=8,
        )
        rows = run_scenario(spec, SIM_CFG, threads=4)
        assert all(r.error is None for r in rows)
        for method in ("pdglasso", "glasso"):
            sel = [r for r in rows if r.method == method]
            means[(frac, method)] = (
                float(np.mean([r.f1 for r in sel])),
                float(np.mean([r.d for r in sel])),
            )
    elapsed = time.perf_counter() - t0

    f1_pd, d_pd = means[(1.0, "pdglasso")]
    f1_gl, d_gl = means[(1.0, "glasso")]
    assert d_pd < d_gl, f"full symmetry: d {d_pd:.1f} !< {d_gl:.1f}"
    assert f1_pd >= f1_gl - 0.02, f"full symmetry: f1 {f1_pd:.3f} vs {f1_gl:.3f}"

    f1_pd0, _ = means[(0.0, "pdglasso")]
    f1_gl0, _ = means[(0.0, "glasso")]
    assert abs(f1_pd0 - f1_gl0) <= 0.1

    assert elapsed <= 600, f"simulation took {elapsed:.0f}s"
    _report(capfd, 7, f"full symmetry d {d_pd:.1f} < {d_gl:.1f}, f1 {f1_pd:.3f} vs "
               f"{f1_gl:.3f}; no symmetry |f1 gap| = {abs(f1_pd0 - f1_gl0):.3f}; "
               f"{elapsed:.0f}s on 4 workers")


def test_criterion_8_simulation_determinism(tmp_path, capfd):
    from pdglasso.cli import main

    args = [
        "simulate", "--p", "6", "--density", "0.3", "--symmetry-fraction", "0.5",
        "--n-list", "40,60", "--replications", "2", "--seed", "31415", "--m", "3",
        "--eps-abs", "1e-7", "--eps-rel", "1e-7", "--no-kkt-refine",
    ]
    outputs = []
    for name, threads in (("r1.csv", "1"), ("r2.csv", "1"), ("r4.csv", "4")):
        out = tmp_path / name
        assert main(args + ["--output", str(out), "--threads", threads]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1], "re-run with the same seed differs"
    assert outputs[0] == outputs[2], "thread count changed the table"
    _report(capfd, 8, "CSV byte-identical across reruns and worker counts {1, 4}")
