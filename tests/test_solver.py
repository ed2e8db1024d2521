import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdglasso.errors import NotPositiveDefiniteError
from pdglasso.paired import PairedIndex, pd_vec, swap_blocks
from pdglasso.penalties import (
    INF,
    PenaltySpec,
    lambda1_block_max,
    lambda1_diag_max,
    lambda2_sym_max,
    objective,
)
from pdglasso.solver import (
    AdmmConfig,
    FusedDiffOperator,
    _weighted_objective,
    fused_l1_prox,
    kkt_residual,
    kkt_violation,
    optimality_residual,
    pdglasso_solve,
    soft_threshold,
    theta_step,
    z_step,
)

from conftest import random_pd, random_sym
from oracles import (
    dense_F,
    kkt_violation_loop,
    pair_prox,
    projected_subgradient_glasso,
    subgradient_prox,
)


class TestSoftThreshold:
    def test_shrinks(self):
        assert soft_threshold(1.5, 1.0) == 0.5

    def test_zeroes_small_values(self):
        assert soft_threshold(-0.3, 1.0) == 0.0

    def test_zero_threshold_is_identity(self, rng):
        x = rng.standard_normal(20)
        assert np.array_equal(soft_threshold(x, 0.0), x)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    def test_elementwise_thresholds(self):
        out = soft_threshold(np.array([2.0, -2.0, 0.5]), np.array([1.0, 0.5, 1.0]))
        assert out.tolist() == [1.0, -1.5, 0.0]

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.floats(-1e6, 1e6, allow_nan=False),
        t=st.floats(0, 1e6, allow_nan=False),
    )
    def test_shrinkage_properties(self, x, t):
        out = soft_threshold(x, t)
        ulp = 1e-9 * max(1.0, abs(x), t)
        assert abs(out) <= max(abs(x) - t, 0.0) + ulp
        assert out == 0.0 or np.sign(out) == np.sign(x)
        assert abs(x - out) <= t + ulp


class TestFusedDiffOperator:
    def test_row_count_and_disjointness(self):
        for q in (1, 2, 3, 5):
            idx = PairedIndex(q)
            op = FusedDiffOperator.from_components(idx, 1.0, 1.0, 1.0)
            assert op.n_rows == q + 2 * idx.s
            coords = np.concatenate([op.first, op.second])
            assert len(np.unique(coords)) == len(coords)
            # across-diagonal coordinates appear in no row
            diag_lr = np.arange(2 * q + 4 * idx.s, idx.vec_length)
            assert not np.intersect1d(coords, diag_lr).size

    def test_fully_symmetric_maps_to_zero(self, rng):
        idx = PairedIndex(3)
        from pdglasso.paired import symmetrize_paired

        M = symmetrize_paired(random_sym(6, rng), idx)
        op = FusedDiffOperator.from_components(idx, 1.0, 1.0, 1.0)
        assert np.all(op.apply(pd_vec(M, idx)) == 0)

    def test_q1_single_row(self):
        idx = PairedIndex(1)
        op = FusedDiffOperator.from_components(idx, 1.0, 1.0, 1.0)
        assert op.n_rows == 1
        assert op.apply(np.array([2.0, 4.0, 1.0])).tolist() == [-2.0]

    def test_matches_dense_matrix(self, rng):
        for q in (1, 2, 3, 4):
            idx = PairedIndex(q)
            op = FusedDiffOperator.from_components(idx, 1.0, 1.0, 1.0)
            F = dense_F(q)
            v = rng.standard_normal(idx.vec_length)
            assert np.allclose(op.apply(v), F @ v)


class TestThetaStep:
    def test_identity_fixed_point(self):
        out = theta_step(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)), 1.0)
        assert np.allclose(out, np.eye(3), atol=1e-12)

    def test_golden_ratio_eigenvalues(self):
        # each eigenvalue solves x - 1/x + 1 - 2 = 0
        out = theta_step(np.eye(2), 2 * np.eye(2), np.zeros((2, 2)), 1.0)
        assert np.allclose(out, (1 + math.sqrt(5)) / 2 * np.eye(2), atol=1e-12)

    def test_first_order_condition(self, rng):
        for _ in range(5):
            S = random_pd(6, rng)
            Z = random_sym(6, rng)
            U = random_sym(6, rng)
            rho = 1.7
            T = theta_step(S, Z, U, rho)
            grad = -np.linalg.inv(T) + S + rho * (T - Z + U)
            assert np.abs(grad).max() < 1e-8
            assert np.linalg.eigvalsh(T).min() > 0

    def test_rejects_bad_step_size(self):
        with pytest.raises(ValueError):
            theta_step(np.eye(2), np.eye(2), np.eye(2), 0.0)


class TestInnerGeneralizedLasso:
    """The fused step as a generalized lasso over the difference operator,
    solved in closed form by :func:`fused_l1_prox`."""

    def setup_op(self, weights):
        idx = PairedIndex(1)
        return idx, FusedDiffOperator.from_row_weights(idx, np.array(weights))

    def test_zero_weights_identity(self, rng):
        idx, op = self.setup_op([0.0])
        b = rng.standard_normal(3)
        assert np.array_equal(fused_l1_prox(b, op, 0.0, 1.0), b)

    def test_pair_fuses_at_large_weight(self):
        idx, op = self.setup_op([2.0])
        z = fused_l1_prox(np.array([1.0, 3.0, 0.0]), op, 0.0, 1.0)
        assert z[0] == pytest.approx(2.0, abs=1e-7)
        assert z[1] == pytest.approx(2.0, abs=1e-7)

    def test_pair_shrinks_toward_mean(self):
        idx, op = self.setup_op([0.5])
        z = fused_l1_prox(np.array([1.0, 3.0, 0.0]), op, 0.0, 1.0)
        assert z[0] == pytest.approx(1.5, abs=1e-7)
        assert z[1] == pytest.approx(2.5, abs=1e-7)

    def test_matches_closed_form_on_random_pairs(self, rng):
        idx = PairedIndex(2)
        op = FusedDiffOperator.from_components(idx, 0.8, 0.3, 1.2)
        b = rng.standard_normal(idx.vec_length)
        z = fused_l1_prox(b, op, 0.0, 1.0)
        for r in range(op.n_rows):
            a, c = op.first[r], op.second[r]
            z1, z2 = pair_prox(b[a], b[c], op.weights[r], 0.0)
            assert z[a] == pytest.approx(z1, abs=1e-7)
            assert z[c] == pytest.approx(z2, abs=1e-7)

    def test_matches_fuse_then_shrink_with_l1_and_rho(self, rng):
        idx = PairedIndex(3)
        op = FusedDiffOperator.from_components(idx, 0.8, 0.3, 1.2)
        b = rng.standard_normal(idx.vec_length)
        rho, l1 = 1.7, 0.25
        z = fused_l1_prox(b, op, l1, rho)
        for r in range(op.n_rows):
            a, c = op.first[r], op.second[r]
            z1, z2 = pair_prox(b[a], b[c], op.weights[r] / rho, l1 / rho)
            assert z[a] == pytest.approx(z1, abs=1e-12)
            assert z[c] == pytest.approx(z2, abs=1e-12)

    def test_infinite_weight_gives_exact_tie(self):
        idx, op = self.setup_op([math.inf])
        z = fused_l1_prox(np.array([1.0, 3.0, 0.0]), op, 0.0, 1.0)
        assert z[0] == z[1] == 2.0

    def test_infinite_l1_weight_gives_exact_zero(self, rng):
        idx, op = self.setup_op([0.0])
        b = rng.standard_normal(3)
        z = fused_l1_prox(b, op, np.array([math.inf, 0.0, math.inf]), 1.0)
        assert z[0] == 0.0 and z[2] == 0.0
        assert z[1] == b[1]


class TestKktViolation:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_row_loop_exactly(self, data):
        # small value pools make exact zeros (of both signs) and exact ties common
        idx = PairedIndex(data.draw(st.integers(1, 4)))
        n, rows = idx.vec_length, idx.q + 2 * idx.s
        value = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.25]) | st.floats(-3, 3)
        weight = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 2)
        z = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
        G = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
        l1 = np.array(data.draw(st.lists(weight, min_size=n, max_size=n)))
        w = np.array(data.draw(st.lists(weight, min_size=rows, max_size=rows)))
        tie_tol = data.draw(st.sampled_from([0.0, 1e-7, 0.3]))
        op = FusedDiffOperator.from_row_weights(idx, w)
        assert kkt_violation(z, G, l1, op, tie_tol) == kkt_violation_loop(
            z, G, l1, op.first, op.second, op.weights, tie_tol
        )

    def test_matches_row_loop_on_solver_output(self, rng):
        S = random_pd(10, rng)
        idx = PairedIndex(5)
        spec = PenaltySpec(0.08, 0.05, 0.02, 0.1)
        theta, _ = pdglasso_solve(S, spec, AdmmConfig(max_outer=60, kkt_refine=False))
        op = FusedDiffOperator.from_components(idx, 0.05, 0.02, 0.1)
        z = pd_vec(theta, idx)
        G = pd_vec(S - np.linalg.inv(theta), idx)
        l1 = np.full(idx.vec_length, 0.08)
        assert np.any(z == 0) and np.any(op.apply(z) == 0)
        for tie_tol in (0.0, 1e-7, 1e-3):
            assert kkt_violation(z, G, l1, op, tie_tol) == kkt_violation_loop(
                z, G, l1, op.first, op.second, op.weights, tie_tol
            )

    def test_infinite_weights_met_add_nothing(self):
        idx = PairedIndex(1)
        z = np.array([2.0, 2.0, 0.0])
        G = np.array([0.1, -0.1, 5.0])
        l1 = np.array([0.0, 0.0, math.inf])
        op = FusedDiffOperator.from_row_weights(idx, np.array([math.inf]))
        assert kkt_violation(z, G, l1, op, 0.0) == 0.0

    def test_infinite_weights_violated_give_inf(self):
        idx = PairedIndex(1)
        G = np.zeros(3)
        op = FusedDiffOperator.from_row_weights(idx, np.array([math.inf]))
        untied = np.array([2.0, 2.5, 0.0])
        assert kkt_violation(untied, G, np.zeros(3), op, 1.0) == math.inf
        nonzero = np.array([2.0, 2.0, 0.1])
        l1 = np.array([0.0, 0.0, math.inf])
        assert kkt_violation(nonzero, G, l1, op, 0.0) == math.inf

    def test_not_positive_definite_gives_inf(self):
        idx = PairedIndex(1)
        op = FusedDiffOperator.from_components(idx, 0.1, 0.1, 0.1)
        l1 = np.full(3, 0.1)
        assert kkt_residual(-np.eye(2), np.eye(2), idx, l1, op) == math.inf
        # indefinite with a positive determinant
        M = np.diag([-1.0, -2.0])
        assert np.linalg.det(M) > 0
        assert kkt_residual(M, np.eye(2), idx, l1, op) == math.inf


class TestWeightedObjective:
    def test_infinite_weights_met_add_nothing(self):
        idx = PairedIndex(1)
        Z = np.array([[2.0, 0.0], [0.0, 2.0]])
        S = np.eye(2)
        op = FusedDiffOperator.from_row_weights(idx, np.array([math.inf]))
        l1 = np.array([0.0, 0.0, math.inf])
        expected = -2.0 * math.log(2.0) + 4.0
        assert _weighted_objective(Z, S, idx, l1, op) == pytest.approx(expected, abs=1e-12)

    def test_infinite_weights_violated_give_inf(self):
        idx = PairedIndex(1)
        S = np.eye(2)
        op = FusedDiffOperator.from_row_weights(idx, np.array([math.inf]))
        untied = np.array([[2.0, 0.0], [0.0, 3.0]])
        assert _weighted_objective(untied, S, idx, np.zeros(3), op) == math.inf
        off = np.array([[2.0, 0.5], [0.5, 2.0]])
        l1 = np.array([0.0, 0.0, math.inf])
        assert _weighted_objective(off, S, idx, l1, op) == math.inf

    def test_not_positive_definite_gives_inf(self):
        idx = PairedIndex(1)
        op = FusedDiffOperator.from_components(idx, 0.0, 0.0, 0.0)
        M = np.diag([-1.0, -2.0])
        assert _weighted_objective(M, np.eye(2), idx, np.zeros(3), op) == math.inf


class TestZStep:
    def test_zero_spec_returns_input(self, rng):
        A = random_sym(6, rng)
        out = z_step(A, PenaltySpec(0.0), 1.0)
        assert np.array_equal(out, A)

    def test_huge_l1_zeroes_everything(self, rng):
        A = random_sym(4, rng)
        out = z_step(A, PenaltySpec(1e6), 1.0)
        assert np.all(out == 0)

    def test_matches_subgradient_oracle(self, rng):
        idx = PairedIndex(2)
        A = random_sym(4, rng)
        rho1 = 1.3
        spec = PenaltySpec.uniform(0.21, 0.4)
        out = z_step(A, spec, rho1)

        op = FusedDiffOperator.from_components(idx, 1.0, 1.0, 1.0)
        pairs = list(zip(op.first.tolist(), op.second.tolist()))
        weights = [
            spec.lambda2_vertex / rho1,
            spec.lambda2_inside / rho1,
            spec.lambda2_across / rho1,
        ]
        row_w = [weights[0]] * idx.q + [weights[1]] * idx.s + [weights[2]] * idx.s
        ref = subgradient_prox(
            pd_vec(A, idx), pairs, row_w, spec.lambda1 / rho1
        )
        assert np.abs(pd_vec(out, idx) - ref).max() < 1e-5

    def test_matches_matrix_space_oracle(self, rng):
        # the proximal step works on half-vectorized coordinates; check the
        # reduction against a minimizer of the full matrix objective
        from oracles import matrix_prox_subgradient

        A = random_sym(4, rng)
        rho1 = 1.3
        spec = PenaltySpec(0.21, 0.37, 0.11, 0.52)
        out = z_step(A, spec, rho1)
        ref = matrix_prox_subgradient(
            A, rho1, spec.lambda1, spec.lambda2_vertex,
            spec.lambda2_inside, spec.lambda2_across,
        )
        assert np.abs(out - ref).max() < 1e-5

    def test_infinite_component_gives_exact_tie(self, rng):
        idx = PairedIndex(2)
        A = random_sym(4, rng)
        out = z_step(A, PenaltySpec(0.1, lambda2_inside=INF), 1.0)
        assert out[0, 1] == out[2, 3]


class TestPdglassoSolve:
    def test_diagonal_s_unpenalized(self):
        S = np.diag([1.0, 2.0, 4.0, 0.5])
        theta, report = pdglasso_solve(S, PenaltySpec(0.0))
        assert report.converged
        assert np.abs(theta - np.diag(1.0 / np.diag(S))).max() < 1e-6

    def test_diagonal_threshold(self, rng):
        S = random_pd(6, rng)
        lam = 1.0001 * lambda1_diag_max(S)
        theta, report = pdglasso_solve(S, PenaltySpec(lam, 0.1, 0.1, 0.1))
        off = theta - np.diag(np.diag(theta))
        assert report.converged
        assert np.abs(off).max() <= 1e-6

    def test_block_threshold(self, rng):
        idx = PairedIndex(3)
        S = random_pd(6, rng)
        lam = 1.0001 * lambda1_block_max(S, idx)
        theta, report = pdglasso_solve(S, PenaltySpec(lam, 0.05, 0.05, 0.05))
        assert report.converged
        assert np.abs(theta[:3, 3:]).max() <= 1e-6

    def test_symmetry_threshold(self, rng):
        idx = PairedIndex(3)
        S = random_pd(6, rng)
        lam2 = 1.0001 * lambda2_sym_max(S, idx)
        theta, report = pdglasso_solve(S, PenaltySpec.uniform(0.02, lam2))
        assert report.converged
        assert np.abs(theta[:3, :3] - theta[3:, 3:]).max() <= 1e-6
        assert np.abs(theta[:3, 3:] - theta[3:, :3]).max() <= 1e-6

    def test_matches_projected_subgradient_small(self, rng):
        S = random_pd(4, rng)
        for lam in (0.05, 0.2):
            theta, report = pdglasso_solve(S, PenaltySpec(lam))
            ref = projected_subgradient_glasso(S, lam)
            assert report.converged
            assert np.abs(theta - ref).max() < 1e-4

    def test_matches_projected_subgradient_p6(self, rng):
        S = random_pd(6, rng)
        theta, report = pdglasso_solve(S, PenaltySpec(0.1))
        ref = projected_subgradient_glasso(S, 0.1)
        assert report.converged
        assert np.abs(theta - ref).max() < 1e-4

    def test_infinite_components_act_as_constraints(self, rng):
        idx = PairedIndex(3)
        S = random_pd(6, rng)
        spec = PenaltySpec(0.05, INF, INF, INF)
        theta, report = pdglasso_solve(S, spec)
        assert report.converged and report.stop_reason == "kkt"
        assert np.array_equal(swap_blocks(theta, idx), theta)

    def test_infinite_components_give_exact_ties_and_zeros(self, rng):
        idx = PairedIndex(4)
        S = random_pd(8, rng)
        spec = PenaltySpec(0.6 * lambda1_diag_max(S), INF, INF, 0.0)
        theta, report = pdglasso_solve(S, spec)
        assert report.converged and not report.z_not_pd
        q = idx.q
        assert np.array_equal(theta[:q, :q], theta[q:, q:])
        assert np.any(theta == 0.0)

    def test_relabeling_equivariance(self, rng):
        idx = PairedIndex(3)
        S = random_pd(6, rng)
        spec = PenaltySpec.uniform(0.1, 0.05)
        theta, _ = pdglasso_solve(S, spec)
        theta_swapped, _ = pdglasso_solve(swap_blocks(S, idx), spec)
        assert np.abs(theta_swapped - swap_blocks(theta, idx)).max() < 1e-7

    def test_optimality_certificate(self, rng):
        cfg = AdmmConfig()
        S = random_pd(8, rng)
        spec = PenaltySpec.uniform(0.12, 0.04)
        theta, report = pdglasso_solve(S, spec, cfg)
        assert report.converged and report.kkt_ok
        assert optimality_residual(theta, S, spec) <= 10 * cfg.eps_abs

    def test_optimality_certificate_with_infinite_component(self, rng):
        cfg = AdmmConfig()
        S = random_pd(8, rng)
        spec = PenaltySpec(0.1, lambda2_vertex=INF, lambda2_inside=0.05)
        theta, report = pdglasso_solve(S, spec, cfg)
        assert report.stop_reason == "kkt"
        assert optimality_residual(theta, S, spec) <= 10 * cfg.eps_abs
        untied = theta.copy()
        untied[0, 0] += 0.1  # the vertex pair (0, 4) is no longer tied
        assert optimality_residual(untied, S, spec) == math.inf

    def test_objective_is_local_minimum(self, rng):
        S = random_pd(6, rng)
        spec = PenaltySpec.uniform(0.1, 0.05)
        theta, _ = pdglasso_solve(S, spec)
        base = objective(theta, S, spec)
        for _ in range(30):
            E = random_sym(6, rng)
            E *= 1e-3 / np.linalg.norm(E)
            assert objective(theta + E, S, spec) >= base

    def test_deterministic(self, rng):
        S = random_pd(6, rng)
        spec = PenaltySpec.uniform(0.1, 0.05)
        t1, _ = pdglasso_solve(S, spec)
        t2, _ = pdglasso_solve(S, spec)
        assert np.array_equal(t1, t2)

    def test_rejects_nonfinite(self):
        S = np.eye(4)
        S[0, 1] = S[1, 0] = math.nan
        with pytest.raises(ValueError):
            pdglasso_solve(S, PenaltySpec(0.1))

    def test_unpenalized_needs_pd(self):
        S = np.ones((4, 4))  # singular
        with pytest.raises(NotPositiveDefiniteError):
            pdglasso_solve(S, PenaltySpec(0.0))

    def test_diag_penalty_flag(self, rng):
        S = random_pd(4, rng)
        lam = 2.0 * lambda1_diag_max(S)
        theta, _ = pdglasso_solve(S, PenaltySpec(lam), diag_penalty=False)
        # diagonal solves 1/theta_ii = s_ii when unpenalized
        assert np.abs(np.diag(theta) - 1.0 / np.diag(S)).max() < 1e-6
        theta_pen, _ = pdglasso_solve(S, PenaltySpec(lam), diag_penalty=True)
        assert np.abs(np.diag(theta_pen) - 1.0 / (np.diag(S) + lam)).max() < 1e-6


class TestAdmmConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmmConfig(eps_abs=0.5)
        with pytest.raises(ValueError):
            AdmmConfig(max_outer=0)

    def test_nonconvergence_reported(self, rng):
        S = random_pd(6, rng)
        cfg = AdmmConfig(max_outer=2, kkt_refine=False)
        _, report = pdglasso_solve(S, PenaltySpec.uniform(0.3, 0.1), cfg)
        assert not report.converged
        assert report.outer_iterations == 2
        assert report.stop_reason == "max_outer"

    def test_stop_reasons(self, rng):
        S = random_pd(6, rng)
        spec = PenaltySpec.uniform(0.1, 0.05)
        _, report = pdglasso_solve(S, spec, AdmmConfig(kkt_refine=False))
        assert report.converged and report.stop_reason == "residuals"
        _, report = pdglasso_solve(S, spec, AdmmConfig())
        assert report.converged and report.stop_reason == "kkt"

    def test_has_four_fields(self):
        from dataclasses import fields

        assert [f.name for f in fields(AdmmConfig)] == [
            "eps_abs", "eps_rel", "max_outer", "kkt_refine",
        ]
