import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdglasso import solver
from pdglasso.errors import DimensionError, MleError, NotPositiveDefiniteError
from pdglasso.paired import (
    PairedIndex, checked_cov, is_positive_definite, pd_unvec, pd_vec, swap_blocks,
)
from pdglasso.penalties import (
    INF,
    PenaltySpec,
    lambda1_block_max,
    lambda1_diag_max,
    lambda2_sym_max,
    objective,
    penalty_weights,
    weighted_objective,
)
from pdglasso.solver import (
    AdmmConfig,
    fused_l1_prox,
    kkt_residual,
    kkt_violation,
    optimality_residual,
    _shrink,
    pdglasso_solve,
    solve_weighted,
    theta_step,
)

from conftest import equicorrelated, random_pd, random_sym
from oracles import (
    admm_loop,
    dense_F,
    diagonal_start,
    kkt_violation_loop,
    pair_prox,
    projected_subgradient_glasso,
    subgradient_prox,
    two_variable_minimizer,
)


class TestSoftThreshold:
    """``_shrink``, the soft-threshold of the fused/l1 proximal step."""

    def test_shrinks(self):
        assert _shrink(np.float64(1.5), 1.0) == 0.5

    def test_zeroes_small_values(self):
        assert _shrink(np.float64(-0.3), 1.0) == 0.0

    def test_zero_threshold_is_identity(self, rng):
        x = rng.standard_normal(20)
        assert np.array_equal(_shrink(x, 0.0), x)

    def test_negative_threshold_rejected(self):
        # _shrink trusts its thresholds; the proximal step checks them
        idx = PairedIndex(1)
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            fused_l1_prox(np.ones(idx.vec_length), idx, np.full(idx.vec_length, -0.1),
                          idx.component_rows(0.0, 0.0, 0.0), 1.0)

    def test_elementwise_thresholds(self):
        out = _shrink(np.array([2.0, -2.0, 0.5]), np.array([1.0, 0.5, 1.0]))
        assert out.tolist() == [1.0, -1.5, 0.0]

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.floats(-1e6, 1e6, allow_nan=False),
        t=st.floats(0, 1e6, allow_nan=False),
    )
    def test_shrinkage_properties(self, x, t):
        out = float(_shrink(np.float64(x), t))
        ulp = 1e-9 * max(1.0, abs(x), t)
        assert abs(out) <= max(abs(x) - t, 0.0) + ulp
        assert out == 0.0 or np.sign(out) == np.sign(x)
        assert abs(x - out) <= t + ulp


def fused_diffs(idx, v):
    """F v, the differences over the rows of ``idx.fused_pairs``."""
    first, second = idx.fused_pairs
    return v[first] - v[second]


class TestFusedPairs:
    def test_row_count_and_disjointness(self):
        for q in (1, 2, 3, 5):
            idx = PairedIndex(q)
            first, second = idx.fused_pairs
            assert idx.n_rows == len(first) == len(second) == q + 2 * idx.s
            coords = np.concatenate([first, second])
            assert len(np.unique(coords)) == len(coords)
            # across-diagonal coordinates appear in no row
            diag_lr = np.arange(2 * q + 4 * idx.s, idx.vec_length)
            assert not np.intersect1d(coords, diag_lr).size

    def test_fully_symmetric_maps_to_zero(self, rng):
        idx = PairedIndex(3)
        from pdglasso.paired import symmetrize_paired

        M = symmetrize_paired(random_sym(6, rng), idx)
        assert np.all(fused_diffs(idx, pd_vec(M, idx)) == 0)

    def test_q1_single_row(self):
        idx = PairedIndex(1)
        assert idx.n_rows == 1
        assert fused_diffs(idx, np.array([2.0, 4.0, 1.0])).tolist() == [-2.0]

    def test_matches_dense_matrix(self, rng):
        for q in (1, 2, 3, 4):
            idx = PairedIndex(q)
            F = dense_F(q)
            v = rng.standard_normal(idx.vec_length)
            assert np.allclose(fused_diffs(idx, v), F @ v)

    def test_solve_needs_one_weight_per_row(self):
        idx = PairedIndex(2)
        l1 = np.zeros(idx.vec_length)
        with pytest.raises(DimensionError):
            solve_weighted(np.eye(4), idx, l1, np.zeros(idx.n_rows + 1), AdmmConfig())


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

    def test_rejects_non_finite_input(self):
        Z = np.eye(2)
        Z[0, 1] = Z[1, 0] = math.nan
        with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
            theta_step(np.eye(2), Z, np.zeros((2, 2)), 1.0)


class TestInnerGeneralizedLasso:
    """The fused step as a generalized lasso over the difference operator,
    solved in closed form by :func:`fused_l1_prox`."""

    def setup_rows(self, weights):
        return PairedIndex(1), np.array(weights)

    def test_zero_weights_identity(self, rng):
        idx, w = self.setup_rows([0.0])
        b = rng.standard_normal(3)
        assert np.array_equal(fused_l1_prox(b, idx, 0.0, w, 1.0), b)

    def test_pair_fuses_at_large_weight(self):
        idx, w = self.setup_rows([2.0])
        z = fused_l1_prox(np.array([1.0, 3.0, 0.0]), idx, 0.0, w, 1.0)
        assert z[0] == pytest.approx(2.0, abs=1e-7)
        assert z[1] == pytest.approx(2.0, abs=1e-7)

    def test_pair_shrinks_toward_mean(self):
        idx, w = self.setup_rows([0.5])
        z = fused_l1_prox(np.array([1.0, 3.0, 0.0]), idx, 0.0, w, 1.0)
        assert z[0] == pytest.approx(1.5, abs=1e-7)
        assert z[1] == pytest.approx(2.5, abs=1e-7)

    def test_matches_closed_form_on_random_pairs(self, rng):
        idx = PairedIndex(2)
        w = idx.component_rows(0.8, 0.3, 1.2)
        b = rng.standard_normal(idx.vec_length)
        z = fused_l1_prox(b, idx, 0.0, w, 1.0)
        for a, c, w_r in zip(*idx.fused_pairs, w):
            z1, z2 = pair_prox(b[a], b[c], w_r, 0.0)
            assert z[a] == pytest.approx(z1, abs=1e-7)
            assert z[c] == pytest.approx(z2, abs=1e-7)

    def test_matches_fuse_then_shrink_with_l1_and_rho(self, rng):
        idx = PairedIndex(3)
        w = idx.component_rows(0.8, 0.3, 1.2)
        b = rng.standard_normal(idx.vec_length)
        rho, l1 = 1.7, 0.25
        z = fused_l1_prox(b, idx, l1, w, rho)
        for a, c, w_r in zip(*idx.fused_pairs, w):
            z1, z2 = pair_prox(b[a], b[c], w_r / rho, l1 / rho)
            assert z[a] == pytest.approx(z1, abs=1e-12)
            assert z[c] == pytest.approx(z2, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(q=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           rho=st.floats(1e-3, 1e3))
    def test_equals_its_soft_threshold_definition_bit_for_bit(self, q, seed, rho):
        idx = PairedIndex(q)
        r = np.random.default_rng(seed)
        b = r.standard_normal(idx.vec_length)
        w = r.choice([0.0, 0.3, 2.0, math.inf], idx.n_rows)
        l1 = np.full(idx.vec_length, r.choice([0.0, 0.1, 1.0]))
        a, c = idx.fused_pairs
        a, c, w_on = a[w > 0], c[w > 0], w[w > 0]
        ref = b.copy()
        mean = 0.5 * (ref[a] + ref[c])
        half_gap = 0.5 * _shrink(ref[a] - ref[c], 2.0 * w_on / rho)
        ref[a] = mean + half_gap
        ref[c] = mean - half_gap
        ref = _shrink(ref, l1 / rho)
        before = b.copy()
        assert fused_l1_prox(b, idx, l1, w, rho).tobytes() == ref.tobytes()
        assert b.tobytes() == before.tobytes()

    def test_negative_thresholds_rejected(self):
        idx, w = self.setup_rows([1.0])
        b = np.array([1.0, 3.0, 0.0])
        with pytest.raises(ValueError, match="threshold"):
            fused_l1_prox(b, idx, np.array([0.0, 0.0, -1.0]), w, 1.0)
        with pytest.raises(ValueError, match="threshold"):
            fused_l1_prox(b, idx, 0.0, w, -1.0)

    def test_solve_rejects_a_negative_l1_weight_before_any_step(self, monkeypatch):
        from pdglasso import solver

        calls = []
        monkeypatch.setattr(solver, "theta_step", lambda *a: calls.append(a))
        idx = PairedIndex(1)
        with pytest.raises(ValueError, match="l1 weights must be >= 0"):
            solve_weighted(np.eye(2), idx, np.array([0.1, 0.1, -0.1]),
                           np.zeros(idx.n_rows), AdmmConfig())
        assert calls == []

    def test_infinite_weight_gives_exact_tie(self):
        idx, w = self.setup_rows([math.inf])
        z = fused_l1_prox(np.array([1.0, 3.0, 0.0]), idx, 0.0, w, 1.0)
        assert z[0] == z[1] == 2.0

    def test_infinite_l1_weight_gives_exact_zero(self, rng):
        idx, w = self.setup_rows([0.0])
        b = rng.standard_normal(3)
        z = fused_l1_prox(b, idx, np.array([math.inf, 0.0, math.inf]), w, 1.0)
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
        assert kkt_violation(z, G, idx, l1, w, tie_tol) == kkt_violation_loop(
            z, G, l1, *idx.fused_pairs, w, tie_tol
        )

    def test_matches_row_loop_on_solver_output(self, rng):
        S = random_pd(10, rng)
        idx = PairedIndex(5)
        spec = PenaltySpec(0.08, 0.05, 0.02, 0.1)
        theta, _ = pdglasso_solve(S, spec, AdmmConfig(max_outer=60))
        w = idx.component_rows(0.05, 0.02, 0.1)
        z = pd_vec(theta, idx)
        G = pd_vec(S - np.linalg.inv(theta), idx)
        l1 = np.full(idx.vec_length, 0.08)
        assert np.any(z == 0) and np.any(fused_diffs(idx, z) == 0)
        for tie_tol in (0.0, 1e-7, 1e-3):
            assert kkt_violation(z, G, idx, l1, w, tie_tol) == kkt_violation_loop(
                z, G, l1, *idx.fused_pairs, w, tie_tol
            )

    def test_infinite_weights_met_add_nothing(self):
        idx = PairedIndex(1)
        z = np.array([2.0, 2.0, 0.0])
        G = np.array([0.1, -0.1, 5.0])
        l1 = np.array([0.0, 0.0, math.inf])
        w = np.array([math.inf])
        assert kkt_violation(z, G, idx, l1, w, 0.0) == 0.0

    def test_infinite_weights_violated_give_inf(self):
        idx = PairedIndex(1)
        G = np.zeros(3)
        w = np.array([math.inf])
        untied = np.array([2.0, 2.5, 0.0])
        assert kkt_violation(untied, G, idx, np.zeros(3), w, 1.0) == math.inf
        nonzero = np.array([2.0, 2.0, 0.1])
        l1 = np.array([0.0, 0.0, math.inf])
        assert kkt_violation(nonzero, G, idx, l1, w, 0.0) == math.inf

    def test_not_positive_definite_gives_inf(self):
        idx = PairedIndex(1)
        w = idx.component_rows(0.1, 0.1, 0.1)
        l1 = np.full(3, 0.1)
        assert kkt_residual(-np.eye(2), np.eye(2), idx, l1, w) == math.inf
        # indefinite with a positive determinant
        M = np.diag([-1.0, -2.0])
        assert np.linalg.det(M) > 0
        assert kkt_residual(M, np.eye(2), idx, l1, w) == math.inf


class TestWeightedObjective:
    def test_infinite_weights_met_add_nothing(self):
        idx = PairedIndex(1)
        Z = np.array([[2.0, 0.0], [0.0, 2.0]])
        S = np.eye(2)
        w = np.array([math.inf])
        l1 = np.array([0.0, 0.0, math.inf])
        expected = -2.0 * math.log(2.0) + 4.0
        assert weighted_objective(Z, S, idx, l1, w) == pytest.approx(expected, abs=1e-12)

    def test_infinite_weights_violated_give_inf(self):
        idx = PairedIndex(1)
        S = np.eye(2)
        w = np.array([math.inf])
        untied = np.array([[2.0, 0.0], [0.0, 3.0]])
        assert weighted_objective(untied, S, idx, np.zeros(3), w) == math.inf
        off = np.array([[2.0, 0.5], [0.5, 2.0]])
        l1 = np.array([0.0, 0.0, math.inf])
        assert weighted_objective(off, S, idx, l1, w) == math.inf

    def test_not_positive_definite_raises(self):
        idx = PairedIndex(1)
        w = idx.component_rows(0.0, 0.0, 0.0)
        M = np.diag([-1.0, -2.0])
        with pytest.raises(NotPositiveDefiniteError):
            weighted_objective(M, np.eye(2), idx, np.zeros(3), w)

    def test_solve_reports_inf_for_an_estimate_off_the_cone(self, monkeypatch):
        # the Theta step returned at a singular max_outer stop is made
        # indefinite: the solve's one exit records the evaluator's error as
        # +inf, as it does the certificate
        step = solver.theta_step
        calls = []

        def theta_step(*args):
            calls.append(None)
            return step(*args) if len(calls) == 1 else -step(*args)

        monkeypatch.setattr(solver, "theta_step", theta_step)
        S = equicorrelated(6)
        theta, report = pdglasso_solve(S, PenaltySpec(0.1 * lambda1_diag_max(S)),
                                       AdmmConfig(max_outer=1))
        assert len(calls) == 2 and report.z_not_pd and not is_positive_definite(theta)
        assert report.objective_value == math.inf and report.kkt_residual == math.inf

    def test_report_objective_is_the_penalties_objective_bit_for_bit(self, rng):
        """One evaluator: a certified solve under a mixed finite/Inf spec
        reports exactly what :func:`objective` gives for its estimate."""
        S = random_pd(8, rng)
        spec = PenaltySpec(0.1 * lambda1_diag_max(S), INF, 0.05, 0.02)
        theta, report = pdglasso_solve(S, spec, AdmmConfig(), diag_penalty=True)
        assert report.kkt_ok and math.isfinite(report.objective_value)
        assert report.objective_value == objective(theta, S, spec)


def z_step(A, spec, rho1):
    """The fused/l1 proximal step of ``spec`` applied to a symmetric matrix."""
    idx = PairedIndex.from_p(A.shape[0])
    l1_coord, row_w = penalty_weights(spec, idx)
    return pd_unvec(fused_l1_prox(pd_vec(A, idx), idx, l1_coord, row_w, rho1), idx)


class TestZStep:
    """``fused_l1_prox`` on the half-vectorized coordinates of a matrix."""

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

        first, second = idx.fused_pairs
        pairs = list(zip(first.tolist(), second.tolist()))
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


class TestSolveWeightedInputChecks:
    def _args(self, q=2):
        idx = PairedIndex(q)
        l1_coord, row_w = penalty_weights(PenaltySpec(0.1, 0.2, 0.2, 0.2), idx)
        return np.eye(idx.p), idx, l1_coord, row_w, AdmmConfig()

    def test_non_finite_S(self):
        S, idx, l1_coord, row_w, cfg = self._args()
        S[0, 0] = math.inf
        with pytest.raises(ValueError, match="non-finite"):
            solve_weighted(S, idx, l1_coord, row_w, cfg)

    def test_l1_weights_of_wrong_length(self):
        S, idx, l1_coord, row_w, cfg = self._args()
        with pytest.raises(DimensionError, match="l1 weight vector"):
            solve_weighted(S, idx, l1_coord[:-1], row_w, cfg)

    def test_unequal_l1_weights_in_an_active_pair(self):
        S, idx, l1_coord, row_w, cfg = self._args()
        first, _ = idx.fused_pairs
        l1_coord[first[0]] = 0.5
        with pytest.raises(ValueError, match="active fused pair"):
            solve_weighted(S, idx, l1_coord, row_w, cfg)


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
        with pytest.raises(ValueError, match="non-finite"):
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


def face_masks(theta, idx, row_w, noise=0.0):
    """Zero, tie and sign masks of an estimate over the active fused rows;
    coordinates and gaps within ``noise`` of zero read as zeros and ties."""
    z = pd_vec(theta, idx)
    gap = fused_diffs(idx, z)[row_w > 0]
    z, gap = (np.where(np.abs(v) <= noise, 0.0, v) for v in (z, gap))
    return z == 0, gap == 0, np.sign(z), np.sign(gap)


def assert_matches_plain_admm(theta, ref, idx, row_w, cfg):
    """The solver's estimate, read exactly, has the face of the plain ADMM's
    estimate ``ref`` and lies within 1e-6 of it.

    ``ref`` is read within the noise bound of ``solver._face_newton``,
    min(tol / ||ref^-1||_F^2, 1e-5 max(1, max|ref|)): a gap or coordinate
    that small moves the gradient by at most the certificate's tolerance, so
    the certificate cannot tell it from a tie or a zero.  At a fused weight
    on its tie threshold the optimum is tied, and the plain ADMM, which has no
    polish, can stop certified at a gap of rounding size.
    """
    Sigma = np.linalg.inv(ref)
    tol = solver._KKT_TOL_FACTOR * cfg.eps_abs
    noise = min(tol / float(np.sum(Sigma * Sigma)), 1e-5 * max(1.0, float(np.abs(ref).max())))
    for got, want in zip(face_masks(theta, idx, row_w), face_masks(ref, idx, row_w, noise)):
        assert np.array_equal(got, want)
    assert np.abs(theta - ref).max() <= 1e-6


def random_instance(data):
    """A small paired problem with finite and infinite fused components."""
    q = data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**32 - 1))
    r = np.random.default_rng(seed)
    S = random_pd(2 * q, r)
    idx = PairedIndex(q)
    return S, idx, random_spec(data, S, idx)


def random_spec(data, S, idx):
    """A penalty for S with l1 weight and finite, zero or infinite fused
    components drawn relative to its thresholds."""
    top = lambda2_sym_max(S, idx)
    component = st.sampled_from([0.0, INF]) | st.floats(0.05, 1.0).map(lambda c: c * top)
    return PenaltySpec(
        data.draw(st.floats(0.05, 0.9)) * lambda1_diag_max(S),
        data.draw(component), data.draw(component), data.draw(component),
    )


def correlated_problem(rng, q=4):
    """A strongly correlated S (ridge 0.01) at 3% of its diagonal threshold,
    with every kind of fused weight: from the diagonal start its face
    changes several times before it settles."""
    S = random_pd(2 * q, rng, ridge=0.01)
    lam = 0.03 * lambda1_diag_max(S)
    idx = PairedIndex(q)
    return (S, idx, *penalty_weights(PenaltySpec(lam, INF, lam / 2, lam / 5), idx))


class TestFacePolish:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_plain_admm(self, data):
        S, idx, spec = random_instance(data)
        cfg = AdmmConfig(eps_abs=1e-10)
        l1, w = penalty_weights(spec, idx)
        theta, report = solve_weighted(S, idx, l1, w, cfg)
        ref, _, ref_stop = admm_loop(S, idx, l1, w, cfg)
        assert report.stop_reason == ref_stop == "kkt"
        assert_matches_plain_admm(theta, ref, idx, w, cfg)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_warm_start_moves_the_estimate_only_within_tolerance(self, data):
        S, idx, first = random_instance(data)
        second = random_spec(data, S, idx)
        cfg = AdmmConfig(eps_abs=1e-10)
        estimate, _ = solve_weighted(S, idx, *penalty_weights(first, idx), cfg)
        l1, w = penalty_weights(second, idx)
        warm, warm_report = solve_weighted(S, idx, l1, w, cfg, start=estimate)
        cold, cold_report = solve_weighted(S, idx, l1, w, cfg)
        assert warm_report.stop_reason == cold_report.stop_reason == "kkt"
        for got, want in zip(face_masks(warm, idx, w), face_masks(cold, idx, w)):
            assert np.array_equal(got, want)
        assert np.abs(warm - cold).max() <= 1e-6
        assert warm_report.kkt_residual <= 10 * cfg.eps_abs

    @staticmethod
    def record_steps(monkeypatch):
        """The (Z, U, rho1) of every Theta step, filled as the solves run."""
        steps = []
        step = solver.theta_step

        def recording_step(S, Z, U, rho1):
            steps.append((Z.copy(), U.copy(), rho1))
            return step(S, Z, U, rho1)

        monkeypatch.setattr(solver, "theta_step", recording_step)
        return steps

    def test_cold_start_is_the_default(self, rng, monkeypatch):
        # without a start, the first Theta step returns the diagonal optimum,
        # from the dual of the start rule, at the step size of its curvature
        steps = self.record_steps(monkeypatch)
        S = random_pd(6, rng)
        idx = PairedIndex(3)
        l1, w = penalty_weights(PenaltySpec.uniform(0.1, 0.05), idx)
        cfg = AdmmConfig()
        theta, report = solve_weighted(S, idx, l1, w, cfg)
        Z, U, rho1 = steps[0]
        start = diagonal_start(S, idx, l1, w)
        assert np.array_equal(Z, start) and rho1 == solver._rho_start(start)
        assert np.array_equal(U, (np.linalg.inv(start) - S) / rho1)
        assert np.abs(theta_step(S, Z, U, rho1) - start).max() <= 1e-10
        again, again_report = solve_weighted(S, idx, l1, w, cfg, start=None)
        assert np.array_equal(theta, again)
        assert again_report.outer_iterations == report.outer_iterations
        # started again from its own estimate, a solve needs fewer iterations
        _, warm_report = solve_weighted(S, idx, l1, w, cfg, start=theta)
        assert warm_report.outer_iterations < report.outer_iterations

    def test_warm_start_is_the_restart_rule(self, rng, monkeypatch):
        # the first Theta step of a warm solve returns its start, from the
        # dual of the start rule, at the step size of the start's curvature
        steps = self.record_steps(monkeypatch)
        S = random_pd(8, rng)
        idx = PairedIndex(4)
        l1, w = penalty_weights(PenaltySpec(0.1, INF, 0.05, 0.02), idx)
        start = random_pd(8, rng)
        solve_weighted(S, idx, l1, w, AdmmConfig(), start=start)
        Z, U, rho1 = steps[0]
        assert np.array_equal(Z, start) and rho1 == solver._rho_start(start)
        assert np.array_equal(U, (np.linalg.inv(start) - S) / rho1)
        assert np.abs(theta_step(S, Z, U, rho1) - start).max() <= 1e-10

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_certified_start_is_returned_as_it_is(self, rng, monkeypatch, warm):
        # cold: at the diagonal threshold the diagonal optimum is the
        # solution; warm: a solve started at its own certified estimate
        S = random_pd(8, rng)
        idx = PairedIndex(4)
        lam1 = 0.1 if warm else lambda1_diag_max(S)
        l1, w = penalty_weights(PenaltySpec(lam1, INF, 0.05, 0.02), idx)
        cfg = AdmmConfig()
        if warm:
            start, first = solve_weighted(S, idx, l1, w, cfg)
            assert first.outer_iterations > 0
        else:
            a, b, active = solver._active_rows(idx, w)
            start = solver._diagonal_start(S, idx, l1, a, b, 2.0 * active)
        steps = self.record_steps(monkeypatch)
        theta, report = solve_weighted(S, idx, l1, w, cfg, start=start if warm else None)
        assert steps == []
        assert np.array_equal(theta, start) and theta is not start
        assert report.outer_iterations == 0 and report.polish_attempts == 0
        assert report.stop_reason == "kkt" and not report.z_not_pd
        assert report.kkt_residual == kkt_residual(start, S, idx, l1, w) <= 10 * cfg.eps_abs

    @pytest.mark.parametrize("start, error", [
        (np.eye(6), DimensionError),
        (np.diag([1.0] * 7 + [0.0]), NotPositiveDefiniteError),
        (np.full((8, 8), np.nan), NotPositiveDefiniteError),
    ], ids=["shape", "singular", "nan"])
    def test_bad_start_raises_before_the_first_step(self, rng, monkeypatch, start, error):
        steps = self.record_steps(monkeypatch)
        S = random_pd(8, rng)
        idx = PairedIndex(4)
        l1, w = penalty_weights(PenaltySpec.uniform(0.1, 0.05), idx)
        with pytest.raises(error):
            solve_weighted(S, idx, l1, w, AdmmConfig(), start=start)
        assert steps == []

    @staticmethod
    def at_the_plain_admm_stop(S, idx, l1, w):
        """A config whose ``max_outer`` is the iteration at which the plain
        ADMM (``admm_loop``) stops on its own, certified."""
        _, iterations, stop_reason = admm_loop(S, idx, l1, w, AdmmConfig())
        assert stop_reason == "kkt"
        return AdmmConfig(max_outer=iterations)

    @pytest.mark.parametrize("fraction, certified", [
        pytest.param(1, True, id="True"),
        # half the plain ADMM's iterations: the solve steps past iterates
        # whose certificates fail, checking none of them, and returns one
        pytest.param(2, False, id="True-past-failed-certificates"),
    ])
    def test_rejected_polish_leaves_admm_unchanged(self, rng, monkeypatch, fraction, certified):
        # with every face solve failing, only max_outer ends the solve, and
        # it returns the plain ADMM's iterate after as many steps
        def fail(*args, **kwargs):
            raise MleError("face solver failed")

        monkeypatch.setattr(solver, "_rcon_newton", fail)
        S = random_pd(8, rng)
        idx = PairedIndex(4)
        l1, w = penalty_weights(PenaltySpec(0.1, INF, 0.05, 0.02), idx)
        at_stop = self.at_the_plain_admm_stop(S, idx, l1, w)
        cfg = AdmmConfig(max_outer=at_stop.max_outer // fraction)
        theta, report = solve_weighted(S, idx, l1, w, cfg)
        ref, iterations, _ = admm_loop(S, idx, l1, w, cfg)
        assert report.polish_attempts >= 1
        assert np.array_equal(theta, ref)
        assert report.outer_iterations == iterations == cfg.max_outer
        assert report.stop_reason == "max_outer" and not report.z_not_pd
        # the certificate of what is returned, met at the plain ADMM's stop
        # and failed half way to it
        assert report.kkt_residual == kkt_residual(theta, S, idx, l1, w)
        assert (report.kkt_residual <= 10 * cfg.eps_abs) == certified

    def test_rejected_polish_at_any_certificate_leaves_admm_unchanged(self, rng, monkeypatch):
        # after a first rejected polish at certificate 1, better, equal and
        # worse certificates must leave the ADMM exactly as a failed face
        # solve does
        monkeypatch.setattr(solver, "_POLISH_AFTER", 1)
        newton = solver._face_newton
        S, idx, l1, w = correlated_problem(rng)
        cfg = AdmmConfig()

        def solve(later):
            calls = []

            def fake(*args, **kwargs):
                calls.append(None)
                theta_f, _ = newton(*args, **kwargs)
                return (theta_f, 1.0) if len(calls) == 1 else later(theta_f, len(calls))

            monkeypatch.setattr(solver, "_face_newton", fake)
            return solve_weighted(S, idx, l1, w, cfg)

        ref, ref_report = solve(lambda theta_f, k: None)
        assert ref_report.polish_attempts >= 3
        for later in (lambda theta_f, k: (theta_f, 1.0 / k),
                      lambda theta_f, k: (theta_f, 1.0),
                      lambda theta_f, k: (theta_f, 1.0 + k % 2)):
            theta, report = solve(later)
            assert np.array_equal(theta, ref)
            assert report.polish_attempts == ref_report.polish_attempts
            assert report.outer_iterations == ref_report.outer_iterations
            assert report.stop_reason == ref_report.stop_reason

    def test_always_rejected_solve_ends_on_the_admm_stop(self, rng, monkeypatch):
        # a one-iteration hold polishes faces before they are final; every
        # polish is rejected, each at a certificate below the one before, so
        # the solve runs to max_outer, set where the plain ADMM stops
        monkeypatch.setattr(solver, "_POLISH_AFTER", 1)
        newton = solver._face_newton
        faces = []

        def fake(Z, S, idx, l1_coord, row_w, tol, max_steps):
            a, b, _ = solver._active_rows(idx, row_w)
            faces.append(solver._face(pd_vec(Z, idx), a, b))
            return newton(Z, S, idx, l1_coord, row_w, tol, max_steps)[0], 1.0 / len(faces)

        monkeypatch.setattr(solver, "_face_newton", fake)
        S, idx, l1, w = correlated_problem(rng)
        cfg = self.at_the_plain_admm_stop(S, idx, l1, w)
        theta, report = solve_weighted(S, idx, l1, w, cfg)
        ref, iterations, _ = admm_loop(S, idx, l1, w, cfg)
        assert np.array_equal(theta, ref)
        assert report.outer_iterations == iterations == cfg.max_outer
        assert report.stop_reason == "max_outer"
        # the certificate of the returned iterate, the plain ADMM's own
        assert report.kkt_residual == kkt_residual(theta, S, idx, l1, w) <= 10 * cfg.eps_abs
        # the face last polished is not polished again at once
        assert report.polish_attempts == len(faces) >= 2
        for before, after in zip(faces, faces[1:]):
            assert not np.array_equal(before, after)

    def test_polished_estimate_is_certified_with_exact_zeros_and_ties(self, rng):
        cfg = AdmmConfig()
        S = random_pd(8, rng)
        idx = PairedIndex(4)
        spec = PenaltySpec(0.1, INF, 0.05, 0.02)
        theta, report = pdglasso_solve(S, spec, cfg)
        assert report.stop_reason == "kkt" and report.polish_attempts >= 1
        assert optimality_residual(theta, S, spec) <= 10 * cfg.eps_abs
        l1, w = penalty_weights(spec, idx)
        assert admm_loop(S, idx, l1, w, cfg)[1] > report.outer_iterations
        zeros, ties, _, _ = face_masks(theta, idx, w)
        assert zeros.any() and ties[idx.q:].any()  # zeros and finite-weight ties
        G = pd_vec(S - np.linalg.inv(theta), idx)
        assert kkt_violation(pd_vec(theta, idx), G, idx, l1, w, 0.0) <= 10 * cfg.eps_abs
        assert report.kkt_residual <= 10 * cfg.eps_abs

    def test_polish_keeps_only_a_certified_face(self, rng):
        cfg = AdmmConfig()
        S = random_pd(8, rng)
        idx = PairedIndex(4)
        spec = PenaltySpec(0.1, INF, 0.05, 0.0)  # across entries are in no active row
        l1, w = penalty_weights(spec, idx)
        theta, _ = solve_weighted(S, idx, l1, w, cfg)
        theta_again, kkt = solver._face_newton(
            theta, S, idx, l1, w, 10 * cfg.eps_abs, cfg.max_outer
        )
        assert kkt <= 10 * cfg.eps_abs
        assert np.abs(theta_again - theta).max() <= 1e-8
        # the same face with one more zero: Newton solves it, the certificate
        # rejects it
        z = pd_vec(theta, idx)
        first, second = idx.fused_pairs
        in_row = np.isin(np.arange(len(z)), np.concatenate([first[w > 0], second[w > 0]]))
        alone = (z != 0) & ~idx.diagonal & ~in_row
        k = np.flatnonzero(alone)[np.argmin(np.abs(z[alone]))]
        wrong = theta.copy()
        i, j = idx.coords[0][k], idx.coords[1][k]
        wrong[i, j] = wrong[j, i] = 0.0
        assert is_positive_definite(wrong)
        _, kkt = solver._face_newton(wrong, S, idx, l1, w, 10 * cfg.eps_abs, cfg.max_outer)
        assert kkt > 10 * cfg.eps_abs

    def test_polish_certificate_is_kkt_residual_bit_for_bit(self, rng, monkeypatch):
        # the certificate reuses the face solver's inverse; a one-iteration
        # hold makes both accepted and rejected polishes
        monkeypatch.setattr(solver, "_POLISH_AFTER", 1)
        candidates = []
        newton = solver._face_newton

        def recording_newton(Z, S, idx, l1, w, tol, max_steps):
            candidates.append((newton(Z, S, idx, l1, w, tol, max_steps), S, idx, l1, w))
            return candidates[-1][0]

        monkeypatch.setattr(solver, "_face_newton", recording_newton)
        for q, spec in [(3, PenaltySpec.uniform(0.1, 0.05)), (4, PenaltySpec(0.1, INF, 0.05, 0.02)),
                        (5, PenaltySpec(0.05, 0.02, INF, 0.0))]:
            solve_weighted(random_pd(2 * q, rng), PairedIndex(q),
                           *penalty_weights(spec, PairedIndex(q)), AdmmConfig())
        solve_weighted(*correlated_problem(rng), AdmmConfig())  # rejects a polish
        certificates = [c[0][1] for c in candidates if c[0] is not None]
        assert min(certificates) <= 1e-7 < max(certificates)
        for candidate, S, idx, l1, w in candidates:
            if candidate is not None:
                theta, certificate = candidate
                assert certificate == kkt_residual(theta, S, idx, l1, w)

    def test_singular_iterate_continues_to_the_certificate(self, monkeypatch):
        # a start 20 times the solution's diagonal (about 5e-4) keeps a step
        # size of 2^13, about 370 times below the curvature at the solution,
        # and the loop passes through singular iterates, which it never
        # polishes, on its way to a certified polish
        steps = self.record_steps(monkeypatch)
        S = 1000 * random_pd(6, np.random.default_rng(26))
        spec = PenaltySpec.uniform(85.0, 40.0)
        cfg = AdmmConfig(eps_abs=1e-3)
        theta, report = pdglasso_solve(S, spec, cfg, start=0.01 * np.eye(6))
        assert not all(is_positive_definite(Z) for Z, _, _ in steps)
        assert report.stop_reason == "kkt" and report.converged and not report.z_not_pd
        assert report.kkt_residual <= 10 * cfg.eps_abs
        assert report.outer_iterations > 49
        assert (theta == 0).any()


class TestFaceBoundary:
    @staticmethod
    def threshold_instance(seed):
        """A q = 1 problem whose vertex weight is exactly its tie threshold,
        and the estimate at weight 0 to start from."""
        S = random_pd(2, np.random.default_rng(seed))
        idx = PairedIndex(1)
        lam1 = 0.5 * lambda1_diag_max(S)
        cfg = AdmmConfig(eps_abs=1e-10)
        start, _ = solve_weighted(S, idx, *penalty_weights(PenaltySpec(lam1), idx), cfg)
        l1, w = penalty_weights(PenaltySpec(lam1, lambda2_sym_max(S, idx), 0.0, 0.0), idx)
        return S, idx, l1, w, cfg, start

    @staticmethod
    def record_faces(monkeypatch):
        """The (absent, coloured) masks of every face solve, filled as the
        polishes run."""
        faces = []
        newton = solver._rcon_newton

        def recording_newton(S, idx, absent, coloured, *args):
            faces.append((absent.copy(), coloured.copy()))
            return newton(S, idx, absent, coloured, *args)

        monkeypatch.setattr(solver, "_rcon_newton", recording_newton)
        return faces

    @pytest.mark.parametrize("seed", [0, 4, 5, 12])
    def test_warm_solve_at_the_tie_threshold_ties_like_a_cold_one(self, seed):
        # the untied face's optimum has its vertex gap within noise of zero
        # (seed 12) or past it (seeds 0, 4, 5), so the polish ties it
        S, idx, l1, w, cfg, start = self.threshold_instance(seed)
        warm, report = solve_weighted(S, idx, l1, w, cfg, start=start)
        cold, _ = solve_weighted(S, idx, l1, w, cfg)
        assert report.stop_reason == "kkt"
        assert warm[0, 0] == warm[1, 1] and cold[0, 0] == cold[1, 1]
        assert report.kkt_residual == kkt_residual(warm, S, idx, l1, w) <= 10 * cfg.eps_abs

    def test_warm_solve_of_a_rounding_size_gap_ties_like_a_cold_one(self):
        # a warm start once ended this solve at an ADMM iterate whose vertex
        # gap was 7.1e-15 where the cold solve ties; both end at a polish
        S = random_pd(2, np.random.default_rng(598934))
        idx = PairedIndex(1)
        cfg = AdmmConfig()
        top = lambda1_diag_max(S)
        start, _ = solve_weighted(S, idx, *penalty_weights(PenaltySpec(top / 3, INF), idx), cfg)
        spec = PenaltySpec(0.3224671290700398 * top, lambda2_sym_max(S, idx), 0.0, 0.0)
        l1, w = penalty_weights(spec, idx)
        for theta, report in (solve_weighted(S, idx, l1, w, cfg, start=start),
                              solve_weighted(S, idx, l1, w, cfg)):
            assert report.stop_reason == "kkt" and report.polish_attempts >= 1
            assert theta[0, 0] == theta[1, 1]
            assert report.kkt_residual == kkt_residual(theta, S, idx, l1, w) <= 10 * cfg.eps_abs

    def test_gap_at_the_boundary_is_tied_and_the_face_solved_again(self, monkeypatch):
        faces = self.record_faces(monkeypatch)
        S, idx, l1, w, cfg, _ = self.threshold_instance(0)
        tied, _ = solve_weighted(S, idx, l1, w, cfg)
        untied = tied.copy()
        untied[0, 0] += 1e-3
        faces.clear()
        theta, certificate = solver._face_newton(
            untied, S, idx, l1, w, 10 * cfg.eps_abs, cfg.max_outer
        )
        [(_, first), (_, second)] = faces
        assert not first.any() and second[w > 0].all()  # the vertex row
        assert theta[0, 0] == theta[1, 1]
        assert certificate == kkt_residual(theta, S, idx, l1, w) <= 10 * cfg.eps_abs

    def test_coordinate_past_zero_is_dropped_and_the_face_solved_again(self, rng, monkeypatch):
        # an l1 weight above lambda1_diag_max zeroes every off-diagonal entry
        faces = self.record_faces(monkeypatch)
        S = random_pd(4, rng)
        idx = PairedIndex(2)
        l1, w = penalty_weights(PenaltySpec(2.0 * lambda1_diag_max(S)), idx)
        cfg = AdmmConfig()
        Z = np.diag(1.0 / np.diag(S))
        Z[0, 1] = Z[1, 0] = 1e-3 * min(Z[0, 0], Z[1, 1])
        theta, certificate = solver._face_newton(Z, S, idx, l1, w, 10 * cfg.eps_abs, cfg.max_outer)
        [(first, _), (second, _)] = faces
        assert first.sum() + 1 == second.sum()
        assert np.array_equal(theta, np.diag(np.diag(theta)))
        assert certificate <= 10 * cfg.eps_abs

    def test_face_inside_its_boundary_is_solved_once(self, rng, monkeypatch):
        faces = self.record_faces(monkeypatch)
        S = random_pd(8, rng)
        idx = PairedIndex(4)
        l1, w = penalty_weights(PenaltySpec.uniform(0.1, 0.05), idx)
        cfg = AdmmConfig()
        theta, _ = solve_weighted(S, idx, l1, w, cfg)
        faces.clear()
        again, certificate = solver._face_newton(
            theta, S, idx, l1, w, 10 * cfg.eps_abs, cfg.max_outer
        )
        assert len(faces) == 1
        assert np.abs(again - theta).max() <= 1e-8 and certificate <= 10 * cfg.eps_abs


class TestDiagonalStart:
    @pytest.mark.parametrize("sb, w, tied", [(3.0, 2.0, True), (3.0, 0.25, False)],
                             ids=["tied", "shrunk"])
    def test_vertex_pair_matches_brute_force(self, monkeypatch, sb, w, tied):
        # c = diag(S) + lambda1 = (1.1, 3.1): a gap of 2, tied at 2 w >= 2
        steps = TestFacePolish.record_steps(monkeypatch)
        S = np.array([[1.0, 0.3], [0.3, sb]])
        pdglasso_solve(S, PenaltySpec(0.1, w, 0.0, 0.0), AdmmConfig(max_outer=1))
        start = steps[0][0]
        assert np.array_equal(start, np.diag(np.diag(start)))
        assert (start[0, 0] == start[1, 1]) == tied
        want = two_variable_minimizer(1.1, sb + 0.1, w)
        assert np.allclose(np.diag(start), want, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("factor", [1.0, 2.0])
    def test_above_the_diagonal_threshold_certifies_at_once(self, rng, factor):
        # the diagonal optimum is the solution, and the start is returned
        S = random_pd(8, rng)
        idx = PairedIndex(4)
        spec = PenaltySpec(factor * lambda1_diag_max(S), 0.05, INF, 0.02)
        l1, w = penalty_weights(spec, idx)
        theta, report = solve_weighted(S, idx, l1, w, AdmmConfig())
        assert report.stop_reason == "kkt" and report.outer_iterations == 0
        assert np.array_equal(theta, np.diag(np.diag(theta)))
        assert np.abs(theta - diagonal_start(S, idx, l1, w)).max() <= 1e-10

    @staticmethod
    def zero_column(rng):
        """A covariance whose first variable is constant at zero."""
        S = random_pd(4, rng)
        S[0, :] = S[:, 0] = 0.0
        return S

    def test_unbounded_diagonal_raises_before_the_first_step(self, rng, monkeypatch):
        # with no diagonal penalty, -log theta_00 falls without bound
        steps = TestFacePolish.record_steps(monkeypatch)
        with pytest.raises(NotPositiveDefiniteError, match="no minimizer"):
            pdglasso_solve(self.zero_column(rng), PenaltySpec(0.1), diag_penalty=False)
        assert steps == []

    @pytest.mark.parametrize("row_weight", [0.0, -1.0], ids=["zero", "negative"])
    def test_unweighted_singular_S_raises_before_the_first_step(self, monkeypatch, row_weight):
        # with every l1 weight zero and every fused row inactive, -log det
        # falls without bound along the null space of a rank-3 S, though its
        # diagonal minimizer exists
        steps = TestFacePolish.record_steps(monkeypatch)
        X = np.random.default_rng(0).standard_normal((3, 6))
        S = checked_cov(X.T @ X / 3)
        idx = PairedIndex(3)
        l1, w = np.zeros(idx.vec_length), np.full(idx.n_rows, row_weight)
        with pytest.raises(NotPositiveDefiniteError, match="unbounded"):
            solve_weighted(S, idx, l1, w, AdmmConfig())
        assert steps == []

    def test_vertex_weight_bounds_a_zero_column(self, rng):
        # the fusion with its partner gives theta_00 a positive price
        S = self.zero_column(rng)
        spec = PenaltySpec(0.1, 0.2, 0.0, 0.0)
        cfg = AdmmConfig()
        theta, report = pdglasso_solve(S, spec, cfg, diag_penalty=False)
        assert report.stop_reason == "kkt"
        assert optimality_residual(theta, S, spec, diag_penalty=False) <= 10 * cfg.eps_abs


class TestStepSizeRule:
    def test_curvature_rounded_to_a_power_of_two(self):
        # an unpenalized cold solve of 3 I starts at I / 3: (p / tr start)^2 = 9
        assert solver._rho_start(np.eye(6) / 3.0) == 8.0
        assert solver._rho_start(0.5 * np.eye(6)) == 4.0  # 4
        assert solver._rho_start(3.0 * np.eye(6)) == 0.125  # 1/9

    @pytest.mark.parametrize("scale, bound", [(1e-8, "_RHO_MIN")])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_extreme_scales_start_at_a_bound(self, rng, scale, bound, warm):
        S = random_pd(6, rng)
        idx = PairedIndex(3)
        # a warm start 1/scale times S^-1 has the curvature of S scaled by scale
        spec = PenaltySpec.uniform(0.1 * scale, 0.05 * scale)
        l1, w = penalty_weights(spec, idx)
        start = np.linalg.inv(S) / scale if warm else diagonal_start(scale * S, idx, l1, w)
        rho1 = solver._rho_start(start)
        assert rho1 == getattr(solver, bound)
        assert math.frexp(rho1)[0] == 0.5  # a power of two

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_large_scales_start_at_the_curvature(self, rng, monkeypatch, warm):
        # the upper bound only guards against overflow; at S x 1e8 the old
        # clamp, 2^19, set the step size about 2^27 times too small
        steps = TestFacePolish.record_steps(monkeypatch)
        scale = 1e8
        S = scale * random_pd(6, rng)
        idx = PairedIndex(3)
        spec = PenaltySpec.uniform(0.1 * scale, 0.05 * scale)
        l1, w = penalty_weights(spec, idx)
        start = np.linalg.inv(S) if warm else None
        pdglasso_solve(S, spec, AdmmConfig(max_outer=1), start=start)
        theta0 = start if warm else diagonal_start(S, idx, l1, w)
        curvature = (6 / np.trace(theta0)) ** 2
        rho1 = steps[0][2]
        assert rho1 == 2.0 ** round(math.log2(curvature)) > 2.0**40
        assert math.frexp(rho1)[0] == 0.5  # a power of two

    @pytest.mark.parametrize("scale", [1e4, 1e5, 1e6])
    def test_large_unit_scales_certify(self, scale):
        # a slice of a sweep on which the old clamp of the step size at 2^19
        # left 7 of 24 solves at max_outer at S x 1e5 and 17 of 24 at S x 1e6;
        # the sweep's slowest solve from S x 1e3 to S x 1e6 now takes 14
        cfg = AdmmConfig(eps_abs=1e-3)
        for p, seed in itertools.product([6, 8], range(6)):
            S = scale * random_pd(p, np.random.default_rng(seed))
            l2 = 0.1 * lambda2_sym_max(S, PairedIndex(p // 2))
            spec = PenaltySpec.uniform(0.1 * lambda1_diag_max(S), l2)
            _, report = pdglasso_solve(S, spec, cfg)
            assert report.stop_reason == "kkt"
            assert report.outer_iterations <= 20

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_raw_unit_scales_certify(self, scale):
        # the instances of a scale sweep slowest to certify when the step
        # size was adapted by balancing the raw residuals: some ran out of
        # iterations
        for seed, fused, inf in itertools.product(range(4), [0.1, 0.5], [False, True]):
            S = scale * random_pd(20, np.random.default_rng(seed))
            idx = PairedIndex(10)
            l2 = fused * lambda2_sym_max(S, idx)
            spec = PenaltySpec(0.05 * lambda1_diag_max(S), INF if inf else l2, l2, l2)
            _, report = pdglasso_solve(S, spec, AdmmConfig())
            assert report.stop_reason == "kkt"

    @pytest.mark.parametrize("scale, vertex", [(100, "inf"), (100, "finite"), (100, "zero"),
                                               (10, "inf")])
    def test_step_size_stays_at_the_curvature(self, scale, vertex):
        # residual balancing cut the first step size 2^15 -> 2^6 at S x 100
        # and 2^8 -> 2^2 at S x 10 on these instances, and their solves took
        # 70, 74, 73 and 25 iterations
        S = scale * random_pd(10, np.random.default_rng(3))
        l2 = 0.1 * lambda2_sym_max(S, PairedIndex(5))
        vertex_weight = {"inf": INF, "finite": l2, "zero": 0.0}[vertex]
        spec = PenaltySpec(0.05 * lambda1_diag_max(S), vertex_weight, l2, l2)
        _, report = pdglasso_solve(S, spec, AdmmConfig())
        assert report.stop_reason == "kkt"
        assert report.outer_iterations <= 20

    def test_zero_covariance_certifies_without_warnings(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, report = pdglasso_solve(np.zeros((6, 6)), PenaltySpec.uniform(0.5, 0.1))
        assert report.stop_reason == "kkt"
        assert np.abs(theta - 2.0 * np.eye(6)).max() <= 1e-6  # 1 / lambda1 on the diagonal


class TestAdmmConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmmConfig(eps_abs=0.5)
        with pytest.raises(ValueError):
            AdmmConfig(max_outer=0)
        for max_outer in (math.nan, 2.5, 5000.0):
            with pytest.raises(ValueError, match="max_outer must be an integer"):
                AdmmConfig(max_outer=max_outer)
        assert AdmmConfig(max_outer=np.int64(3)).max_outer == 3

    @pytest.mark.parametrize("name", ["eps_abs"])
    def test_nan_tolerance_rejected(self, name):
        with pytest.raises(ValueError):
            AdmmConfig(**{name: math.nan})

    def test_nonconvergence_reported(self, rng):
        S = random_pd(6, rng)
        cfg = AdmmConfig(max_outer=2)
        spec = PenaltySpec.uniform(0.3, 0.1)
        theta, report = pdglasso_solve(S, spec, cfg)
        assert not report.converged
        assert report.outer_iterations == 2
        assert report.stop_reason == "max_outer"
        # computed once, on exactly the matrix returned
        l1, w = penalty_weights(spec, PairedIndex(3))
        assert report.kkt_residual == kkt_residual(theta, S, PairedIndex(3), l1, w)
        assert report.kkt_residual > 10 * cfg.eps_abs

    def test_singular_iterate_returns_the_theta_step(self):
        # from the diagonal start of an equicorrelated S at a small penalty,
        # the first Z step pulls the off-diagonal entries so far that Z is
        # indefinite
        S = equicorrelated(6)
        spec = PenaltySpec(0.1 * lambda1_diag_max(S))
        cfg = AdmmConfig(max_outer=1)
        theta, report = pdglasso_solve(S, spec, cfg)
        assert report.stop_reason == "max_outer" and report.z_not_pd
        assert not report.converged
        assert is_positive_definite(theta)
        l1, w = penalty_weights(spec, PairedIndex(3))
        ref, _, _ = admm_loop(S, PairedIndex(3), l1, w, cfg)
        assert np.array_equal(theta, ref)
        # the certificate of the Theta step returned, not of the singular Z
        assert report.kkt_residual == kkt_residual(theta, S, PairedIndex(3), l1, w)

    def test_stop_reasons(self, rng):
        S = random_pd(6, rng)
        spec = PenaltySpec.uniform(0.1, 0.05)
        _, report = pdglasso_solve(S, spec, AdmmConfig())
        # the face polish certifies the solve
        assert report.converged and report.stop_reason == "kkt"
        assert report.polish_attempts >= 1

    def test_has_two_fields(self):
        from dataclasses import fields

        assert [f.name for f in fields(AdmmConfig)] == ["eps_abs", "max_outer"]
