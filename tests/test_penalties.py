import math

import numpy as np
import pytest

from pdglasso.errors import DimensionError, NotPositiveDefiniteError
from pdglasso.paired import PairedIndex, swap_blocks, symmetrize_paired
from pdglasso.penalties import (
    INF,
    PenaltySpec,
    fused_penalty,
    is_inf,
    l1_penalty,
    lambda1_block_max,
    lambda1_diag_max,
    lambda2_sym_max,
    objective,
    parse_penalty_value,
)

from pdglasso.solver import optimality_residual

from conftest import random_pd, random_sym


def brute_fused(theta, idx, lv, li, la):
    """Entry-by-entry loop evaluation of the three block norms."""
    q = idx.q
    vert = sum(abs(theta[i, i] - theta[i + q, i + q]) for i in range(q))
    inside = sum(
        abs(theta[i, j] - theta[i + q, j + q])
        for i in range(q)
        for j in range(q)
        if i != j
    )
    across = sum(
        abs(theta[i, j + q] - theta[i + q, j]) for i in range(q) for j in range(q)
    )
    return lv * vert + li * inside + la * across


class TestPenaltySpec:
    def test_uniform_is_three_finite_copies(self):
        spec = PenaltySpec.uniform(0.1, 0.3)
        assert spec.components == (0.3, 0.3, 0.3)
        assert not spec.has_infinite

    def test_validation(self):
        with pytest.raises(ValueError):
            PenaltySpec(-0.1)
        with pytest.raises(ValueError):
            PenaltySpec(0.1, lambda2_inside=-1.0)

    def test_inf_is_symbolic(self):
        spec = PenaltySpec(0.1, lambda2_vertex=INF)
        assert is_inf(spec.lambda2_vertex)
        assert spec.lambda2_vertex is not float("inf")
        assert repr(spec.lambda2_vertex) == "Inf"

    def test_parse(self):
        assert parse_penalty_value("0.25") == 0.25
        assert is_inf(parse_penalty_value("Inf"))
        assert is_inf(parse_penalty_value("inf"))
        with pytest.raises(ValueError):
            parse_penalty_value("-1")


class TestL1Penalty:
    def test_identity(self):
        assert l1_penalty(np.eye(4), 2.0) == 8.0

    def test_zero_weight(self, rng):
        assert l1_penalty(random_sym(6, rng), 0.0) == 0.0

    def test_small_example(self):
        theta = np.array([[1.0, -2.0], [-2.0, 3.0]])
        assert l1_penalty(theta, 1.0) == 8.0

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            l1_penalty(np.eye(2), -1.0)


class TestFusedPenalty:
    def test_fully_symmetric_is_zero(self, rng):
        idx = PairedIndex(3)
        theta = symmetrize_paired(random_sym(6, rng), idx)
        assert fused_penalty(theta, PenaltySpec.uniform(0.0, 1.7), idx) == 0.0

    def test_vertex_only_q1(self):
        idx = PairedIndex(1)
        theta = np.array([[2.0, 1.0], [1.0, 4.0]])
        spec = PenaltySpec(0.0, lambda2_vertex=1.0)
        assert fused_penalty(theta, spec, idx) == 2.0

    def test_matches_brute_force_loop(self, rng):
        idx = PairedIndex(4)
        theta = random_sym(8, rng)
        lam2 = 0.7
        got = fused_penalty(theta, PenaltySpec.uniform(0.0, lam2), idx)
        assert got == pytest.approx(brute_fused(theta, idx, lam2, lam2, lam2), rel=1e-12)

    def test_mixed_components(self, rng):
        idx = PairedIndex(3)
        theta = random_sym(6, rng)
        spec = PenaltySpec(0.0, 0.2, 0.5, 1.1)
        assert fused_penalty(theta, spec, idx) == pytest.approx(
            brute_fused(theta, idx, 0.2, 0.5, 1.1), rel=1e-12
        )

    def test_infinite_component(self, rng):
        idx = PairedIndex(2)
        theta = random_sym(4, rng)
        spec = PenaltySpec(0.0, lambda2_vertex=INF)
        assert fused_penalty(theta, spec, idx) == math.inf
        sym = symmetrize_paired(theta, idx)
        assert fused_penalty(sym, spec, idx) == 0.0

    def test_zero_iff_swap_fixed_point(self, rng):
        idx = PairedIndex(3)
        spec = PenaltySpec(0.0, 0.4, 0.4, 0.4)
        theta = random_sym(6, rng)
        assert fused_penalty(theta, spec, idx) > 0
        sym = symmetrize_paired(theta, idx)
        assert fused_penalty(sym, spec, idx) == 0.0
        assert np.array_equal(swap_blocks(sym, idx), sym)


class TestObjective:
    def test_all_zero_spec_is_negative_loglik(self, rng):
        theta = random_pd(6, rng)
        S = random_pd(6, rng)
        from pdglasso.paired import log_likelihood

        assert objective(theta, S, PenaltySpec(0.0)) == pytest.approx(
            -log_likelihood(theta, S)
        )

    def test_identity_example(self):
        p = 4
        spec = PenaltySpec(1.0)
        assert objective(np.eye(p), np.eye(p), spec) == pytest.approx(2 * p)

    def test_term_by_term(self, rng):
        idx = PairedIndex(3)
        theta = random_pd(6, rng)
        S = random_pd(6, rng)
        spec = PenaltySpec(0.3, 0.1, 0.2, 0.4)
        from pdglasso.paired import log_likelihood

        expected = (
            -log_likelihood(theta, S)
            + l1_penalty(theta, 0.3)
            + fused_penalty(theta, spec, idx)
        )
        assert objective(theta, S, spec) == pytest.approx(expected, rel=1e-12)

    def test_swap_invariance(self, rng):
        idx = PairedIndex(3)
        theta = random_pd(6, rng)
        S = random_pd(6, rng)
        spec = PenaltySpec(0.3, 0.1, 0.2, 0.4)
        assert objective(swap_blocks(theta, idx), swap_blocks(S, idx), spec) == (
            pytest.approx(objective(theta, S, spec), rel=1e-12)
        )

    def test_monotone_in_each_component(self, rng):
        theta = random_pd(6, rng)
        S = random_pd(6, rng)
        base = PenaltySpec(0.1, 0.1, 0.1, 0.1)
        lo = objective(theta, S, base)
        for bumped in (
            PenaltySpec(0.2, 0.1, 0.1, 0.1),
            PenaltySpec(0.1, 0.2, 0.1, 0.1),
            PenaltySpec(0.1, 0.1, 0.2, 0.1),
            PenaltySpec(0.1, 0.1, 0.1, 0.2),
        ):
            assert objective(theta, S, bumped) >= lo


class TestObjectiveNotPositiveDefinite:
    def test_negative_identity_raises(self):
        # det(-I2) = 1 > 0, yet the objective is undefined there
        with pytest.raises(NotPositiveDefiniteError):
            objective(-np.eye(2), np.eye(2), PenaltySpec(0.1))

    def test_optimality_residual_is_inf(self):
        assert optimality_residual(-np.eye(2), np.eye(2), PenaltySpec(0.1)) == math.inf


class TestThresholds:
    def test_lambda1_diag_identity(self):
        assert lambda1_diag_max(np.eye(5)) == 0.0

    def test_lambda1_diag_example(self):
        S = np.array([[1.0, 0.7], [0.7, 1.0]])
        assert lambda1_diag_max(S) == 0.7

    def test_lambda1_diag_brute(self, rng):
        S = random_sym(8, rng)
        expected = max(
            abs(S[i, j]) for i in range(8) for j in range(8) if i != j
        )
        assert lambda1_diag_max(S) == expected

    def test_lambda1_diag_needs_p2(self):
        with pytest.raises(DimensionError):
            lambda1_diag_max(np.eye(1))

    def test_lambda1_block_zero_for_block_diagonal(self, rng):
        idx = PairedIndex(3)
        S = random_sym(6, rng)
        S[:3, 3:] = 0.0
        S[3:, :3] = 0.0
        assert lambda1_block_max(S, idx) == 0.0

    def test_lambda1_block_q1(self):
        idx = PairedIndex(1)
        S = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert lambda1_block_max(S, idx) == 0.3

    def test_lambda1_block_brute(self, rng):
        idx = PairedIndex(4)
        S = random_sym(8, rng)
        expected = max(abs(S[i, j + 4]) for i in range(4) for j in range(4))
        assert lambda1_block_max(S, idx) == expected

    def test_lambda2_sym_zero_when_symmetric(self, rng):
        idx = PairedIndex(3)
        S = symmetrize_paired(random_sym(6, rng), idx)
        assert lambda2_sym_max(S, idx) == 0.0

    def test_lambda2_sym_q1(self):
        idx = PairedIndex(1)
        S = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert lambda2_sym_max(S, idx) == 0.5

    def test_lambda2_sym_brute(self, rng):
        idx = PairedIndex(4)
        q = 4
        S = random_sym(8, rng)
        families = []
        for i in range(q):
            for j in range(q):
                families.append(abs(S[i, j] - S[i + q, j + q]) / 2)
                families.append(abs(S[i + q, j] - S[i, j + q]) / 2)
        assert lambda2_sym_max(S, idx) == pytest.approx(max(families), rel=1e-15)

    def test_lambda2_sym_of_symmetrized_is_zero(self, rng):
        idx = PairedIndex(5)
        S = random_sym(10, rng)
        assert lambda2_sym_max(symmetrize_paired(S, idx), idx) == 0.0
