import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdglasso.errors import DimensionError, NotPositiveDefiniteError
from pdglasso.paired import PairedIndex, pd_unvec, pd_vec, swap_blocks, symmetrize_paired
from pdglasso.penalties import (
    INF,
    PenaltySpec,
    fused_penalty,
    lambda1_block_max,
    lambda1_diag_max,
    lambda2_sym_max,
    objective,
    penalty_terms,
    penalty_weights,
    weighted_objective,
)

from pdglasso.solver import optimality_residual

from conftest import random_pd, random_sym


def block_lambda2_sym_max(S, idx):
    """The fused threshold as LL/RR and LR/RL block slices of S."""
    q = idx.q
    inside = np.abs(S[:q, :q] - S[q:, q:]) / 2.0
    across = np.abs(S[q:, :q] - S[:q, q:]) / 2.0
    return float(max(inside.max(), across.max()))


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
        assert all(math.isfinite(c) for c in spec.components)

    def test_validation(self):
        with pytest.raises(ValueError):
            PenaltySpec(-0.1)
        with pytest.raises(ValueError):
            PenaltySpec(0.1, lambda2_inside=-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"lambda1": math.nan},
        {"lambda1": math.inf},
        {"lambda1": 0.1, "lambda2_vertex": math.nan},
        {"lambda1": 0.1, "lambda2_inside": math.nan},
        {"lambda1": 0.1, "lambda2_across": -math.inf},
        {"lambda1": -math.inf},
        {"lambda1": 0.1, "lambda2_across": math.nan},
        {"lambda1": 0.1, "lambda2_vertex": -math.inf},
        {"lambda1": 0.1, "lambda2_inside": -math.inf},
    ])
    def test_rejects_non_finite(self, kwargs):
        """lambda1 must be finite; a component may be +inf but not -inf or NaN."""
        with pytest.raises(ValueError):
            PenaltySpec(**kwargs)

    def test_inf_is_math_inf(self):
        assert INF is math.inf

    @pytest.mark.parametrize("name", ["lambda2_vertex", "lambda2_inside", "lambda2_across"])
    @pytest.mark.parametrize("value", [INF, float("inf"), np.float64(np.inf)],
                             ids=["INF", "float", "numpy"])
    def test_accepts_infinite_components(self, name, value):
        spec = PenaltySpec(0.1, **{name: value})
        assert getattr(spec, name) == math.inf
        assert spec == PenaltySpec(0.1, **{name: INF})

    def test_parse(self):
        """Command-line text becomes a component through float: "Inf" and
        "infinity" in any case are INF, and a negative value is rejected."""
        for text, value in [("0.25", 0.25), ("Inf", INF), ("inf", INF), ("Infinity", INF)]:
            assert PenaltySpec(0.1, float(text)).lambda2_vertex == value
        with pytest.raises(ValueError):
            PenaltySpec(0.1, float("-1"))


def l1_term(theta, lambda1):
    """The l1 term of :func:`penalty_terms` under ``PenaltySpec(lambda1)``."""
    idx = PairedIndex.from_p(theta.shape[0])
    return penalty_terms(pd_vec(theta, idx), idx, *penalty_weights(PenaltySpec(lambda1), idx))[0]


class TestL1Penalty:
    def test_identity(self):
        assert l1_term(np.eye(4), 2.0) == 8.0

    def test_zero_weight(self, rng):
        assert l1_term(random_sym(6, rng), 0.0) == 0.0

    def test_small_example(self):
        theta = np.array([[1.0, -2.0], [-2.0, 3.0]])
        assert l1_term(theta, 1.0) == 8.0

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            PenaltySpec(-1.0)


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
            + 0.3 * np.abs(theta).sum()
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


    def test_reads_theta_once_through_pd_vec(self):
        # theta[0, 1] is read by the penalty, so log det and trace read it too;
        # theta.T holds it at (1, 0), which pd_vec does not read
        idx = PairedIndex(2)
        theta = 2 * np.eye(4)
        theta[0, 1] = 0.3
        S, spec = np.eye(4), PenaltySpec(0.5)
        symmetric = pd_unvec(pd_vec(theta, idx), idx)
        assert symmetric[1, 0] == 0.3
        assert objective(theta, S, spec) == objective(symmetric, S, spec)
        assert objective(theta.T, S, spec) == objective(2 * np.eye(4), S, spec)
        weights = penalty_weights(spec, idx)
        assert weighted_objective(theta.T, S, idx, *weights) == objective(2 * np.eye(4), S, spec)


class TestObjectiveNotPositiveDefinite:
    def test_negative_identity_raises(self):
        # det(-I2) = 1 > 0, yet the objective is undefined there
        with pytest.raises(NotPositiveDefiniteError):
            objective(-np.eye(2), np.eye(2), PenaltySpec(0.1))

    def test_optimality_residual_is_inf(self):
        assert optimality_residual(-np.eye(2), np.eye(2), PenaltySpec(0.1)) == math.inf


class TestThresholds:
    def test_lambda1_diag_identity(self):
        assert lambda1_diag_max(np.eye(6)) == 0.0

    def test_lambda1_diag_example(self):
        S = np.array([[1.0, 0.7], [0.7, 1.0]])
        assert lambda1_diag_max(S) == 0.7

    def test_lambda1_diag_brute(self, rng):
        S = random_pd(8, rng)
        expected = max(
            abs(S[i, j]) for i in range(8) for j in range(8) if i != j
        )
        assert lambda1_diag_max(S) == expected

    def test_lambda1_diag_needs_p2(self):
        with pytest.raises(DimensionError):
            lambda1_diag_max(np.eye(1))
        with pytest.raises(DimensionError, match="even"):  # S is a paired matrix
            lambda1_diag_max(np.eye(5))

    def test_lambda1_block_zero_for_block_diagonal(self, rng):
        idx = PairedIndex(3)
        S = random_pd(6, rng)
        S[:3, 3:] = 0.0
        S[3:, :3] = 0.0
        assert lambda1_block_max(S, idx) == 0.0

    def test_lambda1_block_q1(self):
        idx = PairedIndex(1)
        S = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert lambda1_block_max(S, idx) == 0.3

    def test_lambda1_block_brute(self, rng):
        idx = PairedIndex(4)
        S = random_pd(8, rng)
        expected = max(abs(S[i, j + 4]) for i in range(4) for j in range(4))
        assert lambda1_block_max(S, idx) == expected

    def test_lambda2_sym_zero_when_symmetric(self, rng):
        idx = PairedIndex(3)
        S = symmetrize_paired(random_pd(6, rng), idx)
        assert lambda2_sym_max(S, idx) == 0.0

    def test_lambda2_sym_q1(self):
        idx = PairedIndex(1)
        S = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert lambda2_sym_max(S, idx) == 0.5

    def test_lambda2_sym_brute(self, rng):
        idx = PairedIndex(4)
        q = 4
        S = random_pd(8, rng)
        families = []
        for i in range(q):
            for j in range(q):
                families.append(abs(S[i, j] - S[i + q, j + q]) / 2)
                families.append(abs(S[i + q, j] - S[i, j + q]) / 2)
        assert lambda2_sym_max(S, idx) == pytest.approx(max(families), rel=1e-15)

    def test_lambda2_sym_of_symmetrized_is_zero(self, rng):
        idx = PairedIndex(5)
        S = random_pd(10, rng)
        assert lambda2_sym_max(symmetrize_paired(S, idx), idx) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(q=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e300]))
    def test_lambda2_sym_equals_the_block_formula_exactly(self, q, seed, scale):
        """The fused rows of pd_vec(S) cover every entry the block slices
        read, vertex rows included, so the two agree bit for bit."""
        idx = PairedIndex(q)
        S = scale * random_pd(2 * q, np.random.default_rng(seed))
        assert lambda2_sym_max(S, idx) == block_lambda2_sym_max(S, idx)

    def test_lambda2_sym_rejects_an_asymmetric_S(self, rng):
        idx = PairedIndex(3)
        S = random_pd(6, rng)
        lower = np.tril(rng.standard_normal((6, 6)), -1)
        with pytest.raises(ValueError, match="not symmetric"):
            lambda2_sym_max(S + lower, idx)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 4), (4, 1)], ids=["diag", "upper", "lower"])
    def test_thresholds_reject_non_finite_entries(self, bad, entry):
        idx = PairedIndex(3)
        S = np.eye(6)
        S[entry] = bad
        for threshold in (lambda1_diag_max, lambda1_block_max, lambda2_sym_max):
            args = (S,) if threshold is lambda1_diag_max else (S, idx)
            with pytest.raises(ValueError, match="non-finite"):
                threshold(*args)


class TestPenaltyWeights:
    def test_one_weight_per_coordinate_and_row(self):
        idx = PairedIndex(3)
        l1, w = penalty_weights(PenaltySpec(0.3, 0.1, INF, 0.0), idx)
        assert l1.shape == (idx.vec_length,) and np.all(l1 == 0.3)
        assert np.array_equal(w, idx.component_rows(0.1, INF, 0.0))

    def test_diag_penalty_unset_drops_the_diagonal_l1_weight(self):
        idx = PairedIndex(2)
        l1, _ = penalty_weights(PenaltySpec(0.3), idx, diag_penalty=False)
        assert np.all(l1[idx.diagonal] == 0.0) and np.all(l1[~idx.diagonal] == 0.3)
