import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdglasso.chisq import chi2_quantile, gamma_p
from pdglasso.errors import DimensionError, MleError
from pdglasso.model import (
    GraphSummary,
    PdColouredGraph,
    SubmodelClass,
    _best,
    deviance,
    ebic,
    extract_graph,
    graph_summary,
    lrt,
    mle,
    mle_fully_symmetric,
    n_params,
    rcon_residual,
    selection_path,
    solve_point,
)
from pdglasso.paired import PairedIndex, pd_vec, swap_blocks, symmetrize_paired
from pdglasso.penalties import PenaltySpec, lambda2_sym_max
from pdglasso.simulate import ScenarioSpec, mvn_sample_cov, pdrcon_covariance
from pdglasso.solver import AdmmConfig, pdglasso_solve, solve_weighted

from conftest import (
    example_structures,
    graph_of,
    random_coloured_graph,
    random_fully_symmetric_graph,
    random_pd,
    strong_ggm_truth,
    tied_mask,
)
from oracles import admm_loop, ips_ggm_mle, per_point_path


class TestExtractGraph:
    def test_distinct_diagonal_gives_empty_uncoloured(self):
        idx = PairedIndex(2)
        theta = np.diag([1.0, 2.0, 3.0, 4.0])
        g = extract_graph(theta, idx)
        assert g.n_edges == 0
        assert not g.coloured.any()
        assert n_params(g) == 4

    def test_exact_equality_is_coloured(self):
        idx = PairedIndex(2)
        theta = np.eye(4)
        theta[0, 1] = theta[1, 0] = 0.5
        theta[2, 3] = theta[3, 2] = 0.5
        g = extract_graph(theta, idx)
        assert g.present[idx.coord_of[0, 1]] and g.present[idx.coord_of[2, 3]]
        assert tied_mask(g)[idx.coord_of[0, 1]]

    def test_one_sided_edge(self):
        idx = PairedIndex(2)
        theta = np.eye(4)
        theta[0, 1] = theta[1, 0] = 0.5
        g = extract_graph(theta, idx)
        assert g.present[idx.coord_of[0, 1]] and not g.present[idx.coord_of[2, 3]]
        assert not tied_mask(g)[idx.coord_of[0, 1]]

    def test_symmetric_solve_extracts_all_coloured(self, rng):
        idx = PairedIndex(3)
        S = random_pd(6, rng)
        lam2 = 1.0001 * lambda2_sym_max(S, idx)
        theta, _ = pdglasso_solve(S, PenaltySpec.uniform(0.02, lam2))
        g = extract_graph(theta, idx)
        a, b = idx.fused_pairs
        inside = idx.component_rows(False, True, False)
        assert np.array_equal(g.present[a[inside]], g.present[b[inside]])
        # every vertex, and every pair with both entries present, is coloured
        assert np.array_equal(g.coloured, g.present[a] & g.present[b])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_raises(self, value):
        theta = np.eye(4)
        theta[0, 1] = theta[1, 0] = value
        with pytest.raises(ValueError, match="theta must be finite"):
            extract_graph(theta, PairedIndex(2))


def _adjacency(g):
    """Edge entries of a graph, read from its present mask entry by entry."""
    p = g.p
    A = np.eye(p, dtype=bool)
    for i in range(p):
        for j in range(i + 1, p):
            A[i, j] = g.present[g.index.coord_of[i, j]]
    return A | A.T


class TestGraphMasks:
    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_present_mask_matches_the_adjacency(self, q, seed):
        g = random_coloured_graph(q, np.random.default_rng(seed))
        present = pd_vec(_adjacency(g).astype(float), g.index) != 0
        assert np.array_equal(g.present, present)
        assert g.n_edges == int(_adjacency(g).sum() - 2 * q) // 2

    def test_diagonal_of_present_is_ignored(self):
        idx = PairedIndex(2)
        g = PdColouredGraph(2, np.zeros(idx.vec_length, dtype=bool),
                            np.zeros(idx.n_rows, dtype=bool))
        assert g.present[idx.diagonal].all()
        assert g.n_edges == 0
        assert n_params(g) == 4

    def test_constructor_checks_lengths_and_colours(self):
        idx = PairedIndex(2)
        with pytest.raises(DimensionError):
            PdColouredGraph(2, np.ones(idx.vec_length - 1, dtype=bool),
                            np.zeros(idx.n_rows, dtype=bool))
        with pytest.raises(DimensionError):
            PdColouredGraph(2, np.ones(idx.vec_length, dtype=bool),
                            np.zeros(idx.n_rows + 1, dtype=bool))
        # a coloured inside row needs both of its entries present
        with pytest.raises(ValueError):
            PdColouredGraph(2, np.zeros(idx.vec_length, dtype=bool),
                            np.array([False, False, True, False]))
        with pytest.raises(ValueError, match="both of its entries"):
            graph_of(2, [(0, 3)], [(0, 3)])

    def test_masks_are_read_only_copies(self):
        idx = PairedIndex(2)
        present = np.zeros(idx.vec_length, dtype=bool)
        present[[idx.coord_of[0, 1], idx.coord_of[2, 3]]] = True
        coloured = idx.component_rows(False, True, False)
        given = present.copy(), coloured.copy()
        g = PdColouredGraph(2, present, coloured)
        # the caller's arrays stay writable and unchanged, diagonal included
        assert present.flags.writeable and coloured.flags.writeable
        assert np.array_equal(present, given[0]) and np.array_equal(coloured, given[1])
        assert not g.present.flags.writeable and not g.coloured.flags.writeable
        assert np.array_equal(g.present, given[0] | idx.diagonal)
        present[idx.coord_of[0, 1]] = False
        assert g.present[idx.coord_of[0, 1]]
        with pytest.raises(ValueError, match="read-only"):
            g.coloured[0] = True

    def test_equal_graphs_compare_and_hash_alike(self):
        assert PdColouredGraph.empty(2) == PdColouredGraph.empty(2)
        assert hash(PdColouredGraph.empty(2)) == hash(PdColouredGraph.empty(2))
        g = graph_of(2, [(0, 1), (2, 3)], [(0, 1)])
        h = PdColouredGraph(2, g.present.copy(), g.coloured.copy())
        assert g == h and hash(g) == hash(h) and len({g, h}) == 1
        # one mask flag apart: an extra edge, or the same edges uncoloured
        present = g.present.copy()
        present[g.index.coord_of[0, 2]] = True
        assert PdColouredGraph(2, present, g.coloured) != g
        assert PdColouredGraph(2, g.present, np.zeros(g.index.n_rows, dtype=bool)) != g
        assert PdColouredGraph.empty(2) != PdColouredGraph.empty(3)
        assert PdColouredGraph.empty(1) != "graph"


class TestNParams:
    def test_complete_uncoloured_is_saturated(self):
        g = PdColouredGraph.complete(3)
        assert n_params(g) == 6 * 7 // 2

    def test_empty_q2(self):
        g = PdColouredGraph.empty(2)
        assert n_params(g) == 4

    def test_fully_symmetric_complete_q2(self):
        g = PdColouredGraph.complete(2, coloured=True)
        assert n_params(g) == 10 - 0 - (2 + 1 + 1)

    def test_monotone_in_edges_and_colours(self):
        d0 = n_params(PdColouredGraph.empty(2))
        g1 = graph_of(2, [(0, 1)])
        assert n_params(g1) == d0 + 1
        g2 = graph_of(2, [(0, 1), (2, 3)])
        assert n_params(g2) == d0 + 2
        g3 = graph_of(2, [(0, 1), (2, 3)], [(0, 1)])
        assert n_params(g3) == n_params(g2) - 1

    def test_colour_requires_presence(self):
        with pytest.raises(ValueError):
            graph_of(2, tied=[(0, 1)])


class TestMle:
    def test_complete_graph_inverts_s(self, rng):
        S = random_pd(6, rng)
        theta = mle(S, PdColouredGraph.complete(3))
        assert np.abs(theta - np.linalg.inv(S)).max() < 1e-6

    def test_chain_matches_ips(self, rng):
        # chain 1-2-3-4: one inside pair on both sides plus one across edge
        g = graph_of(2, [(0, 1), (1, 2), (2, 3)])
        S = random_pd(4, rng)
        theta = mle(S, g)
        ref = ips_ggm_mle(S, [(0, 1), (1, 2), (2, 3)])
        assert np.abs(theta - ref).max() < 1e-4

    def test_constraints_exact_and_equations_satisfied(self, rng):
        for _ in range(4):
            g = random_coloured_graph(3, rng)
            S = random_pd(6, rng)
            theta = mle(S, g)
            assert rcon_residual(theta, S, g) < 1e-5
            back = extract_graph(theta, PairedIndex(3))
            assert np.array_equal(back.present, g.present)
            pairs = g.index.component_rows(False, True, True)
            assert np.array_equal(back.coloured[pairs], g.coloured[pairs])

    def test_infinite_constraints_give_exact_ties_and_zeros(self, rng):
        idx = PairedIndex(3)
        for _ in range(4):
            g = random_coloured_graph(3, rng)
            theta = mle(random_pd(6, rng), g)
            z = pd_vec(theta, idx)
            assert np.all(z[~g.present] == 0.0)
            first, second = idx.fused_pairs
            tied = g.coloured
            assert np.array_equal(z[first[tied]], z[second[tied]])

    def test_fully_symmetric_complete_is_averaged_inverse(self, rng):
        idx = PairedIndex(2)
        S = random_pd(4, rng)
        g = PdColouredGraph.complete(2, coloured=True)
        theta = mle(S, g)
        expected = np.linalg.inv(symmetrize_paired(S, idx))
        assert np.abs(theta - expected).max() < 1e-6

    def test_nonexistent_mle_raises(self, rng):
        y = rng.standard_normal(4)
        S = np.outer(y, y)  # rank one: complete-graph MLE does not exist
        cfg = AdmmConfig(max_outer=300)
        with pytest.raises(MleError):
            mle(S, PdColouredGraph.complete(2), cfg)


def swap_graph(g):
    """The coloured graph of the block-swapped model: L and R trade places."""
    idx = g.index
    rows, cols = idx.coords
    perm = idx.swap_perm
    return PdColouredGraph(g.q, g.present[idx.coord_of[perm[rows], perm[cols]]], g.coloured)


def assert_exact_constraints(theta, g):
    idx = g.index
    z = pd_vec(theta, idx)
    assert np.all(z[~g.present] == 0.0)
    first, second = idx.fused_pairs
    tied = g.coloured
    assert np.array_equal(z[first[tied]], z[second[tied]])


class TestMleNewton:
    @settings(max_examples=40, deadline=None)
    @given(q=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_inf_weight_admm(self, q, seed):
        r = np.random.default_rng(seed)
        g = random_coloured_graph(q, r)
        S = random_pd(2 * q, r)
        idx = g.index
        l1 = np.where(g.present, 0.0, math.inf)
        w = np.where(g.coloured, math.inf, 0.0)
        # the plain loop: solve_weighted's polish would use the face solver
        # under test
        ref, _, stop_reason = admm_loop(S, idx, l1, w, AdmmConfig())
        assert stop_reason == "kkt"
        assert np.abs(mle(S, g) - ref).max() <= 1e-5

    @settings(max_examples=40, deadline=None)
    @given(q=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), c=st.floats(1e-2, 1e2))
    def test_scale_equivariance(self, q, seed, c):
        r = np.random.default_rng(seed)
        g = random_coloured_graph(q, r)
        S = random_pd(2 * q, r)
        cfg = AdmmConfig(eps_abs=1e-10)
        a = mle(S, g, cfg)
        b = mle(c * S, g, cfg)
        assert np.abs(c * b - a).max() <= 1e-6 * np.abs(a).max()
        assert_exact_constraints(b, g)

    @settings(max_examples=40, deadline=None)
    @given(q=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_block_swap_equivariance(self, q, seed):
        r = np.random.default_rng(seed)
        g = random_coloured_graph(q, r)
        S = random_pd(2 * q, r)
        idx = g.index
        a = swap_blocks(mle(S, g), idx)
        b = mle(swap_blocks(S, idx), swap_graph(g))
        assert np.abs(a - b).max() <= 1e-6 * np.abs(a).max()
        assert_exact_constraints(a, swap_graph(g))
        assert_exact_constraints(b, swap_graph(g))

    def test_wishart_design_certified_where_admm_exhausts_budget(self):
        # an unscaled Wishart design as in the simulations: the p=20 truth of
        # scenario seed 4 and a sample of n=200, on which the plain ADMM
        # needs 1,228 iterations
        spec = ScenarioSpec(p=20, density=0.2, symmetry_fraction=0.5,
                            n_list=(200,), replications=1, seed=4)
        Sigma, g = pdrcon_covariance(spec)
        S = mvn_sample_cov(Sigma, 200, 0)
        cfg = AdmmConfig(max_outer=200)
        idx = g.index
        l1 = np.where(g.present, 0.0, math.inf)
        w = np.where(g.coloured, math.inf, 0.0)
        # the plain Inf ADMM exhausts its budget; the polished solve certifies
        # on the same face solver as the refit
        assert admm_loop(S, idx, l1, w, cfg)[2] == "max_outer"
        _, report = solve_weighted(S, idx, l1, w, cfg)
        assert report.stop_reason == "kkt" and report.polish_attempts >= 1
        theta = mle(S, g, cfg)
        assert rcon_residual(theta, S, g) <= 10 * cfg.eps_abs * max(1.0, np.abs(S).max())
        assert_exact_constraints(theta, g)

    def test_zero_variance_raises(self, rng):
        S = random_pd(4, rng)
        S[0, :] = S[:, 0] = 0.0  # a constant variable
        with pytest.raises(MleError):
            mle(S, PdColouredGraph.empty(2))

    def test_non_finite_input_rejected(self, rng):
        S = random_pd(4, rng)
        S[1, 1] = np.nan
        with pytest.raises(ValueError):
            mle(S, PdColouredGraph.complete(2))
        with pytest.raises(ValueError):
            mle_fully_symmetric(S, PdColouredGraph.complete(2, coloured=True))

    def test_rank_one_saturated_model_raises_mle_error(self):
        # the MLE does not exist; on this S the Newton preconditioner can lose
        # positive definiteness in rounding before any other check fails
        x = np.array([2.214526200456951e-04, -2.326804792215101e-04])
        with pytest.raises(MleError):
            mle(np.outer(x, x), PdColouredGraph.complete(1))


class TestMleFullySymmetric:
    def test_complete(self, rng):
        idx = PairedIndex(2)
        S = random_pd(4, rng)
        g = PdColouredGraph.complete(2, coloured=True)
        theta = mle_fully_symmetric(S, g)
        assert np.abs(theta - np.linalg.inv(symmetrize_paired(S, idx))).max() < 1e-6

    def test_empty(self, rng):
        idx = PairedIndex(3)
        S = random_pd(6, rng)
        g = graph_of(3, tied=[(0, 0), (1, 1), (2, 2)])
        theta = mle_fully_symmetric(S, g)
        s_bar = symmetrize_paired(S, idx)
        assert np.abs(theta - np.diag(1.0 / np.diag(s_bar))).max() < 1e-6

    def test_agrees_with_constrained_path(self, rng):
        for _ in range(3):
            g = random_fully_symmetric_graph(3, rng)
            S = random_pd(6, rng)
            a = mle(S, g)
            b = mle_fully_symmetric(S, g)
            assert np.abs(a - b).max() < 1e-5
            idx = PairedIndex(3)
            assert np.array_equal(swap_blocks(a, idx), a)
            assert np.array_equal(swap_blocks(b, idx), b)

    def test_rejects_asymmetric_graph(self, rng):
        g = PdColouredGraph.complete(2)  # uncoloured: not fully symmetric
        with pytest.raises(ValueError):
            mle_fully_symmetric(random_pd(4, rng), g)


class TestEbic:
    def test_gamma_zero_is_bic(self, rng):
        theta = random_pd(4, rng)
        S = random_pd(4, rng)
        from pdglasso.paired import log_likelihood

        got = ebic(theta, S, n=50, d=7, gamma=0.0)
        assert got == pytest.approx(-50 * log_likelihood(theta, S) + math.log(50) * 7)

    def test_frozen_arithmetic(self):
        # l = -2, n = 100, d = 10: -n l = 200, log(n) d = 46.0517
        theta = np.diag([math.exp(-1.0), 1.0])  # log det = -1
        S = np.diag([0.0, 1.0 / 1.0])  # trace(S theta) = 1, so l = -2
        got = ebic(theta, S, n=100, d=10, gamma=0.0)
        assert got == pytest.approx(246.05170185988092, abs=1e-9)

    def test_frozen_arithmetic_with_gamma(self):
        # p enters only through 4 d gamma log(p): check the increment at p = 178
        p178 = np.eye(178)
        got = ebic(p178, p178 * 0.0, n=100, d=10, gamma=0.5)
        zero_gamma = ebic(p178, p178 * 0.0, n=100, d=10, gamma=0.0)
        assert got - zero_gamma == pytest.approx(4 * 10 * 0.5 * math.log(178), abs=1e-9)
        assert got - zero_gamma == pytest.approx(103.6356710058417, abs=1e-9)

    def test_validation(self, rng):
        theta = random_pd(2, rng)
        with pytest.raises(ValueError):
            ebic(theta, theta, n=0, d=1, gamma=0.0)
        with pytest.raises(ValueError):
            ebic(theta, theta, n=10, d=-1, gamma=0.0)
        with pytest.raises(ValueError, match="sample size"):
            deviance(theta, theta, 0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -0.5])
    def test_gamma_must_be_finite_and_nonnegative(self, rng, gamma):
        theta = random_pd(2, rng)
        with pytest.raises(ValueError):
            ebic(theta, theta, n=10, d=1, gamma=gamma)


class TestLrt:
    def test_reference_values(self):
        r = lrt(12242.22, 194, 12285.79, 187, alpha=0.05)
        assert r.stat == pytest.approx(43.57, abs=1e-9)
        assert r.df == 7
        assert r.critical == pytest.approx(14.067140449340169, abs=1e-8)
        assert r.reject

    def test_third_row(self):
        r = lrt(12242.22, 194, 12393.96, 185, alpha=0.05)
        assert r.stat == pytest.approx(151.74, abs=1e-9)
        assert r.df == 9
        assert r.critical == pytest.approx(16.918977604620448, abs=1e-8)
        assert r.reject

    def test_equal_deviances_never_reject(self):
        r = lrt(100.0, 10, 100.0, 8, alpha=0.05)
        assert r.stat == 0.0
        assert not r.reject

    def test_invalid_nesting(self):
        with pytest.raises(ValueError):
            lrt(100.0, 8, 110.0, 10, alpha=0.05)  # sub has more params
        with pytest.raises(ValueError):
            lrt(110.0, 10, 100.0, 8, alpha=0.05)  # sub fits better

    @pytest.mark.parametrize("deviance_full, deviance_sub", [
        (math.nan, 12.0), (100.0, math.nan), (100.0, math.inf), (-math.inf, 12.0),
    ], ids=["nan-full", "nan-sub", "inf-sub", "minus-inf-full"])
    def test_non_finite_deviance_raises(self, deviance_full, deviance_sub):
        with pytest.raises(ValueError, match="finite"):
            lrt(deviance_full, 7, deviance_sub, 5, alpha=0.05)

    @pytest.mark.parametrize("d_full, d_sub", [(7, -3), (-1, -3)])
    def test_negative_parameter_count_raises(self, d_full, d_sub):
        with pytest.raises(ValueError, match=">= 0"):
            lrt(100.0, d_full, 110.0, d_sub, alpha=0.05)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, math.nan])
    def test_alpha_must_be_inside_the_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            lrt(100.0, 10, 110.0, 8, alpha=alpha)

    def test_power_against_one_removed_strong_edge(self, rng):
        from pdglasso.simulate import mvn_sample_cov

        rejects = 0
        for seed in range(5):
            r = np.random.default_rng(1000 + seed)
            theta = strong_ggm_truth(6, r, n_edges=5)
            full = extract_graph(theta, PairedIndex(3))
            S = mvn_sample_cov(np.linalg.inv(theta), 400, seed)
            # drop the first present inside edge, pair by pair, left side
            # first, from the full model
            idx = full.index
            i, j = idx.pairs
            left, right = idx.coord_of[i, j], idx.coord_of[i + 3, j + 3]
            k = int(np.argmax(full.present[left] | full.present[right]))
            present = full.present.copy()
            present[left[k] if present[left[k]] else right[k]] = False
            a, b = idx.fused_pairs
            sub = PdColouredGraph(3, present, full.coloured & present[a] & present[b])
            dev_full = deviance(mle(S, full), S, 400)
            dev_sub = deviance(mle(S, sub), S, 400)
            r_ = lrt(dev_full, n_params(full), dev_sub, n_params(sub), alpha=0.05)
            rejects += r_.reject
        assert rejects >= 4


class TestChiSquareQuantile:
    def test_against_scipy_grid(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in (1, 2, 5, 7, 9, 30, 68, 120):
            for prob in (0.01, 0.1, 0.5, 0.9, 0.95, 0.999):
                assert chi2_quantile(prob, df) == pytest.approx(
                    float(scipy_stats.chi2.ppf(prob, df)), abs=1e-8
                )

    def test_both_tails_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        probs = [10.0**-k for k in range(1, 16)] + [1.0 - 10.0**-k for k in range(1, 16)]
        for df in range(1, 200):
            got = np.array([chi2_quantile(prob, df) for prob in probs])
            want = scipy_stats.chi2.ppf(probs, df)
            assert np.all(np.abs(got - want) <= 1e-10 * want), df

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            chi2_quantile(0.0, 3)
        with pytest.raises(ValueError):
            chi2_quantile(0.5, 0)

    def test_gamma_p_argument_checks(self):
        with pytest.raises(ValueError, match="shape parameter"):
            gamma_p(0.0, 1.0)
        with pytest.raises(ValueError, match="argument"):
            gamma_p(1.0, -1e-300)
        assert gamma_p(1.0, 0.0) == 0.0


class TestSubmodelClass:
    def test_rejects_an_unknown_mode(self):
        with pytest.raises(ValueError, match="inside mode"):
            SubmodelClass("grid", "foo", "grid")

    @pytest.mark.parametrize("value, stored", [
        (0, 0.0), (0.0, 0.0), (-0.0, 0.0), (math.inf, math.inf),
        (np.float64(np.inf), math.inf), ("grid", "grid"),
    ], ids=["int-0", "0.0", "-0.0", "math.inf", "np.inf", "grid"])
    def test_holds_a_fixed_component_as_the_float_penaltyspec_takes(self, value, stored):
        cls = SubmodelClass(value, 0.0, "grid")
        assert cls.vertex == stored and type(cls.vertex) is type(stored)
        if stored == 0.0:
            assert math.copysign(1.0, cls.vertex) == 1.0
        spec = cls.spec(0.25, 0.5)
        assert spec == PenaltySpec(0.25, 0.5 if stored == "grid" else stored, 0.0, 0.5)
        assert all(type(w) is float for w in spec.components)

    @pytest.mark.parametrize("value", ["zero", "inf", "Inf", 0.5, math.nan, -math.inf, None])
    def test_rejects_a_value_that_is_not_0_inf_or_grid(self, value):
        with pytest.raises(ValueError, match="across mode must be"):
            SubmodelClass("grid", "grid", value)


class TestGraphSummary:
    def test_empty(self):
        s = graph_summary(PdColouredGraph.empty(3))
        assert s.total_edges == 0
        assert s.density == 0.0
        assert s.inside_parametric_edges == 0

    def test_example_structures_counted_by_hand(self):
        # (total, inside, inside structural, inside parametric, across,
        # across structural, across parametric) edges of each q = 3 example
        counts = [(4, 4, 2, 2, 0, 0, 0), (7, 3, 0, 0, 4, 2, 2),
                  (8, 4, 4, 0, 4, 0, 4), (10, 4, 0, 4, 6, 0, 4)]
        for g, (total, *rest) in zip(example_structures(), counts):
            assert graph_summary(g) == GraphSummary(6, total, total / 15, *rest)

    def test_sparse_reference_density(self):
        # 117 edges at p = 178 -> density 0.74 %
        q = 89
        (i, j), v = PairedIndex.of(q).pairs, np.arange(q)
        # both sides of the first 55 pairs, 12 of them coloured; the (i, j')
        # entry of the first 3 pairs; the first 4 across-diagonal edges
        g = graph_of(q, [(i[:55], j[:55]), (i[:55] + q, j[:55] + q),
                         (i[:3], j[:3] + q), (v[:4], v[:4] + q)],
                     [(v, v), (i[:12], j[:12])])
        s = graph_summary(g)
        assert s.total_edges == 117
        assert round(100 * s.density, 2) == 0.74
        assert s.inside_edges == 110
        assert s.inside_parametric_edges == 24
        assert s.inside_structural_edges == 2 * (55 - 12)
        assert s.across_edges == 7

    def test_dense_reference_density(self):
        # 300 edges at p = 178 -> density 1.90 %, fully symmetric
        q = 89
        (i, j), v = PairedIndex.of(q).pairs, np.arange(q)
        # both sides of the first 143 inside and 5 across pairs, all
        # coloured; the first 4 across-diagonal edges
        inside, across = (i[:143], j[:143]), (i[:5], j[:5] + q)
        g = graph_of(q, [inside, (i[:143] + q, j[:143] + q), across,
                         (i[:5] + q, j[:5]), (v[:4], v[:4] + q)],
                     [(v, v), inside, across])
        s = graph_summary(g)
        assert s.total_edges == 300
        assert round(100 * s.density, 2) == 1.90
        assert s.inside_parametric_edges == 286
        assert s.across_parametric_edges == 10
        assert s.across_edges == 14


class TestSolvePoint:
    def test_colours_only_the_rows_the_spec_weights(self, rng):
        """On a swap-symmetric S every pair of the estimate ties, yet only
        the rows of a positively weighted component are coloured."""
        idx = PairedIndex(3)
        S = symmetrize_paired(random_pd(6, rng), idx)
        fit = solve_point(S, PenaltySpec(0.05, 0.0, 0.2, 0.0), AdmmConfig())
        extracted = extract_graph(fit.theta_hat, idx).coloured
        assert extracted[:idx.q].all()  # the unweighted vertex rows tie too
        assert np.array_equal(fit.graph.coloured,
                              extracted & idx.component_rows(False, True, False))

    def test_fits_compare_by_identity(self):
        fit, points = selection_path(np.eye(4), n=50, m=2, gamma=0.0, class_spec=SubmodelClass())
        assert fit == fit and fit in [pt.fit for pt in points]
        assert sum(fit != pt.fit for pt in points) == len(points) - 1


class TestModelSelect:
    def test_identity_selects_empty_model(self):
        S = np.eye(6)
        fit, _ = selection_path(S, n=50, m=4, gamma=0.0, class_spec=SubmodelClass())
        assert fit.graph.n_edges == 0
        assert fit.d == 6

    def test_strong_signal_recovery(self, rng):
        from pdglasso.simulate import mvn_sample_cov, edge_metrics

        theta = strong_ggm_truth(8, rng, n_edges=8)
        Sigma = np.linalg.inv(theta)
        S = mvn_sample_cov(Sigma, 2000, 77)
        fit, _ = selection_path(S, n=2000, m=10, gamma=0.0, class_spec=SubmodelClass())
        truth = extract_graph(theta, PairedIndex(4))
        m = edge_metrics(truth, fit.graph)
        assert m.f1 >= 0.8

    def test_fully_symmetric_truth_prefers_stage_two(self, rng):
        from pdglasso.simulate import ScenarioSpec, pdrcon_covariance, mvn_sample_cov

        cfg = AdmmConfig(eps_abs=1e-7)
        wins = 0
        for seed in range(5):
            spec = ScenarioSpec(p=8, density=0.3, symmetry_fraction=1.0,
                                n_list=(400,), replications=1, seed=seed)
            Sigma, _ = pdrcon_covariance(spec, cfg)
            S = mvn_sample_cov(Sigma, 400, 1000 + seed)
            _, points = selection_path(S, 400, 8, 0.0, SubmodelClass(), cfg)
            stage1 = [pt for pt in points if pt.stage == 1 and pt.valid]
            stage2 = [pt for pt in points if pt.stage == 2 and pt.valid]
            best1 = min(stage1, key=lambda pt: (pt.ebic, pt.d))
            if stage2:
                best2 = min(stage2, key=lambda pt: (pt.ebic, pt.d))
                if best2.d < best1.d:
                    wins += 1
        assert wins >= 3

    def test_grid_accounting(self, rng):
        S = random_pd(6, rng)
        cfg = AdmmConfig(eps_abs=1e-7)
        _, points = selection_path(S, 100, 4, 0.0, SubmodelClass(), cfg)
        assert len(points) == 8  # m stage-1 rows plus m stage-2 rows
        assert sum(pt.stage == 1 for pt in points) == 4

    def test_no_grid_components_skips_stage_two(self, rng):
        S = random_pd(6, rng)
        cfg = AdmmConfig(eps_abs=1e-7)
        _, points = selection_path(
            S, 100, 4, 0.0, SubmodelClass(0.0, 0.0, 0.0), cfg
        )
        assert all(pt.stage == 1 for pt in points)

    def test_path_work_stays_under_its_ceiling(self, monkeypatch):
        # a seeded p = 20 path, its S scaled to tr S / p of about 9, takes
        # 100 Theta steps; starting every solve's step size at 1 takes 143,
        # starting only the warm solves' at 1 takes 138, and a polish hold
        # of 10 iterations 251
        from pdglasso import solver

        calls = []
        step = solver.theta_step

        def counting_step(*args):
            calls.append(None)
            return step(*args)

        monkeypatch.setattr(solver, "theta_step", counting_step)
        theta = strong_ggm_truth(20, np.random.default_rng(20240817))
        S = 20 * mvn_sample_cov(np.linalg.inv(theta), 200, 20240817)
        _, points = selection_path(S, 200, 10, 0.5, SubmodelClass(), AdmmConfig())
        assert [pt.fit.report.stop_reason for pt in points] == ["kkt"] * 20
        assert len(calls) <= 130

    def test_requires_m_at_least_two(self, rng):
        with pytest.raises(ValueError):
            selection_path(random_pd(4, rng), 10, 1, 0.0, SubmodelClass())
        with pytest.raises(ValueError, match="must be an integer"):
            selection_path(random_pd(4, rng), 10, 2.5, 0.0, SubmodelClass())

    @pytest.mark.parametrize("n", [0, -3, 2.5])
    def test_an_invalid_sample_size_runs_no_solve(self, rng, monkeypatch, n):
        from pdglasso import solver

        calls = []
        solve = solver.solve_weighted

        def counting_solve(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_weighted", counting_solve)
        with pytest.raises(ValueError, match="sample size n"):
            selection_path(random_pd(4, rng), n, 20, 0.0, SubmodelClass())
        assert calls == []

    @staticmethod
    def record_starts(monkeypatch):
        """Lists of the start each penalized solve receives and of the
        estimate it returns, filled as the solves run."""
        from pdglasso import solver

        starts, estimates = [], []
        solve = solver.solve_weighted

        def recording_solve(*args, **kwargs):
            starts.append(kwargs.get("start"))
            theta, report = solve(*args, **kwargs)
            estimates.append(theta)
            return theta, report

        monkeypatch.setattr(solver, "solve_weighted", recording_solve)
        return starts, estimates

    @staticmethod
    def solve_order(points, estimates):
        """For each point, in the order returned, the index of its solve."""
        return [next(k for k, theta in enumerate(estimates) if theta is pt.fit.theta_hat)
                for pt in points]

    def test_path_is_warm_started_in_grid_order(self, rng, monkeypatch):
        # each stage is swept from its largest penalty down; stage 2 starts
        # from the stage-1 winner, not from the last stage-1 solve
        starts, estimates = self.record_starts(monkeypatch)
        S = random_pd(6, rng)
        _, points = selection_path(S, 100, 4, 0.0, SubmodelClass(), AdmmConfig())
        assert [pt.stage for pt in points] == [1] * 4 + [2] * 4
        assert all(pt.valid for pt in points) and len(starts) == 8
        assert self.solve_order(points, estimates) == [3, 2, 1, 0, 7, 6, 5, 4]
        assert starts[0] is None  # the stage-1 top starts cold
        assert all(starts[k] is estimates[k - 1] for k in (1, 2, 3, 5, 6, 7))
        winner1 = _best(points[:4])
        assert winner1 is not points[0]  # else the two stage-2 rules coincide
        assert starts[4] is winner1.fit.theta_hat

    def test_stage_is_solved_before_it_is_refitted(self, rng, monkeypatch):
        from pdglasso import model, solver

        events = []
        solve, refit = solver.solve_weighted, model.mle

        def recording_solve(*args, **kwargs):
            events.append("solve")
            return solve(*args, **kwargs)

        def recording_refit(*args, **kwargs):
            events.append("refit")
            return refit(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_weighted", recording_solve)
        monkeypatch.setattr(model, "mle", recording_refit)
        selection_path(random_pd(6, rng), 100, 4, 0.0, SubmodelClass(), AdmmConfig())
        assert events == (["solve"] * 4 + ["refit"] * 4) * 2

    def test_failed_refit_still_seeds_the_next(self, rng, monkeypatch):
        # the chain depends only on the solves: a point whose refit fails
        # still hands its estimate to the next solve
        from pdglasso import model

        starts, estimates = self.record_starts(monkeypatch)
        refit = model.mle
        refits = []

        def failing_second_refit(*args, **kwargs):
            refits.append(args)
            if len(refits) == 2:
                raise MleError("forced refit failure")
            return refit(*args, **kwargs)

        monkeypatch.setattr(model, "mle", failing_second_refit)
        S = random_pd(6, rng)
        _, points = selection_path(S, 100, 4, 0.0, SubmodelClass(), AdmmConfig())
        # the second refit is of the second solve, the second-largest
        # stage-1 penalty
        assert [pt.valid for pt in points] == [True, True, False, True] + [True] * 4
        assert (points[2].error, points[2].fit) == ("forced refit failure", None)
        assert starts[0] is None
        assert all(starts[k] is estimates[k - 1] for k in (1, 2, 3, 5, 6, 7))
        assert starts[4] is _best(points[:4]).fit.theta_hat

    def test_failed_solve_starts_the_next_cold(self, rng, monkeypatch):
        from pdglasso import model, solver

        starts, estimates = self.record_starts(monkeypatch)
        solve = solver.solve_weighted

        def failing_second_solve(*args, **kwargs):
            if len(starts) == 1:
                starts.append(kwargs.get("start"))
                estimates.append(None)
                raise MleError("forced solve failure")
            return solve(*args, **kwargs)

        refits = []
        refit = model.mle

        def counting_refit(*args, **kwargs):
            refits.append(args)
            return refit(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_weighted", failing_second_solve)
        monkeypatch.setattr(model, "mle", counting_refit)
        S = random_pd(6, rng)
        _, points = selection_path(S, 100, 4, 0.0, SubmodelClass(), AdmmConfig())
        assert [pt.valid for pt in points] == [True, True, False, True] + [True] * 4
        failed = points[2]
        assert (failed.error, failed.fit, failed.ebic, failed.d) == (
            "forced solve failure", None, None, None)
        assert len(starts) == 8 and len(refits) == 7  # a failed solve is not refitted
        assert starts[0] is None and starts[1] is estimates[0]
        assert starts[2] is None
        assert starts[3] is estimates[2]
        assert starts[4] is _best(points[:4]).fit.theta_hat
        assert all(starts[k] is estimates[k - 1] for k in (5, 6, 7))

    def test_points_come_back_in_ascending_order(self, rng):
        S = random_pd(6, rng)
        _, points = selection_path(S, 100, 5, 0.0, SubmodelClass(), AdmmConfig())
        stage1 = [pt for pt in points if pt.stage == 1]
        stage2 = [pt for pt in points if pt.stage == 2]
        assert points == stage1 + stage2 and len(stage1) == len(stage2) == 5
        lam1 = [pt.lambda1 for pt in stage1]
        lam2 = [pt.lambda2 for pt in stage2]
        assert lam1 == sorted(lam1) and len(set(lam1)) == 5
        assert lam2 == sorted(lam2) and len(set(lam2)) == 5
        assert {pt.lambda1 for pt in stage2} == {_best(stage1).lambda1}

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("p", [4, 6, 8])
    def test_warm_path_selects_as_the_cold_path(self, monkeypatch, p, seed):
        from pdglasso import solver

        rng = np.random.default_rng(seed)
        theta = strong_ggm_truth(p, rng)
        S = mvn_sample_cov(np.linalg.inv(theta), 60, seed)
        warm, warm_pts = selection_path(S, 60, 4, 0.0, SubmodelClass(), AdmmConfig())
        solve = solver.solve_weighted
        monkeypatch.setattr(solver, "solve_weighted",
                            lambda *a, **k: solve(*a, **{**k, "start": None}))
        cold, cold_pts = selection_path(S, 60, 4, 0.0, SubmodelClass(), AdmmConfig())
        assert (warm.spec, warm.d) == (cold.spec, cold.d)
        assert len(warm_pts) == len(cold_pts)
        for w, c in zip(warm_pts, cold_pts):
            assert (w.stage, w.lambda1, w.lambda2, w.d) == (c.stage, c.lambda1, c.lambda2, c.d)
            assert np.array_equal(w.fit.graph.present, c.fit.graph.present)
            assert np.array_equal(w.fit.graph.coloured, c.fit.graph.coloured)
            assert w.ebic == pytest.approx(c.ebic, rel=1e-8)

    @pytest.mark.parametrize("class_spec", [
        SubmodelClass(),
        SubmodelClass(math.inf, "grid", 0.0),
        SubmodelClass(0.0, 0.0, 0.0),
        SubmodelClass(math.inf, math.inf, 0.0),
    ], ids=["all-gridded", "inside-gridded", "none-gridded", "none-gridded-inf"])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("p", [4, 6, 8])
    def test_path_equals_the_per_point_loop(self, p, seed, class_spec):
        # where no point fails, solving a whole stage before refitting it
        # changes nothing: a path that reorders or skips refits must keep
        # this wherever it skips none
        rng = np.random.default_rng(seed)
        theta = strong_ggm_truth(p, rng)
        S = mvn_sample_cov(np.linalg.inv(theta), 60, seed)
        cfg = AdmmConfig()
        winner, points = selection_path(S, 60, 4, 0.5, class_spec, cfg)
        ref_winner, ref_points = per_point_path(S, 60, 4, 0.5, class_spec, cfg)
        assert all(pt.valid for pt in ref_points)
        assert winner.spec == ref_winner.spec
        assert len(points) == len(ref_points) == (8 if class_spec.any_gridded else 4)
        for pt, ref in zip(points, ref_points):
            assert (pt.stage, pt.lambda1, pt.lambda2, pt.ebic, pt.d, pt.converged) == (
                ref.stage, ref.lambda1, ref.lambda2, ref.ebic, ref.d, ref.converged)
            assert pt.fit.report.stop_reason == ref.fit.report.stop_reason
            assert np.array_equal(pt.fit.theta_hat, ref.fit.theta_hat)
            assert np.array_equal(pt.fit.theta_mle, ref.fit.theta_mle)

    def test_serial_runs_are_deterministic(self, rng):
        S = random_pd(6, rng)
        cfg = AdmmConfig(eps_abs=1e-7)
        first, pts1 = selection_path(S, 120, 4, 0.0, SubmodelClass(), cfg)
        second, pts2 = selection_path(S, 120, 4, 0.0, SubmodelClass(), cfg)
        assert np.array_equal(first.theta_hat, second.theta_hat)
        assert [(p.stage, p.lambda1, p.lambda2, p.ebic) for p in pts1] == (
            [(p.stage, p.lambda1, p.lambda2, p.ebic) for p in pts2]
        )
