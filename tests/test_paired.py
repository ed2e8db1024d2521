import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdglasso.errors import DimensionError, NotPositiveDefiniteError
from pdglasso.model import PdColouredGraph
from pdglasso.paired import (
    PairedIndex,
    log_likelihood,
    logdet_pd,
    pd_unvec,
    pd_vec,
    swap_blocks,
    symmetrize_paired,
)

from conftest import random_pd, random_sym
from oracles import naive_log_likelihood


class TestPairedIndex:
    def test_sizes(self):
        idx = PairedIndex(3)
        assert idx.p == 6
        assert idx.s == 3
        assert idx.vec_length == 3 * 3 + 4 * 3 == 6 * 7 // 2

    def test_from_p_rejects_odd(self):
        with pytest.raises(DimensionError):
            PairedIndex.from_p(5)
        with pytest.raises(DimensionError):
            PairedIndex(0)

    @pytest.mark.parametrize("q", [1, 2, 4])
    def test_fused_pairs_are_block_swap_images(self, q):
        idx = PairedIndex(q)
        s = idx.s
        first, second = idx.fused_pairs
        rows, cols = idx.coords
        perm = idx.swap_perm
        assert len(first) == len(second) == idx.n_rows == q + 2 * s
        for a, b in zip(first, second):
            assert {perm[rows[a]], perm[cols[a]]} == {rows[b], cols[b]}
        # vertex rows (diag LL, RR), inside rows (upper LL, RR), across rows
        # (upper LR, RL), in pd_vec's segment order
        assert np.array_equal(first, np.r_[0:q, 2 * q:2 * q + s, 2 * q + 2 * s:2 * q + 3 * s])
        assert np.array_equal(second, np.r_[q:2 * q, 2 * q + s:2 * q + 2 * s,
                                            2 * q + 3 * s:2 * q + 4 * s])
        # only the across diagonal, its own swap image, lies in no row
        alone = np.ones(idx.vec_length, dtype=bool)
        alone[first] = alone[second] = False
        assert np.array_equal(np.flatnonzero(alone), np.arange(2 * q + 4 * s, idx.vec_length))

    def test_coordinate_lookup_inverts_the_layout(self):
        idx = PairedIndex(3)
        rows, cols = idx.coords
        assert np.array_equal(idx.coord_of[rows, cols], np.arange(idx.vec_length))
        assert np.array_equal(idx.coord_of, idx.coord_of.T)
        assert np.array_equal(idx.diagonal, rows == cols)
        assert np.array_equal(idx.component_rows(0, 1, 2), [0, 0, 0, 1, 1, 1, 2, 2, 2])

    def test_cached_index_arrays_are_read_only(self):
        idx = PairedIndex(2)
        for arr in (*idx.fused_pairs, *idx.coords, idx.coord_of, idx.diagonal, idx.swap_perm,
                    idx.coord_flat, idx.entry_coord):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("p", [2, 6, 20])
    def test_one_shared_instance_per_size(self, p):
        idx = PairedIndex.from_p(p)
        assert PairedIndex.from_p(p) is idx
        assert PairedIndex.of(p // 2) is idx
        assert PdColouredGraph.empty(p // 2).index is idx
        assert PdColouredGraph.complete(p // 2).index is idx

    def test_shared_instance_is_keyed_by_type(self):
        PairedIndex.of(7.0)
        assert type(PairedIndex.of(7).q) is int

    def test_shared_instance_rejects_bad_sizes_every_time(self):
        for _ in range(2):
            with pytest.raises(DimensionError, match="q=0"):
                PairedIndex.of(0)

    def test_flat_maps_restate_the_layout(self):
        idx = PairedIndex(3)
        rows, cols = idx.coords
        assert np.array_equal(idx.coord_flat, np.ravel_multi_index((rows, cols), (6, 6)))
        assert np.array_equal(idx.entry_coord.reshape(6, 6), idx.coord_of)


class TestVec:
    def test_smallest_paired_matrix(self):
        idx = PairedIndex(1)
        M = np.array([[2.0, 7.0], [7.0, 3.0]])
        v = pd_vec(M, idx)
        # diag LL, diag RR, (empty pair segments), diag LR
        assert v.tolist() == [2.0, 3.0, 7.0]

    def test_identity_q2(self):
        idx = PairedIndex(2)
        v = pd_vec(np.eye(4), idx)
        assert v[:4].tolist() == [1.0, 1.0, 1.0, 1.0]
        assert np.all(v[4:] == 0)

    def test_unvec_zero(self):
        idx = PairedIndex(2)
        assert np.all(pd_unvec(np.zeros(idx.vec_length), idx) == 0)

    def test_unvec_direct_placement(self):
        idx = PairedIndex(1)
        M = pd_unvec(np.array([2.0, 3.0, 5.0]), idx)
        assert np.array_equal(M, np.array([[2.0, 5.0], [5.0, 3.0]]))

    def test_round_trip_q2(self, rng):
        idx = PairedIndex(2)
        M = random_sym(4, rng)
        assert np.array_equal(pd_unvec(pd_vec(M, idx), idx), M)

    @settings(max_examples=30, deadline=None)
    @given(q=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_both_ways(self, q, seed):
        idx = PairedIndex(q)
        r = np.random.default_rng(seed)
        M = random_sym(2 * q, r)
        assert np.array_equal(pd_unvec(pd_vec(M, idx), idx), M)
        v = r.standard_normal(idx.vec_length)
        assert np.array_equal(pd_vec(pd_unvec(v, idx), idx), v)

    @settings(max_examples=40, deadline=None)
    @given(q=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_vec_and_unvec_equal_the_fancy_index_definition(self, q, seed):
        idx = PairedIndex.of(q)
        rows, cols = idx.coords
        r = np.random.default_rng(seed)
        p = 2 * q
        sym = random_sym(p, r)
        general = r.standard_normal((p, p))
        for M in (sym, general, general.T, sym[::-1, ::-1].T):
            assert pd_vec(M, idx).tobytes() == M[rows, cols].tobytes()
        # signed zeros and non-finite values are moved, never computed
        v = r.standard_normal(idx.vec_length)
        v[r.integers(idx.vec_length)] = -0.0
        v[r.integers(idx.vec_length)] = np.nan
        ref = np.zeros((p, p))
        ref[rows, cols] = v
        ref[cols, rows] = v
        assert pd_unvec(v, idx).tobytes() == ref.tobytes()
        strided = np.repeat(v, 2)[::2]  # a non-contiguous view
        assert pd_unvec(strided, idx).tobytes() == ref.tobytes()
        assert pd_vec(ref, idx).tobytes() == v.tobytes()

    def test_unvec_returns_a_fresh_writable_matrix(self):
        idx = PairedIndex(2)
        v = np.arange(float(idx.vec_length))
        M = pd_unvec(v, idx)
        M[0, 0] = -1.0
        assert v[0] == 0.0 and pd_unvec(v, idx)[0, 0] == 0.0

    def test_dimension_errors(self):
        idx = PairedIndex(2)
        with pytest.raises(DimensionError):
            pd_vec(np.eye(6), idx)
        with pytest.raises(DimensionError):
            pd_unvec(np.zeros(9), idx)


class TestSwap:
    def test_q1(self):
        idx = PairedIndex(1)
        M = np.array([[1.0, 3.0], [3.0, 2.0]])
        assert np.array_equal(swap_blocks(M, idx), np.array([[2.0, 3.0], [3.0, 1.0]]))

    def test_involution(self, rng):
        idx = PairedIndex(3)
        M = random_sym(6, rng)
        assert np.array_equal(swap_blocks(swap_blocks(M, idx), idx), M)

    def test_fixed_point_when_fully_symmetric(self, rng):
        idx = PairedIndex(2)
        M = random_sym(4, rng)
        M = symmetrize_paired(M, idx)
        assert np.array_equal(swap_blocks(M, idx), M)


class TestSymmetrize:
    def test_diag_average_q1(self):
        idx = PairedIndex(1)
        out = symmetrize_paired(np.array([[2.0, 1.0], [1.0, 4.0]]), idx)
        assert np.array_equal(out, np.array([[3.0, 1.0], [1.0, 3.0]]))

    def test_idempotent(self, rng):
        idx = PairedIndex(3)
        M = symmetrize_paired(random_sym(6, rng), idx)
        assert np.allclose(symmetrize_paired(M, idx), M)

    def test_commutes_with_swap(self, rng):
        idx = PairedIndex(3)
        M = random_sym(6, rng)
        a = swap_blocks(symmetrize_paired(M, idx), idx)
        b = symmetrize_paired(swap_blocks(M, idx), idx)
        assert np.allclose(a, b)

    def test_preserves_positive_definiteness(self, rng):
        idx = PairedIndex(4)
        for _ in range(20):
            M = random_pd(8, rng)
            assert np.linalg.eigvalsh(symmetrize_paired(M, idx)).min() > 0


class TestLogLikelihood:
    def test_identity(self):
        for p in (2, 4, 6):
            assert log_likelihood(np.eye(p), np.eye(p)) == pytest.approx(-p)

    def test_scaled_identity(self):
        got = log_likelihood(2 * np.eye(2), np.eye(2))
        assert got == pytest.approx(-2.613705638880109, abs=1e-12)

    def test_against_cofactor_expansion(self, rng):
        for p in (2, 3, 4):
            theta = random_pd(p, rng)
            S = random_pd(p, rng)
            assert log_likelihood(theta, S) == pytest.approx(
                naive_log_likelihood(theta, S), abs=1e-10
            )

    def test_not_pd_raises(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            log_likelihood(bad, np.eye(2))

    def test_negative_definite_with_positive_determinant_raises(self):
        # det(-I2) = 1 > 0: a determinant's sign cannot tell these apart
        with pytest.raises(NotPositiveDefiniteError):
            log_likelihood(-np.eye(2), np.eye(2))

    def test_indefinite_with_positive_determinant_raises(self):
        bad = np.diag([-1.0, -2.0, 3.0, 4.0])
        assert np.linalg.det(bad) > 0
        with pytest.raises(NotPositiveDefiniteError):
            log_likelihood(bad, np.eye(4))

    def test_logdet_pd_matches_slogdet(self, rng):
        theta = random_pd(6, rng)
        assert logdet_pd(theta) == pytest.approx(np.linalg.slogdet(theta)[1], abs=1e-12)

    def test_non_finite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            logdet_pd(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_swap_equivariance(self, rng):
        # mathematically exact (permutations preserve det and trace); the
        # permuted factorization only reorders floating point operations
        idx = PairedIndex(3)
        theta = random_pd(6, rng)
        S = random_pd(6, rng)
        assert log_likelihood(swap_blocks(theta, idx), swap_blocks(S, idx)) == (
            pytest.approx(log_likelihood(theta, S), rel=1e-12, abs=1e-12)
        )

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            log_likelihood(np.eye(2), np.eye(4))
