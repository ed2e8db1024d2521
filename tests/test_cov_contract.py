"""The covariance contract: every public function that reads a user's S
checks it through :func:`pdglasso.paired.checked_cov`, so a bad S ends in a
ValueError that names its cause and never in numpy's LinAlgError."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdglasso.errors import DimensionError, PdglassoError
from pdglasso.model import (
    SubmodelClass,
    deviance,
    ebic,
    mle,
    mle_fully_symmetric,
    rcon_residual,
    selection_path,
)
from pdglasso.paired import PairedIndex, checked_cov
from pdglasso.penalties import (
    PenaltySpec,
    lambda1_block_max,
    lambda1_diag_max,
    lambda2_sym_max,
    objective,
)
from pdglasso.solver import AdmmConfig, optimality_residual, pdglasso_solve

from conftest import random_coloured_graph, random_fully_symmetric_graph

KINDS = ("psd", "rank-deficient", "indefinite", "asymmetric", "non-finite")
# the cause each rejected kind is named by
CAUSE = {"indefinite": "not positive semidefinite", "asymmetric": "not symmetric",
         "non-finite": "non-finite"}


def sample_of_kind(kind: str, q: int, seed: int) -> np.ndarray:
    """A random p x p matrix of the given kind, p = 2q, at a random scale."""
    rng = np.random.default_rng(seed)
    p = 2 * q
    n = int(rng.integers(1, p)) if kind == "rank-deficient" else p + int(rng.integers(0, 2 * p))
    X = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-3, 3)
    S = X.T @ X / n
    scale = float(np.abs(S).max())
    if kind == "indefinite":
        eig = np.linalg.eigvalsh(S)
        S = S - (eig[0] + rng.uniform(0.01, 1.0) * eig[-1]) * np.eye(p)
    elif kind == "asymmetric":
        i, j = rng.choice(p, size=2, replace=False)
        S[i, j] += scale * 10.0 ** rng.uniform(-9, 0)
    elif kind == "non-finite":
        S[tuple(rng.integers(0, p, size=2))] = rng.choice([math.nan, math.inf, -math.inf])
    return S


def entry_points(S: np.ndarray, q: int, seed: int):
    """Each public reader of S, called on S, by name."""
    rng = np.random.default_rng(seed)
    idx = PairedIndex.of(q)
    p = idx.p
    cfg = AdmmConfig(max_outer=200)
    spec = PenaltySpec.uniform(0.1 * float(np.abs(S[np.isfinite(S)]).max()), 0.05)
    g = random_coloured_graph(q, rng)
    g_sym = random_fully_symmetric_graph(q, rng)
    return {
        "pdglasso_solve": lambda: pdglasso_solve(S, spec, cfg),
        "mle": lambda: mle(S, g, cfg),
        "mle_fully_symmetric": lambda: mle_fully_symmetric(S, g_sym, cfg),
        "rcon_residual": lambda: rcon_residual(np.eye(p), S, g),
        "optimality_residual": lambda: optimality_residual(np.eye(p), S, spec),
        "selection_path": lambda: selection_path(S, 10, 2, 0.5, SubmodelClass(), cfg),
        "lambda1_diag_max": lambda: lambda1_diag_max(S),
        "lambda1_block_max": lambda: lambda1_block_max(S, idx),
        "lambda2_sym_max": lambda: lambda2_sym_max(S, idx),
        "deviance": lambda: deviance(np.eye(p), S, 10),
        "ebic": lambda: ebic(np.eye(p), S, 10, 1, 0.5),
        "objective": lambda: objective(np.eye(p), S, spec),
    }


@pytest.mark.parametrize("S, cause", [
    ([[1.0, 2.0], [2.0, 1.0]], "not positive semidefinite"),  # eigenvalues 3 and -1
    ([[1.0, 0.5], [0.0, 1.0]], "not symmetric"),
], ids=["indefinite", "asymmetric"])
@pytest.mark.parametrize("name", ["deviance", "ebic", "objective"])
def test_scoring_names_the_fault_of_a_small_S(name, S, cause):
    # each used to read S unchecked and return 20.0 at theta = I, n = 10
    with pytest.raises(ValueError, match=cause):
        entry_points(np.array(S), 1, 0)[name]()


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(KINDS), q=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_every_reader_returns_or_names_the_fault_of_S(kind, q, seed):
    S = sample_of_kind(kind, q, seed)
    for name, call in entry_points(S, q, seed).items():
        try:
            call()
        except (PdglassoError, ValueError) as exc:
            assert not isinstance(exc, np.linalg.LinAlgError), (name, exc)
            if kind in CAUSE:
                assert isinstance(exc, ValueError) and CAUSE[kind] in str(exc), (name, exc)
            else:
                # an accepted S can still have no estimate, but only as a typed error
                assert isinstance(exc, PdglassoError), (name, exc)
        else:
            assert kind not in CAUSE, (name, "accepted a bad S")


def verdict(S: np.ndarray):
    """None when the contract accepts S, else the cause it names."""
    try:
        checked_cov(S)
    except ValueError as exc:
        return next(cause for cause in CAUSE.values() if cause in str(exc))
    return None


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS[:4]), q=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       k=st.integers(-20, 20))
def test_verdict_does_not_depend_on_the_scale_of_S(kind, q, seed, k):
    S = sample_of_kind(kind, q, seed)
    assert verdict(2.0**k * S) == verdict(S) == CAUSE.get(kind)


class TestCheckedCov:
    def test_returns_an_exactly_symmetric_S_as_it_is(self):
        S = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert checked_cov(S) is S

    def test_symmetrizes_below_the_relative_bound(self):
        S = 1e6 * np.eye(2)
        S[0, 1] = 5e-5  # 5e-11 max|S|
        out = checked_cov(S)
        assert np.array_equal(out, out.T) and out[0, 1] == 2.5e-5

    def test_rejects_asymmetry_above_the_relative_bound(self):
        S = 1e-6 * np.eye(2)
        S[0, 1] = 1e-15  # 1e-9 max|S|, below the absolute 1e-10 that the CLI used
        with pytest.raises(ValueError, match=r"not symmetric: max\|S - S'\| = 1.000e-15"):
            checked_cov(S)

    def test_names_the_smallest_eigenvalue(self):
        with pytest.raises(ValueError, match="not positive semidefinite: .* -1.000e"):
            checked_cov(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_zero_is_positive_semidefinite(self):
        assert np.array_equal(checked_cov(np.zeros((4, 4))), np.zeros((4, 4)))

    @pytest.mark.parametrize("S, message", [
        (np.eye(3), "even"),
        (np.ones((2, 4)), r"shape \(2, 4\), expected \(2, 2\)"),
        (np.ones(4), r"shape \(4,\), expected \(4, 4\)"),
        (np.float64(1.0), "p=0"),
    ])
    def test_rejects_a_matrix_that_is_not_square_with_even_p(self, S, message):
        with pytest.raises(DimensionError, match=message):
            checked_cov(S)

    def test_shape_is_checked_against_the_index(self):
        with pytest.raises(DimensionError, match=r"expected \(4, 4\) for q=2"):
            checked_cov(np.eye(6), PairedIndex(2))
