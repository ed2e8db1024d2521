import numpy as np
import pytest

from pdglasso.model import PdColouredGraph


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_pd(p, rng, ridge=0.5):
    A = rng.standard_normal((p, 2 * p))
    return A @ A.T / (2 * p) + ridge * np.eye(p)


def equicorrelated(p, r=0.9):
    """Unit variances and every correlation r."""
    return np.full((p, p), r) + (1.0 - r) * np.eye(p)


def random_sym(p, rng):
    A = rng.standard_normal((p, p))
    return A + A.T


def graph_q3(vertex, inside_present, inside_col, across_present, across_col, diag):
    return PdColouredGraph(
        3,
        np.array(vertex, dtype=bool),
        np.array(inside_present, dtype=bool),
        np.array(inside_col, dtype=bool),
        np.array(across_present, dtype=bool),
        np.array(across_col, dtype=bool),
        np.array(diag, dtype=bool),
    )


def example_structures():
    """Four q=3 coloured structures covering every symmetry type.

    Pair order is (1,2), (1,3), (2,3).  The first mixes a vertex symmetry
    with one coloured and one structural-only inside pair; the second has an
    empty left subgraph, a complete right subgraph and both kinds of across
    symmetry; the third has full vertex symmetry, coloured across pairs and
    structural-only inside pairs; the fourth is the same skeleton made fully
    symmetric (across-diagonal edges stay uncolourable).
    """
    ex1 = graph_q3(
        [True, False, False],
        [[True, True], [False, False], [True, True]],
        [False, False, True],
        [[False, False]] * 3,
        [False] * 3,
        [False] * 3,
    )
    ex2 = graph_q3(
        [False] * 3,
        [[False, True], [False, True], [False, True]],
        [False] * 3,
        [[True, True], [False, False], [True, True]],
        [True, False, False],
        [False] * 3,
    )
    ex3 = graph_q3(
        [True] * 3,
        [[True, True], [False, False], [True, True]],
        [False] * 3,
        [[True, True], [False, False], [True, True]],
        [True, False, True],
        [False] * 3,
    )
    ex4 = graph_q3(
        [True] * 3,
        [[True, True], [False, False], [True, True]],
        [True, False, True],
        [[True, True], [False, False], [True, True]],
        [True, False, True],
        [True, True, False],
    )
    return [ex1, ex2, ex3, ex4]


def random_coloured_graph(q, rng, p_edge=0.55, p_colour=0.5, p_vertex=0.4):
    """Random valid coloured structure for constrained-MLE tests."""
    s = q * (q - 1) // 2
    inside_present = rng.random((s, 2)) < p_edge
    across_present = rng.random((s, 2)) < p_edge
    inside_col = inside_present.all(axis=1) & (rng.random(s) < p_colour)
    across_col = across_present.all(axis=1) & (rng.random(s) < p_colour)
    return PdColouredGraph(
        q,
        rng.random(q) < p_vertex,
        inside_present,
        inside_col,
        across_present,
        across_col,
        rng.random(q) < p_edge,
    )


def random_fully_symmetric_graph(q, rng, p_edge=0.5):
    """Random structure invariant under the block swap, all pairs coloured."""
    s = q * (q - 1) // 2
    inside = rng.random(s) < p_edge
    across = rng.random(s) < p_edge
    return PdColouredGraph(
        q,
        np.ones(q, dtype=bool),
        np.stack([inside, inside], axis=1),
        inside.copy(),
        np.stack([across, across], axis=1),
        across.copy(),
        rng.random(q) < p_edge,
    )


def strong_ggm_truth(p, rng, n_edges=None, weight=0.35):
    """Concentration matrix with clearly detectable edges."""
    total = p * (p - 1) // 2
    if n_edges is None:
        n_edges = total // 3
    rows, cols = np.triu_indices(p, k=1)
    pick = rng.choice(total, size=n_edges, replace=False)
    theta = np.eye(p)
    for k in pick:
        w = weight * (1 if rng.random() < 0.5 else -1)
        theta[rows[k], cols[k]] = theta[cols[k], rows[k]] = w
    # enforce diagonal dominance so the matrix stays well conditioned
    row_mass = np.abs(theta).sum(axis=1) - np.diag(theta)
    np.fill_diagonal(theta, np.maximum(1.0, 1.25 * row_mass))
    return theta
