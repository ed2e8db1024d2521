import numpy as np
import pytest

from pdglasso.model import PdColouredGraph
from pdglasso.paired import PairedIndex


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


def graph_of(q, edges=(), tied=()):
    """Graph on p = 2q variables from lists of matrix entries (i, j), where i
    and j may be index arrays: the ``edges`` are present, and the fused row
    holding each ``tied`` entry is coloured, a vertex i through (i, i).  A
    tied row's two entries must both be listed as edges."""
    idx = PairedIndex.of(q)
    present = np.zeros(idx.vec_length, dtype=bool)
    tie = np.zeros(idx.vec_length, dtype=bool)
    for mask, entries in ((present, edges), (tie, tied)):
        for i, j in entries:
            mask[idx.coord_of[i, j]] = True
    a, b = idx.fused_pairs
    return PdColouredGraph(q, present, tie[a] | tie[b])


def tied_mask(g):
    """Coordinate mask of the entries in the coloured fused rows of g."""
    a, b = g.index.fused_pairs
    tied = np.zeros(g.index.vec_length, dtype=bool)
    tied[a[g.coloured]] = tied[b[g.coloured]] = True
    return tied


def example_structures():
    """Four q=3 coloured structures covering every symmetry type.

    Variables 0, 1, 2 are the left group and 3, 4, 5 their partners.  The
    first mixes a vertex symmetry with one coloured and one structural-only
    inside pair; the second has an empty left subgraph, a complete right
    subgraph and both kinds of across symmetry; the third has full vertex
    symmetry, coloured across pairs and structural-only inside pairs; the
    fourth is the same skeleton made fully symmetric (across-diagonal edges
    stay uncolourable).
    """
    inside = [(0, 1), (3, 4), (1, 2), (4, 5)]
    across = [(0, 4), (3, 1), (1, 5), (4, 2)]
    vertices = [(0, 0), (1, 1), (2, 2)]
    ex1 = graph_of(3, inside, [(0, 0), (1, 2)])
    ex2 = graph_of(3, [(3, 4), (3, 5), (4, 5)] + across, [(0, 4)])
    ex3 = graph_of(3, inside + across, vertices + [(0, 4), (1, 5)])
    ex4 = graph_of(3, inside + across + [(0, 3), (1, 4)],
                   vertices + [(0, 4), (1, 5), (0, 1), (1, 2)])
    return [ex1, ex2, ex3, ex4]


def random_coloured_graph(q, rng, p_edge=0.55, p_colour=0.5, p_vertex=0.4):
    """Random valid coloured structure for constrained-MLE tests."""
    idx = PairedIndex.of(q)
    (i, j), d, c = idx.pairs, np.arange(q), idx.coord_of
    # per pair i < j: entries (i, j), (i', j'), then (i, j'), (i', j)
    inside = rng.random((idx.s, 2)) < p_edge
    across = rng.random((idx.s, 2)) < p_edge
    present = idx.diagonal.copy()
    present[c[i, j]], present[c[i + q, j + q]] = inside.T
    present[c[i, j + q]], present[c[i + q, j]] = across.T
    tie = np.zeros(idx.vec_length, dtype=bool)
    tie[c[i, j]] = rng.random(idx.s) < p_colour
    tie[c[i, j + q]] = rng.random(idx.s) < p_colour
    tie[c[d, d]] = rng.random(q) < p_vertex
    present[c[d, d + q]] = rng.random(q) < p_edge
    a, b = idx.fused_pairs
    return PdColouredGraph(q, present, tie[a] & present[a] & present[b])


def random_fully_symmetric_graph(q, rng, p_edge=0.5):
    """Random structure invariant under the block swap, all pairs coloured."""
    idx = PairedIndex.of(q)
    (i, j), d, c = idx.pairs, np.arange(q), idx.coord_of
    present = idx.diagonal.copy()
    present[c[i, j]] = present[c[i + q, j + q]] = rng.random(idx.s) < p_edge
    present[c[i, j + q]] = present[c[i + q, j]] = rng.random(idx.s) < p_edge
    present[c[d, d + q]] = rng.random(q) < p_edge
    a, _ = idx.fused_pairs
    return PdColouredGraph(q, present, present[a])


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
