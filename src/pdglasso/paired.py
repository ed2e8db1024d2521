"""Paired-variable indexing, block-swap operator and Gaussian log-likelihood.

Variables come in two groups of equal size q: a left block L = {0, ..., q-1}
and a right block R = {q, ..., 2q-1}, with variable i paired to i + q.
Concentration and covariance matrices are stored as dense symmetric 2q x 2q
arrays.  All objects here are immutable values; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError


@dataclass(frozen=True)
class PairedIndex:
    """The L/R partition of p = 2q variables with pairing i <-> i + q.

    The library keeps one instance per q, from :meth:`of` or :meth:`from_p`,
    so its cached index maps are built once per size and shared read-only.
    """

    q: int

    def __post_init__(self):
        if self.q < 1:
            raise DimensionError(f"group size must be >= 1, got q={self.q}")

    @property
    def p(self) -> int:
        return 2 * self.q

    @property
    def s(self) -> int:
        """Number of unordered pairs i < j inside one group."""
        return self.q * (self.q - 1) // 2

    @property
    def vec_length(self) -> int:
        return 3 * self.q + 4 * self.s

    @property
    def n_rows(self) -> int:
        """Number of fused rows (see :attr:`fused_pairs`)."""
        return self.q + 2 * self.s

    @classmethod
    @lru_cache(maxsize=None, typed=True)  # typed: q=3.0 never stands in for q=3
    def of(cls, q: int) -> "PairedIndex":
        """The shared instance for group size q."""
        return cls(q)

    @classmethod
    def from_p(cls, p: int) -> "PairedIndex":
        """The shared instance for p = 2q variables."""
        if p < 2 or p % 2 != 0:
            raise DimensionError(f"total dimension must be even and >= 2, got p={p}")
        return cls.of(p // 2)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Row/col indices of the strict upper triangle of one q x q block,
        in row-major pair order (0,1), (0,2), ..., (q-2, q-1)."""
        i, j = np.triu_indices(self.q, k=1)
        return _readonly(i), _readonly(j)

    @cached_property
    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column of the matrix entry behind each half-vectorized
        coordinate; this is the one definition of the layout (see
        :func:`pd_vec`)."""
        q = self.q
        d = np.arange(q)
        i, j = self.pairs
        rows = np.concatenate([d, d + q, i, i + q, i, i + q, d])
        cols = np.concatenate([d, d + q, j, j + q, j + q, j, d + q])
        return _readonly(rows), _readonly(cols)

    @cached_property
    def coord_of(self) -> np.ndarray:
        """p x p lookup: the coordinate of entry (i, j), equal to that of (j, i);
        ``v.take(coord_of)`` is :func:`pd_unvec` of ``v``."""
        rows, cols = self.coords
        lookup = np.empty((self.p, self.p), dtype=np.intp)
        lookup[rows, cols] = lookup[cols, rows] = np.arange(self.vec_length)
        return _readonly(lookup)

    @cached_property
    def coord_flat(self) -> np.ndarray:
        """Flat (row-major) position rows * p + cols of each coordinate's
        entry: ``M.take(coord_flat)`` is :func:`pd_vec` of ``M``."""
        rows, cols = self.coords
        return _readonly(rows * self.p + cols)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Coordinates of diagonal entries."""
        rows, cols = self.coords
        return _readonly(rows == cols)

    @cached_property
    def fused_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates (first, second) of the fused rows: each coordinate with
        its block-swap image, first < second.

        The rows are the q vertex pairs (diag LL, diag RR), then the s inside
        pairs (upper LL, upper RR), then the s across pairs (upper LR, upper
        RL).  The across diagonal is its own image and lies in no row.
        """
        rows, cols = self.coords
        perm = self.swap_perm
        image = self.coord_of[perm[rows], perm[cols]]
        first = np.flatnonzero(image > np.arange(self.vec_length))
        return _readonly(first), _readonly(image[first])

    def component_rows(self, vertex, inside, across) -> np.ndarray:
        """One value per fused row from one value per component."""
        return np.repeat([vertex, inside, across], [self.q, self.s, self.s])

    @cached_property
    def swap_perm(self) -> np.ndarray:
        """Permutation implementing the L/R block swap."""
        q = self.q
        return _readonly(np.concatenate([np.arange(q, 2 * q), np.arange(q)]))


def _readonly(arr: np.ndarray) -> np.ndarray:
    """Cached index arrays are shared, so they are made read-only."""
    arr.setflags(write=False)
    return arr


def _check_square(M: np.ndarray, idx: PairedIndex, name: str = "matrix") -> None:
    if M.shape != (idx.p, idx.p):
        raise DimensionError(
            f"{name} has shape {M.shape}, expected ({idx.p}, {idx.p}) for q={idx.q}"
        )


def checked_cov(S: np.ndarray, idx: PairedIndex | None = None) -> np.ndarray:
    """S as a float64 array that meets the contract of a covariance input,
    which every public function reading an S checks on entry.  In this
    order, S is square with an even p, or p x p for ``idx``, else
    :class:`DimensionError`; finite; symmetric within 1e-10 max|S|, and then
    0.5 (S + S') is returned, so no reader depends on a triangle; positive
    semidefinite: S / max|S| + 10 p eps I has a Cholesky factor, the shift
    admitting the rounding error of a singular sample moment matrix.  Any
    other failure is a ValueError naming its cause.  Both bounds are
    relative, so S and 2^k S get the same verdict."""
    S = np.asarray(S, dtype=float)
    _check_square(S, idx or PairedIndex.from_p(len(S) if S.ndim else 0), "S")
    if not np.all(np.isfinite(S)):
        raise ValueError("S contains non-finite entries")
    scale = float(np.abs(S).max())
    asym = float(np.abs(S - S.T).max())
    if asym > 1e-10 * scale:
        raise ValueError(f"S is not symmetric: max|S - S'| = {asym:.3e} exceeds 1e-10 max|S|")
    if asym > 0:
        S = 0.5 * (S + S.T)
    try:  # S = 0 passes: it is divided by 1
        np.linalg.cholesky(S / (scale or 1.0) + 10 * len(S) * np.finfo(float).eps * np.eye(len(S)))
    except np.linalg.LinAlgError:
        raise ValueError("S is not positive semidefinite: its smallest eigenvalue is "
                         f"{np.linalg.eigvalsh(S)[0]:.3e}") from None
    return S


def pd_vec(M: np.ndarray, idx: PairedIndex) -> np.ndarray:
    """Half-vectorize a symmetric paired matrix in the canonical block order.

    The segments are, in order: diag(LL) [q], diag(RR) [q], strict upper of
    LL [s], of RR [s], of LR [s], of RL [s], and diag(LR) [q], where
    s = q(q-1)/2 and strict-upper segments run in row-major pair order.
    The result has length 3q + 4s = p(p+1)/2 and is a bijection of the upper
    triangle (diagonal included).
    """
    _check_square(M, idx)
    return np.asarray(M, dtype=float).take(idx.coord_flat)


def pd_unvec(v: np.ndarray, idx: PairedIndex) -> np.ndarray:
    """Inverse of :func:`pd_vec`: rebuild the symmetric matrix from its vector."""
    v = np.asarray(v, dtype=float)
    if v.shape != (idx.vec_length,):
        raise DimensionError(
            f"vector has shape {v.shape}, expected ({idx.vec_length},) for q={idx.q}"
        )
    return v.take(idx.coord_of)


def swap_blocks(M: np.ndarray, idx: PairedIndex) -> np.ndarray:
    """Conjugate by the block-swap permutation: exchanges LL with RR and LR with RL."""
    _check_square(M, idx)
    perm = idx.swap_perm
    return np.asarray(M)[np.ix_(perm, perm)]


def symmetrize_paired(M: np.ndarray, idx: PairedIndex) -> np.ndarray:
    """Average a matrix with its block-swapped image.

    The result is a fixed point of :func:`swap_blocks` and stays positive
    definite whenever the input is (the PD cone is convex and the swap is a
    congruence by a permutation).
    """
    return 0.5 * (np.asarray(M, dtype=float) + swap_blocks(M, idx))


def logdet_pd(M: np.ndarray) -> float:
    """log det of a positive definite matrix, from its Cholesky factor.

    Only the lower triangle of ``M`` is read.  Raises
    :class:`NotPositiveDefiniteError` when ``M`` is not finite or not
    positive definite; the sign of a determinant is never trusted for this.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NotPositiveDefiniteError("matrix has non-finite entries")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.diagonal(L))))


def log_likelihood(theta: np.ndarray, S: np.ndarray) -> float:
    """Gaussian log-likelihood log det(theta) - trace(S theta), up to constants.

    S is read as given, so it must come from :func:`checked_cov`; the
    public readers of S (:func:`pdglasso.model.deviance`,
    :func:`pdglasso.penalties.objective`) check it before they call this.
    Raises :class:`NotPositiveDefiniteError` when theta is not positive
    definite.
    """
    theta = np.asarray(theta, dtype=float)
    S = np.asarray(S, dtype=float)
    if theta.shape != S.shape or theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise DimensionError(
            f"incompatible shapes theta={theta.shape}, S={S.shape}"
        )
    return float(logdet_pd(theta) - np.sum(S * theta))


def is_positive_definite(M: np.ndarray) -> bool:
    """Cheap PD check via Cholesky (see :func:`logdet_pd`)."""
    try:
        logdet_pd(M)
        return True
    except NotPositiveDefiniteError:
        return False
