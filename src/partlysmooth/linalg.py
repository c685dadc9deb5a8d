"""Dense linear-algebra helpers shared across the package.

Subspaces travel as explicit orthonormal bases (p x d arrays) because every
downstream computation (restricted operators, tangent projections,
pre-certificates) is cheapest in basis coordinates.  All routines work on
plain float64 ndarrays; nothing here is sparse-aware.

The batched solver's stacked primitives, spectral_norms, _row_dots and
gamma_products, give each row or matrix of a stack the bits it gets alone.
gamma_products runs Gamma b as GEMMs of one fixed shape, GEMM_ROWS x p
times p x p: BLAS picks its kernel and blocking from the matrix shape, so
in one GEMM over all T rows a row's bits would depend on T.  With Gamma
shared the rows fill consecutive blocks, the last one padded with zero
rows; with a stack of Gammas each row sits alone at the head of its own
zero block.  Either way a row gets the bits of that row alone in a block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# default tolerances, shared by the rest of the package
ORTHO_TOL = 1e-10
SYM_TOL = 1e-10
PSD_TOL = -1e-8
RANK_TOL = 1e-10
INJECTIVITY_TOL = 1e-8

# rows per GEMM block of gamma_products (module docstring).  Four is
# measured on OpenBLAS 0.3.31: on its SkylakeX kernel 16-row blocks change a
# row's bits with its position in the block at p >= 300, 8-row blocks make a
# stacked p=200 product 3x slower, and 2-row blocks save half as much on a
# shared one.
GEMM_ROWS = 4


def _as_matrix(a, name="matrix", stacked=False):
    # stacked: a stack of matrices, one more leading axis, checked at once
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 + stacked:
        raise ValueError(f"{name} must be {2 + stacked}-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def _as_vector(v, dim=None, name="vector", stacked=False):
    # stacked: a stack of vectors, one per row, checked at once
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 + stacked:
        raise ValueError(f"{name} must be {1 + stacked}-d, got shape {v.shape}")
    if dim is not None and v.shape[-1] != dim:
        raise ValueError(f"{name} has length {v.shape[-1]}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def _check_integer(value, name: str) -> int:
    """value as an int: a Python or numpy integer, but not a bool."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_symmetric(a, name="operator", stacked=False):
    """Validate symmetry of a square matrix and return it as float64.

    stacked=True checks a T x p x p stack of them at once.
    """
    a = _as_matrix(a, name, stacked)
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.size and np.max(np.abs(a - a.swapaxes(-1, -2))) > SYM_TOL:
        raise ValueError(f"{name} is not symmetric to tolerance {SYM_TOL}")
    return a


def check_covariance(a):
    """Validate that `a` is symmetric positive semidefinite.

    Eigenvalues are allowed to dip slightly negative (>= -1e-8) to absorb
    roundoff in empirical covariances.
    """
    a = check_symmetric(a, name="covariance")
    if a.size:
        lo = float(np.linalg.eigvalsh(a).min())
        if lo < PSD_TOL:
            raise ValueError(f"covariance has eigenvalue {lo:.3e} below {PSD_TOL}")
    return a


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of R^p stored as an orthonormal basis.

    The basis is a p x d array with orthonormal columns; d may be zero
    (the trivial subspace).  Instances are immutable.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise ValueError(f"basis must be 2-d, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("basis has non-finite entries")
        if b.shape[1] > b.shape[0]:
            raise ValueError(f"basis has more columns than rows: {b.shape}")
        if b.shape[1]:
            gram = b.T @ b
            if np.max(np.abs(gram - np.eye(b.shape[1]))) > ORTHO_TOL:
                raise ValueError(f"basis columns not orthonormal to {ORTHO_TOL}")
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def full(cls, p: int) -> "Subspace":
        return cls(np.eye(p))

    @classmethod
    def coordinates(cls, p: int, indices) -> "Subspace":
        """Span of the given coordinate axes of R^p."""
        idx = np.asarray(sorted(indices), dtype=int)
        if idx.size and (idx[0] < 0 or idx[-1] >= p):
            raise ValueError(f"coordinate index out of range for p={p}")
        if len(set(idx.tolist())) != idx.size:
            raise ValueError("duplicate coordinate indices")
        b = np.zeros((p, idx.size))
        b[idx, np.arange(idx.size)] = 1.0
        return cls(b)


def project(v, subspace: Subspace) -> np.ndarray:
    """Orthogonal projection of a vector onto the subspace."""
    v = _as_vector(v, subspace.ambient_dim, "v")
    b = subspace.basis
    return b @ (b.T @ v)


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse with a relative singular value cutoff."""
    a = _as_matrix(a, "matrix")
    if a.size == 0:
        return a.T.copy()
    return np.linalg.pinv(a, rcond=RANK_TOL)


@dataclass(frozen=True)
class InjectivityReport:
    """Outcome of a restricted-injectivity test.

    smallest_singular is sigma_min of Gamma restricted to the subspace;
    it is +inf for the trivial subspace, where injectivity holds vacuously.
    """

    holds: bool
    smallest_singular: float


def restricted_injectivity(gamma, subspace: Subspace, tol=INJECTIVITY_TOL) -> InjectivityReport:
    """Test ker(Gamma) ∩ T = {0} via the smallest singular value of Gamma B."""
    gamma = check_symmetric(gamma, name="gamma")
    if gamma.shape[0] != subspace.ambient_dim:
        raise ValueError("operator and subspace ambient dimensions differ")
    if subspace.dim == 0:
        return InjectivityReport(holds=True, smallest_singular=np.inf)
    s = np.linalg.svd(gamma @ subspace.basis, compute_uv=False)
    smin = float(s[-1])
    return InjectivityReport(holds=smin > tol, smallest_singular=smin)


def spectral_norms(stack) -> np.ndarray:
    """max |eigenvalue| = ||A|| of each matrix A of a symmetric (..., p, p) stack, unvalidated.

    One gufunc call runs one LAPACK eigenvalue solve per matrix, the call
    np.linalg.eigvalsh makes for a single matrix, so a matrix's norm has the
    same bits alone or in any stack.  Only the lower triangle is read.
    """
    if stack.shape[-1] == 0:
        return np.zeros(stack.shape[:-2])
    return np.abs(np.linalg.eigvalsh(stack)).max(-1)


def _row_dots_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


# a[i].dot(b[i]) for every row, with its bits: both run one BLAS dot per
# row, while (a * b).sum(1) and einsum sum in another order.  np.vecdot
# (numpy >= 2) is the faster of the two.
_row_dots = getattr(np, "vecdot", _row_dots_matmul)


def gamma_products(gam: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Gamma b for every row b of the T x p array beta, in GEMM blocks (module docstring).

    gam is one symmetric p x p Gamma shared by the rows or a T x p x p stack, one per row.
    """
    count, p = beta.shape
    if gam.ndim == 2:
        blocks = np.zeros((-(-count // GEMM_ROWS), GEMM_ROWS, p))
        blocks.reshape(-1, p)[:count] = beta
        return np.matmul(blocks, gam).reshape(-1, p)[:count]
    blocks = np.zeros((count, GEMM_ROWS, p))
    blocks[:, 0] = beta
    return np.matmul(blocks, gam)[:, 0]
