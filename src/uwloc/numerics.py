"""Small dense symmetric linear-algebra kernels.

All routines operate on square symmetric matrices of modest order (their
one caller, :func:`uwloc.gtrs.lambda_interval`, needs at most k + 2 = 5,
and nothing here is intended beyond order 16).  Contracts are expressed as
residual bounds, not method choices.  :func:`sym_eig` calls the LAPACK
gufunc behind ``np.linalg.eigh`` directly: the same bits without the
wrapper's cost.
"""

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import SingularMatrixError

# Relative symmetry tolerance for input validation.
SYMMETRY_TOL = 1e-12

# Cholesky pivots are compared against this fraction of the largest
# diagonal entry; kilometer-scale coordinates raised to fourth powers
# still leave ample double-precision headroom at 1e-12.
PIVOT_TOL = 1e-12


def check_symmetric(a):
    """Validate that ``a`` is a square symmetric array and return it as float.

    Raises ValueError when the input is not square, has an entry that is
    not finite, or the asymmetry exceeds SYMMETRY_TOL relative to the
    largest absolute entry.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = abs(a).max() if a.size else 0.0
    if not scale < np.inf:  # NaN too
        raise ValueError("matrix has an entry that is not finite")
    if scale > 0 and abs(a - a.T).max() > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return a


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns, so that ``a @ V = V @ diag(w)``.
    """
    a = check_symmetric(a)
    return _umath_linalg.eigh_lo(a, signature="d->dd")


def solve_spd(a, b):
    """Solve ``a @ x = b`` for symmetric positive definite ``a``.

    The gate is numpy's Cholesky factorization: a pivot at or below
    ``PIVOT_TOL`` times the largest diagonal entry raises
    SingularMatrixError naming the pivot index.
    """
    a = check_symmetric(a)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"rhs length {b.shape[0]} does not match order {n}")
    tol = PIVOT_TOL * np.max(np.diag(a)) if n else 0.0
    # Pivot j is the last pivot of the leading (j+1)-block, so the first
    # weak one is found block by block; numpy names no failing pivot.
    for j in range(n):
        try:
            pivot = np.linalg.cholesky(a[: j + 1, : j + 1])[j, j] ** 2
        except np.linalg.LinAlgError:
            pivot = 0.0  # numpy rejects a pivot that is not positive
        if not pivot > tol:
            raise SingularMatrixError(
                f"matrix is not positive definite: pivot {j} is at or below"
                f" the tolerance {tol:.3e}",
                pivot_index=j,
            )
    return np.linalg.solve(a, b)


def inv_sqrt_sym(a):
    """Inverse symmetric square root of a positive definite matrix.

    The result S satisfies ``S @ a @ S = I``.  An eigenvalue at or below
    PIVOT_TOL times the largest eigenvalue raises SingularMatrixError.
    """
    w, v = sym_eig(a)
    cutoff = PIVOT_TOL * w[-1] if w.size else 0.0
    bad = np.nonzero(w <= cutoff)[0]
    if bad.size:
        raise SingularMatrixError(
            f"matrix is singular within tolerance: eigenvalue {bad[0]}"
            f" is {w[bad[0]]:.3e}",
            pivot_index=int(bad[0]),
        )
    return (v * w**-0.5) @ v.T
