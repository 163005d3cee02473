"""Tolerant pseudo-inverses and the dynamically consistent generalized inverse.

Singular directions are zeroed rather than amplified: singular values (or
eigenvalues of symmetric PSD matrices) below ``tol * largest`` are treated as
zero.  The shared default of 1e-4 deliberately trades accuracy near
singularities for bounded commands.
"""

import numpy as np

DEFAULT_TOLERANCE = 1e-4


def tolerant_pinv(M, tol=DEFAULT_TOLERANCE):
    """SVD pseudo-inverse with relative singular-value cutoff."""
    M = np.atleast_2d(M)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[1], M.shape[0]))
    inv = np.where(s > tol * s[0], 1.0 / np.where(s == 0.0, 1.0, s), 0.0)
    return (Vt.T * inv) @ U.T


def sym_pinv(M, tol=DEFAULT_TOLERANCE):
    """Eigen-decomposition pseudo-inverse for symmetric PSD matrices.

    Cheaper than SVD in the servo hot path; eigenvalues below tol * largest
    (or negative from roundoff) are zeroed.
    """
    return eigh_pinv(*np.linalg.eigh(M), tol)


def eigh_pinv(w, V, tol=DEFAULT_TOLERANCE):
    """sym_pinv from the eigendecomposition (w, V) = eigh(M)."""
    top = w[-1]
    if top <= 0.0:
        return np.zeros_like(V)
    inv = np.where(w > tol * top, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    return (V * inv) @ V.T


def gram_pinv(M, tol=DEFAULT_TOLERANCE):
    """Pseudo-inverse of a Gram matrix M = X W X' (symmetric PSD).

    The singular values of the underlying weighted operator are the square
    roots of M's eigenvalues, so applying the relative cutoff to them means
    zeroing eigenvalues below tol^2 * largest.  Directions whose operator
    singular value falls below tol of the largest receive zero output.
    """
    return sym_pinv(M, tol * tol)


def dyn_consistent_pinv(X, Ainv, tol=DEFAULT_TOLERANCE):
    """Inertia-weighted generalized inverse  Xbar = Ainv X' (X Ainv X')^+.

    Ainv must be symmetric positive definite.  Rank deficiency in X is
    absorbed by the tolerant pseudo-inverse, with the cutoff applied to the
    singular values of X Ainv^(1/2) (see gram_pinv).
    """
    X = np.atleast_2d(X)
    AiXt = Ainv @ X.T
    return AiXt @ gram_pinv(X @ AiXt, tol)
