"""Checked linear algebra for small complex matrices.

A Hermitian eigendecomposition (np.linalg.eigh behind finiteness and
hermiticity checks), positive semidefinite square roots, Takagi
factorization of complex symmetric matrices, and dual-basis /
restricted-inverse helpers.  Everything is sized for the 2x2 and 4x4
matrices used elsewhere in the package.  Every eigenpair in the package
comes from herm_eig, and takagi takes one of them, of a real embedding
of tau.  The dual basis and the restricted inverse work on stacks of
families, each from one batched SVD of the stack itself, which also
gives the conditioning it is tested on.  No Gram matrix or other square
of an input is formed, so no condition number is squared.

The trailing lambdas of a low-rank state come out as exact zeros not
because of the solver but because of one support cut, support(w):
eigen_ensemble, lambda_spectrum_raw, coset_generate and takagi treat an
entry at or below 8 eps times the largest of its spectrum as zero.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DependentVectors,
    NotHermitian,
    NotPSD,
    NotSymmetric,
    SingularCoefficients,
)

__all__ = [
    "SUPPORT_EPS",
    "herm_eig",
    "support",
    "psd_sqrt",
    "TakagiFactorization",
    "takagi",
    "DualBasis",
    "dual_basis",
    "restricted_inverse",
]

# support cut of every spectrum, relative to its largest entry: at least
# twice the largest zero eigenvalue that rounding leaves, 3.1 eps,
# measured on 80 000 random rank-1 to rank-3 states and 20 000 low-rank tau
SUPPORT_EPS = 8.0 * np.finfo(float).eps

_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def herm_eig(h, tol=1e-10):
    """Checked eigendecomposition of a Hermitian matrix.

    Returns (w, v) with eigenvalues w sorted in descending order and the
    matching orthonormal eigenvectors as the columns of v, computed as
    np.linalg.eigh of minus the symmetrized input.  A real input stays
    real.  The order inside a degenerate cluster is LAPACK's, which keeps
    the order of a diagonal input.

    Raises NotHermitian when an entry is not finite, or when
    max|h - h^dag| exceeds tol relative to the larger of 1 and the
    largest entry magnitude.
    """
    a = np.asarray(h)
    a = a.astype(complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("herm_eig expects a square matrix")
    if a.shape[0] == 0:
        return np.zeros(0), a
    # checked first: the residual test below lets non-finite input through,
    # since NaN compares False and a diagonal inf*1j gives res = scale = inf
    _check_finite(a)
    ah = a.conj().T
    res = np.abs(a - ah).max()
    # the bound is at least tol, so only a larger residual needs the scale
    if res > tol:
        bound = tol * max(1.0, np.abs(a).max())
        if res > bound:
            raise NotHermitian("max|h - h^dag| = %.3e exceeds %.3e" % (res, bound))
    w, v = np.linalg.eigh(-((a + ah) / 2.0))
    # 0.0 - w, unlike -w, turns an exact zero eigenvalue into +0.0
    return 0.0 - w, v


def support(w):
    """Mask of the entries of a spectrum w above 8 eps max(w).

    The one support cut of the package: a state eigenvalue or a Takagi
    value at or below it counts as an exact zero.  Rounding leaves up to
    about 3 eps of the largest eigenvalue in the zero eigenvalues of a
    singular matrix, and the cut removes it.  A true state eigenvalue
    below the cut moves a lambda by at most about 2 sqrt(8 eps), 8.4e-8,
    of the largest.
    """
    return w > SUPPORT_EPS * np.max(w, initial=0.0)


def _check_finite(a):
    """Raise NotHermitian when an entry of a matrix or a stack is not finite."""
    if not np.all(np.isfinite(a)):
        raise NotHermitian("matrix has non-finite entries")


def psd_sqrt(p, tol=1e-10):
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-tol, 0) are clamped to zero before the square root;
    anything below -tol raises NotPSD.
    """
    w, v = herm_eig(p, tol=tol)
    if w.size and w[-1] < -tol:
        raise NotPSD("eigenvalue %.3e below -%.1e" % (w[-1], tol))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


@dataclass(frozen=True, eq=False)
class TakagiFactorization:
    """Unitary u and non-negative lambdas with u @ tau @ u.T = diag(lambdas)."""

    u: np.ndarray
    lambdas: np.ndarray


def takagi(tau, tol=1e-10):
    """Takagi factorization of a complex symmetric matrix.

    Finds a unitary u and descending non-negative lambdas such that
    u @ tau @ u.T = diag(lambdas), from one herm_eig call on the real
    interleaved embedding E = kron(Re tau, sigma_z) + kron(Im tau,
    sigma_x) (Horn & Johnson, Matrix Analysis, 2nd ed., Cor. 4.4.4).
    E [x; y] = s [x; y] is tau conj(x + iy) = s (x + iy), and i(x + iy)
    belongs to -s, so the spectrum of E is +-lambdas.  The top n
    eigenvectors of E are the rows of conj(u): inside a cluster of equal
    lambdas they are complex orthonormal, because the +s eigenspace is
    orthogonal to its image under i, the -s eigenspace.  The square of
    tau is never formed, so the condition number is not squared, and a
    diagonal tau maps to a diagonal phase unitary.

    Lambdas at or below the support cut are exact zeros.  Their
    eigenvectors of E mix the null space of tau with its image under i,
    so those rows of u come from a QR completion of the others instead:
    tau conj(v) = 0 for every v orthogonal to the range of tau.

    Raises NotSymmetric when max|tau - tau.T| exceeds tol relative to the
    larger of 1 and the largest entry magnitude.
    """
    t = np.array(tau, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("takagi expects a square matrix")
    n = t.shape[0]
    scale = max(1.0, float(np.max(np.abs(t)))) if n else 1.0
    res = float(np.max(np.abs(t - t.T))) if n else 0.0
    if res > tol * scale:
        raise NotSymmetric("max|tau - tau.T| = %.3e exceeds %.3e" % (res, tol * scale))
    t = (t + t.T) / 2.0
    e = np.kron(t.real, _SIGMA_Z) + np.kron(t.imag, _SIGMA_X)
    s, z = herm_eig(e)
    v = z[0::2, :n] + 1j * z[1::2, :n]
    keep = support(s[:n])
    lam = np.where(keep, s[:n], 0.0)
    r = int(keep.sum())
    if r < n:
        q, _ = np.linalg.qr(np.hstack([v[:, :r], np.eye(n)]))
        v[:, r:] = q[:, r:n]
    return TakagiFactorization(u=v.conj().T, lambdas=lam)


@dataclass(frozen=True, eq=False)
class DualBasis:
    """Primal vectors and duals with <dual_i|primal_j> = delta_ij.

    For one family, primal and dual are tuples of its k vectors; for a
    stack of K families, arrays of shape (K, n, k) with the vectors as
    columns.
    """

    primal: tuple
    dual: tuple


# the condition tests: (error, message, power) for families, whose
# (s_min / s_max)**2 is the reciprocal condition of their Gram matrix,
# and for coefficient blocks
_DEPENDENT = (DependentVectors, "gram reciprocal condition %.3e below 1e-12", 2)
_SINGULAR = (SingularCoefficients, "reciprocal condition %.3e below 1e-12", 1)


def _check_condition(s, error, message, power):
    """Raise error, for the first such row of a stack s of descending
    singular values, when (s_min / s_max)**power drops below 1e-12.

    A row with s_max = 0 has ratio 0.
    """
    rc = np.zeros(len(s))
    np.divide(s[:, -1], s[:, 0], out=rc, where=s[:, 0] > 0.0)
    rc = rc**power
    bad = np.flatnonzero(rc < 1e-12)
    if bad.size:
        raise error(message % rc[bad[0]])


def _checked_svd(x, error, message, power):
    """Thin SVD (u, s, vh) of each slice of a stack (K, n, k), after checks.

    Raises NotHermitian when an entry is not finite, and error through
    _check_condition.  A slice with more columns than rows has ratio 0.
    """
    _check_finite(x)
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    _check_condition(
        s if x.shape[2] <= x.shape[1] else np.zeros_like(s), error, message, power
    )
    return u, s, vh


def dual_basis(vectors):
    """Dual frame of a linearly independent family of vectors, or of a stack.

    vectors is a sequence of k vectors, or an array of shape (K, n, k)
    holding K families as columns.  The duals reproduce coefficients on
    the span: for any v in the span, v = sum_i <dual_i|v> primal_i.  A
    stack takes one batched thin SVD, phi = U S V^dag, and the duals are
    U S^-1 V^dag; a sequence is a stack of one.  No Gram matrix is
    formed.  Raises DependentVectors, for the first such family, when
    (s_min / s_max)**2, the reciprocal condition number of the Gram
    matrix phi^dag phi, drops below 1e-12.
    """
    stacked = isinstance(vectors, np.ndarray) and vectors.ndim == 3
    if stacked:
        phi = np.array(vectors, dtype=complex, order="C")
    else:
        vecs = [np.array(v, dtype=complex).reshape(-1) for v in vectors]
        if not vecs:
            raise ValueError("dual_basis expects at least one vector")
        phi = np.column_stack(vecs)[None]
    u, s, vh = _checked_svd(phi, *_DEPENDENT)
    phihat = (u / s[:, None, :]) @ vh
    if stacked:
        return DualBasis(primal=phi, dual=phihat)
    return DualBasis(
        primal=tuple(vecs),
        dual=tuple(phihat[0, :, k] for k in range(phihat.shape[2])),
    )


def restricted_inverse(coeffs, basis):
    """Inverse on a span of M = sum_ij coeffs[i,j] |primal_i><primal_j|.

    Returns the matrix sum_ij inv(coeffs)[i,j] |dual_i><dual_j|, which
    satisfies M @ result = identity on span(primal).  For a stacked basis,
    coeffs has shape (K, k, k) and the result (K, n, n).  Each block's
    inverse is V S^-1 U^dag from one batched SVD, coeffs = U S V^dag.
    Raises SingularCoefficients, for the first such block, when its
    reciprocal condition number s_min / s_max drops below 1e-12.
    """
    a = np.array(coeffs, dtype=complex)
    stacked = isinstance(basis.dual, np.ndarray)
    phihat = basis.dual if stacked else np.column_stack(basis.dual)[None]
    k = phihat.shape[2]
    if a.shape != ((phihat.shape[0], k, k) if stacked else (k, k)):
        raise ValueError("coefficient matrix shape does not match the basis")
    if not stacked:
        a = a[None]
    u, s, vh = _checked_svd(a, *_SINGULAR)
    ainv = (vh.conj().swapaxes(1, 2) / s[:, None, :]) @ u.conj().swapaxes(1, 2)
    minv = phihat @ ainv @ phihat.conj().swapaxes(1, 2)
    return minv if stacked else minv[0]
