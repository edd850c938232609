"""Checked linear algebra for small complex matrices.

A Hermitian eigendecomposition (np.linalg.eigh behind finiteness and
hermiticity checks), Takagi factorization of complex symmetric
matrices, and the dual-basis and restricted-inverse helpers of the
optimality certificate.  Everything is sized for the 2x2 and 4x4
matrices used elsewhere in the package.  Every eigenpair in the package
comes from herm_eig, and takagi takes one of them, of a real embedding
of tau.  The dual-basis helpers take stacks of families only, (K, n, k),
and run one batched SVD of the stack itself, which also gives the
conditioning it is tested on.  No Gram matrix or other square of an
input is formed, so no condition number is squared.

The trailing lambdas of a low-rank state come out as exact zeros not
because of the solver but because of one support cut, support(w):
eigen_ensemble, lambda_spectrum_raw, coset_generate and takagi treat an
entry at or below 8 eps times the largest of its spectrum as zero.
"""

import math

import numpy as np

from .errors import (
    DependentVectors,
    NotHermitian,
    NotSymmetric,
    SingularCoefficients,
)

# support cut of every spectrum, relative to its largest entry: at least
# twice the largest zero eigenvalue that rounding leaves, 3.1 eps,
# measured on 80 000 random rank-1 to rank-3 states and 20 000 low-rank tau
SUPPORT_EPS = 8.0 * np.finfo(float).eps


def _checked_tol(tol):
    """tol as a float; ValueError unless it is a finite number >= 0.

    The one check of a caller's tolerance: verify_optimality's tol, a
    suite's tol override and the CLI's --tol all go through it.
    """
    value = float(tol)
    if not 0.0 <= value < math.inf:
        raise ValueError("tol must be a finite number >= 0, got %r" % (tol,))
    return value


def herm_eig(h):
    """Checked eigendecomposition of a Hermitian matrix.

    Returns (w, v) with eigenvalues w sorted in descending order and the
    matching orthonormal eigenvectors as the columns of v, computed as
    np.linalg.eigh of minus the symmetrized input.  A real input stays
    real.  The order inside a degenerate cluster is LAPACK's, which keeps
    the order of a diagonal input.

    Raises NotHermitian when an entry is not finite, or when
    max|h - h^dag| exceeds 1e-10 relative to the larger of 1 and the
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
    # the bound is at least 1e-10, so only a larger residual needs the scale
    if res > 1e-10:
        bound = 1e-10 * max(1.0, np.abs(a).max())
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
    return w > SUPPORT_EPS * w.max(initial=0.0)


def _check_finite(a):
    """Raise NotHermitian when an entry of a matrix or a stack is not finite."""
    if not np.isfinite(a).all():
        raise NotHermitian("matrix has non-finite entries")


def _real_embedding(t):
    """kron(Re t, sigma_z) + kron(Im t, sigma_x), by strided assignment.

    Each quarter keeps the kron sum's arithmetic, re * sz + im * sx with
    the zero products in place, so that its signed zeros, which LAPACK's
    reflectors read, are the kron sum's too.
    """
    re, im = t.real, t.imag
    e = np.empty((2 * t.shape[0], 2 * t.shape[1]))
    e[0::2, 0::2] = re + im * 0.0
    e[0::2, 1::2] = e[1::2, 0::2] = re * 0.0 + im
    e[1::2, 1::2] = re * -1.0 + im * 0.0
    return e


def takagi(tau):
    """Takagi factorization of a complex symmetric matrix.

    Returns the tuple (u, lambdas), as herm_eig returns (w, v): a unitary
    u and descending non-negative lambdas with u @ tau @ u.T =
    diag(lambdas).  Both come from one herm_eig call on the real
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

    Raises NotSymmetric when max|tau - tau.T| exceeds 1e-10 relative to
    the larger of 1 and the largest entry magnitude.
    """
    t = np.array(tau, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("takagi expects a square matrix")
    n = t.shape[0]
    scale = max(1.0, float(np.abs(t).max())) if n else 1.0
    res = float(np.abs(t - t.T).max()) if n else 0.0
    if res > 1e-10 * scale:
        raise NotSymmetric("max|tau - tau.T| = %.3e exceeds %.3e" % (res, 1e-10 * scale))
    s, z = herm_eig(_real_embedding((t + t.T) / 2.0))
    v = z[0::2, :n] + 1j * z[1::2, :n]
    keep = support(s[:n])
    lam = np.where(keep, s[:n], 0.0)
    r = int(keep.sum())
    if r < n:
        q, _ = np.linalg.qr(np.hstack([v[:, :r], np.eye(n)]))
        v[:, r:] = q[:, r:n]
    return v.conj().T, lam


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


def _dual_basis(phi):
    """Dual frames of a stack of linearly independent families.

    phi has shape (K, n, k), each slice holding one family of k vectors
    as columns, and the result has the same shape: its slice i holds the
    duals of family i, with <dual_a|phi_b> = delta_ab, so any v in the
    span is sum_a <dual_a|v> phi_a.  One batched thin SVD, phi = U S V^dag,
    gives the duals U S^-1 V^dag; no Gram matrix is formed.  Raises
    DependentVectors, for the first such family, when (s_min / s_max)**2,
    the reciprocal condition number of the Gram matrix phi^dag phi, drops
    below 1e-12.
    """
    phi = np.array(phi, dtype=complex, order="C")
    u, s, vh = _checked_svd(phi, *_DEPENDENT)
    return (u / s[:, None, :]) @ vh


def _restricted_inverse(coeffs, dual):
    """Inverses on their spans of M_i = sum_ab coeffs[i,a,b] |phi_a><phi_b|.

    dual is the stack (K, n, k) that _dual_basis returns for the families
    phi, and coeffs the blocks (K, k, k).  Returns the stack (K, n, n) of
    sum_ab inv(coeffs[i])[a,b] |dual_a><dual_b|, which satisfies
    M_i @ result[i] = identity on span(phi_i).  Each block's inverse is
    V S^-1 U^dag from one batched SVD, coeffs = U S V^dag.  Raises
    SingularCoefficients, for the first such block, when its reciprocal
    condition number s_min / s_max drops below 1e-12.
    """
    a = np.array(coeffs, dtype=complex)
    k = dual.shape[2]
    if a.shape != (dual.shape[0], k, k):
        raise ValueError("coefficient matrix shape does not match the basis")
    u, s, vh = _checked_svd(a, *_SINGULAR)
    ainv = (vh.conj().swapaxes(1, 2) / s[:, None, :]) @ u.conj().swapaxes(1, 2)
    return dual @ ainv @ dual.conj().swapaxes(1, 2)
