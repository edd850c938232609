"""Checked linear algebra for small complex matrices.

A Hermitian eigendecomposition (np.linalg.eigh behind finiteness and
hermiticity checks), Takagi factorization of complex symmetric
matrices, and the checked dual basis of the optimality certificate.
Everything is sized for the 2x2 and 4x4 matrices used elsewhere in the
package.  Each input is checked once, where it enters: herm_eig and
takagi raise NotHermitian on an entry that is not finite or above
MAX_ENTRY, so no sum they form overflows.  Every eigenpair comes from
_eigh_desc, which checks nothing: herm_eig calls it after its checks,
takagi and ppt_check on matrices Hermitian by construction.
_dual_basis takes stacks only, (K, n, k), and runs one batched SVD of
the stack itself, which also gives the conditioning it is tested on.
No Gram matrix or other square of an input is formed, so no condition
number is squared.  The dual frames are one of the certificate's two
inverses; the other, of its 2x2 coefficient blocks, is closed-form
(lsd._block_inverses), and the two are the only places it raises on
conditioning.

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
)

# support cut of every spectrum, relative to its largest entry: at least
# twice the largest zero eigenvalue that rounding leaves, 3.1 eps,
# measured on 80 000 random rank-1 to rank-3 states and 20 000 low-rank tau
SUPPORT_EPS = 8.0 * np.finfo(float).eps

# largest entry magnitude herm_eig and takagi accept, far enough below the
# largest float that h + h^dag and takagi's 2n x 2n embedding stay finite
MAX_ENTRY = 2.0**1000


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

    Raises NotHermitian when an entry is not finite or its magnitude
    exceeds MAX_ENTRY, or when max|h - h^dag| exceeds 1e-10 relative to
    the larger of 1 and the largest entry magnitude.
    """
    a = np.asarray(h)
    # no copy: nothing below writes to a
    a = a.astype(complex if np.iscomplexobj(a) else float, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("herm_eig expects a square matrix")
    if a.shape[0] == 0:
        return np.zeros(0), a
    # checked first: the residual test below lets non-finite input through,
    # since NaN compares False and a diagonal inf*1j gives res = scale = inf
    top = _checked_top(a)
    ah = a.conj().T
    res = np.abs(a - ah).max()
    bound = 1e-10 * max(1.0, top)
    if res > bound:
        raise NotHermitian("max|h - h^dag| = %.3e exceeds %.3e" % (res, bound))
    return _eigh_desc(-((a + ah) / 2.0))


def _eigh_desc(neg):
    """Descending eigenpair (w, v) of -neg, for an exactly Hermitian neg
    built from checked data: the package's one np.linalg.eigh call."""
    w, v = np.linalg.eigh(neg)
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


def _checked_top(a):
    """Largest entry magnitude of a non-empty matrix, as a float; raises
    NotHermitian when it is not finite or exceeds MAX_ENTRY."""
    top = float(np.abs(a).max())
    # written "not top <= bound" so that a NaN entry fails too
    if not top <= MAX_ENTRY:
        # a complex entry with finite parts can still have an infinite |z|
        if top < math.inf or np.isfinite(a).all():
            raise NotHermitian("entry magnitude %.3e exceeds 2**1000" % top)
        raise NotHermitian("matrix has non-finite entries")
    return top


# sigma_z and sigma_x as (2, 1, 2) blocks of an (n, 2, n, 2) embedding
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])[:, None, :]
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])[:, None, :]


def _real_embedding(t):
    """kron(Re t, sigma_z) + kron(Im t, sigma_x), as one broadcast product.

    Each entry keeps the kron sum's arithmetic, re * sz + im * sx with
    the zero products in place, so that its signed zeros, which LAPACK's
    reflectors read, are the kron sum's too.
    """
    n = t.shape[0]
    re, im = t.real[:, None, :, None], t.imag[:, None, :, None]
    return (re * _SIGMA_Z + im * _SIGMA_X).reshape(2 * n, 2 * n)


def takagi(tau):
    """Takagi factorization of a complex symmetric matrix.

    Returns the tuple (u, lambdas), as herm_eig returns (w, v): a unitary
    u and descending non-negative lambdas with u @ tau @ u.T =
    diag(lambdas).  Both come from one _eigh_desc call, unchecked, on the
    exactly symmetric real embedding E = kron(Re tau, sigma_z) + kron(Im
    tau, sigma_x) of the checked tau (Horn & Johnson, Matrix Analysis,
    2nd ed., Cor. 4.4.4).
    E [x; y] = s [x; y] is tau conj(x + iy) = s (x + iy), and i(x + iy)
    belongs to -s, so the spectrum of E is +-lambdas.  The top n
    eigenvectors of E are the rows of conj(u): inside a cluster of equal
    lambdas they are complex orthonormal, because the +s eigenspace is
    orthogonal to its image under i, the -s eigenspace.  The square of
    tau is never formed, so the condition number is not squared, and a
    diagonal tau maps to a diagonal phase unitary.

    Lambdas at or below the support cut are exact zeros.  Their
    eigenvectors of E mix the null space of tau with its image under i,
    so those rows of u are rebuilt.  A zero row j of the symmetric tau is
    its own Takagi null vector e_j.  When the zero rows of tau account
    for every zero lambda and the kept rows of u are exactly zero on
    them, as on the eigen-ensemble of a rank-deficient state, whose zero
    rows are its last, the null rows of u are those e_j, in row order.
    Otherwise, as when tau's block on its nonzero rows is itself
    singular, they come from a QR completion of the kept rows: tau
    conj(v) = 0 for every v orthogonal to the range of tau.

    Raises NotHermitian when an entry is not finite or its magnitude
    exceeds MAX_ENTRY, and NotSymmetric when max|tau - tau.T| exceeds
    1e-10 relative to the larger of 1 and the largest entry magnitude.
    """
    t = np.array(tau, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("takagi expects a square matrix")
    n = t.shape[0]
    if n == 0:
        return t, np.zeros(0)
    # checked first: t - t.T on a non-finite entry warns and compares False
    scale = max(1.0, _checked_top(t))
    res = float(np.abs(t - t.T).max())
    if res > 1e-10 * scale:
        raise NotSymmetric("max|tau - tau.T| = %.3e exceeds %.3e" % (res, 1e-10 * scale))
    sym = (t + t.T) / 2.0
    s, z = _eigh_desc(-_real_embedding(sym))
    v = z[0::2, :n] + 1j * z[1::2, :n]
    keep = support(s[:n])
    lam = np.where(keep, s[:n], 0.0)
    r = np.count_nonzero(keep)
    if r < n:
        null = ~sym.any(axis=1)
        # e_j is orthogonal to the kept rows only where they are exactly zero
        if np.count_nonzero(null) == n - r and not v[null, :r].any():
            v[:, r:] = np.eye(n)[:, null]
        else:
            q, _ = np.linalg.qr(np.hstack([v[:, :r], np.eye(n)]))
            v[:, r:] = q[:, r:n]
    return v.conj().T, lam


def _dual_basis(phi):
    """Dual frames of a stack of linearly independent families.

    phi has shape (K, n, k), each slice holding one family of k vectors
    as columns, and the result has the same shape: its slice i holds the
    duals of family i, with <dual_a|phi_b> = delta_ab, so any v in the
    span is sum_a <dual_a|v> phi_a.  One batched thin SVD, phi = U S V^dag,
    gives the duals U S^-1 V^dag and the conditioning they are tested on;
    no Gram matrix is formed, so no condition number is squared.

    Raises NotHermitian when an entry of phi is not finite, then when a
    singular value is not finite (the SVD of finite input can still
    overflow), then DependentVectors for the first family whose (s_min /
    s_max)**2, the reciprocal condition number of its Gram matrix phi^dag
    phi, drops below 1e-12.  A family with s_max 0, or with more vectors
    than dimensions, has ratio 0.
    """
    phi = np.array(phi, dtype=complex, order="C")
    if not np.isfinite(phi).all():
        raise NotHermitian("matrix has non-finite entries")
    u, s, vh = np.linalg.svd(phi, full_matrices=False)
    rows = s if phi.shape[2] <= phi.shape[1] else np.zeros_like(s)
    if not np.isfinite(rows).all():
        raise NotHermitian("matrix has non-finite entries")
    for row in rows.tolist():
        top = max(row)
        rc = (min(row) / top if top > 0.0 else 0.0) ** 2
        if rc < 1e-12:
            raise DependentVectors("gram reciprocal condition %.3e below 1e-12" % rc)
    return (u / s[:, None, :]) @ vh
