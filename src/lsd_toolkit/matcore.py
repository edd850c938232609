"""Checked linear algebra for small complex matrices.

A Hermitian eigendecomposition (np.linalg.eigh behind finiteness and
hermiticity checks), positive semidefinite square roots, Takagi
factorization of complex symmetric matrices, a real 2x2 singular value
decomposition with proper rotations, and dual-basis / restricted-inverse
helpers.  Everything is sized for the 2x2 and 4x4 matrices used
elsewhere in the package.  Every eigenpair in the package comes from
herm_eig, and takagi takes one of them, of a real embedding of tau.  The
dual basis and the restricted inverse work on stacks of families and
test their conditioning with eigenvalues alone, from one batched
eigvalsh call per stack behind the same finiteness and hermiticity
checks as herm_eig.

The trailing lambdas of a low-rank state come out as exact zeros not
because of the solver but because of one support cut, support(w):
eigen_ensemble, lambda_spectrum_raw, coset_generate and takagi treat an
entry at or below 64 eps times the largest of its spectrum as zero.
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
    "svd2_real",
    "DualBasis",
    "dual_basis",
    "restricted_inverse",
]

# support cut of every spectrum, relative to its largest entry
SUPPORT_EPS = 64.0 * np.finfo(float).eps

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
    w, v = np.linalg.eigh(-_hermitian_part(a, tol))
    # 0.0 - w, unlike -w, turns an exact zero eigenvalue into +0.0
    return 0.0 - w, v


def support(w):
    """Mask of the entries of a spectrum w above 64 eps max(w).

    The one support cut of the package: a state eigenvalue or a Takagi
    value at or below it counts as an exact zero.  Rounding leaves a few
    eps of the largest eigenvalue in the zero eigenvalues of a singular
    matrix, and the cut removes it.  A true state eigenvalue below the
    cut moves a lambda by at most about 2 sqrt(64 eps), 2.4e-7, of the
    largest.
    """
    return w > SUPPORT_EPS * np.max(w, initial=0.0)


def _hermitian_part(a, tol=1e-10):
    """(a + a^dag) / 2 of a matrix or a stack (..., n, n), after checks.

    Raises NotHermitian when an entry is not finite, or when a slice's
    max|a - a^dag| exceeds tol relative to the larger of 1 and its largest
    entry magnitude; the first such slice is the one reported.
    """
    # checked first: the residual test below lets non-finite input through,
    # since NaN compares False and a diagonal inf*1j gives res = scale = inf
    if not np.all(np.isfinite(a)):
        raise NotHermitian("matrix has non-finite entries")
    ah = a.conj().swapaxes(-1, -2)
    diff = np.abs(a - ah)
    # every slice's bound is at least tol, so only a larger residual needs
    # the per-slice scales
    if diff.max() > tol:
        res = diff.max(axis=(-2, -1)).reshape(-1)
        bound = tol * np.maximum(1.0, np.abs(a).max(axis=(-2, -1))).reshape(-1)
        bad = np.flatnonzero(res > bound)
        if bad.size:
            i = bad[0]
            raise NotHermitian(
                "max|h - h^dag| = %.3e exceeds %.3e" % (res[i], bound[i])
            )
    return (a + ah) / 2.0


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


def svd2_real(c):
    """Real 2x2 singular value decomposition with proper rotations.

    Returns (o1, d, o2) with c = o1 @ diag(d) @ o2.T, both factors in
    SO(2), d[0] >= |d[1]|, and d[1] carrying the sign of det(c).
    """
    m = np.array(c, dtype=float)
    if m.shape != (2, 2):
        raise ValueError("svd2_real expects a real 2x2 matrix")
    g = m.T @ m
    theta = 0.5 * np.arctan2(2.0 * g[0, 1], g[0, 0] - g[1, 1])
    ct, st = float(np.cos(theta)), float(np.sin(theta))
    o2 = np.array([[ct, -st], [st, ct]])
    b = m @ o2
    s0 = float(np.hypot(b[0, 0], b[1, 0]))
    s1 = float(np.hypot(b[0, 1], b[1, 1]))
    if s0 < s1:
        swap = np.array([[0.0, -1.0], [1.0, 0.0]])
        b = b @ swap
        o2 = o2 @ swap
        s0, s1 = s1, s0
    if s0 == 0.0:
        return np.eye(2), np.zeros(2), o2
    u0 = b[:, 0] / s0
    if s1 > 1e-12 * s0:
        u1 = b[:, 1] / s1
        d1 = s1
    else:
        u1 = np.array([-u0[1], u0[0]])
        d1 = float(u1 @ b[:, 1])
    o1 = np.column_stack([u0, u1])
    d = np.array([s0, d1])
    if np.linalg.det(o1) < 0.0:
        o1 = o1.copy()
        o1[:, 1] = -o1[:, 1]
        d[1] = -d[1]
    return o1, d, o2


@dataclass(frozen=True, eq=False)
class DualBasis:
    """Primal vectors and duals with <dual_i|primal_j> = delta_ij.

    For one family, primal and dual are tuples of its k vectors; for a
    stack of K families, arrays of shape (K, n, k) with the vectors as
    columns.
    """

    primal: tuple
    dual: tuple


def _reciprocal_conditions(m):
    """Smallest over largest eigenvalue of each slice of a Hermitian stack.

    One eigvalsh call behind herm_eig's checks.  A negative smallest
    eigenvalue counts as 0, and so does a slice whose largest is not
    positive.
    """
    w = np.linalg.eigvalsh(_hermitian_part(m))
    top = w[:, -1]
    bottom = np.maximum(w[:, 0], 0.0)
    return np.divide(bottom, top, out=np.zeros_like(top), where=top > 0.0)


def _gram(x):
    """x^dag x of each slice of a stack.

    A non-finite x gives a non-finite product without a warning, and the
    condition test then raises NotHermitian for it.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return x.conj().swapaxes(1, 2) @ x


def _raise_first_below(rc, error, message):
    bad = np.flatnonzero(rc < 1e-12)
    if bad.size:
        raise error(message % rc[bad[0]])


def dual_basis(vectors):
    """Dual frame of a linearly independent family of vectors, or of a stack.

    vectors is a sequence of k vectors, or an array of shape (K, n, k)
    holding K families as columns.  The duals reproduce coefficients on
    the span: for any v in the span, v = sum_i <dual_i|v> primal_i.  A
    stack takes one batched Gram product, one batched condition test and
    one batched inverse; a sequence is a stack of one.  Raises
    DependentVectors, for the first such family, when the reciprocal
    condition number of a Gram matrix drops below 1e-12.
    """
    stacked = isinstance(vectors, np.ndarray) and vectors.ndim == 3
    if stacked:
        phi = np.array(vectors, dtype=complex, order="C")
    else:
        vecs = [np.array(v, dtype=complex).reshape(-1) for v in vectors]
        if not vecs:
            raise ValueError("dual_basis expects at least one vector")
        phi = np.column_stack(vecs)[None]
    gram = _gram(phi)
    _raise_first_below(
        _reciprocal_conditions(gram),
        DependentVectors,
        "gram reciprocal condition %.3e below 1e-12",
    )
    phihat = phi @ np.linalg.inv(gram)
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
    coeffs has shape (K, k, k) and the result (K, n, n), from one batched
    condition test and one batched inverse.  Raises SingularCoefficients,
    for the first such block, when the reciprocal condition number of
    coeffs drops below 1e-12.
    """
    a = np.array(coeffs, dtype=complex)
    stacked = isinstance(basis.dual, np.ndarray)
    phihat = basis.dual if stacked else np.column_stack(basis.dual)[None]
    k = phihat.shape[2]
    if a.shape != ((phihat.shape[0], k, k) if stacked else (k, k)):
        raise ValueError("coefficient matrix shape does not match the basis")
    if not stacked:
        a = a[None]
    rc = np.sqrt(_reciprocal_conditions(_gram(a)))
    _raise_first_below(
        rc, SingularCoefficients, "reciprocal condition %.3e below 1e-12"
    )
    minv = phihat @ np.linalg.inv(a) @ phihat.conj().swapaxes(1, 2)
    return minv if stacked else minv[0]
