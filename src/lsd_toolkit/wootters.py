"""Concurrence, entanglement of formation, and the tilde-orthogonal basis.

The central object is a set of four subnormalized vectors x_i with
<x_i|xtilde_j> = lambda_i delta_ij, obtained from the eigen-ensemble by a
Takagi factorization of the spin-flip overlap matrix tau.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotNormalized, ResidualCheckFailed
from .matcore import herm_eig, takagi
from .qstate import (
    SIGMA_YY,
    ComplexArray,
    RealArray,
    _family,
    _read_only,
    eigen_ensemble,
    lambda_spectrum,
)


@dataclass(frozen=True, eq=False)
class TauMatrix:
    """Symmetric spin-flip overlap matrix tau_ij = <v_i|vtilde_j>.

    Symmetric by construction; takagi, which factorizes it, checks that.
    It stays a record of one array because the benchmark in bench/ reads
    tau_matrix(...).tau, and that code is kept fixed across library
    versions so that their timings compare.
    """

    tau: np.ndarray


def tau_matrix(vs):
    """Spin-flip overlap matrix of an eigen-ensemble, its (4, 4) row array vs."""
    vc = np.conj(vs)
    return TauMatrix(tau=vc @ SIGMA_YY @ vc.T)


@dataclass(frozen=True, eq=False)
class WoottersDecomposition:
    """Four vectors x_i with <x_i|xtilde_j> = lambda_i delta_ij.

    x_i is row i of the complex (4, 4) array xs, and the x_i sum to the
    state they decompose; lambdas is its lambda spectrum, a read-only
    (4,) float array, and u the unitary connecting xs to the
    eigen-ensemble, xs = conj(u) vs.  Construction checks that lambdas
    has four finite entries, none below -1e-12 and each no more than
    1e-12 above the one before, and raises ValueError otherwise; it
    clips the entries at 0.  It then rechecks the tilde orthogonality,
    the unit trace sum, and the unitarity of u.
    """

    xs: ComplexArray
    lambdas: RealArray
    u: ComplexArray

    def __post_init__(self):
        lam = np.array(self.lambdas, dtype=float)
        if lam.shape != (4,):
            raise ValueError("lambda spectrum must have four entries")
        if not np.isfinite(lam).all():
            raise ValueError("lambda spectrum must be finite")
        if (lam < -1e-12).any() or (lam[:-1] < lam[1:] - 1e-12).any():
            raise ValueError("lambda spectrum must be non-negative and descending")
        lam = np.clip(lam, 0.0, None)
        _read_only(lam)
        xs = _family(self.xs, "x")
        u = np.array(self.u, dtype=complex)
        # written "not res <= tol" so that a NaN residual fails too
        if not float(np.abs(u @ u.conj().T - np.eye(4)).max()) <= 1e-9:
            raise ResidualCheckFailed("u is not unitary within 1e-9")
        xc = np.conj(xs)
        overlap = xc @ SIGMA_YY @ xc.T
        res = float(np.abs(overlap - np.diag(lam)).max())
        if not res <= 1e-9:
            raise ResidualCheckFailed(
                "tilde orthogonality residual %.3e exceeds 1e-9" % res
            )
        tr = float(sum(np.vdot(xi, xi).real for xi in xs))
        if not abs(tr - 1.0) <= 1e-10:
            raise ResidualCheckFailed("norms sum to %.12f instead of 1" % tr)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "u", u)


def wootters_basis(rho):
    """Tilde-orthogonal decomposition of a state.

    Builds the eigen-ensemble, Takagi-factorizes its spin-flip overlap
    matrix, and rotates the ensemble by conj(u) so that
    <x_i|xtilde_j> = lambda_i delta_ij with lambdas descending.

    The phase freedom of each vector is a sign only, since flipping x_i
    must be absorbed by a sign flip in row i of u.  Each nonzero x_i is
    signed so that its largest-modulus component c has a positive real
    part, or, when |Re c| <= 1e-13 |c|, a non-negative imaginary part.

    The result is kept on rho, with read-only arrays, and every later
    call on the same state returns it: ls_decompose and
    verify_optimality share one eigen-ensemble, tau and Takagi
    factorization.
    """
    cached = getattr(rho, "_basis", None)
    if cached is not None:
        return cached
    vs = eigen_ensemble(rho)
    u, lam = takagi(tau_matrix(vs).tau)
    xs = np.conj(u) @ vs
    mods = np.abs(xs)
    rows = np.arange(4)
    k = mods.argmax(axis=1)
    c, cmod = xs[rows, k], mods[rows, k]
    eps = 1e-13 * cmod
    flip = (cmod != 0.0) & (
        (c.real < -eps) | ((np.abs(c.real) <= eps) & (c.imag < 0.0))
    )
    xs[flip] = -xs[flip]
    u[flip] = -u[flip]
    w = WoottersDecomposition(xs=xs, lambdas=lam, u=u)
    _read_only(w.xs, w.u)
    object.__setattr__(rho, "_basis", w)
    return w


def _zero_threshold(lam):
    """The zero cut of a lambda spectrum, 1e-8 of its largest entry.

    The rank class counts the entries at or below it as zeros, and the
    state as separable when its concurrence is at or below it; build_x
    refuses a spectrum with an entry at or below it.
    """
    return 1e-8 * max(float(lam[0]), 1e-30)


def _concurrence_of(lam):
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence(rho):
    """max(0, lambda1 - lambda2 - lambda3 - lambda4) of the state."""
    return _concurrence_of(lambda_spectrum(rho))


def _entropy_of_weights(ws, base):
    if not (0.0 < base < math.inf and base != 1.0):
        raise ValueError("entropy base must be finite, > 0 and != 1, got %r" % (base,))
    h = 0.0
    for w in ws:
        if w > 0.0:
            h -= w * np.log(w)
    return float(h / np.log(base))


def entanglement_of_formation(rho, base=2.0):
    """Entanglement of formation from the concurrence.

    Binary entropy of (1 + sqrt(1 - C^2)) / 2, in bits by default; pass
    base=np.e for nats.  A base that is not finite, > 0 and != 1 raises
    ValueError.
    """
    return _eof_of(concurrence(rho), base)


def _eof_of(c, base=2.0):
    x = 0.5 + 0.5 * np.sqrt(max(0.0, 1.0 - c * c))
    return _entropy_of_weights([x, 1.0 - x], base)


def pure_state_entropy(psi, base=2.0):
    """Entropy of entanglement of a normalized two-qubit pure state.

    Reduces to the first qubit and returns the eigenvalue entropy.
    Raises NotNormalized when the norm is off by more than 1e-10, and
    ValueError for a base that is not finite, > 0 and != 1.
    """
    v = np.array(psi, dtype=complex).reshape(4)
    norm = float(np.linalg.norm(v))
    # written "not res <= tol" so that a NaN norm fails too
    if not abs(norm - 1.0) <= 1e-10:
        raise NotNormalized("|norm - 1| = %.3e exceeds 1e-10" % abs(norm - 1.0))
    a = v.reshape(2, 2)
    red = a @ a.conj().T
    w, _ = herm_eig(red)
    return _entropy_of_weights(np.clip(w, 0.0, None), base)
