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
    ComplexArray,
    RealArray,
    _family,
    _flip_form,
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
    return TauMatrix(tau=_flip_form(vs))


@dataclass(frozen=True, eq=False)
class WoottersDecomposition:
    """Four vectors x_i with <x_i|xtilde_j> = lambda_i delta_ij.

    x_i is row i of the complex (4, 4) array xs, and the |x_i><x_i| sum
    to the state they decompose; lambdas is its lambda spectrum, a
    read-only (4,) float array.  Construction checks, in this order, each
    once: that lambdas has four entries (ValueError), that they are
    finite (ValueError), and that none is below -1e-12 and each is no
    more than 1e-12 above the one before (ValueError), then clips them at
    0; that xs is a (4, 4) family (ValueError); that the spin-flip form
    of xs, with the clipped lambdas subtracted from its diagonal in
    place, is within 1e-9 of 0 (ResidualCheckFailed); and that the norms
    of the x_i, one vdot over xs, sum to 1 within 1e-10
    (ResidualCheckFailed).
    """

    xs: ComplexArray
    lambdas: RealArray

    def __post_init__(self):
        lam = np.array(self.lambdas, dtype=float)
        if lam.shape != (4,):
            raise ValueError("lambda spectrum must have four entries")
        # four entries are tested faster as Python floats than as an array
        vals = lam.tolist()
        if not all(map(math.isfinite, vals)):
            raise ValueError("lambda spectrum must be finite")
        if min(vals) < -1e-12 or any(a < b - 1e-12 for a, b in zip(vals, vals[1:])):
            raise ValueError("lambda spectrum must be non-negative and descending")
        lam = np.array([x if x > 0.0 else 0.0 for x in vals])
        _read_only(lam)
        xs = _family(self.xs, "x")
        form = _flip_form(xs)
        form.flat[::5] -= lam
        res = float(np.abs(form).max())
        # written "not res <= tol" so that a NaN residual fails too
        if not res <= 1e-9:
            raise ResidualCheckFailed(
                "tilde orthogonality residual %.3e exceeds 1e-9" % res
            )
        tr = float(np.vdot(xs, xs).real)
        if not abs(tr - 1.0) <= 1e-10:
            raise ResidualCheckFailed("norms sum to %.12f instead of 1" % tr)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "lambdas", lam)


def wootters_basis(rho):
    """Tilde-orthogonal decomposition of a state.

    Builds the eigen-ensemble, Takagi-factorizes its spin-flip overlap
    matrix, and rotates the ensemble by conj(u), u the unitary Takagi
    factor, so that <x_i|xtilde_j> = lambda_i delta_ij with lambdas
    descending.

    The phase freedom of each vector is a sign only, since a phase
    e^{i phi} on x_i multiplies <x_i|xtilde_i> = lambda_i by e^{-2i phi}.
    Each nonzero x_i is signed so that its largest-modulus component c
    has a positive real part, or, when |Re c| <= 1e-13 |c|, a
    non-negative imaginary part.

    The result is kept on rho, with read-only arrays, and every later
    call on the same state returns it: ls_decompose and
    verify_optimality share one eigen-ensemble, tau and Takagi
    factorization.
    """
    cached = getattr(rho, "_basis", None)
    if cached is not None:
        return cached
    vs = eigen_ensemble(rho)
    u, lam = takagi(_flip_form(vs))
    xs = np.conj(u) @ vs
    mods = np.abs(xs)
    rows = np.arange(4)
    k = mods.argmax(axis=1)
    # four signs are decided faster on Python numbers than on arrays
    tops = zip(xs[rows, k].tolist(), mods[rows, k].tolist())
    for i, (c, cmod) in enumerate(tops):
        eps = 1e-13 * cmod
        if cmod != 0.0 and (c.real < -eps or (abs(c.real) <= eps and c.imag < 0.0)):
            np.negative(xs[i], out=xs[i])
    w = WoottersDecomposition(xs=xs, lambdas=lam)
    _read_only(w.xs)
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
    l1, l2, l3, l4 = lam.tolist()
    return max(0.0, l1 - l2 - l3 - l4)


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
