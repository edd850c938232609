"""Generation of two-qubit states with a prescribed overlap spectrum.

Ensembles {x_i} with <x_i|xtilde_j> = lambda_i delta_ij map to complex
orthogonal matrices Y through a fixed change of frame, and the physically
distinct part of Y is a three-factor hyperbolic parametrization.  Running
it backwards turns six angles and a target spectrum into a density matrix
whose overlap spectrum is the target up to an overall trace factor.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Tuple

import numpy as np

from .errors import NotSpecialUnitary, RankDeficient, ResidualCheckFailed, ZeroState
from .qstate import DensityMatrix, _flip_form, _outer_sum, from_json, to_json
from .wootters import WoottersDecomposition, _zero_threshold

# real symmetric involution mixing the product basis into magic-like pairs
O_MAT = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, 0.0],
        [1.0, 0.0, 0.0, -1.0],
    ]
) / np.sqrt(2.0)

# quarter-phase scaling; O_MAT.T @ ETA**2 @ O_MAT is the spin flip sigma_y (x) sigma_y
ETA = np.diag([1j, 1.0, 1j, 1.0])
ETA_INV = np.diag([-1j, 1.0, -1j, 1.0])

# the frame change back from the orthogonal picture, X = (O_MAT ETA_INV) Y
_O_ETA_INV = O_MAT @ ETA_INV
_FLOAT = np.finfo(float)


@dataclass(frozen=True)
class CosetParams:
    """Six hyperbolic angles plus a target overlap spectrum.

    Each field is a sequence of numbers (a str or bytes raises
    ValueError naming the field), converted once to a tuple of floats.
    Then, in this order and with ValueError: lambdas has four entries and
    each angle pair two; every entry is finite; lambdas are non-negative
    and non-increasing; xi is non-negative; and max|theta| + max xi +
    max|phi| is at most 350, past which the frame's Gram overflows.
    """

    lambdas: Tuple[float, ...]
    theta: Tuple[float, ...]
    xi: Tuple[float, ...]
    phi: Tuple[float, ...]

    def __post_init__(self):
        for name in ("lambdas", "theta", "xi", "phi"):
            # float() would read a string character by character
            value = getattr(self, name)
            if isinstance(value, (str, bytes)):
                raise ValueError(
                    "%s must be a sequence of numbers, not %s" % (name, type(value).__name__)
                )
        lam = tuple(map(float, self.lambdas))
        th = tuple(map(float, self.theta))
        xi = tuple(map(float, self.xi))
        ph = tuple(map(float, self.phi))
        if len(lam) != 4:
            raise ValueError("lambdas must have length 4")
        if len(th) != 2 or len(xi) != 2 or len(ph) != 2:
            raise ValueError("theta, xi, phi must each have length 2")
        if not all(map(math.isfinite, lam + th + xi + ph)):
            raise ValueError("parameters must be finite, got NaN or inf")
        if min(lam) < 0.0:
            raise ValueError("lambdas must be non-negative")
        if not lam[0] >= lam[1] >= lam[2] >= lam[3]:
            raise ValueError("lambdas must be non-increasing")
        if min(xi) < 0.0:
            raise ValueError("xi angles must be non-negative")
        if max(map(abs, th)) + max(xi) + max(map(abs, ph)) > 350.0:
            raise ValueError("max|theta| + max xi + max|phi| exceeds 350")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "phi", ph)


_NOT_ORTHOGONAL = "matrix not complex orthogonal (%.3e)"

# factor k and plane (p, q) of theta_1, theta_2, xi_1, xi_2, phi_1 and phi_2,
# and the flat indices, in the (3, 4, 4) stack of factors, of the entries
# (p, p), (q, q), (p, q) and (q, p) of their rotations, one row per entry
_PLANES = ((0, 0, 1), (0, 2, 3), (1, 0, 2), (1, 1, 3), (2, 0, 1), (2, 2, 3))
_PLANE_ENTRIES = np.array(
    [
        [16 * k + 5 * p, 16 * k + 5 * q, 16 * k + 4 * p + q, 16 * k + 4 * q + p]
        for k, p, q in _PLANES
    ]
).T.ravel()


def _checked_frame(m, gram, message):
    """m, once gram, the Gram matrix of its columns under the frame's form,
    is within 1e-9 of I; else ResidualCheckFailed with message % residual.

    The identity is subtracted from gram's diagonal in place, so callers
    pass a Gram matrix they have just formed and do not keep.
    """
    gram.flat[::5] -= 1.0
    resid = np.abs(gram).max()
    # written "not resid <= tol" so that a NaN residual fails too
    if not resid <= 1e-9:
        raise ResidualCheckFailed(message % resid)
    return m


def build_x(w):
    """Normalized column frame X, columns x_i / sqrt(lambda_i), of a basis.

    Returns a complex 4x4 array whose columns have spin-flip overlaps
    <x_i|xtilde_j> = delta_ij, that is X^T S X = I with S the spin flip.
    Raises RankDeficient when any lambda_i vanishes, since the frame then
    has no normalizable column, and ResidualCheckFailed when the columns
    miss that identity by more than 1e-9.
    """
    lam = w.lambdas
    cut = _zero_threshold(lam)
    if any(float(x) <= cut for x in lam):
        raise RankDeficient("overlap spectrum has a vanishing entry")
    rows = w.xs / np.sqrt(lam)[:, None]
    message = "columns not orthonormal under the spin-flip form (%.3e)"
    return _checked_frame(rows.T, _flip_form(rows), message)


def y_from_x(x):
    """Frame change X -> Y = ETA @ O_MAT @ X into the orthogonal picture.

    Returns a complex 4x4 array; ResidualCheckFailed when Y^T Y misses the
    identity by more than 1e-9.
    """
    y = ETA @ O_MAT @ x
    return _checked_frame(y, y.T @ y, _NOT_ORTHOGONAL)


def y_factor(params):
    """Three-factor orthogonal matrix Theta(theta) Xi(xi) Phi(phi).

    Theta and Phi act in the (0,1) and (2,3) planes, Xi in the (0,2) and
    (1,3) planes; each plane carries a hyperbolic rotation
    [[cosh t, i sinh t], [-i sinh t, cosh t]].  The six cosh and sinh
    values come from one call each and fill one (3, 4, 4) stack of the
    three factors.  Returns a complex 4x4 array; ResidualCheckFailed when
    Y^T Y misses the identity by more than 1e-9, as it does on rounding
    at strong squeezing.
    """
    t = np.array(params.theta + params.xi + params.phi)
    c, s = np.cosh(t), np.sinh(t)
    f = np.zeros(48, dtype=complex)
    f[_PLANE_ENTRIES] = np.concatenate((c, c, 1j * s, -1j * s))
    f = f.reshape(3, 4, 4)
    y = f[0] @ f[1] @ f[2]
    return _checked_frame(y, y.T @ y, _NOT_ORTHOGONAL)


CosetResult = namedtuple("CosetResult", ["rho", "wootters", "trace_factor"])


def coset_generate(params):
    """Density matrix realizing a target overlap spectrum.

    Builds the orthogonal frame from the six angles, attaches the target
    lambdas, and normalizes by the resulting trace factor.  The achieved
    spectrum is params.lambdas / trace_factor.

    The returned decomposition holds the frame's vectors x_i, scaled by
    the same factor, so the |x_i><x_i| sum to the returned state.
    Raises ZeroState when all lambdas vanish, and ValueError when the
    trace factor would leave the normal floats, less a factor 2 at the top.
    """
    lam = np.array(params.lambdas, dtype=float)
    if float(lam[0]) <= 0.0:
        raise ZeroState("all target lambdas vanish")
    y = y_factor(params)
    xm = _O_ETA_INV @ y
    # the trace factor is lam[0] * s, s >= 1 as each column has x^T S x = 1
    s = float(np.vdot(xm, xm * (lam / lam[0])).real)
    if not _FLOAT.tiny / s <= lam[0] <= 0.5 * _FLOAT.max / s:
        raise ValueError("lambda_1 = %.3e puts the trace factor out of range" % lam[0])
    t = float(lam[0]) * s
    xs_raw = np.sqrt(lam)[:, None] * xm.T
    rho = DensityMatrix(_outer_sum(xs_raw) / t)
    w = WoottersDecomposition(xs=xs_raw / np.sqrt(t), lambdas=lam / t)
    return CosetResult(rho=rho, wootters=w, trace_factor=t)


def _check_su2(u, name):
    u = np.array(u, dtype=complex).reshape(2, 2)
    # written "not res <= tol" so that a NaN entry fails too
    if not np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-10:
        raise NotSpecialUnitary("%s is not unitary" % name)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    if not abs(det - 1.0) <= 1e-10:
        raise NotSpecialUnitary("%s has determinant %r, expected 1" % (name, det))
    return u


def _kron2(a, b):
    """Kronecker product a (x) b of two 2x2 matrices, as one broadcast product."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def local_unitary_action(u1, u2, rho):
    """Conjugation of a state by a product of one-qubit special unitaries."""
    u1 = _check_su2(u1, "u1")
    u2 = _check_su2(u2, "u2")
    big = _kron2(u1, u2)
    return DensityMatrix(big @ rho.m @ big.conj().T)


def so4r_image(u1, u2):
    """Real rotation representing a product unitary in the orthogonal frame.

    Computes (ETA O) (u1 (x) u2) (O ETA_INV); for special unitary inputs
    the result is a real orthogonal matrix with determinant one.
    """
    u1 = _check_su2(u1, "u1")
    u2 = _check_su2(u2, "u2")
    r = ETA @ O_MAT @ _kron2(u1, u2) @ O_MAT @ ETA_INV
    if not np.abs(r.imag).max() <= 1e-8:
        raise ValueError("image has an imaginary part; inputs outside SU(2)?")
    return r.real


def haar_su2(rng):
    """Haar-random SU(2) element from a normalized Gaussian quaternion."""
    q = rng.standard_normal(4)
    q = q / np.linalg.norm(q)
    a, b, c, d = q
    return np.array(
        [[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]]
    )


params_to_json = to_json
params_from_json = partial(from_json, CosetParams)
