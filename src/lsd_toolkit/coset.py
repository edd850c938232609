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
from .matcore import support
from .qstate import SIGMA_YY, DensityMatrix, _outer_sum, from_json, to_json
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

# quarter-phase scaling; SIGMA_YY = O_MAT.T @ ETA**2 @ O_MAT
ETA = np.diag([1j, 1.0, 1j, 1.0])
ETA_INV = np.diag([-1j, 1.0, -1j, 1.0])

# the frame change back from the orthogonal picture, X = (O_MAT ETA_INV) Y
_O_ETA_INV = O_MAT @ ETA_INV


@dataclass(frozen=True)
class CosetParams:
    """Six hyperbolic angles plus a target overlap spectrum.

    Every entry must be finite.  lambdas must be non-negative and
    non-increasing; xi must be non-negative.  theta and phi are
    otherwise unconstrained.
    """

    lambdas: Tuple[float, ...]
    theta: Tuple[float, ...]
    xi: Tuple[float, ...]
    phi: Tuple[float, ...]

    def __post_init__(self):
        lam = tuple(float(x) for x in self.lambdas)
        th = tuple(float(x) for x in self.theta)
        xi = tuple(float(x) for x in self.xi)
        ph = tuple(float(x) for x in self.phi)
        if len(lam) != 4:
            raise ValueError("lambdas must have length 4")
        if len(th) != 2 or len(xi) != 2 or len(ph) != 2:
            raise ValueError("theta, xi, phi must each have length 2")
        if not all(math.isfinite(x) for x in lam + th + xi + ph):
            raise ValueError("parameters must be finite, got NaN or inf")
        if any(x < 0.0 for x in lam):
            raise ValueError("lambdas must be non-negative")
        if any(lam[i] < lam[i + 1] for i in range(3)):
            raise ValueError("lambdas must be non-increasing")
        if any(x < 0.0 for x in xi):
            raise ValueError("xi angles must be non-negative")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "phi", ph)


_NOT_ORTHOGONAL = "matrix not complex orthogonal (%.3e)"


def _checked_frame(m, message, form=None):
    """m as a complex 4x4 copy whose columns are orthonormal under a form.

    The test is max|m^T m - I| <= 1e-9, or max|m^T form m - I| <= 1e-9
    when a form is given; a larger residual raises ResidualCheckFailed
    with message % residual.
    """
    m = np.array(m, dtype=complex).reshape(4, 4)
    mt = m.T if form is None else m.T @ form
    resid = np.abs(mt @ m - np.eye(4)).max()
    # written "not resid <= tol" so that a NaN residual fails too
    if not resid <= 1e-9:
        raise ResidualCheckFailed(message % resid)
    return m


def build_x(w):
    """Normalized column frame X, columns x_i / sqrt(lambda_i), of a basis.

    Returns a complex 4x4 array with X^T S X = I, S the spin flip.
    Raises RankDeficient when any lambda_i vanishes, since the frame then
    has no normalizable column, and ResidualCheckFailed when the columns
    miss that identity by more than 1e-9.
    """
    lam = w.lambdas
    cut = _zero_threshold(lam)
    if any(float(x) <= cut for x in lam):
        raise RankDeficient("overlap spectrum has a vanishing entry")
    return _checked_frame(
        (w.xs / np.sqrt(lam)[:, None]).T,
        "columns not orthonormal under the spin-flip form (%.3e)",
        SIGMA_YY,
    )


def y_from_x(x):
    """Frame change X -> Y = ETA @ O_MAT @ X into the orthogonal picture.

    Returns a complex 4x4 array; ResidualCheckFailed when Y^T Y misses the
    identity by more than 1e-9.
    """
    return _checked_frame(ETA @ O_MAT @ x, _NOT_ORTHOGONAL)


def _roth(t):
    c, s = np.cosh(t), np.sinh(t)
    return np.array([[c, 1j * s], [-1j * s, c]])


def y_factor(params):
    """Three-factor orthogonal matrix Theta(theta) Xi(xi) Phi(phi).

    Theta and Phi act in the (0,1) and (2,3) planes, Xi in the (0,2) and
    (1,3) planes; each plane carries a hyperbolic rotation
    [[cosh t, i sinh t], [-i sinh t, cosh t]].  Returns a complex 4x4
    array; ResidualCheckFailed when Y^T Y misses the identity by more
    than 1e-9, as it does on rounding at strong squeezing.
    """
    th1, th2 = params.theta
    xi1, xi2 = params.xi
    ph1, ph2 = params.phi
    theta = np.zeros((4, 4), dtype=complex)
    theta[:2, :2] = _roth(th1)
    theta[2:, 2:] = _roth(th2)
    xi = np.zeros((4, 4), dtype=complex)
    xi[0::2, 0::2] = _roth(xi1)
    xi[1::2, 1::2] = _roth(xi2)
    phi = np.zeros((4, 4), dtype=complex)
    phi[:2, :2] = _roth(ph1)
    phi[2:, 2:] = _roth(ph2)
    return _checked_frame(theta @ xi @ phi, _NOT_ORTHOGONAL)


CosetResult = namedtuple("CosetResult", ["rho", "wootters", "trace_factor"])


def coset_generate(params):
    """Density matrix realizing a target overlap spectrum.

    Builds the orthogonal frame from the six angles, attaches the target
    lambdas, and normalizes by the resulting trace factor.  The achieved
    spectrum is params.lambdas / trace_factor.

    The unitary of the returned decomposition, x = v_ens u^dag, comes from
    the state's own eigenpair (mu_j, v_j): on the support, row j of u^dag
    is v_j^dag X / sqrt(mu_j), with X the columns x_i, and off it the row
    is zero.  u^dag is the polar factor A B^dag of one SVD A S B^dag of
    those rows, the unitary closest to them, which also fills the rows
    off the support.  Raises ZeroState when all lambdas vanish.
    """
    lam = np.array(params.lambdas, dtype=float)
    if float(lam[0]) <= 0.0:
        raise ZeroState("all target lambdas vanish")
    y = y_factor(params)
    xm = _O_ETA_INV @ y
    xs_raw = np.sqrt(lam)[:, None] * xm.T
    t = float(sum(np.vdot(x, x).real for x in xs_raw))
    rho = DensityMatrix(_outer_sum(xs_raw) / t)
    xs = xs_raw / np.sqrt(t)
    mu, v = rho._eig
    sup = support(mu)
    rows = np.zeros((4, 4), dtype=complex)
    rows[sup] = (v[:, sup].conj().T @ xs.T) / np.sqrt(mu[sup, None])
    a, _, bh = np.linalg.svd(rows)
    u = (a @ bh).conj().T
    w = WoottersDecomposition(xs=xs, lambdas=lam / t, u=u)
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
