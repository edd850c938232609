"""Generation of two-qubit states with a prescribed overlap spectrum.

Ensembles {x_i} with <x_i|xtilde_j> = lambda_i delta_ij map to complex
orthogonal matrices Y through a fixed change of frame, and the physically
distinct part of Y is a three-factor hyperbolic parametrization.  Running
it backwards turns six angles and a target spectrum into a density matrix
whose overlap spectrum is the target up to an overall trace factor.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Tuple

import numpy as np

from .errors import NotSpecialUnitary, RankDeficient, ResidualCheckFailed, ZeroState
from .matcore import support
from .qstate import SIGMA_YY, DensityMatrix, SpectrumLambda, from_json, to_json
from .wootters import WoottersDecomposition, _zero_threshold

__all__ = [
    "O_MAT",
    "ETA",
    "ETA_INV",
    "CosetParams",
    "XMatrix",
    "YMatrix",
    "build_x",
    "y_from_x",
    "y_factor",
    "CosetResult",
    "coset_generate",
    "local_unitary_action",
    "so4r_image",
    "haar_su2",
    "params_to_json",
    "params_from_json",
]

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
        if not np.all(np.isfinite(lam + th + xi + ph)):
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


@dataclass(frozen=True, eq=False)
class XMatrix:
    """Columns orthonormal under the spin-flip bilinear form, X^T S X = I."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=complex).reshape(4, 4)
        resid = np.max(np.abs(m.T @ SIGMA_YY @ m - np.eye(4)))
        # written "not resid <= tol" so that a NaN residual fails too
        if not resid <= 1e-9:
            raise ResidualCheckFailed(
                "columns not orthonormal under the spin-flip form (%.3e)" % resid
            )
        object.__setattr__(self, "m", m)


@dataclass(frozen=True, eq=False)
class YMatrix:
    """Complex orthogonal matrix, Y^T Y = I."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=complex).reshape(4, 4)
        resid = np.max(np.abs(m.T @ m - np.eye(4)))
        if not resid <= 1e-9:
            raise ResidualCheckFailed("matrix not complex orthogonal (%.3e)" % resid)
        object.__setattr__(self, "m", m)


def build_x(w):
    """Normalized column frame x_i / sqrt(lambda_i) of a basis decomposition.

    Raises RankDeficient when any lambda_i vanishes, since the frame then
    has no normalizable column.
    """
    lam = w.lambdas.lambdas
    cut = _zero_threshold(lam)
    if any(float(x) <= cut for x in lam):
        raise RankDeficient("overlap spectrum has a vanishing entry")
    cols = [np.array(w.xs[i]) / np.sqrt(float(lam[i])) for i in range(4)]
    return XMatrix(np.column_stack(cols))


def y_from_x(x):
    """Frame change X -> Y = ETA @ O_MAT @ X into the orthogonal picture."""
    return YMatrix(ETA @ O_MAT @ x.m)


def _roth(t):
    c, s = np.cosh(t), np.sinh(t)
    return np.array([[c, 1j * s], [-1j * s, c]])


def y_factor(params):
    """Three-factor orthogonal matrix Theta(theta) Xi(xi) Phi(phi).

    Theta and Phi act in the (0,1) and (2,3) planes, Xi in the (0,2) and
    (1,3) planes; each plane carries a hyperbolic rotation
    [[cosh t, i sinh t], [-i sinh t, cosh t]].
    """
    th1, th2 = params.theta
    xi1, xi2 = params.xi
    ph1, ph2 = params.phi
    theta = np.zeros((4, 4), dtype=complex)
    theta[np.ix_([0, 1], [0, 1])] = _roth(th1)
    theta[np.ix_([2, 3], [2, 3])] = _roth(th2)
    xi = np.zeros((4, 4), dtype=complex)
    xi[np.ix_([0, 2], [0, 2])] = _roth(xi1)
    xi[np.ix_([1, 3], [1, 3])] = _roth(xi2)
    phi = np.zeros((4, 4), dtype=complex)
    phi[np.ix_([0, 1], [0, 1])] = _roth(ph1)
    phi[np.ix_([2, 3], [2, 3])] = _roth(ph2)
    return YMatrix(theta @ xi @ phi)


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
    xm = O_MAT @ ETA_INV @ y.m
    xs_raw = [np.sqrt(lam[i]) * xm[:, i] for i in range(4)]
    t = float(sum(np.vdot(x, x).real for x in xs_raw))
    rho_m = np.zeros((4, 4), dtype=complex)
    for x in xs_raw:
        rho_m = rho_m + np.outer(x, np.conj(x))
    rho = DensityMatrix(rho_m / t)
    xs = tuple(x / np.sqrt(t) for x in xs_raw)
    mu, v = rho._eig
    sup = support(mu)
    rows = np.zeros((4, 4), dtype=complex)
    rows[sup] = (v[:, sup].conj().T @ np.column_stack(xs)) / np.sqrt(mu[sup, None])
    a, _, bh = np.linalg.svd(rows)
    u = (a @ bh).conj().T
    w = WoottersDecomposition(
        xs=xs, lambdas=SpectrumLambda(lam / t), u=u
    )
    return CosetResult(rho=rho, wootters=w, trace_factor=t)


def _check_su2(u, name):
    u = np.array(u, dtype=complex).reshape(2, 2)
    if np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-10:
        raise NotSpecialUnitary("%s is not unitary" % name)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    if abs(det - 1.0) > 1e-10:
        raise NotSpecialUnitary("%s has determinant %r, expected 1" % (name, det))
    return u


def local_unitary_action(u1, u2, rho):
    """Conjugation of a state by a product of one-qubit special unitaries."""
    u1 = _check_su2(u1, "u1")
    u2 = _check_su2(u2, "u2")
    big = np.kron(u1, u2)
    return DensityMatrix(big @ rho.m @ big.conj().T)


def so4r_image(u1, u2):
    """Real rotation representing a product unitary in the orthogonal frame.

    Computes (ETA O) (u1 (x) u2) (O ETA_INV); for special unitary inputs
    the result is a real orthogonal matrix with determinant one.
    """
    u1 = _check_su2(u1, "u1")
    u2 = _check_su2(u2, "u2")
    r = ETA @ O_MAT @ np.kron(u1, u2) @ O_MAT @ ETA_INV
    if np.max(np.abs(r.imag)) > 1e-8:
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
