"""Optimal separable-plus-pure splits of two-qubit states.

A state rho is written as weight * rho_sep + (1 - weight) * |psi><psi|
with rho_sep separable and the weight maximal in the sense of the
matching optimality conditions.  The separable part carries a product
ensemble of four zero-concurrence vectors z_alpha.  The certificate
checks the structural identities of the split, the linear independence
that makes each Lambda_alpha = <z_alpha|z_alpha> maximal by itself, and
the closed-form conditions of the pairs tied by z_a + z_b = x''_1.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cache, partial
from typing import Optional, Tuple

import numpy as np

from .errors import NoPurePart, PhaseConstraintViolated, RankMismatch
from .matcore import (
    _DEPENDENT,
    _SINGULAR,
    _check_condition,
    _check_finite,
    _checked_svd,
    _checked_tol,
    _dual_basis,
    _restricted_inverse,
    herm_eig,
)
from .qstate import (
    SIGMA_YY,
    ComplexArray,
    DensityMatrix,
    RealArray,
    _family,
    _outer_sum,
    from_json,
    spin_flip_vec,
    to_json,
)
from .wootters import _concurrence_of, _zero_threshold, wootters_basis

# Hadamard-pattern mixing matrix for the product ensemble; its columns are
# orthogonal with H4.T @ H4 = 4 * I
H4 = np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)

# default phases (1, -i, -i, -i); on the boundary spectrum they give
# sum_j exp(2i theta_j) lambda''_j = lambda''_1 - lambda''_2 - lambda''_3
# - lambda''_4 = 0
DEFAULT_PHASES = np.array([0.0, -np.pi / 2.0, -np.pi / 2.0, -np.pi / 2.0])

_RANK_CLASSES = ("full", "rank3", "rank2", "pure", "separable")


@dataclass(frozen=True, eq=False)
class LSDecomposition:
    """Split of a state into a separable part and at most one pure part.

    weight is the separable fraction, sep the separable state, pure the
    normalized pure vector (None when the state itself is separable).
    xpp and lambdas_pp describe the boundary-state basis of sep, zs the
    four zero-concurrence product vectors built from it, and phases the
    angles theta_j used for zs.  xpp and zs hold one vector per row of a
    complex (4, 4) array.  Construction copies the arrays and raises
    ValueError on another shape or on a non-finite entry.
    """

    weight: float
    rank_class: str
    sep: DensityMatrix
    pure: Optional[ComplexArray]
    # read from JSON as a sequence of vectors, so that a family that is not
    # a list raises TypeError there, as any sequence field does
    xpp: Tuple[ComplexArray, ...]
    lambdas_pp: RealArray
    zs: Tuple[ComplexArray, ...]
    phases: RealArray

    def __post_init__(self):
        if not -1e-12 <= self.weight <= 1.0 + 1e-12:
            raise ValueError("weight %.6f outside [0, 1]" % self.weight)
        if self.rank_class not in _RANK_CLASSES:
            raise ValueError("unknown rank class %r" % self.rank_class)
        arrays = {
            "xpp": _family(self.xpp, "xpp"),
            "zs": _family(self.zs, "zs"),
            "lambdas_pp": np.array(self.lambdas_pp, dtype=float).reshape(4),
            "phases": np.array(self.phases, dtype=float).reshape(4),
        }
        if self.pure is not None:
            arrays["pure"] = np.array(self.pure, dtype=complex).reshape(4)
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise ValueError("%s has non-finite entries" % name)
            object.__setattr__(self, name, arr)


def _build_zs(xpp, phases):
    """Rows z_alpha = (1/2) sum_j H4[alpha,j] e^{i theta_j} x''_j, summed in j order."""
    coef = 0.5 * H4 * np.exp(1j * np.array(phases, dtype=float))
    t = coef[:, :, None] * xpp[None, :, :]
    # added from 0 in j order, as Python's sum does: the last bits depend on it
    return 0 + t[:, 0] + t[:, 1] + t[:, 2] + t[:, 3]


def _optimal_weight(w):
    """Optimal separable weight of an entangled state from its basis w.

    Returns 1 - (C / lambda_1) <x_1|x_1>, the spectrum with entries at or
    below the zero threshold set to 0, and the sum of its last three.
    """
    lam = w.lambdas
    c = float(lam[0] - lam[1] - lam[2] - lam[3])
    x1 = w.xs[0]
    weight = 1.0 - (c / float(lam[0])) * float(np.vdot(x1, x1).real)
    lam_cls = np.where(lam > _zero_threshold(lam), lam, 0.0)
    return weight, float(lam_cls[1] + lam_cls[2] + lam_cls[3]), lam_cls


def _classify(rho, lam):
    """Rank class of a state given its lambda spectrum."""
    thr = _zero_threshold(lam)
    if _concurrence_of(lam) <= thr:
        return "separable"
    nzero = int(np.sum(lam <= thr))
    if nzero == 3:
        mu, _ = rho._eig
        if mu[1] <= 1e-10:
            return "pure"
        # mixed state whose overlap matrix lost rank; the general split
        # below still applies, with the two-distinct-z layout
        return "rank2"
    return {0: "full", 1: "rank3", 2: "rank2"}[nzero]


def _closure_phases(lam):
    """Phases closing sum_j e^{2i theta_j} lambda_j = 0 for a separable spectrum.

    Groups lambda_3 and lambda_4 on a common angle, so the constraint is a
    triangle with sides (lambda_1, lambda_2, lambda_3 + lambda_4).
    """
    a, b = float(lam[0]), float(lam[1])
    c = float(lam[2] + lam[3])
    if b <= 0.0:
        return np.zeros(4)
    if c <= 1e-14 * max(a, 1.0):
        # two-sided case, lambda_1 = lambda_2 up to the separability gate
        return np.array([0.0, np.pi / 2.0, 0.0, 0.0])
    cosmu = float(np.clip((c * c - a * a - b * b) / (2.0 * a * b), -1.0, 1.0))
    mu = float(np.arccos(cosmu))
    v = -(a + b * np.exp(1j * mu)) / c
    th3 = 0.5 * float(np.angle(v))
    return np.array([0.0, 0.5 * mu, th3, th3])


@cache
def _pure_partner():
    """Boundary state diag(1/2, 0, 0, 1/2) that pure states are split against.

    Built on first use, not at import; its basis is kept on it, so every
    pure split after the first reuses both.
    """
    return DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))


def ls_decompose(rho):
    """Maximal separable split of a two-qubit state.

    Separable states return weight 1 with no pure part.  Pure entangled
    states return weight 0 against a canonical boundary state.  Otherwise
    the weight is 1 - (C / lambda_1) <x_1|x_1> with the separable part
    assembled from the rescaled basis x''.
    """
    w = wootters_basis(rho)
    lam = w.lambdas
    cls = _classify(rho, lam)
    if cls == "separable":
        phases = _closure_phases(lam)
        return LSDecomposition(
            weight=1.0,
            sep=rho,
            pure=None,
            xpp=w.xs,
            lambdas_pp=lam.copy(),
            zs=_build_zs(w.xs, phases),
            rank_class=cls,
            phases=phases,
        )
    if cls == "pure":
        psi = w.xs[0] / np.linalg.norm(w.xs[0])
        sep = _pure_partner()
        ws = wootters_basis(sep)
        return LSDecomposition(
            weight=0.0,
            sep=sep,
            pure=psi,
            xpp=ws.xs,
            lambdas_pp=ws.lambdas.copy(),
            zs=_build_zs(ws.xs, DEFAULT_PHASES),
            rank_class=cls,
            phases=DEFAULT_PHASES.copy(),
        )
    weight, rest, lam_cls = _optimal_weight(w)
    x1 = w.xs[0]
    xpp = w.xs / np.sqrt(weight)
    xpp[0] = np.sqrt(rest / (weight * float(lam[0]))) * x1
    # rank-deficient vectors, kept identically zero
    xpp[1:][[float(np.vdot(x, x).real) <= 1e-24 for x in w.xs[1:]]] = 0.0
    lambdas_pp = np.array(
        [
            rest / weight,
            lam_cls[1] / weight,
            lam_cls[2] / weight,
            lam_cls[3] / weight,
        ]
    )
    return LSDecomposition(
        weight=float(weight),
        sep=DensityMatrix(_outer_sum(xpp)),
        pure=x1 / np.sqrt(float(np.vdot(x1, x1).real)),
        xpp=xpp,
        lambdas_pp=lambdas_pp,
        zs=_build_zs(xpp, DEFAULT_PHASES),
        rank_class=cls,
        phases=DEFAULT_PHASES.copy(),
    )


def average_concurrence(d):
    """Pure-part concurrence weighted by its fraction, (1-weight)|<psi|psitilde>|.

    Equals the concurrence of the decomposed state.  Raises NoPurePart for
    separable decompositions.
    """
    if d.pure is None:
        raise NoPurePart("separable decomposition has no pure part")
    ov = np.vdot(d.pure, spin_flip_vec(d.pure))
    return float((1.0 - d.weight) * abs(ov))


def product_ensemble(d, phases=None):
    """Zero-concurrence ensemble of the separable part, one vector per row.

    With phases=None the decomposition's own angles are used.  Explicit
    phases must satisfy |sum_j e^{2i theta_j} lambda''_j| <= 1e-9, else
    PhaseConstraintViolated is raised.
    """
    if phases is None:
        phases = d.phases
    else:
        phases = np.array(phases, dtype=float).reshape(4)
        resid = abs(complex(np.sum(np.exp(2j * phases) * d.lambdas_pp)))
        # written "not resid <= tol" so that NaN phases fail too
        if not resid <= 1e-9:
            raise PhaseConstraintViolated(
                "phase constraint residual %.3e exceeds 1e-9" % resid
            )
    return _build_zs(d.xpp, phases)


SplitInvariants = namedtuple(
    "SplitInvariants",
    ["reconstruction", "ensemble_sum", "zero_concurrence", "boundary"],
)


def split_invariants(rho, d):
    """Residuals of the structural identities of a split of rho.

    reconstruction is max|weight sep + (1 - weight)|psi><psi| - rho|,
    ensemble_sum is max|sum_alpha |z_alpha><z_alpha| - sep|,
    zero_concurrence is max_alpha |<z_alpha|z_alpha tilde>|, and boundary
    is |lambda''_1 - lambda''_2 - lambda''_3 - lambda''_4|, None for a
    separable decomposition.
    """
    recon = d.weight * d.sep.m
    if d.pure is not None:
        recon = recon + (1.0 - d.weight) * np.outer(d.pure, np.conj(d.pure))
    zsum = _outer_sum(d.zs)
    flipped = np.conj(d.zs) @ SIGMA_YY
    zc = max(abs(complex(np.vdot(z, f))) for z, f in zip(d.zs, flipped))
    boundary = None
    if d.rank_class != "separable":
        lpp = d.lambdas_pp
        boundary = abs(float(lpp[0] - lpp[1] - lpp[2] - lpp[3]))
    return SplitInvariants(
        reconstruction=float(np.abs(recon - rho.m).max()),
        ensemble_sum=float(np.abs(zsum - d.sep.m).max()),
        zero_concurrence=float(zc),
        boundary=boundary,
    )


PptResult = namedtuple("PptResult", ["separable", "min_pt_eigenvalue"])


def _partial_transpose(m):
    # transpose the second qubit factor
    return np.array(m).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def ppt_check(rho):
    """Positivity of the partial transpose, the two-qubit separability test.

    Returns (separable, min_pt_eigenvalue); separable is True when the
    smallest eigenvalue of the partial transpose is >= -1e-10.
    """
    w, _ = herm_eig(_partial_transpose(rho.m))
    mn = float(w[-1])
    return PptResult(separable=bool(mn >= -1e-10), min_pt_eigenvalue=mn)


@dataclass(frozen=True)
class PairCheck:
    """Closed-form check of a pair tied by z_alpha + z_beta = x''_1.

    cross, diag_a and diag_b are read from the measured inverse, gamma is
    its determinant normalizer and the reproduced weights come from the
    measured elements alone.
    """

    alpha: int
    beta: int
    lam_a: float
    lam_b: float
    cross: complex
    diag_a: float
    diag_b: float
    gamma: float
    reproduced_a: float
    reproduced_b: float
    residual: float


@dataclass(frozen=True)
class StructuralCheck:
    """Residual of one structural identity of the decomposition."""

    name: str
    residual: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class OptimalityReport:
    """Certificate output: structural checks, closed-form pairs, a verdict.

    independence_margin is the smallest s_min / s_max of the product
    vector families, each with its anchor, that the maximality conditions
    are stated on.
    """

    rank_class: str
    verdict: bool
    max_residual: float
    independence_margin: float
    pairwise: Tuple[PairCheck, ...]
    structural: Tuple[StructuralCheck, ...]


def _parallel(u, v):
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return True
    return abs(np.vdot(u, v)) / (nu * nv) > 1.0 - 1e-10


# families of the entangled classes: the singles, the independent pairs and
# the pairs tied by z_a + z_b = x''_1, which get the closed-form check
_ENTANGLED_FAMILIES = {
    "full": ((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), ()),
    "rank3": ((0, 1, 2, 3), ((0, 1), (0, 2), (1, 3), (2, 3)), ((0, 3), (1, 2))),
    "rank2": ((0, 2), (), ((0, 2),)),
}


def _sandwiches(minv, u, v):
    """<u_i|minv_i|v_i> for each slice i of the stacks u, v (K, 4) and minv."""
    return (np.conj(u)[:, None, :] @ minv @ v[:, :, None])[:, 0, 0]


def _independence_margin(zs, lams, families, anchor, coeff):
    """Smallest s_min / s_max over the families (z_a for a in group, then anchor).

    families holds one list of groups per family size, and each size
    takes one batched SVD.  The coefficients diag(Lambda_a ..., coeff)
    are tested by their magnitudes, the singular values of a diagonal.
    """
    margin = math.inf
    lams = np.array(lams)
    for groups in families:
        idx = np.array(groups)
        fams, diags = zs[idx], lams[idx]
        if anchor is not None:
            k = len(idx)
            fams = np.concatenate([fams, np.broadcast_to(anchor, (k, 1, 4))], axis=1)
            diags = np.concatenate([diags, np.full((k, 1), coeff)], axis=1)
        _, s, _ = _checked_svd(fams.swapaxes(1, 2), *_DEPENDENT)
        mags = np.abs(diags)
        _check_finite(mags)
        _check_condition(-np.sort(-mags), *_SINGULAR)
        margin = min(margin, float((s[:, -1] / s[:, 0]).min()))
    return margin


def _dependent_pair_records(zs, lams, pairs, x1, coeff, g):
    """Closed-form checks for pairs tied by z_a + z_b = x''_1.

    The coefficient matrix gains the rank-one block g * ones(2, 2); its
    inverse has determinant normalizer Gamma = lam_a lam_b +
    (lam_a + lam_b) g.  The measured matrix comes from the numerically
    extracted coefficients of the explicit 4x4 operator, and the weights
    are then reproduced from the measured elements alone.
    """
    ia, ib = np.array(pairs).T
    za, zb = zs[ia], zs[ib]
    la = np.array(lams)[ia, None, None]
    lb = np.array(lams)[ib, None, None]
    phihat = _dual_basis(np.stack([za, zb], axis=2))
    mmat = (
        la * (za[:, :, None] * np.conj(za)[:, None, :])
        + lb * (zb[:, :, None] * np.conj(zb)[:, None, :])
        + coeff * np.outer(x1, np.conj(x1))
    )
    a_num = phihat.conj().swapaxes(1, 2) @ mmat @ phihat
    minv = _restricted_inverse(a_num, phihat)
    e_all = np.stack(
        [
            _sandwiches(minv, za, za),
            _sandwiches(minv, za, zb),
            _sandwiches(minv, zb, za),
            _sandwiches(minv, zb, zb),
        ],
        axis=1,
    ).reshape(-1, 2, 2)
    out = []
    for (a, b), e_meas in zip(pairs, e_all):
        lam_a, lam_b = lams[a], lams[b]
        gamma = lam_a * lam_b + (lam_a + lam_b) * g
        e_pred = (
            np.array([[lam_b + g, -g], [-g, lam_a + g]], dtype=complex) / gamma
        )
        res_mat = float(np.abs(e_meas - e_pred).max())
        det = e_meas[0, 0].real * e_meas[1, 1].real - abs(e_meas[0, 1]) ** 2
        rep_a = (e_meas[1, 1].real - abs(e_meas[0, 1])) / det
        rep_b = (e_meas[0, 0].real - abs(e_meas[0, 1])) / det
        out.append(
            PairCheck(
                alpha=a,
                beta=b,
                lam_a=lam_a,
                lam_b=lam_b,
                cross=complex(e_meas[0, 1]),
                diag_a=1.0 / e_meas[0, 0].real,
                diag_b=1.0 / e_meas[1, 1].real,
                gamma=float(gamma),
                reproduced_a=float(rep_a),
                reproduced_b=float(rep_b),
                residual=max(res_mat, abs(rep_a - lam_a), abs(rep_b - lam_b)),
            )
        )
    return out


def verify_optimality(rho, d, tol=1e-8):
    """Certificate that a decomposition satisfies the optimality conditions.

    Classifies rho from the basis it shares with ls_decompose (raising
    RankMismatch when that class differs from the decomposition's) and
    checks the structural identities of the split: reconstruction, the
    weight identity, the ensemble sum, zero concurrence, the boundary,
    lambdas-pp (x''^T S_YY x'' = diag(lambdas_pp)), ensemble-phases (zs
    rebuilt from xpp and phases) and positivity under partial
    transposition.

    The maximality conditions (Lewenstein & Sanpera, PRL 80, 2261 (1998))
    ask that each Lambda_alpha, and each pair, be maximal with respect to
    the rest of the split.  Written through a restricted inverse, M =
    sum_ij A_ij |phi_i><phi_j| on a family phi = (z_a[, z_b], anchor)
    with diagonal A = diag(Lambda_a[, Lambda_b], coeff), the condition
    reads <z_a|M^-1|z_b> = (A^-1)_ab = delta_ab / Lambda_a, since
    <dual_i|phi_j> = delta_ij.  That holds for every linearly independent
    family, whatever its vectors, so those records cannot fail; the
    certificate reports what they rest on instead, the independence
    margin: the smallest s_min / s_max over the single and independent
    pair families.  A family with (s_min / s_max)**2 below 1e-12 raises
    DependentVectors, and one whose diagonal coefficients have min / max
    below 1e-12 raises SingularCoefficients.  The condition has content
    only for dependent vectors, the pairs tied by z_a + z_b = x''_1 of
    the rank3 and rank2 classes; those get the closed form of Karnas &
    Lewenstein, J. Phys. A 34, 6919 (2001), as PairCheck records: one
    stack of all the pairs goes through matcore's dual-basis and
    restricted-inverse helpers, one batched SVD each.

    The verdict is True when every structural check and every closed-form
    pair lands within tol (the partial-transpose check has its own
    1e-10).  A tol that is not a finite number >= 0 raises ValueError.
    """
    tol = _checked_tol(tol)
    w = wootters_basis(rho)
    lam = w.lambdas
    cls = _classify(rho, lam)
    if cls != d.rank_class:
        raise RankMismatch(
            "state classifies as %s, decomposition says %s" % (cls, d.rank_class)
        )
    x1 = w.xs[0]
    lamw = float(d.weight)
    coeff = (1.0 - lamw) / lamw if lamw > 1e-12 else (1.0 - lamw)

    inv = split_invariants(rho, d)
    if cls == "separable":
        predicted = 1.0
    elif cls == "pure":
        predicted = 0.0
    else:
        predicted, rest, _ = _optimal_weight(w)
    overlap = d.xpp @ SIGMA_YY @ d.xpp.T
    lpp = float(np.abs(overlap - np.diag(d.lambdas_pp)).max())
    rebuilt = float(np.abs(d.zs - _build_zs(d.xpp, d.phases)).max())
    structural = [
        ("reconstruction", inv.reconstruction),
        ("weight-identity", abs(lamw - predicted)),
        ("ensemble-sum", inv.ensemble_sum),
        ("zero-concurrence", inv.zero_concurrence),
    ]
    if inv.boundary is not None:
        structural.append(("boundary", inv.boundary))
    structural += [("lambdas-pp", lpp), ("ensemble-phases", rebuilt)]

    checks = [
        StructuralCheck(name=n, residual=r, tol=tol, passed=bool(r <= tol))
        for n, r in structural
    ]
    ppt = ppt_check(d.sep)
    checks.append(
        StructuralCheck(
            name="separable-ppt",
            residual=max(0.0, -ppt.min_pt_eigenvalue),
            tol=1e-10,
            passed=bool(ppt.separable),
        )
    )

    zs = d.zs
    lams = [float(np.vdot(z, z).real) for z in zs]
    anchor = None
    indep, dep = (), ()
    if cls == "separable":
        single_idx = [a for a in range(4) if lams[a] > 1e-14]
        indep = [
            (a, b)
            for i, a in enumerate(single_idx)
            for b in single_idx[i + 1 :]
            if not _parallel(zs[a], zs[b])
        ]
    elif cls == "pure":
        anchor = d.pure
        single_idx = []
        for a in range(4):
            if not any(_parallel(zs[a], zs[b]) for b in single_idx):
                single_idx.append(a)
        # pairwise conditions are vacuous at weight zero
    else:
        anchor = x1
        single_idx, indep, dep = _ENTANGLED_FAMILIES[cls]
    families = [g for g in ([(a,) for a in single_idx], indep) if g]
    margin = _independence_margin(zs, lams, families, anchor, coeff)
    pairs = []
    if dep and rest > 0.0:
        g = (1.0 - lamw) * float(lam[0]) / rest
        pairs = _dependent_pair_records(zs, lams, dep, x1, coeff, g)

    residuals = [c.residual for c in checks] + [p.residual for p in pairs]
    verdict = all(c.passed for c in checks)
    verdict = verdict and all(p.residual <= tol for p in pairs)
    return OptimalityReport(
        rank_class=cls,
        independence_margin=margin,
        pairwise=tuple(pairs),
        structural=tuple(checks),
        verdict=bool(verdict),
        max_residual=float(max(residuals)),
    )


lsd_to_json = to_json
lsd_from_json = partial(from_json, LSDecomposition)
report_to_json = to_json
report_from_json = partial(from_json, OptimalityReport)
