"""Optimal separable-plus-pure splits of two-qubit states.

A state rho is written as weight * rho_sep + (1 - weight) * |psi><psi|
with rho_sep separable, on the Wootters basis (ls_decompose says in
what sense the weight is maximal).  The separable part carries a product
ensemble of four zero-concurrence vectors z_alpha.  The certificate
checks the structural identities of the split and the closed-form
conditions of the pairs tied by z_a + z_b = x''_1, and reports the
margin of the linear independence that makes each Lambda_alpha =
<z_alpha|z_alpha> maximal by itself.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cache, partial
from typing import Optional, Tuple

import numpy as np

from .errors import (
    NoPurePart,
    NotHermitian,
    PhaseConstraintViolated,
    RankMismatch,
    SingularCoefficients,
)
from .matcore import _checked_tol, _dual_basis, _eigh_desc
from .qstate import (
    ComplexArray,
    DensityMatrix,
    RealArray,
    _family,
    _flip_form,
    _gram_state,
    _outer_sum,
    from_json,
    to_json,
)
from .wootters import _concurrence_of, wootters_basis

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

# floor of the separable cut on the concurrence of a unit-trace state: a C
# at or below it is the rounding residue of a product state, which a cut
# relative to lambda_1 misses where lambda_1 is itself a residue.  Measured
# C is at most 8.9 eps over 30 000 seeded random kron(a, b) pure states and
# 8.2 eps over 20 000 locally rotated |0><0| (x) sigma, whose lambda_1
# reaches 172 eps.  It must stay far below 2e-10, since a pure state's
# smallest partial-transpose eigenvalue is -C / 2 and separable-ppt allows
# -1e-10
PRODUCT_EPS = 64.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class LSDecomposition:
    """Split of a state into a separable part and at most one pure part.

    weight is the separable fraction, sep the separable state, pure the
    normalized pure vector (None when the state itself is separable).
    xpp and lambdas_pp describe the boundary-state basis of sep, zs the
    four zero-concurrence product vectors built from it, and phases the
    angles theta_j used for zs.  xpp and zs hold one vector per row of a
    complex (4, 4) array.  Construction copies the arrays and raises
    ValueError on another shape, then, from one finiteness test over all
    of them, on a non-finite entry, naming the first such field in the
    order xpp, zs, lambdas_pp, phases, pure.
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
        # one test over all entries; the loop only names the first bad field
        if not np.isfinite(np.concatenate([a.ravel() for a in arrays.values()])).all():
            for name, arr in arrays.items():
                if not np.isfinite(arr).all():
                    raise ValueError("%s has non-finite entries" % name)
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)


def _build_zs(xpp, phases):
    """Rows z_alpha = (1/2) sum_j H4[alpha,j] e^{i theta_j} x''_j."""
    return (0.5 * H4 * np.exp(1j * np.array(phases, dtype=float))) @ xpp


def _optimal_weight(w):
    """Optimal separable weight of an entangled state from its basis w.

    Returns 1 - (C / lambda_1) <x_1|x_1> and rest = lambda_2 + lambda_3 +
    lambda_4, both from the same lambdas, so that the split's trace is 1.
    """
    lam = w.lambdas.tolist()
    c = lam[0] - lam[1] - lam[2] - lam[3]
    x1 = w.xs[0]
    weight = 1.0 - (c / lam[0]) * float(np.vdot(x1, x1).real)
    return weight, lam[1] + lam[2] + lam[3]


def _classify(rho, lam):
    """Rank class of a state given its lambda spectrum.

    "separable" when C is at most max(1e-8 lambda_1, PRODUCT_EPS); else
    "pure" when the state's second eigenvalue is at most 1e-10, its own
    PSD tolerance.  Otherwise the class counts the lambdas that are
    exactly 0.0, which only the support cut (matcore.support) makes: none
    is "full", one "rank3", two or three "rank2".  Three zeros with a
    mixed state is an overlap matrix that lost rank; the rank2 split
    applies to it, with the two-distinct-z layout.
    """
    if _concurrence_of(lam) <= max(1e-8 * float(lam[0]), PRODUCT_EPS):
        return "separable"
    if rho._eig[0][1] <= 1e-10:
        return "pure"
    return ("full", "rank3", "rank2", "rank2")[lam.tolist().count(0.0)]


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
    cosmu = min(max((c * c - a * a - b * b) / (2.0 * a * b), -1.0), 1.0)
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
    """Wootters-basis separable split of a two-qubit state.

    Separable states return weight 1 with no pure part.  Pure entangled
    states return weight 0 against a canonical boundary state.  Otherwise
    the weight is 1 - (C / lambda_1) <x_1|x_1> with the separable part
    assembled from the rescaled basis x'', lambda''_1 = rest / weight and
    lambda''_i = lambda_i / weight for i > 1.  C, rest and lambdas_pp
    read the same unclipped lambdas, so sep has unit trace; the only
    zero lambdas are the support cut's, so the split is continuous
    across the faces where the rank changes.  The split saturates
    (1 - weight) C(psi) = C(rho) and its weight is maximal within its
    stationary family: the best separable approximation's on
    Bell-diagonal states, but not on generic rank-3 and full-rank
    states, where larger separable weights were measured.
    """
    w = wootters_basis(rho)
    lam = w.lambdas
    cls = _classify(rho, lam)
    pure = None
    if cls == "separable":
        weight, sep, xpp, lambdas_pp, phases = 1.0, rho, w.xs, lam, _closure_phases(lam)
    elif cls == "pure":
        pure = w.xs[0] / np.linalg.norm(w.xs[0])
        sep = _pure_partner()
        ws = wootters_basis(sep)
        weight, xpp, lambdas_pp, phases = 0.0, ws.xs, ws.lambdas, DEFAULT_PHASES
    else:
        weight, rest = _optimal_weight(w)
        x1 = w.xs[0]
        xpp = w.xs / np.sqrt(weight)
        xpp[0] = np.sqrt(rest / (weight * float(lam[0]))) * x1
        lambdas_pp = np.array([rest, *lam[1:]]) / weight
        sep = _gram_state(xpp, 1.0)
        pure = x1 / np.sqrt(float(np.vdot(x1, x1).real))
        phases = DEFAULT_PHASES
    return LSDecomposition(
        weight=float(weight),
        sep=sep,
        pure=pure,
        xpp=xpp,
        lambdas_pp=lambdas_pp,
        zs=_build_zs(xpp, phases),
        rank_class=cls,
        phases=phases,
    )


def average_concurrence(d):
    """Pure-part concurrence weighted by its fraction, (1-weight)|<psi|psitilde>|.

    Equals the concurrence of the decomposed state.  Raises NoPurePart for
    separable decompositions.
    """
    if d.pure is None:
        raise NoPurePart("separable decomposition has no pure part")
    ov = _flip_form(d.pure[None])[0, 0]
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
        recon = recon + (1.0 - d.weight) * (d.pure[:, None] * np.conj(d.pure))
    zsum = _outer_sum(d.zs)
    zc = np.abs(_flip_form(d.zs).diagonal()).max()
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


def ppt_check(rho):
    """Positivity of the partial transpose, the two-qubit separability test.

    Returns (separable, min_pt_eigenvalue); separable is True when the
    smallest eigenvalue of the partial transpose is >= -1e-10.  rho's
    entries were checked finite and at most MAX_ENTRY when it was built
    (matcore._checked_top), so its symmetrized partial transpose goes
    to _eigh_desc unchecked.
    """
    # transpose the second qubit factor
    pt = rho.m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    w, _ = _eigh_desc(-((pt + pt.conj().T) / 2.0))
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
    are stated on.  The verdict does not read it.
    """

    rank_class: str
    verdict: bool
    max_residual: float
    independence_margin: float
    pairwise: Tuple[PairCheck, ...]
    structural: Tuple[StructuralCheck, ...]


def _parallel_matrix(zs):
    """Mask of the parallel pairs of rows of zs.

    Rows u and v are parallel when |<u|v>| / (|u| |v|) exceeds 1 - 1e-10,
    or when one of them is zero.  One Gram product and one norm per row
    serve every pair.
    """
    # np.linalg.norm(zs, axis=1), as numpy computes it
    norms = np.sqrt(np.add.reduce((zs.conj() * zs).real, axis=1))
    nn = norms[:, None] * norms
    cos = np.ones((4, 4))
    # a zero row divides nothing, so it raises no floating-point warning
    np.divide(np.abs(np.conj(zs) @ zs.T), nn, out=cos, where=nn > 0.0)
    return cos > 1.0 - 1e-10


# families of the entangled classes: the groups the margin reads, and the pairs tied by
# z_a + z_b = x''_1, which get the closed-form check.  The full and rank3 rows list their
# independent pairs, which hold every single (see _independence_margin); rank2 and pure
# have none and list their singles.  The pure split's fixed partner has z_0 = z_1 and
# z_2 = z_3, and no pair conditions at weight 0
_ENTANGLED_FAMILIES = {
    "full": (((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), ()),
    "rank3": (((0, 1), (0, 2), (1, 3), (2, 3)), ((0, 3), (1, 2))),
    "rank2": (((0,), (2,)), ((0, 2),)),
    "pure": (((0,), (2,)), ()),
}


def _independence_margin(zs, groups, anchor):
    """Smallest s_min / s_max over the families (z_a for a in group, then anchor).

    The groups have one size and fill one stack, vectors as columns and
    the anchor last, for one batched SVD; no groups give inf.

    The caller passes only the families that can decide the margin.  A
    single (z_a, anchor) is a column subset of an independent pair (z_a,
    z_b, anchor), and deleting a column moves neither singular value
    outward (interlacing): its s_min / s_max is no smaller than the
    pair's.  So where every single lies in a pair, the singles do not
    decide the margin.
    """
    if not groups:
        return math.inf
    idx = np.array(groups)
    k = idx.shape[1]
    fams = np.empty((len(idx), 4, k if anchor is None else k + 1), dtype=complex)
    fams[:, :, :k] = zs[idx].swapaxes(1, 2)
    if anchor is not None:
        fams[:, :, k] = anchor
    s = np.linalg.svd(fams, compute_uv=False)
    return float((s[:, -1] / s[:, 0]).min())


def _block_inverses(blocks):
    """Inverses of Hermitian 2x2 blocks [[p, o], [conj(o), q]], in closed form.

    blocks holds (p, q, o) with p and q real, and the result (e00, e01,
    e11) for each: the adjugate [[q, -o], [-conj(o), p]] over det = pq -
    |o|^2.  The singular values of such a block are |m +- h|, m = (p + q)
    / 2 and h = hypot((p - q) / 2, |o|), so s_max = |m| + h and s_min /
    s_max = |det| / s_max**2.  Both are taken on the block divided by
    s_max, so neither overflows nor underflows where the block's own
    singular values do not.  Raises NotHermitian when a block's s_max is
    not finite, which a non-finite entry or an overflow makes it, then
    SingularCoefficients for the first block whose s_min / s_max drops
    below 1e-12; a block with s_max 0 has ratio 0.
    """
    scaled = []
    for p, q, o in blocks:
        # hypot overflows to inf, where complex abs raises
        off = math.hypot(o.real, o.imag)
        top = abs(p + q) / 2.0 + math.hypot((p - q) / 2.0, off)
        if not math.isfinite(top):
            raise NotHermitian("matrix has non-finite entries")
        if top > 0.0:
            p, q, o, off = p / top, q / top, o / top, off / top
        scaled.append((p, q, o, p * q - off * off, top))
    for *_, det, _ in scaled:
        if abs(det) < 1e-12:
            raise SingularCoefficients("reciprocal condition %.3e below 1e-12" % abs(det))
    return [(q / det / top, -o / det / top, p / det / top) for p, q, o, det, top in scaled]


def _dependent_pair_records(zs, lams, pairs, x1, coeff, g):
    """Closed-form checks for pairs tied by z_a + z_b = x''_1.

    On span(z_a, z_b), M = Lambda_a |z_a><z_a| + Lambda_b |z_b><z_b| +
    coeff |x_1><x_1| has the Hermitian coefficient block A = diag(lam_a,
    lam_b) + coeff c c^dag, with c = <dual_i|x_1> the coordinates of x_1
    in the pair's dual frame, so <z_i|M^-1|z_j> = (A^-1)_ij.  One batched
    SVD gives every pair's dual frame; each block is then inverted in
    closed form by _block_inverses, which also tests its condition.  The
    closed form predicts the inverse of diag(lam_a, lam_b) + g * ones(2,
    2), whose determinant normalizer is Gamma = lam_a lam_b + (lam_a +
    lam_b) g.  The weights are reproduced from the measured elements
    alone.  Blocks, inverses and residuals are Python numbers: there are
    two pairs at most.
    """
    ia, ib = np.array(pairs).T
    dual = _dual_basis(np.stack([zs[ia], zs[ib]], axis=2))
    coords = (dual.conj().swapaxes(1, 2) @ x1).tolist()
    blocks = [
        (
            lams[a] + coeff * (c0 * c0.conjugate()).real,
            lams[b] + coeff * (c1 * c1.conjugate()).real,
            coeff * (c0 * c1.conjugate()),
        )
        for (a, b), (c0, c1) in zip(pairs, coords)
    ]
    out = []
    for (a, b), (e00, e01, e11) in zip(pairs, _block_inverses(blocks)):
        lam_a, lam_b = lams[a], lams[b]
        gam = lam_a * lam_b + (lam_a + lam_b) * g
        # the measured against the predicted inverse; its (1, 0) entry,
        # conj(e01) against the real -g / Gamma, misses by as much as e01
        res = max(
            abs(e00 - (lam_b + g) / gam),
            abs(e01 + g / gam),
            abs(e11 - (lam_a + g) / gam),
        )
        off = abs(e01)
        det = e00 * e11 - off**2
        rep_a = (e11 - off) / det
        rep_b = (e00 - off) / det
        out.append(
            PairCheck(
                alpha=a,
                beta=b,
                lam_a=lam_a,
                lam_b=lam_b,
                cross=e01,
                diag_a=1.0 / e00,
                diag_b=1.0 / e11,
                gamma=gam,
                reproduced_a=rep_a,
                reproduced_b=rep_b,
                residual=max(res, abs(rep_a - lam_a), abs(rep_b - lam_b)),
            )
        )
    return out


def verify_optimality(rho, d, tol=1e-8):
    """Certificate that a decomposition satisfies the optimality conditions.

    Classifies rho from the basis it shares with ls_decompose (raising
    RankMismatch when that class differs from the decomposition's) and
    checks the structural identities of the split: reconstruction, the
    weight identity, the ensemble sum, zero concurrence, the boundary,
    lambdas-pp (<x''_i|x''tilde_j> = lambda''_i delta_ij), ensemble-phases (zs
    rebuilt from xpp and phases) and positivity under partial
    transposition.

    The maximality conditions (Lewenstein & Sanpera, PRL 80, 2261 (1998))
    ask that each Lambda_alpha, and each pair, be maximal with respect to
    the rest of the split.  Written through the inverse on its span of M
    = sum_ij A_ij |phi_i><phi_j|, on a family phi = (z_a[, z_b], anchor)
    with diagonal A = diag(Lambda_a[, Lambda_b], coeff), the condition
    reads <z_a|M^-1|z_b> = (A^-1)_ab = delta_ab / Lambda_a, since
    <dual_i|phi_j> = delta_ij.  That holds for every linearly independent
    family, whatever its vectors, so those records cannot fail; the
    certificate reports what they rest on instead, the independence
    margin: the smallest s_min / s_max over the single and independent
    pair families.  The margin is reported, not tested: the verdict does
    not read it, and a caller who wants a threshold applies one to it.
    Only the families that can decide it are computed.  By singular-value
    interlacing a single (z_a, anchor), a column subset of the pair (z_a,
    z_b, anchor), has an s_min / s_max no smaller than the pair's; in the
    full and rank3 classes every single lies in an independent pair, so
    their pairs alone take one batched SVD.  A separable single is one
    vector with ratio exactly 1, so the separable margin is the smaller
    of 1 and its pairs' ratios.  The rank2 and pure classes have no pairs
    and take one batched SVD of their singles.

    The condition has content only for dependent vectors, the pairs tied
    by z_a + z_b = x''_1 of the rank3 and rank2 classes; those get the
    closed form of Karnas & Lewenstein, J. Phys. A 34, 6919 (2001), as
    PairCheck records.  On a pair's span, M^-1 is the inverse of its 2x2
    coefficient block diag(Lambda_a, Lambda_b) + coeff c c^dag, with c
    the coordinates of x_1 in the pair's dual frame; one stack of all the
    pairs takes one batched SVD for the dual frames, and each Hermitian
    block is inverted in closed form by its adjugate, its s_min / s_max
    read as |det| / s_max**2.  These two inverses are the certificate's
    only raises: a dependent pair raises DependentVectors, and a block
    with s_min / s_max below 1e-12 raises SingularCoefficients.

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

    inv = split_invariants(rho, d)
    if cls == "separable":
        predicted = 1.0
    elif cls == "pure":
        predicted = 0.0
    else:
        predicted, rest = _optimal_weight(w)
    form = _flip_form(d.xpp)
    form.flat[::5] -= d.lambdas_pp
    lpp = float(np.abs(form).max())
    rebuilt = float(np.abs(d.zs - _build_zs(d.xpp, d.phases)).max())
    structural = [
        ("reconstruction", inv.reconstruction, tol),
        ("weight-identity", abs(lamw - predicted), tol),
        ("ensemble-sum", inv.ensemble_sum, tol),
        ("zero-concurrence", inv.zero_concurrence, tol),
    ]
    if inv.boundary is not None:
        structural.append(("boundary", inv.boundary, tol))
    structural += [
        ("lambdas-pp", lpp, tol),
        ("ensemble-phases", rebuilt, tol),
        ("separable-ppt", max(0.0, -ppt_check(d.sep).min_pt_eigenvalue), 1e-10),
    ]

    checks = [
        StructuralCheck(name=n, residual=r, tol=t, passed=bool(r <= t))
        for n, r, t in structural
    ]

    zs = d.zs
    lams = [float(np.vdot(z, z).real) for z in zs]
    margin, dep = math.inf, ()
    if cls == "separable":
        anchor = None
        live = [a for a in range(4) if lams[a] > 1e-14]
        par = _parallel_matrix(zs)
        groups = [
            (a, b) for i, a in enumerate(live) for b in live[i + 1 :] if not par[a, b]
        ]
        # a single vector has s_min / s_max = 1 exactly
        if live:
            margin = 1.0
    else:
        anchor = d.pure if cls == "pure" else x1
        groups, dep = _ENTANGLED_FAMILIES[cls]
    margin = min(margin, _independence_margin(zs, groups, anchor))
    pairs = []
    if dep and rest > 0.0:
        coeff = (1.0 - lamw) / lamw if lamw > 1e-12 else (1.0 - lamw)
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
