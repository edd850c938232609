import dataclasses
import json

import numpy as np
import pytest

from lsd_toolkit.errors import (
    DependentVectors,
    LsdToolkitError,
    NoPurePart,
    NotUnitTrace,
    PhaseConstraintViolated,
    RankMismatch,
    SingularCoefficients,
)
from lsd_toolkit.lsd import (
    average_concurrence,
    DEFAULT_PHASES,
    H4,
    ls_decompose,
    lsd_from_json,
    lsd_to_json,
    ppt_check,
    product_ensemble,
    report_from_json,
    report_to_json,
    verify_optimality,
)
from lsd_toolkit import coset, lsd, qstate, wootters
from lsd_toolkit.coset import local_unitary_action
from lsd_toolkit.qstate import (
    SIGMA_YY,
    DensityMatrix,
    from_json,
    lambda_spectrum,
    sample_random,
    to_json,
)
from lsd_toolkit.suites import _random_params
from lsd_toolkit.wootters import concurrence, wootters_basis

from layouts import layouts

E = np.eye(4)
PHI_P = (E[:, 0] + E[:, 3]) / np.sqrt(2.0)
PSI_P = (E[:, 1] + E[:, 2]) / np.sqrt(2.0)
PSI_M = (E[:, 1] - E[:, 2]) / np.sqrt(2.0)
PHI_M = (E[:, 0] - E[:, 3]) / np.sqrt(2.0)


def werner(p):
    return DensityMatrix(p * np.outer(PHI_P, PHI_P) + (1.0 - p) * np.eye(4) / 4.0)


def bell_diagonal(ps):
    m = sum(
        p * np.outer(b, b.conj())
        for p, b in zip(ps, [PHI_P, PSI_P, PSI_M, PHI_M])
    )
    return DensityMatrix(m)


def pure_state():
    psi = np.sqrt(0.9) * E[:, 0] + np.sqrt(0.1) * E[:, 3]
    return DensityMatrix(np.outer(psi, psi))


def exotic_rank2():
    # rank-2 state whose overlap matrix has rank 1 only
    return DensityMatrix(
        0.6 * np.outer(PSI_P, PSI_P) + 0.4 * np.diag([1.0, 0.0, 0.0, 0.0])
    )


class TestHadamardFrame:
    def test_rows(self):
        expect = np.array(
            [
                [1, 1, 1, 1],
                [1, 1, -1, -1],
                [1, -1, 1, -1],
                [1, -1, -1, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(H4, expect)

    def test_default_phases(self):
        ph = np.exp(2j * np.array(DEFAULT_PHASES))
        assert np.max(np.abs(ph - [1.0, -1.0, -1.0, -1.0])) < 1e-15

    def test_build_zs_matches_the_python_sum(self):
        # the Python sum _build_zs replaced, kept as its reference.  numpy
        # may add the products in any order, and the order may depend on the
        # layout of xpp, so every layout is held to a few ulp of the sum
        for seed in range(20):
            d = ls_decompose(sample_random(seed, rank=1 + seed % 4))
            for phases in (d.phases, DEFAULT_PHASES):
                coef = 0.5 * H4 * np.exp(1j * phases)
                expect = np.array(
                    [sum(c * x for c, x in zip(row, d.xpp)) for row in coef]
                )
                bound = 8 * np.finfo(float).eps * np.abs(d.xpp).max()
                for x in (d.xpp, *layouts(d.xpp)):
                    assert np.abs(lsd._build_zs(x, phases) - expect).max() <= bound


class TestClassification:
    def test_full_rank_entangled(self):
        assert ls_decompose(sample_random(0, rank=4)).rank_class == "full"

    def test_rank3(self):
        assert ls_decompose(sample_random(0, rank=3)).rank_class == "rank3"

    def test_rank2(self):
        assert ls_decompose(sample_random(0, rank=2)).rank_class == "rank2"

    def test_separable_mixed(self):
        assert ls_decompose(sample_random(13, rank=4)).rank_class == "separable"
        assert ls_decompose(DensityMatrix(np.eye(4) / 4.0)).rank_class == "separable"

    def test_pure(self):
        psi = np.sqrt(0.9) * E[:, 0] + np.sqrt(0.1) * E[:, 3]
        d = ls_decompose(DensityMatrix(np.outer(psi, psi)))
        assert d.rank_class == "pure"

    def test_pure_product_is_separable(self):
        d = ls_decompose(DensityMatrix(np.outer(E[:, 0], E[:, 0])))
        assert d.rank_class == "separable"

    def test_random_product_states_are_separable_and_certified(self):
        # their lambda_1 is a rounding residue, not an exact zero
        rng = np.random.default_rng(31)
        residues = []
        for _ in range(50):
            a, b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            psi = np.kron(a, b)
            rho = DensityMatrix(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real)
            residues.append(wootters_basis(rho).lambdas[0])
            d = ls_decompose(rho)
            assert (d.rank_class, d.weight, d.pure) == ("separable", 1.0, None)
            assert verify_optimality(rho, d).verdict
        assert max(residues) > 0.0

    def test_nearly_product_pure_state_stays_pure(self):
        # C = 2 sqrt(e (1 - e)) = 1e-6, under seeded local unitaries
        rng = np.random.default_rng(32)
        e = 2.5e-13
        for _ in range(5):
            u = np.kron(coset.haar_su2(rng), coset.haar_su2(rng))
            psi = u @ np.array([np.sqrt(1.0 - e), 0.0, 0.0, np.sqrt(e)])
            rho = DensityMatrix(np.outer(psi, psi.conj()))
            assert abs(concurrence(rho) - 1e-6) < 1e-12
            d = ls_decompose(rho)
            assert (d.rank_class, d.weight) == ("pure", 0.0)
            assert verify_optimality(rho, d).verdict

    @pytest.mark.parametrize("pure_first", [True, False])
    def test_rotated_product_with_a_pure_factor_is_separable(self, pure_first):
        # (u1 (x) u2)(|0><0| (x) sigma)(u1 (x) u2)^dag: C is a rounding
        # residue of a few eps, and lambda_1 one of up to 172 eps, so a cut
        # relative to lambda_1 cannot call C zero
        rng = np.random.default_rng(11)
        p0 = np.diag([1.0, 0.0])
        for _ in range(10):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            sigma = g @ g.conj().T / np.vdot(g, g).real
            m = np.kron(p0, sigma) if pure_first else np.kron(sigma, p0)
            u = np.kron(coset.haar_su2(rng), coset.haar_su2(rng))
            rho = DensityMatrix(u @ m @ u.conj().T)
            d = ls_decompose(rho)
            assert (d.rank_class, d.weight, d.pure) == ("separable", 1.0, None)
            assert verify_optimality(rho, d).verdict

    def test_exotic_rank_two(self):
        # overlap-matrix rank below the state rank still lands in rank2
        assert ls_decompose(exotic_rank2()).rank_class == "rank2"


class TestBellDiagonal:
    def test_weight(self):
        d = ls_decompose(bell_diagonal([0.7, 0.1, 0.1, 0.1]))
        assert abs(d.weight - 0.6) < 1e-12

    def test_boundary_spectrum(self):
        d = ls_decompose(bell_diagonal([0.7, 0.1, 0.1, 0.1]))
        assert np.max(np.abs(d.lambdas_pp - [0.5, 1 / 6, 1 / 6, 1 / 6])) < 1e-12
        lam = lambda_spectrum(d.sep)
        assert np.max(np.abs(lam - [0.5, 1 / 6, 1 / 6, 1 / 6])) < 1e-10

    def test_leading_vector_rescale(self):
        # sqrt(weight) ||x''_1|| / ||x_1|| is sqrt(3/7) for weights
        # (0.7, 0.1, 0.1, 0.1)
        rho = bell_diagonal([0.7, 0.1, 0.1, 0.1])
        d = ls_decompose(rho)
        w = wootters_basis(rho)
        ratio = (
            np.sqrt(d.weight)
            * np.linalg.norm(d.xpp[0])
            / np.linalg.norm(w.xs[0])
        )
        assert abs(ratio - 0.654653670707977) < 1e-12

    def test_reconstruction(self):
        rho = bell_diagonal([0.7, 0.1, 0.1, 0.1])
        d = ls_decompose(rho)
        recon = d.weight * d.sep.m + (1.0 - d.weight) * np.outer(
            d.pure, np.conj(d.pure)
        )
        assert np.max(np.abs(recon - rho.m)) < 1e-12


class TestWerner:
    def test_weight_half(self):
        assert abs(ls_decompose(werner(0.5)).weight - 0.75) < 1e-12

    def test_weight_08(self):
        assert abs(ls_decompose(werner(0.8)).weight - 0.3) < 1e-12

    def test_separable_part_is_ppt(self):
        d = ls_decompose(werner(0.8))
        assert ppt_check(d.sep).separable


_NEARLY_PURE_DEFECT = pytest.mark.xfail(
    strict=True,
    raises=(NotUnitTrace, AssertionError),
    reason="the split of a nearly pure state: dividing sep by a weight near "
    "eps lifts its trace error past 1e-10 (|trace - 1| = 1.2e-9 ... 3.3e-6), "
    "and at white eps = 1e-6 the split is built but fails separable-ppt",
)


class TestNearlyPure:
    """(1 - eps)|Phi+><Phi+| + eps * mix, next to the pure class."""

    @pytest.mark.parametrize(
        "mix, eps",
        [
            ("white", 1e-4),
            ("white", 1e-10),
            ("white", 1e-12),
            pytest.param("white", 1e-6, marks=_NEARLY_PURE_DEFECT),
            pytest.param("white", 1e-8, marks=_NEARLY_PURE_DEFECT),
            pytest.param("white", 1e-9, marks=_NEARLY_PURE_DEFECT),
            pytest.param("01", 1e-6, marks=_NEARLY_PURE_DEFECT),
            pytest.param("01", 1e-8, marks=_NEARLY_PURE_DEFECT),
            pytest.param("01", 1e-9, marks=_NEARLY_PURE_DEFECT),
            pytest.param("01", 1e-10, marks=_NEARLY_PURE_DEFECT),
        ],
    )
    def test_splits_and_certifies(self, mix, eps):
        m = {"white": np.eye(4) / 4.0, "01": np.outer(E[:, 1], E[:, 1])}[mix]
        rho = DensityMatrix((1.0 - eps) * np.outer(PHI_P, PHI_P) + eps * m)
        assert verify_optimality(rho, ls_decompose(rho)).verdict


def _rounded(m, digits):
    """m with the real and imaginary part of each entry rounded to digits
    significant digits, as a state written out with limited precision."""
    r = np.vectorize(lambda x: float("%.*g" % (digits, x)))
    return r(m.real) + 1j * r(m.imag)


class TestRankFaces:
    """Continuity of the split across the faces where the rank changes.

    rho(t) = (1 - t) rho_a + t rho_b, with rho_b of higher rank than
    rho_a, leaves rho_a's face at t = 0.  The lambdas that rho_b lifts
    off zero are tiny but not zero, and enter C, rest and the vectors
    alike, so the split moves by O(t).
    """

    @pytest.mark.parametrize("ra, rb", [(3, 4), (2, 4), (2, 3)])
    def test_split_is_continuous_and_certified(self, ra, rb):
        for s in range(5):
            a = sample_random(1000 + s, rank=ra)
            b = sample_random(5000 + s, rank=rb)
            d0 = ls_decompose(a)
            for t in (1e-8, 1e-10, 1e-12, 1e-13):
                rho = DensityMatrix((1.0 - t) * a.m + t * b.m)
                d = ls_decompose(rho)
                assert verify_optimality(rho, d).verdict
                assert abs(d.weight - d0.weight) <= 100.0 * t
                assert np.abs(d.sep.m - d0.sep.m).max() <= 100.0 * t

    @pytest.mark.parametrize("rank", [2, 3])
    def test_states_rounded_to_12_digits_certify(self, rank):
        for s in range(20):
            rho = DensityMatrix(_rounded(sample_random(7000 + s, rank=rank).m, 12))
            assert verify_optimality(rho, ls_decompose(rho)).verdict


class TestPureBranch:
    def test_fields(self):
        psi = np.sqrt(0.9) * E[:, 0] + np.sqrt(0.1) * E[:, 3]
        d = ls_decompose(DensityMatrix(np.outer(psi, psi)))
        assert d.weight == 0.0
        assert abs(abs(np.vdot(psi, d.pure)) - 1.0) < 1e-12
        assert np.max(np.abs(d.sep.m - np.diag([0.5, 0.0, 0.0, 0.5]))) < 1e-12

    def test_boundary_ensemble(self):
        # the canonical boundary state splits into ez/2 and -e3/2 pairs
        psi = np.sqrt(0.9) * E[:, 0] + np.sqrt(0.1) * E[:, 3]
        d = ls_decompose(DensityMatrix(np.outer(psi, psi)))
        assert np.max(np.abs(d.zs[0] - 0.5 * E[:, 0])) < 1e-12
        assert np.max(np.abs(d.zs[1] - 0.5 * E[:, 0])) < 1e-12
        assert np.max(np.abs(d.zs[2] + 0.5 * E[:, 3])) < 1e-12
        assert np.max(np.abs(d.zs[3] + 0.5 * E[:, 3])) < 1e-12


class TestSeparableBranch:
    def test_weight_one_and_state_kept(self):
        rho = sample_random(13, rank=4)
        d = ls_decompose(rho)
        assert d.weight == 1.0
        assert d.pure is None
        assert np.array_equal(d.sep.m, rho.m)

    def test_two_sided_closure(self):
        # lambdas (1/2, 1/2, 0, 0): the closure triangle collapses to
        # lambda_1 = lambda_2, closed by the phases (0, pi/2, 0, 0)
        rho = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]))
        d = ls_decompose(rho)
        assert (d.rank_class, d.weight, d.pure) == ("separable", 1.0, None)
        assert np.array_equal(d.phases, [0.0, np.pi / 2.0, 0.0, 0.0])
        assert verify_optimality(rho, d).verdict

    def test_ensemble_zero_concurrence(self):
        d = ls_decompose(sample_random(13, rank=4))
        for z in d.zs:
            assert abs(np.vdot(z, SIGMA_YY @ np.conj(z))) < 1e-9

    def test_ensemble_sums_to_state(self):
        rho = sample_random(13, rank=4)
        d = ls_decompose(rho)
        total = sum(np.outer(z, np.conj(z)) for z in d.zs)
        assert np.max(np.abs(total - rho.m)) < 1e-10


class TestProductEnsemble:
    def test_zero_concurrence_members(self):
        for seed in (0, 1, 2, 5, 8):
            d = ls_decompose(sample_random(seed, rank=2 + seed % 3))
            for z in d.zs:
                assert abs(np.vdot(z, SIGMA_YY @ np.conj(z))) < 1e-9

    def test_sums_to_separable_part(self):
        for seed in (0, 1, 2):
            d = ls_decompose(sample_random(seed, rank=4))
            total = sum(np.outer(z, np.conj(z)) for z in d.zs)
            assert np.max(np.abs(total - d.sep.m)) < 1e-10

    def test_rank3_dependencies(self):
        d = ls_decompose(sample_random(11, rank=3))
        assert np.max(np.abs(d.zs[0] + d.zs[3] - d.xpp[0])) < 1e-12
        assert np.max(np.abs(d.zs[1] + d.zs[2] - d.xpp[0])) < 1e-12

    def test_rank2_dependencies(self):
        d = ls_decompose(sample_random(13, rank=2))
        assert np.max(np.abs(d.zs[0] - d.zs[1])) < 1e-14
        assert np.max(np.abs(d.zs[2] - d.zs[3])) < 1e-14
        assert np.max(np.abs(d.zs[0] + d.zs[2] - d.xpp[0])) < 1e-12

    def test_default_matches_stored(self):
        d = ls_decompose(sample_random(1, rank=4))
        zs = product_ensemble(d)
        for a, b in zip(zs, d.zs):
            assert np.array_equal(a, b)

    def test_equivalent_phases_accepted(self):
        d = ls_decompose(bell_diagonal([0.7, 0.1, 0.1, 0.1]))
        shifted = np.array(DEFAULT_PHASES) + np.pi
        zs = product_ensemble(d, phases=shifted)
        for a, b in zip(zs, d.zs):
            assert np.max(np.abs(a + b)) < 1e-12

    def test_rejects_unbalanced_phases(self):
        d = ls_decompose(bell_diagonal([0.7, 0.1, 0.1, 0.1]))
        for phases in (np.zeros(4), np.full(4, np.nan)):
            with pytest.raises(PhaseConstraintViolated):
                product_ensemble(d, phases=phases)


class TestAverageConcurrence:
    def test_matches_state_concurrence(self):
        for seed in (0, 1, 2, 11):
            rho = sample_random(seed, rank=2 + seed % 3)
            d = ls_decompose(rho)
            assert abs(average_concurrence(d) - concurrence(rho)) < 1e-9

    def test_werner_oracle(self):
        d = ls_decompose(werner(0.5))
        assert abs(average_concurrence(d) - 0.25) < 1e-12

    def test_no_pure_part(self):
        with pytest.raises(NoPurePart):
            average_concurrence(ls_decompose(DensityMatrix(np.eye(4) / 4.0)))


class TestPpt:
    def test_bell_projector(self):
        res = ppt_check(DensityMatrix(np.outer(PHI_P, PHI_P)))
        assert not res.separable
        assert abs(res.min_pt_eigenvalue + 0.5) < 1e-12

    def test_maximally_mixed(self):
        res = ppt_check(DensityMatrix(np.eye(4) / 4.0))
        assert res.separable
        assert abs(res.min_pt_eigenvalue - 0.25) < 1e-12

    def test_werner_half(self):
        res = ppt_check(werner(0.5))
        assert not res.separable
        assert abs(res.min_pt_eigenvalue + 0.125) < 1e-12

    def test_product_state(self):
        res = ppt_check(DensityMatrix(np.outer(E[:, 0], E[:, 0])))
        assert res.separable


def _failed_checks(rep):
    """Names of the structural checks a report failed, sorted."""
    return sorted(c.name for c in rep.structural if not c.passed)


class TestVerifyOptimality:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_rejects_non_finite_or_negative_tol(self, tol):
        rho = sample_random(1, rank=4)
        with pytest.raises(ValueError, match="finite number >= 0"):
            verify_optimality(rho, ls_decompose(rho), tol=tol)

    def test_zero_tol_is_accepted(self):
        rho = sample_random(1, rank=4)
        rep = verify_optimality(rho, ls_decompose(rho), tol=0.0)
        assert all(c.tol == 0.0 for c in rep.structural if c.name != "separable-ppt")

    def test_full_rank_verdict(self):
        rho = sample_random(1, rank=4)
        rep = verify_optimality(rho, ls_decompose(rho))
        assert rep.verdict
        assert rep.rank_class == "full"
        assert rep.max_residual < 1e-8
        assert 0.0 < rep.independence_margin <= 1.0
        assert rep.pairwise == ()
        assert all(c.passed for c in rep.structural)

    def test_rank3_verdict_and_closed_forms(self):
        rho = sample_random(11, rank=3)
        rep = verify_optimality(rho, ls_decompose(rho))
        assert rep.verdict
        assert rep.rank_class == "rank3"
        assert len(rep.pairwise) == 2
        for p in rep.pairwise:
            assert abs(p.reproduced_a - p.lam_a) < 1e-8
            assert abs(p.reproduced_b - p.lam_b) < 1e-8

    def test_rank2_verdict(self):
        rho = sample_random(13, rank=2)
        rep = verify_optimality(rho, ls_decompose(rho))
        assert rep.verdict
        assert rep.rank_class == "rank2"
        assert rep.pairwise

    def test_exotic_verdict(self):
        rho = exotic_rank2()
        rep = verify_optimality(rho, ls_decompose(rho))
        assert rep.verdict

    def test_pure_verdict(self):
        # near |00>, the margin of sqrt(1 - e)|00> + sqrt(e)|11> is about
        # 0.4 sqrt(e): reported, not tested, so the split still certifies
        for e in (0.1, 1e-12, 1e-14):
            psi = np.sqrt(1.0 - e) * E[:, 0] + np.sqrt(e) * E[:, 3]
            rho = DensityMatrix(np.outer(psi, psi))
            rep = verify_optimality(rho, ls_decompose(rho))
            assert rep.verdict
            assert rep.rank_class == "pure"
            if e < 0.1:
                assert rep.independence_margin == pytest.approx(0.4 * np.sqrt(e), rel=1e-6)

    def test_separable_verdict(self):
        rho = sample_random(13, rank=4)
        rep = verify_optimality(rho, ls_decompose(rho))
        assert rep.verdict
        assert rep.rank_class == "separable"

    def test_rank_mismatch(self):
        d = ls_decompose(sample_random(13, rank=2))
        with pytest.raises(RankMismatch):
            verify_optimality(sample_random(1, rank=4), d)

    def test_dependent_family_is_rejected(self):
        # a duplicated z makes the pair (z_0, z_1, x_1) dependent: the margin
        # reports it, and the structural checks reject the split
        rho = sample_random(1, rank=4)
        d = ls_decompose(rho)
        zs = (d.zs[0], d.zs[0], d.zs[2], d.zs[3])
        rep = verify_optimality(rho, dataclasses.replace(d, zs=zs))
        assert not rep.verdict
        assert _failed_checks(rep) == ["ensemble-phases", "ensemble-sum"]
        assert rep.independence_margin < 1e-15

    def test_weight_one_is_rejected(self):
        # weight 1 on an entangled class makes the anchor's coefficient 0,
        # which a full split, having no closed-form pair, never inverts;
        # the wrong weight fails its own checks
        rho = sample_random(1, rank=4)
        d = ls_decompose(rho)
        rep = verify_optimality(rho, dataclasses.replace(d, weight=1.0))
        assert not rep.verdict
        assert _failed_checks(rep) == ["reconstruction", "weight-identity"]
        assert rep.independence_margin == verify_optimality(rho, d).independence_margin

    def test_rejects_shifted_weight(self):
        rho = sample_random(1, rank=4)
        d = ls_decompose(rho)
        rep = verify_optimality(rho, dataclasses.replace(d, weight=d.weight + 0.01))
        assert not rep.verdict

    def test_rejects_scaled_ensemble(self):
        rho = sample_random(1, rank=4)
        d = ls_decompose(rho)
        zs = tuple(1.01 * z for z in d.zs)
        rep = verify_optimality(rho, dataclasses.replace(d, zs=zs))
        assert not rep.verdict


def _condition(exc):
    """The reciprocal condition a certificate raise names in its message."""
    return float(str(exc.value).split("condition ")[1].split()[0])


class TestCertificateRaises:
    """The certificate's two raises, reached through verify_optimality."""

    def test_dependent_pair_raises_dependent_vectors(self):
        # z_3 = 2 z_0 makes the rank3 pair (0, 3) parallel, so it has no dual frame
        rho = sample_random(0, rank=3)
        d = ls_decompose(rho)
        zs = (d.zs[0], d.zs[1], d.zs[2], 2.0 * d.zs[0])
        with pytest.raises(DependentVectors, match="below 1e-12") as exc:
            verify_optimality(rho, dataclasses.replace(d, zs=zs))
        assert _condition(exc) <= 1e-13

    def test_singular_block_raises_singular_coefficients(self):
        # weight 1e-11 puts coeff = (1 - w) / w near 1e11 on the rank2 pair's
        # coefficient block, and a shorter z_0 makes that block's c c^dag term
        # dominate its diagonal; the pair itself stays well conditioned
        rho = sample_random(0, rank=2)
        d = ls_decompose(rho)
        zs = (0.1 * d.zs[0], d.zs[1], d.zs[2], d.zs[3])
        with pytest.raises(SingularCoefficients, match="below 1e-12") as exc:
            verify_optimality(rho, dataclasses.replace(d, zs=zs, weight=1e-11))
        assert _condition(exc) <= 1e-13


class TestRepeatability:
    """Equal fresh inputs give the same bytes: the benchmark's outcomes repeat."""

    def test_split_and_certificate_repeat(self):
        states = [sample_random(s, rank=1 + s % 4).m for s in range(12)]
        states += [werner(0.2).m, werner(0.8).m, exotic_rank2().m]
        for m in states:
            texts = []
            for _ in range(2):
                rho = DensityMatrix(np.array(m))
                d = ls_decompose(rho)
                rep = verify_optimality(rho, d)
                texts.append(json.dumps([to_json(d), to_json(rep)]))
            assert texts[0] == texts[1]


def _mutant(kind, d, rng):
    """d with one field perturbed and zs not rebuilt; None where kind is a no-op."""
    big = int(np.argmax([np.linalg.norm(z) for z in d.zs]))
    noise = 1e-3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    zs, xpp = list(d.zs), list(d.xpp)
    if kind == "weight":
        # weight 1 cannot grow and weight 0 does not move
        if d.rank_class in ("separable", "pure"):
            return None
        return dataclasses.replace(d, weight=1.001 * d.weight)
    if kind == "z-scaled":
        zs[big] = 1.001 * zs[big]
        return dataclasses.replace(d, zs=tuple(zs))
    if kind == "z-noise":
        zs[big] = zs[big] + noise
        return dataclasses.replace(d, zs=tuple(zs))
    if kind == "pure-noise":
        if d.pure is None:
            return None
        return dataclasses.replace(d, pure=d.pure + noise)
    if kind == "lambdas-pp-scaled":
        return dataclasses.replace(d, lambdas_pp=1.001 * d.lambdas_pp)
    if kind == "xpp-scaled":
        xpp[0] = 1.001 * xpp[0]
        return dataclasses.replace(d, xpp=tuple(xpp))
    assert kind == "phases-shifted"
    return dataclasses.replace(d, phases=d.phases + rng.uniform(-0.1, 0.1, 4))


class TestMutationCorpus:
    """Tampered splits of ranks 1-4 and a few separable states are rejected.

    The first four kinds are rejected since the stacked certificate; the
    last three leave the structural identities intact and are caught by
    the lambdas-pp and ensemble-phases checks.
    """

    STATES = [sample_random(s, rank=r) for s in range(15) for r in (1, 2, 3, 4)]
    STATES += [werner(0.2), werner(0.3), bell_diagonal([0.4, 0.3, 0.2, 0.1])]

    @pytest.mark.parametrize(
        "kind",
        [
            "weight",
            "z-scaled",
            "z-noise",
            "pure-noise",
            "lambdas-pp-scaled",
            "xpp-scaled",
            "phases-shifted",
        ],
    )
    def test_every_mutant_is_rejected(self, kind):
        rng = np.random.default_rng(12)
        tried, passed = 0, []
        for i, rho in enumerate(self.STATES):
            d = ls_decompose(rho)
            mutant = _mutant(kind, d, rng)
            if mutant is None:
                continue
            tried += 1
            try:
                if verify_optimality(rho, mutant).verdict:
                    passed.append((i, d.rank_class))
            except LsdToolkitError:
                pass
        assert tried >= 40
        assert passed == []


def _inverse_on_span(m, vecs):
    """Inverse of m on the span of vecs, through an orthonormal basis q of
    the span: q (q^dag m q)^-1 q^dag."""
    q, _ = np.linalg.qr(np.column_stack(vecs))
    return q @ np.linalg.inv(q.conj().T @ m @ q) @ q.conj().T


def _ref_dependent_pair(a, b, za, zb, x1, coeff, g):
    """The pair's record through the explicit 4x4 operator M and its
    inverse on span(z_a, z_b)."""
    lam_a = float(np.vdot(za, za).real)
    lam_b = float(np.vdot(zb, zb).real)
    mmat = (
        lam_a * np.outer(za, np.conj(za))
        + lam_b * np.outer(zb, np.conj(zb))
        + coeff * np.outer(x1, np.conj(x1))
    )
    z = np.column_stack([za, zb])
    e_meas = z.conj().T @ _inverse_on_span(mmat, [za, zb]) @ z
    gamma = lam_a * lam_b + (lam_a + lam_b) * g
    e_pred = np.array([[lam_b + g, -g], [-g, lam_a + g]], dtype=complex) / gamma
    res_mat = float(np.max(np.abs(e_meas - e_pred)))
    det = e_meas[0, 0].real * e_meas[1, 1].real - abs(e_meas[0, 1]) ** 2
    rep_a = (e_meas[1, 1].real - abs(e_meas[0, 1])) / det
    rep_b = (e_meas[0, 0].real - abs(e_meas[0, 1])) / det
    return lsd.PairCheck(
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


def _assert_records_close(got, want, tol=1e-12):
    """The same pair and weights; every computed field within tol."""
    assert (got.alpha, got.beta) == (want.alpha, want.beta)
    assert (got.lam_a, got.lam_b, got.gamma) == (want.lam_a, want.lam_b, want.gamma)
    for name in ("cross", "diag_a", "diag_b", "reproduced_a", "reproduced_b", "residual"):
        assert abs(getattr(got, name) - getattr(want, name)) <= tol, name


def _ref_parallel(u, v):
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return True
    return abs(np.vdot(u, v)) / (nu * nv) > 1.0 - 1e-10


def _ref_families(rho, d):
    """The certificate's families in the order it checks them, and its
    closed-form pairs, each through its explicit 4x4 operator."""
    w = wootters_basis(rho)
    x1 = w.xs[0]
    zs = d.zs
    lamw = float(d.weight)
    coeff = (1.0 - lamw) / lamw if lamw > 1e-12 else (1.0 - lamw)
    parallel = _ref_parallel
    if d.rank_class == "separable":
        live = [a for a in range(4) if float(np.vdot(zs[a], zs[a]).real) > 1e-14]
        singles = [[zs[a]] for a in live]
        indep = [
            [zs[a], zs[b]]
            for i, a in enumerate(live)
            for b in live[i + 1 :]
            if not parallel(zs[a], zs[b])
        ]
        return singles + indep, []
    if d.rank_class == "pure":
        distinct = []
        for a in range(4):
            if not any(parallel(zs[a], zs[b]) for b in distinct):
                distinct.append(a)
        return [[zs[a], d.pure] for a in distinct], []
    _, rest = lsd._optimal_weight(w)
    lam0 = float(w.lambdas[0])
    single_idx, indep, dep = {
        "full": (
            [0, 1, 2, 3],
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
            [],
        ),
        "rank3": (
            [0, 1, 2, 3],
            [(0, 1), (0, 2), (1, 3), (2, 3)],
            [(0, 3), (1, 2)],
        ),
        "rank2": ([0, 2], [], [(0, 2)]),
    }[d.rank_class]
    families = [[zs[a], x1] for a in single_idx]
    families += [[zs[a], zs[b], x1] for a, b in indep]
    pairs = []
    if rest > 0.0:
        g = (1.0 - lamw) * lam0 / rest
        for a, b in dep:
            pairs.append(_ref_dependent_pair(a, b, zs[a], zs[b], x1, coeff, g))
    return families, pairs


class TestStackedCertificate:
    """The stacked closed-form pairs match the inverse of each pair's 4x4
    operator on its span to 1e-12, and the margin is the worst of the
    per-family SVDs."""

    STATES = {
        "rank1": lambda: sample_random(2, rank=1),
        "rank2": lambda: sample_random(13, rank=2),
        "rank3": lambda: sample_random(11, rank=3),
        "rank4": lambda: sample_random(1, rank=4),
        "exotic-rank2": exotic_rank2,
        "bell-diagonal-separable": lambda: bell_diagonal([0.4, 0.3, 0.2, 0.1]),
        "werner-below": lambda: werner(1.0 / 3.0 - 1e-9),
        "werner-above": lambda: werner(1.0 / 3.0 + 1e-9),
        "pure": pure_state,
    }

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_records_match_the_scalar_reference(self, name):
        rho = self.STATES[name]()
        d = ls_decompose(rho)
        rep = verify_optimality(rho, d)
        families, pairs = _ref_families(rho, d)
        assert len(rep.pairwise) == len(pairs)
        for got, want in zip(rep.pairwise, pairs):
            _assert_records_close(got, want)
        ratios = []
        for fam in families:
            s = np.linalg.svd(np.column_stack(fam), compute_uv=False)
            ratios.append(s[-1] / s[0])
        assert rep.independence_margin == min(ratios)

    def test_reference_covers_every_branch(self):
        kinds = set()
        for make in self.STATES.values():
            rho = make()
            d = ls_decompose(rho)
            _, pairs = _ref_families(rho, d)
            kinds.add(d.rank_class)
            kinds.update("closed-form" for p in pairs)
        assert kinds == {"pure", "rank2", "rank3", "full", "separable", "closed-form"}


def _uncovered_singles(table):
    """(class, a) for each index 0-3 in no group of the full and rank3 rows."""
    return [
        (cls, a)
        for cls in ("full", "rank3")
        for a in range(4)
        if not any(a in group for group in table[cls][0])
    ]


def _margin_states():
    states = [sample_random(s, rank=r) for s in range(50) for r in (1, 2, 3, 4)]
    rng = np.random.default_rng(7)
    # Bell-diagonal weights of at most 2/5, below 1/2: separable
    states += [bell_diagonal((rng.dirichlet(np.ones(4)) + 1.0) / 5.0) for _ in range(10)]
    states += [werner(1.0 / 3.0 - 1e-9), werner(1.0 / 3.0 + 1e-9), exotic_rank2()]
    return states


class TestInterlacing:
    """The margin reads only the families that can decide it.

    A single (z_a, anchor) is a column subset of an independent pair
    (z_a, z_b, anchor), so its s_min / s_max is no smaller than the
    pair's; a separable single has ratio 1.
    """

    def test_every_single_lies_in_an_independent_pair(self):
        table = lsd._ENTANGLED_FAMILIES
        # the full and rank3 rows list pairs only, the rank2 and pure rows singles
        for cls, size in (("full", 2), ("rank3", 2), ("rank2", 1), ("pure", 1)):
            groups, _ = table[cls]
            assert groups and all(len(g) == size for g in groups)
        assert _uncovered_singles(table) == []
        # the check is not vacuous: a rank3 row without the pairs through
        # z_0 leaves that single to itself
        mutated = dict(table)
        groups, dep = table["rank3"]
        mutated["rank3"] = (tuple(p for p in groups if 0 not in p), dep)
        assert _uncovered_singles(mutated) == [("rank3", 0)]

    def test_margin_is_the_minimum_over_singles_and_pairs(self):
        states = _margin_states()
        assert len(states) >= 200
        classes = set()
        for rho in states:
            d = ls_decompose(rho)
            rep = verify_optimality(rho, d)
            families, _ = _ref_families(rho, d)
            ratios = []
            for fam in families:
                s = np.linalg.svd(np.column_stack(fam), compute_uv=False)
                ratios.append(s[-1] / s[0])
            assert rep.independence_margin == min(ratios)
            classes.add(d.rank_class)
        assert classes == {"full", "rank3", "rank2", "pure", "separable"}

    # product states whose lambdas come out as exact zeros
    @pytest.mark.parametrize(
        "a, b",
        [([1, 0], [1, 0]), ([0, 1], [1, 0]), ([1, 0], [0.6, 0.8j]), ([0.6, 0.8], [1, 0])],
    )
    def test_product_pure_state_has_margin_one(self, a, b):
        psi = np.kron(np.array(a, dtype=complex), np.array(b, dtype=complex))
        rho = DensityMatrix(np.outer(psi, np.conj(psi)))
        d = ls_decompose(rho)
        assert d.rank_class == "separable"
        assert all(_ref_parallel(u, v) for u in d.zs for v in d.zs)
        rep = verify_optimality(rho, d)
        assert rep.verdict
        assert rep.independence_margin == 1.0

    @pytest.mark.parametrize("make", [lambda: werner(0.2), pure_state], ids=["separable", "pure"])
    def test_zero_vector_is_parallel_to_all_without_a_warning(self, make):
        # pytest turns any RuntimeWarning, such as one from 0 / 0, into an error
        rho = make()
        d = ls_decompose(rho)
        zs = d.zs.copy()
        zs[1] = 0.0
        assert lsd._parallel_matrix(zs)[1].all()
        assert not verify_optimality(rho, dataclasses.replace(d, zs=zs)).verdict

    def test_single_parallel_to_the_anchor_is_rejected(self):
        rho = sample_random(1, rank=4)
        d = ls_decompose(rho)
        zs = d.zs.copy()
        zs[2] = 0.7 * wootters_basis(rho).xs[0]
        rep = verify_optimality(rho, dataclasses.replace(d, zs=zs))
        assert not rep.verdict
        assert _failed_checks(rep) == ["ensemble-phases", "ensemble-sum", "zero-concurrence"]
        assert rep.independence_margin < 1e-15

    def test_dependent_pair_at_weight_one_is_rejected(self):
        # both tampers at once: each is named by its own checks, and the
        # margin is the dependent pair's
        rho = sample_random(1, rank=4)
        d = ls_decompose(rho)
        zs = (d.zs[0], d.zs[0], d.zs[2], d.zs[3])
        rep = verify_optimality(rho, dataclasses.replace(d, zs=zs, weight=1.0))
        assert not rep.verdict
        assert _failed_checks(rep) == [
            "ensemble-phases", "ensemble-sum", "reconstruction", "weight-identity"
        ]
        assert rep.independence_margin < 1e-15


# the array fields of LSDecomposition, in field order
_SPLIT_ARRAYS = ("xpp", "zs", "lambdas_pp", "phases", "pure")


class TestJsonRoundTrip:
    def test_decomposition_exact(self):
        d = ls_decompose(sample_random(1, rank=4))
        again = lsd_from_json(json.loads(json.dumps(lsd_to_json(d))))
        assert again.weight == d.weight
        assert again.rank_class == d.rank_class
        assert np.array_equal(again.sep.m, d.sep.m)
        assert np.array_equal(again.pure, d.pure)
        for a, b in zip(again.xpp, d.xpp):
            assert np.array_equal(a, b)
        for a, b in zip(again.zs, d.zs):
            assert np.array_equal(a, b)
        assert np.array_equal(again.lambdas_pp, d.lambdas_pp)
        assert np.array_equal(again.phases, d.phases)

    def test_separable_decomposition(self):
        d = ls_decompose(DensityMatrix(np.eye(4) / 4.0))
        again = lsd_from_json(json.loads(json.dumps(lsd_to_json(d))))
        assert again.pure is None
        assert again.weight == 1.0

    # a ragged family raises numpy's own ValueError, or on numpy < 1.24
    # the record's shape check, so those cases match no message
    @pytest.mark.parametrize(
        "cut, match",
        [
            (lambda f: f[:3], "exactly four"),
            (lambda f: f + f[:1], "exactly four"),
            (lambda f: [f[0][:3]] + f[1:], None),
            (lambda f: [f[0][:1]] + f[1:], None),
            (lambda f: [], "exactly four"),
        ],
        ids=["3", "5", "entries-3", "entries-1", "empty"],
    )
    @pytest.mark.parametrize("key", ["xpp", "zs"])
    def test_rejects_other_than_four_vectors(self, key, cut, match):
        obj = json.loads(json.dumps(lsd_to_json(ls_decompose(sample_random(1, rank=4)))))
        obj[key] = cut(obj[key])
        with pytest.raises(ValueError, match=match):
            lsd_from_json(obj)

    @pytest.mark.parametrize(
        "key, value, match",
        [("weight", 1.5, "outside"), ("rank_class", "rank5", "unknown rank class")],
    )
    def test_rejects_out_of_range_fields(self, key, value, match):
        obj = json.loads(json.dumps(lsd_to_json(ls_decompose(sample_random(1, rank=4)))))
        obj[key] = value
        with pytest.raises(ValueError, match=match):
            lsd_from_json(obj)

    @pytest.mark.parametrize(
        "first, later",
        [
            (a, b)
            for i, a in enumerate(_SPLIT_ARRAYS)
            for b in _SPLIT_ARRAYS[i + 1:]
        ],
    )
    def test_non_finite_names_the_first_field(self, first, later):
        # one finiteness test covers every array; the error names the
        # first bad one in field order, as a test per field would
        d = ls_decompose(sample_random(1, rank=4))
        assert d.pure is not None
        bad = {}
        for name in (first, later):
            arr = np.array(getattr(d, name))
            arr.reshape(-1)[-1] = np.nan
            bad[name] = arr
        with pytest.raises(ValueError, match="^%s has non-finite entries$" % first):
            dataclasses.replace(d, **bad)

    def test_report_exact(self):
        rho = sample_random(11, rank=3)
        rep = verify_optimality(rho, ls_decompose(rho))
        again = report_from_json(json.loads(json.dumps(report_to_json(rep))))
        assert again.verdict == rep.verdict
        assert again.max_residual == rep.max_residual
        assert again.rank_class == rep.rank_class
        assert again.independence_margin == rep.independence_margin
        assert len(again.pairwise) == len(rep.pairwise)
        for a, b in zip(again.pairwise, rep.pairwise):
            assert a.alpha == b.alpha and a.beta == b.beta
            assert a.cross == b.cross
            assert a.gamma == b.gamma
            assert a.residual == b.residual
        for a, b in zip(again.structural, rep.structural):
            assert a.name == b.name
            assert a.passed == b.passed
            assert a.residual == b.residual


def _counted(monkeypatch, module, name, calls=None):
    calls = [] if calls is None else calls
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestOncePerState:
    """Each state is eigendecomposed at most once and keeps its Wootters basis."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_split_and_certificate_share_one_takagi(self, rank, monkeypatch):
        ls_decompose(sample_random(0, rank=1))  # builds the pure-state partner
        rho = sample_random(21, rank=rank)
        calls = _counted(monkeypatch, wootters, "takagi")
        rep = verify_optimality(rho, ls_decompose(rho))
        assert rep.verdict
        assert len(calls) == 1

    # a separable or full split has one family size, its independent pairs;
    # rank3 and rank2 add one stack for the dual frames of their closed-form
    # pairs, whose 2x2 blocks are inverted in closed form
    @pytest.mark.parametrize(
        "rank, batches", [(1, 1), (2, 2), (3, 2), (4, 1), ("bell-separable", 1)]
    )
    def test_certificate_solves_one_batch_per_record_family(
        self, rank, batches, monkeypatch
    ):
        ls_decompose(sample_random(0, rank=1))
        if rank == "bell-separable":
            rho = bell_diagonal([0.4, 0.3, 0.2, 0.1])
        else:
            rho = sample_random(21, rank=rank)
        d = ls_decompose(rho)
        eig = _counted(monkeypatch, np.linalg, "eigh")
        svd = _counted(monkeypatch, np.linalg, "svd")
        inv = _counted(monkeypatch, np.linalg, "inv")
        eigvals = _counted(monkeypatch, np.linalg, "eigvalsh")
        assert verify_optimality(rho, d).verdict
        # ppt_check's one eigensolve, of minus the symmetrized partial transpose
        pt = d.sep.m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        assert len(eig) == 1
        assert eig[0][0].tobytes() == (-((pt + pt.conj().T) / 2.0)).tobytes()
        assert len(svd) == batches
        assert len(inv) == len(eigvals) == 0

    # eigh: the state, its Takagi embedding and the partial transpose; the
    # separable part of a mixed entangled split is a Gram sum, whose
    # eigenpair nothing on this path reads, so it is never solved; svd: the
    # margin's one batch and the closed-form pairs' dual frames; no qr:
    # takagi gives the unit vectors on tau's zero rows as its null rows
    @pytest.mark.parametrize(
        "make, cls, counts",
        [
            (lambda: sample_random(21, rank=4), "full", {"eigh": 3, "svd": 1}),
            (lambda: sample_random(21, rank=3), "rank3", {"eigh": 3, "svd": 2}),
            (lambda: sample_random(21, rank=2), "rank2", {"eigh": 3, "svd": 2}),
            (lambda: sample_random(21, rank=1), "pure", {"eigh": 3, "svd": 1}),
            (
                lambda: bell_diagonal([0.4, 0.3, 0.2, 0.1]),
                "separable",
                {"eigh": 3, "svd": 1},
            ),
        ],
        ids=["full", "rank3", "rank2", "pure", "separable"],
    )
    def test_lapack_calls_from_matrix_to_certificate(
        self, make, cls, counts, monkeypatch
    ):
        ls_decompose(sample_random(0, rank=1))  # builds the pure-state partner
        m = make().m.copy()
        calls = {}
        for name in ("eigh", "eigvalsh", "eig", "svd", "qr", "inv", "solve", "det"):
            calls[name] = _counted(monkeypatch, np.linalg, name)
        rho = DensityMatrix(m)
        d = ls_decompose(rho)
        assert verify_optimality(rho, d).verdict
        assert d.rank_class == cls
        assert {name: len(c) for name, c in calls.items() if c} == counts

    def test_state_is_eigendecomposed_at_construction_only(self, monkeypatch):
        ls_decompose(sample_random(0, rank=1))
        calls = _counted(monkeypatch, np.linalg, "eigh")
        for rank in (1, 2, 3, 4):
            rho = sample_random(30 + rank, rank=rank)
            # the solver sees minus the symmetrized state, at construction
            neg = -((rho.m + rho.m.conj().T) / 2.0)
            assert np.array_equal(calls[-1][0], neg)
            before = len(calls)
            verify_optimality(rho, ls_decompose(rho))
            assert len(calls) > before
            assert not any(
                a[0].shape == neg.shape and np.allclose(a[0], neg, rtol=0.0, atol=1e-15)
                for a in calls[before:]
            )

    def test_generator_solves_its_state_once(self, monkeypatch):
        calls = _counted(monkeypatch, qstate, "herm_eig")
        res = coset.coset_generate(_random_params(3))
        assert not any(np.array_equal(a[0], res.rho.m) for a in calls)
        lam = lambda_spectrum(res.rho)
        assert sum(np.array_equal(a[0], res.rho.m) for a in calls) == 1
        assert np.array_equal(lambda_spectrum(res.rho), lam)
        assert sum(np.array_equal(a[0], res.rho.m) for a in calls) == 1

    def test_arrays_are_read_only_and_the_input_is_not(self):
        arr = sample_random(3, rank=4).m.copy()
        rho = DensityMatrix(arr)
        arr[0, 0] += 1.0
        assert arr.flags.writeable
        assert rho.m[0, 0] != arr[0, 0]
        w = wootters_basis(rho)
        for a in (rho.m, w.lambdas, w.xs):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_basis_is_kept(self):
        rho = sample_random(4, rank=3)
        assert wootters_basis(rho) is wootters_basis(rho)

    def test_every_instance_has_its_own_basis(self):
        rho = sample_random(5, rank=4)
        w = wootters_basis(rho)
        u1 = np.array([[np.exp(0.3j), 0.0], [0.0, np.exp(-0.3j)]])
        u2 = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
        moved = local_unitary_action(u1, u2, rho)
        same = DensityMatrix(rho.m)
        for other in (moved, same):
            wo = wootters_basis(other)
            assert wo is not w
            total = sum(np.outer(x, np.conj(x)) for x in wo.xs)
            assert np.max(np.abs(total - other.m)) < 1e-12
        x = np.column_stack(w.xs)
        assert np.array_equal(np.column_stack(wootters_basis(same).xs), x)
        assert np.max(np.abs(np.column_stack(wootters_basis(moved).xs) - x)) > 1e-3

    def test_json_sees_the_matrix_only(self):
        rho = sample_random(6, rank=4)
        verify_optimality(rho, ls_decompose(rho))
        obj = to_json(rho)
        assert list(obj) == ["matrix"]
        assert [f.name for f in dataclasses.fields(rho)] == ["m"]
        again = from_json(DensityMatrix, json.loads(json.dumps(obj)))
        assert np.array_equal(again.m, rho.m)

    def test_rank_mismatch_with_both_bases_kept(self):
        rho_a = sample_random(13, rank=2)
        rho_b = sample_random(1, rank=4)
        d_a = ls_decompose(rho_a)
        verify_optimality(rho_b, ls_decompose(rho_b))
        with pytest.raises(RankMismatch):
            verify_optimality(rho_b, d_a)
        assert verify_optimality(rho_a, d_a).verdict
