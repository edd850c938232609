import numpy as np
import pytest

from lsd_toolkit.errors import NotNormalized, ResidualCheckFailed
from lsd_toolkit.matcore import takagi
from lsd_toolkit.qstate import (
    DensityMatrix,
    eigen_ensemble,
    lambda_spectrum_raw,
    sample_random,
    SIGMA_YY,
)
from lsd_toolkit.wootters import (
    concurrence,
    entanglement_of_formation,
    pure_state_entropy,
    tau_matrix,
    wootters_basis,
    WoottersDecomposition,
)

E = np.eye(4)
PHI_P = (E[:, 0] + E[:, 3]) / np.sqrt(2.0)
PSI_P = (E[:, 1] + E[:, 2]) / np.sqrt(2.0)
PSI_M = (E[:, 1] - E[:, 2]) / np.sqrt(2.0)
PHI_M = (E[:, 0] - E[:, 3]) / np.sqrt(2.0)
BELLS = [PHI_P, PSI_P, PSI_M, PHI_M]


def werner(p):
    return DensityMatrix(p * np.outer(PHI_P, PHI_P) + (1.0 - p) * np.eye(4) / 4.0)


def bell_diagonal(ps):
    m = sum(p * np.outer(b, b.conj()) for p, b in zip(ps, BELLS))
    return DensityMatrix(m)


def pure(psi):
    return DensityMatrix(np.outer(psi, np.conj(psi)))


class TestTauMatrix:
    def test_bell_ensemble_is_signed_diagonal(self):
        # the four Bell vectors are spin-flip eigenvectors with signs
        # (-1, +1, -1, +1), so the overlap matrix of a Bell ensemble
        # is diag(-p1, p2, -p3, p4)
        ps = [0.4, 0.3, 0.2, 0.1]
        vs = np.array([np.sqrt(p) * b for p, b in zip(ps, BELLS)])
        tau = tau_matrix(vs).tau
        expect = np.diag([-0.4, 0.3, -0.2, 0.1])
        assert np.max(np.abs(tau - expect)) < 1e-14

    def test_symmetric_on_random_states(self):
        for seed in range(40):
            tau = tau_matrix(eigen_ensemble(sample_random(seed))).tau
            assert np.max(np.abs(tau - tau.T)) < 1e-12


class TestWoottersBasis:
    def test_reconstruction_and_orthogonality(self):
        for seed in range(120):
            rho = sample_random(seed, rank=2 + seed % 3)
            w = wootters_basis(rho)
            x = np.column_stack(w.xs)
            total = x @ x.conj().T
            assert np.max(np.abs(total - rho.m)) < 1e-10
            overlap = x.conj().T @ SIGMA_YY @ np.conj(x)
            assert np.max(np.abs(overlap - np.diag(w.lambdas))) < 1e-9

    def test_matches_raw_spectrum(self):
        for seed in range(120):
            rho = sample_random(seed, rank=2 + seed % 3)
            w = wootters_basis(rho)
            raw = lambda_spectrum_raw(rho.m)
            assert np.max(np.abs(w.lambdas - raw)) < 1e-9

    def test_u_connects_eigen_ensemble(self):
        for seed in range(30):
            rho = sample_random(seed)
            w = wootters_basis(rho)
            v = eigen_ensemble(rho).T
            x = np.column_stack(w.xs)
            assert np.max(np.abs(v @ w.u.conj().T - x)) < 1e-11

    def test_canonical_sign(self):
        # only a sign flip is free per vector, and it is fixed so the
        # largest-modulus component has non-negative real part
        for seed in range(30):
            w = wootters_basis(sample_random(seed))
            for x in w.xs:
                k = int(np.argmax(np.abs(x)))
                assert x[k].real >= -1e-12 * abs(x[k])

    def test_signs_match_the_per_row_rule(self):
        # the rule wootters_basis applied row by row before it signed all
        # four rows at once, kept as its reference: negation is exact, so
        # the rows and u agree bit for bit
        def sign(x):
            k = int(np.argmax(np.abs(x)))
            c = x[k]
            eps = 1e-13 * abs(c)
            if c.real < -eps or (abs(c.real) <= eps and c.imag < 0.0):
                return -1.0
            return 1.0

        states = [sample_random(s, rank=1 + s % 4) for s in range(40)]
        # these reach the imaginary branch: a purely imaginary top entry
        states += [
            bell_diagonal([0.25] * 4),
            bell_diagonal([0.1, 0.2, 0.3, 0.4]),
            DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1])),
        ]
        # pure states whose top entry has |Re c| / |c| = 1.5e-11 and 4e-14,
        # of either sign: one each side of the 1e-13 cut
        for g in (1e-10, -1e-10, 3e-13, -3e-13):
            psi = np.array([0.8, 0.3, 0.3 * np.exp(1j * g), 0.5])
            states.append(pure(psi / np.linalg.norm(psi)))
        flips = 0
        for rho in states:
            vs = eigen_ensemble(rho)
            u, _ = takagi(tau_matrix(vs).tau)
            xs = np.conj(u) @ vs
            for i, x in enumerate(xs):
                if float(np.max(np.abs(x))) != 0.0 and sign(x) < 0.0:
                    xs[i] = -x
                    u[i] = -u[i]
                    flips += 1
            w = wootters_basis(rho)
            assert np.array_equal(w.xs, xs)
            assert np.array_equal(w.u, u)
        assert flips > 0

    def test_deterministic(self):
        rho = sample_random(17)
        a = wootters_basis(rho)
        b = wootters_basis(rho)
        for xa, xb in zip(a.xs, b.xs):
            assert np.array_equal(xa, xb)

    def test_low_rank_columns_exactly_zero(self):
        w = wootters_basis(sample_random(4, rank=2))
        assert np.all(w.xs[2] == 0.0)
        assert np.all(w.xs[3] == 0.0)

    def test_bell_diagonal_degenerate_pair(self):
        # weights (0.5, 0.2, 0.2, 0.1): the middle two vectors stay
        # aligned with their Bell directions despite the degeneracy
        w = wootters_basis(bell_diagonal([0.5, 0.2, 0.2, 0.1]))
        assert np.max(np.abs(w.lambdas - [0.5, 0.2, 0.2, 0.1])) < 1e-10
        for i, (b, p) in enumerate(
            [(PHI_P, 0.5), (PSI_P, 0.2), (PSI_M, 0.2), (PHI_M, 0.1)]
        ):
            x = w.xs[i]
            n2 = float(np.vdot(x, x).real)
            assert abs(n2 - p) < 1e-10
            assert abs(abs(np.vdot(b, x)) - np.sqrt(p)) < 1e-9


class TestWoottersDecompositionValidation:
    def test_rejects_tampered_lambdas(self):
        w = wootters_basis(sample_random(2))
        lam = np.sort(w.lambdas + 0.05)[::-1]
        with pytest.raises(ValueError):
            WoottersDecomposition(xs=w.xs, lambdas=lam, u=w.u)

    def test_rejects_non_unitary_u(self):
        w = wootters_basis(sample_random(2))
        with pytest.raises(ValueError):
            WoottersDecomposition(xs=w.xs, lambdas=w.lambdas, u=2.0 * w.u)

    def test_rejects_scaled_vectors(self):
        w = wootters_basis(sample_random(2))
        xs = tuple(1.1 * x for x in w.xs)
        with pytest.raises(ValueError):
            WoottersDecomposition(xs=xs, lambdas=w.lambdas, u=w.u)

    def test_residual_errors_are_typed(self):
        w = wootters_basis(sample_random(2))
        bad_norms = tuple(x * np.sqrt(1.0 + 1e-6) for x in w.xs)
        for xs, u in ((w.xs, 2.0 * w.u), (bad_norms, w.u)):
            with pytest.raises(ResidualCheckFailed):
                WoottersDecomposition(xs=xs, lambdas=w.lambdas, u=u)


class TestConcurrence:
    def test_werner_half(self):
        assert abs(concurrence(werner(0.5)) - 0.25) < 1e-12

    def test_werner_08(self):
        assert abs(concurrence(werner(0.8)) - 0.7) < 1e-12

    def test_bell_projector(self):
        assert abs(concurrence(pure(PHI_P)) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert concurrence(DensityMatrix(np.eye(4) / 4.0)) == 0.0

    def test_product_state(self):
        assert concurrence(pure(E[:, 0])) == 0.0

    def test_partially_entangled_pure(self):
        psi = np.sqrt(0.9) * E[:, 0] + np.sqrt(0.1) * E[:, 3]
        assert abs(concurrence(pure(psi)) - 0.6) < 1e-12

    def test_bell_diagonal(self):
        # weights (0.7, 0.1, 0.1, 0.1) give 0.7 - 0.3 = 0.4
        assert abs(concurrence(bell_diagonal([0.7, 0.1, 0.1, 0.1])) - 0.4) < 1e-12


class TestEntanglementOfFormation:
    def test_werner_half(self):
        val = entanglement_of_formation(werner(0.5))
        assert abs(val - 0.117618873770918) < 1e-12

    def test_werner_half_base_e(self):
        val = entanglement_of_formation(werner(0.5), base=np.e)
        assert abs(val - 0.081527190734948) < 1e-12

    def test_werner_08(self):
        val = entanglement_of_formation(werner(0.8))
        assert abs(val - 0.591857407170677) < 1e-12

    def test_pure_state(self):
        psi = np.sqrt(0.9) * E[:, 0] + np.sqrt(0.1) * E[:, 3]
        val = entanglement_of_formation(pure(psi))
        assert abs(val - 0.468995593589281) < 1e-12

    def test_bell_is_one(self):
        assert abs(entanglement_of_formation(pure(PHI_P)) - 1.0) < 1e-12

    def test_separable_is_zero(self):
        assert entanglement_of_formation(DensityMatrix(np.eye(4) / 4.0)) == 0.0

    @pytest.mark.parametrize("base", [1.0, 0.0, -2.0, np.nan, np.inf])
    def test_rejects_bad_base(self, base):
        with pytest.raises(ValueError, match="base"):
            entanglement_of_formation(werner(0.5), base=base)

    def test_matches_pure_entropy(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi = psi / np.linalg.norm(psi)
            a = entanglement_of_formation(pure(psi))
            b = pure_state_entropy(psi)
            assert abs(a - b) < 1e-9


class TestPureStateEntropy:
    def test_partially_entangled(self):
        psi = np.sqrt(0.9) * E[:, 0] + np.sqrt(0.1) * E[:, 3]
        assert abs(pure_state_entropy(psi) - 0.468995593589281) < 1e-12

    def test_bell(self):
        assert abs(pure_state_entropy(PHI_P) - 1.0) < 1e-12

    def test_bell_base_e(self):
        assert abs(pure_state_entropy(PHI_P, base=np.e) - np.log(2.0)) < 1e-12

    def test_product(self):
        assert pure_state_entropy(E[:, 0]) == 0.0

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            pure_state_entropy(2.0 * PHI_P)
        # a NaN norm fails the norm test too, not a later finiteness check
        for bad in (np.nan, np.inf):
            with pytest.raises(NotNormalized):
                pure_state_entropy([bad, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("base", [1.0, 0.0, -2.0, np.nan, np.inf])
    def test_rejects_bad_base(self, base):
        with pytest.raises(ValueError, match="base"):
            pure_state_entropy(PHI_P, base=base)
