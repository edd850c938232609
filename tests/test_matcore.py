import numpy as np
import pytest

from lsd_toolkit.errors import (
    DependentVectors,
    NotHermitian,
    NotPSD,
    NotSymmetric,
    SingularCoefficients,
)
from lsd_toolkit import matcore
from lsd_toolkit.matcore import (
    dual_basis,
    herm_eig,
    psd_sqrt,
    restricted_inverse,
    takagi,
)


def random_hermitian(rng, n=4):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def random_symmetric(rng, n=4):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.T) / 2.0


class TestHermEig:
    def test_known_2x2(self):
        w, v = herm_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(w, [3.0, 1.0], atol=1e-14)

    def test_known_complex(self):
        # eigenvalues of [[1, i], [-i, 1]] are 2 and 0
        h = np.array([[1.0, 1j], [-1j, 1.0]])
        w, v = herm_eig(h)
        assert np.allclose(w, [2.0, 0.0], atol=1e-14)
        assert np.max(np.abs(h @ v - v * w)) < 1e-13

    def test_diagonal_keeps_order_in_cluster(self):
        w, v = herm_eig(np.diag([0.5, 0.5, 0.2, 0.1]).astype(complex))
        assert np.allclose(w, [0.5, 0.5, 0.2, 0.1], atol=1e-14)
        assert np.max(np.abs(v - np.eye(4))) < 1e-12

    def test_random_reconstruction(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            h = random_hermitian(rng)
            w, v = herm_eig(h)
            scale = max(1.0, float(np.max(np.abs(h))))
            assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) < 1e-12 * scale
            assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-12
            assert np.all(np.diff(w) <= 1e-12)

    def test_degenerate_spectrum(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        h = q @ np.diag([1.0, 1.0, 1.0, -2.0]) @ q.conj().T
        h = (h + h.conj().T) / 2.0
        w, v = herm_eig(h)
        assert np.allclose(w, [1.0, 1.0, 1.0, -2.0], atol=1e-12)
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) < 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-12

    def test_determinism(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng)
        w1, v1 = herm_eig(h)
        w2, v2 = herm_eig(h.copy())
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)

    def test_real_input_stays_real(self):
        h = random_hermitian(np.random.default_rng(4)).real
        w, v = herm_eig(h)
        assert v.dtype == np.float64
        assert np.max(np.abs(h @ v - v * w)) < 1e-13
        assert np.all(np.diff(w) <= 0.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            herm_eig(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        # a diagonal inf*1j gives max|h - h^dag| = scale = inf, which the
        # relative hermiticity test alone lets through
        for bad in (np.nan, np.inf, np.inf * 1j):
            h = np.eye(2, dtype=complex)
            h[0, 0] = bad
            with pytest.raises(NotHermitian):
                herm_eig(h)
        with pytest.raises(NotHermitian):
            psd_sqrt(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(NotHermitian):
            takagi(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestPsdSqrt:
    def test_identity(self):
        s = psd_sqrt(np.eye(4))
        assert np.max(np.abs(s - np.eye(4))) < 1e-14

    def test_random_square(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            p = g @ g.conj().T
            s = psd_sqrt(p)
            assert np.max(np.abs(s - s.conj().T)) < 1e-11
            assert np.max(np.abs(s @ s - p)) < 1e-11 * max(1.0, np.max(np.abs(p)))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -0.5]))


class TestTakagi:
    def test_positive_diagonal_gives_identity(self):
        tau = np.diag([0.5, 0.3, 0.15, 0.05]).astype(complex)
        fac = takagi(tau)
        assert np.allclose(fac.lambdas, [0.5, 0.3, 0.15, 0.05], atol=1e-14)
        assert np.max(np.abs(fac.u - np.eye(4))) < 1e-12

    def test_phased_diagonal(self):
        # entries -0.5, 0.5i, 0.25, 0.1 need quarter and eighth phase turns
        tau = np.diag([-0.5, 0.5j, 0.25, 0.1])
        fac = takagi(tau)
        assert np.allclose(fac.lambdas, [0.5, 0.5, 0.25, 0.1], atol=1e-13)
        d = fac.u @ tau @ fac.u.T
        assert np.max(np.abs(d - np.diag(fac.lambdas))) < 1e-13
        # the unitary stays diagonal, only phases move
        assert np.max(np.abs(fac.u - np.diag(np.diag(fac.u)))) < 1e-12

    def test_random_symmetric(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            tau = random_symmetric(rng)
            fac = takagi(tau)
            scale = max(1.0, float(np.max(np.abs(tau))))
            d = fac.u @ tau @ fac.u.T
            assert np.max(np.abs(d - np.diag(fac.lambdas))) < 1e-10 * scale
            assert np.max(np.abs(fac.u @ fac.u.conj().T - np.eye(4))) < 1e-11
            assert np.all(fac.lambdas >= 0.0)
            assert np.all(np.diff(fac.lambdas) <= 1e-12)

    def test_degenerate_singular_values(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        tau = q @ np.diag([0.5, 0.5, 0.2, 0.1]) @ q.T
        tau = (tau + tau.T) / 2.0
        fac = takagi(tau)
        assert np.allclose(fac.lambdas, [0.5, 0.5, 0.2, 0.1], atol=1e-11)
        d = fac.u @ tau @ fac.u.T
        assert np.max(np.abs(d - np.diag(fac.lambdas))) < 1e-11

    def test_exact_zero_rows_stay_zero(self):
        tau = np.zeros((4, 4), dtype=complex)
        tau[:2, :2] = np.array([[0.3, 0.1j], [0.1j, -0.2]])
        fac = takagi(tau)
        assert fac.lambdas[2] == 0.0
        assert fac.lambdas[3] == 0.0
        d = fac.u @ tau @ fac.u.T
        assert np.max(np.abs(d - np.diag(fac.lambdas))) < 1e-13

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            takagi(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_resolves_a_gap_of_1e_9(self):
        target = np.array([0.5, 0.5 - 1e-9, 0.2, 0.1])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            tau = q @ np.diag(target) @ q.T
            tau = (tau + tau.T) / 2.0
            fac = takagi(tau)
            assert np.max(np.abs(fac.lambdas - target)) < 1e-14
            d = fac.u @ tau @ fac.u.T
            assert np.max(np.abs(d - np.diag(fac.lambdas))) < 1e-14

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_random_low_rank(self, rank):
        for seed in range(50):
            rng = np.random.default_rng([rank, seed])
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            s = np.sort(rng.uniform(0.1, 1.0, rank))[::-1]
            tau = q[:, :rank] @ np.diag(s) @ q[:, :rank].T
            fac = takagi((tau + tau.T) / 2.0)
            assert np.all(fac.lambdas[rank:] == 0.0)
            assert np.max(np.abs(fac.lambdas[:rank] - s)) < 1e-14
            assert np.max(np.abs(fac.u @ fac.u.conj().T - np.eye(4))) < 1e-13
            d = fac.u @ tau @ fac.u.T
            assert np.max(np.abs(d - np.diag(fac.lambdas))) < 1e-14

    def test_ill_conditioned(self):
        # condition 1e11: a route through tau @ conj(tau) squares it past
        # 1/eps and loses the smallest value entirely
        for seed in range(20):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            target = np.array([1.0, 1e-3, 1e-7, 1e-11])
            tau = q @ np.diag(target) @ q.T
            tau = (tau + tau.T) / 2.0
            fac = takagi(tau)
            d = fac.u @ tau @ fac.u.T
            resid = np.linalg.norm(d - np.diag(fac.lambdas), 2)
            assert resid <= 1e-13 * np.linalg.norm(tau, 2)
            assert np.max(np.abs(fac.lambdas - target)) < 1e-14

    def test_one_herm_eig_call(self, monkeypatch):
        calls = []
        real = matcore.herm_eig

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(matcore, "herm_eig", counted)
        for tau in (
            random_symmetric(np.random.default_rng(2)),
            np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex),
        ):
            calls.clear()
            takagi(tau)
            assert len(calls) == 1


class TestDualBasis:
    def test_two_vector_example(self):
        db = dual_basis([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        assert np.allclose(db.dual[0], [1.0, -1.0], atol=1e-13)
        assert np.allclose(db.dual[1], [0.0, 1.0], atol=1e-13)

    def test_biorthogonality(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            k = 1 + seed % 4
            vecs = [
                rng.standard_normal(4) + 1j * rng.standard_normal(4)
                for _ in range(k)
            ]
            db = dual_basis(vecs)
            phi = np.column_stack(db.primal)
            phihat = np.column_stack(db.dual)
            assert np.max(np.abs(phihat.conj().T @ phi - np.eye(k))) < 1e-10

    def test_rejects_dependent(self):
        v = np.array([1.0, 2.0, 0.0, 0.0])
        with pytest.raises(DependentVectors):
            dual_basis([v, 2.0 * v])

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_biorthogonality_at_singular_value_ratio_1e_5(self, k):
        # the Gram matrix of these families has condition 1e10, just inside
        # the 1e-12 limit, so duals computed from it lose about ten digits
        for seed in range(50):
            rng = np.random.default_rng([k, seed])
            q1, _ = np.linalg.qr(rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k)))
            q2, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
            phi = q1 @ np.diag(np.logspace(0.0, -5.0, k)) @ q2.conj().T
            db = dual_basis(list(phi.T))
            phihat = np.column_stack(db.dual)
            assert np.max(np.abs(phihat.conj().T @ phi - np.eye(k))) < 1e-9


class TestRestrictedInverse:
    def test_diagonal_coefficients(self):
        # single-direction weight plus an anchor, coefficients diag(0.3, 0.4)
        z = np.array([1.0, 1j, 0.0, 0.0]) / np.sqrt(2.0)
        x = np.array([0.5, 0.0, 0.5, 0.0])
        db = dual_basis([z, x])
        a = np.diag([0.3, 0.4]).astype(complex)
        r = restricted_inverse(a, db)
        phi = np.column_stack([z, x])
        e = phi.conj().T @ r @ phi
        assert np.max(np.abs(e - np.linalg.inv(a))) < 1e-12

    def test_inverse_on_span(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            k = 2 + seed % 3
            vecs = [
                rng.standard_normal(4) + 1j * rng.standard_normal(4)
                for _ in range(k)
            ]
            db = dual_basis(vecs)
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            a = g @ g.conj().T + 0.1 * np.eye(k)
            phi = np.column_stack(vecs)
            m = phi @ a @ phi.conj().T
            r = restricted_inverse(a, db)
            # M r acts as the identity on the span of the basis
            assert np.max(np.abs(m @ r @ phi - phi)) < 1e-8

    def test_rejects_singular_coefficients(self):
        db = dual_basis([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        with pytest.raises(SingularCoefficients):
            restricted_inverse(np.zeros((2, 2)), db)

    def test_rejects_shape_mismatch(self):
        db = dual_basis([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        with pytest.raises(ValueError):
            restricted_inverse(np.eye(3), db)


def random_families(seed, k, n_fam=5):
    rng = np.random.default_rng([k, seed])
    return rng.standard_normal((n_fam, 4, k)) + 1j * rng.standard_normal((n_fam, 4, k))


def random_coefficients(seed, k, n_fam=5):
    rng = np.random.default_rng([k, seed, 1])
    g = rng.standard_normal((n_fam, k, k)) + 1j * rng.standard_normal((n_fam, k, k))
    return g @ g.conj().swapaxes(1, 2) + 0.1 * np.eye(k)


class TestStackedKernels:
    """Stacks of families (K, n, k) and coefficient blocks (K, k, k)."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_each_slice_equals_the_scalar_call(self, k):
        phi = random_families(0, k)
        coeffs = random_coefficients(0, k)
        db = dual_basis(phi)
        r = restricted_inverse(coeffs, db)
        assert db.primal.shape == db.dual.shape == (5, 4, k)
        assert r.shape == (5, 4, 4)
        for i in range(5):
            one = dual_basis([phi[i, :, j] for j in range(k)])
            assert np.array_equal(db.primal[i], np.column_stack(one.primal))
            assert np.array_equal(db.dual[i], np.column_stack(one.dual))
            assert np.array_equal(r[i], restricted_inverse(coeffs[i], one))

    def test_dependent_family_raises(self):
        phi = random_families(1, 2)
        phi[1, :, 1] = 2.0j * phi[1, :, 0]
        with pytest.raises(DependentVectors):
            dual_basis(phi)
        dual_basis(np.delete(phi, 1, axis=0))

    def test_singular_block_raises(self):
        db = dual_basis(random_families(2, 3))
        coeffs = random_coefficients(2, 3)
        coeffs[3] = np.outer([1.0, 2.0, 0.5], [1.0, 2.0, 0.5])
        with pytest.raises(SingularCoefficients):
            restricted_inverse(coeffs, db)
        with pytest.raises(ValueError):
            restricted_inverse(coeffs[:4], db)

    def test_non_finite_slice_raises(self):
        phi = random_families(3, 2)
        phi[2, 0, 1] = np.nan
        with pytest.raises(NotHermitian):
            dual_basis(phi)
        db = dual_basis(random_families(3, 2))
        coeffs = random_coefficients(3, 2)
        coeffs[4, 1, 1] = np.inf
        with pytest.raises(NotHermitian):
            restricted_inverse(coeffs, db)
