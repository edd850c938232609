import numpy as np
import pytest

from lsd_toolkit.errors import (
    DependentVectors,
    NotHermitian,
    NotPSD,
    NotSymmetric,
    SingularCoefficients,
)
from lsd_toolkit.matcore import (
    dual_basis,
    herm_eig,
    psd_sqrt,
    restricted_inverse,
    svd2_real,
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


class TestSvd2Real:
    def test_diagonal(self):
        o1, d, o2 = svd2_real(np.diag([3.0, 2.0]))
        assert np.allclose(o1 @ np.diag(d) @ o2.T, np.diag([3.0, 2.0]), atol=1e-14)
        assert np.allclose(d, [3.0, 2.0])

    def test_reflection_gets_negative_d1(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        o1, d, o2 = svd2_real(m)
        assert d[0] >= abs(d[1])
        assert d[1] < 0.0
        assert np.allclose(o1 @ np.diag(d) @ o2.T, m, atol=1e-14)

    def test_zero_matrix(self):
        o1, d, o2 = svd2_real(np.zeros((2, 2)))
        assert np.allclose(d, [0.0, 0.0])
        assert np.allclose(o1 @ np.diag(d) @ o2.T, np.zeros((2, 2)))

    def test_rank_one(self):
        m = np.outer([1.0, 2.0], [3.0, -1.0])
        o1, d, o2 = svd2_real(m)
        assert np.allclose(o1 @ np.diag(d) @ o2.T, m, atol=1e-13)
        assert abs(d[1]) < 1e-13

    def test_random(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            m = rng.standard_normal((2, 2))
            o1, d, o2 = svd2_real(m)
            assert np.max(np.abs(o1 @ np.diag(d) @ o2.T - m)) < 1e-13
            assert abs(np.linalg.det(o1) - 1.0) < 1e-12
            assert abs(np.linalg.det(o2) - 1.0) < 1e-12
            assert d[0] >= abs(d[1]) - 1e-15
            det = np.linalg.det(m)
            if abs(det) > 1e-12:
                assert np.sign(d[1]) == np.sign(det)


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
