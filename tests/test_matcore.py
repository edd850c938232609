import numpy as np
import pytest

from lsd_toolkit.errors import (
    DependentVectors,
    NotHermitian,
    NotSymmetric,
    SingularCoefficients,
)
from lsd_toolkit import matcore
from lsd_toolkit.matcore import _dual_basis, _restricted_inverse, herm_eig, takagi


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
            takagi(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestTakagi:
    def test_positive_diagonal_gives_identity(self):
        tau = np.diag([0.5, 0.3, 0.15, 0.05]).astype(complex)
        u, lam = takagi(tau)
        assert np.allclose(lam, [0.5, 0.3, 0.15, 0.05], atol=1e-14)
        assert np.max(np.abs(u - np.eye(4))) < 1e-12

    def test_phased_diagonal(self):
        # entries -0.5, 0.5i, 0.25, 0.1 need quarter and eighth phase turns
        tau = np.diag([-0.5, 0.5j, 0.25, 0.1])
        u, lam = takagi(tau)
        assert np.allclose(lam, [0.5, 0.5, 0.25, 0.1], atol=1e-13)
        d = u @ tau @ u.T
        assert np.max(np.abs(d - np.diag(lam))) < 1e-13
        # the unitary stays diagonal, only phases move
        assert np.max(np.abs(u - np.diag(np.diag(u)))) < 1e-12

    def test_random_symmetric(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            tau = random_symmetric(rng)
            u, lam = takagi(tau)
            scale = max(1.0, float(np.max(np.abs(tau))))
            d = u @ tau @ u.T
            assert np.max(np.abs(d - np.diag(lam))) < 1e-10 * scale
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-11
            assert np.all(lam >= 0.0)
            assert np.all(np.diff(lam) <= 1e-12)

    def test_degenerate_singular_values(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        tau = q @ np.diag([0.5, 0.5, 0.2, 0.1]) @ q.T
        tau = (tau + tau.T) / 2.0
        u, lam = takagi(tau)
        assert np.allclose(lam, [0.5, 0.5, 0.2, 0.1], atol=1e-11)
        d = u @ tau @ u.T
        assert np.max(np.abs(d - np.diag(lam))) < 1e-11

    def test_exact_zero_rows_stay_zero(self):
        tau = np.zeros((4, 4), dtype=complex)
        tau[:2, :2] = np.array([[0.3, 0.1j], [0.1j, -0.2]])
        u, lam = takagi(tau)
        assert lam[2] == 0.0
        assert lam[3] == 0.0
        d = u @ tau @ u.T
        assert np.max(np.abs(d - np.diag(lam))) < 1e-13

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
            u, lam = takagi(tau)
            assert np.max(np.abs(lam - target)) < 1e-14
            d = u @ tau @ u.T
            assert np.max(np.abs(d - np.diag(lam))) < 1e-14

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_random_low_rank(self, rank):
        for seed in range(50):
            rng = np.random.default_rng([rank, seed])
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            s = np.sort(rng.uniform(0.1, 1.0, rank))[::-1]
            tau = q[:, :rank] @ np.diag(s) @ q[:, :rank].T
            u, lam = takagi((tau + tau.T) / 2.0)
            assert np.all(lam[rank:] == 0.0)
            assert np.max(np.abs(lam[:rank] - s)) < 1e-14
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-13
            d = u @ tau @ u.T
            assert np.max(np.abs(d - np.diag(lam))) < 1e-14

    def test_ill_conditioned(self):
        # condition 1e11: a route through tau @ conj(tau) squares it past
        # 1/eps and loses the smallest value entirely
        for seed in range(20):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            target = np.array([1.0, 1e-3, 1e-7, 1e-11])
            tau = q @ np.diag(target) @ q.T
            tau = (tau + tau.T) / 2.0
            u, lam = takagi(tau)
            d = u @ tau @ u.T
            resid = np.linalg.norm(d - np.diag(lam), 2)
            assert resid <= 1e-13 * np.linalg.norm(tau, 2)
            assert np.max(np.abs(lam - target)) < 1e-14

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


class TestRealEmbedding:
    """takagi's real embedding, pinned to the kron sum it replaced."""

    def test_matches_the_kron_sum(self):
        # only multiplies by 0 and +-1, so the entries agree bit for bit,
        # and so do the signs of their zeros, which LAPACK's reflectors read
        sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]])
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        rng = np.random.default_rng(8)
        zeros = []
        for n in (1, 2, 3, 4):
            parts = rng.standard_normal((2, n, n))
            pick = rng.random((2, n, n))
            parts[pick < 0.4] = 0.0
            parts[pick < 0.2] = -0.0
            t = np.empty((n, n), dtype=complex)
            t.real, t.imag = parts
            e = matcore._real_embedding(t)
            expect = np.kron(t.real, sigma_z) + np.kron(t.imag, sigma_x)
            assert np.array_equal(e, expect)
            assert np.array_equal(np.signbit(e), np.signbit(expect))
            zeros.extend(np.signbit(expect[expect == 0.0]))
        assert any(zeros) and not all(zeros)


def dual_of(vecs):
    """Duals of one family, as columns: the stacked kernel on a stack of one."""
    return _dual_basis(np.column_stack(vecs)[None])[0]


def inverse_of(coeffs, dual):
    """Restricted inverse of one coefficient block on a stack of one."""
    return _restricted_inverse(np.asarray(coeffs)[None], dual[None])[0]


class TestDualBasis:
    def test_two_vector_example(self):
        phihat = dual_of([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        assert np.allclose(phihat[:, 0], [1.0, -1.0], atol=1e-13)
        assert np.allclose(phihat[:, 1], [0.0, 1.0], atol=1e-13)

    def test_biorthogonality(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            k = 1 + seed % 4
            vecs = [
                rng.standard_normal(4) + 1j * rng.standard_normal(4)
                for _ in range(k)
            ]
            phi = np.column_stack(vecs)
            phihat = dual_of(vecs)
            assert np.max(np.abs(phihat.conj().T @ phi - np.eye(k))) < 1e-10

    def test_rejects_dependent(self):
        v = np.array([1.0, 2.0, 0.0, 0.0])
        with pytest.raises(DependentVectors):
            dual_of([v, 2.0 * v])

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_biorthogonality_at_singular_value_ratio_1e_5(self, k):
        # the Gram matrix of these families has condition 1e10, just inside
        # the 1e-12 limit, so duals computed from it lose about ten digits
        for seed in range(50):
            rng = np.random.default_rng([k, seed])
            q1, _ = np.linalg.qr(rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k)))
            q2, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
            phi = q1 @ np.diag(np.logspace(0.0, -5.0, k)) @ q2.conj().T
            phihat = _dual_basis(phi[None])[0]
            assert np.max(np.abs(phihat.conj().T @ phi - np.eye(k))) < 1e-9


class TestRestrictedInverse:
    def test_diagonal_coefficients(self):
        # single-direction weight plus an anchor, coefficients diag(0.3, 0.4)
        z = np.array([1.0, 1j, 0.0, 0.0]) / np.sqrt(2.0)
        x = np.array([0.5, 0.0, 0.5, 0.0])
        a = np.diag([0.3, 0.4]).astype(complex)
        r = inverse_of(a, dual_of([z, x]))
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
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            a = g @ g.conj().T + 0.1 * np.eye(k)
            phi = np.column_stack(vecs)
            m = phi @ a @ phi.conj().T
            r = inverse_of(a, dual_of(vecs))
            # M r acts as the identity on the span of the basis
            assert np.max(np.abs(m @ r @ phi - phi)) < 1e-8

    def test_rejects_singular_coefficients(self):
        phihat = dual_of([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        with pytest.raises(SingularCoefficients):
            inverse_of(np.zeros((2, 2)), phihat)

    def test_rejects_shape_mismatch(self):
        phihat = dual_of([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        with pytest.raises(ValueError):
            inverse_of(np.eye(3), phihat)


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
        dual = _dual_basis(phi)
        r = _restricted_inverse(coeffs, dual)
        assert dual.shape == (5, 4, k)
        assert r.shape == (5, 4, 4)
        for i in range(5):
            one = _dual_basis(phi[i][None])
            assert np.array_equal(dual[i], one[0])
            assert np.array_equal(r[i], _restricted_inverse(coeffs[i][None], one)[0])

    def test_dependent_family_raises(self):
        phi = random_families(1, 2)
        phi[1, :, 1] = 2.0j * phi[1, :, 0]
        with pytest.raises(DependentVectors):
            _dual_basis(phi)
        _dual_basis(np.delete(phi, 1, axis=0))

    def test_singular_block_raises(self):
        dual = _dual_basis(random_families(2, 3))
        coeffs = random_coefficients(2, 3)
        coeffs[3] = np.outer([1.0, 2.0, 0.5], [1.0, 2.0, 0.5])
        with pytest.raises(SingularCoefficients):
            _restricted_inverse(coeffs, dual)
        with pytest.raises(ValueError):
            _restricted_inverse(coeffs[:4], dual)

    def test_non_finite_slice_raises(self):
        phi = random_families(3, 2)
        phi[2, 0, 1] = np.nan
        with pytest.raises(NotHermitian):
            _dual_basis(phi)
        dual = _dual_basis(random_families(3, 2))
        coeffs = random_coefficients(3, 2)
        coeffs[4, 1, 1] = np.inf
        with pytest.raises(NotHermitian):
            _restricted_inverse(coeffs, dual)
