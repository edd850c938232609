import warnings

import numpy as np
import pytest

from lsd_toolkit.errors import (
    DependentVectors,
    NotHermitian,
    NotSymmetric,
    SingularCoefficients,
)
from lsd_toolkit import matcore
from lsd_toolkit.lsd import _block_inverses
from lsd_toolkit.matcore import (
    MAX_ENTRY,
    _dual_basis,
    _real_embedding,
    herm_eig,
    takagi,
)
from lsd_toolkit.qstate import DensityMatrix, _flip_form, eigen_ensemble, sample_random
from test_lsd import _counted


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

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_null_rows_of_an_ensemble_tau_are_unit_vectors(self, rank):
        # a rank-r state's eigen-ensemble has 4 - r zero rows, and so has its tau
        for seed in range(50):
            tau = _flip_form(eigen_ensemble(sample_random(seed, rank=rank)))
            null = ~tau.any(axis=1)
            assert np.count_nonzero(null) == 4 - rank
            u, lam = takagi(tau)
            assert np.count_nonzero(lam) == rank
            assert np.array_equal(u[rank:], np.eye(4)[null])
            assert not u[:rank, null].any()
            # the kept rows are eigh's, orthonormal to about 2.2e-15
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-14
            assert np.max(np.abs(u @ tau @ u.T - np.diag(lam))) < 1e-14

    def test_singular_live_block_takes_the_qr_completion(self, monkeypatch):
        # rank 1, but only two zero rows: the null rows cannot all be unit vectors
        tau = np.zeros((4, 4), dtype=complex)
        tau[:2, :2] = [[1.0, 2j], [2j, -4.0]]
        calls = _counted(monkeypatch, np.linalg, "qr")
        u, lam = takagi(tau)
        assert len(calls) == 1
        assert lam[0] == pytest.approx(5.0, rel=1e-15)
        assert lam[1:].tolist() == [0.0, 0.0, 0.0]
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-15
        assert np.max(np.abs(u @ tau @ u.T - np.diag(lam))) < 1e-14

    def test_zero_row_between_live_rows(self):
        # a zero row of tau that is not trailing; whichever way its null row
        # is made, u is unitary and factorizes tau
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            tau = np.zeros((4, 4), dtype=complex)
            tau[np.ix_([0, 2, 3], [0, 2, 3])] = g @ g.T
            u, lam = takagi(tau)
            assert lam[3] == 0.0
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-14
            assert np.max(np.abs(u @ tau @ u.T - np.diag(lam))) < 1e-13

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            takagi(np.array([[0.0, 1.0], [0.0, 0.0]]))

    # raised before the symmetry test, whose t - t.T would warn on inf - inf;
    # pytest turns any RuntimeWarning into an error
    @pytest.mark.parametrize(
        "bad",
        [complex(x, 0.0) for x in (np.nan, np.inf, -np.inf)]
        + [complex(0.0, x) for x in (np.nan, np.inf, -np.inf)],
    )
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_rejects_non_finite_without_a_warning(self, bad, where):
        tau = random_symmetric(np.random.default_rng(1))
        tau[where] = bad
        with pytest.raises(NotHermitian, match="non-finite"):
            takagi(tau)

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

    def test_one_eigh_call(self, monkeypatch):
        # one LAPACK eigensolve, of minus the real embedding of the
        # symmetrized tau, handed on without a second check
        calls = _eigh_inputs(monkeypatch)
        for tau in (
            random_symmetric(np.random.default_rng(2)),
            np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex),
        ):
            calls.clear()
            takagi(tau)
            assert len(calls) == 1
            expected = -_real_embedding((tau + tau.T) / 2.0)
            assert calls[0].dtype == np.float64
            assert calls[0].tobytes() == expected.tobytes()


def _eigh_inputs(monkeypatch):
    """Copies of the matrices np.linalg.eigh is called on from now on."""
    calls = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestEigenSolverInput:
    """herm_eig hands LAPACK -((a + a^dag) / 2.0), signed zeros included."""

    # (a + ah) * -0.5 has the same values but flips the sign of the zero
    # imaginary parts, which moves the eigenvectors inside the white
    # mix's 2.5e-7 cluster and the lambdas with them
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_bytes_of_the_negated_symmetrized_input(self, kind, monkeypatch):
        if kind == "real":
            a = random_hermitian(np.random.default_rng(5)).real
        else:
            phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
            eps = 1e-6
            a = (1.0 - eps) * np.outer(phi, phi) + eps * np.eye(4) / 4.0
            a = a.astype(complex)
        calls = _eigh_inputs(monkeypatch)
        herm_eig(a)
        ah = a.conj().T
        assert len(calls) == 1
        assert calls[0].dtype == a.dtype
        assert calls[0].tobytes() == (-((a + ah) / 2.0)).tobytes()
        if kind == "complex":
            # the canary has teeth: the other form differs in its zeros only
            other = (a + ah) * -0.5
            assert np.array_equal(calls[0], other)
            assert calls[0].tobytes() != other.tobytes()


class TestEntryBound:
    """Entries past MAX_ENTRY raise before any sum of them can overflow."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DensityMatrix(np.diag([1e308, -1e308, 0.0, 1.0])),
            lambda: DensityMatrix(np.full((4, 4), 1e308)),
            lambda: takagi(np.diag([1e308, 1e308, 0.0, 0.0])),
            lambda: herm_eig(np.diag([2.0**1001, 0.0])),
            lambda: takagi(np.full((2, 2), 1.5e308 + 1.5e308j)),
        ],
        ids=["diag-pm-1e308", "all-1e308", "takagi-1e308", "2**1001", "abs-inf"],
    )
    def test_raises_a_typed_error_without_a_warning(self, make):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitian, match="exceeds 2\\*\\*1000"):
                make()

    def test_entries_at_the_bound_are_solved(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, _ = herm_eig(np.diag([MAX_ENTRY, -MAX_ENTRY]))
            _, lam = takagi(np.full((4, 4), MAX_ENTRY))
        assert w.tolist() == [MAX_ENTRY, -MAX_ENTRY]
        assert np.isfinite(lam).all()
        assert lam[0] == pytest.approx(4.0 * MAX_ENTRY, rel=1e-14)


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
        dual = _dual_basis(phi)
        assert dual.shape == (5, 4, k)
        for i in range(5):
            assert np.array_equal(dual[i], _dual_basis(phi[i][None])[0])

    def test_dependent_family_raises(self):
        phi = random_families(1, 2)
        phi[1, :, 1] = 2.0j * phi[1, :, 0]
        with pytest.raises(DependentVectors):
            _dual_basis(phi)
        _dual_basis(np.delete(phi, 1, axis=0))

    def test_singular_block_raises(self):
        coeffs = random_coefficients(2, 2)
        _block_inverses(blocks_of(coeffs))
        coeffs[3] = np.outer([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(SingularCoefficients):
            _block_inverses(blocks_of(coeffs))

    def test_non_finite_slice_raises(self):
        phi = random_families(3, 2)
        phi[2, 0, 1] = np.nan
        with pytest.raises(NotHermitian):
            _dual_basis(phi)
        coeffs = random_coefficients(3, 2)
        coeffs[4, 1, 1] = np.inf
        with pytest.raises(NotHermitian):
            _block_inverses(blocks_of(coeffs))


def blocks_of(stack):
    """The (p, q, o) of each Hermitian 2x2 slice of a stack, as Python numbers."""
    return [(float(a[0, 0].real), float(a[1, 1].real), complex(a[0, 1])) for a in stack]


def diagonal_slices(rows):
    """A (K, 2, 2) stack whose slice i is diag(rows[i]): its singular values
    are the magnitudes of the row."""
    return np.stack([np.diag(np.array(row, dtype=complex)) for row in rows])


class TestConditionTest:
    """The certificate's two condition tests, each on finite input, then
    finite singular values, then the first failing slice: _dual_basis on
    families and _block_inverses on the 2x2 coefficient blocks."""

    def test_row_with_max_zero_has_ratio_zero(self):
        with pytest.raises(SingularCoefficients, match="condition 0.000e"):
            _block_inverses(blocks_of(diagonal_slices([[1.0, 0.5], [0.0, 0.0]])))
        _block_inverses(blocks_of(diagonal_slices([[1.0, 0.5], [2.0, 1.0]])))

    def test_reports_the_first_failing_row(self):
        stack = diagonal_slices([[1.0, 0.1], [1.0, 1e-7], [1.0, 0.0]])
        with pytest.raises(DependentVectors, match="condition 1.000e-14 below 1e-12"):
            _dual_basis(stack)
        stack = diagonal_slices([[1.0, 0.1], [1.0, 1e-13], [1.0, 0.0]])
        with pytest.raises(SingularCoefficients, match="condition 1.000e-13 below 1e-12"):
            _block_inverses(blocks_of(stack))

    def test_more_columns_than_rows_has_ratio_zero(self):
        # three vectors in C^2 are dependent whatever their singular values
        fam = random_families(4, 3)[:, :2, :]
        with pytest.raises(DependentVectors, match="condition 0.000e"):
            _dual_basis(fam)

    @pytest.mark.parametrize(
        "rows", [[[1.0, 0.0], [np.nan, 1.0]], [[np.nan, 1.0], [1.0, 0.0]]]
    )
    def test_non_finite_entry_raises_before_a_singular_row(self, rows):
        with pytest.raises(NotHermitian, match="non-finite"):
            _block_inverses(blocks_of(diagonal_slices(rows)))

    @pytest.mark.parametrize("first", [False, True], ids=["after", "before"])
    def test_overflowing_slice_raises_before_a_singular_row(self, first):
        # finite entries whose largest singular value overflows to inf
        big = np.full((2, 2), 1.5e308, dtype=complex)
        assert not np.isfinite(np.linalg.svd(big, compute_uv=False)).all()
        singular = np.diag([1.0, 0.0]).astype(complex)
        stack = np.stack([big, singular] if first else [singular, big])
        with pytest.raises(NotHermitian, match="non-finite"):
            _block_inverses(blocks_of(stack))

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1.0, 1e160, 1e300])
    def test_block_condition_does_not_depend_on_the_scale(self, scale):
        # det = pq - |o|^2 of the unscaled block would underflow or overflow
        # at most of these scales; s_min / s_max is 1e-3 and 1e-14 at each
        good = np.array([[1.0, 0.0], [0.0, 1e-3]]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ((e00, e01, e11),) = _block_inverses(blocks_of([good]))
            with pytest.raises(SingularCoefficients, match="condition 1.000e-14"):
                _block_inverses(blocks_of([np.diag([1.0, 1e-14]) * scale]))
        assert e00 == pytest.approx(1.0 / scale, rel=1e-15)
        assert e11 == pytest.approx(1e3 / scale, rel=1e-15)
        assert e01 == 0.0

    def test_block_decision_matches_the_svd(self):
        # PSD blocks with condition 1 to 1e16: the closed-form s_min / s_max
        # decides as the SVD's does, the blocks near 1e-12 included
        rng = np.random.default_rng(17)
        cond = 10.0 ** rng.uniform(0.0, 16.0, 4000)
        near = 0
        for k in cond.tolist():
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, _ = np.linalg.qr(g)
            a = q @ np.diag([1.0, 1.0 / k]) @ q.conj().T
            a = (a + a.conj().T) / 2.0
            s = np.linalg.svd(a, compute_uv=False)
            near += 1e-13 < s[1] / s[0] < 1e-11
            try:
                ((e00, e01, e11),) = _block_inverses(blocks_of([a]))
            except SingularCoefficients:
                assert s[1] / s[0] < 1e-12
                continue
            assert s[1] / s[0] >= 1e-12
            e = np.array([[e00, e01], [np.conj(e01), e11]])
            assert np.max(np.abs(a @ e - np.eye(2))) < 1e-14 * k
        assert near > 100
