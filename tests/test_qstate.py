import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from lsd_toolkit.coset import CosetParams, build_x, coset_generate, y_from_x
from lsd_toolkit.errors import NotHermitian, NotPSD, NotUnitTrace, ResidualCheckFailed
from lsd_toolkit.lsd import (
    H4,
    OptimalityReport,
    ls_decompose,
    lsd_from_json,
    lsd_to_json,
    verify_optimality,
)
from lsd_toolkit.qstate import (
    SIGMA_YY,
    DensityMatrix,
    density_from_json,
    density_to_json,
    eigen_ensemble,
    from_json,
    lambda_spectrum,
    lambda_spectrum_raw,
    sample_random,
    _outer_sum,
    spin_flip_vec,
    to_json,
)
from lsd_toolkit.matcore import SUPPORT_EPS
from lsd_toolkit.suites import _random_params, run_lsd_suite, run_wootters_suite
from lsd_toolkit.wootters import WoottersDecomposition, tau_matrix, wootters_basis

E = np.eye(4)
PHI_P = (E[:, 0] + E[:, 3]) / np.sqrt(2.0)
PSI_P = (E[:, 1] + E[:, 2]) / np.sqrt(2.0)
PSI_M = (E[:, 1] - E[:, 2]) / np.sqrt(2.0)
PHI_M = (E[:, 0] - E[:, 3]) / np.sqrt(2.0)


def werner(p):
    return DensityMatrix(p * np.outer(PHI_P, PHI_P) + (1.0 - p) * np.eye(4) / 4.0)


def graded_factor(seed, rank):
    """Unit-trace 4 x rank factor g with column scales 10^-U(0, 3)."""
    rng = np.random.default_rng([rank, seed])
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    g = g * 10.0 ** -rng.uniform(0.0, 3.0, rank)
    return g / np.linalg.norm(g)


def squeezed_params(seed):
    """The suite's parameter draw with xi[0] in [4.5, 6] and xi[1] in [0, 6]."""
    p = _random_params(seed)
    return dataclasses.replace(p, xi=(4.5 + 0.75 * p.xi[0], 3.0 * p.xi[1]))


def mp_lambdas(m):
    """Lambdas of m at 50 digits, from the eigenvalues of m @ mtilde."""
    import mpmath

    with mpmath.workdps(50):
        a = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in m])
        s = mpmath.matrix(SIGMA_YY.tolist())
        ev = mpmath.eig(a * (s * a.apply(mpmath.conj) * s), left=False, right=False)
        lam = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in ev), reverse=True)
        return np.array([float(x) for x in lam])


def bell_diagonal(ps):
    m = sum(
        p * np.outer(b, b.conj())
        for p, b in zip(ps, [PHI_P, PSI_P, PSI_M, PHI_M])
    )
    return DensityMatrix(m)


class TestSigmaYY:
    def test_antidiagonal(self):
        expect = np.zeros((4, 4))
        expect[0, 3] = expect[3, 0] = -1.0
        expect[1, 2] = expect[2, 1] = 1.0
        assert np.array_equal(SIGMA_YY, expect)

    def test_basis_action(self):
        assert np.array_equal(SIGMA_YY @ E[:, 0], -E[:, 3])
        assert np.array_equal(SIGMA_YY @ E[:, 1], E[:, 2])
        assert np.array_equal(SIGMA_YY @ E[:, 2], E[:, 1])
        assert np.array_equal(SIGMA_YY @ E[:, 3], -E[:, 0])

    def test_involution(self):
        assert np.array_equal(SIGMA_YY @ SIGMA_YY, np.eye(4))


class TestDensityMatrix:
    def test_accepts_valid(self):
        rho = DensityMatrix(np.eye(4) / 4.0)
        assert rho.m.shape == (4, 4)

    def test_rejects_shape(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(3) / 3.0)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.3
        with pytest.raises(NotHermitian):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(NotUnitTrace):
            DensityMatrix(np.eye(4) / 2.0)

    def test_rejects_non_finite(self):
        nan = np.eye(4, dtype=complex) / 4.0
        nan[1, 2] = nan[2, 1] = np.nan
        inf = np.eye(4, dtype=complex) / 4.0
        inf[0, 1] = inf[1, 0] = np.inf
        diag = np.eye(4, dtype=complex) / 4.0
        diag[0, 0] = np.inf * 1j
        for m in (nan, inf, diag):
            with pytest.raises(NotHermitian):
                DensityMatrix(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSD):
            DensityMatrix(np.diag([0.7, 0.5, -0.1, -0.1]))

    def test_frozen(self):
        rho = DensityMatrix(np.eye(4) / 4.0)
        with pytest.raises(Exception):
            rho.m = np.zeros((4, 4))


class TestRecordEquality:
    """Records holding arrays compare and hash by identity."""

    @staticmethod
    def records(seed):
        rho = sample_random(seed, rank=4)
        w = wootters_basis(DensityMatrix(rho.m))
        return [
            rho,
            tau_matrix(eigen_ensemble(rho)),
            w,
            ls_decompose(rho),
        ]

    def test_equal_arrays_compare_without_raising(self):
        for a, b in zip(self.records(1), self.records(1)):
            assert type(a) is type(b)
            assert (a == b) is False
            assert (a != b) is True
            assert (a == a) is True
            assert hash(a) == hash(a)
        assert len(set(self.records(1))) == 4


def _nan_basis(lambdas=None):
    if lambdas is None:
        lambdas = wootters_basis(sample_random(2)).lambdas
    nan = np.full(4, np.nan)
    return WoottersDecomposition(xs=(nan,) * 4, lambdas=lambdas, u=np.full((4, 4), np.nan))


def _nan_split():
    obj = lsd_to_json(ls_decompose(sample_random(2)))
    obj["lambdas_pp"][0] = float("nan")
    return lsd_from_json(obj)


def _nan_frame_basis():
    """Stand-in basis with unit lambdas and NaN vectors: build_x reads only these."""
    return SimpleNamespace(xs=np.full((4, 4), np.nan), lambdas=np.ones(4))


class TestRecordsRejectNaN:
    """A NaN residual fails a record's check, and the frame checks of
    build_x (X) and y_from_x (Y), as a residual over tol does, and a
    spectrum or a split with a NaN entry is rejected before any check
    runs."""

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: _nan_basis(np.full(4, np.nan)), ValueError),
            (_nan_basis, ResidualCheckFailed),
            (lambda: build_x(_nan_frame_basis()), ResidualCheckFailed),
            (lambda: y_from_x(np.full((4, 4), np.nan)), ResidualCheckFailed),
            (_nan_split, ValueError),
        ],
        ids=[
            "SpectrumLambda", "WoottersDecomposition", "XMatrix", "YMatrix",
            "LSDecomposition",
        ],
    )
    def test_all_nan_input_raises(self, build, error):
        with pytest.raises(error):
            build()


def _tilde(x):
    """<x|xtilde>."""
    return np.vdot(x, spin_flip_vec(x))


class TestVectorFamilies:
    """A family of four vectors is a complex (4, 4) array, vector i in row i."""

    def test_rows_are_the_vectors(self):
        rho = sample_random(7, rank=4)
        mu, v = rho._eig
        w = wootters_basis(rho)
        d = ls_decompose(rho)
        gen = coset_generate(_random_params(7)).wootters
        ph = np.exp(1j * d.phases)
        families = [
            (eigen_ensemble(rho), lambda i, x: x - np.sqrt(mu[i]) * v[:, i]),
            (w.xs, lambda i, x: _tilde(x) - w.lambdas[i]),
            (d.xpp, lambda i, x: x @ SIGMA_YY @ x - d.lambdas_pp[i]),
            (d.zs, lambda i, x: x - 0.5 * (H4[i] * ph) @ d.xpp),
            (gen.xs, lambda i, x: _tilde(x) - gen.lambdas[i]),
        ]
        for xs, residual in families:
            assert isinstance(xs, np.ndarray)
            assert xs.dtype == complex and xs.shape == (4, 4)
            for i, x in enumerate(xs):
                assert np.max(np.abs(residual(i, x))) < 1e-12

    def test_outer_sum_matches_the_python_sum(self):
        # the Python sum _outer_sum replaced, kept as its reference; it adds
        # the same products in the same order, so a few ulp bound it on a
        # numpy build that rounds a complex product differently
        for seed in range(20):
            vs = eigen_ensemble(sample_random(seed, rank=1 + seed % 4))
            expect = sum(np.outer(v, np.conj(v)) for v in vs)
            bound = 8 * np.finfo(float).eps * np.abs(vs).max() ** 2
            assert np.abs(_outer_sum(vs) - expect).max() <= bound


class TestSpinFlip:
    def test_bell_overlap_signs(self):
        # <psi|psitilde> is -1, +1, -1, +1 on the four Bell vectors
        signs = [-1.0, 1.0, -1.0, 1.0]
        for b, sgn in zip([PHI_P, PSI_P, PSI_M, PHI_M], signs):
            assert abs(np.vdot(b, spin_flip_vec(b)) - sgn) < 1e-14

    def test_overlap_is_twice_the_determinant(self):
        # <psi|psitilde> = -2 conj(ad - bc) for psi = (a, b, c, d), whose
        # modulus is the concurrence 2|ad - bc|; complex entries make the
        # conjugate count, unlike the real Bell vectors
        rng = np.random.default_rng(7)
        for _ in range(20):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi = psi / np.linalg.norm(psi)
            a, b, c, d = psi
            ov = np.vdot(psi, spin_flip_vec(psi))
            assert abs(ov + 2.0 * np.conj(a * d - b * c)) < 1e-14
            assert abs(abs(ov) - 2.0 * abs(a * d - b * c)) < 1e-14


def _bases(lambdas):
    """WoottersDecompositions of a Bell-diagonal state with the given
    lambdas, one from the constructor and one from its JSON form."""
    w = wootters_basis(bell_diagonal([0.5, 0.3, 0.2, 0.0]))
    obj = to_json(w)
    obj["lambdas"] = list(lambdas)
    return [
        lambda: WoottersDecomposition(xs=w.xs, lambdas=np.array(lambdas), u=w.u),
        lambda: from_json(WoottersDecomposition, obj),
    ]


class TestSpectrumLambda:
    """The lambda spectrum a WoottersDecomposition holds: its constructor,
    and so from_json, checks it before the vectors."""

    def test_accepts_descending(self):
        for build in _bases([0.5, 0.3, 0.2, 0.0]):
            w = build()
            assert np.array_equal(w.lambdas, [0.5, 0.3, 0.2, 0.0])
            assert not w.lambdas.flags.writeable

    def test_clips_tiny_negative(self):
        for build in _bases([0.5, 0.3, 0.2, -1e-14]):
            assert build().lambdas[3] == 0.0

    def test_rejects_negative(self):
        for build in _bases([0.5, 0.3, 0.2, -1e-3]):
            with pytest.raises(ValueError, match="non-negative and descending"):
                build()

    def test_rejects_ascending(self):
        for build in _bases([0.1, 0.2, 0.3, 0.4]):
            with pytest.raises(ValueError, match="non-negative and descending"):
                build()

    def test_rejects_shape(self):
        for build in _bases([0.5, 0.3, 0.2]):
            with pytest.raises(ValueError, match="four entries"):
                build()

    def test_rejects_nan(self):
        for build in _bases([0.5, 0.3, float("nan"), 0.0]):
            with pytest.raises(ValueError, match="finite"):
                build()


class TestLambdaSpectrum:
    def test_werner_half(self):
        lam = lambda_spectrum(werner(0.5))
        assert np.max(np.abs(lam - [0.625, 0.125, 0.125, 0.125])) < 1e-12

    def test_bell_projector(self):
        lam = lambda_spectrum(DensityMatrix(np.outer(PHI_P, PHI_P)))
        assert np.max(np.abs(lam - [1.0, 0.0, 0.0, 0.0])) < 1e-12

    def test_maximally_mixed(self):
        lam = lambda_spectrum(DensityMatrix(np.eye(4) / 4.0))
        assert np.max(np.abs(lam - 0.25)) < 1e-13

    def test_bell_diagonal_spectrum_is_the_weights(self):
        lam = lambda_spectrum(bell_diagonal([0.7, 0.1, 0.1, 0.1]))
        assert np.max(np.abs(lam - [0.7, 0.1, 0.1, 0.1])) < 1e-12
        lam = lambda_spectrum(bell_diagonal([0.5, 0.2, 0.2, 0.1]))
        assert np.max(np.abs(lam - [0.5, 0.2, 0.2, 0.1])) < 1e-12

    def test_scaling_linearity(self):
        for seed in range(50):
            rho = sample_random(seed)
            lam = lambda_spectrum_raw(rho.m)
            assert np.max(np.abs(lambda_spectrum_raw(3.0 * rho.m) - 3.0 * lam)) < 1e-12

    def test_matches_singular_values_of_the_factor(self):
        # for rho = g g^dag the lambdas are the singular values of the
        # complex symmetric g^T SIGMA_YY g, zero-padded to four
        for rank in (1, 2, 3, 4):
            for seed in range(200):
                g = graded_factor(seed, rank)
                ref = np.zeros(4)
                ref[:rank] = np.linalg.svd(g.T @ SIGMA_YY @ g, compute_uv=False)
                lam = lambda_spectrum_raw(g @ g.conj().T)
                assert np.max(np.abs(lam - ref)) < 1e-12

    def test_low_rank_zeros_are_exact(self):
        for rank in (1, 2, 3):
            for seed in range(30):
                g = graded_factor(seed, rank)
                for m in (sample_random(seed, rank=rank).m, g @ g.conj().T):
                    assert np.all(lambda_spectrum_raw(m)[rank:] == 0.0)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            lambda_spectrum_raw(np.diag([1.0, 0.5, 0.0, -0.3]))

    def test_rejects_non_hermitian(self):
        m = sample_random(1).m.copy()
        m[0, 1] += 1e-3
        with pytest.raises(NotHermitian):
            lambda_spectrum_raw(m)

    def test_keeps_a_true_eigenvalue_of_1e_14(self):
        # a squeezed state whose smallest true eigenvalue, 1.3e-14 (about
        # 60 eps), must stay in the spectrum
        res = coset_generate(
            CosetParams(
                lambdas=[0.5800847123273936, 0.48952149585534904,
                         0.47224343807551644, 0.4401370426385532],
                theta=[-1.729521510385906, -0.3936640944361671],
                xi=[2.64507227323211, 5.733206469479133],
                phi=[-0.7761107697886551, -1.7599166324467763],
            )
        )
        assert res.rho._eig[0][-1] < 1e-13
        target = np.array(res.wootters.lambdas)
        assert np.max(np.abs(lambda_spectrum_raw(res.rho.m) - target)) < 1e-8

    def test_matches_50_digit_oracle_on_squeezed_states(self):
        # a state eigenvalue just below the support cut moves a lambda by
        # at most about 2 sqrt(SUPPORT_EPS) of the largest
        tol = 2.0 * np.sqrt(SUPPORT_EPS)
        checked = 0
        for seed in range(32):
            try:
                m = coset_generate(squeezed_params(seed)).rho.m
            except ResidualCheckFailed:
                # the generator's own records check against an absolute
                # 1e-9, which rounding alone can miss at these angles
                continue
            assert np.max(np.abs(lambda_spectrum_raw(m) - mp_lambdas(m))) < tol, seed
            checked += 1
        assert checked >= 30


class TestEigenEnsemble:
    def test_reconstructs_state(self):
        for seed in range(50):
            rho = sample_random(seed, rank=2 + seed % 3)
            ens = eigen_ensemble(rho)
            total = sum(np.outer(v, np.conj(v)) for v in ens)
            assert np.max(np.abs(total - rho.m)) < 1e-12

    def test_low_rank_vectors_identically_zero(self):
        ens = eigen_ensemble(sample_random(5, rank=2))
        assert np.all(ens[2] == 0.0)
        assert np.all(ens[3] == 0.0)

    def test_vectors_are_scaled_eigenvectors(self):
        rho = werner(0.5)
        ens = eigen_ensemble(rho)
        for v in ens:
            n2 = float(np.vdot(v, v).real)
            resid = rho.m @ v - n2 * v
            assert np.max(np.abs(resid)) < 1e-12


class TestSampleRandom:
    def test_deterministic(self):
        a = sample_random(42, rank=3)
        b = sample_random(42, rank=3)
        assert np.array_equal(a.m, b.m)

    def test_rank(self):
        for rank in (1, 2, 3, 4):
            rho = sample_random(0, rank=rank)
            w = np.linalg.eigvalsh(rho.m)
            assert int(np.sum(w > 1e-12)) == rank

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            sample_random(0, rank=0)
        with pytest.raises(ValueError):
            sample_random(0, rank=5)


class TestJson:
    def test_round_trip_exact(self):
        rho = sample_random(9)
        again = density_from_json(density_to_json(rho))
        assert np.array_equal(again.m, rho.m)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            density_from_json({"matrix": [[[1.0, 0.0]]]})

    def test_rejects_invalid_state(self):
        obj = density_to_json(sample_random(3))
        obj["matrix"][0][0] = [5.0, 0.0]
        with pytest.raises(NotUnitTrace):
            density_from_json(obj)

    @pytest.mark.parametrize(
        "entry", [[0.25], [0.25, 0.0, 1.0], ["0.25", 0.0], [True, 0.0], 0.25]
    )
    def test_rejects_malformed_complex_entry(self, entry):
        obj = density_to_json(sample_random(3))
        obj["matrix"][1][2] = entry
        with pytest.raises(ValueError):
            density_from_json(obj)


def _signed_zero_state():
    # every imaginary part is -0.0 and two real parts are -0.0
    m = np.conj(np.eye(4, dtype=complex) / 4.0)
    m.real[0, 1] = m.real[1, 0] = -0.0
    return DensityMatrix(m)


def _records():
    states = [sample_random(s, rank=r) for s, r in ((1, 1), (2, 2), (3, 3), (4, 4))]
    states += [werner(0.5), werner(0.2), _signed_zero_state()]
    out = list(states)
    for rho in states:
        d = ls_decompose(rho)
        rep = verify_optimality(rho, d)
        out += [d, rep, *rep.pairwise, *rep.structural]
    out += [
        _random_params(3),
        CosetParams(lambdas=(0.4, 0.3, 0.2, 0.1), theta=(-0.0, 0.0), xi=(0, 0), phi=(0, -0.0)),
    ]
    out += run_wootters_suite(n=2) + run_lsd_suite(n=1, tol=1e-30)
    return out


class TestCodecRoundTrip:
    def test_byte_identical_for_every_record_type(self):
        records = _records()
        kinds = {type(r).__name__ for r in records}
        assert kinds == {
            "DensityMatrix",
            "LSDecomposition",
            "OptimalityReport",
            "PairCheck",
            "StructuralCheck",
            "CosetParams",
            "PropertyResult",
        }
        assert any(p.gamma is not None for p in records if type(p).__name__ == "PairCheck")
        assert any(
            getattr(r, "first_failure_seed", None) is not None for r in records
        )
        for rec in records:
            text = json.dumps(to_json(rec))
            again = from_json(type(rec), json.loads(text))
            assert json.dumps(to_json(again)) == text

    def test_signed_zeros_survive(self):
        text = json.dumps(to_json(_signed_zero_state()))
        assert text.count("-0.0") == 18
        again = density_from_json(json.loads(text))
        assert np.signbit(again.m.imag).all()
        assert json.dumps(to_json(again)) == text

    def test_key_order(self):
        rho = sample_random(5, rank=3)
        d = ls_decompose(rho)
        assert list(to_json(d)) == [
            "weight", "rank_class", "sep", "pure", "xpp", "lambdas_pp", "zs", "phases",
        ]
        assert list(to_json(verify_optimality(rho, d))) == [
            "rank_class",
            "verdict",
            "max_residual",
            "independence_margin",
            "pairwise",
            "structural",
        ]
        assert list(to_json(rho)) == ["matrix"]


def _malformed_inputs():
    rho = sample_random(5, rank=3)
    d = ls_decompose(rho)
    state, split, report = to_json(rho), to_json(d), to_json(verify_optimality(rho, d))
    params = to_json(_random_params(3))
    cases = []

    def case(cls, good, path, value, error):
        # the value KeyError deletes the key at path instead
        bad = json.loads(json.dumps(good))
        *head, last = path
        node = bad
        for key in head:
            node = node[key]
        if value is KeyError:
            del node[last]
        else:
            node[last] = value
        cases.append((cls, good, bad, error))

    case(DensityMatrix, state, ["matrix", 1, 2], [0.25], ValueError)
    case(DensityMatrix, state, ["matrix", 0, 0], [True, 0.0], ValueError)
    case(DensityMatrix, state, ["matrix"], KeyError, KeyError)
    case(type(d), split, ["sep"], [1, 2], TypeError)
    case(type(d), split, ["pure", 0], "0.5", ValueError)
    case(type(d), split, ["rank_class"], 3, ValueError)
    case(type(d), split, ["zs"], KeyError, KeyError)
    case(OptimalityReport, report, ["pairwise", 0, "lam_a"], None, ValueError)
    case(OptimalityReport, report, ["structural", 0], [0.0], TypeError)
    case(OptimalityReport, report, ["verdict"], 1, ValueError)
    case(CosetParams, params, ["xi", 1], "0", ValueError)
    case(CosetParams, params, ["phi"], KeyError, KeyError)
    return cases


class TestCodecPlan:
    @pytest.mark.parametrize("cls,good,bad,error", _malformed_inputs())
    def test_same_error_twice_then_a_good_decode(self, cls, good, bad, error):
        messages = []
        for _ in range(2):
            with pytest.raises(error) as exc:
                from_json(cls, bad)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        again = from_json(cls, good)
        assert type(again) is cls
        assert to_json(again) == good
