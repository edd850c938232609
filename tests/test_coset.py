import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

from lsd_toolkit.coset import (
    build_x,
    CosetParams,
    coset_generate,
    ETA,
    ETA_INV,
    haar_su2,
    local_unitary_action,
    O_MAT,
    params_from_json,
    params_to_json,
    so4r_image,
    y_factor,
    y_from_x,
)
from lsd_toolkit.errors import (
    LsdToolkitError,
    NotSpecialUnitary,
    RankDeficient,
    ResidualCheckFailed,
    ZeroState,
)
from lsd_toolkit.lsd import ls_decompose, verify_optimality
from lsd_toolkit.qstate import (
    _outer_sum,
    DensityMatrix,
    lambda_spectrum,
    sample_random,
    SIGMA_YY,
    to_json,
)
from lsd_toolkit.suites import _random_params
from lsd_toolkit.wootters import concurrence, wootters_basis

E = np.eye(4)
PHI_P = (E[:, 0] + E[:, 3]) / np.sqrt(2.0)
PSI_P = (E[:, 1] + E[:, 2]) / np.sqrt(2.0)
PSI_M = (E[:, 1] - E[:, 2]) / np.sqrt(2.0)
PHI_M = (E[:, 0] - E[:, 3]) / np.sqrt(2.0)

K2 = np.array([[0.0, 1.0j], [-1.0j, 0.0]])

# a few ulp of a unit-scale entry: the bound for a rewrite whose products
# another numpy build may round differently (a fused complex multiply)
FEW_ULPS = 8 * np.finfo(float).eps


def plane_exp(t1, t2, planes):
    g = np.zeros((4, 4), dtype=complex)
    g[np.ix_(planes[0], planes[0])] = t1 * K2
    g[np.ix_(planes[1], planes[1])] = t2 * K2
    return sla.expm(g)


def params(lambdas=(0.4, 0.3, 0.2, 0.1), theta=(0.0, 0.0), xi=(0.0, 0.0), phi=(0.0, 0.0)):
    return CosetParams(lambdas=lambdas, theta=theta, xi=xi, phi=phi)


def unit_basis(xs):
    """Stand-in for a basis with unit lambdas, whose build_x frame is xs.T."""
    return SimpleNamespace(xs=np.asarray(xs), lambdas=np.ones(4))


def x_of_y(y):
    """The X frame that y_from_x maps to y, up to rounding."""
    return O_MAT @ ETA_INV @ y


class TestFrameConstants:
    def test_flip_form_factorization(self):
        assert np.max(np.abs(O_MAT.T @ ETA @ ETA @ O_MAT - SIGMA_YY)) < 1e-15

    def test_o_is_symmetric_orthogonal(self):
        assert np.max(np.abs(O_MAT - O_MAT.T)) == 0.0
        assert np.max(np.abs(O_MAT @ O_MAT - np.eye(4))) < 1e-15

    def test_o_columns_are_bell_vectors(self):
        for i, b in enumerate([PHI_P, PSI_P, PSI_M, PHI_M]):
            assert np.max(np.abs(O_MAT[:, i] - b)) < 1e-15

    def test_eta_inverse(self):
        assert np.max(np.abs(ETA @ ETA_INV - np.eye(4))) == 0.0


class TestYFactor:
    def test_identity_at_zero(self):
        y = y_factor(params())
        assert np.max(np.abs(y - np.eye(4))) == 0.0

    def test_single_plane_closed_form(self):
        t = 0.8
        y = y_factor(params(theta=(t, 0.0)))
        expect = np.eye(4, dtype=complex)
        expect[0, 0] = expect[1, 1] = np.cosh(t)
        expect[0, 1] = 1j * np.sinh(t)
        expect[1, 0] = -1j * np.sinh(t)
        assert np.max(np.abs(y - expect)) < 1e-15

    def test_equal_squeeze_block_structure(self):
        s = 1.1
        y = y_factor(params(xi=(s, s)))
        expect = np.cosh(s) * np.eye(4, dtype=complex)
        for a, b in ((0, 2), (1, 3)):
            expect[a, b] = 1j * np.sinh(s)
            expect[b, a] = -1j * np.sinh(s)
        assert np.max(np.abs(y - expect)) < 1e-14

    def test_matches_matrix_exponentials(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            th = rng.uniform(-2, 2, 2)
            xi = rng.uniform(0, 2, 2)
            ph = rng.uniform(-2, 2, 2)
            y = y_factor(params(theta=th, xi=xi, phi=ph))
            expect = (
                plane_exp(th[0], th[1], ([0, 1], [2, 3]))
                @ plane_exp(xi[0], xi[1], ([0, 2], [1, 3]))
                @ plane_exp(ph[0], ph[1], ([0, 1], [2, 3]))
            )
            assert np.max(np.abs(y - expect)) < 1e-12

    def test_matches_the_ix_build(self):
        # the blocks placed by np.ix_, the form y_factor replaced, kept as
        # its reference: both only move values, so they agree bit for bit
        def roth(t):
            c, s = np.cosh(t), np.sinh(t)
            return np.array([[c, 1j * s], [-1j * s, c]])

        rng = np.random.default_rng(2)
        for _ in range(200):
            th, ph = rng.uniform(-2, 2, (2, 2))
            xi = rng.uniform(0, 6, 2)
            factors = []
            for angles, planes in (
                (th, ([0, 1], [2, 3])),
                (xi, ([0, 2], [1, 3])),
                (ph, ([0, 1], [2, 3])),
            ):
                f = np.zeros((4, 4), dtype=complex)
                for t, plane in zip(angles, planes):
                    f[np.ix_(plane, plane)] = roth(t)
                factors.append(f)
            y = y_factor(params(theta=th, xi=xi, phi=ph))
            assert np.array_equal(y, factors[0] @ factors[1] @ factors[2])

    def test_orthogonality_at_large_angles(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = y_factor(
                params(
                    theta=rng.uniform(-2, 2, 2),
                    xi=rng.uniform(0, 2, 2),
                    phi=rng.uniform(-2, 2, 2),
                )
            )
            assert np.max(np.abs(y.T @ y - np.eye(4))) < 1e-10


class TestFrames:
    def test_build_x_flip_orthonormal(self):
        for seed in (0, 1, 2, 5):
            w = wootters_basis(sample_random(seed, rank=4))
            x = build_x(w)
            assert np.max(np.abs(x.T @ SIGMA_YY @ x - np.eye(4))) < 1e-9

    def test_build_x_rank_deficient(self):
        with pytest.raises(RankDeficient):
            build_x(wootters_basis(sample_random(0, rank=2)))

    def test_round_trip(self):
        for seed in (0, 1, 2):
            x = build_x(wootters_basis(sample_random(seed, rank=4)))
            y = y_from_x(x)
            assert np.max(np.abs(O_MAT @ ETA_INV @ y - x)) < 1e-12

    def test_xmatrix_rejects(self):
        with pytest.raises(ValueError):
            build_x(unit_basis(np.eye(4) * 2.0))

    def test_ymatrix_rejects(self):
        with pytest.raises(ValueError):
            y_from_x(x_of_y(np.diag([2.0, 1.0, 1.0, 1.0])))

    def test_residual_errors_are_typed(self):
        assert issubclass(ResidualCheckFailed, LsdToolkitError)
        with pytest.raises(ResidualCheckFailed, match="not orthonormal under the spin-flip"):
            build_x(unit_basis(np.eye(4) * 2.0))
        with pytest.raises(ResidualCheckFailed, match="not complex orthogonal"):
            y_from_x(x_of_y(np.diag([2.0, 1.0, 1.0, 1.0])))


class TestCosetGenerate:
    def test_bell_diagonal_at_zero_angles(self):
        res = coset_generate(params(lambdas=(0.4, 0.3, 0.2, 0.1)))
        assert abs(res.trace_factor - 1.0) < 1e-12
        lam = res.wootters.lambdas
        assert np.max(np.abs(lam - [0.4, 0.3, 0.2, 0.1])) < 1e-12
        for b, p in zip([PHI_P, PSI_P, PSI_M, PHI_M], [0.4, 0.3, 0.2, 0.1]):
            found = max(abs(np.vdot(b, x)) for x in res.wootters.xs)
            assert abs(found - np.sqrt(p)) < 1e-12

    def test_achieved_spectrum_is_rescaled_target(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            lam = np.sort(rng.random(4) + 0.05)[::-1]
            p = params(
                lambdas=tuple(lam),
                theta=rng.uniform(-2, 2, 2),
                xi=rng.uniform(0, 2, 2),
                phi=rng.uniform(-2, 2, 2),
            )
            res = coset_generate(p)
            achieved = res.wootters.lambdas
            assert np.max(np.abs(achieved - lam / res.trace_factor)) < 1e-8

    def test_spectrum_check_against_state(self):
        res = coset_generate(
            params(lambdas=(0.5, 0.25, 0.15, 0.1), theta=(0.9, -0.4), xi=(1.2, 0.3))
        )
        lam = lambda_spectrum(res.rho)
        assert np.max(np.abs(lam - res.wootters.lambdas)) < 1e-9

    def test_strongly_squeezed(self):
        # large squeezing drives the trace factor into the thousands; the
        # returned decomposition must still validate
        p = params(
            lambdas=(1.0, 0.8, 0.5, 0.3),
            theta=(1.5, -1.2),
            xi=(2.0, 1.7),
            phi=(0.3, 1.9),
        )
        res = coset_generate(p)
        assert res.trace_factor > 100.0
        achieved = res.wootters.lambdas
        target = np.array(p.lambdas) / res.trace_factor
        assert np.max(np.abs(achieved - target)) < 1e-10

    TRAILING_ZEROS = params(lambdas=(0.6, 0.4, 0.0, 0.0), theta=(0.3, 0.2), xi=(0.5, 0.1))

    def test_trailing_zero_lambdas(self):
        lam = coset_generate(self.TRAILING_ZEROS).wootters.lambdas
        assert lam[2] == 0.0
        assert lam[3] == 0.0

    def test_basis_sums_to_its_state(self):
        # the coordinate-free form of "the basis is a unitary mix of the
        # state's eigen-ensemble" (Hughston-Jozsa-Wootters)
        cases = [_random_params(s) for s in range(100)] + [self.TRAILING_ZEROS]
        for p in cases:
            res = coset_generate(p)
            assert np.abs(_outer_sum(res.wootters.xs) - res.rho.m).max() < 1e-12

    def test_generated_states_split_and_certify(self):
        for s in range(100):
            res = coset_generate(_random_params(s))
            assert verify_optimality(res.rho, ls_decompose(res.rho)).verdict, s

    def test_equal_params_give_equal_bytes(self):
        for s in range(12):
            texts = [json.dumps(to_json(coset_generate(_random_params(s)))) for _ in range(2)]
            assert texts[0] == texts[1]

    def test_zero_state(self):
        with pytest.raises(ZeroState):
            coset_generate(params(lambdas=(0.0, 0.0, 0.0, 0.0)))

    @pytest.mark.parametrize(
        "lambdas", [(1e-320, 0.0, 0.0, 0.0), (1e308, 1e308, 0.0, 0.0), (5e307,) * 4]
    )
    def test_trace_factor_outside_the_float_range(self, lambdas):
        # raised before the trace factor is formed, so with no RuntimeWarning
        with pytest.raises(ValueError, match="trace factor"):
            coset_generate(params(lambdas=lambdas))

    @pytest.mark.parametrize("lam0", [2.3e-308, 4e307])
    def test_trace_factor_at_the_float_range_ends(self, lam0):
        res = coset_generate(params(lambdas=(lam0, 0.0, 0.0, 0.0)))
        assert np.abs(lambda_spectrum(res.rho) - [1.0, 0.0, 0.0, 0.0]).max() < 1e-15


class TestCosetParamsValidation:
    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            CosetParams(lambdas=(0.5, 0.3, -0.1, 0.0), theta=(0, 0), xi=(0, 0), phi=(0, 0))

    def test_rejects_increasing_lambdas(self):
        with pytest.raises(ValueError):
            CosetParams(lambdas=(0.1, 0.2, 0.3, 0.4), theta=(0, 0), xi=(0, 0), phi=(0, 0))

    def test_rejects_negative_xi(self):
        with pytest.raises(ValueError):
            CosetParams(lambdas=(0.4, 0.3, 0.2, 0.1), theta=(0, 0), xi=(-0.5, 0), phi=(0, 0))

    def test_rejects_wrong_lengths(self):
        with pytest.raises(ValueError):
            CosetParams(lambdas=(0.5, 0.5), theta=(0, 0), xi=(0, 0), phi=(0, 0))
        with pytest.raises(ValueError):
            CosetParams(lambdas=(0.4, 0.3, 0.2, 0.1), theta=(0,), xi=(0, 0), phi=(0, 0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["lambdas", "theta", "xi", "phi"])
    def test_rejects_non_finite(self, field, bad):
        kw = dict(lambdas=[0.4, 0.3, 0.2, 0.1], theta=[0, 0], xi=[0, 0], phi=[0, 0])
        kw[field][0] = bad
        with pytest.raises(ValueError, match="finite"):
            CosetParams(**kw)

    @pytest.mark.parametrize(
        "theta, xi, phi",
        [((0, 0), (400, 0), (0, 0)), ((-200, 0), (0, 0), (0, 150.5)), ((0, 0), (0, 0), (0, -351))],
    )
    def test_rejects_angles_that_overflow_the_frame(self, theta, xi, phi):
        with pytest.raises(ValueError, match="exceeds 350"):
            params(theta=theta, xi=xi, phi=phi)

    def test_frame_at_the_angle_bound_stays_finite(self):
        # entries near exp(350) and a Gram matrix near exp(700): the frame
        # test fails on a finite residual, with no RuntimeWarning
        p = params(theta=(100, -100), xi=(150, 150), phi=(-100, 100))
        with pytest.raises(ResidualCheckFailed, match=r"\(1\.000e\+00\)"):
            coset_generate(p)

    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(lambdas="4321", theta="00", xi="00", phi="00"), "lambdas .* not str"),
            (dict(lambdas=b"abcd"), "lambdas .* not bytes"),
            (dict(phi="00"), "phi must be a sequence of numbers, not str"),
        ],
    )
    def test_rejects_a_string_field(self, kw, match):
        # float() would read "4321" as the lambdas (4.0, 3.0, 2.0, 1.0)
        # character by character, and b"abcd" as (97, 98, 99, 100)
        kw = dict(dict(lambdas=(0.4, 0.3, 0.2, 0.1), theta=(0, 0), xi=(0, 0), phi=(0, 0)), **kw)
        with pytest.raises(ValueError, match=match):
            CosetParams(**kw)

    def test_reads_a_list_of_number_strings(self):
        # the form the CLI's comma-separated flags hand over
        p = CosetParams(
            lambdas="0.4,0.3,0.2,0.1".split(","),
            theta=["0.5", "-1"],
            xi=["2", "0"],
            phi=["0", "1e-3"],
        )
        assert p == params(theta=(0.5, -1.0), xi=(2.0, 0.0), phi=(0.0, 1e-3))
        assert all(type(x) is float for x in p.lambdas + p.theta + p.xi + p.phi)

    def test_first_broken_rule_raises(self):
        # each input breaks its rule and every later one: lengths,
        # finiteness, sign, order, xi, the 350 bound
        nan = np.nan
        rules = [
            (dict(lambdas=(nan, -1, 2)), "lambdas must have length 4"),
            (dict(lambdas=(nan, -1, 2, 3), theta=(0,)), "theta, xi, phi must each have length 2"),
            (dict(lambdas=(nan, -1, 2, 3)), "finite"),
            (dict(lambdas=(1, -1, 2, 3)), "non-negative"),
            (dict(lambdas=(1, 0, 2, 3)), "non-increasing"),
            (dict(), "xi angles must be non-negative"),
            (dict(xi=(1, 0)), "exceeds 350"),
        ]
        for kw, match in rules:
            kw = dict(dict(lambdas=(3, 2, 1, 0), theta=(0, 0), xi=(-1, 0), phi=(0, 400)), **kw)
            with pytest.raises(ValueError, match=match):
                CosetParams(**kw)

    def test_rejects_non_finite_from_json(self):
        obj = json.loads(
            '{"lambdas": [NaN, 0.3, 0.2, 0.1], "theta": [0, 0], '
            '"xi": [Infinity, 0], "phi": [0, 0]}'
        )
        with pytest.raises(ValueError, match="finite"):
            params_from_json(obj)


class TestLocalUnitaryOrbit:
    def test_spectrum_invariance(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            rho = sample_random(seed, rank=4)
            lam = lambda_spectrum(rho)
            u1, u2 = haar_su2(rng), haar_su2(rng)
            moved = local_unitary_action(u1, u2, rho)
            assert np.max(np.abs(lambda_spectrum(moved) - lam)) < 1e-9
            assert abs(concurrence(moved) - concurrence(rho)) < 1e-9

    def test_matches_the_kron_form(self):
        # np.kron, the form local_unitary_action replaced, as its reference
        rng = np.random.default_rng(6)
        for seed in range(10):
            rho = sample_random(seed, rank=1 + seed % 4)
            u1, u2 = haar_su2(rng), haar_su2(rng)
            big = np.kron(u1, u2)
            expect = big @ rho.m @ big.conj().T
            assert np.abs(local_unitary_action(u1, u2, rho).m - expect).max() <= FEW_ULPS

    def test_identity_action(self):
        rho = sample_random(3)
        moved = local_unitary_action(np.eye(2), np.eye(2), rho)
        assert np.max(np.abs(moved.m - rho.m)) < 1e-15

    def test_rejects_non_unitary(self):
        for u1 in (2.0 * np.eye(2), np.full((2, 2), np.nan)):
            with pytest.raises(NotSpecialUnitary):
                local_unitary_action(u1, np.eye(2), sample_random(0))

    def test_rejects_unit_determinant_violation(self):
        with pytest.raises(NotSpecialUnitary):
            local_unitary_action(np.diag([1.0, -1.0]), np.eye(2), sample_random(0))


class TestSo4rImage:
    def test_real_orthogonal_unit_determinant(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            r = so4r_image(haar_su2(rng), haar_su2(rng))
            assert r.dtype.kind == "f"
            assert np.max(np.abs(r.T @ r - np.eye(4))) < 1e-10
            assert abs(np.linalg.det(r) - 1.0) < 1e-10

    def test_homomorphism(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            u1, u2, v1, v2 = (haar_su2(rng) for _ in range(4))
            lhs = so4r_image(u1 @ v1, u2 @ v2)
            rhs = so4r_image(u1, u2) @ so4r_image(v1, v2)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_identity(self):
        assert np.max(np.abs(so4r_image(np.eye(2), np.eye(2)) - np.eye(4))) < 1e-15

    def test_matches_the_kron_form(self):
        # np.kron, the form so4r_image replaced, as its reference
        rng = np.random.default_rng(12)
        for _ in range(20):
            u1, u2 = haar_su2(rng), haar_su2(rng)
            expect = (ETA @ O_MAT @ np.kron(u1, u2) @ O_MAT @ ETA_INV).real
            assert np.abs(so4r_image(u1, u2) - expect).max() <= FEW_ULPS

    def test_rejects_non_special(self):
        for u1 in (np.diag([1j, 1.0]), np.full((2, 2), np.nan)):
            with pytest.raises(NotSpecialUnitary):
                so4r_image(u1, np.eye(2))


class TestHaarSu2:
    def test_special_unitary(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = haar_su2(rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
            det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
            assert abs(det - 1.0) < 1e-12

    def test_deterministic(self):
        a = haar_su2(np.random.default_rng(9))
        b = haar_su2(np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestParamsJson:
    def test_round_trip_exact(self):
        p = params(
            lambdas=(0.51, 0.27, 0.15, 0.07),
            theta=(0.3, -1.7),
            xi=(1.9, 0.2),
            phi=(-0.8, 0.4),
        )
        again = params_from_json(json.loads(json.dumps(params_to_json(p))))
        assert again == p
