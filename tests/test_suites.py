import math

import pytest

from lsd_toolkit.suites import (
    _Tracker,
    PropertyResult,
    run_all_suites,
    run_coset_suite,
    run_lsd_suite,
    run_wootters_suite,
)

WOOTTERS_PROPS = {
    "concurrence-two-routes",
    "ensemble-reconstruction",
    "tilde-orthogonality",
    "norm-sum",
    "spectrum-scaling",
}
LSD_PROPS = {
    "split-reconstruction",
    "separable-part-ppt",
    "boundary-spectrum",
    "ensemble-zero-concurrence",
    "average-concurrence-match",
    "certificate",
}
COSET_PROPS = {
    "factor-orthogonality",
    "generated-spectrum",
    "frame-roundtrip",
    "flip-form-orthonormality",
    "orbit-invariance",
    "rotation-image",
}


class TestWoottersSuite:
    def test_all_pass(self):
        results = run_wootters_suite(n=40, seed=0)
        assert {r.name for r in results} == WOOTTERS_PROPS
        for r in results:
            assert isinstance(r, PropertyResult)
            assert r.passed, r
            assert r.cases == 40
            assert r.max_residual <= r.tol
            assert r.first_failure_seed is None

    def test_seed_changes_states_not_verdict(self):
        a = run_wootters_suite(n=15, seed=0)
        b = run_wootters_suite(n=15, seed=1000)
        assert all(r.passed for r in a + b)
        res_a = {r.name: r.max_residual for r in a}
        res_b = {r.name: r.max_residual for r in b}
        assert any(res_a[k] != res_b[k] for k in res_a)


class TestLsdSuite:
    def test_all_pass(self):
        results = run_lsd_suite(n=25, seed=0)
        assert {r.name for r in results} == LSD_PROPS
        for r in results:
            assert r.passed, r

    def test_tol_override_fails_with_seed(self):
        results = run_lsd_suite(n=6, seed=0, tol=1e-30)
        failed = [r for r in results if not r.passed]
        assert failed
        for r in failed:
            assert r.first_failure_seed is not None


class TestCosetSuite:
    def test_all_pass(self):
        results = run_coset_suite(n=30, seed=0)
        assert {r.name for r in results} == COSET_PROPS
        for r in results:
            assert r.passed, r


class TestRunAll:
    def test_keys_and_verdicts(self):
        out = run_all_suites(n=8, seed=0)
        assert set(out.keys()) == {"wootters", "lsd", "coset"}
        for results in out.values():
            assert all(r.passed for r in results)


class TestTracker:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_residual_fails_with_its_seed(self, bad):
        t = _Tracker("x", 1e-9)
        t.add(0, 0.0)
        t.add(1, bad)
        t.add(2, 1e-12)
        r = t.result()
        assert not r.passed
        assert r.first_failure_seed == 1
        assert not math.isfinite(r.max_residual)


class TestTolOverride:
    @pytest.mark.parametrize("suite", [run_wootters_suite, run_lsd_suite, run_coset_suite])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_rejects_non_finite_or_negative(self, suite, tol):
        with pytest.raises(ValueError, match="finite number >= 0"):
            suite(n=1, tol=tol)

    def test_zero_is_accepted(self):
        results = run_wootters_suite(n=1, tol=0.0)
        assert all(r.tol == 0.0 for r in results)
