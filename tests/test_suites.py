import math

import pytest

from lsd_toolkit import suites
from lsd_toolkit.suites import (
    _run,
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


class TestRun:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_residual_fails_with_its_seed(self, bad):
        rows = [(0, {"x": 0.0}), (1, {"x": bad}), (2, {"x": 1e-12})]
        (r,) = _run([("x", 1e-9)], None, iter(rows))
        assert not r.passed
        assert r.first_failure_seed == 1
        assert not math.isfinite(r.max_residual)
        if math.isnan(bad):
            assert math.isnan(r.max_residual)

    def test_a_row_left_out_is_not_counted(self):
        rows = [(0, {"a": 0.0, "b": 0.0}), (1, {"a": 0.0}), (2, {"a": 2.0, "b": 0.5})]
        a, b = _run([("a", 1.0), ("b", 1.0)], None, iter(rows))
        assert (a.name, a.cases, a.max_residual, a.first_failure_seed) == ("a", 3, 2.0, 2)
        assert (b.name, b.cases, b.max_residual, b.passed) == ("b", 2, 0.5, True)

    def test_lsd_suite_counts_boundary_rows_only_on_entangled_cases(self):
        # seeds 0-19 hold one separable state, which has no boundary check
        cases = {r.name: r.cases for r in run_lsd_suite(n=20, seed=0)}
        assert cases["boundary-spectrum"] == cases["average-concurrence-match"] < 20
        for name in ("split-reconstruction", "separable-part-ppt", "certificate"):
            assert cases[name] == 20

    @pytest.mark.parametrize("suite", [run_wootters_suite, run_lsd_suite, run_coset_suite])
    def test_bad_tol_raises_before_any_case(self, suite, monkeypatch):
        def no_case(*args, **kwargs):
            raise AssertionError("a case ran before the tol check")

        # every case starts by drawing its state or its parameters
        monkeypatch.setattr(suites, "sample_random", no_case)
        monkeypatch.setattr(suites, "_random_params", no_case)
        with pytest.raises(AssertionError, match="a case ran"):
            suite(n=1, tol=1e-9)
        with pytest.raises(ValueError, match="finite number >= 0"):
            suite(n=1, tol=math.nan)


class TestTolOverride:
    @pytest.mark.parametrize("suite", [run_wootters_suite, run_lsd_suite, run_coset_suite])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_rejects_non_finite_or_negative(self, suite, tol):
        with pytest.raises(ValueError, match="finite number >= 0"):
            suite(n=1, tol=tol)

    def test_zero_is_accepted(self):
        results = run_wootters_suite(n=1, tol=0.0)
        assert all(r.tol == 0.0 for r in results)
