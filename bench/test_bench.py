"""Self-tests of the benchmark: its checks catch corrupted results, its
inputs are deterministic, and it refuses to run without the library.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from spans import NullTracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _run(workload, seed=1, seconds=0, trace=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _record(workload, seed=1, trace=0):
    path = os.path.join(BENCH, "out", "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def analyze_result(tmp_path_factory):
    wl = workloads.AnalyzeRandom()
    case = wl.make(1, str(tmp_path_factory.mktemp("analyze")))[3]  # a rank-4 state
    wl.prepare(case)
    rc = wl.op(NullTracer(), case)
    with open(wl.out_path, encoding="utf-8") as fh:
        return case, rc, json.load(fh)


def test_analyze_check_passes_a_good_result(analyze_result):
    case, rc, out = analyze_result
    assert workloads.check_analyze_output(case.expect, rc, out).ok


@pytest.mark.parametrize(
    "field, delta, reason",
    [("weight", 1e-6, "weight-closed-form"), ("spectrum", 1e-7, "spectrum-two-routes")],
)
def test_analyze_check_fails_a_corrupted_result(analyze_result, field, delta, reason):
    case, rc, out = analyze_result
    bad = json.loads(json.dumps(out))
    if field == "weight":
        bad["lsd"]["weight"] += delta
    else:
        bad["spectrum"][1] += delta
    outcome = workloads.check_analyze_output(case.expect, rc, bad)
    assert not outcome.ok and reason in outcome.reasons


def test_analyze_check_fails_a_rejected_certificate(analyze_result):
    case, _, out = analyze_result
    bad = json.loads(json.dumps(out))
    bad["optimality"]["verdict"] = False
    outcome = workloads.check_analyze_output(case.expect, 4, bad)
    assert not outcome.ok and {"verdict", "exit:4"} <= set(outcome.reasons)


def test_boundary_check_fails_a_corrupted_weight(tmp_path):
    wl = workloads.BoundaryDegenerate()
    case = wl.make(1, str(tmp_path))[30]  # isotropic, F = 0.45: a separable state
    rho, d, rep = wl.op(NullTracer(), case)
    assert wl.check(NullTracer(), case, (rho, d, rep)).ok
    bad = dataclasses.replace(d, weight=d.weight - 1e-6)
    outcome = wl.check(NullTracer(), case, (rho, bad, rep))
    assert not outcome.ok
    assert {"weight-closed-form", "split-reconstruction"} <= set(outcome.reasons)


def test_generate_check_fails_a_corrupted_spectrum(tmp_path):
    wl = workloads.GenerateSqueezed()
    cases = wl.make(1, str(tmp_path))
    case = min(cases, key=lambda c: max(c.payload["xi"]))  # a well-conditioned draw
    res = wl.op(NullTracer(), case)
    assert wl.check(NullTracer(), case, res).ok
    lam1 = case.payload["lambdas"][0]
    # a trace factor that moves the achieved lambda_1 by 1e-7
    bad = res._replace(trace_factor=lam1 / (lam1 / res.trace_factor + 1e-7))
    outcome = wl.check(NullTracer(), case, bad)
    assert not outcome.ok and outcome.reasons == ("generated-spectrum",)


def test_verify_check_fails_a_failed_suite(tmp_path):
    wl = workloads.VerifySuites()
    case = wl.make(1, str(tmp_path))[1]
    wl.prepare(case)
    rc = wl.op(NullTracer(), case)
    with open(wl.out_path, encoding="utf-8") as fh:
        out = json.load(fh)
    suite = case.payload["suite"]
    assert workloads.check_verify_output(suite, rc, out).ok
    out["suites"][suite][0]["passed"] = False
    out["passed"] = False
    outcome = workloads.check_verify_output(suite, 5, out)
    assert not outcome.ok and "verdict" in outcome.reasons


@pytest.mark.parametrize("seed", [1, run.HOLDOUT_SEED])
def test_inputs_match_committed_digests(tmp_path, seed):
    with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
        committed = json.load(fh)
    for name, wl in workloads.WORKLOADS.items():
        assert workloads.digest(wl.make(seed, str(tmp_path))) == committed[name][str(seed)]


def test_another_seed_gives_other_inputs(tmp_path):
    for wl in workloads.WORKLOADS.values():
        assert workloads.digest(wl.make(1, str(tmp_path))) != workloads.digest(
            wl.make(2, str(tmp_path))
        )


def test_near_boundary_points_are_the_same_for_every_seed(tmp_path):
    wl = workloads.BoundaryDegenerate()
    a, b = wl.make(1, str(tmp_path)), wl.make(2, str(tmp_path))
    base = len(a) // 2
    near = [i for j in range(42, 72) for i in (j, base + j)]  # plain and rotated
    assert all(a[i].text == b[i].text for i in near)
    assert any(a[i].text != b[i].text for i in range(len(a)) if i not in near)


def test_counts_do_not_depend_on_the_number_of_passes():
    counts = []
    for seconds in (0, 4):
        proc = _run("boundary_degenerate", seconds=seconds)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"], _record("boundary_degenerate")["passes"]))
    assert counts[0][:2] == counts[1][:2] and counts[1][2] > counts[0][2]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_repeats_failures_and_accuracy_exactly(workload):
    seen = []
    for _ in range(2):
        proc = _run(workload)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"]
        rec = _record(workload)
        seen.append(
            (
                rec["inputs"],
                rec["failures_by_reason"],
                rec["metrics"]["ok_frac"]["value"],
                rec["metrics"]["accuracy_digits"]["value"],
            )
        )
    assert seen[0] == seen[1]


def test_metrics_are_the_declared_ones():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("boundary_degenerate", trace=trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("analyze_random", seconds=1, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
