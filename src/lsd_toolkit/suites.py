"""Randomized property suites over the whole toolkit.

Each suite draws seeded random states or parameters, evaluates a fixed
set of identities, and reports the worst residual per property.  The
command-line verify subcommand and the test battery both run these.
A suite's tol= overrides every per-property tolerance; it must be a
finite number >= 0, or the suite raises ValueError before any case.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coset import (
    CosetParams,
    build_x,
    coset_generate,
    haar_su2,
    local_unitary_action,
    so4r_image,
    y_factor,
    y_from_x,
)
from .lsd import average_concurrence, ls_decompose, verify_optimality
from .matcore import _checked_tol
from .qstate import (
    _flip_form,
    _outer_sum,
    lambda_spectrum,
    lambda_spectrum_raw,
    sample_random,
)
from .wootters import _concurrence_of, concurrence, wootters_basis


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one property over a batch of random cases."""

    name: str
    cases: int
    max_residual: float
    tol: float
    passed: bool
    first_failure_seed: Optional[int]


def _run(specs, tol, rows):
    """One PropertyResult per (name, tol) spec, in spec order, over the rows.

    rows yields (seed, {name: residual}) per case; a row counts a case only
    for the names it holds.  tol, when given, overrides every spec's
    tolerance and is checked before the first row is drawn.  A NaN
    residual fails, and stays the maximum.
    """
    tol = None if tol is None else _checked_tol(tol)
    # per name: tolerance, case count, worst residual, first failing seed
    acc = {name: [t if tol is None else tol, 0, 0.0, None] for name, t in specs}
    for seed, residuals in rows:
        for name, residual in residuals.items():
            a = acc[name]
            a[1] += 1
            residual = float(residual)
            if math.isnan(residual) or residual > a[2]:
                a[2] = residual
            if not residual <= a[0] and a[3] is None:
                a[3] = seed
    return [
        PropertyResult(name, cases, worst, t, first is None, first)
        for name, (t, cases, worst, first) in acc.items()
    ]


def _wootters_case(s, k):
    rho = sample_random(s, rank=2 + k % 3)
    lam = lambda_spectrum(rho)
    w = wootters_basis(rho)
    scaled = lambda_spectrum_raw(2.5 * rho.m)
    return {
        "concurrence-two-routes": abs(_concurrence_of(lam) - _concurrence_of(w.lambdas)),
        "ensemble-reconstruction": np.max(np.abs(_outer_sum(w.xs) - rho.m)),
        "tilde-orthogonality": np.max(np.abs(_flip_form(w.xs) - np.diag(w.lambdas))),
        "norm-sum": abs(sum(float(np.vdot(x, x).real) for x in w.xs) - 1.0),
        "spectrum-scaling": np.max(np.abs(scaled - 2.5 * lam)),
    }


def run_wootters_suite(n=200, seed=0, tol=None):
    """Spectrum and basis identities on random mixed states of rank 2 to 4."""
    specs = [
        ("concurrence-two-routes", 1e-9),
        ("ensemble-reconstruction", 1e-10),
        ("tilde-orthogonality", 1e-9),
        ("norm-sum", 1e-10),
        ("spectrum-scaling", 1e-9),
    ]
    rows = ((seed + k, _wootters_case(seed + k, k)) for k in range(n))
    return _run(specs, tol, rows)


def _lsd_case(s, k, cert_tol):
    rho = sample_random(s, rank=1 if k % 7 == 3 else 2 + k % 3)
    d = ls_decompose(rho)
    rep = verify_optimality(rho, d, tol=cert_tol)
    checks = {c.name: c.residual for c in rep.structural}
    out = {
        "split-reconstruction": checks["reconstruction"],
        "separable-part-ppt": checks["separable-ppt"],
        "ensemble-zero-concurrence": checks["zero-concurrence"],
        "certificate": rep.max_residual if rep.verdict else max(rep.max_residual, 1.0),
    }
    # the certificate has a boundary check unless the split is separable
    if "boundary" in checks:
        out["boundary-spectrum"] = checks["boundary"]
        out["average-concurrence-match"] = abs(average_concurrence(d) - concurrence(rho))
    return out


def run_lsd_suite(n=100, seed=0, tol=None):
    """Split, ensemble, and certificate identities on random states.

    The split residuals are read from the certificate's structural checks.
    """
    specs = [
        ("split-reconstruction", 1e-9),
        ("separable-part-ppt", 1e-10),
        ("boundary-spectrum", 1e-8),
        ("ensemble-zero-concurrence", 1e-9),
        ("average-concurrence-match", 1e-9),
        ("certificate", 1e-8),
    ]
    cert_tol = dict(specs)["certificate"] if tol is None else tol
    rows = ((seed + k, _lsd_case(seed + k, k, cert_tol)) for k in range(n))
    return _run(specs, tol, rows)


def _random_params(seed):
    """Seeded parameters; lambdas on [0.05, 1.05), so none vanishes."""
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.random(4) + 0.05)[::-1]
    return CosetParams(
        lambdas=tuple(lam),
        theta=tuple(rng.uniform(-2.0, 2.0, 2)),
        xi=tuple(rng.uniform(0.0, 2.0, 2)),
        phi=tuple(rng.uniform(-2.0, 2.0, 2)),
    )


def _coset_case(s):
    p = _random_params(s)
    y = y_factor(p)
    res = coset_generate(p)
    lam = lambda_spectrum(res.rho)
    lam_target = np.array(p.lambdas) / res.trace_factor
    x = build_x(res.wootters)
    out = {
        "factor-orthogonality": np.max(np.abs(y.T @ y - np.eye(4))),
        "generated-spectrum": np.max(np.abs(lam - lam_target)),
        "frame-roundtrip": np.max(np.abs(y_from_x(x) - y)),
        "flip-form-orthonormality": np.max(np.abs(_flip_form(x.T) - np.eye(4))),
    }

    rng = np.random.default_rng(10_000_000 + s)
    u1, u2 = haar_su2(rng), haar_su2(rng)
    rotated = local_unitary_action(u1, u2, res.rho)
    out["orbit-invariance"] = np.max(np.abs(lambda_spectrum(rotated) - lam))

    r1 = so4r_image(u1, u2)
    v1, v2 = haar_su2(rng), haar_su2(rng)
    r2 = so4r_image(v1, v2)
    r12 = so4r_image(u1 @ v1, u2 @ v2)
    out["rotation-image"] = max(
        float(np.max(np.abs(r1.T @ r1 - np.eye(4)))),
        abs(float(np.linalg.det(r1)) - 1.0),
        float(np.max(np.abs(r12 - r1 @ r2))),
    )
    return out


def run_coset_suite(n=200, seed=0, tol=None):
    """Frame and generator identities over random parameter draws."""
    specs = [
        ("factor-orthogonality", 1e-10),
        ("generated-spectrum", 1e-8),
        ("frame-roundtrip", 1e-12),
        ("flip-form-orthonormality", 1e-9),
        ("orbit-invariance", 1e-9),
        ("rotation-image", 1e-9),
    ]
    rows = ((seed + k, _coset_case(seed + k)) for k in range(n))
    return _run(specs, tol, rows)


# the suites by name, in the order run_all_suites and verify --suite all run them
SUITES = {
    "wootters": run_wootters_suite,
    "lsd": run_lsd_suite,
    "coset": run_coset_suite,
}


def run_all_suites(n=100, seed=0, tol=None):
    """Every suite with a shared case count; returns {suite: results}."""
    return {name: run(n=n, seed=seed, tol=tol) for name, run in SUITES.items()}
