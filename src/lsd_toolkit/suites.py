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
    SIGMA_YY,
    DensityMatrix,
    _outer_sum,
    lambda_spectrum_raw,
    sample_random,
)
from .wootters import concurrence, wootters_basis


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one property over a batch of random cases."""

    name: str
    cases: int
    max_residual: float
    tol: float
    passed: bool
    first_failure_seed: Optional[int]


class _Tracker:
    def __init__(self, name, tol):
        self.name = name
        self.tol = tol
        self.cases = 0
        self.max_residual = 0.0
        self.first_failure_seed = None

    def add(self, seed, residual):
        """Count one case; a NaN residual fails, and stays the maximum."""
        self.cases += 1
        residual = float(residual)
        if math.isnan(residual) or residual > self.max_residual:
            self.max_residual = residual
        if not residual <= self.tol and self.first_failure_seed is None:
            self.first_failure_seed = seed

    def result(self):
        return PropertyResult(
            name=self.name,
            cases=self.cases,
            max_residual=self.max_residual,
            tol=self.tol,
            passed=self.first_failure_seed is None,
            first_failure_seed=self.first_failure_seed,
        )


def _trackers(specs, tol_override):
    if tol_override is not None:
        tol_override = _checked_tol(tol_override)
    return [_Tracker(name, tol if tol_override is None else tol_override) for name, tol in specs]


def run_wootters_suite(n=200, seed=0, tol=None):
    """Spectrum and basis identities on random mixed states of rank 2 to 4."""
    trk = _trackers(
        [
            ("concurrence-two-routes", 1e-9),
            ("ensemble-reconstruction", 1e-10),
            ("tilde-orthogonality", 1e-9),
            ("norm-sum", 1e-10),
            ("spectrum-scaling", 1e-9),
        ],
        tol,
    )
    two_routes, recon, ortho, norms, scaling = trk
    for k in range(n):
        s = seed + k
        rho = sample_random(s, rank=2 + k % 3)
        lam = lambda_spectrum_raw(rho.m)
        w = wootters_basis(rho)
        c_spec = concurrence(rho)
        c_basis = max(0.0, float(w.lambdas[0] - np.sum(w.lambdas[1:])))
        two_routes.add(s, abs(c_spec - c_basis))

        recon.add(s, np.max(np.abs(_outer_sum(w.xs) - rho.m)))

        xc = np.conj(w.xs)
        overlap = xc @ SIGMA_YY @ xc.T
        ortho.add(s, np.max(np.abs(overlap - np.diag(w.lambdas))))

        norms.add(s, abs(sum(float(np.vdot(x, x).real) for x in w.xs) - 1.0))

        scaling.add(
            s,
            np.max(np.abs(lambda_spectrum_raw(2.5 * rho.m) - 2.5 * lam)),
        )
    return [t.result() for t in trk]


def _random_pure(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, np.conj(v)))


def run_lsd_suite(n=100, seed=0, tol=None):
    """Split, ensemble, and certificate identities on random states.

    The split residuals are read from the certificate's structural checks.
    """
    trk = _trackers(
        [
            ("split-reconstruction", 1e-9),
            ("separable-part-ppt", 1e-10),
            ("boundary-spectrum", 1e-8),
            ("ensemble-zero-concurrence", 1e-9),
            ("average-concurrence-match", 1e-9),
            ("certificate", 1e-8),
        ],
        tol,
    )
    recon, sep_ppt, boundary, zero_c, avg_c, cert = trk
    for k in range(n):
        s = seed + k
        if k % 7 == 3:
            rho = _random_pure(s)
        else:
            rho = sample_random(s, rank=2 + k % 3)
        d = ls_decompose(rho)
        rep = verify_optimality(rho, d, tol=cert.tol)
        checks = {c.name: c.residual for c in rep.structural}
        recon.add(s, checks["reconstruction"])
        sep_ppt.add(s, checks["separable-ppt"])

        # the certificate has a boundary check unless the split is separable
        if "boundary" in checks:
            boundary.add(s, checks["boundary"])
            avg_c.add(s, abs(average_concurrence(d) - concurrence(rho)))

        zero_c.add(s, checks["zero-concurrence"])

        cert.add(s, rep.max_residual if rep.verdict else max(rep.max_residual, 1.0))
    return [t.result() for t in trk]


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


def run_coset_suite(n=200, seed=0, tol=None):
    """Frame and generator identities over random parameter draws."""
    trk = _trackers(
        [
            ("factor-orthogonality", 1e-10),
            ("generated-spectrum", 1e-8),
            ("frame-roundtrip", 1e-12),
            ("flip-form-orthonormality", 1e-9),
            ("orbit-invariance", 1e-9),
            ("rotation-image", 1e-9),
        ],
        tol,
    )
    ortho, spectrum, roundtrip, flip_form, orbit, rot = trk
    for k in range(n):
        s = seed + k
        p = _random_params(s)
        y = y_factor(p)
        ortho.add(s, np.max(np.abs(y.T @ y - np.eye(4))))

        res = coset_generate(p)
        lam = lambda_spectrum_raw(res.rho.m)
        lam_target = np.array(p.lambdas) / res.trace_factor
        spectrum.add(s, np.max(np.abs(lam - lam_target)))

        x = build_x(res.wootters)
        roundtrip.add(s, np.max(np.abs(y_from_x(x) - y)))
        flip_form.add(s, np.max(np.abs(x.T @ SIGMA_YY @ x - np.eye(4))))

        rng = np.random.default_rng(10_000_000 + s)
        u1, u2 = haar_su2(rng), haar_su2(rng)
        rotated = local_unitary_action(u1, u2, res.rho)
        orbit.add(s, np.max(np.abs(lambda_spectrum_raw(rotated.m) - lam)))

        r1 = so4r_image(u1, u2)
        v1, v2 = haar_su2(rng), haar_su2(rng)
        r2 = so4r_image(v1, v2)
        r12 = so4r_image(u1 @ v1, u2 @ v2)
        rot.add(
            s,
            max(
                float(np.max(np.abs(r1.T @ r1 - np.eye(4)))),
                abs(float(np.linalg.det(r1)) - 1.0),
                float(np.max(np.abs(r12 - r1 @ r2))),
            ),
        )
    return [t.result() for t in trk]


# the suites by name, in the order run_all_suites and verify --suite all run them
SUITES = {
    "wootters": run_wootters_suite,
    "lsd": run_lsd_suite,
    "coset": run_coset_suite,
}


def run_all_suites(n=100, seed=0, tol=None):
    """Every suite with a shared case count; returns {suite: results}."""
    return {name: run(n=n, seed=seed, tol=tol) for name, run in SUITES.items()}
