"""End-to-end acceptance battery.

Each test function covers one acceptance criterion at its stated
tolerance and prints a single PASS line with the measured margin; run
with -s (or read the -v test lines) for the per-criterion report.
"""

import dataclasses

import numpy as np
import pytest

from lsd_toolkit.coset import (
    coset_generate,
    CosetParams,
    ETA,
    haar_su2,
    local_unitary_action,
    O_MAT,
    so4r_image,
    y_factor,
)
from lsd_toolkit.lsd import ls_decompose, ppt_check, verify_optimality
from lsd_toolkit.matcore import _dual_basis, _restricted_inverse, takagi
from lsd_toolkit.qstate import (
    DensityMatrix,
    lambda_spectrum,
    lambda_spectrum_raw,
    sample_random,
    SIGMA_YY,
    spin_flip_vec,
)
from lsd_toolkit.wootters import concurrence, wootters_basis

E = np.eye(4)
PHI_P = (E[:, 0] + E[:, 3]) / np.sqrt(2.0)

N_VOLUME = 1000


def report(name, detail):
    print("ACCEPTANCE %s: PASS (%s)" % (name, detail))


@pytest.fixture(scope="module")
def volume_suite():
    """Shared 1000-state suite: state, basis decomposition, optimal split."""
    suite = []
    for seed in range(N_VOLUME):
        rho = sample_random(seed, rank=2 + seed % 3)
        suite.append((seed, rho, wootters_basis(rho), ls_decompose(rho)))
    return suite


def collect_entangled(rank, count, base):
    out = []
    seed = base
    while len(out) < count:
        rho = sample_random(seed, rank=rank)
        if concurrence(rho) > 1e-6:
            out.append((seed, rho))
        seed += 1
    return out


@pytest.fixture(scope="module")
def certified_fixtures():
    """100 entangled states per rank class, with decompositions."""
    fixtures = {}
    for rank, base in ((4, 50_000), (3, 60_000), (2, 70_000)):
        items = []
        for seed, rho in collect_entangled(rank, 100, base):
            items.append((seed, rho, ls_decompose(rho)))
        fixtures[rank] = items
    return fixtures


def test_concurrence_two_routes(volume_suite):
    worst = 0.0
    for _, rho, w, _ in volume_suite:
        lam = lambda_spectrum_raw(rho.m)
        c_raw = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
        lam_b = w.lambdas
        c_basis = max(0.0, lam_b[0] - lam_b[1] - lam_b[2] - lam_b[3])
        worst = max(worst, abs(c_raw - c_basis))
    assert worst <= 1e-9
    rho = DensityMatrix(0.5 * np.outer(PHI_P, PHI_P) + 0.5 * np.eye(4) / 4.0)
    werner_err = abs(concurrence(rho) - 0.25)
    assert werner_err <= 1e-10
    report(
        "two-route concurrence",
        "%d states, max gap %.2e, known-state error %.2e"
        % (N_VOLUME, worst, werner_err),
    )


def test_basis_reconstruction_and_orthogonality(volume_suite):
    worst_recon = 0.0
    worst_orth = 0.0
    for _, rho, w, _ in volume_suite:
        x = np.column_stack(w.xs)
        worst_recon = max(worst_recon, float(np.max(np.abs(x @ x.conj().T - rho.m))))
        overlap = x.conj().T @ SIGMA_YY @ np.conj(x)
        worst_orth = max(
            worst_orth,
            float(np.max(np.abs(overlap - np.diag(w.lambdas)))),
        )
    assert worst_recon <= 1e-10
    assert worst_orth <= 1e-9
    report(
        "basis reconstruction and overlap diagonality",
        "%d states, reconstruction %.2e, overlaps %.2e"
        % (N_VOLUME, worst_recon, worst_orth),
    )


def test_optimal_split_invariants(volume_suite):
    worst_recon = 0.0
    worst_boundary = 0.0
    worst_zero = 0.0
    checked = 0
    for _, rho, _, d in volume_suite:
        recon = d.weight * d.sep.m
        if d.pure is not None:
            recon = recon + (1.0 - d.weight) * np.outer(d.pure, np.conj(d.pure))
        worst_recon = max(worst_recon, float(np.max(np.abs(recon - rho.m))))
        assert ppt_check(d.sep).separable
        for z in d.zs:
            worst_zero = max(worst_zero, abs(np.vdot(z, spin_flip_vec(z))))
        if d.pure is not None:
            checked += 1
            lam = wootters_basis(d.sep).lambdas
            worst_boundary = max(
                worst_boundary, abs(lam[0] - lam[1] - lam[2] - lam[3])
            )
    assert worst_recon <= 1e-9
    assert worst_boundary <= 1e-8
    assert worst_zero <= 1e-9
    report(
        "optimal split invariants",
        "%d states (%d entangled), reconstruction %.2e, boundary %.2e, "
        "ensemble flip overlaps %.2e" % (N_VOLUME, checked, worst_recon, worst_boundary, worst_zero),
    )


def test_weighted_pure_concurrence_identity(volume_suite):
    worst = 0.0
    checked = 0
    for _, rho, w, d in volume_suite:
        if d.pure is None:
            continue
        checked += 1
        lam = w.lambdas
        c_raw = lam[0] - lam[1] - lam[2] - lam[3]
        val = (1.0 - d.weight) * abs(np.vdot(d.pure, spin_flip_vec(d.pure)))
        worst = max(worst, abs(val - c_raw))
    assert checked > 0
    assert worst <= 1e-9
    report(
        "weighted pure-part concurrence identity",
        "%d entangled states, max deviation %.2e" % (checked, worst),
    )


def test_optimality_certificates(certified_fixtures):
    worst = 0.0
    counts = {}
    for rank, items in certified_fixtures.items():
        closed_expected = {4: 0, 3: 2, 2: None}[rank]
        for _, rho, d in items:
            rep = verify_optimality(rho, d)
            assert rep.verdict, (rank, rep.max_residual)
            worst = max(worst, rep.max_residual)
            closed = [p for p in rep.pairwise if p.gamma is not None]
            if closed_expected is not None:
                assert len(closed) == closed_expected
            for p in closed:
                assert abs(p.reproduced_a - p.lam_a) <= 1e-8
                assert abs(p.reproduced_b - p.lam_b) <= 1e-8
        counts[rank] = len(items)

    rejected = 0
    for rank, items in certified_fixtures.items():
        for _, rho, d in items[:10]:
            # shift the weight into the interior so the tampered split is
            # well-posed but wrong
            delta = -0.01 if d.weight > 0.5 else 0.01
            shifted = dataclasses.replace(d, weight=d.weight + delta)
            assert not verify_optimality(rho, shifted).verdict
            rejected += 1

    # mixing pure weight back into the separable part must always break
    # its positivity under partial transposition, otherwise a larger
    # separable weight would exist
    rng = np.random.default_rng(77)
    probes = 0
    for _, rho, d in certified_fixtures[4]:
        psi_proj = np.outer(d.pure, np.conj(d.pure))
        for t in rng.uniform(0.01, 1.0, 20):
            lam_alt = d.weight + t * (1.0 - d.weight)
            sep_alt = (
                (1.0 - t) * d.weight * d.sep.m + t * rho.m
            ) / lam_alt
            recon = lam_alt * sep_alt + (1.0 - lam_alt) * psi_proj
            assert np.max(np.abs(recon - rho.m)) <= 1e-12
            pt = _ppt_of_matrix(sep_alt)
            if pt:
                assert lam_alt <= d.weight + 1e-9
            probes += 1
    report(
        "optimality certificates",
        "verdicts true on %s states, %d tampered splits rejected, "
        "%d larger-weight probes all non-positive, max residual %.2e"
        % (counts, rejected, probes, worst),
    )


def _ppt_of_matrix(m):
    rho = DensityMatrix((m + m.conj().T) / 2.0)
    return ppt_check(rho).separable


def test_generator_frames_and_spectra():
    rng = np.random.default_rng(101)
    worst_orth = 0.0
    for _ in range(200):
        p = CosetParams(
            lambdas=(0.4, 0.3, 0.2, 0.1),
            theta=tuple(rng.uniform(-2, 2, 2)),
            xi=tuple(rng.uniform(0, 2, 2)),
            phi=tuple(rng.uniform(-2, 2, 2)),
        )
        y = y_factor(p)
        worst_orth = max(worst_orth, float(np.max(np.abs(y.T @ y - np.eye(4)))))
    assert worst_orth <= 1e-10

    worst_spec = 0.0
    for _ in range(100):
        lam = np.sort(rng.random(4) + 0.05)[::-1]
        p = CosetParams(
            lambdas=tuple(lam),
            theta=tuple(rng.uniform(-2, 2, 2)),
            xi=tuple(rng.uniform(0, 2, 2)),
            phi=tuple(rng.uniform(-2, 2, 2)),
        )
        res = coset_generate(p)
        achieved = res.wootters.lambdas
        worst_spec = max(
            worst_spec,
            float(np.max(np.abs(achieved - lam / res.trace_factor))),
        )
    assert worst_spec <= 1e-8

    worst_bell = 0.0
    for ps in ((0.4, 0.3, 0.2, 0.1), (0.7, 0.1, 0.1, 0.1), (0.25, 0.25, 0.25, 0.25)):
        res = coset_generate(
            CosetParams(lambdas=ps, theta=(0, 0), xi=(0, 0), phi=(0, 0))
        )
        worst_bell = max(
            worst_bell,
            float(np.max(np.abs(res.wootters.lambdas - np.array(ps)))),
        )
    assert worst_bell <= 1e-12
    report(
        "generator frames and spectra",
        "orthogonality %.2e over 200 draws, spectrum error %.2e over 100 draws, "
        "diagonal case %.2e" % (worst_orth, worst_spec, worst_bell),
    )


def test_flip_form_factorization():
    resid = float(np.max(np.abs(O_MAT.T @ ETA @ ETA @ O_MAT - SIGMA_YY)))
    assert resid <= 1e-15
    report("flip-form factorization", "residual %.2e" % resid)


def test_local_unitary_orbit():
    rng = np.random.default_rng(31)
    states = [sample_random(s, rank=2 + s % 3) for s in range(20)]
    worst_spec = 0.0
    for i in range(50):
        rho = states[i % len(states)]
        lam = lambda_spectrum(rho)
        u1, u2 = haar_su2(rng), haar_su2(rng)
        moved = local_unitary_action(u1, u2, rho)
        worst_spec = max(
            worst_spec,
            float(np.max(np.abs(lambda_spectrum(moved) - lam))),
        )
    assert worst_spec <= 1e-9

    worst_orth = 0.0
    worst_homo = 0.0
    for _ in range(50):
        u1, u2, v1, v2 = (haar_su2(rng) for _ in range(4))
        r = so4r_image(u1, u2)
        worst_orth = max(
            worst_orth,
            float(np.max(np.abs(r.T @ r - np.eye(4)))),
            abs(np.linalg.det(r) - 1.0),
        )
        rhs = r @ so4r_image(v1, v2)
        worst_homo = max(
            worst_homo,
            float(np.max(np.abs(so4r_image(u1 @ v1, u2 @ v2) - rhs))),
        )
    assert worst_orth <= 1e-10
    assert worst_homo <= 1e-9
    report(
        "local unitary orbit",
        "spectrum drift %.2e over 50 actions, rotation image %.2e, "
        "homomorphism %.2e" % (worst_spec, worst_orth, worst_homo),
    )


def test_matrix_kernel_routines():
    rng = np.random.default_rng(202)
    worst_tak = 0.0
    for _ in range(1000):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        tau = (g + g.T) / 2.0
        u, lam = takagi(tau)
        worst_tak = max(
            worst_tak,
            float(np.max(np.abs(u @ tau @ u.T - np.diag(lam)))),
            float(np.max(np.abs(u @ u.conj().T - np.eye(4)))),
        )
    assert worst_tak <= 1e-9

    worst_dual = 0.0
    for trial in range(100):
        k = 1 + trial % 4
        vecs = [
            rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(k)
        ]
        # the kernel takes stacks of families; this is a stack of one
        phihat = _dual_basis(np.column_stack(vecs)[None])[0]
        for i in range(k):
            for j in range(k):
                got = complex(np.vdot(phihat[:, i], vecs[j]))
                worst_dual = max(worst_dual, abs(got - (1.0 if i == j else 0.0)))
    assert worst_dual <= 1e-10

    worst_ri = 0.0
    for trial in range(100):
        k = 1 + trial % 4
        vecs = [
            rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(k)
        ]
        coeffs = np.diag(rng.uniform(0.5, 2.0, k))
        m = sum(
            coeffs[i, i] * np.outer(v, np.conj(v)) for i, v in enumerate(vecs)
        )
        phi = np.column_stack(vecs)
        r = _restricted_inverse(coeffs[None], _dual_basis(phi[None]))[0]
        worst_ri = max(worst_ri, float(np.max(np.abs(m @ r @ phi - phi))))
    assert worst_ri <= 1e-9
    report(
        "matrix kernel routines",
        "symmetric factorization %.2e over 1000 draws, dual frames %.2e, "
        "restricted inverses %.2e" % (worst_tak, worst_dual, worst_ri),
    )
