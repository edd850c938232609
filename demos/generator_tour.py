"""Generating states with a prescribed overlap spectrum.

Run:  python3 demos/generator_tour.py
"""

import numpy as np

from lsd_toolkit import (
    concurrence,
    CosetParams,
    coset_generate,
    haar_su2,
    lambda_spectrum,
    local_unitary_action,
    so4r_image,
)


def main():
    # all six angles zero: the frame columns are Bell vectors, so the
    # target weights come out as the overlap spectrum directly
    p = CosetParams(lambdas=(0.4, 0.3, 0.2, 0.1), theta=(0, 0), xi=(0, 0), phi=(0, 0))
    res = coset_generate(p)
    print("zero angles, target (0.4, 0.3, 0.2, 0.1)")
    print("  trace factor   %.12f" % res.trace_factor)
    print("  spectrum       %s" % np.round(res.wootters.lambdas, 12))
    print("  concurrence    %.6f" % concurrence(res.rho))
    print()

    # strong squeezing inflates the frame; the achieved spectrum is the
    # target rescaled by the trace factor
    p = CosetParams(
        lambdas=(1.0, 0.8, 0.5, 0.3),
        theta=(1.5, -1.2),
        xi=(2.0, 1.7),
        phi=(0.3, 1.9),
    )
    res = coset_generate(p)
    lam = res.wootters.lambdas
    print("strongly squeezed frame (xi = 2.0, 1.7)")
    print("  trace factor   %.3f" % res.trace_factor)
    print("  spectrum       %s" % np.round(lam, 8))
    print(
        "  matches target/T within %.1e"
        % np.max(np.abs(lam - np.array(p.lambdas) / res.trace_factor))
    )
    print()

    # the overlap spectrum is a local-unitary invariant; conjugating by
    # random one-qubit rotations moves the state but not the spectrum
    rng = np.random.default_rng(0)
    rho = res.rho
    base = lambda_spectrum(rho)
    drift = 0.0
    for _ in range(25):
        u1, u2 = haar_su2(rng), haar_su2(rng)
        moved = local_unitary_action(u1, u2, rho)
        drift = max(drift, float(np.max(np.abs(lambda_spectrum(moved) - base))))
    print("spectrum drift over 25 random local rotations: %.2e" % drift)

    u1, u2 = haar_su2(rng), haar_su2(rng)
    r = so4r_image(u1, u2)
    print(
        "rotation image of a local unitary pair: real 4x4, "
        "|R^T R - I| = %.2e, det = %.12f" % (np.max(np.abs(r.T @ r - np.eye(4))), np.linalg.det(r))
    )


if __name__ == "__main__":
    main()
