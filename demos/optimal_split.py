"""Maximal separable split of a mixed state, with its optimality certificate.

Run:  python3 demos/optimal_split.py
"""

import dataclasses

import numpy as np

from lsd_toolkit import (
    average_concurrence,
    concurrence,
    lambda_spectrum,
    ls_decompose,
    ppt_check,
    sample_random,
    verify_optimality,
)


def show(rho, label):
    d = ls_decompose(rho)
    print(label)
    print("  rank class          %s" % d.rank_class)
    print("  separable weight    %.8f" % d.weight)
    print("  state concurrence   %.8f" % concurrence(rho))
    if d.pure is not None:
        print("  pure-part average   %.8f" % average_concurrence(d))
        lam = lambda_spectrum(d.sep)
        print(
            "  separable part sits on the zero-concurrence boundary:"
            " %.4f - %.4f - %.4f - %.4f = %.1e"
            % (lam[0], lam[1], lam[2], lam[3], lam[0] - lam[1] - lam[2] - lam[3])
        )
    print("  separable part PPT  %s" % ppt_check(d.sep).separable)
    rep = verify_optimality(rho, d)
    print(
        "  certificate         verdict=%s  max residual %.2e"
        % (rep.verdict, rep.max_residual)
    )
    return d


def main():
    rho = sample_random(1, rank=4)
    d = show(rho, "random full-rank state (seed 1)")
    print()

    # shifting weight onto the separable side still reconstructs the
    # state but no longer satisfies the stationarity conditions
    shifted = dataclasses.replace(d, weight=d.weight - 0.01)
    rep = verify_optimality(rho, shifted)
    print("tampered split (weight - 0.01): verdict=%s" % rep.verdict)
    bad = [c.name for c in rep.structural if not c.passed]
    print("  failing structural checks: %s" % ", ".join(bad))
    print()

    E = np.eye(4)
    PHI_P = (E[:, 0] + E[:, 3]) / np.sqrt(2.0)
    from lsd_toolkit import DensityMatrix

    show(
        DensityMatrix(0.8 * np.outer(PHI_P, PHI_P) + 0.2 * np.eye(4) / 4.0),
        "Werner state p = 0.8 (textbook separable weight 0.3)",
    )


if __name__ == "__main__":
    main()
