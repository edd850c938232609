"""Spectrum, concurrence, and entanglement of formation on familiar states.

Run:  python3 demos/entanglement_basics.py
"""

import numpy as np

from lsd_toolkit import (
    concurrence,
    DensityMatrix,
    entanglement_of_formation,
    lambda_spectrum,
    pure_state_entropy,
)

E = np.eye(4)
PHI_P = (E[:, 0] + E[:, 3]) / np.sqrt(2.0)


def werner(p):
    return DensityMatrix(p * np.outer(PHI_P, PHI_P) + (1.0 - p) * np.eye(4) / 4.0)


def main():
    print("Werner family p|Phi+><Phi+| + (1-p) I/4")
    print("%6s  %28s  %10s  %10s" % ("p", "overlap spectrum", "C", "EoF"))
    for p in (0.0, 0.25, 1.0 / 3.0, 0.5, 0.8, 1.0):
        rho = werner(p)
        lam = lambda_spectrum(rho)
        print(
            "%6.3f  [%6.4f %6.4f %6.4f %6.4f]  %10.6f  %10.6f"
            % (
                p,
                lam[0],
                lam[1],
                lam[2],
                lam[3],
                concurrence(rho),
                entanglement_of_formation(rho),
            )
        )
    print()
    print("entanglement kicks in above p = 1/3, where the largest overlap")
    print("first exceeds the sum of the other three")
    print()

    psi = np.sqrt(0.9) * E[:, 0] + np.sqrt(0.1) * E[:, 3]
    rho = DensityMatrix(np.outer(psi, psi))
    print("pure state sqrt(0.9)|00> + sqrt(0.1)|11>")
    print("  concurrence          %.12f" % concurrence(rho))
    print("  mixed-state formula  %.12f" % entanglement_of_formation(rho))
    print("  reduced entropy      %.12f" % pure_state_entropy(psi))
    print("the two entanglement routes agree on pure states")


if __name__ == "__main__":
    main()
