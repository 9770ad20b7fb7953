"""Sweep the two entanglement dials and watch the payoff landscape move.

Fixing a strategy profile, the expected payoffs are smooth functions of the
initial-state angle gamma and the measurement-basis angle delta.  The sweep
below uses the profile from the maximal-entanglement equilibrium (everyone
plays theta = 0; Alice sets alpha = beta = pi).  There Alice's payoff is
exactly 2 + cos(gamma - delta): 3 at the classical corner and at full
entanglement, 2 in the two mixed regimes, and constant along each diagonal
of the table.
"""

import math

import numpy as np

from qpd3 import GameConfig, StrategyParams, expected_payoffs

HALF_PI = math.pi / 2


def main():
    alice = StrategyParams(0.0, math.pi, math.pi)
    partner = StrategyParams(0.0, 0.0, HALF_PI)

    steps = np.linspace(0.0, HALF_PI, 7)
    labels = [f"{g / math.pi:.3f}pi" for g in steps]

    print("Alice's payoff at the phase-move profile, gamma down, delta across:")
    print(" " * 10 + "".join(f"{label:>10}" for label in labels))
    for gamma in steps:
        row = []
        for delta in steps:
            payoff = expected_payoffs(GameConfig(float(gamma), float(delta)), alice, partner, partner)
            row.append(f"{payoff.alice:>10.4f}")
        print(f"{gamma / math.pi:>8.3f}pi" + "".join(row))

    print("\nSame sweep for a lone defector (theta = pi, beta = pi/2):")
    defector = StrategyParams(math.pi, 0.0, HALF_PI)
    print(" " * 10 + "".join(f"{label:>10}" for label in labels))
    for gamma in steps:
        row = []
        for delta in steps:
            payoff = expected_payoffs(GameConfig(float(gamma), float(delta)), defector, partner, partner)
            row.append(f"{payoff.alice:>10.4f}")
        print(f"{gamma / math.pi:>8.3f}pi" + "".join(row))

    print("\nThe corners are the four named regimes: product/product (classical),")
    print("product/entangled, entangled/product, and entangled/entangled.")


if __name__ == "__main__":
    main()
