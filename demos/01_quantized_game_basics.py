"""Walk through the quantized three-player Prisoner's Dilemma step by step.

The arbiter shares the state cos(gamma/2)|000> + i sin(gamma/2)|111> among
Alice, Bob and Charlie.  Each applies a local move U(theta, alpha, beta),
and the arbiter measures in a basis whose own entanglement is set by delta.
At gamma = delta = 0 the whole machine collapses to the familiar classical
game; away from that corner the phases start to matter.
"""

import math

from qpd3 import (
    DEFAULT_PAYOFF_TABLE,
    GameConfig,
    OUTCOMES,
    StrategyParams,
    expected_payoffs,
    moves,
    outcome_probabilities,
)

HALF_PI = math.pi / 2

COOPERATE = StrategyParams(0.0, 0.0, 0.0)
DEFECT = StrategyParams(math.pi, 0.0, HALF_PI)


def show(config, pa, pb, pc, label):
    payoff = expected_payoffs(config, pa, pb, pc)
    probs = outcome_probabilities(
        config.gamma, config.delta, pa.as_tuple(), pb.as_tuple(), pc.as_tuple()
    )[0]
    support = {o: round(p, 4) for o, p in zip(OUTCOMES, probs.tolist()) if p > 1e-12}
    print(f"  {label:<34} payoffs = {tuple(round(x, 4) for x in payoff.as_tuple())}")
    print(f"  {'':<34} outcome weights = {support}")


def main():
    print("Base payoff table (outcome -> Alice, Bob, Charlie):")
    for outcome, row in DEFAULT_PAYOFF_TABLE.as_mapping().items():
        print(f"  {outcome}: {tuple(row)}")

    print("\nA move is cos(theta/2) R(alpha) + sin(theta/2) P(beta); at the")
    print("defect corner theta = pi the matrix is a phase-twisted bit flip:")
    print(moves((math.pi, math.pi, math.pi)).round(3))

    print("\n--- classical corner: gamma = delta = 0 ---")
    classical = GameConfig(0.0, 0.0)
    show(classical, COOPERATE, COOPERATE, COOPERATE, "everyone cooperates")
    show(classical, DEFECT, COOPERATE, COOPERATE, "Alice defects alone")
    show(classical, DEFECT, DEFECT, DEFECT, "everyone defects (classical Nash)")

    print("\n--- maximal entanglement: gamma = delta = pi/2 ---")
    entangled = GameConfig(HALF_PI, HALF_PI)
    show(entangled, COOPERATE, COOPERATE, COOPERATE, "everyone cooperates")
    show(
        entangled,
        StrategyParams(0.0, math.pi, math.pi),
        COOPERATE,
        COOPERATE,
        "Alice's pure phase move (alpha=beta=pi)",
    )
    show(entangled, DEFECT, COOPERATE, COOPERATE, "Alice defects alone")

    print("\nNote the last line: with full entanglement Alice's naked defection")
    print("lands the game on outcome 100 with certainty and she collects 5,")
    print("the entangled basis rewards exactly the move the classical game")
    print("punishes cooperators for missing.")


if __name__ == "__main__":
    main()
