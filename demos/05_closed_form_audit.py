"""Audit the published closed-form payoff expressions against the trace rule.

The package keeps two published formulas verbatim: the full closed form
(whose final correction terms repeat sin(theta_B) where symmetry expects
sin(theta_C)) and its maximal-entanglement special case.  Neither is
trusted; both are measured against the trace-rule oracle over seeded random
profiles, and the deltas are the deliverable.
"""

import math

from qpd3 import (
    CODEWORDS,
    GameConfig,
    StrategyParams,
    closed_form_payoffs,
    compare_to_oracle,
    expected_payoffs,
    fixture_table,
    max_entanglement_payoffs,
    sample_any,
    sample_classical_limit,
    sample_pure_moves,
)
from qpd3.comms import COLUMNS, common_move

HALF_PI = math.pi / 2


def summarize(label, report):
    deltas = sorted(max(s.delta_abs) for s in report.samples)
    mid = deltas[len(deltas) // 2]
    print(
        f"  {label:<38} n={report.sample_count}  max={report.max_abs_delta:.3g}  "
        f"median={mid:.3g}  mean={report.mean_abs_delta:.3g}"
    )


def main():
    print("Closed form vs oracle over seeded samplers (componentwise |delta|):")
    summarize("classical corner (gamma=delta=0)", compare_to_oracle(sample_classical_limit, 1000, seed=1))
    summarize("pure moves, free entanglement", compare_to_oracle(sample_pure_moves, 1000, seed=2))
    summarize("unrestricted", compare_to_oracle(sample_any, 1000, seed=3))
    print("  -> exact at the classical corner, systematically off elsewhere;")
    print("     the printed expression is kept as-is so the gap stays visible.")

    print("\nOne concrete disagreement (product state, entangled basis, theta=pi/2):")
    mixed = GameConfig(0.0, HALF_PI)
    profile = [
        StrategyParams(HALF_PI, math.pi, math.pi),
        common_move(HALF_PI),
        common_move(HALF_PI),
    ]
    oracle = expected_payoffs(mixed, *profile)
    closed = closed_form_payoffs(mixed, *profile)
    print(f"  trace rule : {tuple(round(x, 4) for x in oracle.as_tuple())}")
    print(f"  closed form: {tuple(round(x, 4) for x in closed.as_tuple())}")
    print("  (the closed form hands Bob the 3.5 the trace rule gives Alice and")
    print("  Charlie: the corrections scramble which player the phases favor)")

    config = GameConfig(HALF_PI, HALF_PI)

    print("\nForensics on the published symmetric-regime protocol table:")
    fixture = fixture_table("table2")
    worst_special = worst_oracle = 0.0
    for i, alice in enumerate(CODEWORDS.values()):
        for j, (tb, tc) in enumerate(COLUMNS):
            want = fixture.payoffs[i, j].tolist()
            special = max_entanglement_payoffs(config, alice, common_move(tb), common_move(tc))
            via_oracle = expected_payoffs(config, alice, common_move(tb), common_move(tc))
            worst_special = max(
                worst_special, max(abs(a - b) for a, b in zip(special.as_tuple(), want))
            )
            worst_oracle = max(
                worst_oracle, max(abs(a - b) for a, b in zip(via_oracle.as_tuple(), want))
            )
    print(f"  special-case formula vs printed table: max |delta| = {worst_special:.2e}")
    print(f"  trace rule          vs printed table: max |delta| = {worst_oracle:.3g}")
    print("  -> the printed symmetric-regime table IS the special-case formula")
    print("     evaluated on the protocol grid, not the trace rule; the mixed-")
    print("     regime table, by contrast, matches the trace rule exactly.")


if __name__ == "__main__":
    main()
