"""Send two classical bits through the arbiter's payoff announcements.

Alice encodes a two-bit message by choosing one of four agreed unitaries.
Bob and Charlie, restricted to a common cooperate-or-defect move with fixed
phases, read their payoffs and look the pair up in the protocol table: if
the four codeword rows are distinct in that column, the payoffs alone name
Alice's move.  The information metric below scores a table by the bits
recoverable in the worst case over the receivers' move choice.
"""

import math

from qpd3 import (
    CODEWORDS,
    MODELS,
    decode,
    fixture_regime_tables,
    fixture_table,
    info_relation_report,
    oracle_regime_tables,
    protocol_table,
)

HALF_PI = math.pi / 2
PAIR = "bob-and-charlie"


def transmit(table, bits, common):
    row = list(CODEWORDS).index(bits)
    col = table.column_index(common)
    payoff = table.payoffs[row, col].tolist()
    observed = table.payoffs[row, col, MODELS[PAIR]].tolist()
    result = decode(table, common, observed, PAIR)
    decoded = "/".join(result.candidates)
    print(
        f"  Alice sends {bits}; payoffs (A,B,C) = "
        f"{tuple(round(x, 4) for x in payoff)}; Bob & Charlie see "
        f"{tuple(round(x, 4) for x in observed)} and decode -> {decoded} "
        f"({result.bits_resolved:g} bits)"
    )


def main():
    print("Alice's codebook (bits -> unitary parameters):")
    for bits, params in CODEWORDS.items():
        t, a, b = params.as_tuple()
        print(f"  {bits}: theta={t/math.pi:.3f}pi alpha={a/math.pi:.3f}pi beta={b/math.pi:.3f}pi")

    print("\n--- worked example on the published symmetric-regime table ---")
    table2 = fixture_table("table2")
    print("Bob and Charlie both cooperate (theta = 0):")
    for bits in ("00", "01", "10", "11"):
        transmit(table2, bits, (0.0, 0.0))
    print("Bob and Charlie both defect (theta = pi):")
    transmit(table2, "00", (math.pi, math.pi))

    print("\n--- the same protocol on a trace-rule table ---")
    oracle = protocol_table(0.0, HALF_PI)
    print("Product initial state, fully entangled measurement:")
    for bits in ("00", "11"):
        transmit(oracle, bits, (0.0, 0.0))

    print("\n--- information carried per regime (worst case over moves) ---")
    for tables in (oracle_regime_tables(), fixture_regime_tables()):
        for model in MODELS:
            rep = info_relation_report(tables, model)
            verdict = "holds" if rep.verdicts()["relation_holds"] else "fails"
            pretty = "  ".join(f"I_{k}={v:g}" for k, v in rep.values.items())
            print(f"  {rep.source:>9} / {model:<15} {pretty}   {{PP=EE}}>{{PE=EP}} {verdict}")

    print("\nEvery regime here resolves the full two bits (the one exception is")
    print("the entangled/entangled oracle table if each receiver only sees their")
    print("own payoff, where one column collapses two codewords).  The claimed")
    print("strict drop in the mixed regimes does not appear in either source's")
    print("tables at default resolution; the report records that verdict")
    print("rather than adjusting it.")


if __name__ == "__main__":
    main()
