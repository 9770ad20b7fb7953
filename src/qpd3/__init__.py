"""Exact engine for a three-player quantum Prisoner's Dilemma.

Players apply local unitaries to a shared (possibly entangled) three-qubit
state and an arbiter pays them out via a projective measurement in a
(possibly entangled) basis.  The package computes trace-rule expected
payoffs exactly, audits the published closed-form expressions against that
oracle, certifies grid-Nash equilibria in the four entanglement regimes, and
simulates the payoff-mediated two-bit signaling protocol.
"""

__version__ = "0.1.0"

from .game import (
    DEFAULT_PAYOFF_TABLE,
    OUTCOMES,
    REGIMES,
    GameConfig,
    PayoffTable,
    PayoffTriple,
    StrategyParams,
    expected_payoffs,
    moves,
    outcome_probabilities,
)
from .closedform import (
    ComparisonReport,
    closed_form_payoffs,
    compare_to_oracle,
    max_entanglement_payoffs,
    sample_any,
    sample_classical_limit,
    sample_pure_moves,
)
from .equilibrium import (
    EquilibriumReport,
    FourCaseScan,
    GridSpec,
    Profile,
    four_case_scan,
    verify_nash,
)
from .comms import (
    CODEWORDS,
    COLUMNS,
    MODELS,
    DecodeResult,
    InfoRelationReport,
    ProtocolTable,
    REGIME_FIXTURES,
    common_move,
    decode,
    fixture_regime_tables,
    fixture_table,
    info_relation_report,
    information_bits,
    oracle_regime_tables,
    protocol_table,
)

__all__ = [
    "__version__",
    # game
    "OUTCOMES", "REGIMES", "StrategyParams", "PayoffTriple", "PayoffTable",
    "DEFAULT_PAYOFF_TABLE", "GameConfig", "moves",
    "outcome_probabilities", "expected_payoffs",
    # closedform
    "ComparisonReport", "closed_form_payoffs",
    "max_entanglement_payoffs", "compare_to_oracle", "sample_any",
    "sample_classical_limit", "sample_pure_moves",
    # equilibrium
    "GridSpec", "Profile", "EquilibriumReport", "FourCaseScan",
    "verify_nash", "four_case_scan",
    # comms
    "CODEWORDS", "COLUMNS", "MODELS", "ProtocolTable",
    "DecodeResult", "InfoRelationReport", "REGIME_FIXTURES", "common_move", "protocol_table",
    "fixture_table", "decode", "information_bits", "info_relation_report",
    "oracle_regime_tables", "fixture_regime_tables",
]
