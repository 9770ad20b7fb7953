"""Payoff-mediated two-bit signaling through the arbiter.

Alice encodes two classical bits by choosing one of four agreed unitaries.
Bob and Charlie are restricted to the phase convention alpha = 0,
beta = pi/2 and to theta in {0, pi}, and agree beforehand to play a common
move.  After the arbiter announces payoffs, they look their observed payoffs
up in the protocol's 4x4 table (codeword rows x move-pair columns) to
recover Alice's codeword: dense-coding-like signaling where the strategy
itself is the carrier.  Decoding and the information metric share one rule:
an observation matches an entry when each visible payoff is within ``PAYOFF_TOL``.

Tables come in two provenances: ``oracle`` tables computed by the trace
rule, and ``published`` fixtures reproducing the corresponding printed
reference tables digit for digit (including their internal inconsistencies,
which the comparison reports surface rather than repair).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .game import (
    ATOL,
    DEFAULT_PAYOFF_TABLE,
    PAYOFF_TOL,
    REGIMES,
    GameConfig,
    PayoffTable,
    PayoffTriple,
    StrategyParams,
    outcome_probabilities,
)

#: Bob/Charlie's fixed phases in the restricted game: alpha = 0, beta = pi/2,
#: so theta = 0 is the plain cooperate move and theta = pi the plain defect move.
COMMON_ALPHA = 0.0
COMMON_BETA = math.pi / 2

#: Column labels: (theta_B, theta_C) move pairs.
COLUMNS = ((0.0, 0.0), (0.0, math.pi), (math.pi, 0.0), (math.pi, math.pi))


def common_move(theta: float) -> StrategyParams:
    """Bob/Charlie move with the restricted phase convention."""
    return StrategyParams(theta, COMMON_ALPHA, COMMON_BETA)


@dataclass(frozen=True)
class Codeword:
    """One of Alice's four agreed moves and the two bits it encodes."""

    bits: str
    params: StrategyParams


CODEWORDS = (
    Codeword("00", StrategyParams(0.0, 0.0, 0.0)),
    Codeword("01", StrategyParams(math.pi / 3, math.pi / 2, math.pi / 2)),
    Codeword("10", StrategyParams(math.pi / 2, math.pi / 2, math.pi / 2)),
    Codeword("11", StrategyParams(math.pi, math.pi, math.pi)),
)

_VISIBILITIES = ("own", "bob-and-charlie", "full-triple")


@dataclass(frozen=True)
class ObservationModel:
    """What a decoding party sees of the announced payoffs.

    ``visible`` picks the payoff components used for matching: ``"own"`` is
    the single payoff of the canonical restricted observer (Bob),
    ``"bob-and-charlie"`` the pair both restricted players pool, and
    ``"full-triple"`` all three values.  An observation matches a payoff
    triple when each visible component lies within ``PAYOFF_TOL`` of it.
    """

    visible: str = "bob-and-charlie"

    def __post_init__(self):
        if self.visible not in _VISIBILITIES:
            raise ValueError(f"visible must be one of {_VISIBILITIES}, got {self.visible!r}")

    def components(self, triple: PayoffTriple) -> tuple[float, ...]:
        if self.visible == "own":
            return (triple.bob,)
        if self.visible == "bob-and-charlie":
            return (triple.bob, triple.charlie)
        return triple.as_tuple()

    def matches(self, triple: PayoffTriple, observed: tuple[float, ...]) -> bool:
        """Whether each visible component of ``triple`` is within ``PAYOFF_TOL`` of ``observed``."""
        return all(abs(x - y) <= PAYOFF_TOL for x, y in zip(self.components(triple), observed))


@dataclass(frozen=True)
class ProtocolTable:
    """4x4 payoff table: codeword rows by (theta_B, theta_C) columns."""

    label: str
    provenance: str  # "oracle" | "published"
    gamma: float | None
    delta: float | None
    entries: tuple[tuple[PayoffTriple, ...], ...]

    def __post_init__(self):
        if self.provenance not in ("oracle", "published"):
            raise ValueError("provenance must be 'oracle' or 'published'")
        if len(self.entries) != 4 or any(len(row) != 4 for row in self.entries):
            raise ValueError("protocol table must be 4x4")

    def entry(self, row: int, col: int) -> PayoffTriple:
        return self.entries[row][col]

    def column_index(self, move_pair: tuple[float, float]) -> int:
        for j, col in enumerate(COLUMNS):
            if all(abs(a - b) <= ATOL for a, b in zip(col, move_pair)):
                return j
        raise ValueError(f"move pair {move_pair!r} is not a table column")

    def to_record(self) -> dict:
        return {
            "label": self.label,
            "provenance": self.provenance,
            "gamma": self.gamma,
            "delta": self.delta,
            "columns": [list(c) for c in COLUMNS],
            "rows": [
                {
                    "codeword": cw.bits,
                    "params": list(cw.params.as_tuple()),
                    "payoffs": [list(t.as_tuple()) for t in row],
                }
                for cw, row in zip(CODEWORDS, self.entries)
            ],
        }


@dataclass(frozen=True)
class DecodeResult:
    """Codewords consistent with an observed payoff, and the bits that pins down."""

    candidates: tuple[Codeword, ...]
    bits_resolved: float

    def to_record(self) -> dict:
        return {
            "candidates": [c.bits for c in self.candidates],
            "bits_resolved": self.bits_resolved,
        }


def protocol_table(
    gamma: float, delta: float, table: PayoffTable = DEFAULT_PAYOFF_TABLE
) -> ProtocolTable:
    """Oracle-evaluated protocol table for the given entanglement angles.

    The 16 (codeword, column) profiles go through the kernel as one batch.
    """
    config = GameConfig(gamma, delta, table)
    # (16, player, (theta, alpha, beta)), codeword-major
    profiles = np.array(
        [
            [p.as_tuple() for p in (cw.params, common_move(tb), common_move(tc))]
            for cw in CODEWORDS
            for tb, tc in COLUMNS
        ]
    )
    probs = outcome_probabilities(config.gamma, config.delta, *profiles.transpose(1, 0, 2))
    # One dot per row and player, as expected_payoffs takes it, so each entry
    # equals the single-profile oracle bit for bit.
    columns = [table.column(k) for k in range(3)]
    triples = [PayoffTriple(*(float(row @ col) for col in columns)) for row in probs]
    n = len(COLUMNS)
    return ProtocolTable(
        label=f"oracle(gamma={gamma:.6g}, delta={delta:.6g})",
        provenance="oracle",
        gamma=gamma,
        delta=delta,
        entries=tuple(tuple(triples[i : i + n]) for i in range(0, len(triples), n)),
    )


def _frac_rows(rows):
    return tuple(
        tuple(PayoffTriple(*(float(Fraction(x)) for x in cell)) for cell in row)
        for row in rows
    )


# Printed reference tables, stored as exact rationals (all are eighths, so
# the float conversion is exact).  Column order here is (theta_B, theta_C) =
# (0,0), (0,pi), (pi,0), (pi,pi); the printed layout nests Bob inside
# Charlie, so its inner two columns appear swapped relative to this order.
_TABLE2_ROWS = _frac_rows(
    [
        [("3", "3", "3"), ("2", "2", "5"), ("2", "5", "2"), ("0", "4", "4")],
        [
            ("3/4", "7/4", "7/4"),
            ("7/2", "17/4", "1/2"),
            ("7/2", "1/2", "17/4"),
            ("9/2", "9/4", "9/4"),
        ],
        [
            ("1/2", "5/2", "5/2"),
            ("3", "9/2", "1"),
            ("3", "1", "9/2"),
            ("4", "5/2", "5/2"),
        ],
        [("5", "2", "2"), ("4", "0", "4"), ("4", "4", "0"), ("1", "1", "1")],
    ]
)

_TABLE3_ROWS = _frac_rows(
    [
        [("2", "2", "2"), ("3", "3", "5/2"), ("3", "5/2", "3"), ("5/2", "3", "3")],
        [
            ("17/8", "9/4", "9/4"),
            ("3", "23/8", "21/8"),
            ("3", "21/8", "23/8"),
            ("19/8", "11/4", "11/4"),
        ],
        [
            ("9/4", "5/2", "5/2"),
            ("3", "11/4", "11/4"),
            ("3", "11/4", "11/4"),
            ("9/4", "5/2", "5/2"),
        ],
        [("5/2", "3", "3"), ("3", "5/2", "3"), ("3", "3", "5/2"), ("2", "2", "2")],
    ]
)

#: The published table each regime's caption claims, in the order the
#: verify bundle compares them.
REGIME_FIXTURES = {"PP": "table2", "EE": "table2", "PE": "table3", "EP": "table3"}

_FIXTURES = {"table2": _TABLE2_ROWS, "table3": _TABLE3_ROWS}


def fixture_table(table_id: str) -> ProtocolTable:
    """Published protocol table, reproduced exactly as printed.

    ``table2`` is captioned for the two symmetric regimes (gamma = delta = 0
    and gamma = delta = pi/2); ``table3`` for the two mixed regimes.
    """
    if table_id not in _FIXTURES:
        raise ValueError(f"unknown fixture {table_id!r}; expected 'table2' or 'table3'")
    return ProtocolTable(
        label=table_id,
        provenance="published",
        gamma=None,
        delta=None,
        entries=_FIXTURES[table_id],
    )


def decode(
    table: ProtocolTable,
    common_move_pair: tuple[float, float],
    observed: tuple[float, ...],
    model: ObservationModel | None = None,
) -> DecodeResult:
    """Recover Alice's codeword candidates from observed payoffs.

    ``observed`` must carry as many components as the model makes visible.

    Raises:
        ValueError: if the observed payoffs match no row of the column;
            the table and the observation are inconsistent.
    """
    model = ObservationModel() if model is None else model
    col = table.column_index(common_move_pair)
    expected_len = len(model.components(table.entry(0, 0)))
    if len(observed) != expected_len:
        raise ValueError(
            f"model {model.visible!r} needs {expected_len} observed component(s), "
            f"got {len(observed)}"
        )
    candidates = tuple(
        cw for cw, row in zip(CODEWORDS, table.entries) if model.matches(row[col], observed)
    )
    if not candidates:
        raise ValueError(
            f"observed payoffs {observed!r} match no codeword in column {COLUMNS[col]}"
        )
    return DecodeResult(
        candidates=candidates,
        bits_resolved=2.0 - math.log2(len(candidates)),
    )


def information_bits(table: ProtocolTable, model: ObservationModel | None = None) -> float:
    """Bits about Alice's codeword recoverable in the worst case.

    In each column, a codeword whose entry matches ``k`` of the column's
    entries resolves ``2 - log2(k)`` bits; the metric is the minimum over
    columns of the average over the four equiprobable codewords, since Bob
    and Charlie commit to their move before Alice's choice is revealed.  2.0
    means every column separates all four codewords.
    """
    model = ObservationModel() if model is None else model
    column_bits = []
    for col in range(len(COLUMNS)):
        entries = [table.entry(row, col) for row in range(4)]
        total = 0.0
        for entry in entries:
            observed = model.components(entry)
            matches = sum(model.matches(other, observed) for other in entries)
            total += 2.0 - math.log2(matches)
        column_bits.append(total / 4.0)
    return min(column_bits)


@dataclass(frozen=True)
class InfoRelationReport:
    """Measured information values per regime plus the claimed-relation verdicts.

    The claim under test: the symmetric regimes transmit the full two bits
    while the mixed regimes transmit less, i.e. I_PP = I_EE > I_PE = I_EP.
    """

    source: str  # "oracle" | "published"
    model: ObservationModel
    values: dict[str, float]

    def verdicts(self) -> dict:
        v = self.values
        verdicts = {
            "pp_eq_ee": abs(v["PP"] - v["EE"]) <= PAYOFF_TOL,
            "pe_eq_ep": abs(v["PE"] - v["EP"]) <= PAYOFF_TOL,
            "pp_gt_pe": v["PP"] > v["PE"] + PAYOFF_TOL,
        }
        verdicts["relation_holds"] = all(verdicts.values())
        return verdicts

    def to_record(self) -> dict:
        return {
            "source": self.source,
            "model": {"visible": self.model.visible},
            "values": dict(self.values),
            "verdicts": self.verdicts(),
        }


def info_relation_report(
    tables: dict[str, ProtocolTable],
    model: ObservationModel | None = None,
    source: str = "oracle",
) -> InfoRelationReport:
    """Information metric for the four regime tables plus relation verdicts.

    ``tables`` maps every label of ``REGIMES`` to a protocol table (for the
    published source, table2 serves both symmetric regimes and table3 both
    mixed ones).
    """
    model = ObservationModel() if model is None else model
    missing = set(REGIMES) - set(tables)
    if missing:
        raise ValueError(f"tables missing regimes: {sorted(missing)}")
    values = {case: information_bits(tables[case], model) for case in REGIMES}
    return InfoRelationReport(source=source, model=model, values=values)


def oracle_regime_tables(table: PayoffTable = DEFAULT_PAYOFF_TABLE) -> dict[str, ProtocolTable]:
    """Oracle protocol tables for the four entanglement regimes."""
    return {case: protocol_table(g, d, table) for case, (g, d) in REGIMES.items()}


def fixture_regime_tables() -> dict[str, ProtocolTable]:
    """Published tables assigned to the regimes their captions claim."""
    return {case: fixture_table(name) for case, name in REGIME_FIXTURES.items()}
