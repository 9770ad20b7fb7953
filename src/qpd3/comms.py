"""Payoff-mediated two-bit signaling through the arbiter.

Alice encodes two classical bits by choosing one of four agreed unitaries.
Bob and Charlie are restricted to the phase convention alpha = 0,
beta = pi/2 and to theta in {0, pi}, and agree beforehand to play a common
move.  After the arbiter announces payoffs, they look their observed payoffs
up in the protocol table, one ``(4, 4, 3)`` array of payoffs by codeword,
move-pair column and player, to recover Alice's codeword: dense-coding-like
signaling where the strategy itself is the carrier.

The layer is plain data.  ``CODEWORDS`` maps each two-bit string to Alice's
move, in table row order; ``MODELS`` maps each observation model's name to
the players whose payoffs that decoding party sees; a table entry is
``table.payoffs[row, col]``.  Decoding, the information metric and the
fixture diff read the array through one rule, ``_matches``: an observation
matches an entry when each visible payoff is within ``PAYOFF_TOL``.

Tables come in two provenances: ``oracle`` tables computed by the trace
rule at given angles, and ``published`` fixtures, which have no angles and
reproduce the corresponding printed reference tables digit for digit
(including their internal inconsistencies, which the comparison reports
surface rather than repair).
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


#: Alice's four agreed moves by the two bits each encodes, in table row order.
CODEWORDS = {
    "00": StrategyParams(0.0, 0.0, 0.0),
    "01": StrategyParams(math.pi / 3, math.pi / 2, math.pi / 2),
    "10": StrategyParams(math.pi / 2, math.pi / 2, math.pi / 2),
    "11": StrategyParams(math.pi, math.pi, math.pi),
}

#: Observation models: what a decoding party sees of the announced payoffs,
#: as the player indices (0 Alice, 1 Bob, 2 Charlie) whose payoffs it reads.
#: ``"own"`` is the payoff of the canonical restricted observer (Bob),
#: ``"bob-and-charlie"`` the pair both restricted players pool, and
#: ``"full-triple"`` all three values.
MODELS = {"own": (1,), "bob-and-charlie": (1, 2), "full-triple": (0, 1, 2)}


def _visible(model: str) -> tuple[int, ...]:
    """The player indices ``model`` names, or a ``ValueError`` naming the choices."""
    if model not in MODELS:
        raise ValueError(f"model must be one of {tuple(MODELS)}, got {model!r}")
    return MODELS[model]


def _matches(entries: np.ndarray, observed) -> np.ndarray:
    """Whether every visible payoff in the last axis of ``entries`` is within
    ``PAYOFF_TOL`` of ``observed``: decoding, the information metric and the
    fixture diff match by it."""
    return (np.abs(entries - observed) <= PAYOFF_TOL).all(axis=-1)


@dataclass(frozen=True, eq=False)
class ProtocolTable:
    """4x4 payoff table: codeword rows by (theta_B, theta_C) columns.

    ``payoffs[codeword, column, player]`` is a read-only ``(4, 4, 3)`` copy
    of the array the table is built from.  A published fixture has no angles.
    """

    label: str
    gamma: float | None
    delta: float | None
    payoffs: np.ndarray

    def __post_init__(self):
        payoffs = np.array(self.payoffs, dtype=float)
        if payoffs.shape != (4, 4, 3):
            raise ValueError(f"protocol table must have shape (4, 4, 3), got {payoffs.shape}")
        payoffs.flags.writeable = False
        object.__setattr__(self, "payoffs", payoffs)

    @property
    def provenance(self) -> str:
        return "published" if self.gamma is None else "oracle"

    @staticmethod
    def column_index(move_pair: tuple[float, float]) -> int:
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
                    "codeword": bits,
                    "params": list(params.as_tuple()),
                    "payoffs": row.tolist(),
                }
                for (bits, params), row in zip(CODEWORDS.items(), self.payoffs)
            ],
        }


@dataclass(frozen=True)
class DecodeResult:
    """Codewords consistent with an observed payoff, and the bits that pins down."""

    candidates: tuple[str, ...]
    bits_resolved: float

    def to_record(self) -> dict:
        return {
            "candidates": list(self.candidates),
            "bits_resolved": self.bits_resolved,
        }


def _oracle_tables(angles, table: PayoffTable) -> list[ProtocolTable]:
    """Oracle-evaluated protocol tables, one per ``(gamma, delta)`` of ``angles``.

    Every table's 16 (codeword, column) profiles go through the kernel in
    one batch, and each entry equals the single-profile oracle bit for bit.
    """
    angles = list(angles)
    # (16, player, (theta, alpha, beta)), codeword-major
    profiles = np.empty((len(CODEWORDS), len(COLUMNS), 3, 3))
    profiles[:, :, 0] = np.array([p.as_tuple() for p in CODEWORDS.values()])[:, None]
    profiles[:, :, 1:, 0] = COLUMNS
    profiles[:, :, 1:, 1:] = COMMON_ALPHA, COMMON_BETA
    profiles = profiles.reshape(-1, 3, 3)
    gammas, deltas = np.repeat(np.array(angles, dtype=float), len(profiles), axis=0).T
    probs = outcome_probabilities(
        gammas, deltas, *np.tile(profiles, (len(angles), 1, 1)).transpose(1, 0, 2)
    )
    payoffs = table.expected(probs).reshape(len(angles), len(CODEWORDS), len(COLUMNS), 3)
    return [
        ProtocolTable(
            label=f"oracle(gamma={gamma:.6g}, delta={delta:.6g})",
            gamma=gamma,
            delta=delta,
            payoffs=entries,
        )
        for (gamma, delta), entries in zip(angles, payoffs)
    ]


def protocol_table(
    gamma: float, delta: float, table: PayoffTable = DEFAULT_PAYOFF_TABLE
) -> ProtocolTable:
    """Oracle-evaluated protocol table for the given entanglement angles.

    The 16 (codeword, column) profiles go through the kernel as one batch
    (``_oracle_tables`` of one angle pair), and each entry equals the
    single-profile oracle bit for bit.
    """
    GameConfig(gamma, delta, table)  # the oracle's own checks of the angles
    return _oracle_tables([(gamma, delta)], table)[0]


def _frac_rows(rows):
    return [[[float(Fraction(x)) for x in cell] for cell in row] for row in rows]


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
    return ProtocolTable(label=table_id, gamma=None, delta=None, payoffs=_FIXTURES[table_id])


def auto_fixture(gamma: float, delta: float, table: PayoffTable) -> str | None:
    """The fixture a table at a regime's angles is compared with unasked.  The fixtures
    hold the classic payoffs, so another table is compared only with a named fixture."""
    classic = np.array_equal(table.payoffs, DEFAULT_PAYOFF_TABLE.payoffs)
    for case, (g, d) in REGIMES.items():
        if classic and abs(gamma - g) <= ATOL and abs(delta - d) <= ATOL:
            return REGIME_FIXTURES[case]
    return None


def fixture_diff(oracle: ProtocolTable, fixture: ProtocolTable) -> tuple[list, list]:
    """Per-entry deltas between an oracle table and a published fixture, and a
    discrepancy record for each entry that does not match by ``_matches``."""
    deltas = oracle.payoffs - fixture.payoffs
    compared = []
    discrepancies = []
    for i, bits in enumerate(CODEWORDS):
        for j, col in enumerate(COLUMNS):
            delta = deltas[i, j].tolist()
            compared.append(
                {
                    "codeword": bits,
                    "column": list(col),
                    "oracle": oracle.payoffs[i, j].tolist(),
                    "published": fixture.payoffs[i, j].tolist(),
                    "delta": delta,
                }
            )
            if not _matches(oracle.payoffs[i, j], fixture.payoffs[i, j]):
                discrepancies.append(
                    {
                        "what": f"oracle vs {fixture.label}",
                        "codeword": bits,
                        "column": list(col),
                        "delta": delta,
                    }
                )
    return compared, discrepancies


def decode(
    table: ProtocolTable,
    common_move_pair: tuple[float, float],
    observed: tuple[float, ...],
    model: str = "bob-and-charlie",
) -> DecodeResult:
    """Recover Alice's codeword candidates from observed payoffs.

    ``observed`` must carry as many components as ``MODELS[model]`` names.

    Raises:
        ValueError: if ``model`` is not a key of ``MODELS``, if an observed
            payoff is not finite, or if the observed payoffs match no row of
            the column; the table and the observation are inconsistent.
    """
    visible = _visible(model)
    col = table.column_index(common_move_pair)
    if len(observed) != len(visible):
        raise ValueError(
            f"model {model!r} needs {len(visible)} observed component(s), "
            f"got {len(observed)}"
        )
    if not np.isfinite(observed).all():
        raise ValueError(f"observed payoffs {observed!r} must be finite")
    hits = _matches(table.payoffs[:, col, visible], observed)
    candidates = tuple(bits for bits, hit in zip(CODEWORDS, hits) if hit)
    if not candidates:
        raise ValueError(
            f"observed payoffs {observed!r} match no codeword in column {COLUMNS[col]}"
        )
    return DecodeResult(
        candidates=candidates,
        bits_resolved=2.0 - math.log2(len(candidates)),
    )


def information_bits(table: ProtocolTable, model: str = "bob-and-charlie") -> float:
    """Bits about Alice's codeword recoverable in the worst case.

    In each column, a codeword whose entry matches ``k`` of the column's
    entries resolves ``2 - log2(k)`` bits; the metric is the minimum over
    columns of the average over the four equiprobable codewords, since Bob
    and Charlie commit to their move before Alice's choice is revealed.  2.0
    means every column separates all four codewords.
    """
    seen = table.payoffs[..., _visible(model)]
    # match[row, other, column]: the two rows' entries match in that column
    match = _matches(seen[:, None], seen[None, :])
    bits = 2.0 - np.log2(match.sum(axis=1))
    # summed row by row, in codeword order
    return float((bits.sum(axis=0) / 4.0).min())


@dataclass(frozen=True)
class InfoRelationReport:
    """Measured information values per regime plus the claimed-relation verdicts.

    The claim under test: the symmetric regimes transmit the full two bits
    while the mixed regimes transmit less, i.e. I_PP = I_EE > I_PE = I_EP.
    """

    source: str  # "oracle" | "published"
    model: str
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

    def discrepancies(self) -> list[dict]:
        """One record when the claimed relation fails, else none."""
        if self.verdicts()["relation_holds"]:
            return []
        return [
            {
                "what": "information relation {PP=EE} > {PE=EP}",
                "source": self.source,
                "model": self.model,
                "values": dict(self.values),
            }
        ]

    def to_record(self) -> dict:
        return {
            "source": self.source,
            "model": self.model,
            "values": dict(self.values),
        }


def info_relation_report(
    tables: dict[str, ProtocolTable],
    model: str = "bob-and-charlie",
) -> InfoRelationReport:
    """Information metric for the four regime tables plus relation verdicts.

    ``tables`` maps every label of ``REGIMES`` to a protocol table (for the
    published source, table2 serves both symmetric regimes and table3 both
    mixed ones).  The report's ``source`` is the tables' common provenance;
    a missing regime or mixed provenances raise ``ValueError``.
    """
    missing = set(REGIMES) - set(tables)
    if missing:
        raise ValueError(f"tables missing regimes: {sorted(missing)}")
    sources = {tables[case].provenance for case in REGIMES}
    if len(sources) != 1:
        raise ValueError(f"tables mix provenances: {sorted(sources)}")
    values = {case: information_bits(tables[case], model) for case in REGIMES}
    return InfoRelationReport(source=sources.pop(), model=model, values=values)


def oracle_regime_tables(table: PayoffTable = DEFAULT_PAYOFF_TABLE) -> dict[str, ProtocolTable]:
    """Oracle protocol tables for the four entanglement regimes, from one kernel call."""
    return dict(zip(REGIMES, _oracle_tables(REGIMES.values(), table)))


def fixture_regime_tables() -> dict[str, ProtocolTable]:
    """Published tables assigned to the regimes their captions claim."""
    return {case: fixture_table(name) for case, name in REGIME_FIXTURES.items()}
