import math
from dataclasses import replace

import numpy as np
import pytest

import qpd3.comms
from qpd3 import (
    CODEWORDS,
    COLUMNS,
    REGIMES,
    DEFAULT_PAYOFF_TABLE,
    GameConfig,
    MODELS,
    PayoffTable,
    common_move,
    decode,
    expected_payoffs,
    fixture_regime_tables,
    fixture_table,
    info_relation_report,
    information_bits,
    oracle_regime_tables,
    protocol_table,
)

from qpd3.comms import ProtocolTable
from qpd3.game import PAYOFF_TOL

from conftest import (
    PRINTED_TABLE2,
    PRINTED_TABLE3,
    PRINTED_TO_PACKAGE_COL,
    reference_decode,
    reference_information_bits,
)

HALF_PI = math.pi / 2

FULL = "full-triple"
PAIR = "bob-and-charlie"
OWN = "own"


class TestCodewords:
    def test_shipped_codewords(self):
        want = {
            "00": (0.0, 0.0, 0.0),
            "01": (math.pi / 3, HALF_PI, HALF_PI),
            "10": (HALF_PI, HALF_PI, HALF_PI),
            "11": (math.pi, math.pi, math.pi),
        }
        assert {bits: params.as_tuple() for bits, params in CODEWORDS.items()} == want

    def test_common_move_convention(self):
        move = common_move(math.pi)
        assert move.as_tuple() == (math.pi, 0.0, HALF_PI)


class TestFixtureIngestion:
    @pytest.mark.parametrize(
        "table_id,printed", [("table2", PRINTED_TABLE2), ("table3", PRINTED_TABLE3)]
    )
    def test_all_triples_exact(self, table_id, printed):
        fixture = fixture_table(table_id)
        for i in range(4):
            for printed_col in range(4):
                j = PRINTED_TO_PACKAGE_COL[printed_col]
                want = tuple(float(x) for x in printed[i][printed_col])
                # all printed values are dyadic rationals: exact as floats
                assert tuple(fixture.payoffs[i, j].tolist()) == want

    def test_provenance(self):
        assert fixture_table("table2").provenance == "published"
        with pytest.raises(ValueError):
            fixture_table("table9")

    def test_provenance_follows_the_angles(self):
        # a table with angles was computed at them; a printed fixture has none
        assert protocol_table(0.3, 0.9).provenance == "oracle"
        assert ProtocolTable("t", 0.0, 0.0, np.ones((4, 4, 3))).provenance == "oracle"
        assert ProtocolTable("t", None, None, np.ones((4, 4, 3))).provenance == "published"


class TestProtocolTable:
    def test_classical_pure_rows(self):
        table = protocol_table(0.0, 0.0)
        assert table.payoffs[0, 0].tolist() == pytest.approx([3, 3, 3], abs=1e-12)
        assert table.payoffs[3, 0].tolist() == pytest.approx([5, 2, 2], abs=1e-12)
        assert table.payoffs[3, 3].tolist() == pytest.approx([1, 1, 1], abs=1e-12)

    def test_classical_mixture_row(self):
        # Alice's pi/3 codeword defects with probability 1/4:
        # 3/4*(3,3,3) + 1/4*(5,2,2)
        table = protocol_table(0.0, 0.0)
        assert table.payoffs[1, 0].tolist() == pytest.approx([3.5, 2.75, 2.75], abs=1e-12)

    def test_classical_mixture_disagrees_with_published_row(self):
        # the published symmetric-regime table prints (3/4, 7/4, 7/4) here;
        # that cell is not reproducible as a classical mixture and the
        # disagreement is a documented discrepancy, not a bug to "fix"
        delta = protocol_table(0.0, 0.0).payoffs[1, 0] - fixture_table("table2").payoffs[1, 0]
        assert np.abs(delta).max() > 1.0

    def test_mixed_regime_tables_match_published_exactly(self):
        # the mixed-regime published table is fully consistent with the trace
        # rule, at both captioned configurations
        fixture = fixture_table("table3")
        for gamma, delta in ((0.0, HALF_PI), (HALF_PI, 0.0)):
            oracle = protocol_table(gamma, delta)
            assert np.abs(oracle.payoffs - fixture.payoffs).max() <= 1e-12

    def test_symmetric_regime_mismatch_cells_frozen(self):
        # oracle vs published symmetric table: the pure rows match at the
        # classical corner, the quantum-codeword rows do not
        fixture = fixture_table("table2")
        oracle = protocol_table(0.0, 0.0)
        cells = np.argwhere(np.abs(oracle.payoffs - fixture.payoffs).max(axis=-1) > 1e-9)
        mismatched = {tuple(cell) for cell in cells.tolist()}
        assert mismatched == {(1, j) for j in range(4)} | {(2, j) for j in range(4)}

    def test_spot_values_in_mixed_regime(self):
        table = protocol_table(0.0, HALF_PI)
        assert table.payoffs[1, 0].tolist() == pytest.approx([17 / 8, 9 / 4, 9 / 4], abs=1e-12)
        assert table.payoffs[1, 1].tolist() == pytest.approx([3, 23 / 8, 21 / 8], abs=1e-12)
        assert table.payoffs[3, 0].tolist() == pytest.approx([5 / 2, 3, 3], abs=1e-12)

    def test_oracle_entries_match_expected_payoffs(self):
        # the batched table against one oracle call per entry, in every regime
        for gamma, delta in [(0.3, 0.9), (1.3, 0.05), *REGIMES.values()]:
            config = GameConfig(gamma, delta)
            table = protocol_table(gamma, delta)
            for i, alice in enumerate(CODEWORDS.values()):
                for j, (tb, tc) in enumerate(COLUMNS):
                    want = expected_payoffs(config, alice, common_move(tb), common_move(tc))
                    assert tuple(table.payoffs[i, j].tolist()) == want.as_tuple()

    @pytest.mark.parametrize("scale", [(1.0, 0.0), (2.5, -7.0)], ids=["classic", "affine"])
    def test_regime_tables_take_one_kernel_call(self, monkeypatch, scale):
        # the four regime tables from one 64-row batch, each equal bit for
        # bit to the table of its angles alone
        a, b = scale
        entries = DEFAULT_PAYOFF_TABLE.entries
        table = PayoffTable(tuple(tuple(a * x + b for x in row) for row in entries))
        alone = {case: protocol_table(*angles, table) for case, angles in REGIMES.items()}
        rows = []
        kernel = qpd3.comms.outcome_probabilities

        def counting(*args):
            probs = kernel(*args)
            rows.append(len(probs))
            return probs

        monkeypatch.setattr(qpd3.comms, "outcome_probabilities", counting)
        tables = oracle_regime_tables(table)
        assert rows == [64]
        assert list(tables) == list(REGIMES)
        for case, got in tables.items():
            assert got.payoffs.tobytes() == alone[case].payoffs.tobytes()
            assert got.to_record() == alone[case].to_record()

    def test_payoffs_are_a_read_only_copy(self):
        source = np.ones((4, 4, 3))
        table = ProtocolTable("t", 0.0, 0.0, source)
        source[0, 0, 0] = 7.0
        assert table.payoffs[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            table.payoffs[0, 0, 0] = 7.0
        assert not protocol_table(0.3, 0.9).payoffs.flags.writeable
        assert not fixture_table("table2").payoffs.flags.writeable

    @pytest.mark.parametrize("shape", [(4, 4), (4, 4, 2), (3, 4, 3), (4, 4, 3, 1)])
    def test_wrong_shape_is_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            ProtocolTable("t", 0.0, 0.0, np.ones(shape))

    def test_column_lookup(self):
        table = fixture_table("table2")
        assert table.column_index((0.0, math.pi)) == 1
        with pytest.raises(ValueError):
            table.column_index((0.5, 0.5))


class TestDecode:
    def test_worked_example_common_cooperate(self):
        # Bob and Charlie play theta = 0, observe payoffs (2, 2): Alice's
        # move was the 11 codeword and she collected 5
        result = decode(fixture_table("table2"), (0.0, 0.0), (2.0, 2.0), PAIR)
        assert result.candidates == ("11",)
        assert result.bits_resolved == 2.0

    def test_worked_example_common_defect(self):
        result = decode(fixture_table("table2"), (math.pi, math.pi), (4.0, 4.0), PAIR)
        assert result.candidates == ("00",)
        assert fixture_table("table2").payoffs[0, 3, 0] == 0.0

    def test_row_entry_always_self_decodes(self):
        for table in (
            fixture_table("table2"),
            fixture_table("table3"),
            protocol_table(0.2, 1.1),
        ):
            for i, bits in enumerate(CODEWORDS):
                for j, col in enumerate(COLUMNS):
                    observed = table.payoffs[i, j, MODELS[FULL]].tolist()
                    result = decode(table, col, observed, FULL)
                    assert bits in result.candidates

    @pytest.mark.parametrize("shift", [6e-10, -6e-10])
    def test_entry_within_payoff_tolerance_decodes(self, shift):
        # a payoff a little off its table entry still names that entry's
        # codeword, on either side of it
        table = fixture_table("table2")
        for i, bits in enumerate(CODEWORDS):
            for j, col in enumerate(COLUMNS):
                bob, charlie = table.payoffs[i, j, MODELS[PAIR]].tolist()
                result = decode(table, col, (bob + shift, charlie + shift), PAIR)
                assert bits in result.candidates

    def test_unmatched_payoff_is_an_error(self):
        with pytest.raises(ValueError):
            decode(fixture_table("table2"), (0.0, 0.0), (1.23, 4.56), PAIR)

    @pytest.mark.parametrize("observed", [(math.nan, math.nan), (math.inf, 2.0)])
    def test_non_finite_observation_is_an_error(self, observed):
        with pytest.raises(ValueError, match=r"observed payoffs .* must be finite"):
            decode(fixture_table("table2"), (0.0, 0.0), observed, PAIR)

    def test_wrong_observation_arity_is_an_error(self):
        with pytest.raises(ValueError):
            decode(fixture_table("table2"), (0.0, 0.0), (2.0, 2.0, 2.0), PAIR)

    def test_visibility_widening_never_grows_candidates(self):
        table = protocol_table(HALF_PI, HALF_PI)
        for i in range(4):
            for j, col in enumerate(COLUMNS):
                n_own, n_pair, n_full = (
                    len(decode(table, col, table.payoffs[i, j, MODELS[m]].tolist(), m).candidates)
                    for m in (OWN, PAIR, FULL)
                )
                assert n_own >= n_pair >= n_full


def _jittered_table(rng) -> ProtocolTable:
    """Two payoff levels per component, each entry shifted by 0, +-0.5 or
    +-1.5 PAYOFF_TOL: rows collide, some within the tolerance and some not.
    At level 0 the shifts are exact, so entries +-0.5 apart sit exactly at
    the tolerance."""
    levels = rng.choice([0.0, 2.5], size=(4, 4, 3))
    shifts = rng.choice([-1.5, -0.5, 0.0, 0.5, 1.5], size=(4, 4, 3)) * PAYOFF_TOL
    return ProtocolTable("jitter", None, None, levels + shifts)


class TestMatchingRuleAgainstLoops:
    """The array decode and information metric against the nested loops they
    replaced, exactly, at entries offset within and beyond PAYOFF_TOL."""

    @pytest.mark.parametrize("model", [OWN, PAIR, FULL])
    def test_decode_candidates_equal_reference(self, model):
        rng = np.random.default_rng(808)
        for _ in range(20):
            table = _jittered_table(rng)
            for col, move_pair in enumerate(COLUMNS):
                for row in range(4):
                    seen = table.payoffs[row, col, MODELS[model]].tolist()
                    for shift in (0.0, 0.5, -0.5, 1.5, -1.5):
                        observed = tuple(x + shift * PAYOFF_TOL for x in seen)
                        want = reference_decode(table, col, observed, model)
                        if not want:
                            with pytest.raises(ValueError, match="match no codeword"):
                                decode(table, move_pair, observed, model)
                            continue
                        got = decode(table, move_pair, observed, model)
                        assert got.candidates == want
                        assert got.bits_resolved == 2.0 - math.log2(len(want))

    @pytest.mark.parametrize("model", [OWN, PAIR, FULL])
    def test_information_bits_equal_reference(self, model):
        rng = np.random.default_rng(909)
        tables = [_jittered_table(rng) for _ in range(60)]
        tables += [fixture_table("table2"), fixture_table("table3")]
        tables += list(oracle_regime_tables().values())
        values = set()
        for table in tables:
            got = information_bits(table, model)
            assert got == reference_information_bits(table, model)
            values.add(got)
        # the seeded tables resolve fewer than 2 bits, not only the full 2
        assert len(values) > 1


class TestModels:
    def test_visible_players(self):
        assert MODELS == {"own": (1,), "bob-and-charlie": (1, 2), "full-triple": (0, 1, 2)}

    @pytest.mark.parametrize(
        "call",
        [
            lambda model: decode(fixture_table("table2"), (0.0, 0.0), (2.0, 2.0), model),
            lambda model: information_bits(fixture_table("table2"), model),
            lambda model: info_relation_report(fixture_regime_tables(), model),
        ],
        ids=["decode", "information_bits", "info_relation_report"],
    )
    def test_validation(self, call):
        # every function that takes a model name rejects an unknown one,
        # naming the three choices
        with pytest.raises(ValueError, match="'own', 'bob-and-charlie', 'full-triple'"):
            call("everything")


class TestInformationBits:
    def test_published_symmetric_table_fully_decodable(self):
        assert information_bits(fixture_table("table2"), FULL) == 2.0

    def test_constant_table_carries_nothing(self):
        table = ProtocolTable(label="flat", gamma=0.0, delta=0.0, payoffs=np.ones((4, 4, 3)))
        assert information_bits(table, FULL) == 0.0

    def test_bounded(self):
        for table in (fixture_table("table2"), fixture_table("table3"), protocol_table(0.4, 0.2)):
            assert 0.0 <= information_bits(table, FULL) <= 2.0

    def test_antitone_in_visibility(self):
        for table in (fixture_table("table3"), protocol_table(HALF_PI, HALF_PI)):
            assert (
                information_bits(table, OWN)
                <= information_bits(table, PAIR)
                <= information_bits(table, FULL)
            )

    def test_published_mixed_table_is_fully_distinguishable(self):
        # the published mixed-regime table has all four rows distinct in every
        # column, so the metric measures the full two bits there, in tension
        # with the claim that half the information is lost in these regimes;
        # measured and reported, not reconciled
        assert information_bits(fixture_table("table3"), FULL) == 2.0
        assert information_bits(fixture_table("table3"), PAIR) == 2.0


class TestInfoRelationReport:
    def test_fixture_source_verdicts(self):
        report = info_relation_report(fixture_regime_tables(), FULL)
        assert report.values == {"PP": 2.0, "PE": 2.0, "EP": 2.0, "EE": 2.0}
        verdicts = report.verdicts()
        assert verdicts["pp_eq_ee"]
        assert verdicts["pe_eq_ep"]
        assert not verdicts["pp_gt_pe"]
        assert not verdicts["relation_holds"]

    def test_oracle_source_own_visibility(self):
        report = info_relation_report(oracle_regime_tables(), OWN)
        # frozen measured values: only the maximal-entanglement oracle table
        # has a Bob-payoff collision
        assert report.values["PP"] == 2.0
        assert report.values["PE"] == 2.0
        assert report.values["EP"] == 2.0
        assert report.values["EE"] == 1.5

    def test_source_is_the_tables_provenance(self):
        assert info_relation_report(fixture_regime_tables(), FULL).source == "published"
        assert info_relation_report(oracle_regime_tables(), FULL).source == "oracle"

    def test_mixed_provenances_are_rejected(self):
        tables = {**oracle_regime_tables(), "PP": fixture_table("table2")}
        with pytest.raises(ValueError, match="provenances"):
            info_relation_report(tables, FULL)

    def test_requires_all_regimes(self):
        with pytest.raises(ValueError):
            info_relation_report({"PP": fixture_table("table2")}, FULL)

    def test_record_is_serializable(self):
        import json

        report = info_relation_report(fixture_regime_tables(), PAIR)
        json.dumps(report.to_record())

    def test_discrepancies_exactly_when_the_relation_fails(self):
        measured = [
            info_relation_report(tables, model)
            for model in (OWN, PAIR, FULL)
            for tables in (oracle_regime_tables(), fixture_regime_tables())
        ]
        holding = replace(measured[0], values={"PP": 2.0, "PE": 1.0, "EP": 1.0, "EE": 2.0})
        for report in measured + [holding]:
            assert (report.discrepancies() == []) is report.verdicts()["relation_holds"]
        assert holding.discrepancies() == []
        # the relation fails in every measured source and model
        assert info_relation_report(fixture_regime_tables(), PAIR).discrepancies() == [
            {
                "what": "information relation {PP=EE} > {PE=EP}",
                "source": "published",
                "model": "bob-and-charlie",
                "values": {"PP": 2.0, "PE": 2.0, "EP": 2.0, "EE": 2.0},
            }
        ]
