"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Where the published material contradicts its own trace rule, the
criterion is the analytically forced subset plus a documented-discrepancy
verdict; those spots are marked "documented discrepancy" in the output and
asserted to be *flagged*, never silently accepted.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from qpd3 import (
    DEFAULT_PAYOFF_TABLE,
    GameConfig,
    GridSpec,
    ObservationModel,
    Profile,
    StrategyParams,
    compare_to_oracle,
    decode,
    expected_payoffs,
    fixture_regime_tables,
    fixture_table,
    four_case_scan,
    info_relation_report,
    information_bits,
    measurement_basis,
    oracle_regime_tables,
    outcome_probabilities,
    sample_any,
    sample_classical_limit,
    verify_nash,
)
from qpd3.cli import build_verify_bundle, render_json

from conftest import PRINTED_TABLE2, PRINTED_TABLE3, PRINTED_TO_PACKAGE_COL

HALF_PI = math.pi / 2


def report(line: str) -> None:
    print(line)


def test_criterion_01_classical_limit():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    config = GameConfig(0.0, 0.0)
    worst = 0.0
    for bits in range(8):
        want = DEFAULT_PAYOFF_TABLE.entries[bits]
        for _ in range(10):
            profile = [
                StrategyParams(
                    math.pi if (bits >> (2 - k)) & 1 else 0.0,
                    rng.uniform(-math.pi, math.pi),
                    rng.uniform(-math.pi, math.pi),
                )
                for k in range(3)
            ]
            got = expected_payoffs(config, *profile)
            worst = max(worst, max(abs(a - b) for a, b in zip(got.as_tuple(), want)))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(
        f"[PASS] criterion 1: classical limit reproduces the base table "
        f"(max error {worst:.2e}, {elapsed:.2f}s)"
    )


def test_criterion_02_all_defect_grid_nash():
    started = time.perf_counter()
    profile = Profile(*(StrategyParams(math.pi, 0.0, HALF_PI),) * 3)
    result = verify_nash(profile, GameConfig(0.0, 0.0), GridSpec())
    elapsed = time.perf_counter() - started
    assert result.is_nash
    assert result.payoff.as_tuple() == pytest.approx((1, 1, 1), abs=1e-9)
    assert elapsed < 30.0
    report(
        f"[PASS] criterion 2: all-defect profile is grid-Nash with payoff (1,1,1) "
        f"(max gap {max(result.gaps):.2e}, {elapsed:.1f}s)"
    )


def test_criterion_03_max_entanglement_value():
    got = expected_payoffs(
        GameConfig(HALF_PI, HALF_PI),
        StrategyParams(0.0, math.pi, math.pi),
        StrategyParams(0.0, 0.0, HALF_PI),
        StrategyParams(0.0, 0.0, HALF_PI),
    )
    assert got.as_tuple() == pytest.approx((3, 3, 3), abs=1e-9)
    report("[PASS] criterion 3: maximal-entanglement equilibrium payoff equals (3,3,3)")


def test_criterion_04_measurement_basis_complete():
    worst_gram = worst_sum = 0.0
    for delta in np.linspace(0.0, HALF_PI, 50):
        basis = np.stack(measurement_basis(float(delta)))
        worst_gram = max(worst_gram, float(np.max(np.abs(basis.conj() @ basis.T - np.eye(8)))))
        total = sum(np.outer(v, v.conj()) for v in basis)
        worst_sum = max(worst_sum, float(np.max(np.abs(total - np.eye(8)))))
    assert worst_gram <= 1e-12
    assert worst_sum <= 1e-12
    report(
        f"[PASS] criterion 4: measurement basis orthonormal and complete "
        f"(gram {worst_gram:.2e}, sum {worst_sum:.2e})"
    )


def test_criterion_05_born_conservation():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        config = GameConfig(rng.uniform(0, HALF_PI), rng.uniform(0, HALF_PI))
        profile = [
            StrategyParams(
                rng.uniform(0, math.pi),
                rng.uniform(-math.pi, math.pi),
                rng.uniform(-math.pi, math.pi),
            )
            for _ in range(3)
        ]
        total = outcome_probabilities(
            config.gamma, config.delta, *(p.as_tuple() for p in profile)
        ).sum()
        worst = max(worst, abs(total - 1.0))
    assert worst <= 1e-12
    report(f"[PASS] criterion 5: Born-rule conservation over 1000 draws (max {worst:.2e})")


def test_criterion_06_regime_ordering():
    scan = four_case_scan()

    # analytically forced subset: hard assertions
    pp = scan.report_for("PP").payoff.as_tuple()
    ee = scan.report_for("EE").payoff.as_tuple()
    assert pp == pytest.approx((1, 1, 1), abs=1e-9)
    assert ee == pytest.approx((3, 3, 3), abs=1e-9)
    assert scan.ordering["pp_lt_ee"]

    # mixed-regime values at all four stated profiles
    by_key = {(b.case, round(b.theta, 9)): b for b in scan.bounds}
    pe0 = by_key[("PE", 0.0)]
    ep0 = by_key[("EP", 0.0)]
    pe_half = by_key[("PE", round(HALF_PI, 9))]
    ep_half = by_key[("EP", round(HALF_PI, 9))]

    # the bounds that the oracle supports are asserted outright
    assert pe0.holds and max(pe0.payoff) < 3 - 1e-9
    assert ep0.holds and max(ep0.payoff) < 3 - 1e-9
    assert ep_half.holds and max(ep_half.payoff) < 3 - 1e-9

    # the remaining stated profile violates its own bound under the trace
    # rule; the scan must flag it (documented discrepancy), not bury it
    assert not pe_half.holds
    assert max(pe_half.payoff) == pytest.approx(3.5, abs=1e-9)

    # the equality claim is a measured-gap verdict at the symmetric profiles
    gap = scan.ordering["pe_eq_ep_gap"]
    assert gap < 1e-9
    assert scan.ordering["chain_holds"]
    report(
        "[PASS] criterion 6: PP=1 and EE=3 asserted, PP<EE; "
        f"PE=EP gap {gap:.2e}; bound<3 holds at 3 of 4 stated profiles; "
        f"PE(theta=pi/2) payoff max {max(pe_half.payoff)} flagged as documented discrepancy"
    )


def test_criterion_07_closed_form_report():
    restricted = compare_to_oracle(sample_classical_limit, 1000, seed=7)
    assert restricted.max_abs_delta < 1e-9

    unrestricted = compare_to_oracle(sample_any, 1000, seed=8)
    deltas = sorted(max(s.delta_abs) for s in unrestricted.samples)
    assert all(math.isfinite(d) for d in deltas)
    quartiles = (
        deltas[len(deltas) // 4],
        deltas[len(deltas) // 2],
        deltas[3 * len(deltas) // 4],
    )
    report(
        "[PASS] criterion 7: closed form matches oracle at the classical corner "
        f"(max {restricted.max_abs_delta:.2e}); unrestricted deltas documented "
        f"(max {unrestricted.max_abs_delta:.3g}, quartiles {quartiles[0]:.3g}/"
        f"{quartiles[1]:.3g}/{quartiles[2]:.3g}); no equality asserted"
    )


def test_criterion_08_signaling_worked_examples():
    pair = ObservationModel(visible="bob-and-charlie")
    table2 = fixture_table("table2")

    first = decode(table2, (0.0, 0.0), (2.0, 2.0), pair)
    assert [c.bits for c in first.candidates] == ["11"]
    assert table2.entry(3, 0).alice == 5.0

    second = decode(table2, (math.pi, math.pi), (4.0, 4.0), pair)
    assert [c.bits for c in second.candidates] == ["00"]
    assert table2.entry(0, 3).alice == 0.0

    # each printed table carries 16 triples and serves two regimes, so the
    # four regime fixtures expose 64 triples in total; check them all
    printed_by_id = {"table2": PRINTED_TABLE2, "table3": PRINTED_TABLE3}
    regime_fixture_ids = {"PP": "table2", "EE": "table2", "PE": "table3", "EP": "table3"}
    checked = 0
    regime_tables = fixture_regime_tables()
    for case, table_id in regime_fixture_ids.items():
        fixture = regime_tables[case]
        printed = printed_by_id[table_id]
        for i in range(4):
            for printed_col in range(4):
                j = PRINTED_TO_PACKAGE_COL[printed_col]
                want = tuple(float(x) for x in printed[i][printed_col])
                assert fixture.entry(i, j).as_tuple() == want
                checked += 1
    assert checked == 64
    report(
        "[PASS] criterion 8: both worked decodings are unique and correct; "
        "all 64 regime-fixture triples (32 printed cells, each serving two "
        "regimes) ingested exactly"
    )


def test_criterion_09_information_relation_verdicts():
    table2_full = information_bits(
        fixture_table("table2"), ObservationModel(visible="full-triple")
    )
    assert table2_full == 2.0

    lines = []
    for visible in ("own", "bob-and-charlie", "full-triple"):
        model = ObservationModel(visible=visible)
        for source, tables in (
            ("oracle", oracle_regime_tables()),
            ("published", fixture_regime_tables()),
        ):
            rep = info_relation_report(tables, model, source=source)
            verdict = rep.verdicts()
            values = ", ".join(f"{k}={v:g}" for k, v in rep.values.items())
            lines.append(
                f"    {source}/{visible}: {values} -> relation "
                f"{'holds' if verdict['relation_holds'] else 'FAILS (documented)'}"
            )
    report(
        "[PASS] criterion 9: published symmetric table carries 2.0 bits under full "
        "visibility; relation verdicts emitted per source and model:\n" + "\n".join(lines)
    )


def _skeleton(node):
    """A JSON tree with every number replaced by its type name; keys,
    strings, booleans, None and list lengths stay."""
    if isinstance(node, dict):
        return {k: _skeleton(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_skeleton(v) for v in node]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return type(node).__name__
    return node


#: sha256 of the seed-1729 bundle's skeleton: a change to the bundle's keys,
#: strings, verdicts or record counts must update this on purpose.
BUNDLE_SKELETON_SHA256 = "4c22e013beffe676a3c0a98b607de0c994f8275e3e95be3d9d0d5cade6e3996e"


def test_criterion_10_verify_determinism():
    first, hard1 = build_verify_bundle(seed=1729)
    second, hard2 = build_verify_bundle(seed=1729)
    assert hard1 == hard2 == []
    bytes1 = render_json(first).encode()
    bytes2 = render_json(second).encode()
    assert bytes1 == bytes2
    # also guard that the bundle actually round-trips as a JSON document
    doc = json.loads(bytes1)
    assert doc == json.loads(bytes2)
    assert len(doc["discrepancies"]) == 27
    skeleton = json.dumps(_skeleton(doc), sort_keys=True).encode()
    assert hashlib.sha256(skeleton).hexdigest() == BUNDLE_SKELETON_SHA256
    report(
        f"[PASS] criterion 10: verify bundles byte-identical for a fixed seed "
        f"({len(bytes1)} bytes)"
    )
