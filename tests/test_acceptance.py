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
from pathlib import Path

import numpy as np
import pytest

from qpd3 import (
    DEFAULT_PAYOFF_TABLE,
    GameConfig,
    GridSpec,
    MODELS,
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
    oracle_regime_tables,
    outcome_probabilities,
    sample_any,
    sample_classical_limit,
    verify_nash,
)
from qpd3.cli import build_verify_bundle, main, render_json

from conftest import PRINTED_TABLE2, PRINTED_TABLE3, PRINTED_TO_PACKAGE_COL, leaf_diff

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
    # The kernel's own outcome effects E_k, read back from its probabilities
    # at gamma = 0: each player sends |0>, |1>, |+> or |+i>, and the 64
    # product projectors span every 8x8 operator, so an outcome's 64
    # probabilities fix its effect.
    states = np.array(
        [(0.0, 0.0, 0.0), (math.pi, 0.0, 0.0), (HALF_PI, 0.0, HALF_PI), (HALF_PI, 0.0, 0.0)]
    )
    kets = np.array([[1, 0], [0, 1], [1, 1], [1, 1j]]) / np.sqrt([[1], [1], [2], [2]])
    products = np.einsum("ai,bj,ck->abcijk", kets, kets, kets).reshape(64, 8)
    # <phi|E|phi> = sum_ij conj(phi_i) E_ij phi_j
    readout = np.einsum("ni,nj->nij", products.conj(), products).reshape(64, 64)
    deltas = np.linspace(0.0, HALF_PI, 50)
    index = np.indices((50, 4, 4, 4)).reshape(4, -1)
    probs = outcome_probabilities(0.0, deltas[index[0]], *states[index[1:]]).reshape(50, 64, 8)
    worst_sum = float(np.max(np.abs(probs.sum(axis=2) - 1.0)))
    worst_effect = 0.0
    for p in probs:
        effects = np.linalg.solve(readout, p.astype(complex)).T.reshape(8, 8, 8)
        # orthogonal projectors of trace 1 that sum to I: an orthonormal basis
        products_kl = np.einsum("kij,ljm->klim", effects, effects)
        want = np.einsum("kl,kim->klim", np.eye(8), effects)
        worst_effect = max(
            worst_effect,
            float(np.max(np.abs(products_kl - want))),
            float(np.max(np.abs(np.trace(effects, axis1=1, axis2=2) - 1.0))),
            float(np.max(np.abs(effects.sum(axis=0) - np.eye(8)))),
        )
    assert worst_sum <= 1e-12
    assert worst_effect <= 1e-12
    report(
        f"[PASS] criterion 4: the kernel's measurement basis is orthonormal and complete "
        f"(sum {worst_sum:.2e}, effects {worst_effect:.2e})"
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
    pp = scan.reports["PP"].payoff.as_tuple()
    ee = scan.reports["EE"].payoff.as_tuple()
    assert pp == pytest.approx((1, 1, 1), abs=1e-9)
    assert ee == pytest.approx((3, 3, 3), abs=1e-9)
    assert scan.ordering["pp_lt_ee"]

    # mixed-regime values at all four stated profiles
    by_key = {(b["case"], round(b["theta"], 9)): b for b in scan.bounds}
    pe0 = by_key[("PE", 0.0)]
    ep0 = by_key[("EP", 0.0)]
    pe_half = by_key[("PE", round(HALF_PI, 9))]
    ep_half = by_key[("EP", round(HALF_PI, 9))]

    # the bounds that the oracle supports are asserted outright
    assert pe0["holds"] and max(pe0["payoff"]) < 3 - 1e-9
    assert ep0["holds"] and max(ep0["payoff"]) < 3 - 1e-9
    assert ep_half["holds"] and max(ep_half["payoff"]) < 3 - 1e-9

    # the remaining stated profile violates its own bound under the trace
    # rule; the scan must flag it (documented discrepancy), not bury it
    assert not pe_half["holds"]
    assert max(pe_half["payoff"]) == pytest.approx(3.5, abs=1e-9)

    # the equality claim is a measured-gap verdict at the symmetric profiles
    gap = scan.ordering["pe_eq_ep_gap"]
    assert gap < 1e-9
    assert scan.ordering["chain_holds"]
    report(
        "[PASS] criterion 6: PP=1 and EE=3 asserted, PP<EE; "
        f"PE=EP gap {gap:.2e}; bound<3 holds at 3 of 4 stated profiles; "
        f"PE(theta=pi/2) payoff max {max(pe_half['payoff'])} flagged as documented discrepancy"
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
    table2 = fixture_table("table2")

    first = decode(table2, (0.0, 0.0), (2.0, 2.0), "bob-and-charlie")
    assert first.candidates == ("11",)
    assert table2.payoffs[3, 0, 0] == 5.0

    second = decode(table2, (math.pi, math.pi), (4.0, 4.0), "bob-and-charlie")
    assert second.candidates == ("00",)
    assert table2.payoffs[0, 3, 0] == 0.0

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
                assert tuple(fixture.payoffs[i, j].tolist()) == want
                checked += 1
    assert checked == 64
    report(
        "[PASS] criterion 8: both worked decodings are unique and correct; "
        "all 64 regime-fixture triples (32 printed cells, each serving two "
        "regimes) ingested exactly"
    )


def test_criterion_09_information_relation_verdicts():
    table2_full = information_bits(fixture_table("table2"), "full-triple")
    assert table2_full == 2.0

    lines = []
    for model in MODELS:
        for tables in (oracle_regime_tables(), fixture_regime_tables()):
            rep = info_relation_report(tables, model)
            verdict = rep.verdicts()
            values = ", ".join(f"{k}={v:g}" for k, v in rep.values.items())
            lines.append(
                f"    {rep.source}/{model}: {values} -> relation "
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
BUNDLE_SKELETON_SHA256 = "fbd802292cdc060922243c154e3d466000cc8fcb2529110b889bf54bf558c7a0"

#: sha256 of the seed-1729 bundle's bytes, so a change in any value's last bit
#: must update this on purpose as well.  The value holds for numpy 2.4.6 on
#: x86-64 Linux; another numpy build may round differently.
BUNDLE_SHA256 = "fa0f62c4cd088533cfa2d65b56ac866a07c65b4058704dd99dc00ac855f6dc4d"

#: sha256 of the ``qpd3 nash --scan`` report's skeleton, pinned the same way.
SCAN_SKELETON_SHA256 = "9a92ce31d1d29c3cc1d283cc0b2e645bb0b7ff26daf9d974d1d19c0b51e3f691"

#: The rendered seed-1729 bundle whose bytes ``BUNDLE_SHA256`` pins; re-pinning
#: means regenerating it with ``qpd3 verify --out tests/data/bundle_1729.json``.
GOLDEN_BUNDLE = Path(__file__).parent / "data" / "bundle_1729.json"


def test_criterion_10_verify_determinism():
    first, hard1 = build_verify_bundle(seed=1729)
    second, hard2 = build_verify_bundle(seed=1729)
    assert hard1 == hard2 == []
    bytes1 = render_json(first).encode()
    bytes2 = render_json(second).encode()
    assert bytes1 == bytes2
    # against the golden file first, so that a failure names the leaves that
    # moved and by how much, not only that a sha differs
    golden = GOLDEN_BUNDLE.read_bytes()
    assert leaf_diff(json.loads(golden), json.loads(bytes1)) == {}
    assert hashlib.sha256(golden).hexdigest() == BUNDLE_SHA256
    assert hashlib.sha256(bytes1).hexdigest() == BUNDLE_SHA256
    # also guard that the bundle actually round-trips as a JSON document
    doc = json.loads(bytes1)
    assert doc == json.loads(bytes2)
    assert len(doc["discrepancies"]) == 27
    assert list(doc["verdicts"]["checks"].values()) == [True] * 9
    skeleton = json.dumps(_skeleton(doc), sort_keys=True).encode()
    assert hashlib.sha256(skeleton).hexdigest() == BUNDLE_SKELETON_SHA256
    report(
        f"[PASS] criterion 10: verify bundles byte-identical for a fixed seed "
        f"({len(bytes1)} bytes)"
    )


def test_scan_report_skeleton_is_pinned(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["nash", "--scan", "--out", str(out)]) == 0
    skeleton = json.dumps(_skeleton(json.loads(out.read_text())), sort_keys=True).encode()
    assert hashlib.sha256(skeleton).hexdigest() == SCAN_SKELETON_SHA256
