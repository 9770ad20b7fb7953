"""The verification bundle: every claim the package reproduces, checked in one run.

:func:`build_verify_bundle` checks the trace-rule payoffs, the published
closed form, the regime equilibria and the signaling protocol's information
relation against the oracle.  Hard checks pass or fail; a published claim
the oracle does not reproduce is a documented discrepancy record instead.
Every report, the bundle and each ``qpd3`` command's, has the five sections
of :func:`report_doc`.  A fixed seed gives a byte-identical bundle.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__
from .closedform import _delta_summary, _oracle_deltas, sample_any, sample_classical_limit
from .comms import (
    _VISIBLE,
    REGIME_FIXTURES,
    ObservationModel,
    decode,
    fixture_diff,
    fixture_regime_tables,
    fixture_table,
    info_relation_report,
    information_bits,
    oracle_regime_tables,
)
from .equilibrium import GridSpec, four_case_scan
from .game import (
    _PARAM_HI,
    _PARAM_LO,
    ATOL,
    DEFAULT_PAYOFF_TABLE,
    PAYOFF_TOL,
    outcome_probabilities,
)


def report_doc(inputs: dict, results: dict, fixtures_compared=None, verdicts=None, discrepancies=None) -> dict:
    """A report with the five sections every command writes; an omitted one is empty."""
    return {
        "inputs": inputs,
        "results": results,
        "fixtures-compared": fixtures_compared if fixtures_compared is not None else {},
        "verdicts": verdicts if verdicts is not None else {},
        "discrepancies": discrepancies if discrepancies is not None else [],
    }


def _check(name: str, ok: bool, detail: dict) -> dict:
    return {"check": name, "pass": bool(ok), **detail}


def _sums_to_one(name: str, gamma, delta, players) -> dict:
    """Check ``name``: every row of one kernel call sums to 1 within ``ATOL``.

    The kernel raises on a miss beyond ``ATOL``, and that error is the
    check's failure; a smaller miss is measured here, not left to the kernel.
    """
    try:
        probs = outcome_probabilities(gamma, delta, *players)
    except ValueError as exc:
        return _check(name, False, {"error": str(exc)})
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    return _check(name, worst <= ATOL, {"max_abs_sum_error": worst})


def checks(results: dict) -> list[tuple[str, bool]]:
    """Each hard check among a bundle's ``results`` and whether it passed, in order."""
    return [(name, e["pass"]) for name, e in results.items() if isinstance(e, dict) and "pass" in e]


def build_verify_bundle(seed: int) -> tuple[dict, list]:
    """Run every verification check; returns (report doc, hard failure names)."""
    grid = GridSpec()
    rng = np.random.default_rng(seed)
    table = DEFAULT_PAYOFF_TABLE
    results: dict = {}
    verdicts: dict = {}
    discrepancies: list = []

    # Classical limit: pure strategies at gamma = delta = 0 reproduce the
    # base payoff table no matter the phases; 10 random-phase profiles per
    # outcome, drawn as (alpha, beta) per player.
    bits = np.repeat(np.arange(8), 10)
    defects = (bits[:, None] >> np.array([2, 1, 0])) & 1
    profiles = np.empty((80, 3, 3))
    profiles[..., 0] = math.pi * defects
    profiles[..., 1:] = rng.uniform(_PARAM_LO[1:], _PARAM_HI[1:], size=(80, 3, 2))
    probs = outcome_probabilities(0.0, 0.0, *profiles.transpose(1, 0, 2))
    worst = float(np.max(np.abs(table.expected(probs) - np.array(table.entries)[bits])))
    results["classical_limit"] = _check("classical_limit", worst <= ATOL, {"max_abs_error": worst})

    # Measurement basis, through the kernel itself.  At gamma = 0 each player
    # sends |0>, |1>, |+> or |+i>, and the 64 product projectors span every
    # 8x8 operator.  So if every row sums to 1, the kernel's 8 outcome
    # effects sum to the identity at each of the 16 deltas; each effect has
    # rank 1, so the basis the kernel applies is orthonormal and complete.
    half = math.pi / 2
    states = np.array([(0.0, 0.0, 0.0), (math.pi, 0.0, 0.0), (half, 0.0, half), (half, 0.0, 0.0)])
    index = np.indices((16, 4, 4, 4)).reshape(4, -1)
    results["basis_completeness"] = _sums_to_one(
        "basis_completeness", 0.0, np.linspace(0.0, half, 16)[index[0]], states[index[1:]]
    )

    # Born conservation over 1000 seeded draws of the whole space.
    gamma, delta, params = sample_any(rng, 1000)
    results["born_conservation"] = _sums_to_one(
        "born_conservation", gamma, delta, params.transpose(1, 0, 2)
    )

    # Four-regime scan: the PP and EE values are analytically forced; the
    # mixed-regime bound and equality claims are measured verdicts.
    scan = four_case_scan(table, grid)
    results["regimes"] = scan.to_record()
    pp = scan.report_for("PP").payoff
    ee = scan.report_for("EE").payoff
    results["pp_value"] = _check(
        "pp_value",
        max(abs(x - 1.0) for x in pp.as_tuple()) <= PAYOFF_TOL,
        {"payoff": list(pp.as_tuple())},
    )
    results["ee_value"] = _check(
        "ee_value",
        max(abs(x - 3.0) for x in ee.as_tuple()) <= PAYOFF_TOL,
        {"payoff": list(ee.as_tuple())},
    )
    results["pp_nash"] = _check(
        "pp_nash", scan.report_for("PP").is_nash, {"gaps": list(scan.report_for("PP").gaps)}
    )
    verdicts.update(scan.verdicts())
    discrepancies.extend(scan.discrepancies())

    # Closed form vs oracle: one kernel call over each sampler's 1000 rows.
    *_, restricted = _oracle_deltas(sample_classical_limit, 1000, seed)
    restricted_max, _ = _delta_summary(restricted)
    results["closed_form_classical"] = _check(
        "closed_form_classical",
        restricted_max <= PAYOFF_TOL,
        {"max_abs_delta": restricted_max},
    )
    *_, unrestricted = _oracle_deltas(sample_any, 1000, seed + 1)
    max_abs, mean_abs = _delta_summary(unrestricted)
    deltas = np.sort(unrestricted.max(axis=1)).tolist()
    results["closed_form_unrestricted"] = {
        "seed": seed + 1,
        "sample_count": len(deltas),
        "max_abs_delta": max_abs,
        "mean_abs_delta": mean_abs,
        "delta_distribution": {
            "per_sample_max_abs_delta": deltas,
            "quantiles": {
                f"p{q:02d}": deltas[(len(deltas) - 1) * q // 100] for q in (5, 25, 50, 75, 95)
            },
        },
        "note": "deltas documented, not asserted; the printed expression carries suspected typos",
    }

    # Worked signaling examples against the published table.
    t2 = fixture_table("table2")
    model = ObservationModel(visible="bob-and-charlie")
    d1 = decode(t2, (0.0, 0.0), (2.0, 2.0), model)
    d2 = decode(t2, (math.pi, math.pi), (4.0, 4.0), model)
    ok1 = [c.bits for c in d1.candidates] == ["11"] and t2.entry(3, 0).alice == 5.0
    ok2 = [c.bits for c in d2.candidates] == ["00"] and t2.entry(0, 3).alice == 0.0
    results["decode_examples"] = _check(
        "decode_examples",
        ok1 and ok2,
        {
            "common_0_observed_2_2": d1.to_record(),
            "common_pi_observed_4_4": d2.to_record(),
        },
    )

    # Oracle tables vs published fixtures, per regime.
    fixtures_compared = {}
    oracle_tables = oracle_regime_tables(table)
    for case, fixture_name in REGIME_FIXTURES.items():
        compared, diffs = fixture_diff(oracle_tables[case], fixture_table(fixture_name))
        fixtures_compared[f"{case}:{fixture_name}"] = compared
        for d in diffs:
            discrepancies.append({"regime": case, **d})

    # Information metric under every observation model, both sources.
    info_reports = [
        info_relation_report(tables, ObservationModel(visible=visible))
        for visible in _VISIBLE
        for tables in (oracle_tables, fixture_regime_tables())
    ]
    results["information"] = [r.to_record() for r in info_reports]
    table2_full = information_bits(t2, ObservationModel(visible="full-triple"))
    results["table2_full_bits"] = _check(
        "table2_full_bits", table2_full == 2.0, {"bits": table2_full}
    )
    verdicts["information_relation"] = [
        {"source": r.source, "model": r.model.visible, **r.verdicts()} for r in info_reports
    ]
    for r in info_reports:
        discrepancies.extend(r.discrepancies())

    hard = [name for name, ok in checks(results) if not ok]
    verdicts["hard_failures"] = hard
    doc = report_doc(
        inputs={
            "command": "verify",
            "seed": seed,
            "grid": grid.to_record(),
            "version": __version__,
            "tolerances": {"algebraic": ATOL, "payoff": PAYOFF_TOL},
        },
        results=results,
        fixtures_compared=fixtures_compared,
        verdicts=verdicts,
        discrepancies=discrepancies,
    )
    return doc, hard
