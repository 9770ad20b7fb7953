"""The verification bundle: every claim the package reproduces, checked in one run.

:func:`build_verify_bundle` checks the trace-rule payoffs, the published
closed form, the regime equilibria and the signaling protocol's information
relation against the oracle.  Each hard check passes or fails once, in
``verdicts.checks``; a published claim the oracle does not reproduce is a
documented discrepancy record instead.
Every report, the bundle and each ``qpd3`` command's, has the five sections
of :func:`report_doc`.  A fixed seed gives a byte-identical bundle.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__
from .closedform import _oracle_deltas, sample_any, sample_classical_limit
from .comms import (
    MODELS,
    REGIME_FIXTURES,
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


def _sums_to_one(gamma, delta, players) -> tuple[bool, dict]:
    """Whether every row of one kernel call sums to 1 within ``ATOL``, and the measure.

    The kernel raises on a miss beyond ``ATOL``, and that error is the
    check's failure; a smaller miss is measured here, not left to the kernel.
    """
    try:
        probs = outcome_probabilities(gamma, delta, *players)
    except ValueError as exc:
        return False, {"error": str(exc)}
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    return worst <= ATOL, {"max_abs_sum_error": worst}


def build_verify_bundle(seed: int) -> tuple[dict, list]:
    """Run every verification check; returns (report doc, hard failure names).

    Each hard check is judged once, in ``verdicts.checks`` (name -> passed, in
    run order); its measurements, if any, sit under ``results.<name>``.
    """
    grid = GridSpec()
    rng = np.random.default_rng(seed)
    table = DEFAULT_PAYOFF_TABLE
    checks: dict[str, bool] = {}
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
    checks["classical_limit"] = worst <= ATOL
    results["classical_limit"] = {"max_abs_error": worst}

    # Measurement basis, through the kernel itself.  At gamma = 0 each player
    # sends |0>, |1>, |+> or |+i>, and the 64 product projectors span every
    # 8x8 operator.  So if every row sums to 1, the kernel's 8 outcome
    # effects sum to the identity at each of the 16 deltas; each effect has
    # rank 1, so the basis the kernel applies is orthonormal and complete.
    half = math.pi / 2
    states = np.array([(0.0, 0.0, 0.0), (math.pi, 0.0, 0.0), (half, 0.0, half), (half, 0.0, 0.0)])
    index = np.indices((16, 4, 4, 4)).reshape(4, -1)
    checks["basis_completeness"], results["basis_completeness"] = _sums_to_one(
        0.0, np.linspace(0.0, half, 16)[index[0]], states[index[1:]]
    )

    # Born conservation over 1000 seeded draws of the whole space.
    gamma, delta, params = sample_any(rng, 1000)
    checks["born_conservation"], results["born_conservation"] = _sums_to_one(
        gamma, delta, params.transpose(1, 0, 2)
    )

    # Four-regime scan: the PP and EE values are analytically forced; the
    # mixed-regime bound and equality claims are measured verdicts.  The
    # payoffs and gaps these checks judge are leaves of ``results.regimes``.
    scan = four_case_scan(table, grid)
    results["regimes"] = scan.to_record()
    pp, ee = scan.reports["PP"], scan.reports["EE"]
    checks["pp_value"] = max(abs(x - 1.0) for x in pp.payoff.as_tuple()) <= PAYOFF_TOL
    checks["ee_value"] = max(abs(x - 3.0) for x in ee.payoff.as_tuple()) <= PAYOFF_TOL
    checks["pp_nash"] = pp.is_nash
    verdicts.update(scan.verdicts())
    discrepancies.extend(scan.discrepancies())

    # Closed form vs oracle: one kernel call over each sampler's 1000 rows.
    *_, restricted = _oracle_deltas(sample_classical_limit, 1000, seed)
    restricted_max = float(restricted.max())
    checks["closed_form_classical"] = restricted_max <= PAYOFF_TOL
    results["closed_form_classical"] = {"max_abs_delta": restricted_max}
    *_, unrestricted = _oracle_deltas(sample_any, 1000, seed + 1)
    deltas = np.sort(unrestricted.max(axis=1))
    results["closed_form_unrestricted"] = {
        "seed": seed + 1,
        "sample_count": len(deltas),
        "max_abs_delta": float(unrestricted.max()),
        "mean_abs_delta": float(unrestricted.mean()),
        "delta_distribution": {
            "quantiles": {
                f"p{q:02d}": float(deltas[(len(deltas) - 1) * q // 100])
                for q in (5, 25, 50, 75, 95)
            },
        },
        "note": "deltas documented, not asserted; the printed expression carries suspected typos",
    }

    # Worked signaling examples against the published table.
    t2 = fixture_table("table2")
    d1 = decode(t2, (0.0, 0.0), (2.0, 2.0), "bob-and-charlie")
    d2 = decode(t2, (math.pi, math.pi), (4.0, 4.0), "bob-and-charlie")
    # .item(): a numpy comparison gives a numpy.bool_, which render_json rejects
    ok1 = d1.candidates == ("11",) and t2.payoffs[3, 0, 0].item() == 5.0
    ok2 = d2.candidates == ("00",) and t2.payoffs[0, 3, 0].item() == 0.0
    checks["decode_examples"] = ok1 and ok2
    results["decode_examples"] = {
        "common_0_observed_2_2": d1.to_record(),
        "common_pi_observed_4_4": d2.to_record(),
    }

    # Oracle tables vs published fixtures, per regime.
    fixtures_compared = {}
    oracle_tables = oracle_regime_tables(table)
    for case, fixture_name in REGIME_FIXTURES.items():
        compared, diffs = fixture_diff(oracle_tables[case], fixture_table(fixture_name))
        fixtures_compared[f"{case}:{fixture_name}"] = compared
        for d in diffs:
            discrepancies.append({"regime": case, **d})

    # Information metric under every observation model, both sources.
    sources = (oracle_tables, fixture_regime_tables())
    info_reports = [info_relation_report(tables, model) for model in MODELS for tables in sources]
    results["information"] = [r.to_record() for r in info_reports]
    table2_full = information_bits(t2, "full-triple")
    checks["table2_full_bits"] = table2_full == 2.0
    results["table2_full_bits"] = {"bits": table2_full}
    verdicts["information_relation"] = [
        {"source": r.source, "model": r.model, **r.verdicts()} for r in info_reports
    ]
    for r in info_reports:
        discrepancies.extend(r.discrepancies())

    verdicts["checks"] = checks
    hard = [name for name, ok in checks.items() if not ok]
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
