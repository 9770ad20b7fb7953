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
from .closedform import compare_to_oracle, sample_any, sample_classical_limit
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
    measurement_basis,
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

    # Measurement basis: orthonormal and complete across a delta sweep.
    worst_gram = worst_sum = 0.0
    for delta in np.linspace(0.0, math.pi / 2, 50):
        basis = np.stack(measurement_basis(float(delta)))
        gram = basis.conj() @ basis.T
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(8)))))
        proj_sum = sum(np.outer(v, v.conj()) for v in basis)
        worst_sum = max(worst_sum, float(np.max(np.abs(proj_sum - np.eye(8)))))
    results["basis_completeness"] = _check(
        "basis_completeness",
        worst_gram <= ATOL and worst_sum <= ATOL,
        {"max_gram_error": worst_gram, "max_projector_sum_error": worst_sum},
    )

    # Born conservation over 1000 seeded draws of the whole space.  The kernel
    # itself raises once a row misses 1 by more than ATOL, so that error is
    # this check's failure.
    gamma, delta, params = sample_any(rng, 1000)
    try:
        probs = outcome_probabilities(gamma, delta, *params.transpose(1, 0, 2))
    except ValueError as exc:
        born = {"error": str(exc)}
    else:
        born = {"max_abs_sum_error": float(np.max(np.abs(probs.sum(axis=1) - 1.0)))}
    results["born_conservation"] = _check("born_conservation", "error" not in born, born)

    # Four-regime scan: the PP and EE values are analytically forced; the
    # mixed-regime bound and equality claims are measured verdicts.
    scan = four_case_scan(table, grid)
    scan_record = scan.to_record()
    results["regimes"] = scan_record
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
    verdicts["ordering"] = scan_record["ordering"]
    verdicts["bound_checks"] = scan_record["bound_checks"]
    for b in scan_record["bound_checks"]:
        if not b["holds"]:
            discrepancies.append({"what": "mixed-regime payoff bound", **b})
    if not scan_record["ordering"]["pe_eq_ep"]:
        discrepancies.append(
            {"what": "PE = EP equality", "gap": scan_record["ordering"]["pe_eq_ep_gap"]}
        )

    # Closed form vs oracle.
    restricted = compare_to_oracle(sample_classical_limit, 1000, seed=seed)
    unrestricted = compare_to_oracle(sample_any, 1000, seed=seed + 1)
    results["closed_form_classical"] = _check(
        "closed_form_classical",
        restricted.max_abs_delta <= PAYOFF_TOL,
        {"max_abs_delta": restricted.max_abs_delta},
    )
    unrestricted_record = unrestricted.to_record()
    deltas = sorted(max(s.delta_abs) for s in unrestricted.samples)
    unrestricted_record["delta_distribution"] = {
        "per_sample_max_abs_delta": deltas,
        "quantiles": {
            f"p{q:02d}": deltas[(len(deltas) - 1) * q // 100] for q in (5, 25, 50, 75, 95)
        },
    }
    unrestricted_record["note"] = (
        "deltas documented, not asserted; the printed expression carries suspected typos"
    )
    results["closed_form_unrestricted"] = unrestricted_record

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
    info_records = [
        info_relation_report(tables, ObservationModel(visible=visible)).to_record()
        for visible in _VISIBLE
        for tables in (oracle_tables, fixture_regime_tables())
    ]
    results["information"] = info_records
    table2_full = information_bits(t2, ObservationModel(visible="full-triple"))
    results["table2_full_bits"] = _check(
        "table2_full_bits", table2_full == 2.0, {"bits": table2_full}
    )
    verdicts["information_relation"] = [
        {"source": r["source"], "model": r["model"]["visible"], **r["verdicts"]}
        for r in info_records
    ]
    for r in info_records:
        if not r["verdicts"]["relation_holds"]:
            discrepancies.append(
                {
                    "what": "information relation {PP=EE} > {PE=EP}",
                    "source": r["source"],
                    "model": r["model"]["visible"],
                    "values": r["values"],
                }
            )

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
