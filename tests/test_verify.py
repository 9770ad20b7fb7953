"""The verification bundle as a library: no command line needed to run it."""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import qpd3
import qpd3.cli
import qpd3.equilibrium
import qpd3.verify
from qpd3.closedform import ComparisonReport, ComparisonSample
from qpd3.game import PAYOFF_TOL, REGIMES, PayoffTriple
from qpd3.verify import build_verify_bundle


def test_import_loads_no_command_line():
    code = "import sys, qpd3.verify; print(sorted({'argparse', 'qpd3.cli'} & set(sys.modules)))"
    src = str(Path(qpd3.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
    )
    assert proc.stdout == "[]\n"


def test_cli_runs_the_library_bundle():
    # the benchmark and `qpd3 verify` both read the bundle through qpd3.cli
    assert qpd3.cli.build_verify_bundle is qpd3.verify.build_verify_bundle


def test_closed_form_classical_passes_at_the_tolerance(monkeypatch):
    # "equal within PAYOFF_TOL" takes in a delta of exactly PAYOFF_TOL
    sample = ComparisonSample(
        gamma=0.0,
        delta=0.0,
        params=((0.0, 0.0, 0.0),) * 3,
        oracle=(0.0, 0.0, 0.0),
        closed_form=(PAYOFF_TOL, 0.0, 0.0),
        delta_abs=(PAYOFF_TOL, 0.0, 0.0),
    )

    def stub(sampler, n, seed=0):
        return ComparisonReport(seed=seed, samples=(sample,))

    monkeypatch.setattr(qpd3.verify, "compare_to_oracle", stub)
    doc, hard = build_verify_bundle(1729)
    assert doc["results"]["closed_form_classical"] == {
        "check": "closed_form_classical", "pass": True, "max_abs_delta": PAYOFF_TOL,
    }
    assert hard == []


#: ``what`` of the discrepancy records the four-regime scan owns.
SCAN_FINDINGS = {"mixed-regime payoff bound", "PE = EP equality"}


def _scan_discrepancies(tmp_path) -> list:
    out = tmp_path / "scan.json"
    assert qpd3.cli.main(["nash", "--scan", "--out", str(out)]) == 0
    return json.loads(out.read_text())["discrepancies"]


def _bundle_scan_discrepancies() -> list:
    doc, _ = build_verify_bundle(1729)
    records = [d for d in doc["discrepancies"] if d.get("what") in SCAN_FINDINGS]
    # the bundle round-trips through JSON just as the scan report does
    return json.loads(json.dumps(records))


def test_scan_and_bundle_state_the_scan_findings_alike(tmp_path):
    records = _scan_discrepancies(tmp_path)
    assert records == _bundle_scan_discrepancies()
    assert [(d["what"], d["case"]) for d in records] == [("mixed-regime payoff bound", "PE")]


def test_pe_ne_ep_is_a_record_in_both_reports(tmp_path, monkeypatch):
    # every PE profile pays (2, 2, 2) and every EP profile (2.5, 2.5, 2.5)
    original = qpd3.equilibrium.verify_nash
    levels = {REGIMES["PE"]: 2.0, REGIMES["EP"]: 2.5}

    def stub(profile, config, grid):
        report = original(profile, config, grid)
        level = levels.get((config.gamma, config.delta))
        return report if level is None else replace(report, payoff=PayoffTriple(*[level] * 3))

    monkeypatch.setattr(qpd3.equilibrium, "verify_nash", stub)
    records = _scan_discrepancies(tmp_path)
    assert records == [{"what": "PE = EP equality", "gap": 0.5}]
    assert records == _bundle_scan_discrepancies()
