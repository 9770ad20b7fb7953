"""The verification bundle as a library: no command line needed to run it."""

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import qpd3
import qpd3.cli
import qpd3.equilibrium
import qpd3.verify
from qpd3.game import PAYOFF_TOL, REGIMES, PayoffTriple
from qpd3.verify import build_verify_bundle

from conftest import leaf_diff


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


def _bundle_with_delta(monkeypatch, delta_abs: float):
    """The seed-1729 bundle with every closed-form comparison stubbed to one
    sample whose Alice delta is ``delta_abs``."""

    def stub(sampler, n, seed):
        oracle = np.zeros((1, 3))
        closed = np.array([[delta_abs, 0.0, 0.0]])
        return oracle, closed, np.abs(oracle - closed)

    monkeypatch.setattr(qpd3.verify, "_oracle_deltas", stub)
    return build_verify_bundle(1729)


def test_closed_form_classical_passes_at_the_tolerance(monkeypatch):
    # "equal within PAYOFF_TOL" takes in a delta of exactly PAYOFF_TOL
    doc, hard = _bundle_with_delta(monkeypatch, PAYOFF_TOL)
    assert doc["verdicts"]["checks"]["closed_form_classical"] is True
    assert doc["results"]["closed_form_classical"] == {"max_abs_delta": PAYOFF_TOL}
    assert hard == []


def test_closed_form_classical_fails_past_the_tolerance(monkeypatch):
    beyond = float(np.nextafter(PAYOFF_TOL, 1))
    doc, hard = _bundle_with_delta(monkeypatch, beyond)
    assert doc["verdicts"]["checks"]["closed_form_classical"] is False
    assert doc["results"]["closed_form_classical"] == {"max_abs_delta": beyond}
    assert hard == ["closed_form_classical"]


def test_bundle_kernel_budget(monkeypatch):
    # each check makes one batched kernel call; a per-sample loop would
    # multiply the calls, not the rows
    kernel = qpd3.game.outcome_probabilities
    calls, rows = 0, 0

    def counted(*args):
        nonlocal calls, rows
        probs = kernel(*args)
        calls, rows = calls + 1, rows + len(probs)
        return probs

    bound = [m for name, m in sys.modules.items()
             if name.split(".")[0] == "qpd3" and getattr(m, "outcome_probabilities", None) is kernel]
    assert {m.__name__ for m in bound} >= {"qpd3.game", "qpd3.closedform", "qpd3.verify"}
    for module in bound:
        monkeypatch.setattr(module, "outcome_probabilities", counted)
    build_verify_bundle(1729)
    # 1 classical-limit batch, 1 basis batch, 1 Born-conservation batch,
    # 4 calls for the scan's 6 certificates (played payoffs, then one
    # polarization batch per player), 1 batch for the 4 protocol tables,
    # and 1 batch per closed-form sampler
    assert (calls, rows) == (10, 4354)


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
    original = qpd3.equilibrium._certify
    levels = {REGIMES["PE"]: 2.0, REGIMES["EP"]: 2.5}

    def stub(profiles, gammas, deltas, table, grid):
        reports = original(profiles, gammas, deltas, table, grid)
        return [
            report if level is None else replace(report, payoff=PayoffTriple(*[level] * 3))
            for report, level in zip(reports, map(levels.get, zip(gammas, deltas)))
        ]

    monkeypatch.setattr(qpd3.equilibrium, "_certify", stub)
    records = _scan_discrepancies(tmp_path)
    assert records == [{"what": "PE = EP equality", "gap": 0.5}]
    assert records == _bundle_scan_discrepancies()


class TestLeafDiff:
    OLD = {
        "inputs": {"seed": 1729, "model": "own"},
        "results": {"bits": [2.0, 1.5], "ok": True, "none": []},
        "discrepancies": [],
    }

    def test_equal_trees_have_no_diff(self):
        assert leaf_diff(self.OLD, json.loads(json.dumps(self.OLD))) == {}

    def test_every_kind_of_change_is_named(self):
        new = json.loads(json.dumps(self.OLD))
        new["inputs"].update(seed=7, model="full-triple")
        new["results"].update(ok=False, bits=[math.nextafter(2.0, 3.0), 1.25, 0.5])
        del new["results"]["none"]
        new["discrepancies"] = [{"what": "x"}]
        assert leaf_diff(self.OLD, new) == {
            "added": ["discrepancies/0/what", "results/bits/2"],
            "removed": ["discrepancies", "results/none"],
            "changed": {
                "inputs/model": ["own", "full-triple"],
                "inputs/seed": [1729, 7],
                "results/ok": [True, False],
            },
            # 1.5 -> 1.25 is 2**50 steps of 2**-52, the ulp in [1, 2)
            "moved": {"results": {"floats": 2, "max_abs_delta": 0.25, "max_ulps": 2**50}},
        }

    def test_ulps_count_across_zero_and_types_are_kept(self):
        tiny = math.ulp(0.0)
        assert leaf_diff({"r": -tiny}, {"r": tiny})["moved"]["r"]["max_ulps"] == 2
        assert leaf_diff({"r": -0.0}, {"r": 0.0})["moved"]["r"]["floats"] == 1
        assert leaf_diff({"r": 2}, {"r": 2.0}) == {"changed": {"r": [2, 2.0]}}
