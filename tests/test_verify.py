"""The verification bundle as a library: no command line needed to run it."""

import subprocess
import sys
from pathlib import Path

import qpd3
import qpd3.cli
import qpd3.verify
from qpd3.closedform import ComparisonReport, ComparisonSample
from qpd3.game import PAYOFF_TOL
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
