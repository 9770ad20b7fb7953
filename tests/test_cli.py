import argparse
import ast
import inspect
import json
import math
import os
import re
import shlex
import stat
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qpd3
import qpd3.cli
import qpd3.verify
from qpd3.cli import (
    DEFAULT_SEED,
    UsageError,
    atomic_write,
    build_parser,
    build_verify_bundle,
    load_payoff_table,
    main,
    parse_angle,
    parse_grid,
    parse_params,
)

SECTIONS = {"inputs", "results", "fixtures-compared", "verdicts", "discrepancies"}


def assert_usage_error(argv, tmp_path, capsys, *needles):
    """``argv`` exits 2 with one ``error:`` line naming ``needles`` and writes nothing."""
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as excinfo:
        # one word, so that no subcommand takes the path for its name
        main(argv + [f"--out={out}"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert all(needle in captured.err for needle in needles)
    assert not out.exists()


def stdout_report(argv, capsys) -> dict:
    """The report ``argv`` prints to stdout when no ``--out`` is given."""
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def stderr_of_two_runs(argv, capsys) -> list[str]:
    """stderr of two runs of ``argv``, each of which must exit 2."""
    errs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        errs.append(capsys.readouterr().err)
    return errs


def write_table(path: Path, rows: dict | None = None) -> Path:
    """The classic payoff table as a ``--payoffs`` file, with ``rows`` replaced."""
    entries = {**qpd3.DEFAULT_PAYOFF_TABLE.as_mapping(), **(rows or {})}
    path.write_text(json.dumps(entries))
    return path


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0", 0.0),
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("pi/2", math.pi / 2),
            ("pi/3", math.pi / 3),
            ("3pi/4", 3 * math.pi / 4),
            ("2pi/3", 2 * math.pi / 3),
            ("0.5", 0.5),
            ("PI/2", math.pi / 2),
            (" pi / 4 ", math.pi / 4),
        ],
    )
    def test_accepted_forms(self, text, value):
        assert parse_angle(text) == pytest.approx(value, abs=1e-15)

    @pytest.mark.parametrize(
        "text",
        [
            "", "twopi", "pi/0", "1,2", "pie",
            pytest.param("1" + "0" * 400 + "pi", id="beyond-float"),
        ],
    )
    def test_rejected_forms(self, text):
        with pytest.raises(UsageError):
            parse_angle(text)

    def test_parse_params(self):
        p = parse_params("pi,pi,pi")
        assert p.as_tuple() == (math.pi, math.pi, math.pi)
        with pytest.raises(UsageError):
            parse_params("pi,pi")
        with pytest.raises(UsageError):
            parse_params("2pi,0,0")  # theta out of range

    def test_parse_grid(self):
        assert parse_grid("5,7,9").to_record() == {
            "theta_points": 5,
            "alpha_points": 7,
            "beta_points": 9,
        }
        with pytest.raises(UsageError):
            parse_grid("5,7")
        # rejected while parsing, before anything of the grid is built
        with pytest.raises(UsageError, match="beyond the limit"):
            parse_grid("1000,1000,1000")


class TestPayoffCommand:
    @pytest.mark.parametrize(
        "gamma,delta,alice,bob,charlie,expected",
        [
            ("0", "0", "0,0,0", "0,0,0", "0,0,0", (3, 3, 3)),
            ("pi/2", "pi/2", "0,pi,pi", "0,0,0", "0,0,0", (3, 3, 3)),
            ("0", "0", "pi,pi,pi", "0,0,pi/2", "0,0,pi/2", (5, 2, 2)),
        ],
    )
    def test_reference_profiles(self, capsys, gamma, delta, alice, bob, charlie, expected):
        argv = ["payoff", "--gamma", gamma, "--delta", delta,
                "--alice", alice, "--bob", bob, "--charlie", charlie]
        payoffs = stdout_report(argv, capsys)["results"]["payoffs"]
        assert payoffs == pytest.approx(expected, abs=1e-12)

    def test_malformed_angle_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["payoff", "--gamma", "bogus", "--delta", "0",
                  "--alice", "0,0,0", "--bob", "0,0,0", "--charlie", "0,0,0"])
        assert excinfo.value.code == 2

    def test_out_of_range_angle_exits_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["payoff", "--gamma", "pi", "--delta", "0",
                  "--alice", "0,0,0", "--bob", "0,0,0", "--charlie", "0,0,0"])
        assert excinfo.value.code == 2

    def test_report_file_sections(self, tmp_path):
        out = tmp_path / "payoff.json"
        rc = main(["payoff", "--gamma", "0", "--delta", "0",
                   "--alice", "0,0,0", "--bob", "0,0,0", "--charlie", "0,0,0",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == SECTIONS
        assert doc["results"]["payoffs"] == [3, 3, 3]
        assert doc["fixtures-compared"] == {}
        assert doc["discrepancies"] == []

    def test_report_takes_one_kernel_call(self, monkeypatch, tmp_path):
        # payoffs and outcome probabilities come from the same kernel call
        spy = mock.Mock(wraps=qpd3.game.moves)
        monkeypatch.setattr(qpd3.game, "moves", spy)
        rc = main(["payoff", "--gamma", "pi/3", "--delta", "0.7",
                   "--alice", "pi/2,0.3,-1", "--bob", "1,2,3", "--charlie", "pi,pi,-pi",
                   "--out", str(tmp_path / "payoff.json")])
        assert rc == 0
        assert spy.call_count == 1


class TestTableCommand:
    def test_auto_fixture_and_discrepancies(self, tmp_path):
        out = tmp_path / "table.json"
        rc = main(["table", "--gamma", "0", "--delta", "0", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["inputs"]["fixture"] == "table2"
        assert not doc["verdicts"]["matches_fixture"]
        # exactly the two quantum-codeword rows disagree at the classical corner
        rows = {d["codeword"] for d in doc["discrepancies"]}
        assert rows == {"01", "10"}

    def test_mixed_regime_matches_fixture(self, tmp_path):
        out = tmp_path / "table.json"
        rc = main(["table", "--gamma", "0", "--delta", "pi/2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["inputs"]["fixture"] == "table3"
        assert doc["verdicts"]["matches_fixture"]
        assert doc["discrepancies"] == []

    def test_custom_table_is_not_compared_with_a_fixture(self, tmp_path):
        # the fixtures hold the classic payoffs, so a custom table at a regime
        # corner must not pick one up on its own
        payoffs = write_table(tmp_path / "custom.json", {"000": [4, 4, 4]})
        out = tmp_path / "table.json"
        rc = main(["table", "--gamma", "0", "--delta", "0",
                   "--payoffs", str(payoffs), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["inputs"]["fixture"] is None
        assert doc["fixtures-compared"] == {}
        assert doc["verdicts"] == {}
        assert doc["discrepancies"] == []
        assert doc["results"]["table"]["rows"][0]["payoffs"][0] == [4.0, 4.0, 4.0]

    def test_custom_table_is_compared_on_request(self, tmp_path):
        payoffs = write_table(tmp_path / "custom.json", {"000": [4, 4, 4]})
        out = tmp_path / "table.json"
        rc = main(["table", "--gamma", "0", "--delta", "0", "--fixture", "table2",
                   "--payoffs", str(payoffs), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["inputs"]["fixture"] == "table2"
        assert doc["verdicts"]["matches_fixture"] is False
        assert len(doc["discrepancies"]) == 9

    def test_classic_table_file_is_compared_like_the_default(self, tmp_path):
        payoffs = write_table(tmp_path / "classic.json")
        out = tmp_path / "table.json"
        rc = main(["table", "--gamma", "0", "--delta", "pi/2",
                   "--payoffs", str(payoffs), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["inputs"]["fixture"] == "table3"
        assert doc["verdicts"]["matches_fixture"] is True

    def test_table1_is_not_a_protocol_fixture(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "--gamma", "0", "--delta", "0", "--fixture", "table1"])
        assert excinfo.value.code == 2


class TestNashCommand:
    def test_profile_mode(self, tmp_path):
        out = tmp_path / "nash.json"
        rc = main(["nash", "--gamma", "0", "--delta", "0",
                   "--alice", "pi,0,pi/2", "--bob", "pi,0,pi/2", "--charlie", "pi,0,pi/2",
                   "--grid", "5,5,5", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["verdicts"]["is_nash"] is True
        assert doc["results"]["payoff"] == [
            pytest.approx(1.0, abs=1e-9)
        ] * 3

    def test_missing_profile_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["nash", "--gamma", "0", "--delta", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "extra",
        [["--alice", "0,0,0"], ["--bob", "0,0,0"], ["--charlie", "0,0,0"],
         ["--gamma", "0"], ["--delta", "pi/2"]],
        ids=["alice", "bob", "charlie", "gamma", "delta"],
    )
    def test_scan_rejects_profile_options(self, tmp_path, capsys, extra):
        # --gamma 0 is the profile mode's default value, and is still rejected
        argv = ["nash", "--scan", "--grid", "3,3,3", *extra]
        assert_usage_error(argv, tmp_path, capsys, "--scan", extra[0])

    @pytest.mark.parametrize("grid", ["2,2,x", "2,2", "2,2,2,2"])
    def test_malformed_grid_names_the_option(self, tmp_path, capsys, grid):
        argv = ["nash", "--scan", "--grid", grid]
        assert_usage_error(argv, tmp_path, capsys, "--grid", repr(grid))

    def test_profile_angles_default_to_zero(self, tmp_path):
        moves = ["--alice", "pi,0,pi/2", "--bob", "pi,0,pi/2", "--charlie", "pi,0,pi/2",
                 "--grid", "3,3,3"]
        docs = []
        for angles in ([], ["--gamma", "0", "--delta", "0"]):
            out = tmp_path / f"nash{len(angles)}.json"
            assert main(["nash", *moves, *angles, "--out", str(out)]) == 0
            docs.append(out.read_text())
        assert docs[0] == docs[1]

    def test_scan_mode(self, tmp_path):
        out = tmp_path / "scan.json"
        rc = main(["nash", "--scan", "--grid", "5,5,5", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        ordering = doc["verdicts"]["ordering"]
        assert ordering["chain_holds"] is True
        assert ordering["values"]["PP"] == pytest.approx(1.0, abs=1e-9)
        assert ordering["values"]["EE"] == pytest.approx(3.0, abs=1e-9)
        # the one violated bound claim shows up as a discrepancy record
        assert any(d["case"] == "PE" and not d["holds"] for d in doc["discrepancies"])


class TestCommCommands:
    def test_decode_fixture_example(self, capsys):
        results = stdout_report(DECODE_ARGS, capsys)["results"]
        assert results["decoded"]["candidates"] == ["11"]
        assert results["alice_payoff_by_candidate"] == {"11": 5.0}

    def test_decode_report(self, tmp_path):
        out = tmp_path / "decode.json"
        rc = main(["comm", "decode", "--fixture", "table2",
                   "--common", "pi,pi", "--observed", "4,4", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["decoded"]["candidates"] == ["00"]
        assert doc["results"]["alice_payoff_by_candidate"]["00"] == 0.0
        assert doc["verdicts"]["unique"] is True

    def test_decode_requires_source(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["comm", "decode", "--common", "0,0", "--observed", "2,2"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "extra",
        [["--gamma", "0.3"], ["--delta", "0"], ["--payoffs", "table.json"]],
        ids=["gamma", "delta", "payoffs"],
    )
    def test_decode_fixture_rejects_oracle_options(self, tmp_path, capsys, extra):
        argv = ["comm", "decode", "--fixture", "table2", "--common", "0,0",
                "--observed", "2,2", *extra]
        assert_usage_error(argv, tmp_path, capsys, "--fixture", extra[0])

    def test_decode_unmatched_payoff_fails(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["comm", "decode", "--fixture", "table2",
                  "--common", "0,0", "--observed", "9,9"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("observed", ["x", ",2", "nan,nan", "1e400,2"])
    def test_malformed_observation_names_the_option(self, tmp_path, capsys, observed):
        argv = ["comm", "decode", "--fixture", "table2", "--common", "0,0",
                "--observed", observed]
        assert_usage_error(argv, tmp_path, capsys, "--observed", repr(observed))

    def test_simulate_report(self, tmp_path):
        out = tmp_path / "sim.json"
        rc = main(["comm", "simulate", "--gamma", "0", "--delta", "pi/2",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["verdicts"]["fully_decodable"] is True
        assert len(doc["results"]["transmissions"]) == 8  # 4 codewords x 2 common moves
        # keyed by the same model names as --model and inputs.model
        info = doc["results"]["information_bits"]
        assert doc["inputs"]["model"] == "bob-and-charlie"
        assert info == {"own": 2.0, "bob-and-charlie": 2.0, "full-triple": 2.0}


class TestPayoffTableFile:
    def test_custom_table(self, tmp_path, capsys):
        table_file = tmp_path / "flat.json"
        table_file.write_text(
            json.dumps({format(b, "03b"): [1.0, 1.0, 1.0] for b in range(8)})
        )
        doc = stdout_report(PAYOFF_ARGS + ["--payoffs", str(table_file)], capsys)
        assert doc["results"]["payoffs"] == [1.0, 1.0, 1.0]

    def test_bad_schema_rejected(self, tmp_path):
        table_file = tmp_path / "bad.json"
        table_file.write_text(json.dumps({"000": [1, 2, 3]}))
        with pytest.raises(UsageError):
            load_payoff_table(str(table_file))

    @pytest.mark.parametrize(
        "row",
        [3, None, [[1], 2, 3], "123", [10**400, 1, 1]],
        ids=["number", "null", "nested", "string", "beyond-float"],
    )
    def test_malformed_row_exits_with_message(self, tmp_path, capsys, row):
        entries = {format(b, "03b"): [1.0, 1.0, 1.0] for b in range(8)}
        entries["011"] = row
        table_file = tmp_path / "bad.json"
        table_file.write_text(json.dumps(entries))
        out = tmp_path / "payoff.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["payoff", "--gamma", "0", "--delta", "0",
                  "--alice", "0,0,0", "--bob", "0,0,0", "--charlie", "0,0,0",
                  "--payoffs", str(table_file), "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'011'" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_missing_file_exits_with_message(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert stderr_of_two_runs(PAYOFF_ARGS + ["--payoffs", str(missing)], capsys) == [
            f"error: cannot read {missing}: No such file or directory\n"
        ] * 2

    def test_malformed_json_names_the_file(self, tmp_path, capsys):
        malformed = tmp_path / "malformed.json"
        malformed.write_text('{"000": [1 2]}')
        assert stderr_of_two_runs(PAYOFF_ARGS + ["--payoffs", str(malformed)], capsys) == [
            f"error: cannot parse {malformed}: "
            "Expecting ',' delimiter: line 1 column 12 (char 11)\n"
        ] * 2


class TestAtomicWrite:
    def test_writes_complete_file(self, tmp_path):
        target = tmp_path / "x.json"
        atomic_write(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_report_gets_the_plain_write_mode(self, tmp_path, umask):
        # --out gives a report the mode open(path, "w") would, 0o666 & ~umask,
        # both new and over an existing file of another mode
        fresh, existing = tmp_path / "fresh.json", tmp_path / "existing.json"
        existing.write_text("old\n")
        existing.chmod(0o600 if umask == 0o022 else 0o644)
        previous = os.umask(umask)
        try:
            for out in (fresh, existing):
                assert main(["table", "--gamma", "0", "--delta", "0", "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(existing.stat().st_mode) == 0o666 & ~umask

    def test_missing_directory_exits_with_message(self, tmp_path, capsys):
        # the message names --out, not the temporary file beside it, whose
        # name differs on every run
        out = tmp_path / "missing-dir" / "x.json"
        argv = ["table", "--gamma", "0", "--delta", "0", "--out", str(out)]
        assert stderr_of_two_runs(argv, capsys) == [
            f"error: cannot write {out}: No such file or directory\n"
        ] * 2
        assert list(tmp_path.iterdir()) == []

    def test_out_naming_a_directory_exits_with_message(self, tmp_path, capsys):
        argv = ["table", "--gamma", "0", "--delta", "0", "--out", str(tmp_path)]
        assert stderr_of_two_runs(argv, capsys) == [
            f"error: cannot write {tmp_path}: Is a directory\n"
        ] * 2
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_leaves_no_output(self, tmp_path):
        out = tmp_path / "never.json"
        with pytest.raises(SystemExit):
            main(["payoff", "--gamma", "nope", "--delta", "0",
                  "--alice", "0,0,0", "--bob", "0,0,0", "--charlie", "0,0,0",
                  "--out", str(out)])
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_bundle_passes_and_is_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
        assert main(["verify", "--out", str(out1)]) == 0
        assert main(["verify", "--seed", "1729", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert set(doc) == SECTIONS
        assert doc["inputs"]["seed"] == DEFAULT_SEED == 1729
        assert len(doc["verdicts"]["checks"]) == 9
        assert all(doc["verdicts"]["checks"].values())

    def test_born_conservation_failure_is_reported(self, monkeypatch, tmp_path, capsys):
        kernel = qpd3.verify.outcome_probabilities

        def failing_on_per_row_angles(gamma, delta, *players):
            if np.ndim(gamma) == 1:
                raise ValueError("outcome probabilities sum to 1 +- 0.5, beyond 1e-12")
            return kernel(gamma, delta, *players)

        monkeypatch.setattr(qpd3.verify, "outcome_probabilities", failing_on_per_row_angles)
        doc, hard = build_verify_bundle(DEFAULT_SEED)
        assert doc["verdicts"]["checks"]["born_conservation"] is False
        assert "beyond 1e-12" in doc["results"]["born_conservation"]["error"]
        assert hard == ["born_conservation"]
        assert main(["verify", "--out", str(tmp_path / "v.json")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert "FAIL  born_conservation" in err
        assert sum(line.startswith("pass  ") for line in err) == 8

    def test_unraised_basis_miss_is_reported(self, monkeypatch):
        # rows that miss 1 by 1e-9 with no error raised: the check measures
        # the miss itself rather than relying on the kernel to raise
        kernel = qpd3.verify.outcome_probabilities

        def drifting(*args):
            return kernel(*args) * (1.0 + 1e-9)

        monkeypatch.setattr(qpd3.verify, "outcome_probabilities", drifting)
        doc, hard = build_verify_bundle(DEFAULT_SEED)
        assert doc["verdicts"]["checks"]["basis_completeness"] is False
        record = doc["results"]["basis_completeness"]
        assert record == {"max_abs_sum_error": pytest.approx(1e-9, rel=1e-6)}
        assert "basis_completeness" in hard

    def test_negative_seed_names_the_option(self, tmp_path, capsys):
        assert_usage_error(["verify", "--seed", "-1"], tmp_path, capsys, "--seed", "-1")

    def test_default_seed_constant(self):
        assert isinstance(DEFAULT_SEED, int)

    def test_bundle_contents(self):
        doc, hard = build_verify_bundle(seed=5)
        assert hard == []
        # each hard check is judged once, in run order, and nowhere else
        checks = doc["verdicts"]["checks"]
        assert list(checks) == [
            "classical_limit",
            "basis_completeness",
            "born_conservation",
            "pp_value",
            "ee_value",
            "pp_nash",
            "closed_form_classical",
            "decode_examples",
            "table2_full_bits",
        ]
        assert all(ok is True for ok in checks.values())
        assert "hard_failures" not in doc["verdicts"]
        results = doc["results"]
        assert not {"pp_value", "ee_value", "pp_nash"} & set(results)
        assert not [name for name, node in results.items()
                    if isinstance(node, dict) and {"pass", "check"} & set(node)]
        assert results["closed_form_unrestricted"]["max_abs_delta"] > 0
        assert doc["verdicts"]["ordering"]["chain_holds"] is True
        # the known violations are documented, never silently dropped
        kinds = {d.get("what") for d in doc["discrepancies"]}
        assert "mixed-regime payoff bound" in kinds
        assert "information relation {PP=EE} > {PE=EP}" in kinds


#: Every option of every subcommand; a new or removed flag must update this.
OPTIONS = {
    "payoff": "alice bob charlie delta gamma out payoffs",
    "table": "delta fixture gamma out payoffs",
    "nash": "alice bob charlie delta gamma grid out payoffs scan",
    "comm simulate": "delta gamma model out payoffs",
    "comm decode": "common delta fixture gamma model observed out payoffs",
    "verify": "out seed",
}


def _leaf_parsers(parser, prefix=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(prefix), parser
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, prefix + (name,))


def test_options_are_pinned_and_nothing_reads_the_environment():
    found = {
        command: " ".join(
            sorted(
                opt.lstrip("-")
                for action in parser._actions
                for opt in action.option_strings
                if opt not in ("-h", "--help")
            )
        )
        for command, parser in _leaf_parsers(build_parser())
    }
    assert found == OPTIONS
    readers = [
        path.name
        for path in sorted(Path(qpd3.__file__).parent.glob("*.py"))
        if re.search(r"os\.environ|getenv", path.read_text(encoding="utf-8"))
    ]
    assert readers == []


PAYOFF_ARGS = ["payoff", "--gamma", "0", "--delta", "0",
               "--alice", "0,0,0", "--bob", "0,0,0", "--charlie", "0,0,0"]


DECODE_ARGS = ["comm", "decode", "--fixture", "table2", "--common", "0,0", "--observed", "2,2"]


def _with(argv, option, text):
    """``argv`` with ``option``'s value replaced by ``text``."""
    argv = list(argv)
    argv[argv.index(option) + 1] = text
    return argv


@pytest.mark.parametrize(
    "argv,needles",
    [
        (_with(PAYOFF_ARGS, "--gamma", "x"), ["argument --gamma: ", "'x'"]),
        (["table", "--gamma", "0", "--delta", "pi/0"], ["argument --delta: ", "'pi/0'"]),
        (_with(PAYOFF_ARGS, "--alice", "0,0"), ["argument --alice: ", "'0,0'"]),
        (_with(PAYOFF_ARGS, "--bob", "0,x,0"), ["argument --bob: ", "'x'"]),
        (_with(PAYOFF_ARGS, "--bob", "4,0,0"), ["argument --bob: ", "theta must lie in"]),
        (_with(PAYOFF_ARGS, "--charlie", "0,0,0,0"), ["argument --charlie: ", "'0,0,0,0'"]),
        (_with(DECODE_ARGS, "--common", "x,0"), ["argument --common: ", "'x'"]),
        (_with(DECODE_ARGS, "--observed", "nan"), ["argument --observed: ", "'nan'"]),
        (["nash", "--scan", "--grid", "1,2,2"], ["argument --grid: ", "at least 2 points"]),
        (["verify", "--seed", "x"], ["argument --seed: ", "'x'"]),
        (PAYOFF_ARGS[:-2], ["the following arguments are required: --charlie"]),
        (DECODE_ARGS + ["--model", "full"], ["argument --model: ", "'full'"]),
        (PAYOFF_ARGS + ["--bogus"], ["unrecognized arguments: --bogus"]),
        ([], ["required: {payoff,table,nash,comm,verify}"]),
        (["comm"], ["required: {simulate,decode}"]),
        (_with(DECODE_ARGS, "--common", "0,pi/2"), ["argument --common: ", "not a table column"]),
    ],
    ids=["gamma", "delta", "alice", "bob", "bob-out-of-range", "charlie", "common",
         "observed", "grid", "seed", "missing-option", "bad-choice", "unknown-flag",
         "missing-command", "missing-comm-command", "common-off-column"],
)
def test_every_bad_input_is_one_line_naming_the_option(tmp_path, capsys, argv, needles):
    assert_usage_error(argv, tmp_path, capsys, *needles)


def test_every_text_option_is_converted_by_the_parser():
    # An option whose text reached a handler would be parsed there, and its
    # errors would not name it; only file paths stay text.
    unconverted = sorted(
        f"{command} {action.option_strings[0]}"
        for command, parser in _leaf_parsers(build_parser())
        for action in parser._actions
        if action.option_strings and action.nargs != 0
        and action.type is None and action.choices is None
        and action.option_strings[0] not in ("--out", "--payoffs")
    )
    assert unconverted == []
    handlers = [f for name, f in vars(qpd3.cli).items() if name.startswith("cmd_")]
    assert len(handlers) == 6
    assert [f.__name__ for f in handlers if "parse_" in inspect.getsource(f)] == []


#: One run of each of the six commands.
EVERY_COMMAND = [
    PAYOFF_ARGS,
    ["table", "--gamma", "0", "--delta", "0"],
    ["nash", "--scan", "--grid", "3,3,3"],
    ["comm", "simulate", "--gamma", "0", "--delta", "pi/2"],
    DECODE_ARGS,
    ["verify"],
]


@pytest.mark.parametrize(
    "argv", EVERY_COMMAND, ids=["payoff", "table", "nash", "comm simulate", "comm decode", "verify"]
)
def test_stdout_is_the_out_file(tmp_path, capsys, argv):
    # --out decides where the report goes, never what it holds
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()
    assert set(json.loads(printed)) == SECTIONS


def test_only_emit_writes_stdout():
    # every report reaches stdout through _emit, so no command has a second rendering
    tree = ast.parse(Path(qpd3.cli.__file__).read_text(encoding="utf-8"))
    emit = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_emit")
    inside = {id(n) for n in ast.walk(emit)}
    writers = [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside
        and (
            (isinstance(node, ast.Attribute) and node.attr == "stdout")
            or (isinstance(node, ast.Name) and node.id == "print")
        )
    ]
    assert writers == []


def test_non_finite_report_is_refused(tmp_path, capsys):
    # Alice's payoffs of +-1.7e308 by outcome parity overflow the scan's gaps
    # to infinity, which JSON cannot hold: the run exits 2 and writes nothing
    huge = {format(b, "03b"): [(-1) ** b.bit_count() * 1.7e308, 1.0, 1.0] for b in range(8)}
    payoffs = write_table(tmp_path / "huge.json", huge)
    argv = ["nash", "--scan", "--grid", "3,3,3", "--payoffs", str(payoffs)]
    assert_usage_error(argv, tmp_path, capsys, "not JSON compliant")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]


class TestRemovedFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["comm", "simulate", "--gamma", "0", "--delta", "0", "--common", "1,1"],
            ["comm", "simulate", "--gamma", "0", "--delta", "0", "--codeword", "11"],
            ["nash", "--scan", "--partner-phases", "mirror"],
            ["verify", "--grid", "5,5,5"],
            PAYOFF_ARGS + ["--fixture", "table1"],
            ["table", "--gamma", "0", "--delta", "0", "--format", "csv"],
            ["comm", "simulate", "--gamma", "0", "--delta", "0", "--model", "pair"],
        ],
        ids=["common", "codeword", "partner-phases", "verify-grid", "payoff-fixture",
             "table-format", "model-pair"],
    )
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--out", str(out)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []


def _readme_cli_examples() -> list[tuple[str, list[str]]]:
    """Each ``qpd3 ...`` line of the README's "Command line" block, with the
    ``# path: value`` lines right below it: leaves of the report it prints."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    examples = []
    follows_command = False
    for line in block.splitlines():
        if line.startswith("qpd3 "):
            examples.append((line, []))
            follows_command = True
        elif follows_command and line.startswith("# "):
            examples[-1][1].append(line[2:])
        else:
            follows_command = False
    return examples


README_CLI_EXAMPLES = _readme_cli_examples()


def test_readme_cli_block_found():
    assert len(README_CLI_EXAMPLES) == 8
    assert sum(bool(leaves) for _, leaves in README_CLI_EXAMPLES) == 3


@pytest.mark.parametrize(
    "line,leaves", README_CLI_EXAMPLES, ids=[line for line, _ in README_CLI_EXAMPLES]
)
def test_readme_cli_example(line, leaves, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0
    out = capsys.readouterr().out
    for shown in leaves:
        path, value = shown.split(": ", 1)
        node = json.loads(out)  # examples with leaves print their report
        for key in path.split("."):
            node = node[key]
        assert node == json.loads(value), shown
