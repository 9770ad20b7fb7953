"""Command-line front end for payoff evaluation, scans and verification.

Subcommands:

* ``payoff``: oracle payoffs for one configuration and profile.
* ``table``: oracle protocol table, diffed against a published fixture.
* ``nash``: grid-Nash certificate for a profile, or the four-regime scan.
* ``comm``: ``simulate`` the signaling protocol or ``decode`` payoffs.
* ``verify``: the full verification bundle; exits nonzero if any hard
  check fails (documented discrepancies with the published tables are
  expected output, not failures).

The parser turns each option's text into a value, and every bad input exits 2
with one ``error:`` line.  Each subcommand makes its library call and returns
one report with five sections; ``main`` renders it as JSON once, written to
``--out`` or, with the same bytes, to stdout, and exits 1 if a check under
``verdicts.checks`` failed.  The checks themselves live in the library
(:mod:`qpd3.verify`).

Angles are accepted as rational multiples of pi ("pi/3", "-pi", "3pi/4") or
as plain radian numbers.  Only ``verify`` draws random numbers, from
``--seed`` (default ``DEFAULT_SEED``); reports for a fixed (config, seed)
are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from fractions import Fraction

from . import __version__
from .closedform import compare_to_oracle  # unused; bench/test_smoke.py pins this binding
from .comms import (
    COLUMNS,
    CODEWORDS,
    MODELS,
    ProtocolTable,
    auto_fixture,
    decode,
    fixture_diff,
    fixture_table,
    information_bits,
    protocol_table,
)
from .equilibrium import GridSpec, Profile, four_case_scan, verify_nash
from .game import (
    DEFAULT_PAYOFF_TABLE,
    OUTCOMES,
    GameConfig,
    PayoffTable,
    StrategyParams,
    outcome_probabilities,
)
from .verify import build_verify_bundle, report_doc

#: Default RNG seed of ``verify``; override with --seed.
DEFAULT_SEED = 1729

_ANGLE_RE = re.compile(
    r"^(?P<sign>[+-]?)(?P<num>\d+(?:\.\d+)?)?\s*\*?\s*pi(?:\s*/\s*(?P<den>\d+(?:\.\d+)?))?$",
    re.IGNORECASE,
)


class UsageError(ValueError, argparse.ArgumentTypeError):
    """Malformed command input; from a converter, argparse prefixes the option."""


def parse_angle(text: str) -> float:
    """Parse an angle given as a rational multiple of pi or a radian number."""
    text = text.strip()
    m = _ANGLE_RE.match(text)
    if m:
        num = Fraction(m.group("num")) if m.group("num") else Fraction(1)
        den = Fraction(m.group("den")) if m.group("den") else Fraction(1)
        if den == 0:
            raise UsageError(f"zero denominator in angle {text!r}")
        try:
            value = float(num / den) * math.pi
        except OverflowError:
            raise UsageError(f"angle {text!r} is beyond float range") from None
        return -value if m.group("sign") == "-" else value
    try:
        return float(text)
    except ValueError:
        raise UsageError(
            f"cannot parse angle {text!r}; expected forms like 'pi/3', '-pi', '0.5'"
        ) from None


def parse_params(text: str) -> StrategyParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"expected 'theta,alpha,beta', got {text!r}")
    try:
        return StrategyParams(*(parse_angle(p) for p in parts))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected 'theta_b,theta_c', got {text!r}")
    pair = (parse_angle(parts[0]), parse_angle(parts[1]))
    try:
        ProtocolTable.column_index(pair)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return pair


def parse_grid(text: str) -> GridSpec:
    try:
        t, a, b = (int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"expected 't,a,b' integer point counts, got {text!r}") from None
    try:
        return GridSpec(t, a, b)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def parse_observed(text: str) -> tuple[float, ...]:
    try:
        observed = tuple(float(p) for p in text.split(","))
    except ValueError:
        observed = (math.nan,)  # text that is no number is no finite payoff
    if not all(math.isfinite(x) for x in observed):
        raise UsageError(f"expected finite payoffs 'P[,P[,P]]', got {text!r}")
    return observed


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1  # text that is no integer is no seed
    if seed < 0:
        raise UsageError(f"expected a non-negative integer, got {text!r}")
    return seed


def load_payoff_table(path: str) -> PayoffTable:
    """Read the payoff-table config file: keys "000".."111" -> [a, b, c]; errors name it."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise UsageError(f"cannot parse {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError(f"payoff table file {path} must hold a JSON object")
    try:
        return PayoffTable.from_mapping(raw)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def atomic_write(path: str, data: str) -> None:
    """Write a file atomically: full contents appear or nothing does.  The file
    gets the mode a plain ``open(path, "w")`` would give it, ``0o666 & ~umask``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qpd3-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        umask = os.umask(0)  # the umask can only be read by setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_json(doc: dict) -> str:
    """The report as JSON text; a NaN or infinite value raises ``ValueError``,
    since RFC 8259 JSON has no such numbers."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(args, payload: str) -> None:
    """Write a rendered report to ``--out`` (atomically) or to stdout.  A failed
    write names ``--out``, not the temporary file beside it."""
    if args.out:
        try:
            atomic_write(args.out, payload)
        except OSError as exc:
            raise OSError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(payload)


def _reject_given(args, command: str, names: tuple[str, ...]) -> None:
    """Raise a UsageError naming each option in ``names`` that was given."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise UsageError(f"{command} does not take {', '.join(given)}")


def _table_for(args) -> PayoffTable:
    if args.payoffs:
        return load_payoff_table(args.payoffs)
    return DEFAULT_PAYOFF_TABLE


# --------------------------------------------------------------------------
# subcommands


def cmd_payoff(args) -> dict:
    config = GameConfig(args.gamma, args.delta, _table_for(args))
    profile = Profile(args.alice, args.bob, args.charlie)
    moves = [p.as_tuple() for p in profile.as_tuple()]
    probs = outcome_probabilities(config.gamma, config.delta, moves)
    return report_doc(
        inputs={
            "command": "payoff",
            "gamma": config.gamma,
            "delta": config.delta,
            **profile.to_record(),
        },
        results={
            "payoffs": config.payoffs.expected(probs)[0].tolist(),
            "outcome_probabilities": dict(zip(OUTCOMES, probs[0].tolist())),
        },
    )


def cmd_table(args) -> dict:
    gamma, delta, table = args.gamma, args.delta, _table_for(args)
    oracle = protocol_table(gamma, delta, table)
    fixture_name = args.fixture or auto_fixture(gamma, delta, table)
    fixtures = {}
    discrepancies = []
    verdicts = {}
    if fixture_name:
        compared, discrepancies = fixture_diff(oracle, fixture_table(fixture_name))
        fixtures[fixture_name] = compared
        verdicts["matches_fixture"] = not discrepancies

    return report_doc(
        inputs={"command": "table", "gamma": gamma, "delta": delta, "fixture": fixture_name},
        results={"table": oracle.to_record()},
        fixtures_compared=fixtures,
        verdicts=verdicts,
        discrepancies=discrepancies,
    )


def cmd_nash(args) -> dict:
    grid, table = args.grid, _table_for(args)
    if args.scan:
        _reject_given(args, "nash --scan", ("alice", "bob", "charlie", "gamma", "delta"))
        scan = four_case_scan(table, grid)
        return report_doc(
            inputs={"command": "nash", "mode": "scan", "grid": grid.to_record()},
            results=scan.to_record(),
            verdicts=scan.verdicts(),
            discrepancies=scan.discrepancies(),
        )
    if not (args.alice and args.bob and args.charlie):
        raise UsageError("nash needs --alice/--bob/--charlie (or use --scan)")
    gamma, delta = (0.0 if a is None else a for a in (args.gamma, args.delta))
    config = GameConfig(gamma, delta, table)
    profile = Profile(args.alice, args.bob, args.charlie)
    report = verify_nash(profile, config, grid)
    return report_doc(
        inputs={
            "command": "nash",
            "mode": "profile",
            "gamma": config.gamma,
            "delta": config.delta,
            "grid": grid.to_record(),
        },
        results=report.to_record(),
        verdicts={"is_nash": report.is_nash},
    )


def cmd_comm_simulate(args) -> dict:
    table = protocol_table(args.gamma, args.delta, _table_for(args))

    transmissions = []
    for row, bits in enumerate(CODEWORDS):
        for j, col in enumerate(COLUMNS):
            if col[0] != col[1]:
                continue  # the protocol agreement is a common move
            observed = table.payoffs[row, j, MODELS[args.model]].tolist()
            result = decode(table, col, observed, args.model)
            transmissions.append(
                {
                    "codeword": bits,
                    "common_move": list(col),
                    "payoffs": table.payoffs[row, j].tolist(),
                    "observed": observed,
                    "decoded": result.to_record(),
                }
            )

    info = {name: information_bits(table, name) for name in MODELS}
    return report_doc(
        inputs={
            "command": "comm simulate",
            "gamma": args.gamma,
            "delta": args.delta,
            "model": args.model,
        },
        results={
            "table": table.to_record(),
            "transmissions": transmissions,
            "information_bits": info,
        },
        verdicts={"fully_decodable": info[args.model] == 2.0},
    )


def cmd_comm_decode(args) -> dict:
    if args.fixture:
        _reject_given(args, "decode --fixture", ("gamma", "delta", "payoffs"))
        table = fixture_table(args.fixture)
    else:
        if args.gamma is None or args.delta is None:
            raise UsageError("decode needs --fixture or both --gamma and --delta")
        table = protocol_table(args.gamma, args.delta, _table_for(args))
    result = decode(table, args.common, args.observed, args.model)
    alice = dict(zip(CODEWORDS, table.payoffs[:, table.column_index(args.common), 0].tolist()))
    return report_doc(
        inputs={
            "command": "comm decode",
            "table": table.label,
            "common": list(args.common),
            "observed": list(args.observed),
            "model": args.model,
        },
        results={
            "decoded": result.to_record(),
            "alice_payoff_by_candidate": {bits: alice[bits] for bits in result.candidates},
        },
        verdicts={"unique": len(result.candidates) == 1},
    )


def cmd_verify(args) -> dict:
    return build_verify_bundle(args.seed)[0]


# --------------------------------------------------------------------------
# parser


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report here (atomically); default prints")


def _add_payoff_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--payoffs", help="JSON payoff-table file (keys 000..111)")


class _Parser(argparse.ArgumentParser):
    """Every error, argparse's or the program's, is one ``error:`` line, exit 2."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qpd3",
        description="Three-player quantum Prisoner's Dilemma: payoffs, equilibria, signaling.",
    )
    parser.add_argument("--version", action="version", version=f"qpd3 {__version__}")
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("payoff", help="oracle payoffs for one profile")
    p.add_argument("--gamma", required=True, type=parse_angle)
    p.add_argument("--delta", required=True, type=parse_angle)
    p.add_argument("--alice", required=True, type=parse_params, metavar="T,A,B")
    p.add_argument("--bob", required=True, type=parse_params, metavar="T,A,B")
    p.add_argument("--charlie", required=True, type=parse_params, metavar="T,A,B")
    _add_payoff_source(p)
    _add_out(p)
    p.set_defaults(func=cmd_payoff)

    p = sub.add_parser("table", help="oracle protocol table, diffed against a fixture")
    p.add_argument("--gamma", required=True, type=parse_angle)
    p.add_argument("--delta", required=True, type=parse_angle)
    p.add_argument("--fixture", choices=("table2", "table3"))
    _add_payoff_source(p)
    _add_out(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("nash", help="grid-Nash certificate or four-regime scan")
    p.add_argument("--gamma", type=parse_angle, help="default 0")
    p.add_argument("--delta", type=parse_angle, help="default 0")
    p.add_argument("--alice", type=parse_params, metavar="T,A,B")
    p.add_argument("--bob", type=parse_params, metavar="T,A,B")
    p.add_argument("--charlie", type=parse_params, metavar="T,A,B")
    p.add_argument("--grid", type=parse_grid, default=GridSpec(), metavar="T,A,B",
                   help="points per axis (default 25,17,17)")
    p.add_argument("--scan", action="store_true", help="run the four-regime scan")
    _add_payoff_source(p)
    _add_out(p)
    p.set_defaults(func=cmd_nash)

    p = sub.add_parser("comm", help="signaling protocol simulation and decoding")
    comm_sub = p.add_subparsers(required=True)

    ps = comm_sub.add_parser("simulate", help="run the protocol over a config")
    ps.add_argument("--gamma", required=True, type=parse_angle)
    ps.add_argument("--delta", required=True, type=parse_angle)
    ps.add_argument("--model", choices=tuple(MODELS), default="bob-and-charlie")
    _add_payoff_source(ps)
    _add_out(ps)
    ps.set_defaults(func=cmd_comm_simulate)

    pd = comm_sub.add_parser("decode", help="decode observed payoffs")
    pd.add_argument("--fixture", choices=("table2", "table3"))
    pd.add_argument("--gamma", type=parse_angle)
    pd.add_argument("--delta", type=parse_angle)
    pd.add_argument("--common", required=True, type=parse_pair, metavar="T,T")
    pd.add_argument("--observed", required=True, type=parse_observed, metavar="P[,P[,P]]")
    pd.add_argument("--model", choices=tuple(MODELS), default="bob-and-charlie")
    _add_payoff_source(pd)
    _add_out(pd)
    pd.set_defaults(func=cmd_comm_decode)

    p = sub.add_parser("verify", help="full verification bundle")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help=f"default {DEFAULT_SEED}")
    _add_out(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and write its report; exit 1 if a check in
    ``verdicts.checks`` failed, each check named on stderr."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.func(args)
        _emit(args, render_json(doc))
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    checks = doc["verdicts"].get("checks", {})
    failed = [name for name, ok in checks.items() if not ok]
    if checks:
        for name, ok in checks.items():
            sys.stderr.write(f"{'pass' if ok else 'FAIL'}  {name}\n")
        sys.stderr.write(
            f"{len(failed)} hard failure(s); "
            f"{len(doc['discrepancies'])} documented discrepancy record(s)\n"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
