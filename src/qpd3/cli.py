"""Command-line front end for payoff evaluation, scans and verification.

Subcommands:

* ``payoff``: oracle payoffs for one configuration and profile.
* ``table``: oracle protocol table, diffed against a published fixture.
* ``nash``: grid-Nash certificate for a profile, or the four-regime scan.
* ``comm``: ``simulate`` the signaling protocol or ``decode`` payoffs.
* ``verify``: the full verification bundle; exits nonzero if any hard
  check fails (documented discrepancies with the published tables are
  expected output, not failures).

Angles are accepted as rational multiples of pi ("pi/3", "-pi", "3pi/4") or
as plain radian numbers.  Only ``verify`` draws random numbers, from
``--seed`` (default ``DEFAULT_SEED``); reports for a fixed (config, seed)
are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import tempfile
from fractions import Fraction

import numpy as np

from . import __version__
from .closedform import (
    compare_to_oracle,
    sample_any,
    sample_classical_limit,
)
from .comms import (
    COLUMNS,
    CODEWORDS,
    REGIME_FIXTURES,
    ObservationModel,
    ProtocolTable,
    decode,
    fixture_regime_tables,
    fixture_table,
    info_relation_report,
    information_bits,
    oracle_regime_tables,
    protocol_table,
)
from .equilibrium import GridSpec, Profile, four_case_scan, verify_nash
from .game import (
    _ANGLE_HI,
    _PARAM_HI,
    _PARAM_LO,
    ATOL,
    DEFAULT_PAYOFF_TABLE,
    OUTCOMES,
    PAYOFF_TOL,
    REGIMES,
    GameConfig,
    PayoffTable,
    StrategyParams,
    measurement_basis,
    outcome_probabilities,
)

#: Default RNG seed of ``verify``; override with --seed.
DEFAULT_SEED = 1729

_ANGLE_RE = re.compile(
    r"^(?P<sign>[+-]?)(?P<num>\d+(?:\.\d+)?)?\s*\*?\s*pi(?:\s*/\s*(?P<den>\d+(?:\.\d+)?))?$",
    re.IGNORECASE,
)


class UsageError(ValueError):
    """Malformed command input; maps to a nonzero exit with a message."""


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
    return (parse_angle(parts[0]), parse_angle(parts[1]))


def parse_grid(text: str) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"expected 't,a,b' point counts, got {text!r}")
    try:
        return GridSpec(*(int(p) for p in parts))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def load_payoff_table(path: str) -> PayoffTable:
    """Read the payoff-table config file: keys "000".."111" -> [a, b, c]."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise UsageError("payoff table file must hold a JSON object")
    try:
        return PayoffTable.from_mapping(raw)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def atomic_write(path: str, data: str) -> None:
    """Write a file atomically: full contents appear or nothing does."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qpd3-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _report_doc(inputs: dict, results: dict, fixtures_compared=None, verdicts=None, discrepancies=None) -> dict:
    return {
        "inputs": inputs,
        "results": results,
        "fixtures-compared": fixtures_compared if fixtures_compared is not None else {},
        "verdicts": verdicts if verdicts is not None else {},
        "discrepancies": discrepancies if discrepancies is not None else [],
    }


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(args, payload: str) -> None:
    """Write a rendered report to ``--out`` (atomically) or to stdout."""
    if args.out:
        atomic_write(args.out, payload)
    else:
        sys.stdout.write(payload)


def _fmt_triple(triple) -> str:
    return "(" + ", ".join(f"{x:.10g}" for x in triple) + ")"


def _table_for(args) -> PayoffTable:
    if args.payoffs:
        return load_payoff_table(args.payoffs)
    return DEFAULT_PAYOFF_TABLE


# --------------------------------------------------------------------------
# subcommands


def cmd_payoff(args) -> int:
    config = GameConfig(parse_angle(args.gamma), parse_angle(args.delta), _table_for(args))
    profile = (parse_params(args.alice), parse_params(args.bob), parse_params(args.charlie))
    probs = outcome_probabilities(
        config.gamma, config.delta, *(p.as_tuple() for p in profile)
    )[0]
    payoffs = [float(probs @ config.payoffs.column(k)) for k in range(3)]
    doc = _report_doc(
        inputs={
            "command": "payoff",
            "gamma": config.gamma,
            "delta": config.delta,
            "alice": list(profile[0].as_tuple()),
            "bob": list(profile[1].as_tuple()),
            "charlie": list(profile[2].as_tuple()),
        },
        results={
            "payoffs": payoffs,
            "outcome_probabilities": dict(zip(OUTCOMES, probs.tolist())),
        },
    )
    if args.out:
        _emit(args, render_json(doc))
    else:
        sys.stdout.write(_fmt_triple(payoffs) + "\n")
    return 0


def _table_fixture_diff(oracle: ProtocolTable, fixture: ProtocolTable):
    """Per-entry deltas between an oracle table and a published fixture."""
    deltas = oracle.payoffs - fixture.payoffs
    compared = []
    discrepancies = []
    for i, cw in enumerate(CODEWORDS):
        for j, col in enumerate(COLUMNS):
            delta = deltas[i, j].tolist()
            compared.append(
                {
                    "codeword": cw.bits,
                    "column": list(col),
                    "oracle": oracle.payoffs[i, j].tolist(),
                    "published": fixture.payoffs[i, j].tolist(),
                    "delta": delta,
                }
            )
            if (np.abs(deltas[i, j]) > PAYOFF_TOL).any():
                discrepancies.append(
                    {
                        "what": f"oracle vs {fixture.label}",
                        "codeword": cw.bits,
                        "column": list(col),
                        "delta": delta,
                    }
                )
    return compared, discrepancies


def _auto_fixture(gamma: float, delta: float) -> str | None:
    for case, (g, d) in REGIMES.items():
        if abs(gamma - g) <= ATOL and abs(delta - d) <= ATOL:
            return REGIME_FIXTURES[case]
    return None


def cmd_table(args) -> int:
    gamma, delta = parse_angle(args.gamma), parse_angle(args.delta)
    oracle = protocol_table(gamma, delta, _table_for(args))

    fixture_name = args.fixture or _auto_fixture(gamma, delta)
    fixtures = {}
    discrepancies = []
    verdicts = {}
    if fixture_name:
        fixture = fixture_table(fixture_name)
        compared, discrepancies = _table_fixture_diff(oracle, fixture)
        fixtures[fixture_name] = compared
        verdicts["matches_fixture"] = not discrepancies

    doc = _report_doc(
        inputs={"command": "table", "gamma": gamma, "delta": delta, "fixture": fixture_name},
        results={"table": oracle.to_record()},
        fixtures_compared=fixtures,
        verdicts=verdicts,
        discrepancies=discrepancies,
    )

    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["codeword", "theta_b", "theta_c", "alice", "bob", "charlie"])
        for i, cw in enumerate(CODEWORDS):
            for j, col in enumerate(COLUMNS):
                writer.writerow(
                    [cw.bits, f"{col[0]:.10g}", f"{col[1]:.10g}"]
                    + [f"{x:.12g}" for x in oracle.entry(i, j).as_tuple()]
                )
        payload = buf.getvalue()
    else:
        payload = render_json(doc)
    _emit(args, payload)
    return 0


def cmd_nash(args) -> int:
    grid = parse_grid(args.grid) if args.grid else GridSpec()
    table = _table_for(args)
    if args.scan:
        scan = four_case_scan(table, grid)
        record = scan.to_record()
        doc = _report_doc(
            inputs={"command": "nash", "mode": "scan", "grid": grid.to_record()},
            results=record,
            verdicts={
                "ordering": record["ordering"],
                "bound_checks": record["bound_checks"],
            },
            discrepancies=[
                b for b in record["bound_checks"] if not b["holds"]
            ],
        )
    else:
        if not (args.alice and args.bob and args.charlie):
            raise UsageError("nash needs --alice/--bob/--charlie (or use --scan)")
        config = GameConfig(parse_angle(args.gamma), parse_angle(args.delta), table)
        profile = Profile(
            parse_params(args.alice), parse_params(args.bob), parse_params(args.charlie)
        )
        report = verify_nash(profile, config, grid)
        doc = _report_doc(
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
    _emit(args, render_json(doc))
    return 0


#: ``--model`` choices and the ``ObservationModel.visible`` names they select.
_MODEL_VISIBLE = {"own": "own", "pair": "bob-and-charlie", "full": "full-triple"}


def _model_from(args) -> ObservationModel:
    return ObservationModel(visible=_MODEL_VISIBLE[args.model])


def cmd_comm_simulate(args) -> int:
    gamma, delta = parse_angle(args.gamma), parse_angle(args.delta)
    table = protocol_table(gamma, delta, _table_for(args))
    model = _model_from(args)

    transmissions = []
    for cw_index, cw in enumerate(CODEWORDS):
        for j, col in enumerate(COLUMNS):
            if col[0] != col[1]:
                continue  # the protocol agreement is a common move
            payoff = table.entry(cw_index, j)
            observed = model.components(payoff)
            result = decode(table, col, observed, model)
            transmissions.append(
                {
                    "codeword": cw.bits,
                    "common_move": list(col),
                    "payoffs": list(payoff.as_tuple()),
                    "observed": list(observed),
                    "decoded": result.to_record(),
                }
            )

    info = {
        name: information_bits(table, ObservationModel(visible=vis))
        for name, vis in _MODEL_VISIBLE.items()
    }
    doc = _report_doc(
        inputs={
            "command": "comm simulate",
            "gamma": gamma,
            "delta": delta,
            "model": model.visible,
        },
        results={
            "table": table.to_record(),
            "transmissions": transmissions,
            "information_bits": info,
        },
        verdicts={"fully_decodable": info[args.model] == 2.0},
    )
    _emit(args, render_json(doc))
    return 0


def cmd_comm_decode(args) -> int:
    if args.fixture:
        table = fixture_table(args.fixture)
    else:
        if args.gamma is None or args.delta is None:
            raise UsageError("decode needs --fixture or both --gamma and --delta")
        table = protocol_table(parse_angle(args.gamma), parse_angle(args.delta), _table_for(args))
    model = _model_from(args)
    common = parse_pair(args.common)
    observed = tuple(float(x) for x in args.observed.split(","))
    result = decode(table, common, observed, model)

    alice_payoffs = {}
    col = table.column_index(common)
    for cw in result.candidates:
        alice_payoffs[cw.bits] = table.entry(CODEWORDS.index(cw), col).alice

    doc = _report_doc(
        inputs={
            "command": "comm decode",
            "table": table.label,
            "common": list(common),
            "observed": list(observed),
            "model": model.visible,
        },
        results={
            "decoded": result.to_record(),
            "alice_payoff_by_candidate": alice_payoffs,
        },
        verdicts={"unique": len(result.candidates) == 1},
    )
    if args.out:
        _emit(args, render_json(doc))
    else:
        bits = ",".join(c.bits for c in result.candidates)
        sys.stdout.write(
            f"codeword {bits}; alice payoff "
            + ",".join(f"{alice_payoffs[c.bits]:.10g}" for c in result.candidates)
            + f"; bits resolved {result.bits_resolved:.10g}\n"
        )
    return 0


# --------------------------------------------------------------------------
# verify bundle


def _check(name: str, ok: bool, detail: dict, hard_failures: list) -> dict:
    if not ok:
        hard_failures.append(name)
    return {"check": name, "pass": bool(ok), **detail}


def build_verify_bundle(seed: int) -> tuple[dict, list]:
    """Run every verification check; returns (report doc, hard failure names)."""
    grid = GridSpec()
    rng = np.random.default_rng(seed)
    table = DEFAULT_PAYOFF_TABLE
    hard: list[str] = []
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
    entries = np.array(table.entries)
    worst = float(np.max(np.abs(probs @ entries - entries[bits])))
    results["classical_limit"] = _check(
        "classical_limit", worst <= ATOL, {"max_abs_error": worst}, hard
    )

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
        hard,
    )

    # Born conservation over seeded random draws: per row gamma, delta, then
    # (theta, alpha, beta) per player.  The kernel itself raises once a row
    # misses 1 by more than ATOL, so that error is this check's failure.
    lo = np.concatenate([[0.0, 0.0], np.tile(_PARAM_LO, 3)])
    hi = np.concatenate([[_ANGLE_HI, _ANGLE_HI], np.tile(_PARAM_HI, 3)])
    draws = rng.uniform(lo, hi, size=(1000, 11))
    players = draws[:, 2:].reshape(-1, 3, 3).transpose(1, 0, 2)
    try:
        probs = outcome_probabilities(draws[:, 0], draws[:, 1], *players)
    except ValueError as exc:
        born = {"error": str(exc)}
    else:
        born = {"max_abs_sum_error": float(np.max(np.abs(probs.sum(axis=1) - 1.0)))}
    results["born_conservation"] = _check(
        "born_conservation", "error" not in born, born, hard
    )

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
        hard,
    )
    results["ee_value"] = _check(
        "ee_value",
        max(abs(x - 3.0) for x in ee.as_tuple()) <= PAYOFF_TOL,
        {"payoff": list(ee.as_tuple())},
        hard,
    )
    results["pp_nash"] = _check(
        "pp_nash", scan.report_for("PP").is_nash, {"gaps": list(scan.report_for("PP").gaps)}, hard
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
        restricted.max_abs_delta < PAYOFF_TOL,
        {"max_abs_delta": restricted.max_abs_delta},
        hard,
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
        hard,
    )

    # Oracle tables vs published fixtures, per regime.
    fixtures_compared = {}
    oracle_tables = oracle_regime_tables(table)
    for case, fixture_name in REGIME_FIXTURES.items():
        compared, diffs = _table_fixture_diff(oracle_tables[case], fixture_table(fixture_name))
        fixtures_compared[f"{case}:{fixture_name}"] = compared
        for d in diffs:
            discrepancies.append({"regime": case, **d})

    # Information metric under all three observation models, both sources.
    info_records = []
    table2_full = None
    for visible in ("own", "bob-and-charlie", "full-triple"):
        m = ObservationModel(visible=visible)
        oracle_rep = info_relation_report(oracle_tables, m)
        fixture_rep = info_relation_report(fixture_regime_tables(), m)
        info_records.append(oracle_rep.to_record())
        info_records.append(fixture_rep.to_record())
        if visible == "full-triple":
            table2_full = information_bits(t2, m)
    results["information"] = info_records
    results["table2_full_bits"] = _check(
        "table2_full_bits", table2_full == 2.0, {"bits": table2_full}, hard
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

    verdicts["hard_failures"] = list(hard)
    doc = _report_doc(
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


def cmd_verify(args) -> int:
    doc, hard = build_verify_bundle(args.seed)
    _emit(args, render_json(doc))
    for name, entry in doc["results"].items():
        if isinstance(entry, dict) and "pass" in entry:
            status = "pass" if entry["pass"] else "FAIL"
            sys.stderr.write(f"{status}  {name}\n")
    n_disc = len(doc["discrepancies"])
    sys.stderr.write(
        f"{len(hard)} hard failure(s); {n_disc} documented discrepancy record(s)\n"
    )
    return 1 if hard else 0


# --------------------------------------------------------------------------
# parser


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report here (atomically); default prints")


def _add_payoff_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--payoffs", help="JSON payoff-table file (keys 000..111)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpd3",
        description="Three-player quantum Prisoner's Dilemma: payoffs, equilibria, signaling.",
    )
    parser.add_argument("--version", action="version", version=f"qpd3 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("payoff", help="oracle payoffs for one profile")
    p.add_argument("--gamma", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--alice", required=True, metavar="T,A,B")
    p.add_argument("--bob", required=True, metavar="T,A,B")
    p.add_argument("--charlie", required=True, metavar="T,A,B")
    _add_payoff_source(p)
    _add_out(p)
    p.set_defaults(func=cmd_payoff)

    p = sub.add_parser("table", help="oracle protocol table, diffed against a fixture")
    p.add_argument("--gamma", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--fixture", choices=("table2", "table3"))
    _add_payoff_source(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("nash", help="grid-Nash certificate or four-regime scan")
    p.add_argument("--gamma", default="0")
    p.add_argument("--delta", default="0")
    p.add_argument("--alice", metavar="T,A,B")
    p.add_argument("--bob", metavar="T,A,B")
    p.add_argument("--charlie", metavar="T,A,B")
    p.add_argument("--grid", metavar="T,A,B", help="points per axis (default 25,17,17)")
    p.add_argument("--scan", action="store_true", help="run the four-regime scan")
    _add_payoff_source(p)
    _add_out(p)
    p.set_defaults(func=cmd_nash)

    p = sub.add_parser("comm", help="signaling protocol simulation and decoding")
    comm_sub = p.add_subparsers(dest="comm_command", required=True)

    ps = comm_sub.add_parser("simulate", help="run the protocol over a config")
    ps.add_argument("--gamma", required=True)
    ps.add_argument("--delta", required=True)
    ps.add_argument("--model", choices=tuple(_MODEL_VISIBLE), default="pair")
    _add_payoff_source(ps)
    _add_out(ps)
    ps.set_defaults(func=cmd_comm_simulate)

    pd = comm_sub.add_parser("decode", help="decode observed payoffs")
    pd.add_argument("--fixture", choices=("table2", "table3"))
    pd.add_argument("--gamma")
    pd.add_argument("--delta")
    pd.add_argument("--common", required=True, metavar="T,T")
    pd.add_argument("--observed", required=True, metavar="P[,P[,P]]")
    pd.add_argument("--model", choices=tuple(_MODEL_VISIBLE), default="pair")
    _add_payoff_source(pd)
    _add_out(pd)
    pd.set_defaults(func=cmd_comm_decode)

    p = sub.add_parser("verify", help="full verification bundle")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"default {DEFAULT_SEED}")
    _add_out(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
