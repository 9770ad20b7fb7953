import math
import struct
from fractions import Fraction as F

import numpy as np
import pytest

from qpd3 import GameConfig, PayoffTriple, StrategyParams
from qpd3.game import PAYOFF_TOL


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_params(rng) -> StrategyParams:
    return StrategyParams(
        theta=rng.uniform(0.0, math.pi),
        alpha=rng.uniform(-math.pi, math.pi),
        beta=rng.uniform(-math.pi, math.pi),
    )


def random_config(rng) -> GameConfig:
    return GameConfig(rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, math.pi / 2))


def _move(theta, alpha, beta) -> np.ndarray:
    """``U = cos(theta/2) R(alpha) + sin(theta/2) P(beta)`` as the README writes it."""
    r = np.diag([np.exp(1j * alpha), np.exp(-1j * alpha)])
    p = np.array(
        [[0.0, np.exp(1j * (math.pi / 2 + beta))], [np.exp(1j * (math.pi / 2 - beta)), 0.0]]
    )
    return math.cos(theta / 2) * r + math.sin(theta / 2) * p


# Outcomes lmn whose measurement vector adds +i sin(delta/2)|l'm'n'>; the
# rest add -i sin(delta/2)|l'm'n'>.  Typed here apart from the kernel's signs.
_REFERENCE_PLUS = {"000", "111", "001", "110"}


def reference_basis(delta: float) -> np.ndarray:
    """The arbiter's 8 measurement vectors as rows, outcome ``b`` on row ``b``:
    ``cos(delta/2)|b> +- i sin(delta/2)|7-b>``, with ``7 - b`` the bitwise complement."""
    basis = math.cos(delta / 2) * np.eye(8, dtype=complex)
    for b in range(8):
        sign = 1.0 if f"{b:03b}" in _REFERENCE_PLUS else -1.0
        basis[b, 7 - b] += sign * 1j * math.sin(delta / 2)
    return basis


def trace_rule_payoffs(config: GameConfig, pa, pb, pc) -> tuple[float, float, float]:
    """Reference payoffs from the density-matrix trace rule ``<psi_lmn| rho_f |psi_lmn>``.

    Each player is a ``(theta, alpha, beta)`` triple.  Shares no code with the
    package's kernel: it builds its own moves, initial state and measurement
    vectors (``reference_basis``).
    """
    u = np.kron(np.kron(_move(*pa), _move(*pb)), _move(*pc))
    # cos(gamma/2)|000> + i sin(gamma/2)|111>
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = math.cos(config.gamma / 2)
    psi0[7] = 1j * math.sin(config.gamma / 2)
    rho_f = u @ np.outer(psi0, psi0.conj()) @ u.conj().T
    assert abs(np.trace(rho_f) - 1.0) < 1e-12
    probs = np.array([np.vdot(v, rho_f @ v).real for v in reference_basis(config.delta)])
    return tuple(float(probs @ config.payoffs.payoffs[:, k]) for k in range(3))


def classical_payoff(table, defect_probs) -> PayoffTriple:
    """Expected payoffs when each player independently defects with the given
    probability (the multilinear mixing of the classical game)."""
    totals = np.zeros(3)
    for b, row in enumerate(table.payoffs):
        weight = 1.0
        for pos, q in enumerate(defect_probs):
            weight *= q if (b >> (2 - pos)) & 1 else 1.0 - q
        totals += weight * row
    return PayoffTriple(*totals.tolist())


# Printed reference protocol tables, re-keyed here independently of the
# package's copy, in their original column layout: Charlie's move is the
# outer header and Bob's the inner, so columns run (C=0,B=0), (C=0,B=pi),
# (C=pi,B=0), (C=pi,B=pi).  The package labels columns (theta_B, theta_C),
# which swaps the middle two; PRINTED_TO_PACKAGE_COL is that mapping.
PRINTED_TABLE2 = [
    [(3, 3, 3), (2, 5, 2), (2, 2, 5), (0, 4, 4)],
    [
        (F(3, 4), F(7, 4), F(7, 4)),
        (F(7, 2), F(1, 2), F(17, 4)),
        (F(7, 2), F(17, 4), F(1, 2)),
        (F(9, 2), F(9, 4), F(9, 4)),
    ],
    [
        (F(1, 2), F(5, 2), F(5, 2)),
        (3, 1, F(9, 2)),
        (3, F(9, 2), 1),
        (4, F(5, 2), F(5, 2)),
    ],
    [(5, 2, 2), (4, 4, 0), (4, 0, 4), (1, 1, 1)],
]

PRINTED_TABLE3 = [
    [(2, 2, 2), (3, F(5, 2), 3), (3, 3, F(5, 2)), (F(5, 2), 3, 3)],
    [
        (F(17, 8), F(9, 4), F(9, 4)),
        (3, F(21, 8), F(23, 8)),
        (3, F(23, 8), F(21, 8)),
        (F(19, 8), F(11, 4), F(11, 4)),
    ],
    [
        (F(9, 4), F(5, 2), F(5, 2)),
        (3, F(11, 4), F(11, 4)),
        (3, F(11, 4), F(11, 4)),
        (F(9, 4), F(5, 2), F(5, 2)),
    ],
    [(F(5, 2), 3, 3), (3, 3, F(5, 2)), (3, F(5, 2), 3), (2, 2, 2)],
]

PRINTED_TO_PACKAGE_COL = {0: 0, 1: 2, 2: 1, 3: 3}


# Reference decoder and information metric: the nested loops over table
# cells that ``qpd3.comms`` replaced by array reads, kept to pin its matching
# rule.  Each entry is read from ``table.payoffs`` into a triple keyed by
# player name, and visible components are picked by those names,
# independently of the package's ``MODELS`` map; row ``r`` is codeword
# ``f"{r:02b}"``, independently of ``CODEWORDS``.
_REFERENCE_SEEN = {
    "own": ("bob",),
    "bob-and-charlie": ("bob", "charlie"),
    "full-triple": ("alice", "bob", "charlie"),
}


def _reference_entry(table, row: int, col: int) -> dict[str, float]:
    return dict(zip(("alice", "bob", "charlie"), table.payoffs[row, col].tolist()))


def _reference_matches(model: str, entry: dict, observed) -> bool:
    seen = (entry[name] for name in _REFERENCE_SEEN[model])
    return all(abs(x - y) <= PAYOFF_TOL for x, y in zip(seen, observed))


def reference_decode(table, col: int, observed, model: str) -> tuple[str, ...]:
    """Bits of every codeword whose entry in column ``col`` matches ``observed``."""
    return tuple(
        f"{row:02b}"
        for row in range(4)
        if _reference_matches(model, _reference_entry(table, row, col), observed)
    )


def reference_information_bits(table, model: str) -> float:
    column_bits = []
    for col in range(4):
        entries = [_reference_entry(table, row, col) for row in range(4)]
        total = 0.0
        for entry in entries:
            observed = tuple(entry[name] for name in _REFERENCE_SEEN[model])
            matches = sum(_reference_matches(model, other, observed) for other in entries)
            total += 2.0 - math.log2(matches)
        column_bits.append(total / 4.0)
    return min(column_bits)


def _leaves(node, path=""):
    """``(path, value)`` for every leaf of a JSON tree, keys joined by ``/``;
    an empty object or array is a leaf too."""
    if isinstance(node, (dict, list)) and node:
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(child, f"{path}/{key}" if path else str(key))
    else:
        yield path, node


def _ulp_index(x: float) -> int:
    """``x``'s place in the ordered doubles: adjacent doubles differ by 1."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(2**63) - bits


def leaf_diff(old, new) -> dict:
    """What changed from one JSON report tree to another, leaf by leaf.

    ``added`` and ``removed`` list leaf paths (``"verdicts/checks/pp_nash"``).
    ``changed`` maps each other path whose value differs to ``[old, new]``:
    strings, booleans, integers, nulls and changes of type.  ``moved`` holds,
    per top-level section, the count of float leaves whose value moved and
    the largest ``|delta|`` and ulp distance among them.  Equal trees give ``{}``.
    """
    before, after = dict(_leaves(old)), dict(_leaves(new))
    changed, moved = {}, {}
    for path in sorted(before.keys() & after.keys()):
        x, y = before[path], after[path]
        if type(x) is float and type(y) is float:
            if repr(x) != repr(y):
                section = moved.setdefault(
                    path.split("/")[0], {"floats": 0, "max_abs_delta": 0.0, "max_ulps": 0}
                )
                section["floats"] += 1
                section["max_abs_delta"] = max(section["max_abs_delta"], abs(x - y))
                section["max_ulps"] = max(section["max_ulps"], abs(_ulp_index(x) - _ulp_index(y)))
        elif type(x) is not type(y) or x != y:
            changed[path] = [x, y]
    diff = {
        "added": sorted(after.keys() - before.keys()),
        "removed": sorted(before.keys() - after.keys()),
        "changed": changed,
        "moved": moved,
    }
    return {key: value for key, value in diff.items() if value}
