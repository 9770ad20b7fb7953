import math
from fractions import Fraction as F

import numpy as np
import pytest

from qpd3 import GameConfig, PayoffTriple, StrategyParams, measurement_basis


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


def trace_rule_payoffs(config: GameConfig, pa, pb, pc) -> tuple[float, float, float]:
    """Reference payoffs from the density-matrix trace rule ``<psi_lmn| rho_f |psi_lmn>``.

    Each player is a ``(theta, alpha, beta)`` triple.  Shares no code with the
    package's kernel: it builds its own moves and initial state, and takes the
    measurement vectors from ``measurement_basis``, which the kernel never calls.
    """
    u = np.kron(np.kron(_move(*pa), _move(*pb)), _move(*pc))
    # cos(gamma/2)|000> + i sin(gamma/2)|111>
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = math.cos(config.gamma / 2)
    psi0[7] = 1j * math.sin(config.gamma / 2)
    rho_f = u @ np.outer(psi0, psi0.conj()) @ u.conj().T
    assert abs(np.trace(rho_f) - 1.0) < 1e-12
    probs = np.array([np.vdot(v, rho_f @ v).real for v in measurement_basis(config.delta)])
    return tuple(float(probs @ config.payoffs.column(k)) for k in range(3))


def classical_payoff(table, defect_probs) -> PayoffTriple:
    """Expected payoffs when each player independently defects with the given
    probability (the multilinear mixing of the classical game)."""
    totals = np.zeros(3)
    for b, row in enumerate(table.entries):
        weight = 1.0
        for pos, q in enumerate(defect_probs):
            weight *= q if (b >> (2 - pos)) & 1 else 1.0 - q
        totals += weight * np.array(row)
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
