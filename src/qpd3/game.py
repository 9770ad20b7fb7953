"""Three-player quantized Prisoner's Dilemma: states, moves, measurement, payoffs.

The scheme: an arbiter prepares the three-qubit state
``cos(gamma/2)|000> + i sin(gamma/2)|111>`` and hands one qubit to each of
Alice, Bob and Charlie.  Each player applies a local unitary parameterized by
``(theta, alpha, beta)``, returns the qubit, and the arbiter measures in a
basis whose entanglement is set by a second angle ``delta``.  Expected
payoffs follow from the trace rule: the probability of outcome ``lmn`` is
``<psi_lmn| rho_f |psi_lmn>`` and each player collects the corresponding
payoff-table entry.  The initial state is pure and every move is unitary, so
``rho_f = |psi_f><psi_f|`` and the rule is evaluated as
``|<psi_lmn|psi_f>|^2``; the tests cross-check it against the density-matrix
form.

``outcome_probabilities`` is the one place the rule is evaluated, for a single
profile or a batch of them.  ``expected_payoffs`` wraps it for one profile and
is the package-wide oracle: every closed-form expression, protocol table and
equilibrium scan elsewhere in the package is validated against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Outcome labels in basis order: l = Alice bit, m = Bob bit, n = Charlie bit.
OUTCOMES = ("000", "001", "010", "011", "100", "101", "110", "111")

#: Players in payoff-triple order.
PLAYERS = ("A", "B", "C")

#: Largest distance from 1 that a sum of outcome probabilities may show.
ATOL = 1e-12

# Classic three-player dilemma payoffs: cooperate = bit 0, defect = bit 1.
# Triple order is (Alice, Bob, Charlie); lone defectors collect 5, the
# betrayed cooperator in a two-defector outcome collects 0.
_CLASSIC_ENTRIES = {
    "000": (3.0, 3.0, 3.0),
    "001": (2.0, 2.0, 5.0),
    "010": (2.0, 5.0, 2.0),
    "011": (0.0, 4.0, 4.0),
    "100": (5.0, 2.0, 2.0),
    "101": (4.0, 0.0, 4.0),
    "110": (4.0, 4.0, 0.0),
    "111": (1.0, 1.0, 1.0),
}


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_range(name: str, value: float, lo: float, hi: float) -> float:
    value = _check_finite(name, value)
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo:.6g}, {hi:.6g}], got {value!r}")
    return value


def player_index(player) -> int:
    """Map 'A'/'B'/'C' (or 0/1/2) to a payoff-triple index."""
    if isinstance(player, int):
        if player in (0, 1, 2):
            return player
        raise ValueError(f"player index must be 0, 1 or 2, got {player}")
    try:
        return PLAYERS.index(str(player).upper())
    except ValueError:
        raise ValueError(f"unknown player {player!r}; expected one of {PLAYERS}") from None


@dataclass(frozen=True)
class StrategyParams:
    """One player's move: ``U = cos(theta/2) R(alpha) + sin(theta/2) P(beta)``.

    ``theta`` interpolates between the phase move ``R`` (theta=0, a classical
    "cooperate" up to phase) and the flip move ``P`` (theta=pi, "defect" up to
    phase).  Ranges are hard contracts: ``0 <= theta <= pi`` and
    ``-pi <= alpha, beta <= pi``.
    """

    theta: float
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _check_range("theta", self.theta, 0.0, math.pi))
        object.__setattr__(self, "alpha", _check_range("alpha", self.alpha, -math.pi, math.pi))
        object.__setattr__(self, "beta", _check_range("beta", self.beta, -math.pi, math.pi))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta, self.alpha, self.beta)


@dataclass(frozen=True)
class PayoffTriple:
    """Expected payoffs in (Alice, Bob, Charlie) order."""

    alice: float
    bob: float
    charlie: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alice, self.bob, self.charlie)

    def __getitem__(self, k: int) -> float:
        return self.as_tuple()[k]


@dataclass(frozen=True)
class PayoffTable:
    """Payoff triples for the 8 classical outcomes, keyed by ``lmn`` labels."""

    entries: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if len(self.entries) != len(OUTCOMES):
            raise ValueError(f"payoff table needs exactly {len(OUTCOMES)} outcome rows")
        clean = tuple(
            tuple(_check_finite(f"payoff[{OUTCOMES[i]}][{k}]", x) for k, x in enumerate(row))
            for i, row in enumerate(self.entries)
        )
        if any(len(row) != 3 for row in clean):
            raise ValueError("each outcome row must hold exactly 3 payoffs")
        object.__setattr__(self, "entries", clean)

    @classmethod
    def from_mapping(cls, mapping) -> "PayoffTable":
        keys = set(mapping)
        if keys != set(OUTCOMES):
            raise ValueError(
                f"payoff table keys must be exactly {sorted(OUTCOMES)}, got {sorted(keys)}"
            )
        return cls(tuple(tuple(float(x) for x in mapping[o]) for o in OUTCOMES))

    @classmethod
    def default(cls) -> "PayoffTable":
        return cls.from_mapping(_CLASSIC_ENTRIES)

    def triple(self, outcome: str) -> tuple[float, float, float]:
        return self.entries[OUTCOMES.index(outcome)]

    def column(self, player) -> np.ndarray:
        """All 8 payoffs of one player, in basis order."""
        k = player_index(player)
        return np.array([row[k] for row in self.entries], dtype=float)

    def as_mapping(self) -> dict[str, list[float]]:
        return {o: list(row) for o, row in zip(OUTCOMES, self.entries)}

    def bounds(self) -> tuple[float, float]:
        flat = [x for row in self.entries for x in row]
        return (min(flat), max(flat))


DEFAULT_PAYOFF_TABLE = PayoffTable.default()


@dataclass(frozen=True)
class GameConfig:
    """Entanglement angles plus the payoff table.

    ``gamma`` controls the shared initial state (0 = product, pi/2 = maximal)
    and ``delta`` controls the arbiter's measurement basis likewise.
    """

    gamma: float
    delta: float
    payoffs: PayoffTable = field(default_factory=PayoffTable.default)

    def __post_init__(self):
        object.__setattr__(self, "gamma", _check_range("gamma", self.gamma, 0.0, math.pi / 2))
        object.__setattr__(self, "delta", _check_range("delta", self.delta, 0.0, math.pi / 2))


@dataclass(frozen=True)
class OutcomeDistribution:
    """Born-rule probabilities over the 8 measurement outcomes."""

    probs: dict[str, float]

    def as_array(self) -> np.ndarray:
        return np.array([self.probs[o] for o in OUTCOMES], dtype=float)

    def __getitem__(self, outcome: str) -> float:
        return self.probs[outcome]


def initial_state(gamma: float) -> np.ndarray:
    """Shared initial state ``cos(gamma/2)|000> + i sin(gamma/2)|111>``."""
    gamma = _check_range("gamma", gamma, 0.0, math.pi / 2)
    psi = np.zeros(8, dtype=complex)
    psi[0] = math.cos(gamma / 2)
    psi[7] = 1j * math.sin(gamma / 2)
    return psi


def moves(params) -> np.ndarray:
    """Single-qubit moves for ``params[..., (theta, alpha, beta)]``, shape ``(..., 2, 2)``.

    The two generators act as ``R|0> = e^{i alpha}|0>``,
    ``R|1> = e^{-i alpha}|1>`` and ``P|0> = e^{i(pi/2 - beta)}|1>``,
    ``P|1> = e^{i(pi/2 + beta)}|0>``; the move is
    ``cos(theta/2) R + sin(theta/2) P`` and is unitary for every parameter
    choice in range.  Column ``j`` is ``U|j>``.
    """
    params = np.asarray(params, dtype=float)
    theta, alpha, beta = params[..., 0], params[..., 1], params[..., 2]
    c = np.cos(theta / 2)
    s = np.sin(theta / 2)
    u = np.empty(params.shape[:-1] + (2, 2), dtype=complex)
    u[..., 0, 0] = c * np.exp(1j * alpha)
    u[..., 1, 1] = c * np.exp(-1j * alpha)
    u[..., 0, 1] = s * np.exp(1j * (math.pi / 2 + beta))
    u[..., 1, 0] = s * np.exp(1j * (math.pi / 2 - beta))
    return u


def strategy_unitary(p: StrategyParams) -> np.ndarray:
    """Single-qubit move for one player; see :func:`moves`."""
    return moves(p.as_tuple())


# Outcomes whose basis vector carries +i sin(delta/2) on the partner label;
# the complementary family carries -i sin(delta/2).
_PLUS_FAMILY = frozenset({"000", "111", "001", "110"})
_SIGNS = np.array([1.0 if o in _PLUS_FAMILY else -1.0 for o in OUTCOMES])


def measurement_basis(delta: float) -> list[np.ndarray]:
    """The arbiter's 8 orthonormal measurement vectors, indexed by outcome.

    Each vector pairs an outcome ``lmn`` with its bitwise complement:
    ``cos(delta/2)|lmn> +- i sin(delta/2)|l'm'n'>`` with the plus sign on the
    {000, 111, 001, 110} family and the minus sign on the rest.  At delta=0
    this is the computational basis.
    """
    delta = _check_range("delta", delta, 0.0, math.pi / 2)
    c = math.cos(delta / 2)
    s = math.sin(delta / 2)
    basis = []
    for b in range(len(OUTCOMES)):
        v = np.zeros(8, dtype=complex)
        v[b] = c
        v[7 - b] += _SIGNS[b] * 1j * s
        basis.append(v)
    return basis


def measurement_projectors(delta: float) -> list[np.ndarray]:
    """Rank-1 projectors onto the measurement basis, indexed by outcome."""
    return [np.outer(v, v.conj()) for v in measurement_basis(delta)]


def payoff_operator(delta: float, player, table: PayoffTable | None = None) -> np.ndarray:
    """Hermitian payoff operator ``sum_lmn payoff[lmn] |psi_lmn><psi_lmn|``.

    Its spectrum is exactly the player's 8 table payoffs for every ``delta``.
    """
    table = DEFAULT_PAYOFF_TABLE if table is None else table
    dollars = table.column(player)
    op = np.zeros((8, 8), dtype=complex)
    for value, proj in zip(dollars, measurement_projectors(delta)):
        op += value * proj
    return op


# Range of (theta, alpha, beta), as StrategyParams enforces it.
_PARAM_LO = np.array([0.0, -math.pi, -math.pi])
_PARAM_HI = np.array([math.pi, math.pi, math.pi])


def outcome_probabilities(gamma: float, delta: float, pa, pb, pc) -> np.ndarray:
    """Born-rule probabilities ``|<psi_lmn|psi_f>|^2``, shape ``(N, 8)``, in ``OUTCOMES`` order.

    Each player argument is ``(theta, alpha, beta)`` with shape ``(3,)`` or
    ``(N, 3)``; the three broadcast against each other, so one batched player
    facing two fixed ones costs no copies of the fixed moves.

    Raises:
        ValueError: if an argument has the wrong shape, an angle is
            non-finite or out of range, or a row fails to sum to 1 within
            ``ATOL`` (a bug, not a legitimate input).
    """
    gamma = _check_range("gamma", gamma, 0.0, math.pi / 2)
    delta = _check_range("delta", delta, 0.0, math.pi / 2)
    players = [np.asarray(p, dtype=float) for p in (pa, pb, pc)]
    for name, p in zip(PLAYERS, players):
        if p.ndim not in (1, 2) or p.shape[-1] != 3:
            raise ValueError(
                f"player {name} needs (theta, alpha, beta) of shape (3,) or (N, 3), "
                f"got shape {p.shape}"
            )
    # All players' rows go through one range check and one move evaluation.
    rows = np.concatenate([p.reshape(-1, 3) for p in players])
    # NaN fails both comparisons, so this also rejects non-finite angles.
    if not np.all((_PARAM_LO <= rows) & (rows <= _PARAM_HI)):
        raise ValueError(
            "player angles must satisfy 0 <= theta <= pi and -pi <= alpha, beta <= pi"
        )
    na, nb = (p.size // 3 for p in players[:2])
    parts = np.split(moves(rows), [na, na + nb])
    ua, ub, uc = (u.reshape(p.shape[:-1] + (2, 2)) for u, p in zip(parts, players))

    def branch(j: int) -> np.ndarray:
        # U_A|j> (x) U_B|j> (x) U_C|j>, Alice on the most significant bit
        a, b, c = ua[..., :, j], ub[..., :, j], uc[..., :, j]
        product = a[..., :, None, None] * b[..., None, :, None] * c[..., None, None, :]
        return product.reshape(-1, 8)

    # Only |000> and |111> are occupied initially.
    psi = math.cos(gamma / 2) * branch(0)
    psi += 1j * math.sin(gamma / 2) * branch(1)
    # <psi_lmn|psi> = cos(delta/2) psi[lmn] -+ i sin(delta/2) psi[l'm'n'],
    # and the complement of index b is 7 - b.
    amp = (-1j * math.sin(delta / 2) * _SIGNS) * psi[:, ::-1]
    amp += math.cos(delta / 2) * psi
    probs = amp.real**2 + amp.imag**2
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if worst > ATOL:
        raise ValueError(f"outcome probabilities sum to 1 +- {worst!r}, beyond {ATOL}")
    return probs


def outcome_distribution(
    config: GameConfig, pa: StrategyParams, pb: StrategyParams, pc: StrategyParams
) -> OutcomeDistribution:
    """Born-rule outcome probabilities ``<psi_lmn| rho_f |psi_lmn>`` for one profile."""
    probs = outcome_probabilities(
        config.gamma, config.delta, pa.as_tuple(), pb.as_tuple(), pc.as_tuple()
    )
    return OutcomeDistribution(dict(zip(OUTCOMES, probs[0].tolist())))


def expected_payoffs(
    config: GameConfig, pa: StrategyParams, pb: StrategyParams, pc: StrategyParams
) -> PayoffTriple:
    """Trace-rule expected payoffs: the canonical oracle for this package."""
    probs = outcome_probabilities(
        config.gamma, config.delta, pa.as_tuple(), pb.as_tuple(), pc.as_tuple()
    )
    return PayoffTriple(*(float(probs[0] @ config.payoffs.column(k)) for k in range(3)))


def classical_payoff(
    table: PayoffTable, defect_probs: tuple[float, float, float]
) -> PayoffTriple:
    """Expected payoffs when each player independently defects with the given
    probability (the multilinear mixing of the classical game)."""
    qs = [_check_range(f"defect_probs[{i}]", q, 0.0, 1.0) for i, q in enumerate(defect_probs)]
    totals = np.zeros(3)
    for b, outcome in enumerate(OUTCOMES):
        weight = 1.0
        for pos, q in enumerate(qs):
            bit = (b >> (2 - pos)) & 1
            weight *= q if bit else (1.0 - q)
        totals += weight * np.array(table.entries[b])
    return PayoffTriple(*totals.tolist())
