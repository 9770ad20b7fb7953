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

The private core ``_born`` is the one place the rule is evaluated; the initial
state and the basis signs are built into it, so it is the only statement of
the arbiter's basis.  It has two entry points.  ``outcome_probabilities``
takes the batch format every sampler and caller in the package holds,
``(gamma, delta, profiles)``: angles and a ``(3, 3)`` profile or an
``(N, 3, 3)`` batch, indexed ``[row, player, (theta, alpha, beta)]``.  It
checks them, then calls the core.  ``expected_payoffs`` takes one profile as
dataclasses, whose constructors already checked every angle, and is the
package-wide oracle: every closed-form expression, protocol table and
equilibrium scan elsewhere in the package is validated against it.
``moves`` gives the players' 2x2 matrices, for checks.

The core makes the same numpy calls whatever the batch size, about thirty,
each over the whole batch, which runs along the last axis of every
intermediate array: ``moves`` takes the phases of every move from one exact
product and one ``exp``, and both branches of the initial state come from
one broadcast product.  Each probability is still the same products and sums
in the same order, so a one-profile call and a row of a batch keep their
bits; the tests pin them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

#: Outcome labels in basis order: l = Alice bit, m = Bob bit, n = Charlie bit.
OUTCOMES = ("000", "001", "010", "011", "100", "101", "110", "111")

#: Angles this close count as equal; outcome probabilities sum to 1 within it.
ATOL = 1e-12

#: Payoffs this close count as equal, in every check and in decoding.
PAYOFF_TOL = 1e-9

#: Range of each angle of a move, name -> (lo, hi), and the same as arrays;
#: every check and sampler of moves reads it.  gamma and delta lie in [0, _ANGLE_HI].
_PARAM_BOX = {"theta": (0.0, math.pi), "alpha": (-math.pi, math.pi), "beta": (-math.pi, math.pi)}
_PARAM_LO, _PARAM_HI = (np.array(bound) for bound in zip(*_PARAM_BOX.values()))
_ANGLE_HI = math.pi / 2

#: The four entanglement regimes, label -> (gamma, delta): the initial state
#: and then the measurement basis is product (P, angle 0) or maximally
#: entangled (E, angle pi/2).  Scans and information reports keep this order.
REGIMES = {
    "PP": (0.0, 0.0),
    "PE": (0.0, _ANGLE_HI),
    "EP": (_ANGLE_HI, 0.0),
    "EE": (_ANGLE_HI, _ANGLE_HI),
}

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


def _is_real(value) -> bool:
    """A real number: not a string that ``float`` would parse, nor a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_finite(name: str, value: float) -> float:
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got a number beyond float range") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_range(name: str, value: float, lo: float, hi: float) -> float:
    # A plain float in range, which every sampler and parser passes, is
    # returned as it is; NaN and infinity fail the comparison and take the
    # full check with everything else.
    if type(value) is float and lo <= value <= hi:
        return value
    value = _check_finite(name, value)
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo:.6g}, {hi:.6g}], got {value!r}")
    return value


def _check_types(*checks) -> None:
    """Raise a ``ValueError`` naming the first ``(name, value, kind)`` whose
    value is not an instance of ``kind``."""
    for name, value, kind in checks:
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


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
        for name, (lo, hi) in _PARAM_BOX.items():
            object.__setattr__(self, name, _check_range(name, getattr(self, name), lo, hi))

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


@dataclass(frozen=True, eq=False)
class PayoffTable:
    """Payoff triples for the 8 classical outcomes: ``payoffs[outcome, player]``.

    A read-only ``(8, 3)`` array in ``OUTCOMES`` order, built from 8 rows of 3
    real, finite numbers; ``payoffs.T`` is C-contiguous, as ``expected`` reads it."""

    payoffs: np.ndarray

    def __post_init__(self):
        if len(self.payoffs) != len(OUTCOMES):
            raise ValueError(f"payoff table needs exactly {len(OUTCOMES)} outcome rows")
        columns = np.empty((3, len(OUTCOMES)))
        for j, (o, row) in enumerate(zip(OUTCOMES, self.payoffs)):
            if not (isinstance(row, (list, tuple, np.ndarray)) and len(row) == 3):
                raise ValueError(f"payoff row {o!r} must be a list of 3 real numbers, got {row!r}")
            columns[:, j] = [_check_finite(f"payoff[{o!r}][{k}]", x) for k, x in enumerate(row)]
        columns.flags.writeable = False
        object.__setattr__(self, "payoffs", columns.T)

    @classmethod
    def from_mapping(cls, mapping) -> "PayoffTable":
        keys = set(mapping)
        if keys != set(OUTCOMES):
            raise ValueError(
                f"payoff table keys must be exactly {sorted(OUTCOMES)}, got {sorted(keys)}"
            )
        return cls([mapping[o] for o in OUTCOMES])

    def expected(self, probs: np.ndarray) -> np.ndarray:
        """Expected payoffs ``(N, 3)`` for ``(N, 8)`` outcome probabilities.

        One unoptimized einsum over C-contiguous rows sums each row's 8
        products the same way whatever ``N`` or the input's layout, so a batch
        row equals the single-profile payoff bit for bit.  A BLAS product
        (``@``) blocks by batch size and does not."""
        return np.einsum("nj,kj->nk", np.ascontiguousarray(probs), self.payoffs.T)


#: The classic table; every function that takes a table defaults to it.
DEFAULT_PAYOFF_TABLE = PayoffTable.from_mapping(_CLASSIC_ENTRIES)


@dataclass(frozen=True)
class GameConfig:
    """Entanglement angles plus the payoff table.

    ``gamma`` controls the shared initial state (0 = product, pi/2 = maximal)
    and ``delta`` controls the arbiter's measurement basis likewise.
    """

    gamma: float
    delta: float
    payoffs: PayoffTable = DEFAULT_PAYOFF_TABLE

    def __post_init__(self):
        if not isinstance(self.payoffs, PayoffTable):
            raise ValueError(f"payoffs must be a PayoffTable, got {type(self.payoffs).__name__}")
        object.__setattr__(self, "gamma", _check_range("gamma", self.gamma, 0.0, _ANGLE_HI))
        object.__setattr__(self, "delta", _check_range("delta", self.delta, 0.0, _ANGLE_HI))


#: ``_PHASE_MAP @ rows + _PHASE_OFFSET`` turns the ``(theta, alpha, beta)``
#: rows of a ``(3, K)`` array into the phases of the moves' entries ``(0, 0)``,
#: ``(1, 0)`` and ``(0, 1)``: alpha, pi/2 - beta and pi/2 + beta.  Each is one
#: angle times +-1 plus 0 or pi/2, so the product is exact.
_PHASE_MAP = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
_PHASE_OFFSET = np.array([[0.0], [math.pi / 2], [math.pi / 2]])


def moves(params) -> np.ndarray:
    """Single-qubit moves for ``params[..., (theta, alpha, beta)]``, shape ``(..., 2, 2)``.

    The two generators act as ``R|0> = e^{i alpha}|0>``,
    ``R|1> = e^{-i alpha}|1>`` and ``P|0> = e^{i(pi/2 - beta)}|1>``,
    ``P|1> = e^{i(pi/2 + beta)}|0>``; the move is
    ``cos(theta/2) R + sin(theta/2) P`` and is unitary for every parameter
    choice in range.  Column ``j`` is ``U|j>``.

    Every step runs over all ``K`` moves at once, the moves on the last
    axis: one exact ``(3, 3)`` product gives the entries' phases, one
    ``exp`` their phase factors, and ``U[1, 1]`` is ``conj(U[0, 0])``, which
    differs from ``cos(theta/2) e^{-i alpha}`` at most in the sign of a
    zero.  For ``(K, 3)`` params the result is the transpose of a
    C-contiguous ``(2, 2, K)`` array ``[j, i, move]``, so its ``.T`` holds
    each ``U|j>`` with the moves contiguous.
    """
    params = np.asarray(params, dtype=float)
    rows = params.reshape(-1, 3).T
    half = rows[:1] / 2
    c, s = np.cos(half), np.sin(half)
    phase = np.dot(_PHASE_MAP, rows)
    phase += _PHASE_OFFSET
    # entries[row] = U[0, 0], U[1, 0], U[0, 1], U[1, 1], each over all moves
    entries = np.empty((4, rows.shape[1]), dtype=complex)
    np.multiply(1j, phase, out=entries[:3])
    np.exp(entries[:3], out=entries[:3])
    np.conjugate(entries[0], out=entries[3])
    entries *= np.concatenate([c, s, s, c])
    return entries.reshape(2, 2, -1).T.reshape(params.shape[:-1] + (2, 2))


# The arbiter's vector for outcome lmn is cos(delta/2)|lmn> +- i sin(delta/2)|l'm'n'>,
# paired with the bitwise complement: the plus sign on this family, the minus
# sign on the rest.  At delta = 0 it is the computational basis.
_PLUS_FAMILY = frozenset({"000", "111", "001", "110"})
#: ``-i`` times each outcome's sign, as a column: the factor that
#: ``<psi_lmn|`` puts on the complement's amplitude.
_SIGNS = np.array([[-1j] if o in _PLUS_FAMILY else [1j] for o in OUTCOMES])


def outcome_probabilities(gamma, delta, profiles) -> np.ndarray:
    """Born-rule probabilities ``|<psi_lmn|psi_f>|^2``, shape ``(N, 8)``, in ``OUTCOMES`` order.

    ``gamma`` and ``delta`` are scalars or ``(N,)`` arrays, one angle per
    row.  ``profiles`` is one profile of shape ``(3, 3)`` or a batch of
    shape ``(N, 3, 3)``, indexed ``[row, player, (theta, alpha, beta)]``
    with the players in ``(Alice, Bob, Charlie)`` order.  Each argument
    holds 1 row or the shared ``N``, and one row broadcasts against the
    batch; a row of a batch equals the single-profile call bit for bit.

    Raises:
        ValueError: if an argument has the wrong shape or a batch length
            other than 1 or the shared ``N``, an angle is non-finite or out
            of range, or a row fails to sum to 1 within ``ATOL`` (a bug, not
            a legitimate input).
    """
    angles = [np.asarray(a, dtype=float) for a in (gamma, delta)]
    for name, a in zip(("gamma", "delta"), angles):
        if a.ndim > 1:
            raise ValueError(f"{name} needs shape () or (N,), got shape {a.shape}")
    # Both angles go through one range check and one pair of trig calls.
    flat = np.concatenate([a.ravel() for a in angles])
    if not ((0.0 <= flat) & (flat <= _ANGLE_HI)).all():
        raise ValueError("gamma and delta must lie in [0, pi/2]")
    profiles = np.asarray(profiles, dtype=float)
    if profiles.ndim not in (2, 3) or profiles.shape[-2:] != (3, 3):
        raise ValueError(f"profiles needs shape (3, 3) or (N, 3, 3), got shape {profiles.shape}")
    # Each argument holds 1 row or the batch's N rows, which the first longer one sets.
    lengths = {"gamma": angles[0].size, "delta": angles[1].size, "profiles": profiles.size // 9}
    batched = [(n, name) for name, n in lengths.items() if n != 1]
    for n, name in batched[1:]:
        if n != batched[0][0]:
            raise ValueError(f"{name} holds {n} rows, but {batched[0][1]} holds {batched[0][0]}")
    # Alice's moves, then Bob's, then Charlie's go through one range check
    # and one move evaluation.
    rows = profiles.reshape(-1, 3, 3).transpose(1, 0, 2).reshape(-1, 3)
    # NaN fails both comparisons, so this also rejects non-finite angles.
    if not ((_PARAM_LO <= rows) & (rows <= _PARAM_HI)).all():
        raise ValueError(
            "player angles must satisfy 0 <= theta <= pi and -pi <= alpha, beta <= pi"
        )
    return _born(flat / 2, lengths["gamma"], rows)


def _born(half: np.ndarray, ng: int, rows: np.ndarray) -> np.ndarray:
    """The Born rule itself, on inputs already checked by its two callers.

    ``half`` holds ``gamma / 2`` in its first ``ng`` entries and ``delta / 2``
    in the rest.  ``rows`` stacks the players' ``(theta, alpha, beta)``
    rows, a third each: Alice's, then Bob's, then Charlie's.  An argument
    with one row broadcasts against a batch of ``N``.  The batch runs along
    the last axis of every intermediate array, so each numpy pass is one
    long loop whatever ``N``; the ``(N, 8)`` result is C-contiguous.
    """
    cos, sin = np.cos(half), np.sin(half)
    # columns[j, :, k] = U|j> of move k
    columns = moves(rows).T
    n = len(rows) // 3
    a, b, c = columns[..., :n], columns[..., n : 2 * n], columns[..., 2 * n :]
    # branch[j] = U_A|j> (x) U_B|j> (x) U_C|j>, Alice on the most significant bit
    branch = (a[:, :, None, None] * b[:, None, :, None] * c[:, None, None, :]).reshape(2, 8, -1)
    # Only |000> and |111> are occupied initially.
    psi = cos[:ng] * branch[0]
    psi += 1j * sin[:ng] * branch[1]
    # <psi_lmn|psi> = cos(delta/2) psi[lmn] -+ i sin(delta/2) psi[l'm'n'],
    # and the complement of index b is 7 - b.
    amp = (_SIGNS * sin[ng:]) * psi[::-1]
    amp += cos[ng:] * psi
    # |amp|^2 as re^2 + im^2, written to the C-contiguous (N, 8) result
    square = amp.view(float)
    np.square(square, out=square)
    probs = np.empty((amp.shape[1], 8))
    np.add(square[:, ::2], square[:, 1::2], out=probs.T)
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    if worst > ATOL:
        raise ValueError(f"outcome probabilities sum to 1 +- {worst!r}, beyond {ATOL}")
    return probs


def expected_payoffs(
    config: GameConfig, pa: StrategyParams, pb: StrategyParams, pc: StrategyParams
) -> PayoffTriple:
    """Trace-rule expected payoffs: the canonical oracle for this package.

    The dataclasses checked every angle when they were built, so this runs
    the Born rule without ``outcome_probabilities``' checks of its arrays.

    Raises:
        ValueError: if ``config`` is not a ``GameConfig`` or a player not a
            ``StrategyParams``, naming the argument.
    """
    _check_types(
        ("config", config, GameConfig),
        ("pa", pa, StrategyParams),
        ("pb", pb, StrategyParams),
        ("pc", pc, StrategyParams),
    )
    half = np.array([config.gamma / 2, config.delta / 2])
    probs = _born(half, 1, np.array([pa.as_tuple(), pb.as_tuple(), pc.as_tuple()]))
    return PayoffTriple(*config.payoffs.expected(probs)[0].tolist())

