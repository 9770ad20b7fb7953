"""Published closed-form payoff expressions, kept verbatim for auditing.

The game's expected payoffs have a published analytic form.  As printed it
carries suspected typos, most visibly a repeated ``sin(theta_B)`` factor in
the four measurement-entanglement correction terms where symmetry calls for
``sin(theta_C)``.  This module evaluates the expression exactly as printed
(`closed_form_payoffs`), plus the printed maximal-entanglement special case
(`max_entanglement_payoffs`), and quantifies their deviation from the
trace-rule oracle (`compare_to_oracle`) instead of silently correcting
anything.  The oracle in :mod:`qpd3.game` stays canonical throughout.

There are two routes to the deltas, through the two entry points of the one
Born-rule core in :mod:`qpd3.game`.  `compare_to_oracle` calls the oracle
(``expected_payoffs``) once per sample and keeps every sample as a record;
each call builds the sample's validated ``StrategyParams`` and
``GameConfig`` and runs the core on them with no second check of their
angles.  The ``audit`` benchmark workload measures that path and its smoke
test pins 1000 ``expected_payoffs`` calls per op, so the loop stays until
the benchmark is brought up to date (ROADMAP item 1).  `_oracle_deltas`
makes one ``outcome_probabilities`` call over all samples; the verification
bundle uses it.  A test holds the two equal bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .game import (
    _ANGLE_HI,
    _PARAM_HI,
    _PARAM_LO,
    ATOL,
    DEFAULT_PAYOFF_TABLE,
    OUTCOMES,
    GameConfig,
    PayoffTable,
    PayoffTriple,
    StrategyParams,
    expected_payoffs,
    outcome_probabilities,
)

#: ``sampler(rng, n)`` draws ``n`` audit samples: ``gamma`` and ``delta`` of
#: shape ``(n,)`` and the ``(n, player, (theta, alpha, beta))`` moves.
Sampler = Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray, np.ndarray]]


def _closed_form(gamma, delta, params, table: PayoffTable) -> np.ndarray:
    """Printed closed form, ``(n, 3)``, transcribed term-for-term.

    ``gamma`` and ``delta`` are scalars or hold one angle per sample,
    ``params`` holds the ``(n, 3, 3)`` player-by-(theta, alpha, beta) angles.
    Every term is an ``(n, 1)`` column and each ``d[outcome]`` the three
    players' payoffs, so one pass yields all three players.  The repeated
    ``sin(tb)`` in the final four terms is intentional: it is what the
    published expression literally says, and the whole point of this
    evaluator is to measure that expression against the oracle.
    """
    d = dict(zip(OUTCOMES, table.payoffs))
    gamma, delta = np.reshape(gamma, (-1, 1)), np.reshape(delta, (-1, 1))
    (ta, aa, ba), (tb, ab, bb), (tc, ac, bc) = np.moveaxis(params[..., None], 0, -2)
    cg, sg = np.cos(gamma / 2) ** 2, np.sin(gamma / 2) ** 2
    cd, sd = np.cos(delta / 2) ** 2, np.sin(delta / 2) ** 2
    eta1 = cg * cd + sg * sd
    eta2 = sg * cd + sd * cg
    xi = 0.5 * np.sin(delta) * np.sin(gamma)
    ca, cb, cc = (np.cos(t / 2) ** 2 for t in (ta, tb, tc))
    sa, sb, sc = (np.sin(t / 2) ** 2 for t in (ta, tb, tc))

    total = ca * cb * cc * (
        eta1 * d["000"] + eta2 * d["111"]
        + (d["000"] - d["111"]) * xi * np.cos(2 * (aa + ab + ac))
    )
    total += sa * sb * sc * (
        eta2 * d["000"] + eta1 * d["111"]
        - (d["000"] - d["111"]) * xi * np.cos(2 * (ba + bb + bc))
    )
    total += ca * cb * sc * (
        eta1 * d["001"] + eta2 * d["110"]
        + (d["001"] - d["110"]) * xi * np.cos(2 * (aa + ab - bc))
    )
    total += sa * sb * cc * (
        eta2 * d["001"] + eta1 * d["110"]
        - (d["001"] - d["110"]) * xi * np.cos(2 * (ba + bb - ac))
    )
    total += sa * cb * cc * (
        eta1 * d["100"] + eta2 * d["011"]
        + (d["100"] - d["011"]) * xi * np.cos(2 * (ab + ac - ba))
    )
    total += ca * sb * sc * (
        eta2 * d["100"] + eta1 * d["011"]
        - (d["100"] - d["011"]) * xi * np.cos(2 * (bb + bc - aa))
    )
    total += sa * cb * sc * (
        eta1 * d["101"] + eta2 * d["010"]
        + (d["101"] - d["010"]) * xi * np.cos(2 * (ba + bc - ab))
    )
    total += ca * sb * cc * (
        eta2 * d["101"] + eta1 * d["010"]
        - (d["101"] - d["010"]) * xi * np.cos(2 * (aa + ac - bb))
    )

    # Initial-state entanglement correction: this term does carry all three
    # sin(theta) factors.
    total += (
        0.125
        * (np.cos(delta / 2) ** 2 - np.sin(delta / 2) ** 2)
        * (
            d["000"] - d["111"] - d["001"] + d["110"]
            - d["010"] + d["101"] + d["011"] - d["100"]
        )
        * np.sin(gamma)
        * np.sin(ta) * np.sin(tb) * np.sin(tc)
        * np.cos(aa + ab + ac - ba - bb - bc)
    )

    # Measurement-basis entanglement corrections, sin(tb) printed twice.
    sin_block = np.sin(delta) * np.sin(ta) * np.sin(tb) * np.sin(tb)
    block = (d["000"] - d["111"]) * sin_block * np.cos(aa + ab + ac - ba - bb - bc)
    block += (d["110"] - d["001"]) * sin_block * np.cos(aa + ab - ac + ba + bb - bc)
    block += (d["010"] - d["101"]) * sin_block * np.cos(aa - ab + ac + ba - bb + bc)
    block += (d["100"] - d["011"]) * sin_block * np.cos(aa - ab - ac + ba - bb - bc)
    total += block * 0.125 * (np.cos(gamma / 2) ** 2 - np.sin(gamma / 2) ** 2)

    return total


def closed_form_payoffs(
    config: GameConfig, pa: StrategyParams, pb: StrategyParams, pc: StrategyParams
) -> PayoffTriple:
    """Evaluate the full published closed form, exactly as printed.

    At ``gamma = delta = 0`` every correction term vanishes and the
    expression provably collapses to the classical multilinear payoff, so it
    agrees with the oracle there.  Away from that corner, agreement is an
    empirical question answered by :func:`compare_to_oracle`.
    """
    params = np.array([[p.as_tuple() for p in (pa, pb, pc)]])
    payoffs = _closed_form(config.gamma, config.delta, params, config.payoffs)
    return PayoffTriple(*payoffs[0].tolist())


def max_entanglement_payoffs(
    config: GameConfig, pa: StrategyParams, pb: StrategyParams, pc: StrategyParams
) -> PayoffTriple:
    """Published special case at maximal entanglement (gamma = delta = pi/2).

    The printed expression reuses the symbol ``xi`` without restating its
    value; substituting the general ``xi = 1/2`` makes the special case
    disagree both with the full closed form restricted to
    ``gamma = delta = pi/2`` and with the published equilibrium value 3.
    Reading the coupling as ``sin(gamma) sin(delta) = 1`` fixes both, so that
    is what this evaluator uses.

    Raises:
        ValueError: unless ``gamma`` and ``delta`` both equal pi/2.
    """
    half_pi = math.pi / 2
    if abs(config.gamma - half_pi) > ATOL or abs(config.delta - half_pi) > ATOL:
        raise ValueError("max_entanglement_payoffs requires gamma = delta = pi/2")
    coupling = math.sin(config.gamma) * math.sin(config.delta)
    ca, cb, cc = (math.cos(p.theta / 2) ** 2 for p in (pa, pb, pc))
    sa, sb, sc = (math.sin(p.theta / 2) ** 2 for p in (pa, pb, pc))
    cos2a = math.cos(2 * pa.alpha)
    cos2b = math.cos(2 * pa.beta)

    # each d[outcome] holds the three players' payoffs, so one pass yields all three
    d = dict(zip(OUTCOMES, config.payoffs.payoffs))
    total = 0.5 * ca * cb * cc * (
        (d["000"] + d["111"]) + (d["000"] - d["111"]) * coupling * cos2a
    )
    total += 0.5 * sa * sb * sc * (
        (d["000"] + d["111"]) - (d["000"] - d["111"]) * coupling * cos2b
    )
    total += 0.5 * ca * cb * sc * (
        (d["001"] + d["110"]) + (d["001"] - d["110"]) * coupling * cos2a
    )
    total += 0.5 * sa * sb * cc * (
        (d["001"] + d["110"]) - (d["001"] - d["110"]) * coupling * cos2b
    )
    total += 0.5 * sa * cb * cc * (
        (d["100"] + d["011"]) + (d["100"] - d["011"]) * coupling * cos2b
    )
    total += 0.5 * ca * sb * sc * (
        (d["100"] + d["011"]) - (d["100"] - d["011"]) * coupling * cos2a
    )
    total += 0.5 * sa * cb * sc * (
        (d["101"] + d["010"]) + (d["101"] - d["010"]) * coupling * cos2b
    )
    total += 0.5 * ca * sb * cc * (
        (d["101"] + d["010"]) - (d["101"] - d["010"]) * coupling * cos2a
    )
    return PayoffTriple(*total.tolist())


@dataclass(frozen=True)
class ComparisonSample:
    """One sampled profile with oracle and closed-form payoffs side by side."""

    gamma: float
    delta: float
    params: tuple[tuple[float, float, float], ...]
    oracle: tuple[float, float, float]
    closed_form: tuple[float, float, float]
    delta_abs: tuple[float, float, float]


@dataclass(frozen=True)
class ComparisonReport:
    """Oracle-vs-closed-form deltas over a seeded sample of profiles."""

    seed: int
    samples: tuple[ComparisonSample, ...]

    @property
    def sample_count(self) -> int:
        return len(self.samples)

    @property
    def max_abs_delta(self) -> float:
        return float(np.max([s.delta_abs for s in self.samples]))

    @property
    def mean_abs_delta(self) -> float:
        return float(np.mean([s.delta_abs for s in self.samples]))


# Per sample: gamma, delta, then (theta, alpha, beta) for each player.
_SAMPLE_LO = np.concatenate([[0.0, 0.0], np.tile(_PARAM_LO, 3)])
_SAMPLE_HI = np.concatenate([[_ANGLE_HI, _ANGLE_HI], np.tile(_PARAM_HI, 3)])


def sample_any(rng: np.random.Generator, n: int):
    """``n`` uniform draws over the full space: one ``(n, 11)`` draw, the same stream
    as scalar draws of gamma, delta, then (theta, alpha, beta) per player, per sample."""
    draws = rng.uniform(_SAMPLE_LO, _SAMPLE_HI, size=(n, 11))
    return draws[:, 0], draws[:, 1], draws[:, 2:].reshape(n, 3, 3)


def sample_classical_limit(rng: np.random.Generator, n: int):
    """As :func:`sample_any` at the classical corner gamma = delta = 0: one ``(n, 9)`` draw."""
    draws = rng.uniform(_SAMPLE_LO[2:], _SAMPLE_HI[2:], size=(n, 9))
    return np.zeros(n), np.zeros(n), draws.reshape(n, 3, 3)


def sample_pure_moves(rng: np.random.Generator, n: int):
    """``n`` draws as :func:`sample_any`, then every theta redrawn from {0, pi}."""
    gamma, delta, params = sample_any(rng, n)
    params[..., 0] = math.pi * rng.integers(0, 2, size=(n, 3))
    return gamma, delta, params


def compare_to_oracle(sampler: Sampler, n: int, seed: int = 0) -> ComparisonReport:
    """Sample ``n`` profiles and tabulate closed-form-vs-oracle deltas.

    Deterministic for a fixed ``(sampler, n, seed)``; deltas are recorded, not
    judged; callers decide which regimes warrant assertions.  The sampler
    draws all ``n`` samples at once and the closed form runs once over them;
    the oracle runs once per sample, under the classic payoff table, on the
    dataclasses whose constructors check the sample's angles.  That
    loop is what the ``audit`` benchmark workload measures and its smoke test
    pins, so it stays until the benchmark moves to :func:`_oracle_deltas`,
    which gives the same values in one kernel call (ROADMAP item 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gamma, delta, params = sampler(np.random.default_rng(seed), n)
    closed = _closed_form(gamma, delta, params, DEFAULT_PAYOFF_TABLE)
    samples = []
    rows = zip(gamma.tolist(), delta.tolist(), params.tolist(), closed.tolist())
    for g, d, moves, closed_form in rows:
        profile = tuple(StrategyParams(*move) for move in moves)
        oracle = expected_payoffs(GameConfig(g, d), *profile).as_tuple()
        samples.append(
            ComparisonSample(
                gamma=g,
                delta=d,
                params=tuple(p.as_tuple() for p in profile),
                oracle=oracle,
                closed_form=tuple(closed_form),
                delta_abs=tuple(abs(a - b) for a, b in zip(oracle, closed_form)),
            )
        )
    return ComparisonReport(seed=seed, samples=tuple(samples))


def _oracle_deltas(
    sampler: Sampler, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`compare_to_oracle`'s values as ``(n, 3)`` arrays: oracle, closed form, |delta|.

    The same draw and closed form, then one kernel call and one
    :meth:`PayoffTable.expected` over all ``n`` rows; a row of the batch
    equals the single-profile oracle bit for bit.
    """
    gamma, delta, params = sampler(np.random.default_rng(seed), n)
    closed = _closed_form(gamma, delta, params, DEFAULT_PAYOFF_TABLE)
    probs = outcome_probabilities(gamma, delta, *params.transpose(1, 0, 2))
    oracle = DEFAULT_PAYOFF_TABLE.expected(probs)
    return oracle, closed, np.abs(oracle - closed)
