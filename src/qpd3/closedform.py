"""Published closed-form payoff expressions, kept verbatim for auditing.

The game's expected payoffs have a published analytic form.  As printed it
carries suspected typos, most visibly a repeated ``sin(theta_B)`` factor in
the four measurement-entanglement correction terms where symmetry calls for
``sin(theta_C)``.  This module evaluates the expression exactly as printed
(`closed_form_payoffs`), plus the printed maximal-entanglement special case
(`max_entanglement_payoffs`), and quantifies their deviation from the
trace-rule oracle (`compare_to_oracle`) instead of silently correcting
anything.  The oracle in :mod:`qpd3.game` stays canonical throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .game import (
    _ANGLE_HI,
    _PARAM_BOX,
    ATOL,
    OUTCOMES,
    GameConfig,
    PayoffTriple,
    StrategyParams,
    expected_payoffs,
)

Sampler = Callable[[np.random.Generator], tuple[GameConfig, tuple[StrategyParams, StrategyParams, StrategyParams]]]


@dataclass(frozen=True)
class ClosedFormTerms:
    """Shared trigonometric ingredients of the closed form.

    Each field is a scalar or an array holding one value per sample, as the
    angles passed to :meth:`from_angles` are.  Identities that hold by
    construction: ``eta1 + eta2 == 1``, ``c[k] + s[k] == 1`` per player, and
    ``|xi| <= 1/2``.
    """

    eta1: np.ndarray
    eta2: np.ndarray
    xi: np.ndarray
    c: tuple[np.ndarray, np.ndarray, np.ndarray]
    s: tuple[np.ndarray, np.ndarray, np.ndarray]

    @classmethod
    def from_angles(cls, gamma, delta, thetas) -> "ClosedFormTerms":
        """Terms for scalar or same-shape array ``gamma``, ``delta`` and three ``thetas``."""
        cg, sg = np.cos(gamma / 2) ** 2, np.sin(gamma / 2) ** 2
        cd, sd = np.cos(delta / 2) ** 2, np.sin(delta / 2) ** 2
        return cls(
            eta1=cg * cd + sg * sd,
            eta2=sg * cd + sd * cg,
            xi=0.5 * np.sin(delta) * np.sin(gamma),
            c=tuple(np.cos(t / 2) ** 2 for t in thetas),
            s=tuple(np.sin(t / 2) ** 2 for t in thetas),
        )


def _closed_form_player(
    dollars: dict[str, np.ndarray],
    terms: ClosedFormTerms,
    gamma: np.ndarray,
    delta: np.ndarray,
    params: np.ndarray,
) -> np.ndarray:
    """One player's payoff per sample, transcribed term-for-term from the printed form.

    ``gamma`` and ``delta`` hold one angle per sample, ``params`` the
    ``(n, 3, 3)`` player-by-(theta, alpha, beta) angles and ``dollars`` maps
    each outcome to the player's ``(n,)`` payoffs.  The repeated ``sin(tb)``
    in the final four terms is intentional: it is what the published
    expression literally says, and the whole point of this evaluator is to
    measure that expression against the oracle.
    """
    d = dollars
    eta1, eta2, xi = terms.eta1, terms.eta2, terms.xi
    ca, cb, cc = terms.c
    sa, sb, sc = terms.s
    (ta, aa, ba), (tb, ab, bb), (tc, ac, bc) = np.moveaxis(params, 0, -1)

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


def _closed_form(draws) -> np.ndarray:
    """The printed closed form for each ``(config, profile)`` of ``draws``, shape ``(n, 3)``."""
    gamma = np.array([config.gamma for config, _ in draws])
    delta = np.array([config.delta for config, _ in draws])
    # (n, player, (theta, alpha, beta)) angles and (n, outcome, player) payoffs
    params = np.array([[p.as_tuple() for p in profile] for _, profile in draws])
    tables = np.array([config.payoffs.entries for config, _ in draws])
    terms = ClosedFormTerms.from_angles(gamma, delta, tuple(params[:, :, 0].T))
    players = [dict(zip(OUTCOMES, tables[:, :, k].T)) for k in range(3)]
    return np.stack(
        [_closed_form_player(d, terms, gamma, delta, params) for d in players], axis=1
    )


def closed_form_payoffs(
    config: GameConfig, pa: StrategyParams, pb: StrategyParams, pc: StrategyParams
) -> PayoffTriple:
    """Evaluate the full published closed form, exactly as printed.

    At ``gamma = delta = 0`` every correction term vanishes and the
    expression provably collapses to the classical multilinear payoff, so it
    agrees with the oracle there.  Away from that corner, agreement is an
    empirical question answered by :func:`compare_to_oracle`.
    """
    return PayoffTriple(*_closed_form([(config, (pa, pb, pc))])[0].tolist())


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

    values = []
    for k in range(3):
        d = {o: row[k] for o, row in zip(OUTCOMES, config.payoffs.entries)}
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
        values.append(total)
    return PayoffTriple(*values)


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
        return max(max(s.delta_abs) for s in self.samples)

    @property
    def mean_abs_delta(self) -> float:
        flat = [d for s in self.samples for d in s.delta_abs]
        return sum(flat) / len(flat)

    def to_record(self) -> dict:
        return {
            "seed": self.seed,
            "sample_count": self.sample_count,
            "max_abs_delta": self.max_abs_delta,
            "mean_abs_delta": self.mean_abs_delta,
        }


# Scalar draws: one vector draw gives the same stream but costs more per sample.
def _random_params(rng: np.random.Generator) -> StrategyParams:
    return StrategyParams(*(rng.uniform(lo, hi) for lo, hi in _PARAM_BOX.values()))


def sample_any(rng: np.random.Generator):
    """Uniform draw over the full (gamma, delta, three-profile) space."""
    config = GameConfig(rng.uniform(0.0, _ANGLE_HI), rng.uniform(0.0, _ANGLE_HI))
    return config, (_random_params(rng), _random_params(rng), _random_params(rng))


def sample_classical_limit(rng: np.random.Generator):
    """Random profiles pinned to the classical corner gamma = delta = 0."""
    config = GameConfig(0.0, 0.0)
    return config, (_random_params(rng), _random_params(rng), _random_params(rng))


def sample_pure_moves(rng: np.random.Generator):
    """Random entanglement and phases but pure moves theta in {0, pi}."""
    config = GameConfig(rng.uniform(0.0, _ANGLE_HI), rng.uniform(0.0, _ANGLE_HI))

    def pure() -> StrategyParams:
        theta = float(rng.choice((0.0, math.pi)))
        return StrategyParams(theta, *(rng.uniform(*_PARAM_BOX[a]) for a in ("alpha", "beta")))

    return config, (pure(), pure(), pure())


def compare_to_oracle(sampler: Sampler, n: int, seed: int = 0) -> ComparisonReport:
    """Sample ``n`` profiles and tabulate closed-form-vs-oracle deltas.

    Deterministic for a fixed ``(sampler, n, seed)``; deltas are recorded, not
    judged; callers decide which regimes warrant assertions.  The closed form
    runs once over all ``n`` samples; the oracle runs once per sample.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    draws = [sampler(rng) for _ in range(n)]
    samples = []
    for (config, profile), closed_form in zip(draws, _closed_form(draws).tolist()):
        oracle = expected_payoffs(config, *profile).as_tuple()
        samples.append(
            ComparisonSample(
                gamma=config.gamma,
                delta=config.delta,
                params=tuple(p.as_tuple() for p in profile),
                oracle=oracle,
                closed_form=tuple(closed_form),
                delta_abs=tuple(abs(a - b) for a, b in zip(oracle, closed_form)),
            )
        )
    return ComparisonReport(seed=seed, samples=tuple(samples))
