"""Grid-based best-response search and the four entanglement-regime scan.

Nash claims here are certified against a finite strategy grid rather than
analytically: a profile is *grid-Nash* when no player can improve their
oracle payoff by deviating to any point of their own (theta, alpha, beta)
grid.  The verdict is refinement-monotone (enlarging the grid can only
expose more deviations, never fewer), which makes it an honest, testable
certificate.

The four regimes are labelled by which entanglement resource is product (P)
or maximally entangled (E), in (initial state, measurement basis) order:
PP = (0, 0), PE = (0, pi/2), EP = (pi/2, 0), EE = (pi/2, pi/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .comms import COMMON_ALPHA, COMMON_BETA
from .game import (
    GameConfig,
    PayoffTable,
    PayoffTriple,
    StrategyParams,
    expected_payoffs,
    outcome_probabilities,
    player_index,
)

#: Gate for equilibrium and ordering assertions.
NASH_TOL = 1e-9

_THETA_ANCHORS = (0.0, math.pi / 2, math.pi)
_PHASE_ANCHORS = (-math.pi, 0.0, math.pi / 2, math.pi)


def _grid_axis(count: int, lo: float, hi: float, anchors: tuple[float, ...]) -> np.ndarray:
    if count < 2:
        raise ValueError("grid axes need at least 2 points")
    pts = np.linspace(lo, hi, count)
    merged = np.union1d(pts, np.array(anchors))
    return merged


@dataclass(frozen=True)
class GridSpec:
    """Per-player strategy grid: linspace axes plus forced anchor points.

    The anchors (0, pi/2, pi for theta; -pi, 0, pi/2, pi for phases) are
    always present so the named profiles of interest sit exactly on the grid.
    """

    theta_points: int = 25
    alpha_points: int = 17
    beta_points: int = 17

    def __post_init__(self):
        if min(self.theta_points, self.alpha_points, self.beta_points) < 2:
            raise ValueError("every grid axis needs at least 2 points")

    def theta_values(self) -> np.ndarray:
        return _grid_axis(self.theta_points, 0.0, math.pi, _THETA_ANCHORS)

    def alpha_values(self) -> np.ndarray:
        return _grid_axis(self.alpha_points, -math.pi, math.pi, _PHASE_ANCHORS)

    def beta_values(self) -> np.ndarray:
        return _grid_axis(self.beta_points, -math.pi, math.pi, _PHASE_ANCHORS)

    def refined(self) -> "GridSpec":
        """Grid with every axis doubled in resolution; supersets this one."""
        return GridSpec(
            2 * self.theta_points - 1, 2 * self.alpha_points - 1, 2 * self.beta_points - 1
        )

    def size(self) -> int:
        return (
            len(self.theta_values()) * len(self.alpha_values()) * len(self.beta_values())
        )

    def to_record(self) -> dict:
        return {
            "theta_points": self.theta_points,
            "alpha_points": self.alpha_points,
            "beta_points": self.beta_points,
        }


@dataclass(frozen=True)
class Profile:
    """A full strategy profile, one parameter triple per player."""

    pa: StrategyParams
    pb: StrategyParams
    pc: StrategyParams

    def as_tuple(self) -> tuple[StrategyParams, StrategyParams, StrategyParams]:
        return (self.pa, self.pb, self.pc)

    def to_record(self) -> dict:
        return {
            "alice": list(self.pa.as_tuple()),
            "bob": list(self.pb.as_tuple()),
            "charlie": list(self.pc.as_tuple()),
        }


@dataclass(frozen=True)
class EquilibriumReport:
    """Grid-Nash certificate for one profile.

    ``gaps[k]`` is the best payoff gain player k could realize by a
    unilateral move to any grid point (never negative: the played point is
    always included in the candidate set).
    """

    profile: Profile
    payoff: PayoffTriple
    gaps: tuple[float, float, float]
    tol: float
    grid: GridSpec
    case: str | None = None

    @property
    def is_nash(self) -> bool:
        return max(self.gaps) <= self.tol

    def to_record(self) -> dict:
        record = {
            "profile": self.profile.to_record(),
            "payoff": list(self.payoff.as_tuple()),
            "best_response_gaps": list(self.gaps),
            "tol": self.tol,
            "grid": self.grid.to_record(),
            "is_nash": self.is_nash,
        }
        if self.case is not None:
            record["case"] = self.case
        return record


def _candidate_params(grid: GridSpec) -> np.ndarray:
    """Grid points as a ``(G, 3)`` array in lexicographic (theta, alpha, beta) order."""
    axes = np.meshgrid(
        grid.theta_values(), grid.alpha_values(), grid.beta_values(), indexing="ij"
    )
    return np.stack([axis.ravel() for axis in axes], axis=1)


def _batched_payoffs(
    player: int,
    candidates: np.ndarray,
    others: tuple[StrategyParams, StrategyParams],
    config: GameConfig,
) -> np.ndarray:
    """Oracle payoffs of ``player`` for each ``(G, 3)`` candidate row, others fixed."""
    players = [p.as_tuple() for p in others]
    players.insert(player, candidates)
    probs = outcome_probabilities(config.gamma, config.delta, *players)
    return probs @ config.payoffs.column(player)


def best_response(
    player,
    others: tuple[StrategyParams, StrategyParams],
    config: GameConfig,
    grid: GridSpec,
) -> StrategyParams:
    """Argmax of the player's payoff over their grid, opponents held fixed.

    ``others`` are the remaining players' parameters in ascending player
    order (B,C for Alice, A,C for Bob, A,B for Charlie).  Ties, including
    float near-ties within 1e-12 (which is where payoff-irrelevant phases
    land), break to the lexicographically smallest (theta, alpha, beta).
    """
    k = player_index(player)
    candidates = _candidate_params(grid)
    payoffs = _batched_payoffs(k, candidates, others, config)
    # candidates are in lexicographic order, so the first near-maximizer is
    # the required tie-break
    best = int(np.argmax(payoffs >= payoffs.max() - 1e-12))
    return StrategyParams(*candidates[best])


def verify_nash(
    profile: Profile,
    config: GameConfig,
    grid: GridSpec,
    tol: float = NASH_TOL,
) -> EquilibriumReport:
    """Measure every player's unilateral grid-deviation gain at ``profile``."""
    payoff = expected_payoffs(config, *profile.as_tuple())
    candidates = _candidate_params(grid)
    gaps = []
    for k in range(3):
        others = tuple(p for i, p in enumerate(profile.as_tuple()) if i != k)
        payoffs = _batched_payoffs(k, candidates, others, config)
        gaps.append(max(float(payoffs.max()) - payoff[k], 0.0))
    return EquilibriumReport(profile, payoff, tuple(gaps), tol, grid)


def _named_profile(
    theta: float, alice_phases: tuple[float, float], partner_phases: str
) -> Profile:
    """Symmetric-theta profile with Alice's phases free and partners pinned.

    ``partner_phases="restricted"`` pins Bob and Charlie to the communication
    game's convention (alpha=0, beta=pi/2); ``"mirror"`` lets them copy
    Alice's phases instead, the alternative reading of the stated equilibria.
    """
    alice = StrategyParams(theta, *alice_phases)
    if partner_phases == "restricted":
        partner = StrategyParams(theta, COMMON_ALPHA, COMMON_BETA)
    elif partner_phases == "mirror":
        partner = StrategyParams(theta, *alice_phases)
    else:
        raise ValueError("partner_phases must be 'restricted' or 'mirror'")
    return Profile(alice, partner, partner)


@dataclass(frozen=True)
class BoundCheck:
    """Verdict for one 'payoff below bound' claim at a named profile."""

    case: str
    theta: float
    payoff: tuple[float, float, float]
    bound: float
    holds: bool

    def to_record(self) -> dict:
        return {
            "case": self.case,
            "theta": self.theta,
            "payoff": list(self.payoff),
            "bound": self.bound,
            "holds": self.holds,
            "max_component": max(self.payoff),
        }


@dataclass(frozen=True)
class FourCaseScan:
    """Results of evaluating the four entanglement regimes.

    ``reports`` holds one certificate per regime at its representative
    profile (theta = pi for PP, theta = 0 elsewhere; the theta = 0 choices
    give symmetric payoff triples, which is what makes a single per-regime
    scalar well defined).  ``secondary`` holds the additional stated
    theta = pi/2 profiles for the mixed regimes.  ``ordering`` records the
    measured verdicts for the claimed chain PP < PE = EP < EE.
    """

    reports: tuple[EquilibriumReport, ...]
    secondary: tuple[EquilibriumReport, ...]
    bounds: tuple[BoundCheck, ...]
    ordering: dict

    def report_for(self, case: str) -> EquilibriumReport:
        for r in self.reports:
            if r.case == case:
                return r
        raise KeyError(case)

    def to_record(self) -> dict:
        return {
            "cases": [r.to_record() for r in self.reports],
            "secondary_profiles": [r.to_record() for r in self.secondary],
            "bound_checks": [b.to_record() for b in self.bounds],
            "ordering": self.ordering,
        }


CASE_CONFIGS = {
    "PP": (0.0, 0.0),
    "PE": (0.0, math.pi / 2),
    "EP": (math.pi / 2, 0.0),
    "EE": (math.pi / 2, math.pi / 2),
}

_ALICE_PHASES = (math.pi, math.pi)


def four_case_scan(
    table: PayoffTable | None = None,
    grid: GridSpec | None = None,
    tol: float = NASH_TOL,
    partner_phases: str = "restricted",
) -> FourCaseScan:
    """Evaluate the stated equilibrium profiles in all four regimes.

    Representative profiles: all-defect (theta = pi) for PP, all-theta-0 with
    Alice phases (pi, pi) for PE/EP/EE.  The mixed regimes' stated
    theta = pi/2 profiles are evaluated as well and contribute bound checks
    but not the ordering scalars (their payoff triples are asymmetric, so no
    single per-regime value exists there).  Every claim is measured against
    the oracle and reported; nothing is assumed.
    """
    table = PayoffTable.default() if table is None else table
    grid = GridSpec() if grid is None else grid

    def config_for(case: str) -> GameConfig:
        gamma, delta = CASE_CONFIGS[case]
        return GameConfig(gamma, delta, table)

    reports = []
    bounds = []
    secondary = []

    primary_theta = {"PP": math.pi, "PE": 0.0, "EP": 0.0, "EE": 0.0}
    for case in ("PP", "PE", "EP", "EE"):
        profile = _named_profile(primary_theta[case], _ALICE_PHASES, partner_phases)
        report = verify_nash(profile, config_for(case), grid, tol)
        reports.append(replace(report, case=case))

    for case in ("PE", "EP"):
        profile = _named_profile(math.pi / 2, _ALICE_PHASES, partner_phases)
        report = verify_nash(profile, config_for(case), grid, tol)
        secondary.append(replace(report, case=case))

    # "Payoff stays below 3" is claimed at both stated profiles of each mixed
    # regime; record a verdict per profile rather than trusting the claim.
    bound = 3.0
    for report in list(reports[1:3]) + secondary:
        payoff = report.payoff.as_tuple()
        bounds.append(
            BoundCheck(
                case=report.case,
                theta=report.profile.pa.theta,
                payoff=payoff,
                bound=bound,
                holds=max(payoff) < bound - tol,
            )
        )

    by_case = {r.case: r for r in reports}
    pp_value = by_case["PP"].payoff.alice
    pe_value = by_case["PE"].payoff.alice
    ep_value = by_case["EP"].payoff.alice
    ee_value = by_case["EE"].payoff.alice
    pe_ep_gap = max(
        abs(a - b)
        for a, b in zip(by_case["PE"].payoff.as_tuple(), by_case["EP"].payoff.as_tuple())
    )
    ordering = {
        "values": {"PP": pp_value, "PE": pe_value, "EP": ep_value, "EE": ee_value},
        "pp_lt_pe": pp_value < pe_value - tol,
        "pe_eq_ep_gap": pe_ep_gap,
        "pe_eq_ep": pe_ep_gap < tol,
        "ep_lt_ee": ep_value < ee_value - tol,
        "pp_lt_ee": pp_value < ee_value - tol,
    }
    ordering["chain_holds"] = bool(
        ordering["pp_lt_pe"] and ordering["pe_eq_ep"] and ordering["ep_lt_ee"]
    )

    return FourCaseScan(
        reports=tuple(reports),
        secondary=tuple(secondary),
        bounds=tuple(bounds),
        ordering=ordering,
    )
