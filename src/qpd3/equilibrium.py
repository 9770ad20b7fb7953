"""Grid-based best-response search and the four entanglement-regime scan.

Nash claims here are certified against a finite strategy grid rather than
analytically: a profile is *grid-Nash* when no player can improve their
oracle payoff by deviating to any point of their own (theta, alpha, beta)
grid.  The verdict is refinement-monotone (enlarging the grid can only
expose more deviations, never fewer), which makes it an honest, testable
certificate.

Every move is a unit quaternion ``q``: ``U = q0 I + i(q1 X + q2 Y + q3 Z)``,
with ``cos(theta/2) e^{i alpha} = q0 + i q3`` and
``sin(theta/2) e^{i beta} = q1 - i q2``.  The final state is linear in the
deviating player's ``q``, so with the other two moves fixed each outcome
probability, and hence the player's payoff, is a real quadratic form
``q^T Q q``.  One kernel call of 10 moves fixes ``Q`` by polarization, and
the grid is scanned by evaluating the form at every grid quaternion; the
Born rule itself is evaluated only in ``game.outcome_probabilities``.

The four regimes are ``game.REGIMES``: the initial state and the
measurement basis are each product (P) or maximally entangled (E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .comms import common_move
from .game import (
    _PARAM_BOX,
    ATOL,
    DEFAULT_PAYOFF_TABLE,
    PAYOFF_TOL,
    REGIMES,
    GameConfig,
    PayoffTable,
    PayoffTriple,
    StrategyParams,
    expected_payoffs,
    outcome_probabilities,
    player_index,
)

_THETA_ANCHORS = np.array([0.0, math.pi / 2, math.pi])
_PHASE_ANCHORS = np.array([-math.pi, 0.0, math.pi / 2, math.pi])

#: Largest grid a ``GridSpec`` accepts, in points per player.  A best-response
#: pass holds about 80 bytes per candidate at its peak (tracemalloc over
#: ``verify_nash`` on the 53,361-point refined default grid), so this cap
#: keeps one pass near 80 MB instead of letting a typo ask for tens of GB.
MAX_GRID_POINTS = 1_000_000

#: Deviating moves whose payoffs fix a player's quadratic form: the basis
#: quaternions e_m (I, iX, iY, iZ), then (e_m + e_n)/sqrt(2) for the pairs
#: m < n in ``np.triu_indices(4, 1)`` order.
_POLAR_MOVES = np.array(
    [
        (0.0, 0.0, 0.0),
        (math.pi, 0.0, 0.0),
        (math.pi, 0.0, -math.pi / 2),
        (0.0, math.pi / 2, 0.0),
        (math.pi / 2, 0.0, 0.0),
        (math.pi / 2, 0.0, -math.pi / 2),
        (0.0, math.pi / 4, 0.0),
        (math.pi, 0.0, -math.pi / 4),
        (math.pi / 2, math.pi / 2, 0.0),
        (math.pi / 2, math.pi / 2, -math.pi / 2),
    ]
)


def _grid_axis(count: int, lo: float, hi: float, anchors: np.ndarray) -> np.ndarray:
    if count < 2:
        raise ValueError("grid axes need at least 2 points")
    pts = np.linspace(lo, hi, count)
    # A linspace point an ulp off an anchor would be a second copy of it.
    pts = pts[np.abs(pts[:, None] - anchors).min(axis=1) > ATOL]
    return np.sort(np.concatenate([pts, anchors]))


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
        # Anchors add at most one point each, so this bounds size() without
        # building a single axis.
        bound = (
            (self.theta_points + len(_THETA_ANCHORS))
            * (self.alpha_points + len(_PHASE_ANCHORS))
            * (self.beta_points + len(_PHASE_ANCHORS))
        )
        if bound > MAX_GRID_POINTS:
            raise ValueError(
                f"grid {self.theta_points},{self.alpha_points},{self.beta_points} may hold "
                f"{bound} points per player, beyond the limit of {MAX_GRID_POINTS}"
            )

    def theta_values(self) -> np.ndarray:
        return _grid_axis(self.theta_points, *_PARAM_BOX["theta"], _THETA_ANCHORS)

    def alpha_values(self) -> np.ndarray:
        return _grid_axis(self.alpha_points, *_PARAM_BOX["alpha"], _PHASE_ANCHORS)

    def beta_values(self) -> np.ndarray:
        return _grid_axis(self.beta_points, *_PARAM_BOX["beta"], _PHASE_ANCHORS)

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
    unilateral move to any grid point, clamped at 0.  The played point lies
    on the grid only for on-grid profiles, so an off-grid player whose
    payoff beats every grid point reads 0, not a negative gap.  The profile
    is grid-Nash when no gap exceeds ``PAYOFF_TOL``.
    """

    profile: Profile
    payoff: PayoffTriple
    gaps: tuple[float, float, float]
    grid: GridSpec
    case: str | None = None

    @property
    def is_nash(self) -> bool:
        return max(self.gaps) <= PAYOFF_TOL

    def to_record(self) -> dict:
        record = {
            "profile": self.profile.to_record(),
            "payoff": list(self.payoff.as_tuple()),
            "best_response_gaps": list(self.gaps),
            "tol": PAYOFF_TOL,
            "grid": self.grid.to_record(),
            "is_nash": self.is_nash,
        }
        if self.case is not None:
            record["case"] = self.case
        return record


def _grid_quaternions(grid: GridSpec) -> np.ndarray:
    """Unit quaternions of the grid's moves, ``(G, 4)``, in lexicographic
    (theta, alpha, beta) order: row ``g`` is the move at the axis indices
    ``np.unravel_index(g, (len(theta), len(alpha), len(beta)))``."""
    theta, alpha, beta = grid.theta_values(), grid.alpha_values(), grid.beta_values()
    # Grid moves never reach the kernel, so their range is checked here.
    for (name, (lo, hi)), axis in zip(_PARAM_BOX.items(), (theta, alpha, beta)):
        if not ((lo <= axis) & (axis <= hi)).all():
            raise ValueError(f"grid {name} values must lie in [{lo:.6g}, {hi:.6g}]")
    c, s = np.cos(theta / 2)[:, None, None], np.sin(theta / 2)[:, None, None]
    q = np.empty((len(theta), len(alpha), len(beta), 4))
    q[..., 0] = c * np.cos(alpha)[:, None]
    q[..., 1] = s * np.cos(beta)
    q[..., 2] = -s * np.sin(beta)
    q[..., 3] = c * np.sin(alpha)[:, None]
    return q.reshape(-1, 4)


def _payoff_form(
    player: int,
    others: tuple[StrategyParams, StrategyParams],
    config: GameConfig,
) -> np.ndarray:
    """Player's payoff as a symmetric 4x4 form ``Q``, others fixed: ``payoff = q^T Q q``.

    Raises:
        ValueError: if the outcome forms do not sum to the identity within
            ``ATOL``, which bounds the probability-sum error at every unit
            quaternion by the tolerance the kernel holds each row to.
    """
    players = [p.as_tuple() for p in others]
    players.insert(player, _POLAR_MOVES)
    probs = outcome_probabilities(config.gamma, config.delta, *players)
    # forms[m, n, j]: outcome j's form, by polarization of its probability
    forms = np.empty((4, 4, probs.shape[1]))
    diag = probs[:4]
    forms[range(4), range(4)] = diag
    m, n = np.triu_indices(4, 1)
    forms[m, n] = forms[n, m] = probs[4:] - (diag[m] + diag[n]) / 2
    err = float(np.linalg.norm(forms.sum(axis=2) - np.eye(4), 2))
    if err > ATOL:
        raise ValueError(f"outcome forms sum to the identity +- {err!r}, beyond {ATOL}")
    return forms @ config.payoffs.column(player)


def _batched_payoffs(
    player: int,
    quaternions: np.ndarray,
    others: tuple[StrategyParams, StrategyParams],
    config: GameConfig,
) -> np.ndarray:
    """Payoffs of ``player`` for each ``(G, 4)`` quaternion row, others fixed."""
    form = _payoff_form(player, others, config)
    return np.einsum("gi,gi->g", quaternions @ form, quaternions)


def best_response(
    player,
    others: tuple[StrategyParams, StrategyParams],
    config: GameConfig,
    grid: GridSpec,
) -> StrategyParams:
    """Argmax of the player's payoff over their grid, opponents held fixed.

    ``others`` are the remaining players' parameters in ascending player
    order (B,C for Alice, A,C for Bob, A,B for Charlie).  The grid is scanned
    through the player's payoff form, one kernel call in all.  Ties,
    including float near-ties within ``ATOL`` (which is where
    payoff-irrelevant phases land), break to the lexicographically smallest
    (theta, alpha, beta).
    """
    k = player_index(player)
    payoffs = _batched_payoffs(k, _grid_quaternions(grid), others, config)
    # quaternions are in lexicographic order, so the first near-maximizer is
    # the required tie-break
    best = int(np.argmax(payoffs >= payoffs.max() - ATOL))
    axes = (grid.theta_values(), grid.alpha_values(), grid.beta_values())
    index = np.unravel_index(best, [len(axis) for axis in axes])
    return StrategyParams(*(axis[i] for axis, i in zip(axes, index)))


def verify_nash(
    profile: Profile,
    config: GameConfig,
    grid: GridSpec,
) -> EquilibriumReport:
    """Measure every player's unilateral grid-deviation gain at ``profile``.

    The played payoffs come from the oracle; each player's grid payoffs come
    from their payoff form at the grid quaternions, built once for all three.
    That makes four kernel calls of at most 10 rows, whatever the grid size.
    """
    payoff = expected_payoffs(config, *profile.as_tuple())
    quaternions = _grid_quaternions(grid)
    gaps = []
    for k in range(3):
        others = tuple(p for i, p in enumerate(profile.as_tuple()) if i != k)
        payoffs = _batched_payoffs(k, quaternions, others, config)
        gaps.append(max(float(payoffs.max()) - payoff[k], 0.0))
    return EquilibriumReport(profile, payoff, tuple(gaps), grid)


def _named_profile(theta: float) -> Profile:
    """Stated profile at a common ``theta``: Alice plays phases (pi, pi), and
    Bob and Charlie play the communication game's ``common_move(theta)``."""
    partner = common_move(theta)
    return Profile(StrategyParams(theta, math.pi, math.pi), partner, partner)


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


def four_case_scan(
    table: PayoffTable = DEFAULT_PAYOFF_TABLE,
    grid: GridSpec = GridSpec(),
) -> FourCaseScan:
    """Evaluate the stated equilibrium profiles in all four ``REGIMES``.

    Every profile is a ``_named_profile``: all-defect (theta = pi) for PP and
    theta = 0 for PE/EP/EE.  The mixed regimes' stated theta = pi/2 profiles
    are evaluated as well and contribute bound checks but not the ordering
    scalars (their payoff triples are asymmetric, so no single per-regime
    value exists there).  Every claim is measured against the oracle and
    reported; nothing is assumed.
    """
    reports = []
    bounds = []
    secondary = []

    for case, angles in REGIMES.items():
        theta = math.pi if case == "PP" else 0.0
        report = verify_nash(_named_profile(theta), GameConfig(*angles, table), grid)
        reports.append(replace(report, case=case))

    for case in ("PE", "EP"):
        config = GameConfig(*REGIMES[case], table)
        report = verify_nash(_named_profile(math.pi / 2), config, grid)
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
                holds=max(payoff) < bound - PAYOFF_TOL,
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
        "pp_lt_pe": pp_value < pe_value - PAYOFF_TOL,
        "pe_eq_ep_gap": pe_ep_gap,
        "pe_eq_ep": pe_ep_gap <= PAYOFF_TOL,
        "ep_lt_ee": ep_value < ee_value - PAYOFF_TOL,
        "pp_lt_ee": pp_value < ee_value - PAYOFF_TOL,
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
