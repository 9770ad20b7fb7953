"""Grid-Nash certificates and the four entanglement-regime scan.

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
``q^T Q q``.  Ten moves fix ``Q`` by polarization, and one kernel call
fixes a player's ``Q`` at a whole batch of profiles, each at its own
(gamma, delta); a certificate of P profiles costs four kernel calls.  A
grid move is ``q = (c cos alpha, s cos beta, -s sin beta, c sin alpha)`` with
``c, s = cos, sin(theta/2)``, so the form splits along the grid's axes into
``c^2 A(alpha) + s^2 B(beta) + 2cs C(alpha, beta)``, and the grid is scanned
by summing those parts over the (theta, alpha, beta) grid.  The Born rule
itself is evaluated only in ``game.outcome_probabilities``.

The four regimes are ``game.REGIMES``: the initial state and the
measurement basis are each product (P) or maximally entangled (E).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

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
    _check_types,
    outcome_probabilities,
)

_THETA_ANCHORS = np.array([0.0, math.pi / 2, math.pi])
_PHASE_ANCHORS = np.array([-math.pi, 0.0, math.pi / 2, math.pi])

#: Largest grid a ``GridSpec`` accepts, in points per player.  A certificate
#: pass holds about 19 bytes per candidate at its peak (tracemalloc over
#: ``verify_nash`` on the 53,361-point refined default grid), so this cap
#: keeps one pass near 20 MB instead of letting a typo ask for GBs.
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
        for axis in fields(self):
            value = getattr(self, axis.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{axis.name} must be an integer, got {value!r}")
            object.__setattr__(self, axis.name, int(value))  # a numpy int would wrap below
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

    def __post_init__(self):
        _check_types(
            ("pa", self.pa, StrategyParams),
            ("pb", self.pb, StrategyParams),
            ("pc", self.pc, StrategyParams),
        )

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
    is grid-Nash when no gap exceeds ``PAYOFF_TOL``.  The grid is not kept:
    a report document states it once, under ``inputs``.
    """

    profile: Profile
    payoff: PayoffTriple
    gaps: tuple[float, float, float]

    @property
    def is_nash(self) -> bool:
        return max(self.gaps) <= PAYOFF_TOL

    def to_record(self) -> dict:
        return {
            "profile": self.profile.to_record(),
            "payoff": list(self.payoff.as_tuple()),
            "best_response_gaps": list(self.gaps),
            "tol": PAYOFF_TOL,
            "is_nash": self.is_nash,
        }


def _grid_factors(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """The grid's moves in product form ``(c, s, u, v)``: the move at axis
    indices ``(t, a, b)`` is ``q = (c[t] u[a, 0], s[t] v[b, 0], s[t] v[b, 1],
    c[t] u[a, 1])``, with ``c, s = cos, sin(theta/2)``, ``u = (cos alpha,
    sin alpha)`` and ``v = (cos beta, -sin beta)``."""
    theta, alpha, beta = grid.theta_values(), grid.alpha_values(), grid.beta_values()
    return (
        np.cos(theta / 2),
        np.sin(theta / 2),
        np.stack([np.cos(alpha), np.sin(alpha)], axis=1),
        np.stack([np.cos(beta), -np.sin(beta)], axis=1),
    )


#: Quaternion components set by alpha (``q0``, ``q3``) and by beta (``q1``, ``q2``).
_ALPHA_PART, _BETA_PART = [0, 3], [1, 2]


def _grid_max(form: np.ndarray, factors: tuple[np.ndarray, ...]) -> float:
    """Largest ``q^T Q q = c^2 A + s^2 B + 2cs C`` over the grid of
    ``_grid_factors``: ``A = u^T Q_aa u`` and ``B = v^T Q_bb v`` on the
    ``_ALPHA_PART`` and ``_BETA_PART`` blocks of ``Q``, ``C = u^T Q_ab v`` on
    the block between them."""
    c, s, u, v = factors
    a = ((u @ form[np.ix_(_ALPHA_PART, _ALPHA_PART)]) * u).sum(axis=1)
    b = ((v @ form[np.ix_(_BETA_PART, _BETA_PART)]) * v).sum(axis=1)
    cross = u @ form[np.ix_(_ALPHA_PART, _BETA_PART)] @ v.T
    c, s = c[:, None, None], s[:, None, None]
    payoffs = c * c * a[:, None] + s * s * b + 2 * c * s * cross
    return float(payoffs.max())


def _payoff_forms(
    player: int,
    others: np.ndarray,
    gammas: np.ndarray,
    deltas: np.ndarray,
    table: PayoffTable,
) -> np.ndarray:
    """Player's payoff forms ``(P, 4, 4)``, one per row of ``others``: the
    other two players' moves ``(P, 2, 3)`` at angles ``gammas[p], deltas[p]``.
    Profile p's payoff is ``q^T Q[p] q``; one kernel call of ``10 P`` rows
    fixes them all.

    Raises:
        ValueError: if a profile's outcome forms do not sum to the identity
            within ``ATOL``, which bounds the probability-sum error at every
            unit quaternion by the tolerance the kernel holds each row to.
    """
    count = len(others)
    players = list(np.repeat(others, len(_POLAR_MOVES), axis=0).transpose(1, 0, 2))
    players.insert(player, np.tile(_POLAR_MOVES, (count, 1)))
    probs = outcome_probabilities(
        np.repeat(gammas, len(_POLAR_MOVES)), np.repeat(deltas, len(_POLAR_MOVES)), *players
    ).reshape(count, len(_POLAR_MOVES), -1)
    # forms[p, m, n, j]: outcome j's form for profile p, by polarization of its probability
    forms = np.empty((count, 4, 4, probs.shape[2]))
    diag = probs[:, :4]
    forms[:, range(4), range(4)] = diag
    m, n = np.triu_indices(4, 1)
    forms[:, m, n] = forms[:, n, m] = probs[:, 4:] - (diag[:, m] + diag[:, n]) / 2
    err = float(np.linalg.norm(forms.sum(axis=3) - np.eye(4), 2, axis=(1, 2)).max())
    if err > ATOL:
        raise ValueError(f"outcome forms sum to the identity +- {err!r}, beyond {ATOL}")
    return forms @ table.payoffs[:, player]


def _certify(
    profiles: list[Profile],
    gammas,
    deltas,
    table: PayoffTable,
    grid: GridSpec,
) -> list[EquilibriumReport]:
    """Certificates for ``profiles``, profile p at angles ``gammas[p], deltas[p]``.

    One kernel call gives the played payoffs and one per player gives that
    player's forms at every profile (``_payoff_forms``); each form is scanned
    over the grid's axes (``_grid_max``), which are built once for all.  So
    any number of profiles costs four kernel calls.
    """
    played = np.array([[p.as_tuple() for p in profile.as_tuple()] for profile in profiles])
    gammas, deltas = np.asarray(gammas, dtype=float), np.asarray(deltas, dtype=float)
    payoffs = table.expected(outcome_probabilities(gammas, deltas, *played.transpose(1, 0, 2)))
    factors = _grid_factors(grid)
    best = []
    for k in range(3):
        forms = _payoff_forms(k, np.delete(played, k, axis=1), gammas, deltas, table)
        best.append([_grid_max(form, factors) for form in forms])
    reports = []
    for profile, payoff, tops in zip(profiles, payoffs.tolist(), zip(*best)):
        gaps = tuple(max(top - x, 0.0) for top, x in zip(tops, payoff))
        reports.append(EquilibriumReport(profile, PayoffTriple(*payoff), gaps))
    return reports


def verify_nash(
    profile: Profile,
    config: GameConfig,
    grid: GridSpec,
) -> EquilibriumReport:
    """Measure every player's unilateral grid-deviation gain at ``profile``.

    The played payoffs come from the oracle's kernel; each player's best grid
    payoff comes from their payoff form, scanned over the grid's axes.  This
    is ``_certify`` of one profile: four kernel calls of at most 10 rows,
    whatever the grid size.

    Raises:
        ValueError: if an argument is not a ``Profile``, ``GameConfig`` or
            ``GridSpec``, naming the argument.
    """
    _check_types(
        ("profile", profile, Profile), ("config", config, GameConfig), ("grid", grid, GridSpec)
    )
    return _certify([profile], [config.gamma], [config.delta], config.payoffs, grid)[0]


def _named_profile(theta: float) -> Profile:
    """Stated profile at a common ``theta``: Alice plays phases (pi, pi), and
    Bob and Charlie play the communication game's ``common_move(theta)``."""
    partner = common_move(theta)
    return Profile(StrategyParams(theta, math.pi, math.pi), partner, partner)


@dataclass(frozen=True)
class FourCaseScan:
    """Results of evaluating the four entanglement regimes.

    ``reports`` maps each regime label, in ``REGIMES`` order, to the
    certificate at its representative profile (theta = pi for PP, theta = 0
    elsewhere; the theta = 0 choices give symmetric payoff triples, which is
    what makes a single per-regime scalar well defined).  ``secondary`` maps
    PE and EP to the additional stated theta = pi/2 profiles.  ``bounds``
    holds one "payoff below 3" verdict record per stated mixed-regime profile
    (``case``, ``theta``, ``payoff``, ``bound``, ``holds``, ``max_component``)
    and ``ordering`` the measured verdicts for the claimed chain
    PP < PE = EP < EE.  :meth:`to_record` holds the measured certificates
    only; the bounds and the ordering are judgements, stated once, by
    :meth:`verdicts`.
    """

    reports: dict[str, EquilibriumReport]
    secondary: dict[str, EquilibriumReport]
    bounds: tuple[dict, ...]
    ordering: dict

    def to_record(self) -> dict:
        return {
            "cases": [{"case": case, **r.to_record()} for case, r in self.reports.items()],
            "secondary_profiles": [
                {"case": case, **r.to_record()} for case, r in self.secondary.items()
            ],
        }

    def verdicts(self) -> dict:
        return {"ordering": self.ordering, "bound_checks": list(self.bounds)}

    def discrepancies(self) -> list[dict]:
        """A record per failed bound claim, then one if PE = EP fails."""
        records = [
            {"what": "mixed-regime payoff bound", **b} for b in self.bounds if not b["holds"]
        ]
        if not self.ordering["pe_eq_ep"]:
            records.append({"what": "PE = EP equality", "gap": self.ordering["pe_eq_ep_gap"]})
        return records


def four_case_scan(
    table: PayoffTable = DEFAULT_PAYOFF_TABLE,
    grid: GridSpec = GridSpec(),
) -> FourCaseScan:
    """Evaluate the stated equilibrium profiles in all four ``REGIMES``.

    Every profile is a ``_named_profile``: all-defect (theta = pi) for PP and
    theta = 0 for PE/EP/EE.  The mixed regimes' stated theta = pi/2 profiles
    are evaluated as well and contribute bound checks but not the ordering
    scalars (their payoff triples are asymmetric, so no single per-regime
    value exists there).  All six are certified in one ``_certify`` batch,
    four kernel calls in all, and each certificate equals ``verify_nash`` of
    its profile bit for bit.  Every claim is measured against the oracle and
    reported; nothing is assumed.

    Raises:
        ValueError: if ``table`` is not a ``PayoffTable`` or ``grid`` not a
            ``GridSpec``, naming the argument.
    """
    _check_types(("table", table, PayoffTable), ("grid", grid, GridSpec))
    mixed = ("PE", "EP")
    stated = [(case, math.pi if case == "PP" else 0.0) for case in REGIMES]
    stated += [(case, math.pi / 2) for case in mixed]
    gammas, deltas = zip(*(REGIMES[case] for case, _ in stated))
    profiles = [_named_profile(theta) for _, theta in stated]
    certificates = _certify(profiles, gammas, deltas, table, grid)
    reports = dict(zip(REGIMES, certificates[: len(REGIMES)]))
    secondary = dict(zip(mixed, certificates[len(REGIMES) :]))

    # "Payoff stays below 3" is claimed at both stated profiles of each mixed
    # regime; record a verdict per profile rather than trusting the claim.
    bound = 3.0
    bounds = []
    for stated in (reports, secondary):
        for case in mixed:
            report = stated[case]
            payoff = list(report.payoff.as_tuple())
            bounds.append(
                {
                    "case": case,
                    "theta": report.profile.pa.theta,
                    "payoff": payoff,
                    "bound": bound,
                    "holds": max(payoff) < bound - PAYOFF_TOL,
                    "max_component": max(payoff),
                }
            )

    values = {case: r.payoff.alice for case, r in reports.items()}
    pp_value, pe_value, ep_value, ee_value = (values[c] for c in ("PP", "PE", "EP", "EE"))
    pe_ep_gap = max(
        abs(a - b)
        for a, b in zip(reports["PE"].payoff.as_tuple(), reports["EP"].payoff.as_tuple())
    )
    ordering = {
        "values": values,
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
        reports=reports,
        secondary=secondary,
        bounds=tuple(bounds),
        ordering=ordering,
    )
