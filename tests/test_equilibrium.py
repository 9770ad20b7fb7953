import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import qpd3
from qpd3 import (
    DEFAULT_PAYOFF_TABLE,
    REGIMES,
    GameConfig,
    GridSpec,
    PayoffTable,
    PayoffTriple,
    Profile,
    StrategyParams,
    expected_payoffs,
    four_case_scan,
    verify_nash,
)
from qpd3.equilibrium import (
    _POLAR_MOVES,
    MAX_GRID_POINTS,
    _grid_factors,
    _grid_max,
    _named_profile,
    _payoff_forms,
)
from qpd3.game import ATOL, PAYOFF_TOL, moves

from conftest import random_config, random_params, trace_rule_payoffs

HALF_PI = math.pi / 2
SMALL_GRID = GridSpec(5, 5, 5)


def grid_moves(grid: GridSpec) -> np.ndarray:
    """The grid's moves as ``(G, 3)`` rows, lexicographic in (theta, alpha, beta)."""
    axes = np.meshgrid(grid.theta_values(), grid.alpha_values(), grid.beta_values(), indexing="ij")
    return np.stack([axis.ravel() for axis in axes], axis=1)


def quaternions_of(params) -> np.ndarray:
    """``q`` read off ``U = q0 I + i(q1 X + q2 Y + q3 Z)``, where
    ``U[0, 0] = q0 + i q3`` and ``U[0, 1] = q2 + i q1``."""
    u = moves(params)
    return np.stack([u[..., 0, 0].real, u[..., 0, 1].imag, u[..., 0, 1].real, u[..., 0, 0].imag], -1)


def dense_grid_payoffs(form: np.ndarray, quats: np.ndarray) -> np.ndarray:
    """``q^T Q q`` at each ``(G, 4)`` row of ``quats``: the form evaluated
    point by point, without the product structure of the grid."""
    return np.einsum("gi,gi->g", quats @ form, quats)


def payoff_forms(player: int, trials) -> np.ndarray:
    """``_payoff_forms`` of ``player`` over ``(others, config)`` trials that
    share one payoff table: each trial's form, from one kernel call."""
    partners = np.array([[p.as_tuple() for p in others] for others, _ in trials])
    configs = [config for _, config in trials]
    return _payoff_forms(
        player, partners, [c.gamma for c in configs], [c.delta for c in configs], configs[0].payoffs
    )


def exact_gaps(profile: Profile, config: GameConfig) -> list[float]:
    """Best gain over all of SU(2): the top eigenvalue of each player's form."""
    played = profile.as_tuple()
    payoff = expected_payoffs(config, *played).as_tuple()
    gaps = []
    for k in range(3):
        others = tuple(p for i, p in enumerate(played) if i != k)
        (form,) = payoff_forms(k, [(others, config)])
        gaps.append(max(float(np.linalg.eigvalsh(form).max()) - payoff[k], 0.0))
    return gaps


def kernel_rows(monkeypatch) -> list[int]:
    """The row count of every kernel call made after this, in call order."""
    rows = []
    kernel = qpd3.game.outcome_probabilities

    def counting(*args):
        probs = kernel(*args)
        rows.append(len(probs))
        return probs

    monkeypatch.setattr(qpd3.game, "outcome_probabilities", counting)
    monkeypatch.setattr(qpd3.equilibrium, "outcome_probabilities", counting)
    return rows


def defect() -> StrategyParams:
    return StrategyParams(math.pi, 0.0, HALF_PI)


def cooperate() -> StrategyParams:
    return StrategyParams(0.0, 0.0, HALF_PI)


class TestGridSpec:
    def test_anchors_always_present(self):
        grid = GridSpec(2, 2, 2)
        for anchor in (0.0, HALF_PI, math.pi):
            assert anchor in grid.theta_values()
        for anchor in (-math.pi, 0.0, HALF_PI, math.pi):
            assert anchor in grid.alpha_values()
            assert anchor in grid.beta_values()

    def test_default_linspace_hits_anchors_without_growth(self):
        grid = GridSpec()
        assert len(grid.theta_values()) == 25
        assert len(grid.alpha_values()) == 17
        assert len(grid.beta_values()) == 17

    def test_every_anchor_once_and_no_near_duplicates(self):
        # a linspace point an ulp off an anchor once stayed beside it:
        # GridSpec(51, 2, 2) held both pi/2 and 1.5707963267948968
        phase_anchors = (-math.pi, 0.0, HALF_PI, math.pi)
        for count in range(2, 401):
            for axis, anchors in (
                (GridSpec(count, 2, 2).theta_values(), (0.0, HALF_PI, math.pi)),
                (GridSpec(2, count, 2).alpha_values(), phase_anchors),
                (GridSpec(2, 2, count).beta_values(), phase_anchors),
            ):
                assert np.all(np.diff(axis) > ATOL), count
                assert [np.count_nonzero(axis == a) for a in anchors] == [1] * len(anchors), count
        assert GridSpec(51, 2, 2).size() == 51 * 4 * 4

    def test_rejects_tiny_axes(self):
        with pytest.raises(ValueError):
            GridSpec(1, 17, 17)

    def test_rejects_grids_beyond_the_size_limit(self):
        # rejected from the counts alone: building these would take tens of GB
        for counts in ((1000, 1000, 1000), (10**12, 2, 2), (2, 2, 10**9)):
            with pytest.raises(ValueError, match="beyond the limit"):
                GridSpec(*counts)
        # the largest cube whose bound (t + 3)(a + 4)(b + 4) fits is accepted
        assert (97 + 3) * (96 + 4) * (96 + 4) <= MAX_GRID_POINTS
        GridSpec(97, 96, 96)
        with pytest.raises(ValueError):
            GridSpec(98, 96, 96)
        # the refined default grid is far inside the limit
        assert GridSpec().refined().size() < MAX_GRID_POINTS

    def test_refined_is_superset(self):
        grid = GridSpec(9, 9, 9)
        fine = grid.refined()
        for coarse_axis, fine_axis in (
            (grid.theta_values(), fine.theta_values()),
            (grid.alpha_values(), fine.alpha_values()),
            (grid.beta_values(), fine.beta_values()),
        ):
            for x in coarse_axis:
                assert np.min(np.abs(fine_axis - x)) < 1e-15


class TestBatchedKernel:
    def test_polar_moves_are_the_basis_quaternions_and_their_midpoints(self):
        basis = np.eye(4)
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        quats = list(basis) + [(basis[m] + basis[n]) / math.sqrt(2) for m, n in pairs]
        pauli = (
            np.eye(2),
            1j * np.array([[0, 1], [1, 0]]),
            1j * np.array([[0, -1j], [1j, 0]]),
            1j * np.diag([1, -1]),
        )
        expected = [sum(qi * p for qi, p in zip(q, pauli)) for q in quats]
        assert np.allclose(moves(_POLAR_MOVES), expected, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize(
        "grid",
        [SMALL_GRID, GridSpec(4, 6, 6), GridSpec(), GridSpec().refined()],
        ids=["5x5x5", "4x6x6", "default", "refined"],
    )
    def test_grid_max_matches_dense_reference(self, grid):
        # the scan over the grid's axes against the form at every grid
        # quaternion read off the moves themselves: the four regime corners
        # and seeded interior (gamma, delta), stated and random profiles.
        # 4x6x6 has phase axes that are not symmetric about 0, so a sign
        # slip in a phase part cannot hide behind a mirrored grid point
        quats = quaternions_of(grid_moves(grid))
        factors = _grid_factors(grid)
        rng = np.random.default_rng(16)
        points = list(REGIMES.values()) + [tuple(rng.uniform(0, HALF_PI, 2)) for _ in range(3)]
        stated = [_named_profile(theta) for theta in (0.0, HALF_PI, math.pi)]
        for gamma, delta in points:
            config = GameConfig(gamma, delta)
            random = [Profile(*(random_params(rng) for _ in range(3))) for _ in range(2)]
            played = [profile.as_tuple() for profile in stated + random]
            for k in range(3):
                for form in payoff_forms(k, [(p[:k] + p[k + 1:], config) for p in played]):
                    dense = float(dense_grid_payoffs(form, quats).max())
                    assert abs(_grid_max(form, factors) - dense) <= 1e-12

    def test_grid_path_matches_trace_rule(self, rng):
        # 10 configs x 100 candidate rows = 1000 seeded profiles, spread over
        # all three deviating players
        for trial in range(10):
            config = GameConfig(rng.uniform(0, HALF_PI), rng.uniform(0, HALF_PI))
            player = trial % 3
            candidates = np.array([random_params(rng).as_tuple() for _ in range(100)])
            others = (random_params(rng), random_params(rng))
            quats = quaternions_of(candidates)
            (form,) = payoff_forms(player, [(others, config)])
            for row, got in zip(candidates, dense_grid_payoffs(form, quats)):
                profile = [p.as_tuple() for p in others]
                profile.insert(player, tuple(row))
                assert abs(got - trace_rule_payoffs(config, *profile)[player]) < 1e-12

    def test_candidates_are_lexicographic(self):
        pts = grid_moves(SMALL_GRID)
        assert pts.shape == (SMALL_GRID.size(), 3)
        rows = [tuple(p) for p in pts]
        assert rows == sorted(set(rows))

    @pytest.mark.parametrize("grid", [GridSpec(), GridSpec().refined()], ids=["default", "refined"])
    def test_certificate_takes_four_small_kernel_calls(self, monkeypatch, grid):
        # the played payoffs, then 10 polarization rows per player, whatever
        # the grid size: the per-op work of a nash-map certificate
        rows = kernel_rows(monkeypatch)
        profile = Profile(defect(), cooperate(), cooperate())
        verify_nash(profile, GameConfig(0.3, 0.7), grid)
        assert rows == [1, 10, 10, 10]

    def test_refined_grid_peak_memory_per_candidate(self):
        # the scan holds at most three grid-sized float arrays at once
        grid = GridSpec().refined()
        profile, config = Profile(defect(), cooperate(), cooperate()), GameConfig(0.3, 0.7)
        verify_nash(profile, config, grid)
        tracemalloc.start()
        try:
            verify_nash(profile, config, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * grid.size()

    def test_unbalanced_probabilities_are_rejected(self, monkeypatch):
        # off by 1e-9 in one outcome: the kernel's own row check never sees it
        kernel = qpd3.equilibrium.outcome_probabilities

        def perturbed(*args):
            probs = kernel(*args)
            probs[:, 3] += 1e-9
            return probs

        monkeypatch.setattr(qpd3.equilibrium, "outcome_probabilities", perturbed)
        profile = Profile(defect(), cooperate(), cooperate())
        with pytest.raises(ValueError, match="beyond"):
            verify_nash(profile, GameConfig(0.3, 0.7), SMALL_GRID)


class TestExactCrossCheck:
    """The form's top eigenvalue is the best payoff over all of SU(2)."""

    def test_grid_gap_never_exceeds_exact_gap(self, rng):
        for _ in range(40):
            profile = Profile(*(random_params(rng) for _ in range(3)))
            config = random_config(rng)
            grid_gaps = verify_nash(profile, config, GridSpec()).gaps
            for grid_gap, exact in zip(grid_gaps, exact_gaps(profile, config)):
                assert grid_gap <= exact + 1e-12

    def test_top_eigenvalue_within_column_maximum(self, rng):
        # trial t's deviating player is t % 3; each player's trials are one batch
        trials = []
        for _ in range(40):
            config = random_config(rng)
            trials.append(((random_params(rng), random_params(rng)), config))
        for player in range(3):
            top = np.linalg.eigvalsh(payoff_forms(player, trials[player::3])).max(axis=1)
            assert np.all(top <= DEFAULT_PAYOFF_TABLE.column(player).max() + 1e-12)

    def test_exact_gaps_equal_grid_gaps_at_stated_profiles(self, scan):
        expected = {
            ("PP", math.pi): (0.0, 0.0, 0.0),
            ("PE", 0.0): (0.5, 0.5, 0.5),
            ("EP", 0.0): (0.5, 0.5, 0.5),
            ("EE", 0.0): (2.0, 2.0, 2.0),
            ("PE", HALF_PI): (0.0, 1.75, 0.0),
            ("EP", HALF_PI): (0.25, 0.25, 0.25),
        }
        reports = [*scan.reports.items(), *scan.secondary.items()]
        assert {(case, r.profile.pa.theta) for case, r in reports} == set(expected)
        for case, report in reports:
            config = GameConfig(*qpd3.REGIMES[case])
            exact = exact_gaps(report.profile, config)
            assert exact == pytest.approx(report.gaps, rel=0.0, abs=1e-12)
            assert exact == pytest.approx(
                expected[case, report.profile.pa.theta], rel=0.0, abs=1e-12
            )


class TestBestResponse:
    """Best-response facts of the game, read off the certificate gaps and the
    payoff forms."""

    # At gamma = delta = 0 the game is the classical dilemma, where defecting
    # gains at least 1 over cooperating whatever the others play.
    def test_defection_dominates_against_defectors(self):
        config = GameConfig(0, 0)
        defecting = verify_nash(Profile(defect(), defect(), defect()), config, GridSpec())
        cooperating = verify_nash(Profile(cooperate(), defect(), defect()), config, GridSpec())
        assert defecting.gaps[0] <= PAYOFF_TOL
        assert cooperating.gaps[0] >= 1 - PAYOFF_TOL

    def test_defection_dominates_against_cooperators(self):
        config = GameConfig(0, 0)
        defecting = verify_nash(Profile(cooperate(), defect(), cooperate()), config, GridSpec())
        all_cooperate = Profile(cooperate(), cooperate(), cooperate())
        cooperating = verify_nash(all_cooperate, config, GridSpec())
        assert defecting.gaps[1] <= PAYOFF_TOL
        assert cooperating.gaps[1] >= 1 - PAYOFF_TOL

    def test_dominance_over_sampled_opponents(self, rng):
        config = GameConfig(0, 0)
        for _ in range(25):
            pa, pb = random_params(rng), random_params(rng)
            defecting = verify_nash(Profile(pa, pb, defect()), config, SMALL_GRID)
            cooperating = verify_nash(Profile(pa, pb, cooperate()), config, SMALL_GRID)
            assert defecting.gaps[2] <= PAYOFF_TOL
            assert cooperating.gaps[2] >= 1 - PAYOFF_TOL

    def test_alice_bob_symmetric(self, rng):
        # the measurement pairing carries sign (-1)^(l xor m), so the game is
        # exactly symmetric under exchanging Alice and Bob at every (gamma,
        # delta): against the same opponents their payoff forms coincide
        trials = []
        for _ in range(20):
            config = GameConfig(rng.uniform(0, HALF_PI), rng.uniform(0, HALF_PI))
            trials.append(((random_params(rng), random_params(rng)), config))
        diff = payoff_forms(0, trials) - payoff_forms(1, trials)
        assert np.abs(diff).max() < 1e-12

    def test_bob_charlie_symmetric_in_product_basis(self, rng):
        # exchanging Bob and Charlie is only a symmetry when the measurement
        # basis is the computational one (delta = 0); the entangled pairing
        # breaks it
        trials = []
        for _ in range(20):
            config = GameConfig(rng.uniform(0, HALF_PI), 0.0)
            trials.append(((random_params(rng), random_params(rng)), config))
        diff = payoff_forms(1, trials) - payoff_forms(2, trials)
        assert np.abs(diff).max() < 1e-12


class TestVerifyNash:
    def test_all_defect_is_nash_classically(self):
        profile = Profile(defect(), defect(), defect())
        report = verify_nash(profile, GameConfig(0, 0), GridSpec())
        assert report.is_nash
        assert report.payoff.as_tuple() == pytest.approx((1, 1, 1), abs=1e-12)
        assert max(report.gaps) <= 1e-9

    def test_all_cooperate_is_not_nash_classically(self):
        profile = Profile(cooperate(), cooperate(), cooperate())
        report = verify_nash(profile, GameConfig(0, 0), GridSpec())
        assert not report.is_nash
        assert report.gaps == pytest.approx((2, 2, 2), abs=1e-9)

    def test_max_entanglement_profile_reported_not_assumed(self):
        # payoff (3,3,3) is exact, but a unilateral flip with beta = pi/2
        # reaches 5, so the profile fails the grid certificate
        profile = Profile(
            StrategyParams(0, math.pi, math.pi), cooperate(), cooperate()
        )
        report = verify_nash(profile, GameConfig(HALF_PI, HALF_PI), GridSpec())
        assert report.payoff.as_tuple() == pytest.approx((3, 3, 3), abs=1e-9)
        assert not report.is_nash
        assert report.gaps == pytest.approx((2, 2, 2), abs=1e-9)

    def test_gaps_never_negative(self, rng):
        for _ in range(10):
            profile = Profile(*(random_params(rng) for _ in range(3)))
            config = GameConfig(rng.uniform(0, HALF_PI), rng.uniform(0, HALF_PI))
            report = verify_nash(profile, config, SMALL_GRID)
            assert min(report.gaps) >= 0.0

    def test_off_grid_player_above_every_grid_point_reads_zero(self):
        # the played point is not a grid candidate here: Alice's payoff beats
        # her best grid deviation, and her gap is clamped to 0, not negative
        profile = Profile(
            StrategyParams(2.74, -0.17, 2.59),
            StrategyParams(2.41, 2.61, -2.34),
            StrategyParams(0.23, -2.7, 2.32),
        )
        config, grid = GameConfig(0.3, 0.9), GridSpec(3, 3, 3)
        report = verify_nash(profile, config, grid)
        others = profile.as_tuple()[1:]
        quats, (form,) = quaternions_of(grid_moves(grid)), payoff_forms(0, [(others, config)])
        best_grid = float(dense_grid_payoffs(form, quats).max())
        assert report.payoff.alice == pytest.approx(3.7473, abs=1e-4)
        assert best_grid == pytest.approx(3.6930, abs=1e-4)
        assert report.gaps[0] == 0.0

    def test_refinement_never_rescues_a_non_nash_verdict(self):
        profile = Profile(
            StrategyParams(0, math.pi, math.pi), cooperate(), cooperate()
        )
        config = GameConfig(0, HALF_PI)
        coarse = verify_nash(profile, config, GridSpec(5, 5, 5))
        fine = verify_nash(profile, config, GridSpec(9, 9, 9))
        assert not coarse.is_nash
        assert not fine.is_nash
        assert max(fine.gaps) >= max(coarse.gaps) - 1e-12


@pytest.fixture(scope="module")
def scan():
    return four_case_scan()


class TestFourCaseScan:
    def test_case_labels_and_order(self, scan):
        assert list(scan.reports) == ["PP", "PE", "EP", "EE"]
        assert list(scan.secondary) == ["PE", "EP"]
        assert [r["case"] for r in scan.to_record()["cases"]] == ["PP", "PE", "EP", "EE"]

    def test_product_regime_value_and_nash(self, scan):
        report = scan.reports["PP"]
        assert report.payoff.as_tuple() == pytest.approx((1, 1, 1), abs=1e-9)
        assert report.is_nash

    def test_max_entanglement_value(self, scan):
        report = scan.reports["EE"]
        assert report.payoff.as_tuple() == pytest.approx((3, 3, 3), abs=1e-9)

    def test_mixed_regime_representatives(self, scan):
        # both mixed regimes give the symmetric triple (2,2,2) at theta = 0
        for case in ("PE", "EP"):
            report = scan.reports[case]
            assert report.payoff.as_tuple() == pytest.approx((2, 2, 2), abs=1e-9)

    def test_secondary_profiles_frozen_values(self, scan):
        # hand-derived: the theta = pi/2 stated profiles are asymmetric
        values = {case: r.payoff.as_tuple() for case, r in scan.secondary.items()}
        assert values["PE"] == pytest.approx((3.5, 1.75, 3.5), abs=1e-9)
        assert values["EP"] == pytest.approx((2.5, 2.5, 2.5), abs=1e-9)

    def test_ordering_chain(self, scan):
        ordering = scan.ordering
        assert ordering["pp_lt_pe"]
        assert ordering["pe_eq_ep"]
        assert ordering["pe_eq_ep_gap"] < 1e-9
        assert ordering["ep_lt_ee"]
        assert ordering["pp_lt_ee"]
        assert ordering["chain_holds"]

    def test_pe_eq_ep_holds_at_the_tolerance(self, monkeypatch):
        # "equal within PAYOFF_TOL" takes in a gap of exactly PAYOFF_TOL
        original = qpd3.equilibrium._certify
        levels = {REGIMES["PE"]: 0.0, REGIMES["EP"]: PAYOFF_TOL}

        def stub(profiles, gammas, deltas, table, grid):
            reports = original(profiles, gammas, deltas, table, grid)
            return [
                report if level is None else replace(report, payoff=PayoffTriple(*[level] * 3))
                for report, level in zip(reports, map(levels.get, zip(gammas, deltas)))
            ]

        monkeypatch.setattr(qpd3.equilibrium, "_certify", stub)
        ordering = four_case_scan(grid=SMALL_GRID).ordering
        assert ordering["pe_eq_ep_gap"] == PAYOFF_TOL
        assert ordering["pe_eq_ep"] is True

    @pytest.mark.parametrize("grid", [GridSpec(), SMALL_GRID], ids=["default", "5x5x5"])
    @pytest.mark.parametrize("scale", [(1.0, 0.0), (2.5, -7.0)], ids=["classic", "affine"])
    def test_every_certificate_equals_verify_nash(self, grid, scale):
        # the batched certificates against one verify_nash per profile, bit for bit
        a, b = scale
        entries = DEFAULT_PAYOFF_TABLE.entries
        table = PayoffTable(tuple(tuple(a * x + b for x in row) for row in entries))
        scan = four_case_scan(table, grid)
        certificates = [*scan.reports.items(), *scan.secondary.items()]
        assert len(certificates) == 6
        for case, report in certificates:
            config = GameConfig(*REGIMES[case], table)
            alone = verify_nash(report.profile, config, grid)
            oracle = expected_payoffs(config, *report.profile.as_tuple())
            assert report.profile == alone.profile
            pairs = [
                (report.payoff.as_tuple(), alone.payoff.as_tuple()),
                (report.payoff.as_tuple(), oracle.as_tuple()),
                (report.gaps, alone.gaps),
            ]
            for got, want in pairs:
                assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_scan_takes_four_kernel_calls(self, monkeypatch):
        # six played payoffs, then 10 polarization rows per profile and player
        rows = kernel_rows(monkeypatch)
        four_case_scan()
        assert rows == [6, 60, 60, 60]

    def test_bound_checks_document_the_violation(self, scan):
        by_key = {(b["case"], round(b["theta"], 6)): b for b in scan.bounds}
        assert by_key[("PE", 0.0)]["holds"]
        assert by_key[("EP", 0.0)]["holds"]
        assert by_key[("EP", round(HALF_PI, 6))]["holds"]
        violated = by_key[("PE", round(HALF_PI, 6))]
        assert not violated["holds"]
        assert max(violated["payoff"]) == pytest.approx(3.5, abs=1e-9)

    def test_record_is_serializable(self, scan):
        import json

        record, verdicts = scan.to_record(), scan.verdicts()
        json.dumps([record, verdicts])
        assert len(record["cases"]) == 4
        assert len(record["secondary_profiles"]) == 2
        assert len(verdicts["bound_checks"]) == 4
