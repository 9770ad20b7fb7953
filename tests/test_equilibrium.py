import math

import numpy as np
import pytest

from qpd3 import (
    GameConfig,
    GridSpec,
    Profile,
    StrategyParams,
    best_response,
    four_case_scan,
    verify_nash,
)
from qpd3.equilibrium import _batched_payoffs, _candidate_params

from conftest import random_params, trace_rule_payoffs

HALF_PI = math.pi / 2
SMALL_GRID = GridSpec(5, 5, 5)


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

    def test_rejects_tiny_axes(self):
        with pytest.raises(ValueError):
            GridSpec(1, 17, 17)

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
    def test_grid_path_matches_trace_rule(self, rng):
        # 10 configs x 100 candidate rows = 1000 seeded profiles, spread over
        # all three deviating players
        for trial in range(10):
            config = GameConfig(rng.uniform(0, HALF_PI), rng.uniform(0, HALF_PI))
            player = trial % 3
            candidates = np.array([random_params(rng).as_tuple() for _ in range(100)])
            others = (random_params(rng), random_params(rng))
            batched = _batched_payoffs(player, candidates, others, config)
            for row, got in zip(candidates, batched):
                profile = [p.as_tuple() for p in others]
                profile.insert(player, tuple(row))
                assert abs(got - trace_rule_payoffs(config, *profile)[player]) < 1e-12

    def test_candidates_are_lexicographic(self):
        pts = _candidate_params(SMALL_GRID)
        assert pts.shape == (SMALL_GRID.size(), 3)
        rows = [tuple(p) for p in pts]
        assert rows == sorted(set(rows))


class TestBestResponse:
    def test_defection_dominates_against_defectors(self):
        br = best_response("A", (defect(), defect()), GameConfig(0, 0), GridSpec())
        assert br.theta == math.pi
        assert (br.alpha, br.beta) == (-math.pi, -math.pi)  # lexicographic tie-break

    def test_defection_dominates_against_cooperators(self):
        br = best_response("B", (cooperate(), cooperate()), GameConfig(0, 0), GridSpec())
        assert br.theta == math.pi

    def test_dominance_over_sampled_opponents(self, rng):
        config = GameConfig(0, 0)
        for _ in range(25):
            others = (random_params(rng), random_params(rng))
            br = best_response("C", others, config, SMALL_GRID)
            assert br.theta == math.pi

    def test_alice_bob_symmetric(self, rng):
        # the measurement pairing carries sign (-1)^(l xor m), so the game is
        # exactly symmetric under exchanging Alice and Bob at every (gamma,
        # delta): their best responses to the same opponents coincide
        for _ in range(20):
            config = GameConfig(rng.uniform(0, HALF_PI), rng.uniform(0, HALF_PI))
            others = (random_params(rng), random_params(rng))
            br_a = best_response("A", others, config, SMALL_GRID)
            br_b = best_response("B", others, config, SMALL_GRID)
            assert br_a == br_b

    def test_bob_charlie_symmetric_in_product_basis(self, rng):
        # exchanging Bob and Charlie is only a symmetry when the measurement
        # basis is the computational one (delta = 0); the entangled pairing
        # breaks it
        for _ in range(20):
            config = GameConfig(rng.uniform(0, HALF_PI), 0.0)
            pa, pother = random_params(rng), random_params(rng)
            br_b = best_response("B", (pa, pother), config, SMALL_GRID)
            br_c = best_response("C", (pa, pother), config, SMALL_GRID)
            assert br_b == br_c


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
        assert [r.case for r in scan.reports] == ["PP", "PE", "EP", "EE"]

    def test_product_regime_value_and_nash(self, scan):
        report = scan.report_for("PP")
        assert report.payoff.as_tuple() == pytest.approx((1, 1, 1), abs=1e-9)
        assert report.is_nash

    def test_max_entanglement_value(self, scan):
        report = scan.report_for("EE")
        assert report.payoff.as_tuple() == pytest.approx((3, 3, 3), abs=1e-9)

    def test_mixed_regime_representatives(self, scan):
        # both mixed regimes give the symmetric triple (2,2,2) at theta = 0
        for case in ("PE", "EP"):
            report = scan.report_for(case)
            assert report.payoff.as_tuple() == pytest.approx((2, 2, 2), abs=1e-9)

    def test_secondary_profiles_frozen_values(self, scan):
        # hand-derived: the theta = pi/2 stated profiles are asymmetric
        values = {r.case: r.payoff.as_tuple() for r in scan.secondary}
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

    def test_bound_checks_document_the_violation(self, scan):
        by_key = {(b.case, round(b.theta, 6)): b for b in scan.bounds}
        assert by_key[("PE", 0.0)].holds
        assert by_key[("EP", 0.0)].holds
        assert by_key[("EP", round(HALF_PI, 6))].holds
        violated = by_key[("PE", round(HALF_PI, 6))]
        assert not violated.holds
        assert max(violated.payoff) == pytest.approx(3.5, abs=1e-9)

    def test_mirror_partner_phases_supported(self):
        scan = four_case_scan(grid=SMALL_GRID, partner_phases="mirror")
        # the equilibrium identities survive the alternative phase reading
        assert scan.report_for("PP").payoff.as_tuple() == pytest.approx((1, 1, 1), abs=1e-9)
        assert scan.report_for("EE").payoff.as_tuple() == pytest.approx((3, 3, 3), abs=1e-9)

    def test_rejects_unknown_phase_convention(self):
        with pytest.raises(ValueError):
            four_case_scan(grid=SMALL_GRID, partner_phases="free")

    def test_record_is_serializable(self, scan):
        import json

        record = scan.to_record()
        json.dumps(record)
        assert len(record["cases"]) == 4
        assert len(record["secondary_profiles"]) == 2
        assert len(record["bound_checks"]) == 4
