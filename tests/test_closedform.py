import math

import numpy as np
import pytest

from qpd3 import (
    ClosedFormTerms,
    GameConfig,
    StrategyParams,
    classical_payoff,
    closed_form_payoffs,
    compare_to_oracle,
    expected_payoffs,
    max_entanglement_payoffs,
    sample_any,
    sample_classical_limit,
    sample_pure_moves,
)
from qpd3.game import DEFAULT_PAYOFF_TABLE

from conftest import random_params

HALF_PI = math.pi / 2


def test_terms_identities_on_grid():
    for gamma in np.linspace(0, HALF_PI, 20):
        for delta in np.linspace(0, HALF_PI, 20):
            for theta in np.linspace(0, math.pi, 20):
                t = ClosedFormTerms.from_angles(float(gamma), float(delta), (theta,) * 3)
                assert abs(t.eta1 + t.eta2 - 1.0) < 1e-12
                assert abs(t.xi) <= 0.5 + 1e-15
                for c, s in zip(t.c, t.s):
                    assert abs(c + s - 1.0) < 1e-12


def test_collapses_to_classical_at_product_corner(rng):
    config = GameConfig(0, 0)
    for _ in range(1000):
        profile = [random_params(rng) for _ in range(3)]
        got = closed_form_payoffs(config, *profile)
        want = classical_payoff(
            DEFAULT_PAYOFF_TABLE,
            tuple(math.sin(p.theta / 2) ** 2 for p in profile),
        )
        assert max(abs(a - b) for a, b in zip(got.as_tuple(), want.as_tuple())) < 1e-9


def test_all_defect_product_corner():
    got = closed_form_payoffs(
        GameConfig(0, 0), *(StrategyParams(math.pi, 1.0, -2.0),) * 3
    )
    assert got.as_tuple() == pytest.approx((1, 1, 1), abs=1e-12)


def test_phase_resampling_invariance_at_product_corner(rng):
    config = GameConfig(0, 0)
    thetas = (0.7, 2.0, 3.0)
    base = closed_form_payoffs(
        config, *(StrategyParams(t, 0.0, 0.0) for t in thetas)
    )
    for _ in range(50):
        shaken = closed_form_payoffs(
            config,
            *(
                StrategyParams(t, rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
                for t in thetas
            ),
        )
        assert max(
            abs(a - b) for a, b in zip(base.as_tuple(), shaken.as_tuple())
        ) < 1e-12


def test_full_form_hits_published_equilibrium_value():
    got = closed_form_payoffs(
        GameConfig(HALF_PI, HALF_PI),
        StrategyParams(0, math.pi, math.pi),
        StrategyParams(0, 0, HALF_PI),
        StrategyParams(0, 0, HALF_PI),
    )
    assert got.as_tuple() == pytest.approx((3, 3, 3), abs=1e-9)


class TestMaxEntanglementForm:
    def test_equilibrium_value(self):
        got = max_entanglement_payoffs(
            GameConfig(HALF_PI, HALF_PI),
            StrategyParams(0, math.pi, math.pi),
            StrategyParams(0, 0, HALF_PI),
            StrategyParams(0, 0, HALF_PI),
        )
        assert got.as_tuple() == pytest.approx((3, 3, 3), abs=1e-9)

    def test_all_defect_single_term(self):
        # only the all-flip term survives; at beta_A = 0 its phase factor is 1
        # and the bracket reduces to the all-defect payoff
        got = max_entanglement_payoffs(
            GameConfig(HALF_PI, HALF_PI),
            StrategyParams(math.pi, 0.3, 0.0),
            StrategyParams(math.pi, 0, HALF_PI),
            StrategyParams(math.pi, 0, HALF_PI),
        )
        assert got.as_tuple() == pytest.approx((1, 1, 1), abs=1e-12)

    def test_requires_maximal_entanglement(self):
        with pytest.raises(ValueError):
            max_entanglement_payoffs(
                GameConfig(0.0, HALF_PI), *(StrategyParams(0, 0, 0),) * 3
            )

    def test_agreement_with_full_form_recorded(self, rng):
        # with Bob/Charlie phases free the special case and the full form use
        # different phase arguments; record the deltas rather than assume
        config = GameConfig(HALF_PI, HALF_PI)
        deltas = []
        for _ in range(100):
            profile = [random_params(rng) for _ in range(3)]
            a = max_entanglement_payoffs(config, *profile)
            b = closed_form_payoffs(config, *profile)
            deltas.append(max(abs(x - y) for x, y in zip(a.as_tuple(), b.as_tuple())))
        assert all(math.isfinite(d) for d in deltas)

    def test_reproduces_published_symmetric_table(self):
        # every cell of the published symmetric-regime protocol table is the
        # special-case formula evaluated on the protocol grid; this pins the
        # undefined coupling to sin(gamma)sin(delta) = 1 (with 1/2 the match
        # breaks) and shows that table follows this formula, not the trace rule
        from qpd3.comms import CODEWORDS, COLUMNS, common_move
        from qpd3 import fixture_table

        config = GameConfig(HALF_PI, HALF_PI)
        fixture = fixture_table("table2")
        for i, cw in enumerate(CODEWORDS):
            for j, (tb, tc) in enumerate(COLUMNS):
                got = max_entanglement_payoffs(
                    config, cw.params, common_move(tb), common_move(tc)
                )
                want = fixture.entry(i, j)
                assert max(
                    abs(a - b) for a, b in zip(got.as_tuple(), want.as_tuple())
                ) < 1e-12


class TestCompareToOracle:
    def test_classical_restricted_sampler(self):
        report = compare_to_oracle(sample_classical_limit, 200, seed=11)
        assert report.sample_count == 200
        assert report.max_abs_delta < 1e-9

    def test_pure_move_sampler_documented(self):
        report = compare_to_oracle(sample_pure_moves, 200, seed=12)
        assert report.sample_count == 200
        assert all(math.isfinite(d) for s in report.samples for d in s.delta_abs)

    def test_unrestricted_sampler_completes(self):
        report = compare_to_oracle(sample_any, 1000, seed=13)
        assert report.sample_count == 1000
        assert math.isfinite(report.max_abs_delta)
        assert math.isfinite(report.mean_abs_delta)

    def test_bit_reproducible(self):
        a = compare_to_oracle(sample_any, 50, seed=99)
        b = compare_to_oracle(sample_any, 50, seed=99)
        assert a == b

    def test_seed_changes_samples(self):
        a = compare_to_oracle(sample_any, 50, seed=1)
        b = compare_to_oracle(sample_any, 50, seed=2)
        assert a != b

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            compare_to_oracle(sample_any, 0)

    @pytest.mark.parametrize("sampler", [sample_any, sample_classical_limit, sample_pure_moves])
    def test_batch_equals_single_profile_closed_form(self, sampler):
        report = compare_to_oracle(sampler, 200, seed=21)
        for s in report.samples:
            config = GameConfig(s.gamma, s.delta)
            profile = [StrategyParams(*p) for p in s.params]
            assert s.closed_form == closed_form_payoffs(config, *profile).as_tuple()

    def test_record_shape(self):
        report = compare_to_oracle(sample_any, 3, seed=5)
        record = report.to_record()
        assert record == {
            "seed": 5,
            "sample_count": 3,
            "max_abs_delta": report.max_abs_delta,
            "mean_abs_delta": report.mean_abs_delta,
        }


def test_oracle_remains_canonical_far_from_corner(rng):
    # the printed expression is known to deviate; make sure we are honestly
    # measuring a deviation rather than accidentally comparing it to itself
    report = compare_to_oracle(sample_any, 300, seed=42)
    assert report.max_abs_delta > 1e-3
    for s in report.samples[:20]:
        config = GameConfig(s.gamma, s.delta)
        profile = [StrategyParams(*p) for p in s.params]
        again = expected_payoffs(config, *profile)
        assert again.as_tuple() == pytest.approx(s.oracle, abs=1e-12)
