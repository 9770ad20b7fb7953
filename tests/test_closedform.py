import math

import numpy as np
import pytest

from qpd3 import (
    GameConfig,
    StrategyParams,
    closed_form_payoffs,
    compare_to_oracle,
    expected_payoffs,
    max_entanglement_payoffs,
    sample_any,
    sample_classical_limit,
    sample_pure_moves,
)
from qpd3.closedform import _oracle_deltas
from qpd3.game import DEFAULT_PAYOFF_TABLE

from conftest import classical_payoff, random_params

HALF_PI = math.pi / 2


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

    @pytest.mark.parametrize("seed", [1729, 1730, 7])
    @pytest.mark.parametrize("sampler", [sample_any, sample_classical_limit, sample_pure_moves])
    def test_one_kernel_call_equals_the_per_sample_oracle(self, sampler, seed):
        # the bundle's batched route and the per-sample route agree bit for bit
        report = compare_to_oracle(sampler, 1000, seed=seed)
        oracle, closed, delta_abs = _oracle_deltas(sampler, 1000, seed)
        assert np.array_equal(oracle, [s.oracle for s in report.samples])
        assert np.array_equal(closed, [s.closed_form for s in report.samples])
        assert np.array_equal(delta_abs, [s.delta_abs for s in report.samples])
        assert delta_abs.max() == report.max_abs_delta
        assert delta_abs.mean() == report.mean_abs_delta


#: Scalar draw bounds in stream order per move: theta, alpha, beta.
MOVE_BOX = ((0.0, math.pi), (-math.pi, math.pi), (-math.pi, math.pi))


class TestSamplers:
    @pytest.mark.parametrize("seed", [5, 1729, 1730])
    def test_sample_any_is_the_scalar_stream(self, seed):
        gamma, delta, params = sample_any(np.random.default_rng(seed), 40)
        assert (gamma.shape, delta.shape, params.shape) == ((40,), (40,), (40, 3, 3))
        rng = np.random.default_rng(seed)
        for g, d, moves in zip(gamma, delta, params):
            assert g == rng.uniform(0.0, HALF_PI)
            assert d == rng.uniform(0.0, HALF_PI)
            for move in moves:
                assert tuple(move) == tuple(rng.uniform(lo, hi) for lo, hi in MOVE_BOX)

    @pytest.mark.parametrize("seed", [5, 1729, 1730])
    def test_sample_classical_limit_is_the_scalar_stream(self, seed):
        gamma, delta, params = sample_classical_limit(np.random.default_rng(seed), 40)
        assert (gamma == 0.0).all() and (delta == 0.0).all()
        assert params.shape == (40, 3, 3)
        rng = np.random.default_rng(seed)
        for moves in params:
            for move in moves:
                assert tuple(move) == tuple(rng.uniform(lo, hi) for lo, hi in MOVE_BOX)

    def test_pure_moves_are_pure_and_in_the_box(self):
        gamma, delta, params = sample_pure_moves(np.random.default_rng(3), 500)
        assert params.shape == (500, 3, 3)
        assert set(np.unique(params[..., 0])) == {0.0, math.pi}
        assert ((-math.pi <= params[..., 1:]) & (params[..., 1:] <= math.pi)).all()
        for angle in (gamma, delta):
            assert angle.shape == (500,)
            assert ((0.0 <= angle) & (angle <= HALF_PI)).all()


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
