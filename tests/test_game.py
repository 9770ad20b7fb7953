import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpd3 import (
    DEFAULT_PAYOFF_TABLE,
    OUTCOMES,
    GameConfig,
    PayoffTable,
    StrategyParams,
    classical_payoff,
    expected_payoffs,
    initial_state,
    measurement_basis,
    measurement_projectors,
    outcome_distribution,
    outcome_probabilities,
    payoff_operator,
    strategy_unitary,
)

from conftest import random_config, random_params, trace_rule_payoffs

HALF_PI = math.pi / 2


def basis8(index):
    v = np.zeros(8, dtype=complex)
    v[index] = 1.0
    return v


class TestInitialState:
    def test_product_corner(self):
        assert np.array_equal(initial_state(0.0), basis8(0))

    def test_maximally_entangled(self):
        want = (basis8(0) + 1j * basis8(7)) / math.sqrt(2)
        assert np.allclose(initial_state(HALF_PI), want, atol=1e-15)

    def test_normalized_across_range(self, rng):
        for gamma in rng.uniform(0.0, HALF_PI, size=50):
            psi = initial_state(float(gamma))
            assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12

    @pytest.mark.parametrize("gamma", [-0.1, HALF_PI + 0.1, math.nan])
    def test_rejects_out_of_range(self, gamma):
        with pytest.raises(ValueError):
            initial_state(gamma)


class TestStrategyUnitary:
    def test_identity_at_origin(self):
        assert np.allclose(strategy_unitary(StrategyParams(0, 0, 0)), np.eye(2), atol=1e-15)

    def test_full_defect_with_pi_phases(self):
        # hand evaluation at theta=beta=pi: |0> -> -i|1>, |1> -> -i|0>
        u = strategy_unitary(StrategyParams(math.pi, math.pi, math.pi))
        want = np.array([[0, -1j], [-1j, 0]])
        assert np.max(np.abs(u - want)) < 1e-12

    def test_balanced_superposition(self):
        u = strategy_unitary(StrategyParams(HALF_PI, HALF_PI, HALF_PI))
        got = u @ np.array([1.0, 0.0], dtype=complex)
        want = np.array([1j, 1.0]) / math.sqrt(2)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_always_unitary(self, rng):
        for _ in range(500):
            u = strategy_unitary(random_params(rng))
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12

    @pytest.mark.parametrize(
        "theta,alpha,beta",
        [(-0.01, 0, 0), (math.pi + 0.01, 0, 0), (0, 3.5, 0), (0, 0, -3.5)],
    )
    def test_rejects_out_of_range(self, theta, alpha, beta):
        with pytest.raises(ValueError):
            StrategyParams(theta, alpha, beta)


class TestMeasurementBasis:
    def test_product_basis_is_computational(self):
        for b, v in enumerate(measurement_basis(0.0)):
            assert np.array_equal(v, basis8(b))

    def test_entangled_row_100(self):
        v = measurement_basis(HALF_PI)[OUTCOMES.index("100")]
        want = (basis8(4) - 1j * basis8(3)) / math.sqrt(2)
        assert np.max(np.abs(v - want)) < 1e-12

    def test_entangled_row_000(self):
        v = measurement_basis(HALF_PI)[0]
        want = (basis8(0) + 1j * basis8(7)) / math.sqrt(2)
        assert np.max(np.abs(v - want)) < 1e-12

    def test_gram_matrix_identity(self):
        for delta in np.linspace(0.0, HALF_PI, 50):
            basis = np.stack(measurement_basis(float(delta)))
            gram = basis.conj() @ basis.T
            assert np.max(np.abs(gram - np.eye(8))) < 1e-12

    def test_projectors_complete(self):
        for delta in np.linspace(0.0, HALF_PI, 50):
            total = sum(measurement_projectors(float(delta)))
            assert np.max(np.abs(total - np.eye(8))) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            measurement_basis(math.pi)


class TestPayoffOperator:
    def test_diagonal_in_product_basis(self):
        op = payoff_operator(0.0, "A")
        assert np.max(np.abs(op - np.diag([3, 2, 2, 0, 5, 4, 4, 1]))) < 1e-12

    def test_trace_is_payoff_sum(self, rng):
        for player in ("A", "B", "C"):
            total = DEFAULT_PAYOFF_TABLE.column(player).sum()
            for delta in rng.uniform(0.0, HALF_PI, size=10):
                op = payoff_operator(float(delta), player)
                assert abs(np.trace(op).real - total) < 1e-12

    def test_spectrum_matches_table(self):
        op = payoff_operator(HALF_PI, "A")
        eigs = sorted(np.linalg.eigvalsh(op))
        assert np.allclose(eigs, sorted([3, 2, 2, 0, 5, 4, 4, 1]), atol=1e-9)

    def test_hermitian(self, rng):
        for delta in rng.uniform(0.0, HALF_PI, size=10):
            op = payoff_operator(float(delta), "B")
            assert np.max(np.abs(op - op.conj().T)) < 1e-12


class TestOutcomeDistribution:
    def test_all_cooperate_classical(self):
        dist = outcome_distribution(
            GameConfig(0, 0), *(StrategyParams(0, 0, 0) for _ in range(3))
        )
        assert dist["000"] == pytest.approx(1.0, abs=1e-12)

    def test_maximal_entanglement_forces_011(self):
        # hand-computed: Alice's flip plus the entangled basis put all weight
        # on outcome 011
        dist = outcome_distribution(
            GameConfig(HALF_PI, HALF_PI),
            StrategyParams(math.pi, math.pi, math.pi),
            StrategyParams(0, 0, HALF_PI),
            StrategyParams(0, 0, HALF_PI),
        )
        assert dist["011"] == pytest.approx(1.0, abs=1e-12)

    def test_conservation_fuzz(self, rng):
        for _ in range(1000):
            dist = outcome_distribution(
                random_config(rng), *(random_params(rng) for _ in range(3))
            )
            values = dist.as_array()
            assert np.all(values >= 0.0)
            assert abs(values.sum() - 1.0) < 1e-12


class TestExpectedPayoffs:
    def test_all_cooperate(self):
        got = expected_payoffs(GameConfig(0, 0), *(StrategyParams(0, 0, 0),) * 3)
        assert got.as_tuple() == pytest.approx((3, 3, 3), abs=1e-12)

    def test_lone_defector(self):
        got = expected_payoffs(
            GameConfig(0, 0),
            StrategyParams(math.pi, math.pi, math.pi),
            StrategyParams(0, 0, HALF_PI),
            StrategyParams(0, 0, HALF_PI),
        )
        assert got.as_tuple() == pytest.approx((5, 2, 2), abs=1e-12)

    def test_maximal_entanglement_equilibrium_value(self):
        got = expected_payoffs(
            GameConfig(HALF_PI, HALF_PI),
            StrategyParams(0, math.pi, math.pi),
            StrategyParams(0, 0, 0),
            StrategyParams(0, 0, 0),
        )
        assert got.as_tuple() == pytest.approx((3, 3, 3), abs=1e-9)

    def test_classical_reduction_with_phase_independence(self, rng):
        # at gamma = delta = 0 the game is the classical mixture with defect
        # probability sin^2(theta/2); phases must not matter
        config = GameConfig(0, 0)
        for _ in range(1000):
            thetas = rng.uniform(0.0, math.pi, size=3)
            profile = [
                StrategyParams(t, rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
                for t in thetas
            ]
            got = expected_payoffs(config, *profile)
            want = classical_payoff(
                DEFAULT_PAYOFF_TABLE, tuple(math.sin(t / 2) ** 2 for t in thetas)
            )
            assert max(
                abs(a - b) for a, b in zip(got.as_tuple(), want.as_tuple())
            ) < 1e-12
            reprofile = [
                StrategyParams(t, rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
                for t in thetas
            ]
            again = expected_payoffs(config, *reprofile)
            assert max(
                abs(a - b) for a, b in zip(got.as_tuple(), again.as_tuple())
            ) < 1e-12

    def test_pure_strategies_reproduce_base_table(self, rng):
        config = GameConfig(0, 0)
        for bits in range(8):
            outcome = format(bits, "03b")
            want = DEFAULT_PAYOFF_TABLE.triple(outcome)
            for _ in range(10):
                profile = [
                    StrategyParams(
                        math.pi if (bits >> (2 - k)) & 1 else 0.0,
                        rng.uniform(-math.pi, math.pi),
                        rng.uniform(-math.pi, math.pi),
                    )
                    for k in range(3)
                ]
                got = expected_payoffs(config, *profile)
                assert max(
                    abs(a - b) for a, b in zip(got.as_tuple(), want)
                ) < 1e-12

    def test_payoff_bounds(self, rng):
        lo, hi = DEFAULT_PAYOFF_TABLE.bounds()
        for _ in range(300):
            got = expected_payoffs(
                random_config(rng), *(random_params(rng) for _ in range(3))
            )
            for value in got.as_tuple():
                assert lo - 1e-12 <= value <= hi + 1e-12


class TestOutcomeProbabilities:
    def test_expected_payoffs_match_trace_rule(self, rng):
        for _ in range(1000):
            config = random_config(rng)
            profile = [random_params(rng) for _ in range(3)]
            got = expected_payoffs(config, *profile).as_tuple()
            want = trace_rule_payoffs(config, *(p.as_tuple() for p in profile))
            assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.0, HALF_PI),
        st.floats(0.0, HALF_PI),
        st.lists(
            st.tuples(
                st.floats(0.0, math.pi),
                st.floats(-math.pi, math.pi),
                st.floats(-math.pi, math.pi),
            ),
            min_size=3,
            max_size=3,
        ),
    )
    def test_expected_payoffs_match_trace_rule_anywhere(self, gamma, delta, profile):
        config = GameConfig(gamma, delta)
        got = expected_payoffs(config, *(StrategyParams(*p) for p in profile)).as_tuple()
        want = trace_rule_payoffs(config, *profile)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12

    def test_batched_rows_equal_single_profiles(self, rng):
        config = random_config(rng)
        rows = np.array([random_params(rng).as_tuple() for _ in range(3 * 50)]).reshape(3, 50, 3)
        fixed = [random_params(rng).as_tuple() for _ in range(3)]
        for k in range(3):
            players = list(fixed)
            players[k] = rows[k]
            batch = outcome_probabilities(config.gamma, config.delta, *players)
            assert batch.shape == (50, 8)
            for i, row in enumerate(rows[k]):
                players[k] = row
                single = outcome_probabilities(config.gamma, config.delta, *players)
                assert single.shape == (1, 8)
                assert np.array_equal(batch[i], single[0])
        batch = outcome_probabilities(config.gamma, config.delta, *rows)
        for i in range(50):
            single = outcome_probabilities(config.gamma, config.delta, *rows[:, i])
            assert np.array_equal(batch[i], single[0])

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize(
        "bad",
        [
            (-0.01, 0.0, 0.0),
            (math.pi + 0.01, 0.0, 0.0),
            (0.0, 3.5, 0.0),
            (0.0, 0.0, -3.5),
            (math.nan, 0.0, 0.0),
            (0.0, math.inf, 0.0),
        ],
    )
    def test_rejects_bad_player_angles(self, k, bad):
        players = [(0.0, 0.0, 0.0)] * 3
        players[k] = bad
        with pytest.raises(ValueError):
            outcome_probabilities(0.3, 0.7, *players)
        players[k] = np.vstack([np.zeros((4, 3)), bad])  # one bad row in a batch
        with pytest.raises(ValueError):
            outcome_probabilities(0.3, 0.7, *players)

    @pytest.mark.parametrize("bad", [(0.0, 0.0), np.zeros((4, 2)), np.zeros((2, 2, 3))])
    def test_rejects_bad_player_shapes(self, bad):
        with pytest.raises(ValueError):
            outcome_probabilities(0.3, 0.7, bad, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    @pytest.mark.parametrize(
        "gamma,delta", [(math.nan, 0.0), (0.0, math.nan), (-0.1, 0.0), (0.0, math.pi)]
    )
    def test_rejects_bad_config_angles(self, gamma, delta):
        with pytest.raises(ValueError):
            outcome_probabilities(gamma, delta, *[(0.0, 0.0, 0.0)] * 3)


class TestClassicalPayoff:
    def test_corners(self):
        assert classical_payoff(DEFAULT_PAYOFF_TABLE, (0, 0, 0)).as_tuple() == (3, 3, 3)
        assert classical_payoff(DEFAULT_PAYOFF_TABLE, (1, 1, 1)).as_tuple() == (1, 1, 1)

    def test_half_defection_mixture(self):
        got = classical_payoff(DEFAULT_PAYOFF_TABLE, (0.5, 0, 0))
        assert got.as_tuple() == pytest.approx((4, 2.5, 2.5), abs=1e-15)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            classical_payoff(DEFAULT_PAYOFF_TABLE, (1.5, 0, 0))


class TestConfigAndTable:
    def test_config_range_checks(self):
        with pytest.raises(ValueError):
            GameConfig(-0.1, 0)
        with pytest.raises(ValueError):
            GameConfig(0, math.pi)

    def test_table_requires_all_outcomes(self):
        mapping = DEFAULT_PAYOFF_TABLE.as_mapping()
        del mapping["111"]
        with pytest.raises(ValueError):
            PayoffTable.from_mapping(mapping)

    def test_table_round_trip(self):
        mapping = DEFAULT_PAYOFF_TABLE.as_mapping()
        assert PayoffTable.from_mapping(mapping) == DEFAULT_PAYOFF_TABLE

    def test_custom_table_changes_payoffs(self):
        mapping = {o: [1.0, 1.0, 1.0] for o in OUTCOMES}
        flat = PayoffTable.from_mapping(mapping)
        got = expected_payoffs(
            GameConfig(0.3, 0.7, flat), *(StrategyParams(1.0, 0.5, -0.5),) * 3
        )
        assert got.as_tuple() == pytest.approx((1, 1, 1), abs=1e-12)
