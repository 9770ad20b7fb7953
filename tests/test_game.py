import ast
import hashlib
import itertools
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpd3
from qpd3 import (
    DEFAULT_PAYOFF_TABLE,
    OUTCOMES,
    GameConfig,
    GridSpec,
    PayoffTable,
    Profile,
    StrategyParams,
    closed_form_payoffs,
    compare_to_oracle,
    expected_payoffs,
    four_case_scan,
    information_bits,
    max_entanglement_payoffs,
    moves,
    outcome_probabilities,
    sample_any,
    verify_nash,
)
from qpd3.cli import parse_angle

from conftest import (
    classical_payoff,
    random_config,
    random_params,
    reference_basis,
    trace_rule_payoffs,
)

HALF_PI = math.pi / 2
IDENTITY = (0.0, 0.0, 0.0)

#: ``outcome_probabilities`` on ``kernel_probe()``, as the kernel wrote it.
#: Like the bundle's sha, these bytes hold for numpy 2.4.6 on x86-64; another
#: numpy build may round differently.
KERNEL_PROBS = Path(__file__).parent / "data" / "kernel_probs.npy"

#: sha256 of the oracle column of ``compare_to_oracle(sample_any, 1000, 1729)``
#: as an ``(n, 3)`` float array, pinned the same way.
ORACLE_COLUMN_SHA256 = "c8e68d80fcc81cd51ea9b08470109cc3e331e53dc4b3f2ad7df5d7a1a04762f5"


def kernel_probe():
    """``outcome_probabilities``' arguments for the pinned kernel bytes: 200
    seeded rows, about a quarter of each angle on an edge of its range."""
    rng = np.random.default_rng(1729)
    n = 200

    def angle(lo, hi, edges):
        drawn = rng.uniform(lo, hi, n)
        return np.where(rng.random(n) < 0.25, rng.choice(edges, n), drawn)

    gamma, delta = angle(0.0, HALF_PI, [0.0, HALF_PI]), angle(0.0, HALF_PI, [0.0, HALF_PI])
    phase_edges = [-math.pi, 0.0, math.pi]
    players = [
        np.stack(
            [
                angle(0.0, math.pi, [0.0, math.pi]),
                angle(-math.pi, math.pi, phase_edges),
                angle(-math.pi, math.pi, phase_edges),
            ],
            axis=1,
        )
        for _ in range(3)
    ]
    return (gamma, delta, *players)


def basis8(index):
    v = np.zeros(8, dtype=complex)
    v[index] = 1.0
    return v


class TestInitialState:
    """The kernel's initial state, read through identity moves."""

    def test_product_corner(self):
        probs = outcome_probabilities(0.0, 0.0, *(IDENTITY,) * 3)[0]
        assert np.array_equal(probs, np.abs(basis8(0)) ** 2)

    def test_maximally_entangled(self):
        # weights 1/2 on |000> and |111>; the relative phase i makes the
        # state the entangled basis vector of outcome 000
        probs = outcome_probabilities(HALF_PI, 0.0, *(IDENTITY,) * 3)[0]
        want = np.abs(basis8(0) + basis8(7)) ** 2 / 2
        assert np.allclose(probs, want, atol=1e-15)
        probs = outcome_probabilities(HALF_PI, HALF_PI, *(IDENTITY,) * 3)[0]
        assert np.allclose(probs, np.abs(basis8(0)) ** 2, atol=1e-15)

    def test_normalized_across_range(self, rng):
        gammas = rng.uniform(0.0, HALF_PI, size=50)
        probs = outcome_probabilities(gammas, 0.0, *(IDENTITY,) * 3)
        assert np.max(np.abs(probs[:, 0] - np.cos(gammas / 2) ** 2)) < 1e-12
        assert np.max(np.abs(probs[:, 7] - np.sin(gammas / 2) ** 2)) < 1e-12
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("gamma", [-0.1, HALF_PI + 0.1, math.nan])
    def test_rejects_out_of_range(self, gamma):
        with pytest.raises(ValueError):
            outcome_probabilities(gamma, 0.0, *(IDENTITY,) * 3)


class TestStrategyUnitary:
    def test_identity_at_origin(self):
        assert np.allclose(moves(IDENTITY), np.eye(2), atol=1e-15)

    def test_full_defect_with_pi_phases(self):
        # hand evaluation at theta=beta=pi: |0> -> -i|1>, |1> -> -i|0>
        u = moves((math.pi, math.pi, math.pi))
        want = np.array([[0, -1j], [-1j, 0]])
        assert np.max(np.abs(u - want)) < 1e-12

    def test_balanced_superposition(self):
        u = moves((HALF_PI, HALF_PI, HALF_PI))
        got = u @ np.array([1.0, 0.0], dtype=complex)
        want = np.array([1j, 1.0]) / math.sqrt(2)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_always_unitary(self, rng):
        u = moves([random_params(rng).as_tuple() for _ in range(500)])
        assert np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(2))) < 1e-12

    @pytest.mark.parametrize(
        "theta,alpha,beta",
        [
            (-0.01, 0, 0),
            (math.pi + 0.01, 0, 0),
            (0, 3.5, 0),
            (0, 0, -3.5),
            pytest.param(0, 10**400, 0, id="beyond-float"),
        ],
    )
    def test_rejects_out_of_range(self, theta, alpha, beta):
        with pytest.raises(ValueError):
            StrategyParams(theta, alpha, beta)

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: StrategyParams("1.0", 0, 0), "theta"),
            (lambda: StrategyParams(True, 0, 0), "theta"),
            (lambda: StrategyParams(0, np.True_, 0), "alpha"),
            (lambda: StrategyParams(0, 0, None), "beta"),
            (lambda: GameConfig("0.5", 0), "gamma"),
            (lambda: GameConfig(0, False), "delta"),
        ],
        ids=["str-theta", "bool-theta", "numpy-bool-alpha", "none-beta", "str-gamma",
             "bool-delta"],
    )
    def test_angles_must_be_real_numbers(self, build, field):
        # expected_payoffs runs the Born rule on the dataclasses without
        # checking their angles again, so the constructors refuse what
        # float() would coerce, as PayoffTable does
        with pytest.raises(ValueError, match=rf"^{field} must be a real number"):
            build()

    def test_plain_floats_in_range_are_kept_as_given(self, monkeypatch):
        # a plain float in range skips the full check and is stored as the
        # same object; the bounds themselves and -0.0 are in range
        full_checks = []
        check = qpd3.game._check_finite
        monkeypatch.setattr(
            qpd3.game, "_check_finite", lambda *args: full_checks.append(args) or check(*args)
        )
        bounds = [(0.0, -math.pi, math.pi), (math.pi, math.pi, -math.pi), (HALF_PI, -0.0, 0.0)]
        for values in bounds:
            move = StrategyParams(*values)
            assert all(got is want for got, want in zip(move.as_tuple(), values))
        assert math.copysign(1.0, move.alpha) == -1.0
        for gamma, delta in [(0.0, HALF_PI), (HALF_PI, 0.0)]:
            config = GameConfig(gamma, delta)
            assert config.gamma is gamma and config.delta is delta
        assert full_checks == []
        # every other real number takes the full check, which stores a float
        StrategyParams(np.float64(1.0), 1, Fraction(-1, 2))
        assert [name for name, _ in full_checks] == ["theta", "alpha", "beta"]

    @pytest.mark.parametrize(
        "value,message",
        [
            (math.nan, "alpha must be finite, got nan"),
            (math.inf, "alpha must be finite, got inf"),
            (-math.inf, "alpha must be finite, got -inf"),
            (3.5, "alpha must lie in [-3.14159, 3.14159], got 3.5"),
            (-math.pi - 1e-15, "alpha must lie in [-3.14159, 3.14159], got -3.141592653589794"),
            (True, "alpha must be a real number, got True"),
            ("0.1", "alpha must be a real number, got '0.1'"),
        ],
    )
    def test_bad_angles_keep_their_messages(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StrategyParams(0.0, value, 0.0)

    def test_real_numbers_of_every_kind_construct(self):
        move = StrategyParams(np.float64(1.0), 1, Fraction(-1, 2))
        assert move.as_tuple() == (1.0, 1.0, -0.5)
        assert all(type(x) is float for x in move.as_tuple())
        config = GameConfig(np.int64(1), np.float32(0.5))
        assert (config.gamma, config.delta) == (1.0, 0.5)
        # the CLI's angle parser hands the constructors plain floats
        move = StrategyParams(*(parse_angle(text) for text in ("pi", "-pi/2", "0.25")))
        assert move.as_tuple() == (math.pi, -math.pi / 2, 0.25)


class TestMeasurementBasis:
    """The reference basis that ``trace_rule_payoffs`` measures in."""

    def test_product_basis_is_computational(self):
        assert np.array_equal(reference_basis(0.0), np.eye(8))

    def test_entangled_row_100(self):
        v = reference_basis(HALF_PI)[OUTCOMES.index("100")]
        want = (basis8(4) - 1j * basis8(3)) / math.sqrt(2)
        assert np.max(np.abs(v - want)) < 1e-12

    def test_entangled_row_000(self):
        v = reference_basis(HALF_PI)[0]
        want = (basis8(0) + 1j * basis8(7)) / math.sqrt(2)
        assert np.max(np.abs(v - want)) < 1e-12

    def test_gram_matrix_identity(self):
        for delta in np.linspace(0.0, HALF_PI, 50):
            basis = reference_basis(float(delta))
            gram = basis.conj() @ basis.T
            assert np.max(np.abs(gram - np.eye(8))) < 1e-12

    def test_projectors_complete(self):
        for delta in np.linspace(0.0, HALF_PI, 50):
            total = sum(np.outer(v, v.conj()) for v in reference_basis(float(delta)))
            assert np.max(np.abs(total - np.eye(8))) < 1e-12

    def test_rejects_out_of_range(self):
        # the basis is defined for delta in [0, pi/2] only; the kernel that
        # applies it and the config that carries delta both refuse delta = pi
        with pytest.raises(ValueError):
            outcome_probabilities(0.0, math.pi, *(IDENTITY,) * 3)
        with pytest.raises(ValueError):
            GameConfig(0.0, math.pi)


class TestOutcomeDistribution:
    def test_all_cooperate_classical(self):
        probs = outcome_probabilities(0.0, 0.0, *(IDENTITY,) * 3)[0]
        assert probs[OUTCOMES.index("000")] == pytest.approx(1.0, abs=1e-12)

    def test_maximal_entanglement_forces_011(self):
        # hand-computed: Alice's flip plus the entangled basis put all weight
        # on outcome 011
        probs = outcome_probabilities(
            HALF_PI, HALF_PI, (math.pi, math.pi, math.pi), (0, 0, HALF_PI), (0, 0, HALF_PI)
        )[0]
        assert probs[OUTCOMES.index("011")] == pytest.approx(1.0, abs=1e-12)

    def test_conservation_fuzz(self, rng):
        configs = [random_config(rng) for _ in range(1000)]
        players = [[random_params(rng).as_tuple() for _ in range(1000)] for _ in range(3)]
        probs = outcome_probabilities(
            [c.gamma for c in configs], [c.delta for c in configs], *players
        )
        assert np.all(probs >= 0.0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12


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
            want = DEFAULT_PAYOFF_TABLE.payoffs[bits]
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
        lo, hi = np.min(DEFAULT_PAYOFF_TABLE.payoffs), np.max(DEFAULT_PAYOFF_TABLE.payoffs)
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

    def test_both_entry_points_keep_the_sum_to_one_check(self, monkeypatch):
        # the check tests the Born rule, not its input, so it lives in the
        # core that both entry points run: moves that are not unitary trip it
        kernel = qpd3.game.moves
        monkeypatch.setattr(qpd3.game, "moves", lambda rows: 1.1 * kernel(rows))
        with pytest.raises(ValueError, match="outcome probabilities sum to 1"):
            outcome_probabilities(0.3, 0.7, *(IDENTITY,) * 3)
        with pytest.raises(ValueError, match="outcome probabilities sum to 1"):
            expected_payoffs(GameConfig(0.3, 0.7), *(StrategyParams(*IDENTITY),) * 3)

    @pytest.mark.parametrize(
        "table",
        [
            DEFAULT_PAYOFF_TABLE,
            PayoffTable.from_mapping(
                {o: [1.5 * b, -0.25 * b, 7.0 - b] for b, o in enumerate(OUTCOMES)}
            ),
        ],
        ids=["classic", "custom"],
    )
    def test_entry_points_agree_bit_for_bit_at_the_edges(self, table):
        # expected_payoffs builds the core's inputs from its dataclasses and
        # outcome_probabilities from its arrays; at every corner of the
        # angle box the two must hand the core the same bits
        corners = [
            StrategyParams(theta, alpha, beta)
            for theta in (0.0, math.pi)
            for alpha in (-math.pi, math.pi)
            for beta in (-math.pi, math.pi)
        ]
        for gamma, delta in itertools.product((0.0, HALF_PI), repeat=2):
            config = GameConfig(gamma, delta, table)
            for profile in itertools.product(corners, repeat=3):
                got = np.array(expected_payoffs(config, *profile).as_tuple())
                probs = outcome_probabilities(gamma, delta, *(p.as_tuple() for p in profile))
                assert got.tobytes() == table.expected(probs)[0].tobytes()

    def test_kernel_bytes_are_pinned(self):
        # the kernel's last bits, apart from the bundle: a change in how the
        # Born rule is evaluated must keep every bit or re-pin on purpose
        want = np.load(KERNEL_PROBS)
        got = outcome_probabilities(*kernel_probe())
        assert (got.shape, got.dtype) == (want.shape, want.dtype) == ((200, 8), np.float64)
        assert got.tobytes() == want.tobytes()
        # the same holds for the single-profile oracle, one call per sample
        oracle = np.array([s.oracle for s in compare_to_oracle(sample_any, 1000, 1729).samples])
        assert hashlib.sha256(oracle.tobytes()).hexdigest() == ORACLE_COLUMN_SHA256

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
        # one (gamma, delta) per row, with batched and with fixed players
        gammas = rng.uniform(0.0, HALF_PI, 50)
        deltas = rng.uniform(0.0, HALF_PI, 50)
        for players in (rows, fixed):
            batch = outcome_probabilities(gammas, deltas, *players)
            assert batch.shape == (50, 8)
            for i in range(50):
                row = [p[i] if np.ndim(p) == 2 else p for p in players]
                single = outcome_probabilities(float(gammas[i]), float(deltas[i]), *row)
                assert np.array_equal(batch[i], single[0])
        # arrays of 1 row, as the angle and as a player, broadcast like scalars
        batch = outcome_probabilities([config.gamma], deltas, rows[0][:1], *rows[1:])
        for i in range(50):
            row = (rows[0][0], rows[1][i], rows[2][i])
            single = outcome_probabilities(config.gamma, float(deltas[i]), *row)
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
        # the same bad angle inside an (N,) array of good ones
        with pytest.raises(ValueError):
            outcome_probabilities([0.1, gamma, 0.2], [0.3, delta, 0.4], *[(0.0, 0.0, 0.0)] * 3)

    def test_rejects_bad_config_shapes(self):
        with pytest.raises(ValueError):
            outcome_probabilities(np.zeros((2, 1)), 0.0, *[(0.0, 0.0, 0.0)] * 3)
        with pytest.raises(ValueError):
            outcome_probabilities(0.0, np.zeros((1, 2)), *[(0.0, 0.0, 0.0)] * 3)
        # per-row angles must match the players' rows
        with pytest.raises(ValueError):
            outcome_probabilities(np.zeros(3), 0.0, np.zeros((2, 3)), *[(0.0, 0.0, 0.0)] * 2)

    @pytest.mark.parametrize(
        "k,name", list(enumerate(["gamma", "delta", "player A", "player B", "player C"]))
    )
    def test_names_the_argument_whose_batch_length_disagrees(self, k, name):
        # every argument but the k-th holds 2 rows, which the k-th breaks with
        # 3; the first argument of more than 1 row sets the batch length
        args = [np.full(2, 0.1), np.full(2, 0.2)] + [np.zeros((2, 3))] * 3
        args[k] = np.full(3, 0.3) if k < 2 else np.zeros((3, 3))
        message = f"{name} holds 3 rows, but gamma holds 2"
        if k == 0:
            message = "delta holds 2 rows, but gamma holds 3"
        with pytest.raises(ValueError, match=f"^{message}$"):
            outcome_probabilities(*args)

    def test_a_single_row_does_not_set_the_batch(self):
        with pytest.raises(ValueError, match="^delta holds 3 rows, but gamma holds 2$"):
            outcome_probabilities([0.1, 0.2], [0.1, 0.2, 0.3], *[(0, 0, 0)] * 3)
        with pytest.raises(ValueError, match="^player C holds 2 rows, but player A holds 3$"):
            outcome_probabilities(0.1, [0.2], np.zeros((3, 3)), (0, 0, 0), np.zeros((2, 3)))


class TestClassicalPayoff:
    """The test-side classical reference, at hand-checked points."""

    def test_corners(self):
        assert classical_payoff(DEFAULT_PAYOFF_TABLE, (0, 0, 0)).as_tuple() == (3, 3, 3)
        assert classical_payoff(DEFAULT_PAYOFF_TABLE, (1, 1, 1)).as_tuple() == (1, 1, 1)

    def test_half_defection_mixture(self):
        got = classical_payoff(DEFAULT_PAYOFF_TABLE, (0.5, 0, 0))
        assert got.as_tuple() == pytest.approx((4, 2.5, 2.5), abs=1e-15)


class TestConfigAndTable:
    def test_config_range_checks(self):
        with pytest.raises(ValueError):
            GameConfig(-0.1, 0)
        with pytest.raises(ValueError):
            GameConfig(0, math.pi)
        with pytest.raises(ValueError, match="beyond float range"):
            GameConfig(10**400, 0)

    def test_default_table_is_shared(self):
        assert GameConfig(0, 0).payoffs is DEFAULT_PAYOFF_TABLE

    def test_config_refuses_a_table_of_another_type(self):
        # a mapping is read with PayoffTable.from_mapping, not passed as is
        with pytest.raises(ValueError, match="^payoffs must be a PayoffTable, got dict"):
            GameConfig(0.1, 0.2, {"000": (1, 1, 1)})

    def test_public_members_are_the_array_and_its_two_readers(self):
        members = {name for name in dir(DEFAULT_PAYOFF_TABLE) if not name.startswith("_")}
        assert members == {"payoffs", "expected", "from_mapping"}

    def test_payoffs_are_one_read_only_array(self):
        # every caller shares the default table's array, so none may write
        payoffs = DEFAULT_PAYOFF_TABLE.payoffs
        assert payoffs.shape == (8, 3)
        with pytest.raises(ValueError):
            payoffs[0, 0] = 9.0
        with pytest.raises(ValueError):
            payoffs.T[1] = 9.0
        assert payoffs.T.flags.c_contiguous
        assert payoffs[:, 1].tolist() == [3, 2, 5, 4, 2, 0, 4, 1]
        assert payoffs[OUTCOMES.index("100")].tolist() == [5, 2, 2]

    def test_an_array_of_payoffs_constructs(self):
        a, b = 2.5, -7.0
        table = PayoffTable(a * DEFAULT_PAYOFF_TABLE.payoffs + b)
        assert table.payoffs.tolist() == (a * DEFAULT_PAYOFF_TABLE.payoffs + b).tolist()
        assert table.payoffs.T.flags.c_contiguous and not table.payoffs.flags.writeable

    @pytest.mark.parametrize(
        "row,message",
        [
            ((1.0, 2.0), r"payoff row '011' must be a list of 3 real numbers"),
            (5.0, r"payoff row '011' must be a list of 3 real numbers"),
            ("123", r"payoff row '011' must be a list of 3 real numbers"),
            ([[1], 2, 3], r"payoff\['011'\]\[0\] must be a real number, got \[1\]"),
            ([1, True, 3], r"payoff\['011'\]\[1\] must be a real number"),
            ([1, 2, math.nan], r"payoff\['011'\]\[2\] must be finite"),
        ],
        ids=["short", "number", "string", "nested", "bool", "nan"],
    )
    def test_constructor_names_the_outcome_of_a_bad_row(self, row, message):
        rows = DEFAULT_PAYOFF_TABLE.payoffs.tolist()
        rows[OUTCOMES.index("011")] = row
        with pytest.raises(ValueError, match=f"^{message}"):
            PayoffTable(rows)

    def test_table_requires_all_outcomes(self):
        mapping = dict(zip(OUTCOMES, DEFAULT_PAYOFF_TABLE.payoffs.tolist()))
        del mapping["111"]
        with pytest.raises(ValueError):
            PayoffTable.from_mapping(mapping)
        with pytest.raises(ValueError, match="exactly 8 outcome rows"):
            PayoffTable(DEFAULT_PAYOFF_TABLE.payoffs[:7])

    def test_table_round_trip(self):
        mapping = dict(zip(OUTCOMES, DEFAULT_PAYOFF_TABLE.payoffs.tolist()))
        table = PayoffTable.from_mapping(mapping)
        assert table.payoffs.tobytes() == DEFAULT_PAYOFF_TABLE.payoffs.tobytes()

    def test_custom_table_changes_payoffs(self):
        mapping = {o: [1.0, 1.0, 1.0] for o in OUTCOMES}
        flat = PayoffTable.from_mapping(mapping)
        got = expected_payoffs(
            GameConfig(0.3, 0.7, flat), *(StrategyParams(1.0, 0.5, -0.5),) * 3
        )
        assert got.as_tuple() == pytest.approx((1, 1, 1), abs=1e-12)

    @pytest.mark.parametrize(
        "layout",
        [np.ascontiguousarray, np.asfortranarray, lambda rows: rows[::3]],
        ids=["C", "Fortran", "strided"],
    )
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 1000, 8193])
    def test_expected_ignores_memory_layout(self, n, layout):
        # a BLAS product blocks by batch size and would give a row of a batch
        # other last bits than the same row alone; the contraction must not
        rng = np.random.default_rng(n)
        players = rng.uniform((0, -math.pi, -math.pi), (math.pi, math.pi, math.pi), (3, 3 * n, 3))
        probs = outcome_probabilities(*rng.uniform(0, HALF_PI, (2, 3 * n)), *players)
        batch = layout(probs)[:n]
        rows = [DEFAULT_PAYOFF_TABLE.expected(batch[i : i + 1]) for i in range(n)]
        assert DEFAULT_PAYOFF_TABLE.expected(batch).tobytes() == np.concatenate(rows).tobytes()


def test_tolerances_are_named_once():
    # every tolerance in the package is ATOL or PAYOFF_TOL, and payoffs are
    # compared within PAYOFF_TOL rather than rounded
    found = {
        (path.name, line.strip())
        for path in sorted(Path(qpd3.__file__).parent.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if re.search(r"1e-(9|12)|round\(", line)
    }
    assert found == {("game.py", "ATOL = 1e-12"), ("game.py", "PAYOFF_TOL = 1e-9")}


_MOVE = StrategyParams(0.1, 0.2, 0.3)
_CONFIG = GameConfig(HALF_PI, HALF_PI)


@pytest.mark.parametrize(
    "call,name,kind",
    [
        (lambda: expected_payoffs((0.1, 0.2), _MOVE, _MOVE, _MOVE), "config", "GameConfig"),
        (lambda: expected_payoffs(_CONFIG, (0.1, 0.2, 0.3), _MOVE, _MOVE), "pa", "StrategyParams"),
        (lambda: closed_form_payoffs(_CONFIG, _MOVE, (0.1,) * 3, _MOVE), "pb", "StrategyParams"),
        (lambda: max_entanglement_payoffs(_CONFIG, _MOVE, _MOVE, [0.1]), "pc", "StrategyParams"),
        (lambda: verify_nash((_MOVE,) * 3, _CONFIG, GridSpec()), "profile", "Profile"),
        (lambda: verify_nash(Profile(*(_MOVE,) * 3), _CONFIG, (2, 2, 2)), "grid", "GridSpec"),
        (lambda: Profile(_MOVE, _MOVE, (0.1, 0.2, 0.3)), "pc", "StrategyParams"),
        (lambda: information_bits({}), "table", "ProtocolTable"),
        (lambda: four_case_scan(dict), "table", "PayoffTable"),
    ],
    ids=["expected_payoffs", "expected_payoffs-move", "closed_form_payoffs",
         "max_entanglement_payoffs", "verify_nash", "verify_nash-grid", "Profile",
         "information_bits", "four_case_scan"],
)
def test_public_functions_name_the_argument_of_the_wrong_type(call, name, kind):
    # a tuple or mapping where a checked dataclass belongs is refused by name,
    # not left to fail later as an AttributeError
    with pytest.raises(ValueError, match=f"^{name} must be a {kind}, got "):
        call()


#: Every public name of the package; a new or removed export must update this.
PUBLIC_NAMES = """
    CODEWORDS COLUMNS ComparisonReport DEFAULT_PAYOFF_TABLE
    DecodeResult EquilibriumReport FourCaseScan GameConfig GridSpec InfoRelationReport
    MODELS OUTCOMES PayoffTable PayoffTriple Profile ProtocolTable
    REGIMES REGIME_FIXTURES StrategyParams __version__ closed_form_payoffs
    common_move compare_to_oracle decode expected_payoffs fixture_regime_tables
    fixture_table four_case_scan info_relation_report information_bits
    max_entanglement_payoffs moves oracle_regime_tables
    outcome_probabilities protocol_table sample_any sample_classical_limit
    sample_pure_moves verify_nash
""".split()


def test_public_surface_is_pinned():
    assert sorted(qpd3.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 39
    for name in PUBLIC_NAMES:
        getattr(qpd3, name)


def test_every_public_name_has_a_caller():
    # API that no caller uses is deleted: each exported name appears in a demo
    # or the README, or else in the package beyond its own definition, and a
    # name that is not a class must appear outside the module that defines
    # it (tests and the re-export in __init__.py do not count)
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(Path(qpd3.__file__).parent.glob("*.py"))
    }
    package = " ".join(text for file, text in sources.items() if file != "__init__.py")
    repo = Path(__file__).resolve().parent.parent
    shown = " ".join(
        path.read_text(encoding="utf-8")
        for path in sorted((repo / "demos").glob("*.py")) + [repo / "README.md"]
    )

    def count(name, text):
        return len(re.findall(rf"(?<!\w){re.escape(name)}(?!\w)", text))

    def called(name):
        if isinstance(getattr(qpd3, name), type):
            return count(name, package) >= 2
        pattern = rf"^(?:def {re.escape(name)}\b|{re.escape(name)}\s*[:=])"
        home = next(f for f, text in sources.items() if re.search(pattern, text, re.M))
        elsewhere = (text for f, text in sources.items() if f not in {home, "__init__.py"})
        return any(count(name, text) for text in elsewhere)

    unused = [name for name in qpd3.__all__ if not called(name) and count(name, shown) < 1]
    assert unused == []


#: Kernel code the density-matrix reference must not borrow.
KERNEL_NAMES = {
    "outcome_probabilities", "moves", "expected_payoffs", "_born", "_SIGNS", "_PLUS_FAMILY"
}

#: Decoder code the reference decoder and information metric must not borrow.
DECODER_NAMES = {"MODELS", "_visible", "CODEWORDS", "_matches"}


def test_reference_shares_no_code_with_the_kernel():
    # trace_rule_payoffs cross-checks the kernel only while it builds its own
    # moves, state and basis, and reference_decode the decoder only while it
    # picks its own visible payoffs; a kernel or decoder name imported or read
    # from qpd3 in conftest would make it check the package against itself
    tree = ast.parse((Path(__file__).parent / "conftest.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qpd3")
        for alias in node.names
    }
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted((imported | read) & (KERNEL_NAMES | DECODER_NAMES)) == []


def _package_uses(matches) -> set[tuple[str, str]]:
    """``(module, top-level definition)`` of every node under ``src/qpd3`` that
    ``matches``; code outside any definition counts as ``"<module>"``."""
    found = set()
    for path in sorted(Path(qpd3.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", "<module>")
            found |= {(path.name, owner) for node in ast.walk(top) if matches(node)}
    return found


def _named(node) -> str | None:
    return getattr(node, "id", getattr(node, "attr", None))


def test_the_born_rule_lives_in_one_function():
    # _born is the only reader of the basis signs and the only caller of
    # moves, and only the two entry points call it: no second copy of the
    # rule, and no path past outcome_probabilities' checks but the oracle's
    def calls(name):
        return lambda node: isinstance(node, ast.Call) and _named(node.func) == name

    def reads_signs(node):
        return isinstance(getattr(node, "ctx", None), ast.Load) and _named(node) == "_SIGNS"

    assert _package_uses(reads_signs) == {("game.py", "_born")}
    assert _package_uses(calls("moves")) == {("game.py", "_born")}
    assert _package_uses(calls("_born")) == {
        ("game.py", "outcome_probabilities"),
        ("game.py", "expected_payoffs"),
    }


_FAILING_GIVEN_TEST = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_a_failing_given_test_does_not_abort_the_run(tmp_path):
    # a failing @given test makes hypothesis write a patch, which imports
    # libcst and through it mypy_extensions; its DeprecationWarning must not
    # become, under filterwarnings = error, an INTERNALERROR (exit 3) that
    # stops the run before the other tests report
    (tmp_path / "test_throwaway.py").write_text(_FAILING_GIVEN_TEST, encoding="utf-8")
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         str(tmp_path / "test_throwaway.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
