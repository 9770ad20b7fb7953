import ast
import math
import re
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
    PayoffTable,
    StrategyParams,
    expected_payoffs,
    moves,
    outcome_probabilities,
)

from conftest import (
    classical_payoff,
    random_config,
    random_params,
    reference_basis,
    trace_rule_payoffs,
)

HALF_PI = math.pi / 2
IDENTITY = (0.0, 0.0, 0.0)


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
            want = DEFAULT_PAYOFF_TABLE.entries[bits]
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
        lo, hi = np.min(DEFAULT_PAYOFF_TABLE.entries), np.max(DEFAULT_PAYOFF_TABLE.entries)
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

    def test_columns_are_stored_read_only(self):
        # every caller shares the default table's columns, so none may write
        column = DEFAULT_PAYOFF_TABLE.column(1)
        with pytest.raises(ValueError):
            column[0] = 9.0
        assert column.tolist() == [3, 2, 5, 4, 2, 0, 4, 1]

    @pytest.mark.parametrize("player", ["B", 3, -1])
    def test_column_takes_only_a_player_index(self, player):
        with pytest.raises(ValueError, match="player index must be 0, 1 or 2"):
            DEFAULT_PAYOFF_TABLE.column(player)

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


#: Every public name of the package; a new or removed export must update this.
PUBLIC_NAMES = """
    CODEWORDS COLUMNS Codeword ComparisonReport DEFAULT_PAYOFF_TABLE
    DecodeResult EquilibriumReport FourCaseScan GameConfig GridSpec InfoRelationReport
    OUTCOMES ObservationModel PayoffTable PayoffTriple Profile ProtocolTable
    REGIMES REGIME_FIXTURES StrategyParams __version__ closed_form_payoffs
    common_move compare_to_oracle decode expected_payoffs fixture_regime_tables
    fixture_table four_case_scan info_relation_report information_bits
    max_entanglement_payoffs moves oracle_regime_tables
    outcome_probabilities protocol_table sample_any sample_classical_limit
    sample_pure_moves verify_nash
""".split()


def test_public_surface_is_pinned():
    assert sorted(qpd3.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 40
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
KERNEL_NAMES = {"outcome_probabilities", "moves", "expected_payoffs", "_SIGNS", "_PLUS_FAMILY"}


def test_reference_shares_no_code_with_the_kernel():
    # trace_rule_payoffs cross-checks the kernel only while it builds its own
    # moves, state and basis; a kernel name imported or read from qpd3 in
    # conftest would make it check the kernel against itself
    tree = ast.parse((Path(__file__).parent / "conftest.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qpd3")
        for alias in node.names
    }
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted((imported | read) & KERNEL_NAMES) == []
