import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import global_phase_sweep
from fibanyon import braid_space as bs
from fibanyon import noise_engine as ne
from fibanyon import robustness_lab as rob
from fibanyon._linalg import dagger, unitarity_defect

PHI = (1 + math.sqrt(5)) / 2


def env_sector(label: int) -> np.ndarray:
    """16x2 isometry onto ``|e>_E ⊗ logical qubit``, ``e`` the environment
    configuration with lexicographic index ``label``."""
    return np.kron(np.eye(4)[label][:, None], bs.logical_encoding())


def pair_block(letters) -> np.ndarray:
    """The created-pair block of the five-anyon word ``letters``, pairs
    ``(position, sign)`` in application order, a sign of -1 the inverse."""
    sector = env_sector(rob.ENV_PAIR_INDEX)
    u = np.eye(16, dtype=complex)
    for position, sign in letters:
        g = bs.build_generator(5, position)
        u = (g if sign > 0 else dagger(g)) @ u
    return dagger(sector) @ u @ sector


class TestScenarioOperator:
    @pytest.mark.parametrize("q", [1, 2])
    def test_unitary(self, q):
        assert unitarity_defect(rob.build_scenario_operator(q)) < 1e-10

    def test_monodromy_is_squared_exchange(self):
        crossing = rob.build_scenario_operator(1)
        np.testing.assert_allclose(
            rob.build_scenario_operator(2), crossing @ crossing, atol=1e-12
        )

    def test_built_from_five_anyon_generator(self):
        np.testing.assert_allclose(
            rob.build_scenario_operator(1), bs.build_generator(5, 2), atol=1e-15
        )

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValueError):
            rob.build_scenario_operator(3)


class TestExtractM:
    @pytest.mark.parametrize("q", [1, 2])
    def test_proportional_to_identity(self, q):
        result = rob.extract_M(q)
        assert result.proportionality_deviation < 1e-10

    def test_scenario_one_constants(self):
        # exchange followed by re-pairing: amplitude 1/phi, phase 4 pi/5
        result = rob.extract_M(1)
        assert abs(result.modulus - 1 / PHI) < 1e-12
        assert abs(result.theta - 4 * math.pi / 5) < 1e-12

    def test_scenario_two_constants(self):
        # full monodromy of a vacuum pair: amplitude 1/phi^2, phase pi
        result = rob.extract_M(2)
        assert abs(result.modulus - 1 / PHI**2) < 1e-12
        assert abs(abs(result.theta) - math.pi) < 1e-12

    @pytest.mark.parametrize("q", [1, 2])
    def test_matrix_invariants(self, q):
        m = rob.extract_M(q).matrix
        scale = np.linalg.norm(m)
        assert abs(m[0, 1]) < 1e-10 * scale
        assert abs(m[1, 0]) < 1e-10 * scale
        assert abs(m[0, 0] - m[1, 1]) < 1e-10 * scale

    def test_negative_control_other_environment_vanishes(self):
        # projecting the output environment onto |01>_E instead: the block
        # vanishes (recorded as the zero-norm flag), so no proportionality
        # statement is asserted there
        m = dagger(env_sector(1)) @ rob.build_scenario_operator(1) @ env_sector(rob.ENV_PAIR_INDEX)
        assert np.abs(m).max() < 1e-12
        with pytest.raises(ValueError, match="vanishes"):
            rob._result_from_matrix(1, m)

    def test_deterministic(self):
        a, b = rob.extract_M(2), rob.extract_M(2)
        assert a.theta == b.theta
        np.testing.assert_array_equal(a.matrix, b.matrix)


class TestGlobalPhase:
    @pytest.mark.parametrize("q", [1, 2])
    def test_random_states_preserved_up_to_phase(self, q):
        m = rob.extract_M(q).matrix
        rng = np.random.Generator(np.random.Philox(key=[7, q]))
        worst, spread, _ = global_phase_sweep(m, 20, rng)
        assert worst < 1e-9
        assert spread < 1e-9
        # the block is what a state sees: braid (a|0_L> + b|1_L>)|10>_E, then
        # project the environment back onto the created pair
        sector = np.kron(np.eye(4)[rob.ENV_PAIR_INDEX][:, None], bs.logical_encoding())
        op = rob.build_scenario_operator(q)
        for a, b in rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2)):
            psi = np.array([a, b]) / np.linalg.norm([a, b])
            out = op @ rob.logical_environment_state(a, b)
            np.testing.assert_allclose(sector.conj().T @ out, m @ psi, rtol=0, atol=1e-12)

    def test_basis_state_trivial_case(self):
        out = rob.build_scenario_operator(1) @ rob.logical_environment_state(1.0, 0.0)
        iso = bs.logical_encoding()
        target = np.kron(np.eye(4, dtype=complex)[rob.ENV_PAIR_INDEX], iso[:, 0])
        overlap = np.vdot(target, out)
        assert abs(abs(overlap) - 1 / PHI) < 1e-12

    def test_phase_matches_extracted_constant(self):
        for q in (1, 2):
            result = rob.extract_M(q)
            rng = np.random.Generator(np.random.Philox(key=[7, q]))
            _, _, theta = global_phase_sweep(result.matrix, 5, rng)
            assert abs(((theta - result.theta) + math.pi) % (2 * math.pi) - math.pi) < 1e-9


class TestNoisyReconstruction:
    @pytest.mark.parametrize("q", [1, 2])
    def test_proportionality_within_loose_tolerance(self, q):
        result = rob.extract_M_noisy(q)
        assert result.proportionality_deviation < 0.1

    def test_modulus_close_to_exact(self):
        noisy = rob.extract_M_noisy(1)
        exact = rob.extract_M(1)
        assert abs(noisy.modulus - exact.modulus) < 0.05

    def test_weak_noise_approaches_exact_block(self, monkeypatch):
        monkeypatch.setattr(rob, "SCENARIO_T2", (50.0, 50.0, 50.0, 50.0))
        result = rob.extract_M_noisy(1)
        assert result.proportionality_deviation < 1e-3

    @given(
        q=st.sampled_from(rob.SCENARIOS),
        t2=st.tuples(*[st.floats(1e-3, 1e3)] * 4),
        duration=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_dephased_scenario_states_stay_positive(self, q, t2, duration):
        # why extract_M_noisy needs no positivity repair: a rotated pure state
        # stays positive under the Schur product with the dephasing factors
        op = rob.build_scenario_operator(q)
        factors = ne.dephasing_factors(tuple(1.0 / t for t in t2), duration)
        for a, b in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
            out = op @ rob.logical_environment_state(a, b)
            rho = factors * np.outer(out, out.conj())
            assert np.linalg.eigvalsh(rho).min() >= -1e-12
            assert abs(np.trace(rho) - 1.0) < 1e-12


class TestProtectionOverPairWords:
    """Every local process of the thermal pair, not only the two scenarios:
    any word over the pair's own generators (positions 1 and 2) acts on the
    created-pair sector as a global phase times a post-selection amplitude."""

    @given(st.lists(st.tuples(st.sampled_from((1, 2)), st.sampled_from((1, -1))), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_block_proportional_to_identity(self, letters):
        m = pair_block(letters)
        c = m[0, 0]
        assert abs(c) > 1e-12
        assert np.abs(m / c - np.eye(2)).max() < 1e-12

    def test_negative_control_through_tracked_generator(self):
        # words that also braid a tracked anyon (position 3) leave the block
        # proportional to the identity only by accident, so the check above
        # has power: it fails if the pair's generator positions are wrong
        rng = np.random.Generator(np.random.Philox(key=[10, 3]))
        deviations = []
        for _ in range(40):
            n = int(rng.integers(1, 13))
            positions = rng.integers(1, 4, size=n)
            positions[rng.integers(n)] = 3
            m = pair_block(zip(positions.tolist(), rng.choice((1, -1), size=n).tolist()))
            deviations.append(np.abs(m - m[0, 0] * np.eye(2)).max())
        assert max(deviations) > 1e-9
