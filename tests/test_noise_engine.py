import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibanyon import benchmark_suite as bench
from fibanyon import braid_compiler as bc
from fibanyon import braid_space as bs
from fibanyon import noise_engine as ne
from fibanyon._linalg import phase_aligned_defect

SWAP = np.array([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
], dtype=complex)


def pure_state(vector) -> ne.DensityMatrix:
    """The projector onto ``vector``, normalized."""
    vector = np.asarray(vector, dtype=complex)
    vector = vector / np.linalg.norm(vector)
    return ne.DensityMatrix(np.outer(vector, vector.conj()))


def plus_zero_state() -> ne.DensityMatrix:
    """Qubit 0 in |+>, qubit 1 in |0>."""
    return pure_state(np.kron(np.array([1, 1]) / math.sqrt(2), np.array([1, 0])))


def purity(rho: ne.DensityMatrix) -> float:
    """Plain purity tr(rho^2)."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


class TestDensityMatrix:
    def test_pure_and_mixed_constructors(self):
        pure = pure_state([1, 1j])
        np.testing.assert_allclose(pure.matrix, [[0.5, -0.5j], [0.5j, 0.5]], atol=1e-15)
        assert abs(purity(pure) - 1.0) < 1e-12
        assert abs(purity(ne.DensityMatrix(np.eye(4) / 4)) - 0.25) < 1e-12

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError):
            ne.DensityMatrix(bad)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError):
            ne.DensityMatrix(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            ne.DensityMatrix(bad)


class TestDephasing:
    def test_plus_state_analytic_decay(self):
        t2, dt = 0.15, 0.02
        rho = plus_zero_state()
        out = ne.apply_dephasing(rho, (1.0 / t2, 0.0), dt)
        # |+0><+0| off-diagonal between |00> and |10> decays as exp(-dt/T2)
        assert abs(out.matrix[0, 2] - 0.5 * math.exp(-dt / t2)) < 1e-12

    def test_diagonal_state_unchanged(self):
        rho = ne.DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        out = ne.apply_dephasing(rho, (5.0, 9.0), 0.1)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_two_qubit_coherence_uses_summed_rates(self):
        t2_a, t2_b, dt = 0.2, 0.5, 0.03
        bell = pure_state(np.array([1, 0, 0, 1]) / math.sqrt(2))
        out = ne.apply_dephasing(bell, (1 / t2_a, 1 / t2_b), dt)
        expected = 0.5 * math.exp(-dt * (1 / t2_a + 1 / t2_b))
        assert abs(out.matrix[0, 3] - expected) < 1e-14

    def test_purity_never_increases(self):
        rho = plus_zero_state()
        previous = purity(rho)
        for _ in range(5):
            rho = ne.apply_dephasing(rho, (4.0, 2.0), 0.01)
            current = purity(rho)
            assert current <= previous + 1e-12
            previous = current

    def test_purity_strictly_decreases_with_coherences(self):
        rho = plus_zero_state()
        out = ne.apply_dephasing(rho, (3.0, 0.0), 0.05)
        assert purity(out) < purity(rho) - 1e-6

    def test_nonphysical_noise_rejected(self):
        with pytest.raises(ValueError):
            ne.NoiseModel(t2=(-1.0, None))
        with pytest.raises(ValueError):
            ne.NoiseModel(depolarizing_prob=1.5)
        with pytest.raises(ValueError):
            ne.NoiseModel(over_rotation_axis="w")

    @pytest.mark.parametrize("kwargs", [
        {"t2": (math.nan, 0.5)},
        {"t2": (0.5, math.inf)},
        {"t2": (0.5, "0.5")},
        {"t2": (True, 0.5)},
        {"t2": (0.5,)},
        {"t2": (0.5, 0.5, 0.5)},
        {"braiding_step": math.nan},
        {"clifford_duration": -1e-3},
        {"over_rotation_angle": math.inf},
        {"depolarizing_prob": True},
        {"depolarizing_prob": "0.1"},
        {"depolarizing_prob": math.nan},
        {"over_rotation_axis": ["x"]},
        # 1/T2 overflows, and an infinite rate times a zero duration is NaN
        {"t2": (5e-324, 1.0)},
        {"t2": (1e-308, 1e-308)},
    ])
    def test_malformed_noise_rejected(self, kwargs):
        # a NaN T2 would otherwise simulate to a NaN fidelity without error
        with pytest.raises(ValueError):
            ne.NoiseModel(**kwargs)


def dephasing_factors_loop(rates, dt):
    """Reference definition of :func:`ne.dephasing_factors`, entry by entry."""
    n = len(rates)
    dim = 2**n
    factors = np.ones((dim, dim))
    for a in range(dim):
        for b in range(dim):
            diff = a ^ b
            gamma = sum(rates[q] for q in range(n) if (diff >> (n - 1 - q)) & 1)
            factors[a, b] = math.exp(-dt * gamma)
    return factors


rate_values = st.floats(0.0, 50.0)


class TestDephasingForms:
    @given(st.lists(rate_values, min_size=1, max_size=4), st.floats(0.0, 0.1))
    @settings(max_examples=40, deadline=None)
    def test_factors_match_loop_definition(self, rates, dt):
        np.testing.assert_allclose(
            ne.dephasing_factors(rates, dt), dephasing_factors_loop(rates, dt), rtol=1e-14, atol=0
        )

    @given(st.tuples(rate_values, rate_values), st.floats(0.0, 0.1))
    @settings(max_examples=20, deadline=None)
    def test_pauli_diagonal_matches_tomography(self, rates, dt):
        channel = lambda rho: ne.apply_dephasing(ne.DensityMatrix(rho), rates, dt).matrix
        expected = bench.qpt(channel, 4).matrix
        np.testing.assert_allclose(
            np.diag(np.exp(-dt * ne.pauli_dephasing_rates(rates))), expected, atol=1e-14
        )


def stepped_gate(rho, unitary, duration, noise):
    """Reference simulation of one noisy gate on validated density matrices:
    the unitary, then dephasing over ``duration``, then depolarizing."""
    rho = ne.DensityMatrix(unitary @ rho.matrix @ unitary.conj().T)
    rho = ne.apply_dephasing(rho, noise.rates(), duration)
    p = noise.depolarizing_prob
    return ne.DensityMatrix((1 - p) * rho.matrix + p * np.eye(rho.dim) / rho.dim)


def stepped_word_state(word, noise, rho):
    """Reference simulation of a braid word, letter by letter."""
    for letter in word.letters:
        u = np.linalg.matrix_power(bs.sigma(letter.generator), letter.power)
        rho = stepped_gate(rho, u, ne.letter_duration(letter, noise), noise)
    return rho.matrix


def stepped_clifford_noise(noise, rho):
    """Reference simulation of the noise after one Clifford pulse: a noisy
    identity gate over the pulse duration, then the encoded over-rotation."""
    rho = stepped_gate(rho, np.eye(4), noise.clifford_duration, noise)
    u = bs.logical_extension(ne.over_rotation_unitary(noise.over_rotation_axis,
                                                      noise.over_rotation_angle))
    return ne.DensityMatrix(u @ rho.matrix @ u.conj().T).matrix


@st.composite
def canonical_words(draw, max_letters=12, min_letters=0):
    powers = draw(st.lists(st.sampled_from(bc.SEARCH_POWERS), min_size=min_letters,
                           max_size=max_letters))
    first, second = draw(st.sampled_from(((12, 23), (23, 12))))
    gens = [(first, second)[i % 2] for i in range(len(powers))]
    return bc.BraidWord(tuple(bc.BraidLetter(g, p) for g, p in zip(gens, powers)))


t2_entries = st.one_of(st.none(), st.floats(0.01, 10.0))


@st.composite
def noise_models(draw):
    return ne.NoiseModel(
        t2=(draw(t2_entries), draw(t2_entries)),
        braiding_step=draw(st.floats(1e-4, 1e-2)),
        depolarizing_prob=draw(st.sampled_from((0.0, 0.01, 0.2))),
    )


class TestWordTransferMap:
    @given(canonical_words(), noise_models(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_stepped_simulation(self, word, noise, seed):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 5], dtype=np.uint64)))
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        mixture = rng.uniform()
        rho = ne.DensityMatrix(
            mixture * np.outer(vec, vec.conj()) / np.vdot(vec, vec).real
            + (1 - mixture) * np.eye(4) / 4
        )
        expected = stepped_word_state(word, noise, rho)
        ptm = ne.word_ptm(word, noise)
        np.testing.assert_allclose(ptm.apply(rho.matrix), expected, atol=1e-12)
        np.testing.assert_allclose(ne.word_channel(word, noise)(rho.matrix), expected, atol=1e-12)

    @given(noise_models(), st.floats(0.0, 0.02), st.floats(-0.3, 0.3), st.sampled_from("xyz"))
    @settings(max_examples=30, deadline=None)
    def test_clifford_noise_matches_tomography(self, noise, duration, angle, axis):
        noise = dataclasses.replace(noise, clifford_duration=duration,
                                    over_rotation_angle=angle, over_rotation_axis=axis)
        expected = bench.qpt(lambda rho: stepped_clifford_noise(noise, ne.DensityMatrix(rho)), 4)
        np.testing.assert_allclose(ne.clifford_noise_ptm(noise, 4).matrix, expected.matrix,
                                   rtol=0, atol=1e-14)

    @given(noise_models(), st.sampled_from((0.0, 5e-3)) | st.floats(0.0, 0.02),
           st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0),
           st.sampled_from((0.0,)) | st.floats(-0.3, 0.3), st.sampled_from("xyz"))
    @settings(max_examples=200, deadline=None)
    def test_logical_clifford_noise_matches_composed_channels(self, noise, duration, prob, angle, axis):
        noise = dataclasses.replace(noise, clifford_duration=duration, depolarizing_prob=prob,
                                    over_rotation_angle=angle, over_rotation_axis=axis)
        # the channels one after another: summed-rate dephasing, depolarizing, over-rotation
        expected = bench.identity_ptm(2)
        if any(noise.rates()):
            decay = float(np.exp(-duration * sum(noise.rates())))
            expected = bench.dephasing_ptm(decay).compose(expected)
        if prob:
            expected = bench.depolarizing_ptm(2, prob).compose(expected)
        if angle:
            expected = bench.ptm_of_unitary(ne.over_rotation_unitary(axis, angle)).compose(expected)
        np.testing.assert_array_equal(ne.clifford_noise_ptm(noise, 2).matrix, expected.matrix)

    @pytest.mark.parametrize("t2", [(None, None), (1.0, None), (0.5, 2.0)])
    def test_overflowing_duration_keeps_zero_rates_exact(self, t2):
        # a power-4 letter at a 1e308 step lasts inf: the strings with rate 0
        # keep factor 1 and the others decay to 0, with no NaN from inf * 0
        noise = ne.NoiseModel(t2=t2, braiding_step=1e308)
        ptm = ne.word_ptm(bc.BraidWord.from_letters([(12, 4)]), noise)
        ideal = bench.ptm_of_unitary(np.linalg.matrix_power(bs.sigma(12), 4)).matrix
        decaying = ne.pauli_dephasing_rates(noise.rates()) > 0
        np.testing.assert_array_equal(ptm.matrix, np.where(decaying[:, None], 0.0, ideal))

    def test_clifford_noise_needs_a_register_dimension(self):
        with pytest.raises(ValueError, match="dimension 2 or 4"):
            ne.clifford_noise_ptm(ne.NoiseModel(), 8)

    def test_empty_word_is_identity(self):
        ptm = ne.word_ptm(bc.BraidWord(()), ne.NoiseModel(t2=(0.1, 0.1), depolarizing_prob=0.5))
        np.testing.assert_array_equal(ptm.matrix, np.eye(16))

    def test_channel_validates_input_state(self):
        channel = ne.word_channel(bc.hadamard_word(), ne.NoiseModel(t2=(1.0, 1.0)))
        with pytest.raises(ValueError):
            channel(np.eye(4))


class TestNoiseModelSerialization:
    def test_round_trip(self, tmp_path):
        noise = ne.NoiseModel(t2=(0.3, 1.2), depolarizing_prob=0.01)
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(dataclasses.asdict(noise)))
        loaded = ne.NoiseModel.from_json(path)
        assert loaded == noise

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "noise.json"
        # a misspelt key would otherwise load as a noiseless model
        path.write_text(json.dumps({"t2": [0.5, 0.5], "depolarising_prob": 0.3, "T2": [1, 1]}))
        with pytest.raises(ValueError, match="unknown noise model keys: T2, depolarising_prob"):
            ne.NoiseModel.from_json(path)


class TestCircuitDecomposition:
    @pytest.mark.parametrize("generator,power", [(12, 2), (12, -2), (23, 2), (23, -2)])
    def test_reproduces_braiding_operation(self, generator, power):
        circuit = ne.decompose_braiding(generator, power)
        target = np.linalg.matrix_power(bs.sigma(generator), power)
        assert phase_aligned_defect(circuit.compose(), target) < 1e-10

    @pytest.mark.parametrize("generator,power", [(12, 2), (12, -2), (23, 2), (23, -2)])
    def test_two_cnots_and_rotations_only(self, generator, power):
        circuit = ne.decompose_braiding(generator, power)
        assert sum(isinstance(g, ne.CNOT) for g in circuit.gates) == 2
        assert all(isinstance(g, (ne.CNOT, ne.Rotation)) for g in circuit.gates)

    def test_sigma23_is_qubit_swapped_sigma12(self):
        c12 = ne.decompose_braiding(12, 2)
        c23 = ne.decompose_braiding(23, 2)
        for g12, g23 in zip(c12.gates, c23.gates):
            if isinstance(g12, ne.CNOT):
                assert g23 == ne.CNOT(control=1 - g12.control, target=1 - g12.target)
            else:
                assert (g23.qubit, g23.axis) == (1 - g12.qubit, g12.axis)
                assert abs(g23.angle - g12.angle) < 1e-12
        # equivalently: conjugation by SWAP maps one composition to the other
        np.testing.assert_allclose(
            SWAP @ c12.compose() @ SWAP, c23.compose(), atol=1e-12
        )

    def test_inverse_pair_composes_to_identity(self):
        forward = ne.decompose_braiding(12, 2).compose()
        backward = ne.decompose_braiding(12, -2).compose()
        assert phase_aligned_defect(backward @ forward, np.eye(4)) < 1e-10

    def test_unsupported_operation_rejected(self):
        with pytest.raises(ValueError):
            ne.decompose_braiding(12, 3)
        with pytest.raises(ValueError):
            ne.decompose_braiding(14, 2)


class TestGateFidelity:
    def test_noiseless_word_has_unit_fidelity(self):
        fidelity = ne.predict_gate_fidelity(bc.hadamard_word(), ne.NoiseModel())
        assert abs(fidelity - 1.0) < 1e-10

    def test_hadamard_word_duration(self):
        noise = ne.NoiseModel()
        total = sum(ne.letter_duration(l, noise) for l in bc.hadamard_word().letters)
        assert abs(total - 30e-3) < 1e-12

    @given(st.sampled_from([12, 23]), st.integers(-64, 64).filter(bool),
           st.floats(min_value=2 * sys.float_info.min, max_value=sys.float_info.max))
    @example(12, 2, ne.BRAIDING_STEP_SECONDS)
    @example(23, -4, ne.BRAIDING_STEP_SECONDS)
    @settings(max_examples=300, deadline=None)
    def test_duration_bit_identical_to_product_then_halving(self, generator, power, step):
        # halving a normal step above 2 * float min is exact, so wherever the
        # product of power and step is finite the two orders round alike
        product = abs(power) * step
        if not math.isfinite(product):
            return
        duration = ne.letter_duration(bc.BraidLetter(generator, power), ne.NoiseModel(braiding_step=step))
        assert duration == product / 2.0

    def test_duration_finite_at_the_largest_step(self):
        noise = ne.NoiseModel(braiding_step=sys.float_info.max)
        assert all(math.isfinite(ne.letter_duration(letter, noise))
                   for letter in bc.hadamard_word().letters)

    def test_fidelity_monotone_in_duration(self):
        word = bc.hadamard_word()
        fidelities = [
            ne.predict_gate_fidelity(word, ne.NoiseModel(t2=(0.5, 0.5), braiding_step=step))
            for step in (0.5e-3, 1e-3, 2e-3, 4e-3, 8e-3)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(fidelities, fidelities[1:]))

    def test_purity_monotone_along_word_simulation(self):
        noise = ne.NoiseModel(t2=(0.2, 0.4))
        start = pure_state(bs.logical_encoding()[:, 0])
        letters = bc.hadamard_word().letters
        last = purity(start)
        for n in range(1, len(letters) + 1):
            rho = ne.word_ptm(bc.BraidWord(letters[:n]), noise).apply(start.matrix)
            current = float(np.trace(rho @ rho).real)
            assert current <= last + 1e-12
            last = current
        assert last < purity(start) - 1e-3


class TestCalibration:
    def test_intrinsic_dephasing_target(self):
        cal = ne.calibrate_t2(bc.hadamard_word(), 0.9823)
        assert abs(cal.fidelity - 0.9823) < 5e-4
        assert cal.t2 > 0

    def test_inhomogeneous_dephasing_target(self):
        cal = ne.calibrate_t2(bc.hadamard_word(), 0.9463)
        assert abs(cal.fidelity - 0.9463) < 5e-4

    def test_unbracketed_target_rejected(self):
        # above the fidelity at the T2_BOUNDS upper end
        with pytest.raises(ne.UnbracketedTargetError):
            ne.calibrate_t2(bc.hadamard_word(), 0.99999)

    @pytest.mark.parametrize("target", [math.inf, -math.inf, -0.5])
    def test_out_of_range_target_rejected(self, target):
        with pytest.raises(ne.UnbracketedTargetError):
            ne.calibrate_t2(bc.hadamard_word(), target)

    def test_nan_target_rejected_before_evaluation(self, monkeypatch):
        def no_evaluation(*args):
            raise AssertionError("the word was simulated")

        monkeypatch.setattr(ne, "_compose", no_evaluation)
        with pytest.raises(ValueError, match="target fidelity nan") as info:
            ne.calibrate_t2(bc.hadamard_word(), math.nan)
        assert type(info.value) is ValueError

    @given(
        st.one_of(st.just(bc.hadamard_word()), canonical_words(max_letters=15, min_letters=1)),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=40, deadline=None)
    def test_reaches_target_and_matches_tomography(self, word, position):
        # the bracket ends come from the tomographic reference
        low, high = (ne.predict_gate_fidelity(word, ne.NoiseModel(t2=(t2, t2)))
                     for t2 in ne.T2_BOUNDS)
        target = low + position * (high - low)
        cal = ne.calibrate_t2(word, target)
        assert abs(cal.fidelity - target) < 1e-9
        reference = ne.predict_gate_fidelity(word, ne.NoiseModel(t2=(cal.t2, cal.t2)))
        assert abs(cal.fidelity - reference) < 1e-12

    @given(
        st.one_of(st.just(bc.hadamard_word()), canonical_words(max_letters=15, min_letters=1)),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=40, deadline=None)
    def test_root_matches_scipy_brentq(self, word, position):
        from scipy.optimize import brentq

        fidelity = ne._t2_fidelity(word)
        lo, hi = (math.log(t2) for t2 in ne.T2_BOUNDS)
        low, high = fidelity(math.exp(lo)), fidelity(math.exp(hi))
        target = low + position * (high - low)

        def gap(log_t2):
            return fidelity(math.exp(log_t2)) - target

        reference = math.exp(brentq(gap, lo, hi, xtol=1e-12, rtol=1e-12))
        cal = ne.calibrate_t2(word, target)
        assert abs(cal.t2 - reference) <= 1e-10 * reference
        assert abs(cal.fidelity - fidelity(cal.t2)) <= 2**-52

    @pytest.mark.parametrize("end", [0, 1])
    def test_endpoint_target_returns_endpoint(self, end):
        word = bc.hadamard_word()
        t2 = math.exp(math.log(ne.T2_BOUNDS[end]))  # the search runs on log T2
        target = ne._t2_fidelity(word)(t2)
        cal = ne.calibrate_t2(word, target)
        assert (cal.t2, cal.fidelity) == (t2, target)

    def test_calibrate_command_does_not_load_scipy(self, tmp_path):
        # nor does any other subcommand: scipy is a test dependency only
        commands = cli_commands(tmp_path)
        assert modules_after_each(commands, "scipy") == [[] for _ in commands]

    def test_no_command_loads_numpy_random(self, tmp_path):
        # the protocols and verify compute Philox in numpy; only rng_for,
        # which no command reaches, imports numpy.random
        commands = cli_commands(tmp_path)
        assert modules_after_each(commands, "numpy.random") == [[] for _ in commands]

    def test_tomography_does_not_load_numpy_random(self):
        # qpt probes linearity with fixed closed-form states
        statements = ["from fibanyon import benchmark_suite as bench, braid_compiler as bc, noise_engine as ne",
                      "bench.qpt(lambda rho: rho, 2)",
                      "ne.predict_gate_fidelity(bc.hadamard_word(), ne.NoiseModel(t2=(0.4, 0.4)))"]
        assert modules_after_each(statements, "numpy.random") == [[] for _ in statements]


def cli_commands(tmp_path):
    """Every subcommand, and rb and pb in both spaces, writing under
    ``tmp_path``, as statements for :func:`modules_after_each`."""
    commands = ["calibrate", f"benchmark --protocol qpt --space ps --out {tmp_path}",
                "verify", "compile --hadamard", "robustness --q 1",
                f"dump-matrices --out {tmp_path / 'matrices'}"]
    commands += [f"benchmark --protocol {protocol} --space {space} --out {tmp_path / protocol / space}"
                 + (" --interleave-hadamard" if protocol == "rb" else "")
                 for protocol in ("rb", "pb") for space in ("ls", "ps")]
    return [f"assert cli.main({command.split()!r}) == 0" for command in commands]


def modules_after_each(statements, package):
    """Run the Python statements in order in one fresh process that has
    imported ``fibanyon.cli`` as ``cli``; for each, the loaded modules of
    ``package`` (a dotted name) once it has run."""
    script = ("import json, sys\n"
              "from fibanyon import cli\n"
              "package = sys.argv[1]\n"
              "for statement in sys.argv[2:]:\n"
              "    exec(statement)\n"
              "    loaded = sorted(m for m in sys.modules if (m + '.').startswith(package + '.'))\n"
              "    print('after', json.dumps(loaded))\n")
    path = [str(Path(ne.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", script, package, *statements], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return [json.loads(line[len("after "):]) for line in done.stdout.splitlines()
            if line.startswith("after ")]


# A canonical word whose fidelity falls about 1.5e-4 below its value at
# T2_BOUNDS[0], to a minimum near T2 = 2.07 ms, and is back above it by 3 ms.
DIPPING = bc.BraidWord.from_letters([(23, 2), (12, 3), (23, -4), (12, -4), (23, -2), (12, -1),
                                     (23, 2), (12, 4), (23, 3), (12, -1), (23, -4), (12, -4)])

LOW_T2 = math.exp(math.log(ne.T2_BOUNDS[0]))  # the search runs on log T2
HIGH_T2 = math.exp(math.log(ne.T2_BOUNDS[1]))


def word_duration(word: bc.BraidWord) -> float:
    return word.crossing_count * ne.BRAIDING_STEP_SECONDS / 2


class TestCalibrationBracket:
    @given(st.one_of(st.just(bc.hadamard_word()), st.just(DIPPING),
                     canonical_words(max_letters=15, min_letters=1)))
    @settings(max_examples=40, deadline=None)
    def test_fidelity_monotone_above_threshold(self, word):
        # above T2 = tau / MONOTONE_EXPONENT the fidelity never falls, and it
        # is at least its value at every shorter T2 in the bracket
        fidelity = ne._t2_fidelity(word)
        grid = np.geomspace(LOW_T2, HIGH_T2, 400)
        values = np.array([fidelity(t2) for t2 in grid])
        above = grid >= word_duration(word) / ne.MONOTONE_EXPONENT
        assert np.all(values[above] >= np.maximum.accumulate(values)[above] - 1e-15)

    def test_hadamard_word_monotone_over_bracket(self):
        fidelity = ne._t2_fidelity(bc.hadamard_word())
        values = [fidelity(t2) for t2 in np.geomspace(LOW_T2, HIGH_T2, 400)]
        assert min(np.diff(values)) > 0

    @given(canonical_words(max_letters=15, min_letters=1))
    @settings(max_examples=40, deadline=None)
    def test_fidelity_slope_at_zero_dephasing(self, word):
        # dF/d(1/T2) at 1/T2 = 0 is -(4/5) tau: only each letter's generator trace counts
        tau = word_duration(word)
        rate = 1e-6 / tau
        slope = (ne._t2_fidelity(word)(1 / rate) - 1) / rate
        assert slope == pytest.approx(-0.8 * tau, rel=1e-5)

    @pytest.mark.parametrize("below", [1.4e-4, 5e-5, 3e-5, 1.4e-5, 5e-6])
    def test_dip_below_lower_bound_fidelity_is_unbracketed(self, below):
        # roots lie inside the dip, between 1 ms and 3 ms, but the target is
        # below the fidelity at the lower bound: unbracketed, as with a search
        # that starts from the whole bracket
        fidelity = ne._t2_fidelity(DIPPING)
        target = fidelity(LOW_T2) - below
        assert fidelity(2.07e-3) < target
        with pytest.raises(ne.UnbracketedTargetError):
            ne.calibrate_t2(DIPPING, target)

    def test_target_above_dip_is_reached(self):
        target = ne._t2_fidelity(DIPPING)(LOW_T2) + 1e-5
        cal = ne.calibrate_t2(DIPPING, target)
        assert abs(cal.fidelity - target) < 1e-12
        assert 2.07e-3 < cal.t2 < 4e-3

    @given(st.one_of(st.just(bc.hadamard_word()), st.just(DIPPING),
                     canonical_words(max_letters=15, min_letters=1)),
           st.sampled_from([LOW_T2, HIGH_T2]), st.floats(-1e-4, 1e-4))
    @settings(max_examples=60, deadline=None)
    def test_unbracketed_exactly_outside_bound_fidelities(self, word, t2, offset):
        fidelity = ne._t2_fidelity(word)
        target = fidelity(t2) + offset
        if fidelity(LOW_T2) > target or fidelity(HIGH_T2) < target:
            with pytest.raises(ne.UnbracketedTargetError):
                ne.calibrate_t2(word, target)
        else:
            cal = ne.calibrate_t2(word, target)
            assert abs(cal.fidelity - target) < 1e-9
            assert LOW_T2 <= cal.t2 <= HIGH_T2

    def test_empty_word(self):
        # no crossings: the fidelity is 1 at every T2
        word = bc.empty_word()
        cal = ne.calibrate_t2(word, 1.0)
        assert cal.fidelity == 1.0 and LOW_T2 <= cal.t2 <= HIGH_T2
        for target in (0.99, 1.0 + 1e-12):
            with pytest.raises(ne.UnbracketedTargetError):
                ne.calibrate_t2(word, target)

    @given(st.one_of(st.just(bc.hadamard_word()), canonical_words(max_letters=15, min_letters=1)),
           st.floats(0.90, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_evaluation_budget(self, word, target):
        compose = ne._compose
        calls = []

        def counted(letters):
            calls.append(len(letters))
            return compose(letters)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ne, "_compose", counted)
            cal = ne.calibrate_t2(word, target)
        assert abs(cal.fidelity - target) < 1e-9
        assert len(calls) - 1 <= 5  # one product is the ideal map

    @given(st.one_of(st.just(bc.hadamard_word()), st.just(DIPPING),
                     canonical_words(max_letters=15, min_letters=1)),
           st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_residual_has_sign_of_gap(self, word, position):
        # Brent runs on the log-exponent residual, so at every evaluated point
        # it must bracket as F - target does; it is zero also where F and the
        # target round to the same process fidelity, within an ulp of each other
        fidelity = ne._t2_fidelity(word)
        low, high = fidelity(LOW_T2), fidelity(HIGH_T2)
        target = low + position * (high - low)
        evaluated = []

        def recording(word):
            def evaluate(t2):
                evaluated.append(fidelity(t2))
                return evaluated[-1]
            return evaluate

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ne, "_t2_fidelity", recording)
            ne.calibrate_t2(word, target)
        log_target = ne._log_exponent(target)
        for value in evaluated:
            residual, gap = log_target - ne._log_exponent(value), value - target
            assert np.sign(residual) == np.sign(gap) or (residual == 0 and abs(gap) <= 2**-52)


def letter_block(generator, power):
    """A letter's ideal transfer matrix and unit dephasing exponents, built
    on their own, as each letter's cached block held them."""
    u = bc.letter_matrix("physical4", generator, power)
    duration = abs(power) * (ne.BRAIDING_STEP_SECONDS / 2.0)
    return bench.ptm_of_unitary(u).matrix, -duration * ne.pauli_dephasing_rates((1.0, 1.0))[:, None]


any_powers = st.sampled_from(bc.SEARCH_POWERS) | st.integers(-40, 40).filter(bool) | st.integers(-10**9, 10**9).filter(bool)


class TestLetterTable:
    @given(st.lists(st.tuples(st.sampled_from([12, 23]), any_powers), max_size=24))
    @example([])
    @example([(12, 2)] * 3 + [(23, -2)])
    @example([(12 if p % 2 else 23, p) for p in range(1, 80)])  # more distinct letters than rows
    @settings(max_examples=150, deadline=None)
    def test_gathered_stack_is_the_per_letter_stack(self, letters):
        word = bc.BraidWord.from_letters(letters)
        blocks = [letter_block(g, p) for g, p in letters]
        stack, exponents = ne._word_terms(word)
        assert stack.shape == (len(letters), 16, 16) and exponents.shape == (len(letters), 16, 1)
        if letters:
            np.testing.assert_array_equal(stack, np.stack([ideal for ideal, _ in blocks]))
            np.testing.assert_array_equal(exponents, np.stack([rates for _, rates in blocks]))
        noise = ne.NoiseModel(t2=(0.3, 0.7), depolarizing_prob=0.01)
        durations = np.array([ne.letter_duration(letter, noise) for letter in word.letters])
        scaling = ne._noise_diagonal(noise, durations.reshape(-1, 1))[..., None]
        np.testing.assert_array_equal(ne.word_ptm(word, noise).matrix, ne._compose(scaling * stack))

    def test_stays_within_64_rows(self):
        for power in range(1, 1001):
            word = bc.BraidWord.from_letters([(12, power), (23, -power)])
            stack, _ = ne._word_terms(word)
            row, ideal, exponents = ne._LETTERS.state
            assert len(row) <= 64 and len(ideal) == len(exponents) == 64
        np.testing.assert_array_equal(stack[1], letter_block(23, -1000)[0])
        big = bc.BraidWord.from_letters([(12, p) for p in range(1, 101)])
        np.testing.assert_array_equal(ne._word_terms(big)[0][-1], letter_block(12, 100)[0])
        row, ideal, _ = ne._LETTERS.state
        assert len(row) <= 64 and len(ideal) == 64

    def test_read_only(self):
        ne._word_terms(bc.hadamard_word())
        for table in ne._LETTERS.state[1:]:
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0, 0] = 1.0

    def test_threads_gather_their_own_letters(self):
        # four threads gather words of 9 new powers each while the others
        # refill and restart the table; every gathered row must be its letter's
        words = [[(12 + 11 * (p % 2), 9 * t + p) for p in range(1, 10)] for t in range(1000)]
        expected = {letter: letter_block(*letter)[0] for word in words for letter in word}
        wrong = []

        def gather(start):
            try:
                for letters in words[start::4]:
                    stack, _ = ne._word_terms(bc.BraidWord.from_letters(letters))
                    wrong.extend(letter for letter, ideal in zip(letters, stack)
                                 if not np.array_equal(ideal, expected[letter]))
            except Exception as exc:  # a thread's error would otherwise only warn
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=gather, args=(start,)) for start in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


class TestFidelityEvaluation:
    @given(canonical_words(max_letters=20), st.floats(1e-3, 1e3))
    @example(bc.empty_word(), 1.0)
    @example(bc.BraidWord.from_letters([(12, 3)]), 1.0)
    @settings(max_examples=60, deadline=None)
    def test_pairwise_compose_matches_left_to_right_product(self, word, t2):
        stack, exponents = ne._word_terms(word)
        letters = np.exp(exponents / t2) * stack
        total = np.eye(16)
        for matrix in letters:
            total = matrix @ total
        np.testing.assert_allclose(ne._compose(letters), total, rtol=0, atol=1e-13)

    @given(canonical_words(max_letters=20))
    @settings(max_examples=40, deadline=None)
    def test_cached_exponents_match_duration_times_rates(self, word):
        durations = np.array([abs(letter.power) * ne.BRAIDING_STEP_SECONDS / 2.0 for letter in word.letters])
        exponents = -durations[:, None, None] * ne.pauli_dephasing_rates((1.0, 1.0))[:, None]
        np.testing.assert_array_equal(ne._word_terms(word)[1], exponents)
