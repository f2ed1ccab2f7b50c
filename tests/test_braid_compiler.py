import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary
from fibanyon import braid_compiler as bc
from fibanyon import braid_space as bs
from fibanyon._linalg import phase_aligned_defect, phase_distances

SWAP = np.array([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
], dtype=complex)


letters_strategy = st.lists(
    st.tuples(st.sampled_from([12, 23]), st.integers(-4, 4).filter(lambda p: p != 0)),
    max_size=8,
)


def word_from(letters):
    return bc.BraidWord.from_letters(letters)


class TestHadamardWord:
    def test_fifteen_letters(self):
        assert len(bc.hadamard_word()) == 15

    def test_thirty_crossings(self):
        assert bc.hadamard_word().crossing_count == 30

    def test_first_applied_letter(self):
        # the rightmost factor of the operator product acts first
        assert bc.hadamard_word().letters[0] == bc.BraidLetter(12, 2)

    def test_operator_product_string(self):
        canonical = bc.hadamard_word().canonicalize()
        assert canonical.to_string() == (
            "s12^4 s23^-2 s12^2 s23^-2 s12^2 s23^2 s12^-2 s23^4 "
            "s12^2 s23^-2 s12^-2 s23^2 s12^2"
        )
        assert len(canonical) == 13

    def test_word_is_within_search_alphabet(self):
        canonical = bc.hadamard_word().canonicalize()
        assert all(a.generator != b.generator
                   for a, b in zip(canonical.letters, canonical.letters[1:]))
        assert all(letter.power in bc.SEARCH_POWERS for letter in canonical.letters)
        assert len(canonical) <= 15


class TestEvaluate:
    def test_empty_word_is_identity(self):
        np.testing.assert_allclose(bc.evaluate(bc.empty_word()), np.eye(4), atol=1e-15)

    def test_inverse_cancellation(self):
        word = word_from([(12, 1), (12, -1)])
        np.testing.assert_allclose(bc.evaluate(word), np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("space,dim", [("physical4", 4), ("logical2", 2)])
    def test_spaces(self, space, dim):
        u = bc.evaluate(word_from([(12, 2), (23, -2)]), space)
        assert u.shape == (dim, dim)

    def test_unknown_space_rejected(self):
        with pytest.raises(ValueError):
            bc.evaluate(bc.empty_word(), "physical8")

    def test_invalid_letters_rejected(self):
        with pytest.raises(ValueError):
            word_from([(13, 1)])
        with pytest.raises(ValueError):
            word_from([(12, 0)])

    @given(w1=letters_strategy, w2=letters_strategy)
    @settings(max_examples=30, deadline=None)
    def test_concatenation_homomorphism(self, w1, w2):
        a, b = word_from(w1), word_from(w2)
        lhs = bc.evaluate(bc.BraidWord(a.letters + b.letters), "logical2")
        rhs = bc.evaluate(b, "logical2") @ bc.evaluate(a, "logical2")
        assert np.abs(lhs - rhs).max() < 1e-10

    @given(w=letters_strategy)
    @settings(max_examples=30, deadline=None)
    def test_canonicalization_preserves_evaluation(self, w):
        word = word_from(w)
        lhs = bc.evaluate(word, "logical2")
        rhs = bc.evaluate(word.canonicalize(), "logical2")
        assert np.abs(lhs - rhs).max() < 1e-12

    @given(w=letters_strategy)
    @settings(max_examples=30, deadline=None)
    def test_inverse_word(self, w):
        inverse = [(g, -p) for g, p in reversed(w)]
        u = bc.evaluate(word_from(w + inverse), "physical4")
        assert np.abs(u - np.eye(4)).max() < 1e-10


letter_powers = st.integers(-8, 8).filter(bool) | st.sampled_from((-1000, -97, 64, 2**20))
bases = {"physical4": bs.sigma, "logical2": bs.sigma_logical}


def reduced(power):
    """sign(power) * (|power| mod 10): both generators have order 10."""
    return int(np.sign(power)) * (abs(power) % 10)


class TestLetterMatrix:
    @given(space=st.sampled_from(bc.SPACES), generator=st.sampled_from([12, 23]), power=letter_powers)
    @settings(max_examples=60, deadline=None)
    def test_is_the_read_only_matrix_power(self, space, generator, power):
        # bit for bit matrix_power up to |power| 9, and of the reduced power beyond
        u = bc.letter_matrix(space, generator, power)
        np.testing.assert_array_equal(u, np.linalg.matrix_power(bases[space](generator), reduced(power)))
        if abs(power) <= 9:
            np.testing.assert_array_equal(u, np.linalg.matrix_power(bases[space](generator), power))
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 0

    @given(space=st.sampled_from(bc.SPACES),
           letters=st.lists(st.tuples(st.sampled_from([12, 23]), letter_powers), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_is_the_left_to_right_product(self, space, letters):
        # each letter multiplies from the left, as compile and search always have
        expected = np.eye(len(bases[space](12)), dtype=complex)
        for generator, power in letters:
            expected = np.linalg.matrix_power(bases[space](generator), reduced(power)) @ expected
        np.testing.assert_array_equal(bc.evaluate(word_from(letters), space), expected)

    @given(space=st.sampled_from(bc.SPACES), generator=st.sampled_from([12, 23]),
           power=st.integers(-10**12, 10**12))
    @settings(max_examples=100, deadline=None)
    def test_reduced_power_raises_to_the_same_matrix(self, space, generator, power):
        # the one reduction that letter_matrix and the noise engine's letter table share
        reduced = bc.reduced_power(power)
        np.testing.assert_array_equal(bc.letter_matrix(space, generator, power),
                                      bc.letter_matrix(space, generator, reduced))
        assert reduced == 0 or (-9 <= reduced <= 9 and (reduced > 0) == (power > 0))

    @pytest.mark.parametrize("space", bc.SPACES)
    @pytest.mark.parametrize("power", [10, -10, 10**6, -(10**15), 10**18, 10**400])
    def test_multiples_of_the_order_are_the_identity(self, space, power):
        # matrix_power's rounding grew with the power: sigma12^(10^6) missed 1 by 1.8e-10
        for generator in (12, 23):
            u = bc.letter_matrix(space, generator, power)
            np.testing.assert_array_equal(u, np.eye(len(u)))


class TestCircuitDecomposition:
    @pytest.mark.parametrize("generator,power", [(12, 2), (12, -2), (23, 2), (23, -2)])
    def test_reproduces_braiding_operation(self, generator, power):
        circuit = bc.decompose_braiding(generator, power)
        target = np.linalg.matrix_power(bs.sigma(generator), power)
        assert phase_aligned_defect(circuit.compose(), target) < 1e-10

    @pytest.mark.parametrize("generator,power", [(12, 2), (12, -2), (23, 2), (23, -2)])
    def test_two_cnots_and_rotations_only(self, generator, power):
        circuit = bc.decompose_braiding(generator, power)
        assert sum(isinstance(g, bc.CNOT) for g in circuit.gates) == 2
        assert all(isinstance(g, (bc.CNOT, bc.Rotation)) for g in circuit.gates)

    def test_sigma23_is_qubit_swapped_sigma12(self):
        c12 = bc.decompose_braiding(12, 2)
        c23 = bc.decompose_braiding(23, 2)
        for g12, g23 in zip(c12.gates, c23.gates):
            if isinstance(g12, bc.CNOT):
                assert g23 == bc.CNOT(control=1 - g12.control, target=1 - g12.target)
            else:
                assert (g23.qubit, g23.axis) == (1 - g12.qubit, g12.axis)
                assert abs(g23.angle - g12.angle) < 1e-12
        # equivalently: conjugation by SWAP maps one composition to the other
        np.testing.assert_allclose(
            SWAP @ c12.compose() @ SWAP, c23.compose(), atol=1e-12
        )

    def test_inverse_pair_composes_to_identity(self):
        forward = bc.decompose_braiding(12, 2).compose()
        backward = bc.decompose_braiding(12, -2).compose()
        assert phase_aligned_defect(backward @ forward, np.eye(4)) < 1e-10

    def test_unsupported_operation_rejected(self):
        with pytest.raises(ValueError):
            bc.decompose_braiding(12, 3)
        with pytest.raises(ValueError):
            bc.decompose_braiding(14, 2)


class TestCanonicalize:
    def test_merges_adjacent(self):
        word = word_from([(12, 2), (12, 2), (23, -1)])
        assert word.canonicalize().letters == (bc.BraidLetter(12, 4), bc.BraidLetter(23, -1))

    def test_cascading_cancellation(self):
        word = word_from([(12, 2), (23, 1), (23, -1), (12, 3)])
        assert word.canonicalize().letters == (bc.BraidLetter(12, 5),)

    def test_full_cancellation(self):
        word = word_from([(12, 2), (23, 1), (23, -1), (12, -2)])
        assert word.canonicalize().letters == ()

    def test_string_round_trip(self):
        word = word_from([(12, 2), (23, -3), (12, 1)])
        assert bc.BraidWord.from_string(word.to_string()) == word

    def test_bad_string_rejected(self):
        with pytest.raises(ValueError):
            bc.BraidWord.from_string("q12^3")

    @given(w=st.lists(st.tuples(st.sampled_from([12, 23]), st.integers(-10**6, 10**6).filter(bool)),
                      max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_string_round_trip_of_random_words(self, w):
        word = word_from(w)
        assert bc.BraidWord.from_string(word.to_string()) == word

    @pytest.mark.parametrize("text,message", [
        # the messages of the two-step parser that split each token twice
        ("s12^", "invalid literal for int() with base 10: ''"),
        ("s12^x", "invalid literal for int() with base 10: 'x'"),
        ("s12^2^3", "invalid literal for int() with base 10: '2^3'"),
        ("S12^2", "cannot parse braid letter 'S12^2'"),
        ("^2", "cannot parse braid letter '^2'"),
        ("s^2", "invalid literal for int() with base 10: ''"),
        ("s12^2 s23", "cannot parse braid letter 's23'"),
        # the leftmost bad token is reported
        ("s12^x S12^2", "invalid literal for int() with base 10: 'x'"),
        ("S12^2 s12^x", "cannot parse braid letter 'S12^2'"),
        ("s12^0 q1", "cannot parse braid letter 'q1'"),
        # integer spellings that int() accepts and a braid token does not:
        # the generator and power are ASCII digits, the power after one sign
        ("s1_2^2", "invalid literal for int() with base 10: '1_2'"),
        ("s12^1_0", "invalid literal for int() with base 10: '1_0'"),
        ("s\u0661\u0662^2", "invalid literal for int() with base 10: '\u0661\u0662'"),
        ("s12^\u00b2", "invalid literal for int() with base 10: '\u00b2'"),
        ("s+12^2", "invalid literal for int() with base 10: '+12'"),
        ("s-12^2", "invalid literal for int() with base 10: '-12'"),
        ("s12^--2", "invalid literal for int() with base 10: '--2'"),
        ("s12^2 s1_2^x S12^2", "invalid literal for int() with base 10: '1_2'"),
        ("S12^2 s1_2^2", "cannot parse braid letter 'S12^2'"),
        ("s12^x s1_2^2", "invalid literal for int() with base 10: 'x'"),
        # tokens that parse are validated as letters, first applied first
        ("s13^1 s12^0", "letter powers must be nonzero"),
        ("s12^0 s13^1", "unknown generator index 13"),
    ])
    def test_malformed_string_message(self, text, message):
        with pytest.raises(ValueError) as raised:
            bc.BraidWord.from_string(text)
        assert str(raised.value) == message

    def test_tokens_split_on_any_whitespace(self):
        assert bc.BraidWord.from_string(" s12^+2 \t s23^-02 ") == word_from([(23, -2), (12, 2)])


class TestDistance:
    def test_self_distance_zero(self):
        u = bs.sigma_logical(12)
        assert bc.distance_up_to_phase(u, u) < 1e-7

    def test_global_phase_quotient(self):
        u = bs.sigma_logical(23)
        assert bc.distance_up_to_phase(u, np.exp(1j * np.pi / 7) * u) < 1e-7

    def test_identity_vs_x_antipodal(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert abs(bc.distance_up_to_phase(np.eye(2), x) - 2.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bc.distance_up_to_phase(np.eye(2), np.eye(4))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_symmetry_and_range(self, seed):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        u, v = haar_unitary(2, rng), haar_unitary(2, rng)
        d_uv = bc.distance_up_to_phase(u, v)
        d_vu = bc.distance_up_to_phase(v, u)
        assert abs(d_uv - d_vu) < 1e-10
        assert 0.0 <= d_uv <= 2.0 + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
        u, v, w = (haar_unitary(2, rng) for _ in range(3))
        assert bc.distance_up_to_phase(u, w) <= (
            bc.distance_up_to_phase(u, v) + bc.distance_up_to_phase(v, w) + 1e-10
        )


class TestHadamardDistance:
    def test_below_expected_bound(self):
        u = bc.evaluate(bc.hadamard_word(), "logical2")
        delta = bc.distance_up_to_phase(u, bc.hadamard_gate())
        assert delta < 0.01

    def test_double_precision_matches_pinned_constant(self):
        u = bc.evaluate(bc.hadamard_word(), "logical2")
        delta = bc.distance_up_to_phase(u, bc.hadamard_gate())
        assert abs(delta - bc.HADAMARD_WORD_DISTANCE) < 1e-8

    def test_physical_evaluation_is_leakage_free(self):
        u4 = bc.evaluate(bc.hadamard_word(), "physical4")
        iso = bs.logical_encoding()
        p_l = iso @ iso.conj().T
        assert np.linalg.norm((np.eye(4) - p_l) @ u4 @ p_l, 2) < 1e-10
        np.testing.assert_allclose(
            iso.conj().T @ u4 @ iso,
            bc.evaluate(bc.hadamard_word(), "logical2"),
            atol=1e-10,
        )


class TestSearch:
    def test_identity_gives_empty_word(self):
        result = bc.search_word(np.eye(2), max_letters=5, budget=10_000)
        assert result.word == bc.empty_word()
        assert result.distance == 0.0

    def test_single_generator_recovered(self):
        result = bc.search_word(bs.sigma_logical(12), max_letters=1, budget=16)
        assert result.word.letters == (bc.BraidLetter(12, 1),)
        assert result.distance < 1e-6
        assert not result.budget_exhausted

    def test_short_word_recovered_exactly(self):
        target = bc.evaluate(word_from([(23, -1), (12, 2)]), "logical2")
        result = bc.search_word(target, max_letters=2, budget=144)
        assert result.distance < 1e-6

    def test_search_dominates_enumerated_words(self):
        # any word inside the enumerated space can never beat the search
        target = bc.hadamard_gate()
        result = bc.search_word(target, max_letters=3, budget=1168)
        probe = word_from([(12, 2), (23, -2), (12, 2)])
        probe_dist = bc.distance_up_to_phase(bc.evaluate(probe, "logical2"), target)
        assert result.distance <= probe_dist + 1e-12

    def test_never_worse_than_empty_word(self):
        target = bs.sigma_logical(23)
        empty_dist = bc.distance_up_to_phase(np.eye(2), target)
        result = bc.search_word(target, max_letters=2, budget=17)
        assert result.distance <= empty_dist + 1e-12

    def test_budget_exhaustion_flagged(self):
        result = bc.search_word(bc.hadamard_gate(), max_letters=10, budget=500)
        assert result.budget_exhausted
        assert result.evaluated == 500

    def test_budget_stops_the_word_count(self):
        # counting every word up to 10**6 letters would take far longer than this bound
        start = time.perf_counter()
        result = bc.search_word(bc.hadamard_gate(), 10**6, budget=1)
        assert time.perf_counter() - start < 1.0
        assert result.evaluated == 1
        assert result.budget_exhausted

    @pytest.mark.parametrize("max_letters", [1, 2, 3])
    @pytest.mark.parametrize("slack", [-1, 0, 1])
    def test_flag_is_whether_every_word_was_evaluated(self, max_letters, slack):
        every_word = 2 * sum(8**length for length in range(1, max_letters + 1))
        result = bc.search_word(bc.hadamard_gate(), max_letters, budget=every_word + slack)
        assert result.evaluated == min(every_word, every_word + slack)
        assert result.budget_exhausted == (slack < 0)

    def test_exhaustive_run_not_flagged(self):
        # a budget of exactly every word of up to 2 letters cuts nothing
        result = bc.search_word(bc.hadamard_gate(), max_letters=2, budget=2 * (8 + 64))
        assert not result.budget_exhausted
        assert result.evaluated == 2 * (8 + 64)

    def test_zero_letter_budget(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        result = bc.search_word(x, max_letters=0)
        assert result.word == bc.empty_word()
        assert abs(result.distance - 2.0) < 1e-12
        assert result.budget_exhausted

    def test_non_unitary_target_rejected(self):
        with pytest.raises(ValueError):
            bc.search_word(np.array([[1, 0], [0, 2]]), max_letters=1)

    def test_nan_target_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            bc.search_word(np.array([[1, 0], [0, np.nan]]), max_letters=1)

    @pytest.mark.parametrize("max_letters, budget", [(-1, 100), (3, -5)])
    def test_negative_arguments_rejected(self, max_letters, budget):
        with pytest.raises(ValueError, match="non-negative"):
            bc.search_word(bc.hadamard_gate(), max_letters=max_letters, budget=budget)

    def test_deterministic(self):
        a = bc.search_word(bc.hadamard_gate(), max_letters=4, budget=2000)
        b = bc.search_word(bc.hadamard_gate(), max_letters=4, budget=2000)
        assert a == b

    def test_longer_search_improves_toward_known_word(self):
        # lengths 1..5: monotone non-increasing best distance
        target = bc.hadamard_gate()
        dists = [
            bc.search_word(target, max_letters=n, budget=2 * sum(8**i for i in range(1, n + 1))).distance
            for n in range(1, 5)
        ]
        assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(dists, dists[1:]))
        assert dists[-1] < 0.2


def test_measure_hadamard_distance_runtime():
    import time

    start = time.perf_counter()
    bc.evaluate(bc.hadamard_word(), "logical2")
    assert time.perf_counter() - start < 0.1


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from((2, 4)))
@settings(max_examples=30, deadline=None)
def test_phase_distances_match_pairwise_distance(seed, n, dim):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, n], dtype=np.uint64)))
    stack = np.array([haar_unitary(dim, rng) for _ in range(n)])
    v = haar_unitary(dim, rng)
    expected = [bc.distance_up_to_phase(u, v) for u in stack]
    np.testing.assert_allclose(phase_distances(stack, v), expected, rtol=0, atol=1e-12)
    # leading axes of v broadcast: one row of distances per matrix
    vs = np.array([[v, haar_unitary(dim, rng)], [haar_unitary(dim, rng), v]])
    rows = [[phase_distances(stack, w) for w in pair] for pair in vs]
    np.testing.assert_array_equal(phase_distances(stack, vs), rows)
