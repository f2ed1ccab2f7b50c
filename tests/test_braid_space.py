import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary
from fibanyon import braid_space as bs
from fibanyon._linalg import dagger, unitarity_defect

PHI = (1 + math.sqrt(5)) / 2


def test_edge_basis_lexicographic():
    for n in (2, 4):
        labels = itertools.product((0, 1), repeat=n)
        assert [bs.basis_index(t) for t in labels] == list(range(2**n))
    assert bs.basis_index((1, 0)) == 2
    assert bs.basis_index((1, 0, 1, 1)) == 11


class TestSigma:
    def test_sigma12_matches_oracle(self, sigma12_printed):
        np.testing.assert_allclose(bs.sigma(12), sigma12_printed, atol=1e-12)

    def test_sigma23_matches_oracle(self, sigma23_printed):
        np.testing.assert_allclose(bs.sigma(23), sigma23_printed, atol=1e-12)

    def test_sigma23_braiding_without_anyons_is_trivial(self):
        assert abs(bs.sigma(23)[0, 0] - 1.0) < 1e-12

    def test_mixing_entry_magnitudes(self):
        # the 2x2 mixing block entries have magnitudes 1/phi and 1/sqrt(phi)
        s = bs.sigma(12)
        assert abs(abs(s[1, 1]) - 1 / PHI) < 1e-12
        assert abs(abs(s[1, 3]) - 1 / math.sqrt(PHI)) < 1e-12

    @pytest.mark.parametrize("index", [12, 23])
    def test_unitary(self, index):
        assert unitarity_defect(bs.sigma(index)) < 1e-12

    @pytest.mark.parametrize("index", [12, 23])
    def test_inverse_is_dagger(self, index):
        # the inverse letter of a braid word is the generator's matrix inverse
        np.testing.assert_allclose(
            np.linalg.inv(bs.sigma(index)), dagger(bs.sigma(index)), atol=1e-15
        )

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            bs.sigma(13)


class TestTreeBasis:
    def test_transform_matches_published(self, f_printed):
        np.testing.assert_allclose(bs.tree_transform(), f_printed, atol=1e-12)

    def test_transform_unitary(self):
        assert unitarity_defect(bs.tree_transform()) < 1e-12

    def test_conjugation_diagonalizes_sigma12(self, b1_printed):
        np.testing.assert_allclose(
            bs.tree_conjugate(bs.sigma(12)), b1_printed, atol=1e-10
        )

    def test_conjugation_maps_sigma23_to_b2(self, b2_printed):
        np.testing.assert_allclose(
            bs.tree_conjugate(bs.sigma(23)), b2_printed, atol=1e-10
        )

    def test_b2_offdiagonal_phase_identity(self, b2_printed):
        # -i e^{-i pi/10} = e^{i 7 pi/5}: the tree off-diagonal equals the
        # edge-basis off-diagonal entry
        assert abs(-1j * np.exp(-1j * np.pi / 10) - np.exp(7j * np.pi / 5)) < 1e-15
        assert abs(b2_printed[1, 3] - bs.sigma(23)[2, 3]) < 1e-12

    def test_identity_fixed(self):
        np.testing.assert_allclose(bs.tree_conjugate(np.eye(4)), np.eye(4), atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bs.tree_conjugate(np.eye(3))

    def test_tree_generators_from_chain(self, b1_printed, b2_printed):
        np.testing.assert_allclose(bs.tree_generator(12), b1_printed, atol=1e-12)
        np.testing.assert_allclose(bs.tree_generator(23), b2_printed, atol=1e-12)


class TestLogicalEncoding:
    def test_published_amplitudes(self):
        iso = bs.logical_encoding()
        np.testing.assert_allclose(
            iso[:, 0], [0, 1 / PHI, 0, math.sqrt(1 / PHI)], atol=1e-15
        )
        np.testing.assert_allclose(
            iso[:, 1], [0, -PHI**-1.5, math.sqrt(1 / PHI), PHI**-2], atol=1e-15
        )

    def test_orthonormal_via_golden_identity(self):
        iso = bs.logical_encoding()
        np.testing.assert_allclose(dagger(iso) @ iso, np.eye(2), atol=1e-12)

    def test_logical_states_are_tree_basis_states(self):
        # |0_L> = |01>_tree and |1_L> = |11>_tree
        tree = bs.tree_transform() @ bs.logical_encoding()
        expected = np.zeros((4, 2))
        expected[1, 0] = 1.0
        expected[3, 1] = 1.0
        np.testing.assert_allclose(tree, expected, atol=1e-12)


class TestLogicalRestriction:
    def test_sigma12_diagonal(self, logical12_printed):
        logical, leak = bs.logical_restrict(bs.sigma(12))
        np.testing.assert_allclose(logical, logical12_printed, atol=1e-12)
        assert leak < 1e-12

    def test_sigma23_block(self, logical23_printed):
        logical, leak = bs.logical_restrict(bs.sigma(23))
        np.testing.assert_allclose(logical, logical23_printed, atol=1e-12)
        assert leak < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_extension_inverts_restriction(self, seed):
        u = haar_unitary(2, np.random.Generator(np.random.Philox(key=[seed, 3])))
        logical, leak = bs.logical_restrict(bs.logical_extension(u))
        np.testing.assert_allclose(logical, u, atol=1e-12)
        assert leak < 1e-12

    def test_identity(self):
        logical, leak = bs.logical_restrict(np.eye(4))
        np.testing.assert_allclose(logical, np.eye(2), atol=1e-15)
        assert leak < 1e-15

    def test_random_braid_words_stay_logical(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([5, 1], dtype=np.uint64)))
        p_l = bs.logical_projector()
        gens = [bs.sigma(12), bs.sigma(23), dagger(bs.sigma(12)), dagger(bs.sigma(23))]
        for _ in range(50):
            u = np.eye(4, dtype=complex)
            for _ in range(int(rng.integers(1, 51))):
                u = gens[rng.integers(4)] @ u
            assert np.linalg.norm((np.eye(4) - p_l) @ u @ p_l, 2) < 1e-10


class TestBraidGroupLaws:
    def test_yang_baxter(self):
        s12, s23 = bs.sigma(12), bs.sigma(23)
        assert np.abs(s12 @ s23 @ s12 - s23 @ s12 @ s23).max() < 1e-12

    @pytest.mark.parametrize("index", [12, 23])
    def test_order_ten(self, index):
        u = np.linalg.matrix_power(bs.sigma(index), 10)
        assert np.abs(u - np.eye(4)).max() < 1e-12

    def test_eigenvalues_are_tenth_roots_of_unity(self):
        for index in (12, 23):
            for ev in np.linalg.eigvals(bs.sigma(index)):
                assert abs(ev**10 - 1.0) < 1e-10


class TestFullTwist:
    """The full twist generates the braid-group center; its image must
    commute with every generator and act as a scalar on each irreducible
    sector, a construction-independent consistency check."""

    def test_three_anyon_twist_central_and_sector_diagonal(self):
        s12, s23 = bs.sigma(12), bs.sigma(23)
        twist = np.linalg.matrix_power(s12 @ s23, 3)
        for g in (s12, s23):
            assert np.abs(twist @ g - g @ twist).max() < 1e-12
        tree = bs.tree_conjugate(twist)
        assert np.abs(tree - np.diag(np.diag(tree))).max() < 1e-12
        diag = np.diag(tree)
        assert abs(diag[0] - 1.0) < 1e-12            # inert configuration
        assert abs(diag[1] - diag[3]) < 1e-12        # scalar on the logical irrep
        assert abs(diag[1] - np.exp(2j * np.pi / 5)) < 1e-12

    def test_five_anyon_twist_central(self):
        gens = [bs.build_generator(5, p) for p in range(1, 5)]
        twist = np.linalg.matrix_power(gens[0] @ gens[1] @ gens[2] @ gens[3], 5)
        for g in gens:
            assert np.abs(twist @ g - g @ twist).max() < 1e-12


class TestBuildGenerator:
    def test_three_anyon_reproduces_sigma(self):
        np.testing.assert_allclose(bs.build_generator(3, 1), bs.sigma(12), atol=1e-10)
        np.testing.assert_allclose(bs.build_generator(3, 2), bs.sigma(23), atol=1e-10)

    @pytest.mark.parametrize("position", [1, 2, 3, 4])
    def test_five_anyon_unitary(self, position):
        assert unitarity_defect(bs.build_generator(5, position)) < 1e-10

    @pytest.mark.parametrize("position", [1, 2, 3])
    def test_five_anyon_braid_relation(self, position):
        a = bs.build_generator(5, position)
        b = bs.build_generator(5, position + 1)
        assert np.abs(a @ b @ a - b @ a @ b).max() < 1e-10

    @pytest.mark.parametrize("pair", [(1, 3), (1, 4), (2, 4)])
    def test_five_anyon_far_commutativity(self, pair):
        a = bs.build_generator(5, pair[0])
        b = bs.build_generator(5, pair[1])
        assert np.abs(a @ b - b @ a).max() < 1e-12

    def test_created_pair_sector_restriction(self):
        # with the environment frozen to the fresh vacuum pair |i1=1, i2=0>,
        # the tracked generators act on |j,k> exactly as the printed matrices
        sector = [2 * 4 + t for t in range(4)]
        for position, oracle in ((3, bs.sigma(12)), (4, bs.sigma(23))):
            g = bs.build_generator(5, position)
            np.testing.assert_allclose(g[np.ix_(sector, sector)], oracle, atol=1e-12)
            outside = [i for i in range(16) if i not in sector]
            assert np.abs(g[np.ix_(outside, sector)]).max() < 1e-14

    def test_unsupported_configurations_rejected(self):
        with pytest.raises(ValueError):
            bs.build_generator(4, 1)
        with pytest.raises(ValueError):
            bs.build_generator(3, 0)
        with pytest.raises(ValueError):
            bs.build_generator(5, 5)

    def test_chain_generator_order_ten(self):
        for position in range(1, 5):
            u = np.linalg.matrix_power(bs.chain_generator(5, position), 10)
            assert np.abs(u - np.eye(16)).max() < 1e-10


def test_dump_matrices_contents(sigma12_printed, b1_printed, f_printed):
    mats = bs.dump_matrices()
    assert set(mats) == {
        "sigma12", "sigma23", "b1", "b2", "f_transform",
        "sigma12_logical", "sigma23_logical",
    }
    np.testing.assert_allclose(mats["sigma12"], sigma12_printed, atol=1e-12)
    np.testing.assert_allclose(mats["b1"], b1_printed, atol=1e-12)
    np.testing.assert_allclose(mats["f_transform"], f_printed, atol=1e-12)


def test_returned_matrices_are_fresh_copies():
    a = bs.sigma(12)
    a[0, 0] = 99.0
    assert abs(bs.sigma(12)[0, 0] - 1.0) < 1e-15
