import cmath
import math

import numpy as np
import pytest

from fibanyon import anyon_model as am

PHI = am.PHI


@pytest.fixture(scope="module")
def fusion():
    return am.FusionData.fibonacci()


def with_entry(table, key, value):
    """Copy of an F or R table with one entry replaced (a negative control)."""
    return table._replace(entries={**table.entries, key: value})


def trivial_fusion():
    """Category with only the vacuum label (a degenerate control)."""
    return am.FusionData(labels=(am.VACUUM,), fusion_table={(0, 0): frozenset({0})}, qdim={0: 1.0})


@pytest.fixture(scope="module")
def ftable(fusion):
    return am.FSymbolTable.fibonacci(fusion)


@pytest.fixture(scope="module")
def rtable(fusion):
    return am.RSymbolTable.fibonacci(fusion)


class TestFusionData:
    def test_vacuum_is_identity(self, fusion):
        assert fusion.fuse(am.VACUUM, am.TAU) == {am.TAU}
        assert fusion.fuse(am.TAU, am.VACUUM) == {am.TAU}
        assert fusion.fuse(am.VACUUM, am.VACUUM) == {am.VACUUM}

    def test_tau_tau_fuses_to_both(self, fusion):
        assert fusion.fuse(am.TAU, am.TAU) == {am.VACUUM, am.TAU}

    def test_golden_ratio_identity(self):
        assert abs(am.PHI**2 - am.PHI - 1.0) < 1e-12

    def test_qdim_consistency(self, fusion):
        # dimension equation of tau x tau = vacuum + tau
        d = fusion.qdim[am.TAU]
        assert abs(d * d - (fusion.qdim[am.VACUUM] + d)) < 1e-12

    def test_exactly_two_labels(self, fusion):
        assert fusion.labels == (0, 1)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            am.FusionData(labels=(0,), fusion_table={(0, 0): frozenset({7})}, qdim={0: 1.0})


class TestFSymbols:
    def test_vacuum_strand_block_is_identity(self, ftable):
        mat, ms, ns = ftable.f_matrix(0, 1, 1, 1)
        assert mat.shape == (1, 1)
        assert abs(mat[0, 0] - 1.0) < 1e-15

    def test_all_tau_block_is_golden_matrix(self, ftable):
        mat, ms, ns = ftable.f_matrix(1, 1, 1, 1)
        expected = np.array([
            [1 / PHI, 1 / math.sqrt(PHI)],
            [1 / math.sqrt(PHI), -1 / PHI],
        ])
        assert ms == [0, 1] and ns == [0, 1]
        np.testing.assert_allclose(mat, expected, atol=1e-15)

    def test_non_admissible_lookup_is_zero(self, ftable):
        # total charge vacuum with a vacuum pair channel is inadmissible
        assert ftable.get(1, 1, 0, 1, 0, 0) == 0.0

    def test_every_stored_key_admissible(self, ftable):
        for key in ftable.entries:
            assert ftable.admissible(*key)

    def test_blocks_unitary(self, ftable):
        report = am.verify_f_unitarity(ftable)
        assert report.max_residual < 1e-12

    def test_all_tau_block_real_orthogonal(self, ftable):
        mat, _, _ = ftable.f_matrix(1, 1, 1, 1)
        assert np.abs(mat.imag).max() == 0.0
        np.testing.assert_allclose(mat @ mat.T, np.eye(2), atol=1e-14)

    def test_composed_transform_matches_published_matrix(self, ftable, f_printed):
        # [F]_{(m,n),(j,k)} = F^{11j}_{1km} F^{11k}_{m1n} on admissible cells
        composed = np.zeros((4, 4), dtype=complex)
        for m in (0, 1):
            for n in (0, 1):
                for j in (0, 1):
                    for k in (0, 1):
                        composed[2 * m + n, 2 * j + k] = (
                            ftable.get(1, 1, j, 1, k, m) * ftable.get(1, 1, k, m, 1, n)
                        )
        composed[0, 0] = 1.0  # inert all-vacuum configuration
        np.testing.assert_allclose(composed, f_printed, atol=1e-14)
        # the quoted entry: rows/cols ordered 00,01,10,11
        assert abs(composed[2 * 0 + 1, 2 * 0 + 1] - 2 / (1 + math.sqrt(5))) < 1e-14
        np.testing.assert_allclose(composed @ composed.conj().T, np.eye(4), atol=1e-12)


class TestRSymbols:
    def test_published_phases(self, rtable):
        assert abs(rtable.get(1, 1, 0) - cmath.exp(-4j * math.pi / 5)) < 1e-15
        assert abs(rtable.get(1, 1, 1) - cmath.exp(3j * math.pi / 5)) < 1e-15

    def test_vacuum_strand_trivial(self, rtable):
        assert rtable.get(0, 1, 1) == 1.0
        assert rtable.get(1, 0, 1) == 1.0
        assert rtable.get(0, 0, 0) == 1.0

    def test_unit_modulus(self, rtable):
        for value in rtable.entries.values():
            assert abs(abs(value) - 1.0) < 1e-15


class TestPentagon:
    def test_fibonacci_passes(self, ftable):
        report = am.verify_pentagon(ftable)
        assert report.max_residual < 1e-12
        assert report.checked == 2**9

    def test_negated_entry_fails(self, ftable):
        bad = with_entry(ftable, (1, 1, 0, 1, 1, 0), -ftable.get(1, 1, 0, 1, 1, 0))
        assert am.verify_pentagon(bad).max_residual > 0.1

    def test_trivial_category(self):
        fusion = trivial_fusion()
        table = am.FSymbolTable(fusion, {(0, 0, 0, 0, 0, 0): 1.0 + 0.0j})
        assert am.verify_pentagon(table).max_residual == 0.0


class TestHexagon:
    def test_fibonacci_passes(self, ftable, rtable):
        report = am.verify_hexagon(ftable, rtable)
        assert report.max_residual < 1e-12

    def test_trivialized_r_fails(self, ftable, rtable):
        bad = with_entry(rtable, (1, 1, 1), 1.0 + 0.0j)
        assert am.verify_hexagon(ftable, bad).max_residual > 0.1

    def test_trivial_category(self):
        fusion = trivial_fusion()
        ftab = am.FSymbolTable(fusion, {(0, 0, 0, 0, 0, 0): 1.0 + 0.0j})
        rtab = am.RSymbolTable(fusion, {(0, 0, 0): 1.0 + 0.0j})
        assert am.verify_hexagon(ftab, rtab).max_residual == 0.0

    def test_conjugate_chirality_also_consistent(self, ftable, fusion):
        # the mirror braiding (complex-conjugate R symbols) is equally valid
        mirrored = am.RSymbolTable(
            fusion, {k: v.conjugate() for k, v in am.RSymbolTable.fibonacci(fusion).entries.items()}
        )
        assert am.verify_hexagon(ftable, mirrored).max_residual < 1e-12

