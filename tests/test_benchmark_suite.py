import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import haar_unitary
from oracles import write_back_products
from fibanyon import _philox, _trf
from fibanyon import benchmark_suite as bench
from fibanyon import braid_compiler as bc
from fibanyon import braid_space as bs
from fibanyon import noise_engine as ne
from fibanyon._linalg import active_counts, dagger

M_GRID = (1, 2, 4, 8, 16, 32)


@pytest.fixture(scope="module")
def group():
    return bench.CliffordGroup()


def unitarity(ptm):
    """Coherence of a channel, the quantity purity benchmarking estimates:
    squared Frobenius norm of the traceless block over ``d^2 - 1``, so the
    identity channel gives one."""
    block = ptm.matrix[1:, 1:]
    return float(np.sum(block * block)) / (ptm.dim**2 - 1)


def unitary_channel(u):
    return lambda rho: u @ rho @ dagger(u)


def random_kraus_channel(dim, rank, rng):
    """CPTP channel from a Haar-random Stinespring isometry."""
    big = haar_unitary(dim * rank, rng)
    iso = big[:, :dim]  # dim*rank x dim isometry
    kraus = [iso[i * dim:(i + 1) * dim, :] for i in range(rank)]

    def channel(rho):
        return sum(k @ rho @ dagger(k) for k in kraus)

    return channel


class TestQpt:
    def test_identity_channel(self):
        ptm = bench.qpt(lambda rho: rho, 2)
        np.testing.assert_allclose(ptm.matrix, np.eye(4), atol=1e-12)

    def test_ideal_hadamard_mapping(self):
        ptm = bench.qpt(unitary_channel(bc.hadamard_gate()), 2)
        # X -> Z, Y -> -Y, Z -> X
        np.testing.assert_allclose(ptm.matrix[:, 1], [0, 0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(ptm.matrix[:, 2], [0, 0, -1, 0], atol=1e-12)
        np.testing.assert_allclose(ptm.matrix[:, 3], [0, 1, 0, 0], atol=1e-12)

    def test_fully_depolarizing(self):
        ptm = bench.qpt(lambda rho: np.trace(rho) * np.eye(2) / 2, 2)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(ptm.matrix, expected, atol=1e-12)

    def test_trace_preserving_row(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([3, 3], dtype=np.uint64)))
        channel = random_kraus_channel(4, 3, rng)
        ptm = bench.qpt(channel, 4)
        assert ptm.trace_preserving_defect < 1e-10

    def test_matches_analytic_unitary_ptm(self):
        u = bs.sigma(12)
        ptm = bench.qpt(unitary_channel(u), 4)
        np.testing.assert_allclose(ptm.matrix, bench.ptm_of_unitary(u).matrix, atol=1e-10)

    def test_unitary_channel_orthogonal_on_traceless_sector(self):
        ptm = bench.qpt(unitary_channel(bs.sigma_logical(23)), 2)
        block = ptm.matrix[1:, 1:]
        np.testing.assert_allclose(block @ block.T, np.eye(3), atol=1e-10)

    def test_nonlinear_channel_detected(self):
        def nonlinear(rho):
            return rho @ rho / max(np.trace(rho @ rho).real, 1e-9)

        with pytest.raises(ValueError, match="not linear"):
            bench.qpt(nonlinear, 2)

    def test_apply_round_trip(self):
        u = bs.sigma_logical(12)
        ptm = bench.qpt(unitary_channel(u), 2)
        rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
        np.testing.assert_allclose(ptm.apply(rho), u @ rho @ dagger(u), atol=1e-12)


def kron_basis(n_qubits):
    basis = list(bench.PAULI_1Q)
    for _ in range(n_qubits - 1):
        basis = [np.kron(a, b) for a in basis for b in bench.PAULI_1Q]
    return basis


def ptm_trace_loop(u):
    """Reference definition ``R[i, j] = tr(P_i U P_j U†) / d``, entry by entry."""
    d = u.shape[0]
    basis = kron_basis(int(math.log2(d)))
    return np.array([[np.trace(p_i @ u @ p_j @ dagger(u)).real / d for p_j in basis]
                     for p_i in basis])


def random_state(dim, rng):
    """Density matrix of a Haar-random pure state mixed with the identity."""
    vec = haar_unitary(dim, rng)[:, 0]
    weight = rng.uniform()
    return weight * np.outer(vec, vec.conj()) + (1 - weight) * np.eye(dim) / dim


class TestPauliBasisVectorization:
    @given(st.integers(0, 2**32 - 1), st.sampled_from((2, 4)))
    @settings(max_examples=25, deadline=None)
    def test_ptm_of_unitary_matches_trace_loop(self, seed, dim):
        u = haar_unitary(dim, _philox.rng_for(seed, 1))
        np.testing.assert_allclose(bench.ptm_of_unitary(u).matrix, ptm_trace_loop(u), atol=1e-14)

    @given(st.integers(0, 2**32 - 1), st.sampled_from((2, 4)))
    @settings(max_examples=25, deadline=None)
    def test_coefficients_match_trace_loop_and_round_trip(self, seed, dim):
        rng = _philox.rng_for(seed, 2)
        rho = random_state(dim, rng)
        basis = kron_basis(int(math.log2(dim)))
        coeffs = bench.state_coefficients(rho)
        np.testing.assert_allclose(coeffs, [np.trace(p @ rho).real for p in basis], atol=1e-14)
        np.testing.assert_allclose(bench.matrix_from_coefficients(coeffs, dim), rho, atol=1e-14)

        weights = rng.normal(size=dim**2)
        expected = sum(c * p for c, p in zip(weights, basis)) / dim
        np.testing.assert_allclose(bench.matrix_from_coefficients(weights, dim), expected,
                                   atol=1e-14)

    def test_basis_order_and_immutability(self):
        basis = bench._pauli_stack(2)
        assert len(basis) == 16
        for p, q in zip(basis, kron_basis(2)):
            np.testing.assert_array_equal(p, q)
        with pytest.raises(ValueError):
            basis[0][0, 0] = 2.0


class TestAverageGateFidelity:
    def test_self_fidelity_is_one(self):
        u = bs.sigma_logical(23)
        assert abs(bench.average_gate_fidelity(bench.ptm_of_unitary(u), u) - 1.0) < 1e-12

    def test_depolarizing_closed_form(self):
        ptm = bench.depolarizing_ptm(2, 1.0)
        assert abs(bench.average_gate_fidelity(ptm, bc.hadamard_gate()) - 0.5) < 1e-12

    def test_monte_carlo_agreement_single_channel(self):
        # a quick sanity version of the acceptance-level cross check
        rng = np.random.Generator(np.random.Philox(key=np.array([11, 4], dtype=np.uint64)))
        channel = random_kraus_channel(2, 2, rng)
        ideal = haar_unitary(2, rng)
        closed = bench.average_gate_fidelity(bench.qpt(channel, 2), ideal)
        n = 2000
        z = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        states = z / np.linalg.norm(z, axis=1, keepdims=True)
        rotated = np.einsum("ij,nj->ni", ideal, states)
        rho_out = np.stack([channel(np.outer(s, s.conj())) for s in states])
        vals = np.einsum("ni,nij,nj->n", rotated.conj(), rho_out, rotated).real
        assert abs(vals.mean() - closed) < 2e-2

    @given(st.sampled_from((2, 4)), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_trace_of_product(self, d, seed):
        # the dot product sums tr(R_ideal^T R) in another order than the full product
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 8], dtype=np.uint64)))
        matrix, ideal = rng.uniform(-1, 1, size=(2, d * d, d * d))
        f_pro = float((ideal.T @ matrix).trace()) / d**2
        assert abs(bench._average_fidelity(matrix, ideal, d) - (d * f_pro + 1) / (d + 1)) <= 1e-15


class TestUnitarity:
    """The closed-form unitarity of the transfer maps the library builds."""

    def test_identity(self):
        assert abs(unitarity(bench.identity_ptm(2)) - 1.0) < 1e-12

    def test_fully_depolarizing(self):
        assert unitarity(bench.depolarizing_ptm(2, 1.0)) < 1e-12

    def test_dephasing_closed_form(self):
        lam = 0.35
        expected = (1 + 2 * lam**2) / 3
        assert abs(unitarity(bench.dephasing_ptm(lam)) - expected) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_unitary_channels_have_unit_unitarity(self, seed):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 5], dtype=np.uint64)))
        u = haar_unitary(2, rng)
        assert abs(unitarity(bench.ptm_of_unitary(u)) - 1.0) < 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_cptp_channels_bounded(self, seed):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 6], dtype=np.uint64)))
        channel = random_kraus_channel(2, int(rng.integers(1, 5)), rng)
        ptm = bench.qpt(channel, 2)
        u = unitarity(ptm)
        assert -1e-10 <= u <= 1.0 + 1e-10
        # transfer-map entries of physical channels stay within [-1, 1]
        assert np.abs(ptm.matrix).max() <= 1.0 + 1e-10


class TestPurity:
    """The rescaled purity ``(d tr(rho^2) - 1) / (d - 1)`` that purity
    benchmarking averages: 1 for pure states, 0 for the maximally mixed one."""

    @staticmethod
    def purities(gateset):
        means, _ = bench._run_sequences(gateset, (1, 2, 5), 3, 7, None, recovery=False)
        return means

    def test_pure_state(self, group):
        np.testing.assert_allclose(self.purities(bench.logical_gateset(group=group)), 1.0,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_maximally_mixed(self, group, dim):
        make = bench.physical_gateset if dim == 4 else bench.logical_gateset
        gateset = make(noise=bench.depolarizing_ptm(dim, 1.0), group=group)
        np.testing.assert_allclose(self.purities(gateset), 0.0, rtol=0, atol=1e-12)

    def test_dephased_plus_state_analytic(self, group):
        # |+> prepared, then dephased; noiseless Cliffords keep its purity
        t, t2 = 0.05, 0.2
        spam = bench.dephasing_ptm(math.exp(-t / t2)).compose(bench.ptm_of_unitary(bc.hadamard_gate()))
        gateset = bench.logical_gateset(group=group)
        gateset = gateset._replace(prep=spam.matrix @ gateset.prep)
        np.testing.assert_allclose(self.purities(gateset), math.exp(-2 * t / t2), rtol=0, atol=1e-12)


class TestCliffordGroup:
    def test_twenty_four_elements(self, group):
        assert len(group) == 24

    @staticmethod
    def find(group, u):
        """Index of the group element equal to ``u`` up to phase."""
        i = group.nearest(u)
        assert bc.distance_up_to_phase(group.elements[i], u) < 1e-6, "not a Clifford element"
        return i

    def test_contains_identity(self, group):
        assert self.find(group, np.eye(2)) == 0

    def test_closed_under_multiplication(self, group):
        for a in group.elements:
            for b in group.elements:
                self.find(group, a @ b)

    def test_inverses_in_group(self, group):
        for i, u in enumerate(group.elements):
            j = self.find(group, dagger(u))
            prod = group.elements[i] @ group.elements[j]
            assert bc.distance_up_to_phase(prod, np.eye(2)) < 1e-6

    def test_contains_hadamard_and_paulis(self, group):
        for u in (bc.hadamard_gate(), np.array([[0, 1], [1, 0]], dtype=complex)):
            self.find(group, u)

    def test_ps_extension_preserves_logical_structure(self, group):
        iso = bs.logical_encoding()
        for i in (0, 5, 11):
            ext = bs.logical_extension(group.elements[i])
            assert np.abs(ext @ dagger(ext) - np.eye(4)).max() < 1e-12
            np.testing.assert_allclose(dagger(iso) @ ext @ iso, group.elements[i], atol=1e-12)
            p_l = iso @ dagger(iso)
            assert np.linalg.norm((np.eye(4) - p_l) @ ext @ p_l, 2) < 1e-12

    def test_table_and_inverse_match_nearest(self, group):
        for i, a in enumerate(group.elements):
            assert group.inverse[i] == group.nearest(dagger(a))
            for j, b in enumerate(group.elements):
                assert group.table[i, j] == group.nearest(a @ b)
        assert not (group.table.flags.writeable or group.inverse.flags.writeable)

    def test_ideal_maps_built_on_first_use(self):
        group = bench.CliffordGroup()
        assert not {"logical_ptms", "physical_ptms"} & set(vars(group))
        assert group.physical_ptms is group.physical_ptms
        assert not (group.logical_ptms.flags.writeable or group.physical_ptms.flags.writeable)

    @given(space=st.sampled_from(("ls", "ps")), seed=st.integers(0, 2**32 - 1),
           noiseless=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_gateset_matches_per_element_products(self, group, space, seed, noiseless):
        # the gate set is one broadcast product with the cached ideal maps; it
        # must equal the per-element construction bit for bit
        dim = 4 if space == "ps" else 2
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 7], dtype=np.uint64)))
        noise = None if noiseless else bench.PauliTransferMap(rng.normal(size=(dim**2, dim**2)), dim)
        make = bench.physical_gateset if space == "ps" else bench.logical_gateset
        encode = bs.logical_extension if space == "ps" else (lambda c: c)
        matrix = np.eye(dim**2) if noise is None else noise.matrix
        expected = np.array([matrix @ bench.ptm_of_unitary(encode(c)).matrix for c in group.elements])
        ptms = make(noise=noise, group=group).ptms
        assert np.array_equal(ptms, expected)
        assert not ptms.flags.writeable

    def test_non_clifford_rejected(self, group):
        u = bs.sigma_logical(12)
        assert bc.distance_up_to_phase(group.elements[group.nearest(u)], u) > 0.1

    @given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_nearest_is_argmin_of_phase_distance(self, group, seed, m, k):
        # interleaved-RB ideals: random Cliffords, each followed by the
        # braided Hadamard, so the products drift away from the group
        hadamard = bc.evaluate(bc.hadamard_word(), "logical2")
        stack = []
        for ki in range(k):
            ideal = np.eye(2, dtype=complex)
            for idx in _philox.rng_for(seed, m * 10 + ki).integers(0, len(group), size=m):
                ideal = hadamard @ group.elements[idx] @ ideal
            stack.append(dagger(ideal))
        expected = [int(np.argmin([bc.distance_up_to_phase(u, v) for v in group.elements]))
                    for u in stack]
        assert group.nearest(stack[0]) == expected[0]
        nearest = group.nearest(np.array(stack))
        assert nearest.shape == (k,)
        assert nearest.tolist() == expected


_RARE_BRANCH_DECAYS = {
    # B = 0 exactly, rate 1, with 1e-7 noise: the r column of the Jacobian
    # vanishes, and the model then predicts no reduction
    "rank-deficient Jacobian": ("rb", bench.DEFAULT_M_GRID, [
        "-0x1.28fd2c8177b94p-3", "-0x1.28fd22f2e32f7p-3", "-0x1.28fd15bb53052p-3",
        "-0x1.28fd1bf2c63adp-3", "-0x1.28fd29769c924p-3", "-0x1.28fd1ef18b2eep-3",
        "-0x1.28fd2c91dcd5dp-3"]),
    "predicted reduction of zero or less": ("rb", bench.DEFAULT_M_GRID, [
        "-0x1.28fd2c8177b94p-3", "-0x1.28fd22f2e32f7p-3", "-0x1.28fd15bb53052p-3",
        "-0x1.28fd1bf2c63adp-3", "-0x1.28fd29769c924p-3", "-0x1.28fd1ef18b2eep-3",
        "-0x1.28fd2c91dcd5dp-3"]),
    # means below the box (A >= -1, B >= -2): the fit runs into two bounds at once
    "reflected step with no room": ("pb", bench.DEFAULT_M_GRID, [
        "-0x1.170cb0ef155b6p+2", "-0x1.64ae0efd1d041p+1", "-0x1.c9093b60cde8fp+0",
        "-0x1.8e8e6846ba5a9p+0", "-0x1.8c73e88e73c9bp+0", "-0x1.8c12b2063acfdp+0",
        "-0x1.8c065fd15e6b1p+0"]),
    "reflected step whose bounds cross": ("pb", bench.DEFAULT_M_GRID, [
        "-0x1.742d94e00bfe7p+2", "-0x1.1fc70c2939179p+2", "-0x1.8970bd056cb5dp+1",
        "-0x1.1befb3c256b6fp+1", "-0x1.04bb4bdc8372dp+1", "-0x1.0425191ad1917p+1",
        "-0x1.040476cc49965p+1"]),
    "exit on a rejected step that meets xtol": ("pb", bench.DEFAULT_M_GRID, [
        "-0x1.20bd6937fd2b8p+1", "-0x1.2cc1b623397e4p+1", "-0x1.36012aaff7e6bp+1",
        "-0x1.38f848ec78171p+1", "-0x1.390d3f40395b1p+1", "-0x1.38be64a375b16p+1",
        "-0x1.3913de662461ep+1"]),
    # on a grid of lengths >= 1 every r^e lies in (0, 1] and the residuals stay
    # finite; negative lengths let a trial's r^e overflow
    "non-finite trial": ("rb", (-55, -50, -42, -12, 1, 11, 64), [
        "-0x1.93840c28da3ffp+29", "-0x1.df0d608315ecbp+26", "-0x1.6a125b4fb4f71p+22",
        "-0x1.f69e96d09771fp+5", "0x1.549608132e45bp-4", "0x1.0987f319351e0p-1",
        "0x1.0f3dce2bdde6ep-1"]),
}
"""Model, lengths and means (hex floats) of a decay that takes each branch."""


def _rare_branches_taken(monkeypatch, m, means, model) -> set[str]:
    """The branches of :data:`_RARE_BRANCH_DECAYS` that ``fit_decay`` takes
    on these means, seen through the values that ``_trf``'s helpers return."""
    taken, last = set(), {"xtol": None, "f": None}

    def spy(name, record):
        original = getattr(_trf, name)

        def spied(*args, **kwargs):
            result = original(*args, **kwargs)
            record(args, kwargs, result)
            return result

        monkeypatch.setattr(_trf, name, spied)

    def residuals(args, kwargs, result):
        last.update(f=result[1], xtol=None)
        if not np.isfinite(result[1]).all():
            taken.add("non-finite trial")

    def regularised_step(args, kwargs, result):
        if not args[5]:  # full_rank
            taken.add("rank-deficient Jacobian")

    def to_trust_boundary(args, kwargs, result):
        last["reflection"] = ("pending", result)

    def step_to_bound(args, kwargs, result):
        # the call after _to_trust_boundary gives the reflected step's room: r_stride
        if isinstance(last.get("reflection"), tuple):
            last["reflection"] = min(result[0], last["reflection"][1])

    def line_quadratic(args, kwargs, result):
        if kwargs.get("s0") is not None:  # the reflected step's line search
            last["reflection"] = None

    def select_step(args, kwargs, result):
        if not result[2] > 0:
            taken.add("predicted reduction of zero or less")
        room = last.pop("reflection", None)
        if room is not None:  # a reflected step without its line search
            taken.add("reflected step with no room" if not room > 0
                      else "reflected step whose bounds cross")

    def xtol_satisfied(args, kwargs, result):
        last["xtol"] = result

    def least_squares(args, kwargs, result):
        if result[1] is not last["f"] and last["xtol"]:
            taken.add("exit on a rejected step that meets xtol")

    for name, record in [("_residuals", residuals), ("_regularised_step", regularised_step),
                         ("_select_step", select_step), ("_to_trust_boundary", to_trust_boundary),
                         ("_line_quadratic", line_quadratic), ("_step_to_bound", step_to_bound),
                         ("_xtol_satisfied", xtol_satisfied),
                         ("least_squares", least_squares)]:
        spy(name, record)
    try:
        with np.errstate(over="ignore"):
            bench.fit_decay(m, means, np.zeros_like(means), model)
    finally:
        monkeypatch.undo()
    return taken


class TestDecayFit:
    def test_flat_data_gives_unit_rate(self):
        fit = bench.fit_decay([1, 2, 4], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        assert fit.rate == 1.0

    def test_exact_exponential_recovered(self):
        m = np.array([1, 2, 4, 8, 16, 32])
        y = 0.4 + 0.55 * 0.97**m
        fit = bench.fit_decay(m, y, np.zeros_like(y))
        assert abs(fit.rate - 0.97) < 1e-6
        assert abs(fit.a - 0.4) < 1e-5
        assert fit.residual < 1e-8

    def test_pb_model_exponent_offset(self):
        m = np.array([1, 2, 4, 8, 16])
        y = 0.1 + 0.85 * 0.9 ** (m - 1)
        fit = bench.fit_decay(m, y, np.zeros_like(y), model="pb")
        assert abs(fit.rate - 0.9) < 1e-6

    def test_rate_bounded_in_unit_interval(self):
        m = np.array([1, 2, 4, 8])
        y = 0.5 + 0.4 * 0.8**m
        fit = bench.fit_decay(m, y, np.zeros_like(y))
        assert 0.0 < fit.rate <= 1.0

    def test_divergent_fit_reported(self):
        with pytest.raises(bench.FitDivergenceError):
            bench.fit_decay([1, 2, 4], [0.9, float("nan"), 0.5], [0, 0, 0])

    def test_evaluation_cap_exhaustion_reported(self, monkeypatch):
        m = np.array(bench.DEFAULT_M_GRID)
        y = 0.4 + 0.55 * 0.97**m
        monkeypatch.setattr(_trf, "MAX_EVALUATIONS", 3)
        with pytest.raises(bench.FitDivergenceError, match="3 function evaluations"):
            bench.fit_decay(m, y, np.zeros_like(y))

    def test_matches_curve_fit_bit_for_bit(self, monkeypatch):
        # the port follows scipy operation for operation; scipy's trust-region
        # solve takes LAPACK's SVD through scipy.linalg, so give it numpy's
        trf = pytest.importorskip("scipy.optimize._lsq.trf")
        if not hasattr(trf, "svd"):
            pytest.skip("scipy's trust-region module no longer imports svd by name")
        from scipy.optimize import curve_fit

        monkeypatch.setattr(trf, "svd", np.linalg.svd)
        m = np.array(bench.DEFAULT_M_GRID)
        for model, means in _decay_corpus():
            exponent = m if model == "rb" else m - 1.0
            want, _ = curve_fit(lambda x, a, b, r: a + b * np.power(r, x), exponent, means,
                                p0=_trf._initial_guess(exponent, means),
                                bounds=([-1.0, -2.0, 1e-9], [1.0, 2.0, 1.0]), maxfev=20000)
            fit = bench.fit_decay(m, means, np.zeros_like(means), model)
            assert (fit.a, fit.b, fit.rate) == tuple(want), (model, means)

    @given(st.sampled_from(["rb", "pb"]),
           st.sampled_from(["generic", "rate near 1", "small B", "rate near 1e-5"]),
           st.floats(0.0, 0.5), st.floats(-0.9, 0.9), st.floats(0.0, 1.0),
           st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7), st.floats(-6.0, -2.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_curve_fit_bit_for_bit_on_drawn_decays(self, model, regime, a, b, u, noise,
                                                            noise_exponent):
        # drawn decays on the default grid, with the near-degenerate regimes where A and B
        # trade off or r^m vanishes, and the fit hangs on the last bits of every operation
        trf = pytest.importorskip("scipy.optimize._lsq.trf")
        if not hasattr(trf, "svd"):
            pytest.skip("scipy's trust-region module no longer imports svd by name")
        from scipy.optimize import curve_fit

        rate = {"generic": 0.5 + 0.5 * u, "small B": 0.5 + 0.5 * u,
                "rate near 1": 1.0 if u < 0.2 else 1.0 - 10 ** (-9.0 + 3.0 * u),
                "rate near 1e-5": 10 ** (-5.5 + u)}[regime]
        if regime == "small B":
            b /= 45.0  # |B| < 0.02
        m = np.array(bench.DEFAULT_M_GRID)
        exponent = m if model == "rb" else m - 1.0
        means = a + b * rate**exponent + 10**noise_exponent * np.array(noise)
        assume(np.ptp(means) >= 1e-9)  # flatter data are not fitted
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trf, "svd", np.linalg.svd)
            want, _ = curve_fit(lambda x, a, b, r: a + b * np.power(r, x), exponent, means,
                                p0=_trf._initial_guess(exponent, means),
                                bounds=([-1.0, -2.0, 1e-9], [1.0, 2.0, 1.0]), maxfev=20000)
        fit = bench.fit_decay(m, means, np.zeros_like(means), model)
        assert (fit.a, fit.b, fit.rate) == tuple(want)

    @pytest.mark.parametrize("branch", sorted(_RARE_BRANCH_DECAYS))
    def test_rare_branches_match_curve_fit_bit_for_bit(self, branch, monkeypatch):
        # crafted decays, each of which takes one _trf branch that neither the recorded
        # nor the drawn fits reach; the fit must still be curve_fit's, bit for bit
        trf = pytest.importorskip("scipy.optimize._lsq.trf")
        if not hasattr(trf, "svd"):
            pytest.skip("scipy's trust-region module no longer imports svd by name")
        from scipy.optimize import curve_fit

        model, m, means = _RARE_BRANCH_DECAYS[branch]
        m, means = np.array(m), np.array([float.fromhex(v) for v in means])
        exponent = m if model == "rb" else m - 1.0
        assert branch in _rare_branches_taken(monkeypatch, m, means, model)
        with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore"):
            patch.setattr(trf, "svd", np.linalg.svd)
            want, _ = curve_fit(lambda x, a, b, r: a + b * np.power(r, x), exponent, means,
                                p0=_trf._initial_guess(exponent, means),
                                bounds=([-1.0, -2.0, 1e-9], [1.0, 2.0, 1.0]), maxfev=20000)
        with np.errstate(over="ignore"):
            fit = bench.fit_decay(m, means, np.zeros_like(means), model)
        assert (fit.a, fit.b, fit.rate) == tuple(want)

    @given(rows=st.integers(3, 12), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from((1e-12, 1e-3, 1.0, 1e6)), rank_deficient=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_svd_is_numpys_bit_for_bit(self, rows, seed, scale, rank_deficient):
        a = scale * np.random.default_rng(seed).normal(size=(rows, 3))
        if rank_deficient:
            a[:, 2] = a[:, 0]
        for got, want in zip(_trf._svd(a), np.linalg.svd(a, full_matrices=False)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_jacobian_raises(self, monkeypatch, bad):
        a = np.random.default_rng(3).normal(size=(10, 3))
        a[4, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # LAPACK's failure flag on NaN
            with pytest.raises(np.linalg.LinAlgError):
                _trf._svd(a)
            jacobian = _trf._jacobian

            def spoiled(*args):
                jacobian(*args)
                args[-1][2, 3] = bad

            monkeypatch.setattr(_trf, "_jacobian", spoiled)
            m = np.array(bench.DEFAULT_M_GRID)
            y = 0.4 + 0.55 * 0.97**m
            with pytest.raises(bench.FitDivergenceError, match="SVD did not converge"):
                bench.fit_decay(m, y, np.zeros_like(y))

    def test_initial_guess_matches_polyfit(self):
        m = np.array(bench.DEFAULT_M_GRID)
        for model, means in _decay_corpus():
            exponent = m if model == "rb" else m - 1.0
            slope = np.polyfit(exponent, np.log(np.clip(means - 0.5, 1e-6, None)), 1)[0]
            want = [0.5, 0.5, float(np.clip(np.exp(slope), 1e-4, 1.0 - 1e-9))]
            assert _trf._initial_guess(exponent, means).tolist() == want, (model, means)

    @given(grid=st.lists(st.integers(0, bench.MAX_LENGTH), min_size=2, max_size=12, unique=True),
           y=st.lists(st.floats(-1.0, 2.0), min_size=12, max_size=12),
           offset=st.sampled_from((0, 1, 1.0)))
    @settings(max_examples=100, deadline=None)
    def test_initial_guess_matches_lstsq(self, grid, y, offset):
        # integer and float exponent grids, each guessed twice, so the second call of
        # each reads the cached Vandermonde: an integer grid must not key another grid's
        y = np.array(y[:len(grid)])
        for exponent in (np.array(grid) - offset, np.array(grid, dtype=float) - offset) * 2:
            assert np.array_equal(_trf._initial_guess(exponent, y), _lstsq_initial_guess(exponent, y))


def _lstsq_initial_guess(exponent, y):
    """Oracle for ``_initial_guess``: the slope of ``numpy.linalg.lstsq`` on
    np.polyfit's column-scaled Vandermonde, built afresh per call."""
    shifted = np.maximum(y - 0.5, 1e-6)
    lhs = np.ones((len(exponent), 2))
    lhs[:, 0] = exponent
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    coef = np.linalg.lstsq(lhs / scale, np.log(shifted), len(exponent) * np.finfo(float).eps)[0]
    return np.array([0.5, 0.5, min(max(float(np.exp(coef[0] / scale[0])), 1e-4), 1.0 - 1e-9)])


def _decay_corpus():
    """Seeded RB and PB decays on the default grid: noisy synthetic
    ``A + B r^m`` with rates up to exactly 1, and the survival and purity
    means of noisy LS and PS runs with and without the braided Hadamard."""
    m = np.array(bench.DEFAULT_M_GRID)
    rng = np.random.default_rng(1812)
    corpus = []
    for i in range(120):
        model = ("rb", "pb")[i % 2]
        rate = min(1.0, rng.uniform(0.5, 1.02))
        exponent = m if model == "rb" else m - 1
        means = rng.uniform(0.0, 0.5) + rng.uniform(-0.9, 0.9) * rate**exponent
        corpus.append((model, means + rng.normal(0.0, 10 ** rng.uniform(-6, -2), m.size)))
    noise_model = ne.NoiseModel(t2=(0.43, 0.43), depolarizing_prob=0.02)
    word = bc.hadamard_word()
    for dim, make, space in ((2, bench.logical_gateset, "logical2"),
                             (4, bench.physical_gateset, "physical4")):
        noise = ne.clifford_noise_ptm(noise_model, dim)
        applied = bench.ptm_of_unitary(bc.evaluate(word, space))
        target = bench.NoisyGate(bc.evaluate(word, space), noise.compose(applied))
        gateset = make(noise=noise)
        for interleave in (None, target):
            for recovery, model in ((True, "rb"), (False, "pb")):
                means, _ = bench._run_sequences(gateset, m, 30, 7, interleave, recovery)
                corpus.append((model, means))
    return corpus


class TestRandomizedBenchmarking:
    @pytest.mark.parametrize("m_values, k, message", [
        (M_GRID, 1, "at least 2 sequences"),
        ((1, 2, 2, 1), 5, "3 distinct sequence lengths"),
        ((0, 1, 2), 5, "at least 1"),
        ((1, 2, 4097), 5, "at most 4096"),
        # more would reuse the index streams of the next length
        (M_GRID, 100_001, "at most 100000 sequences"),
    ])
    def test_degenerate_sequences_rejected(self, group, m_values, k, message):
        gateset = bench.logical_gateset(group=group)
        with pytest.raises(ValueError, match=message):
            bench.rb_reference(gateset, m_values, k)
        with pytest.raises(ValueError, match=message):
            bench.pb_run(gateset, None, m_values, k)

    def test_noiseless_reference(self, group):
        gateset = bench.logical_gateset(group=group)
        fit = bench.rb_reference(gateset, M_GRID, k=5, seed=2)
        assert fit.rate == 1.0
        assert all(abs(m - 1.0) < 1e-9 for m in fit.means)

    def test_depolarizing_rate_recovery(self, group):
        p = 0.02
        gateset = bench.logical_gateset(noise=bench.depolarizing_ptm(2, p), group=group)
        fit = bench.rb_reference(gateset, (1, 2, 4, 8, 16, 32, 50), k=30, seed=42)
        assert abs(fit.rate - (1 - p)) < 1e-3
        f_ref = bench.reference_fidelity_from_rate(fit.rate, 2)
        assert abs(f_ref - bench.average_gate_fidelity(bench.depolarizing_ptm(2, p), np.eye(2))) < 1e-3

    def test_interleaved_noiseless_target(self, group):
        noise = bench.depolarizing_ptm(2, 0.015)
        gateset = bench.logical_gateset(noise=noise, group=group)
        target = bench.NoisyGate(bc.hadamard_gate(), bench.ptm_of_unitary(bc.hadamard_gate()))
        res = bench.rb_interleaved(target, gateset, M_GRID, 20, 9,
                                   bench.rb_reference(gateset, M_GRID, 20, 9))
        assert abs(res.f_rb - 1.0) < 2e-3

    def test_all_noiseless(self, group):
        gateset = bench.logical_gateset(group=group)
        target = bench.NoisyGate(bc.hadamard_gate(), bench.ptm_of_unitary(bc.hadamard_gate()))
        reference = bench.rb_reference(gateset, M_GRID, 5, 3)
        res = bench.rb_interleaved(target, gateset, M_GRID, 5, 3, reference)
        assert res.fit.rate == 1.0
        assert reference.rate == 1.0
        assert abs(res.f_rb - 1.0) < 1e-9

    def test_target_fidelity_recovery_within_half_percent(self, group):
        # braided Hadamard under dephasing, simulated in the physical space
        # where the noise channel is trace preserving
        noise_model = ne.NoiseModel(t2=(0.9, 0.9))
        word = bc.hadamard_word()
        target = bench.NoisyGate(
            bc.evaluate(word, "physical4"),
            bench.qpt(ne.word_channel(word, noise_model), 4),
        )
        clifford_channel = lambda rho: ne.apply_dephasing(
            ne.DensityMatrix(rho), noise_model.rates(), ne.CLIFFORD_SECONDS
        ).matrix
        gateset = bench.physical_gateset(noise=bench.qpt(clifford_channel, 4), group=group)
        res = bench.rb_interleaved(target, gateset, M_GRID, 30, 17,
                                   bench.rb_reference(gateset, M_GRID, 30, 17))
        oracle = bench.average_gate_fidelity(target.ptm, target.unitary)
        assert abs(res.f_rb - oracle) < 5e-3

    def test_reference_fidelity_context_target(self, group):
        # dephasing calibrated so each Clifford sits near 99.44% fidelity
        lam = 3 * 0.9944 - 2
        gateset = bench.logical_gateset(noise=bench.dephasing_ptm(lam), group=group)
        fit = bench.rb_reference(gateset, M_GRID, k=30, seed=5)
        true_f = bench.average_gate_fidelity(bench.dephasing_ptm(lam), np.eye(2))
        estimate = bench.reference_fidelity_from_rate(fit.rate, 2)
        assert abs(estimate - true_f) < 2e-3
        assert abs(true_f - 0.9944) < 1e-6

    def test_spam_insensitivity(self, group):
        noise = bench.depolarizing_ptm(2, 0.011)
        spam = bench.depolarizing_ptm(2, 0.25)
        gateset = bench.logical_gateset(noise=noise, group=group)
        plain = bench.rb_reference(gateset, M_GRID, 30, 4)
        # preparation and measurement both pass through the SPAM channel
        spammed = bench.rb_reference(gateset._replace(prep=spam.matrix @ gateset.prep), M_GRID, 30, 4)
        assert abs(plain.rate - spammed.rate) < 1e-6
        assert spammed.means[0] < plain.means[0] - 0.1  # raw survival shifted

    def test_physical_space_reference(self, group):
        gateset = bench.physical_gateset(noise=bench.depolarizing_ptm(4, 0.01), group=group)
        fit = bench.rb_reference(gateset, (1, 2, 4, 8, 16), k=10, seed=6)
        assert abs(fit.rate - 0.99) < 2e-3


class TestPurityBenchmarking:
    def test_noiseless_purity_flat(self, group):
        gateset = bench.logical_gateset(group=group)
        res = bench.pb_run(gateset, None, M_GRID, k=5, seed=8)
        assert res.fit.rate == 1.0
        assert all(abs(m - 1.0) < 1e-9 for m in res.fit.means)

    def test_over_rotation_preserves_purity(self, group):
        over = bench.ptm_of_unitary(ne.over_rotation_unitary("z", 0.12))
        gateset = bench.logical_gateset(noise=over, group=group)
        res = bench.pb_run(gateset, None, M_GRID, k=20, seed=10)
        assert abs(res.fit.rate - 1.0) < 1e-9
        assert res.incoherent_per_gate < 1e-9

    def test_dephasing_unitarity_recovery(self, group):
        lam = 0.98
        gateset = bench.logical_gateset(noise=bench.dephasing_ptm(lam), group=group)
        res = bench.pb_run(gateset, None, M_GRID, k=30, seed=12)
        assert abs(res.fit.rate - unitarity(bench.dephasing_ptm(lam))) < 2e-3


class TestErrorBudget:
    def _budget(self, group, noise, target_noise, seed=13):
        gateset = bench.logical_gateset(noise=noise, group=group)
        target = bench.NoisyGate(bc.hadamard_gate(),
                                 target_noise.compose(bench.ptm_of_unitary(bc.hadamard_gate())))
        rb_ref = bench.rb_reference(gateset, M_GRID, 30, seed)
        rb_int = bench.rb_interleaved(target, gateset, M_GRID, 30, seed, rb_ref)
        pb_ref = bench.pb_run(gateset, None, M_GRID, 30, seed + 1)
        pb_int = bench.pb_run(gateset, target, M_GRID, 30, seed + 1)
        return bench.error_budget(rb_int, pb_ref, pb_int, dim=2)

    def test_dephasing_target_mostly_incoherent(self, group):
        lam = 0.985
        budget = self._budget(group, bench.dephasing_ptm(lam), bench.dephasing_ptm(lam))
        assert abs(budget.coherent) < 3e-3
        assert budget.incoherent > 0.5 * budget.total_infidelity

    def test_over_rotation_target_mostly_coherent(self, group):
        # coherent error on the target only: noiseless Cliffords keep the
        # reference decay flat and the RB estimate well behaved
        over = bench.ptm_of_unitary(ne.over_rotation_unitary("z", 0.1))
        budget = self._budget(group, bench.identity_ptm(2), over)
        assert abs(budget.incoherent) < 3e-3
        assert budget.total_infidelity > 1e-4
        assert budget.coherent > 0.5 * budget.total_infidelity

    def test_strong_coherent_noise_on_all_gates_is_flagged(self, group):
        # interleaving can cancel compounding coherent errors; the estimator
        # reports the pathology instead of a silent negative infidelity
        over = bench.ptm_of_unitary(ne.over_rotation_unitary("z", 0.1))
        budget = self._budget(group, over, over)
        assert abs(budget.incoherent) < 3e-3
        if budget.total_infidelity < 0:
            assert budget.warnings

    def test_noiseless_budget_is_zero(self, group):
        budget = self._budget(group, bench.identity_ptm(2), bench.identity_ptm(2))
        assert abs(budget.total_infidelity) < 1e-9
        assert abs(budget.incoherent) < 1e-9
        assert abs(budget.coherent) < 1e-9


class TestProtocolPipeline:
    @pytest.mark.parametrize("space", ["ls", "ps"])
    def test_matches_direct_calls_bit_for_bit(self, group, space):
        noise = ne.NoiseModel(t2=(0.43, 0.9), depolarizing_prob=0.02, over_rotation_angle=0.05)
        gateset = ne.clifford_gateset(noise, space, group)
        target = ne.hadamard_target(noise, space)
        m, k, seed = (1, 2, 4, 8), 6, 41
        reference = bench.rb_reference(gateset, m, k, seed)
        interleaved = bench.rb_interleaved(target, gateset, m, k, seed, reference)
        oracle = bench.average_gate_fidelity(target.ptm, target.unitary)
        pb_ref = bench.pb_run(gateset, None, m, k, seed + 2)
        pb_int = bench.pb_run(gateset, target, m, k, seed + 3)
        budget = bench.error_budget(interleaved, pb_ref, pb_int, dim=gateset.dim)
        assert bench.run_protocols(gateset, target, m, k, seed, True) == bench.ProtocolResults(
            reference, interleaved, oracle, pb_ref, pb_int, budget)
        assert bench.run_protocols(gateset, target, m, k, seed, False) == bench.ProtocolResults(
            reference, interleaved, oracle)
        assert bench.run_protocols(gateset, None, m, k, seed, False) == bench.ProtocolResults(reference)

    def test_purity_needs_a_target(self, group):
        with pytest.raises(ValueError, match="interleaving target"):
            bench.run_protocols(bench.logical_gateset(group=group), None, M_GRID, 2, 0, True)


class TestSpaceConsistency:
    def test_projected_fidelity_matches_direct(self, group):
        # leakage-free PS channel: encoded Clifford conjugation
        u_ps = bs.logical_extension(group.elements[7])
        ptm_ps = bench.qpt(unitary_channel(u_ps), 4)
        ptm_ls = bench.project_to_logical(ptm_ps)
        direct = bench.ptm_of_unitary(group.elements[7])
        np.testing.assert_allclose(ptm_ls.matrix, direct.matrix, atol=1e-10)
        f_proj = bench.average_gate_fidelity(ptm_ls, group.elements[7])
        f_direct = bench.average_gate_fidelity(direct, group.elements[7])
        assert abs(f_proj - f_direct) < 1e-10

    def test_projection_requires_ps_map(self):
        with pytest.raises(ValueError):
            bench.project_to_logical(bench.identity_ptm(2))

    def test_projected_fidelity_matches_direct_for_mixed_unitary_channel(self, group):
        # leakage-free but non-unitary: a probabilistic mixture of two
        # encoded Cliffords
        u1, u2 = bs.logical_extension(group.elements[3]), bs.logical_extension(group.elements[9])

        def channel_ps(rho):
            return 0.7 * u1 @ rho @ dagger(u1) + 0.3 * u2 @ rho @ dagger(u2)

        def channel_ls(rho):
            a, b = group.elements[3], group.elements[9]
            return 0.7 * a @ rho @ dagger(a) + 0.3 * b @ rho @ dagger(b)

        projected = bench.project_to_logical(bench.qpt(channel_ps, 4))
        direct = bench.qpt(channel_ls, 2)
        np.testing.assert_allclose(projected.matrix, direct.matrix, atol=1e-10)
        ideal = group.elements[3]
        assert abs(
            bench.average_gate_fidelity(projected, ideal)
            - bench.average_gate_fidelity(direct, ideal)
        ) < 1e-10


def _sequences_one_by_one(gateset, m_values, k, seed, interleave, recovery):
    """Reference for ``_run_sequences``: the k sequences of each length run
    one after another, one matrix-vector product per gate."""
    group = gateset.group
    target = None if interleave is None else interleave.unitary
    if target is not None and target.shape == (4, 4):
        target, _ = bs.logical_restrict(target)
    means, stds = [], []
    for mi, m in enumerate(m_values):
        values = []
        for ki in range(k):
            indices = _philox.rng_for(seed, mi * 100_000 + ki).integers(0, len(group), size=m)
            coeffs = gateset.prep.copy()
            ideal = np.eye(2, dtype=complex)
            for idx in indices:
                coeffs = gateset.ptms[idx] @ coeffs
                if interleave is not None:
                    coeffs = interleave.ptm.matrix @ coeffs
                if recovery:
                    ideal = group.elements[idx] @ ideal
                    if target is not None:
                        ideal = target @ ideal
            if recovery:
                coeffs = gateset.ptms[group.nearest(dagger(ideal))] @ coeffs
                values.append(float(gateset.prep @ coeffs) / gateset.dim)
            else:
                plain = float(np.sum(coeffs**2)) / gateset.dim
                values.append((gateset.dim * plain - 1.0) / (gateset.dim - 1.0))
        values = np.asarray(values)
        means.append(values.mean())
        stds.append(values.std(ddof=1))
    return np.asarray(means), np.asarray(stds)


def _sequences_per_length(gateset, m_values, k, seed, interleave, recovery):
    """Exact reference for ``_run_sequences``: the k sequences of each length
    advance together, one length after another, with a stacked complex ``@``
    for the logical frames and one ``nearest`` per length.  Like
    ``_run_sequences`` it folds the interleaved target into the 24 maps and
    frames once, so each step is one product."""
    group, ptms, d = gateset.group, gateset.ptms, gateset.dim
    target = None if interleave is None else interleave.unitary
    if target is not None and target.shape == (4, 4):
        target, _ = bs.logical_restrict(target)
    steps = ptms if interleave is None else interleave.ptm.matrix @ ptms
    step_frames = group.elements if target is None else target @ group.elements
    means, stds = [], []
    for mi, m in enumerate(m_values):
        indices = np.array([_philox.rng_for(seed, mi * 100_000 + ki).integers(0, len(group), size=m)
                            for ki in range(k)])
        coeffs = np.tile(gateset.prep, (k, 1))[..., None]
        ideal = np.tile(np.eye(2, dtype=complex), (k, 1, 1))
        for idx in indices.T:
            coeffs = steps[idx] @ coeffs
            if recovery:
                ideal = step_frames[idx] @ ideal
        if recovery:
            coeffs = ptms[group.nearest(ideal.conj().swapaxes(1, 2))] @ coeffs
            values = (gateset.prep @ coeffs)[:, 0] / d
        else:
            plain = np.sum(coeffs[..., 0] ** 2, axis=1) / d
            values = (d * plain - 1.0) / (d - 1.0)
        means.append(values.mean())
        stds.append(values.std(ddof=1))
    return np.asarray(means), np.asarray(stds)


def _float_frame_survivals(gateset, indices, lengths):
    """Oracle for reference-RB survivals from ``_advance``: the same batched
    steps over the step-major ``indices``, but the logical frames are
    multiplied as 2x2 matrices and inverted by one batched ``nearest``."""
    group, ptms, d = gateset.group, gateset.ptms, gateset.dim
    coeffs = np.tile(gateset.prep, (len(lengths), 1))[..., None]
    frames = np.tile(np.eye(2, dtype=complex), (len(lengths), 1, 1))
    for t in range(lengths[0]):
        a = np.count_nonzero(lengths > t)
        idx = indices[t, :a]
        coeffs[:a] = ptms[idx] @ coeffs[:a]
        frames[:a] = group.elements[idx] @ frames[:a]
    coeffs = ptms[group.nearest(frames.conj().swapaxes(1, 2))] @ coeffs
    return (gateset.prep @ coeffs)[:, 0] / d


def _complex_frame_recoveries(group, indices, active, target):
    """Oracle for interleaved-RB recoveries: ``(2, 2, n)`` complex frames,
    each entry of the 2x2 product running over all sequences, updated in
    place step by step, then one batched ``nearest`` of their inverses."""
    frames = np.zeros((2, 2, active[0]), dtype=complex)
    frames[0, 0] = frames[1, 1] = 1.0
    step_frames = np.ascontiguousarray((target @ group.elements).transpose(1, 2, 0))
    for a, idx in zip(active, indices):
        s, f = step_frames.take(idx[:a], axis=2), frames[:, :, :a]
        np.add(s[:, :1] * f[:1], s[:, 1:] * f[1:], out=f)
    frames = np.ascontiguousarray(frames.transpose(2, 0, 1))
    return group.nearest(frames.conj().swapaxes(1, 2))


def _table_recoveries(group, indices, active):
    """Oracle for reference-RB recoveries: the frame index updated through
    ``table`` one step at a time, then inverted."""
    frames = np.zeros(active[0], dtype=np.intp)
    for a, idx in zip(active, indices):
        frames[:a] = group.table[idx[:a], frames[:a]]
    return group.inverse[frames]


def _drawn_indices(lengths, seed):
    """Step-major uint8 Clifford indices for the longest-first ``lengths``,
    with values up to 255 past each sequence's end, where the draws of
    ``_philox.draw`` are unspecified."""
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, 256, size=(lengths[0], len(lengths)), dtype=np.uint8)
    for i, m in enumerate(lengths):
        indices[:m, i] = rng.integers(0, 24, size=m)
    return indices


def _write_back_advance(gateset, indices, active, interleave, recoveries):
    """Oracle for ``_advance``: the prepared state's write-back products
    (:func:`oracles.write_back_products`), then the recovery survival or the
    rescaled purity."""
    ptms, d = gateset.ptms, gateset.dim
    steps = ptms if interleave is None else interleave.ptm.matrix @ ptms
    coeffs = write_back_products(steps, indices, active, gateset.prep[:, None])
    if recoveries is not None:
        coeffs = ptms[recoveries] @ coeffs
        return (gateset.prep @ coeffs)[:, 0] / d
    plain = np.sum(coeffs[..., 0] ** 2, axis=1) / d
    return (d * plain - 1.0) / (d - 1.0)


class TestRecoveries:
    @given(
        target=st.sampled_from(("ls", "ps", "over-rotated", "haar")),
        element=st.integers(0, 23),
        # well below pi/4, where a frame can sit exactly half way between two Cliffords
        angle=st.floats(-0.3, 0.3),
        axis=st.sampled_from("xyz"),
        # odd and even lengths, long enough for the frames to drift from the group
        lengths=st.lists(st.integers(1, 600), min_size=1, max_size=12),
        chunk=st.sampled_from((1, 2, 3, 7, 64, bench._RECOVERY_CHUNK)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(target="ps", element=0, angle=0.0, axis="x", lengths=[600, 599, 301, 2, 1],
             chunk=7, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_quaternion_frames_match_complex_frames(self, group, target, element, angle, axis,
                                                    lengths, chunk, seed):
        if target == "haar":
            block = haar_unitary(2, np.random.default_rng(seed))
        elif target == "over-rotated":
            block = group.elements[element] @ ne.over_rotation_unitary(axis, angle)
        elif target == "ps":
            block, _ = bs.logical_restrict(bc.evaluate(bc.hadamard_word(), "physical4"))
        else:
            block = bc.evaluate(bc.hadamard_word(), "logical2")
        lengths = np.array(sorted(lengths, reverse=True))
        indices = _drawn_indices(lengths, seed)
        active = active_counts(lengths)
        with mock.patch.object(bench, "_RECOVERY_CHUNK", chunk):
            got = bench._recoveries(group, indices, active, block)
        assert got.tolist() == _complex_frame_recoveries(group, indices, active, block).tolist()

    @given(
        lengths=st.lists(st.integers(1, 600), min_size=1, max_size=12),
        chunk=st.sampled_from((1, 2, 3, 7, 64, bench._RECOVERY_CHUNK)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_log_depth_product_matches_table_steps(self, group, lengths, chunk, seed):
        lengths = np.array(sorted(lengths, reverse=True))
        indices = _drawn_indices(lengths, seed)
        active = active_counts(lengths)
        with mock.patch.object(bench, "_RECOVERY_CHUNK", chunk):
            got = bench._recoveries(group, indices, active, None)
        assert got.tolist() == _table_recoveries(group, indices, active).tolist()

    def test_leaking_target_rejected_with_recovery(self, group):
        # a random 4x4 unitary mixes the code space with its complement
        unitary = haar_unitary(4, np.random.default_rng(5))
        singular = np.linalg.svd(bs.logical_restrict(unitary)[0], compute_uv=False)
        assert singular.min() < 0.99
        gateset = bench.physical_gateset(noise=bench.depolarizing_ptm(4, 0.01), group=group)
        target = bench.NoisyGate(unitary, bench.ptm_of_unitary(unitary))
        reference = bench.rb_reference(gateset, M_GRID, 5, 1)
        with pytest.raises(ValueError, match="logical block is not unitary"):
            bench.rb_interleaved(target, gateset, M_GRID, 5, 1, reference)
        # purity benchmarking has no recovery gate, so no logical frame
        bench.pb_run(gateset, target, M_GRID, 5, 1)

    @pytest.mark.parametrize("space", ["ls", "ps"])
    @pytest.mark.parametrize("frame_space", ["logical2", "physical4"])
    def test_braided_targets_accepted(self, group, space, frame_space):
        gateset = ne.clifford_gateset(ne.NoiseModel(t2=(0.9, 0.9)), space, group)
        target = ne.hadamard_target(ne.NoiseModel(t2=(0.9, 0.9)), space)
        target = target._replace(unitary=bc.evaluate(bc.hadamard_word(), frame_space))
        reference = bench.rb_reference(gateset, M_GRID, 5, 1)
        assert 0.9 < bench.rb_interleaved(target, gateset, M_GRID, 5, 1, reference).f_rb <= 1.0


class TestBatchedSequences:
    @given(st.lists(st.integers(1, 300), min_size=1, max_size=40))
    def test_active_counts_count_the_longer_sequences(self, lengths):
        lengths = np.array(sorted(lengths, reverse=True))
        counts = active_counts(lengths)
        assert len(counts) == lengths[0]
        assert counts == [np.count_nonzero(lengths > t) for t in range(lengths[0])]

    @given(
        space=st.sampled_from(("ls", "ps")),
        t2=st.floats(0.05, 5.0),
        depolarizing=st.floats(0.0, 0.05),
        target=st.sampled_from((None, "logical2", "physical4")),
        recovery=st.booleans(),
        # lengths with repeats, as a grid's k sequences of each length run
        runs=st.lists(st.tuples(st.integers(1, 70), st.integers(1, 4)), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(space="ps", t2=0.43, depolarizing=0.02, target="physical4", recovery=True,
             runs=[(64, 3), (1, 2), (2, 3), (64, 1), (7, 1)], seed=0)
    @settings(max_examples=60, deadline=None)
    def test_advance_matches_write_back_loop(self, group, space, t2, depolarizing, target,
                                             recovery, runs, seed):
        dim = 4 if space == "ps" else 2
        noise = ne.clifford_noise_ptm(ne.NoiseModel(t2=(t2, t2), depolarizing_prob=depolarizing), dim)
        make = bench.physical_gateset if space == "ps" else bench.logical_gateset
        gateset = make(noise=noise, group=group)
        interleave = None
        if target is not None:
            word = bc.hadamard_word()
            applied = bench.ptm_of_unitary(bc.evaluate(word, "physical4" if space == "ps" else "logical2"))
            interleave = bench.NoisyGate(bc.evaluate(word, target), noise.compose(applied))
        lengths = np.array(sorted((m for m, count in runs for _ in range(count)), reverse=True))
        indices = _drawn_indices(lengths, seed)
        active = active_counts(lengths)
        recoveries = None
        if recovery:
            recoveries = np.random.default_rng(seed).integers(0, len(group), size=len(lengths))
        got = bench._advance(gateset, indices, active, interleave, recoveries)
        want = _write_back_advance(gateset, indices, active, interleave, recoveries)
        assert np.array_equal(got, want)

    @given(
        space=st.sampled_from(("ls", "ps")),
        t2=st.one_of(st.none(), st.floats(0.05, 5.0)),
        depolarizing=st.floats(0.0, 0.05),
        angle=st.floats(-0.2, 0.2),
        axis=st.sampled_from("xyz"),
        # long sequences let the float frames drift from the group elements
        lengths=st.lists(st.integers(1, 600), min_size=1, max_size=12),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_table_tracked_frames_match_float_frames(self, group, space, t2, depolarizing,
                                                     angle, axis, lengths, seed):
        dim = 4 if space == "ps" else 2
        model = ne.NoiseModel(t2=(t2, t2), depolarizing_prob=depolarizing,
                              over_rotation_angle=angle, over_rotation_axis=axis)
        make = bench.physical_gateset if space == "ps" else bench.logical_gateset
        gateset = make(noise=ne.clifford_noise_ptm(model, dim), group=group)
        lengths = np.array(sorted(lengths, reverse=True))
        indices = _philox.rng_for(seed, 0).integers(0, len(group), size=(lengths[0], len(lengths)))
        active = active_counts(lengths)
        recoveries = bench._recoveries(group, indices, active, None)
        got = bench._advance(gateset, indices, active, None, recoveries)
        want = _float_frame_survivals(gateset, indices, lengths)
        assert np.array_equal(got, want)

    @given(
        space=st.sampled_from(("ls", "ps")),
        t2=st.one_of(st.none(), st.floats(0.05, 5.0)),
        depolarizing=st.floats(0.0, 0.05),
        angle=st.floats(-0.2, 0.2),
        axis=st.sampled_from("xyz"),
        spam=st.one_of(st.none(), st.floats(0.0, 0.3)),
        target=st.sampled_from((None, "logical2", "physical4")),
        recovery=st.booleans(),
        k=st.integers(2, 6),
        m_values=st.lists(st.integers(1, 24), min_size=3, max_size=5, unique=True),
        seed=st.integers(0, 2**64 - 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_matches_one_by_one(self, group, space, t2, depolarizing, angle, axis,
                                        spam, target, recovery, k, m_values, seed):
        dim = 4 if space == "ps" else 2
        model = ne.NoiseModel(t2=(t2, t2), depolarizing_prob=depolarizing,
                              over_rotation_angle=angle, over_rotation_axis=axis)
        noise = ne.clifford_noise_ptm(model, dim)
        make = bench.physical_gateset if space == "ps" else bench.logical_gateset
        gateset = make(noise=noise, group=group)
        if spam is not None:
            gateset = gateset._replace(prep=bench.depolarizing_ptm(dim, spam).matrix @ gateset.prep)
        interleave = None
        if target is not None:
            # the frame unitary may be 2x2 or 4x4 in either space; the
            # transfer map acts in the gate set's space
            word = bc.hadamard_word()
            applied = bench.ptm_of_unitary(bc.evaluate(word, "physical4" if space == "ps" else "logical2"))
            interleave = bench.NoisyGate(bc.evaluate(word, target), noise.compose(applied))
        batched = bench._run_sequences(gateset, m_values, k, seed, interleave, recovery)
        expected = _sequences_one_by_one(gateset, m_values, k, seed, interleave, recovery)
        for got, want in zip(batched, expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    @given(
        space=st.sampled_from(("ls", "ps")),
        t2=st.floats(0.05, 5.0),
        depolarizing=st.floats(0.0, 0.05),
        spam=st.one_of(st.none(), st.floats(0.0, 0.3)),
        target=st.sampled_from((None, "logical2", "physical4")),
        recovery=st.booleans(),
        k=st.integers(2, 8),
        # unsorted, and past 64 draws (32 Philox words) per stream
        m_values=st.lists(st.integers(1, 130), min_size=3, max_size=6, unique=True),
        seed=st.integers(0, 2**64 - 4),
        # blocks that split a length, and one block
        block=st.sampled_from((1, 7, bench._SEQUENCE_BLOCK)),
    )
    @example(space="ps", t2=0.43, depolarizing=0.02, spam=0.1, target="physical4", recovery=True,
             k=5, m_values=[16, 130, 1, 65, 2], seed=2**64 - 4, block=bench._SEQUENCE_BLOCK)
    @settings(max_examples=30, deadline=None)
    def test_all_lengths_match_per_length(self, group, space, t2, depolarizing, spam,
                                          target, recovery, k, m_values, seed, block):
        dim = 4 if space == "ps" else 2
        noise = ne.clifford_noise_ptm(ne.NoiseModel(t2=(t2, t2), depolarizing_prob=depolarizing), dim)
        make = bench.physical_gateset if space == "ps" else bench.logical_gateset
        gateset = make(noise=noise, group=group)
        if spam is not None:
            gateset = gateset._replace(prep=bench.depolarizing_ptm(dim, spam).matrix @ gateset.prep)
        interleave = None
        if target is not None:
            word = bc.hadamard_word()
            applied = bench.ptm_of_unitary(bc.evaluate(word, "physical4" if space == "ps" else "logical2"))
            interleave = bench.NoisyGate(bc.evaluate(word, target), noise.compose(applied))
        with mock.patch.object(bench, "_SEQUENCE_BLOCK", block):
            got = bench._run_sequences(gateset, m_values, k, seed, interleave, recovery)
        want = _sequences_per_length(gateset, m_values, k, seed, interleave, recovery)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestPlan:
    @pytest.mark.parametrize("space", ["ls", "ps"])
    def test_warm_plan_runs_equal_cold_plan_runs(self, group, space):
        # two grids in turn, so every run either reuses the cached plan or replaces it
        model = ne.NoiseModel(t2=(0.43, 0.9), depolarizing_prob=0.02, over_rotation_angle=0.05)
        gateset = ne.clifford_gateset(model, space, group)
        target = ne.hadamard_target(model, space)
        runs = [(grid, k, seed, interleave, recovery)
                for grid, k in ((bench.DEFAULT_M_GRID, 6), ((3, 1, 130, 17), 4))
                for seed, interleave in ((5, None), (6, target))
                for recovery in (True, False)]
        warm = [bench._run_sequences(gateset, *run) for run in runs + runs]
        for run, (means, stds) in zip(runs + runs, warm):
            bench._plan.cache_clear()
            cold_means, cold_stds = bench._run_sequences(gateset, *run)
            assert means.tobytes() == cold_means.tobytes() and stds.tobytes() == cold_stds.tobytes()

    def test_patched_block_splits_the_plan(self, group):
        # test_all_lengths_match_per_length patches _SEQUENCE_BLOCK to split lengths across blocks
        m_values, k = (16, 130, 1, 65, 2), 5
        with mock.patch.object(bench, "_SEQUENCE_BLOCK", 7):
            bench._run_sequences(bench.logical_gateset(group=group), m_values, k, 0, None, True)
        hits = bench._plan.cache_info().hits
        plan = bench._plan(m_values, k, 7)
        assert bench._plan.cache_info().hits == hits + 1  # the plan that run used
        assert len(plan.blocks) == -(-len(m_values) * k // 7)
        assert [part.stop - part.start for part, _ in plan.blocks[:-1]] == [7] * (len(plan.blocks) - 1)
        for part, active in plan.blocks:
            lengths = plan.lengths[part]
            assert active == tuple(int(np.count_nonzero(lengths > t)) for t in range(lengths[0]))
        assert len(bench._plan(m_values, k, bench._SEQUENCE_BLOCK).blocks) == 1

    def test_arrays_are_read_only(self):
        plan = bench._plan(bench.DEFAULT_M_GRID, 30, bench._SEQUENCE_BLOCK)
        assert plan.order.tolist() == [6, 5, 4, 3, 2, 1, 0]
        assert plan.streams.dtype == np.uint64
        assert plan.streams[:31].tolist() == [6 * bench.MAX_SEQUENCES + ki for ki in range(30)] + [
            5 * bench.MAX_SEQUENCES]
        for array in (plan.order, plan.lengths, plan.streams):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_plan_holds_only_grid_facts(self):
        assert bench._Plan._fields == ("order", "lengths", "streams", "blocks")

    @pytest.mark.parametrize("m_values, k, block, lanes_per_chunk", [
        (bench.DEFAULT_M_GRID, 30, bench._SEQUENCE_BLOCK, _philox._PHILOX_LANES),
        ((16, 130, 1, 65, 2), 5, 7, 3),
        ((1, 2, bench.MAX_LENGTH), 512, bench._SEQUENCE_BLOCK, _philox._PHILOX_LANES),
    ])
    def test_lanes_are_read_only_and_built_per_call(self, m_values, k, block, lanes_per_chunk):
        # each block's draw builds its own lanes and keeps them in _philox's cache: each
        # stream's counter blocks from 0 in its own column, in chunks of at most _PHILOX_LANES,
        # in the smallest unsigned dtypes, 4 bytes a lane here
        plan = bench._plan(m_values, k, block)
        with mock.patch.object(_philox, "_PHILOX_LANES", lanes_per_chunk):
            for part, _ in plan.blocks:
                sizes = plan.lengths[part]
                _philox.draw(0, plan.streams[part], 24, sizes)
                misses = _philox._lanes.cache_info().misses
                lanes = _philox._lanes(sizes.tobytes(), lanes_per_chunk)
                assert _philox._lanes.cache_info().misses == misses  # the chunks that draw read
                assert len(lanes) == -(-int((-(-sizes // 8)).sum()) // lanes_per_chunk)
                for blocks, columns in lanes:
                    assert len(blocks) == len(columns) <= lanes_per_chunk
                    assert blocks.dtype == np.min_scalar_type(-(-int(sizes.max()) // 8))
                    assert columns.dtype == np.min_scalar_type(len(sizes) - 1)
                    assert blocks.dtype.itemsize + columns.dtype.itemsize <= 4
                    for array in (blocks, columns):
                        with pytest.raises(ValueError, match="read-only"):
                            array[0] = 0
                blocks, columns = (np.concatenate(parts) for parts in zip(*lanes))
                assert np.array_equal(columns, np.repeat(np.arange(len(sizes)), -(-sizes // 8)))
                assert np.array_equal(blocks, np.concatenate([np.arange(-(-m // 8)) for m in sizes]))


def test_lane_cache_is_keyed_by_chunk_size():
    # the same sizes drawn again at another _PHILOX_LANES must not reuse the cached chunks
    seed, ids, sizes = 7, np.array([3, 100_000, 5, 2**40], dtype=np.uint64), np.array([130, 1, 64, 17])
    _philox.draw(seed, ids, 24, sizes)
    counters = []
    philox_halves = _philox.philox_halves

    def recorded(seed, streams, blocks):
        counters.append(len(blocks))
        return philox_halves(seed, streams, blocks)

    with mock.patch.object(_philox, "_PHILOX_LANES", 3), mock.patch.object(_philox, "philox_halves", recorded):
        draws = _philox.draw(seed, ids, 24, sizes)
    lanes = int((-(-sizes // 8)).sum())
    assert counters == [3] * (lanes // 3) + [lanes % 3] * (lanes % 3 > 0)
    for column, (stream, m) in enumerate(zip(ids.tolist(), sizes.tolist())):
        np.testing.assert_array_equal(draws[:m, column], _philox.rng_for(seed, stream).integers(0, 24, size=m))


@given(
    seed=st.integers(0, 2**64 - 4),
    streams=st.lists(st.tuples(st.integers(0, 2**40), st.integers(1, 130)), min_size=1, max_size=6),
    # at 24 a redraw has probability 16 / 2**32 per draw; at 2**31 + 1 about
    # half and at 3 * 2**30 a quarter of the draws are redrawn, so those
    # streams are read again
    high=st.sampled_from((24, 2**31 + 1, 3 * 2**30)),
)
@example(2**64 - 4, [(6 * 100_000 + 29, 64), (0, 1), (6 * 100_000 + 29, 7)], 24)
@example(0, [(0, 130), (1, 129), (0, 2)], 2**31 + 1)
@settings(max_examples=40, deadline=None)
def test_stream_integers_match_rng_for(seed, streams, high):
    ids, sizes = (np.array(column) for column in zip(*streams))
    draws = _philox.draw(seed, ids.astype(np.uint64), high, sizes)
    # a stream may repeat after others: a reset must not carry state over
    for column, (stream, m) in enumerate(streams):
        np.testing.assert_array_equal(draws[:m, column],
                                      _philox.rng_for(seed, stream).integers(0, high, size=m))


@given(
    seed=st.integers(0, 2**64 - 1),
    streams=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(1, 130)), min_size=1, max_size=6),
    # at 2**31 + 1 about half the draws are redrawn, so most streams are read
    # again, and a stream's lanes straddle chunks of 3
    high=st.sampled_from((24, 2**31 + 1)),
)
@example(2**64 - 1, [(2**64 - 1, 130), (0, 1), (5, 17)], 2**31 + 1)
@settings(max_examples=40, deadline=None)
def test_draws_match_rng_for_across_lane_chunks(seed, streams, high):
    ids, sizes = np.array([s for s, _ in streams], dtype=np.uint64), np.array([m for _, m in streams])
    with mock.patch.object(_philox, "_PHILOX_LANES", 3):
        draws = _philox.draw(seed, ids, high, sizes)
    assert max(len(block) for block, _ in _philox._lanes(sizes.tobytes(), 3)) <= 3
    for column, (stream, m) in enumerate(streams):
        np.testing.assert_array_equal(draws[:m, column], _philox.rng_for(seed, stream).integers(0, high, size=m))


@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1), n=st.integers(1, 2048))
@example(0, 0, 1)
@example(2**64 - 1, 2**64 - 1, 2048)
@settings(max_examples=60, deadline=None)
def test_philox_halves_match_numpy_philox(seed, stream, n):
    blocks = -(-n // 4)
    halves = _philox.philox_halves(seed, np.full(blocks, stream, dtype=np.uint64),
                                   np.arange(1, blocks + 1))
    words = halves[:, 0::2] | (halves[:, 1::2] << np.uint64(32))
    raw = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)).random_raw(n)
    assert np.array_equal(words.ravel()[:n], raw)


def traced_peak(call):
    """tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stream_integers_memory_bounded():
    # 2 MiB of uint8 output, 1 MiB of cached Philox lanes and a few MiB of
    # working memory; int64 draws alone would take 16 MiB
    sizes = np.full(512, bench.MAX_LENGTH)
    _philox.draw(1, np.zeros(1, dtype=np.uint64), 24, sizes[:1])
    streams = np.arange(512, dtype=np.uint64)
    peak = traced_peak(lambda: _philox.draw(20230517, streams, 24, sizes))
    assert peak < 8 * 2**20


@pytest.mark.parametrize("make, space, interleaved", [
    pytest.param(make, space, interleaved, id=make.__name__ + ("-interleaved" if interleaved else ""))
    for interleaved in (False, True)
    for make, space in ((bench.logical_gateset, "logical2"), (bench.physical_gateset, "physical4"))
])
def test_longest_run_memory_bounded(group, make, space, interleaved):
    # 1536 sequences up to MAX_LENGTH: 6 MiB of step-major uint8 indices, no
    # transposed copy, the Philox lanes of one draw and one padded chunk of
    # the recovery frames
    gateset = make(group=group)
    target = None
    if interleaved:
        unitary = bc.evaluate(bc.hadamard_word(), space)
        target = bench.NoisyGate(unitary, bench.ptm_of_unitary(unitary))
    bench._run_sequences(gateset, (1, 2, 3), 2, 0, target, True)
    peak = traced_peak(lambda: bench._run_sequences(gateset, (1, 2, bench.MAX_LENGTH), 512,
                                                    20230517, target, True))
    assert peak <= 16 * 2**20


def test_rng_streams_deterministic_and_independent():
    a1 = _philox.rng_for(99, 0).integers(0, 1000, size=5)
    a2 = _philox.rng_for(99, 0).integers(0, 1000, size=5)
    b = _philox.rng_for(99, 1).integers(0, 1000, size=5)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
