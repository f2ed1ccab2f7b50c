"""What printed numbers mean.

Each row checks one printed quantity against its definition, computed from
first principles (the Kraus operators or the unitary, not the transfer map
the package computes it from), and has a negative control: a plausible wrong
formula must fail the same oracle.

| quantity | printed in | definition | dimension |
| --- | --- | --- | --- |
| ``trace_preserving_defect`` | ``benchmark --protocol qpt``: ``fidelity.json`` | ``max_j abs(tr E(P_j) / d - delta_j0)`` over the Paulis ``P_j`` of the channel's space | trace |
| ``leakage`` | ``compile --word``: stdout and the ``--out`` JSON | spectral norm of ``(1 - P_L) U iso``: the largest amplitude a logical state sends out of the logical space | amplitude |
| ``fidelity`` | ``calibrate``: stdout and the ``--out`` JSON | average of ``<psi| U† E(psi) U |psi>`` over a two-qubit state 2-design, E the Hadamard word under the returned common T2 | fidelity |
| ``average_gate_fidelity`` | ``benchmark --protocol qpt --space ps``: ``fidelity.json`` | the same average, E the Hadamard word under the ``--noise`` model's T2 times | fidelity |
| ``channel_oracle_fidelity`` | ``benchmark --protocol rb --interleave-hadamard --space ps``: ``rb_fit.json``'s ``interleaved`` | the same average, E the Hadamard word under the ``--noise`` model's T2 times | fidelity |

The fidelity oracles step E letter by letter as a density matrix: the
letter's unitary, then the Schur-product dephasing that ``noise_engine``'s
module docstring defines.  The logical-space ``average_gate_fidelity`` and
``channel_oracle_fidelity`` have no row: their map leaks, and the formula they
use assumes a trace-preserving map.
"""

import functools
import itertools
import json
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import haar_unitary
from fibanyon import benchmark_suite as bench
from fibanyon import braid_compiler as bc
from fibanyon import braid_space as bs
from fibanyon import cli
from fibanyon import noise_engine as ne

TOL = 1e-12
SEEDS = st.integers(0, 2**32 - 1)
T2S = st.floats(5e-3, 10.0)
WORDS = st.lists(st.tuples(st.sampled_from((12, 23)), st.sampled_from([p for p in range(-12, 13) if p])),
                 min_size=1, max_size=12)
_PAULI = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))


@functools.cache
def paulis(d: int) -> tuple[np.ndarray, ...]:
    """The unnormalized Paulis of a ``d``-dimensional space, identity first."""
    n = d.bit_length() - 1
    return tuple(functools.reduce(np.kron, factors, np.eye(1)) for factors in itertools.product(_PAULI, repeat=n))


def random_kraus(d: int, rank: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Kraus operators of a random CPTP channel: the blocks of a Haar-random
    Stinespring isometry."""
    iso = haar_unitary(d * rank, rng)[:, :d]
    return [iso[i * d:(i + 1) * d] for i in range(rank)]


def kraus_channel(kraus):
    return lambda rho: sum(k @ rho @ k.conj().T for k in kraus)


def projected(kraus: list[np.ndarray]) -> list[np.ndarray]:
    """Kraus operators of ``rho -> iso† E(iso rho iso†) iso`` on the logical qubit."""
    iso = bs.logical_encoding()
    return [iso.conj().T @ k @ iso for k in kraus]


def trace_defect(kraus: list[np.ndarray]) -> float:
    """``max_j abs(tr E(P_j) / d - delta_j0)`` from the Kraus operators."""
    d = len(kraus[0])
    traces = [np.trace(kraus_channel(kraus)(p)) / d for p in paulis(d)]
    return max(abs(t - (j == 0)) for j, t in enumerate(traces))


def column_zero_defect(ptm: bench.PauliTransferMap) -> float:
    """A wrong formula: the transfer map's column 0, the image of the
    identity, in place of its row 0."""
    column = ptm.matrix[:, 0].copy()
    column[0] -= 1.0
    return float(np.abs(column).max())


@functools.cache
def mub_states() -> np.ndarray:
    """The 20 states of the five mutually unbiased bases of two qubits, a state
    2-design: each basis is the common eigenbasis of one of the five commuting
    triples into which the 15 non-identity two-qubit Paulis split."""
    pauli = dict(zip("IXYZ", _PAULI))
    states = []
    for first, second in (("ZI", "IZ"), ("XI", "IX"), ("YI", "IY"), ("XY", "YZ"), ("YX", "ZY")):
        a, b = (np.kron(pauli[p], pauli[q]) for p, q in (first, second))
        states.extend(np.linalg.eigh(a + 2 * b)[1].T)  # eigenvalues -3, -1, 1, 3: one state each
    return np.array(states)


def stepped_fidelity(word: bc.BraidWord, t2: tuple[float | None, float | None]) -> float:
    """Average over :func:`mub_states` of ``<psi| U† E(psi) U |psi>``, where E
    steps a density matrix letter by letter: the letter's unitary, then every
    entry ``rho[a, b]`` times ``exp(-dt * sum of 1/T2_q)`` over the qubits q
    (qubit 0 the high bit) whose bits differ between a and b, for the
    letter's duration dt of half a braiding step per crossing."""
    rates = [0.0 if t is None else 1.0 / t for t in t2]
    differing = [[sum(r for q, r in enumerate(rates) if (a ^ b) >> (1 - q) & 1) for b in range(4)] for a in range(4)]
    u = bc.evaluate(word, "physical4")
    total = 0.0
    for psi in mub_states():
        rho = np.outer(psi, psi.conj())
        for generator, power in word.letters:
            v = bc.letter_matrix("physical4", generator, power)
            rho = v @ rho @ v.conj().T * np.exp(-abs(power) * ne.BRAIDING_STEP_SECONDS / 2 * np.array(differing))
        ideal = u @ psi
        total += (ideal.conj() @ rho @ ideal).real
    return float(total / len(mub_states()))


def over_d_fidelity(word: bc.BraidWord, t2: tuple[float | None, float | None]) -> float:
    """A wrong formula: ``(d F_pro + 1) / d``, with d in place of d + 1."""
    ptm, ideal = ne.word_ptm(word, ne.NoiseModel(t2=t2)), bench.ptm_of_unitary(bc.evaluate(word, "physical4"))
    return (4 * np.sum(ptm.matrix * ideal.matrix) / 16 + 1) / 4


def leakage_oracle(u: np.ndarray) -> float:
    """``sqrt(1 - sigma_min(iso† U iso)^2)``: a unitary keeps each logical
    state's norm, so what the logical block loses of it has left the space."""
    iso = bs.logical_encoding()
    sigma_min = np.linalg.svd(iso.conj().T @ u @ iso, compute_uv=False).min()
    return float(np.sqrt(max(0.0, 1.0 - sigma_min**2)))


def frobenius_leakage(u: np.ndarray) -> float:
    """A wrong formula: the Frobenius norm of ``(1 - P_L) U iso`` in place of
    the spectral norm."""
    iso = bs.logical_encoding()
    return float(np.linalg.norm((np.eye(4) - iso @ iso.conj().T) @ u @ iso))


class TestTracePreservingDefect:
    @given(seed=SEEDS, d=st.sampled_from((2, 4)))
    @settings(max_examples=30, deadline=None)
    def test_unitary_maps(self, seed, d):
        u = haar_unitary(d, np.random.default_rng(seed))
        assert abs(bench.ptm_of_unitary(u).trace_preserving_defect - trace_defect([u])) <= TOL

    @given(seed=SEEDS, rank=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_cptp_maps_and_their_logical_projections(self, seed, rank):
        # a CPTP map of the physical space preserves the trace; compressed to the
        # logical qubit it loses what leaks, which the defect must report
        kraus = random_kraus(4, rank, np.random.default_rng(seed))
        ptm = bench.qpt(kraus_channel(kraus), 4)
        assert abs(ptm.trace_preserving_defect - trace_defect(kraus)) <= TOL
        logical = bench.project_to_logical(ptm)
        assert abs(logical.trace_preserving_defect - trace_defect(projected(kraus))) <= TOL

    def test_column_zero_fails_the_oracle(self):
        # a CPTP map of rank 2 preserves the trace but not the identity, so its column 0
        # is off (1, 0, ..., 0); on the projected maps both formulas take their maximum
        # at the shared entry R[0, 0], so only the physical maps tell them apart
        for seed in range(10):
            kraus = random_kraus(4, 2, np.random.default_rng(seed))
            ptm = bench.qpt(kraus_channel(kraus), 4)
            assert abs(column_zero_defect(ptm) - trace_defect(kraus)) > 1e-3


class TestLeakage:
    # braid words do not leak, so Haar-random unitaries stand in for leaking gates
    @given(seed=SEEDS)
    @settings(max_examples=50, deadline=None)
    def test_spectral_norm_of_what_leaves(self, seed):
        u = haar_unitary(4, np.random.default_rng(seed))
        _, leakage = bs.logical_restrict(u)
        assert abs(leakage - leakage_oracle(u)) <= 1e-10

    def test_frobenius_norm_fails_the_oracle(self):
        for seed in range(10):
            u = haar_unitary(4, np.random.default_rng(seed))
            assert frobenius_leakage(u) - leakage_oracle(u) > 1e-3


def run_cli(argv: list[str]) -> str:
    out = StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


class TestAverageGateFidelity:
    def test_mub_states_are_a_2_design(self):
        # the frame potential of N states in d = 4 is at least 2 / (d (d + 1)), with equality
        # exactly for a 2-design
        states = mub_states()
        assert states.shape == (20, 4)
        assert abs(np.mean(np.abs(states.conj() @ states.T) ** 4) - 2 / 20) <= TOL

    @given(letters=WORDS, t2=st.tuples(st.one_of(st.none(), T2S), st.one_of(st.none(), T2S)))
    @settings(max_examples=40, deadline=None)
    def test_word_transfer_maps(self, letters, t2):
        word = bc.BraidWord.from_letters(letters)
        got = bench.average_gate_fidelity(ne.word_ptm(word, ne.NoiseModel(t2=t2)), bc.evaluate(word, "physical4"))
        assert abs(got - stepped_fidelity(word, t2)) <= TOL

    @given(t2=st.tuples(T2S, T2S))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_ps_qpt_fidelity_json(self, tmp_path, t2):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"t2": list(t2)}))
        run_cli(["benchmark", "--protocol", "qpt", "--space", "ps", "--noise", str(noise), "--out", str(tmp_path)])
        run_cli(["benchmark", "--protocol", "rb", "--interleave-hadamard", "--space", "ps", "--k", "2",
                 "--m-grid", "1", "2", "3", "--noise", str(noise), "--out", str(tmp_path)])
        want = stepped_fidelity(bc.hadamard_word(), t2)
        qpt = json.loads((tmp_path / "fidelity.json").read_text())["average_gate_fidelity"]
        rb = json.loads((tmp_path / "rb_fit.json").read_text())["interleaved"]["channel_oracle_fidelity"]
        assert abs(qpt - want) <= TOL
        assert abs(rb - want) <= TOL

    @given(letters=WORDS, t2=T2S)
    @settings(max_examples=20, deadline=None)
    def test_calibrated_fidelity(self, letters, t2):
        # a target the word reaches at t2; the fidelity reported is the one at the T2 returned
        word = bc.BraidWord.from_letters(letters)
        try:
            result = ne.calibrate_t2(word, stepped_fidelity(word, (t2, t2)))
        except ne.UnbracketedTargetError:
            assume(False)
        assert abs(result.fidelity - stepped_fidelity(word, (result.t2, result.t2))) <= TOL

    @given(t2=st.tuples(T2S, T2S))
    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_calibrate_stdout_and_json(self, tmp_path, t2):
        word, out = bc.hadamard_word(), tmp_path / "calibrate.json"
        targets = [stepped_fidelity(word, (t, t)) for t in t2]  # each reached between T2_BOUNDS
        stdout = run_cli(["calibrate", "--target", repr(targets[0]), "--star-target", repr(targets[1]),
                          "--out", str(out)])
        results, lines = json.loads(out.read_text()), stdout.splitlines()
        assert [line.split(":")[0] for line in lines] == ["t2", "t2_star"]
        for line, label in zip(lines, ("t2", "t2_star")):
            result = results[label]
            want = stepped_fidelity(word, (result["t2_seconds"], result["t2_seconds"]))
            assert abs(result["fidelity"] - want) <= TOL
            # stdout prints six decimals
            assert abs(float(line.split("fidelity ")[1].split()[0]) - want) <= 5e-7 + TOL

    def test_d_in_place_of_d_plus_1_fails_the_oracle(self):
        for t2 in ((None, None), (0.05, 0.2), (1.0, 1.0)):
            word = bc.hadamard_word()
            assert abs(over_d_fidelity(word, t2) - stepped_fidelity(word, t2)) > 1e-3
