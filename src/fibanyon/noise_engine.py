"""Open-system simulator for the two-qubit realization of the braided gates.

The physical register is two spin qubits with per-qubit transverse-relaxation
times.  Every gate applies its unitary, then a pure-dephasing channel for the
gate duration.  The dephasing channel multiplies every off-diagonal
density-matrix element by ``exp(-dt * sum_q 1/T2_q)`` where the sum runs over
the qubits whose z quantum numbers differ between the bra and ket index.

Braiding operations are realized at gate granularity: one squared-generator
operation takes :data:`BRAIDING_STEP_SECONDS`, so an elementary crossing
accounts for half of that.  Channels are Pauli transfer maps throughout: a
braid word is the composition of per-letter maps (:func:`word_ptm`), and
the noise after a Clifford pulse is :func:`clifford_noise_ptm`; both read
their dephasing-then-depolarizing diagonal from one rule.  As
``sigma ** 10`` is the identity, there are 38 distinct ideal letter transfer
matrices, one per generator and reduced power -9..9; they live in one fixed
read-only letter table, from which a word is gathered with one ``take``.
:func:`calibrate_t2` composes the same per-letter maps, rescaled for each
trial T2 by the word's unit dephasing exponents, and finds the
target with a Brent root on log T2, started from a bracket built around the
root that the word's closed-form fidelity slope at zero dephasing predicts.
Brent runs on the residual of the single-exponential model's log exponent,
which is linear in log T2 where the fidelity itself is strongly curved.
Density matrices appear only at the boundary: :func:`word_channel`
validates its input state as a :class:`DensityMatrix`, and
:func:`predict_gate_fidelity` rebuilds the map from that channel by process
tomography as a cross-check.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import benchmark_suite, braid_compiler, braid_space
from ._linalg import dagger, phase_aligned_defect
from .braid_compiler import BraidWord

BRAIDING_STEP_SECONDS = 2e-3
"""Control time of one squared-generator braiding operation."""

CLIFFORD_SECONDS = 5e-3
"""Control time of one logical Clifford pulse."""

_AXES = dict(zip("xyz", benchmark_suite.PAULI_1Q[1:]))


class DensityMatrix:
    """Validated mixed state on a 2^n-dimensional register."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("density matrix must be square")
        if np.abs(matrix - dagger(matrix)).max() > 1e-12:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(matrix).real - 1.0) > 1e-12:
            raise ValueError("density matrix must have unit trace")
        min_eig = float(np.linalg.eigvalsh(matrix).min())
        if min_eig < -1e-10:
            raise ValueError(f"density matrix not positive semidefinite (min eig {min_eig:.3e})")
        self.matrix = matrix
        self.dim = matrix.shape[0]


@dataclass(frozen=True)
class NoiseModel:
    """Decoherence and synthetic gate-noise parameters.

    ``t2`` holds one transverse-relaxation time per qubit (``None`` entries
    mean no dephasing).  The gate-level depolarizing probability and
    systematic over-rotation exist purely as synthetic noise sources for
    benchmarking tests.
    """

    t2: tuple[float | None, ...] = (None, None)
    braiding_step: float = BRAIDING_STEP_SECONDS
    clifford_duration: float = CLIFFORD_SECONDS
    depolarizing_prob: float = 0.0
    over_rotation_angle: float = 0.0
    over_rotation_axis: str = "z"

    def __post_init__(self) -> None:
        if len(self.t2) != 2:
            raise ValueError(f"expected one T2 time per qubit (2 entries), got {len(self.t2)}")
        for t in self.t2:
            if t is None:
                continue
            if not _is_real(t) or not math.isfinite(t) or t <= 0:
                raise ValueError(f"T2 times must be positive and finite (or null), got {t!r}")
        if math.isinf(sum(self.rates())):
            # an infinite rate times a zero duration would be NaN
            raise ValueError(f"T2 times are too short: the dephasing rate 1/T2 overflows, got {list(self.t2)!r}")
        for name in ("braiding_step", "clifford_duration"):
            value = getattr(self, name)
            if not _is_real(value) or not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be a finite non-negative duration, got {value!r}")
        if not _is_real(self.over_rotation_angle) or not math.isfinite(self.over_rotation_angle):
            raise ValueError(f"over-rotation angle must be a finite number, got {self.over_rotation_angle!r}")
        if not _is_real(self.depolarizing_prob) or not 0.0 <= self.depolarizing_prob <= 1.0:
            raise ValueError(f"depolarizing probability must be a number in [0, 1], got {self.depolarizing_prob!r}")
        if not isinstance(self.over_rotation_axis, str) or self.over_rotation_axis not in _AXES:
            raise ValueError(f"over-rotation axis must be one of x, y, z, got {self.over_rotation_axis!r}")

    def rates(self) -> tuple[float, ...]:
        """Per-qubit dephasing rates 1/T2 (0 for missing entries)."""
        return tuple(0.0 if t is None else 1.0 / t for t in self.t2)

    @classmethod
    def from_json(cls, path: str | Path) -> "NoiseModel":
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError("a noise model must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown noise model keys: {', '.join(unknown)}")
        if data.get("t2", ()) is None:
            del data["t2"]  # null means no dephasing, as when the key is absent
        if "t2" in data:
            if not isinstance(data["t2"], list):
                raise ValueError(f"t2 must be a list of one T2 time per qubit, got {data['t2']!r}")
            data["t2"] = tuple(data["t2"])
        return cls(**data)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def dephasing_factors(rates: Sequence[float], dt: float) -> np.ndarray:
    """Entrywise decay matrix of the z-basis dephasing channel.

    ``rates`` has one 1/T2 per qubit of a 2^n register; entry ``(a, b)`` is
    ``exp(-dt * sum of rates over qubits whose bit differs between a and b)``.
    """
    n = len(rates)
    index = np.arange(2**n)
    differing = ((index[:, None] ^ index[None, :])[..., None] >> np.arange(n - 1, -1, -1)) & 1
    return np.exp(-dt * (differing @ np.asarray(rates, dtype=float)))


def pauli_dephasing_rates(rates: Sequence[float]) -> np.ndarray:
    """Decay rate of every Pauli string under the z-basis dephasing channel.

    The channel is diagonal in the Pauli basis (lexicographic order, qubit 0
    leftmost): a string decays as ``exp(-dt * rate)``, where its rate sums
    ``rates`` over the qubits on which it holds X or Y.
    """
    n = len(rates)
    digits = (np.arange(4**n)[:, None] // 4 ** np.arange(n - 1, -1, -1)) % 4
    transverse = (digits == 1) | (digits == 2)
    return transverse @ np.asarray(rates, dtype=float)


def apply_dephasing(rho: DensityMatrix, rates: Sequence[float], dt: float) -> DensityMatrix:
    if 2 ** len(rates) != rho.dim:
        raise ValueError("one dephasing rate per qubit is required")
    return DensityMatrix(rho.matrix * dephasing_factors(rates, dt))


def over_rotation_unitary(axis: str, angle: float) -> np.ndarray:
    """Single-qubit systematic-error unitary exp(-i angle sigma_axis / 2)."""
    sigma = _AXES[axis]
    return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * sigma


# ---------------------------------------------------------------------------
# Gate-level simulation of braid words
# ---------------------------------------------------------------------------


def letter_duration(letter: braid_compiler.BraidLetter, noise: NoiseModel) -> float:
    """Control time of one braid letter: half a braiding step per crossing.

    The step is halved first, so the duration of a letter of power +-2 stays
    finite for every finite step."""
    return abs(letter.power) * (noise.braiding_step / 2.0)


def _noise_diagonal(noise: NoiseModel, duration: float | np.ndarray) -> np.ndarray:
    """Physical-space Pauli diagonal of z-basis dephasing over ``duration``
    followed by the depolarizing channel.

    Both channels are diagonal in the two-qubit Pauli basis: a string decays
    by ``exp(-duration * rate)`` (:func:`pauli_dephasing_rates`), and every
    string but the identity by ``1 - depolarizing_prob``.  A ``(L, 1)``
    column of durations gives one ``(L, 16)`` row per duration.  A string
    with rate 0 keeps factor 1 even where a duration overflowed to inf."""
    gamma = pauli_dephasing_rates(noise.rates())
    mixing = np.full(gamma.shape, 1.0 - noise.depolarizing_prob)
    mixing[0] = 1.0
    exponent = np.zeros(np.broadcast_shapes(np.shape(duration), gamma.shape))
    with np.errstate(over="ignore"):  # an overflowed exponent decays to exactly 0
        np.multiply(duration, gamma, out=exponent, where=gamma > 0)
    return np.exp(-exponent) * mixing


def clifford_noise_ptm(noise: NoiseModel, dim: int) -> benchmark_suite.PauliTransferMap:
    """Transfer map of the noise that follows every Clifford pulse.

    In the physical space (``dim`` 4) this is dephasing over
    ``clifford_duration`` and then the depolarizing channel, as after a braid
    letter.  The logical space (``dim`` 2) has no physical qubits to dephase,
    so the summed rate acts as an effective logical z-dephasing before the
    depolarizing channel.  The over-rotation comes last, on the encoded
    logical qubit in the physical space."""
    if dim == 4:
        diagonal = _noise_diagonal(noise, noise.clifford_duration)
    elif dim == 2:
        decay = float(np.exp(-noise.clifford_duration * sum(noise.rates())))
        mixing = 1.0 - noise.depolarizing_prob
        diagonal = [1.0, decay * mixing, decay * mixing, mixing]
    else:
        raise ValueError(f"Clifford noise acts in dimension 2 or 4, not {dim}")
    ptm = benchmark_suite.PauliTransferMap(np.diag(diagonal), dim)
    if noise.over_rotation_angle:
        u = over_rotation_unitary(noise.over_rotation_axis, noise.over_rotation_angle)
        if dim == 4:
            u = braid_space.logical_extension(u)
        ptm = benchmark_suite.ptm_of_unitary(u).compose(ptm)
    return ptm


# The letter table: the transfer matrices of the 38 distinct ideal braid
# letters, one row per generator and power -9..9 (braid_compiler.reduced_power),
# each written on first use into _IDEAL_ROWS and read through the read-only
# view _IDEAL.
_POWERS = 2 * braid_compiler.GENERATOR_ORDER - 1
_IDEAL_ROWS = np.empty((len(braid_space.GENERATOR_INDICES) * _POWERS, 16, 16))
_IDEAL = _IDEAL_ROWS.view()
_IDEAL.flags.writeable = False
# A letter's unit dephasing exponents per crossing: minus half a default
# braiding step times the number of qubits on which each Pauli string is
# transverse, as a (16, 1) column.
_CROSSING_EXPONENTS = -(BRAIDING_STEP_SECONDS / 2.0) * pauli_dephasing_rates((1.0, 1.0))[:, None]


@functools.lru_cache(maxsize=256)
def _letter_row(letter: braid_compiler.BraidLetter) -> int:
    """The row of the letter table that holds ``letter``, written first.
    Letters whose powers reduce alike write the same values to one row, so a
    gather needs no lock; the cache is bounded, so words with ever new powers
    take no more memory."""
    generator, power = letter
    power = braid_compiler.reduced_power(power)
    row = braid_space.GENERATOR_INDICES.index(generator) * _POWERS + power + _POWERS // 2
    u = braid_compiler.letter_matrix("physical4", generator, power)
    _IDEAL_ROWS[row] = benchmark_suite.ptm_of_unitary(u).matrix
    return row


def _word_terms(word: BraidWord) -> tuple[np.ndarray, np.ndarray]:
    """``(L, 16, 16)`` ideal transfer matrices of the word's letters, in
    application order, gathered from the letter table with one ``take``, and
    their ``(L, 16, 1)`` dephasing exponents at a unit common T2: each
    letter's duration at the default :data:`BRAIDING_STEP_SECONDS` times
    minus the number of qubits on which each Pauli string is transverse.

    The exponents are ``|power|`` times the per-crossing column, which is
    the duration times that count to the bit: the count is 0, 1 or 2."""
    letters = word.letters
    crossings = np.array([abs(power) for _, power in letters], dtype=float)
    return (_IDEAL.take([_letter_row(letter) for letter in letters], 0),
            np.multiply.outer(crossings, _CROSSING_EXPONENTS))


def _compose(letters: np.ndarray) -> np.ndarray:
    """Product of a stack of per-letter transfer matrices, the first letter
    acting first.

    Adjacent pairs are multiplied as one stacked product per level, an odd
    last matrix folded into the last pair, so a stack of L matrices takes
    about log2 L numpy calls rather than L - 1."""
    if len(letters) == 0:
        return np.eye(letters.shape[-1])
    while len(letters) > 1:
        pairs = letters[1::2] @ letters[:-1:2]
        if len(letters) % 2:
            pairs[-1] = letters[-1] @ pairs[-1]
        letters = pairs
    return letters[0]


def word_ptm(word: BraidWord, noise: NoiseModel) -> benchmark_suite.PauliTransferMap:
    """Physical-space transfer map of a braid word simulated letter by letter.

    Each letter is its ideal unitary followed by z-basis dephasing over the
    letter's duration and then the depolarizing channel; both noise channels
    are diagonal in the Pauli basis, so a letter is a row-scaled copy of the
    transfer matrix of its unitary, gathered from the letter table.  The
    over-rotation is Clifford noise only (:func:`clifford_noise_ptm`) and
    does not act here.
    """
    durations = np.array([letter_duration(letter, noise) for letter in word.letters])
    scaling = _noise_diagonal(noise, durations.reshape(-1, 1))[..., None]
    stack, _ = _word_terms(word)
    return benchmark_suite.PauliTransferMap(_compose(scaling * stack), 4)


def clifford_gateset(noise: NoiseModel, space: str,
                     group: benchmark_suite.CliffordGroup | None = None) -> benchmark_suite.GateSet:
    """The Clifford gate set of ``space`` (``"ps"`` or ``"ls"``), each pulse
    followed by :func:`clifford_noise_ptm`."""
    make = benchmark_suite.physical_gateset if space == "ps" else benchmark_suite.logical_gateset
    return make(noise=clifford_noise_ptm(noise, 4 if space == "ps" else 2), group=group)


def hadamard_target(noise: NoiseModel, space: str) -> benchmark_suite.NoisyGate:
    """The braided Hadamard as a noisy interleaving target: its composed
    transfer map (:func:`word_ptm`), projected to the logical qubit in the
    logical space."""
    word = braid_compiler.hadamard_word()
    ptm_ps = word_ptm(word, noise)
    if space == "ps":
        return benchmark_suite.NoisyGate(braid_compiler.evaluate(word, "physical4"), ptm_ps)
    return benchmark_suite.NoisyGate(braid_compiler.evaluate(word, "logical2"),
                                     benchmark_suite.project_to_logical(ptm_ps))


def word_channel(word: BraidWord, noise: NoiseModel) -> Callable[[np.ndarray], np.ndarray]:
    """Density-matrix map of a braid word: the closure validates its input as
    a :class:`DensityMatrix` and applies the composed :func:`word_ptm`."""
    ptm = word_ptm(word, noise)

    def channel(matrix: np.ndarray) -> np.ndarray:
        return ptm.apply(DensityMatrix(matrix).matrix)

    return channel


def predict_gate_fidelity(word: BraidWord, noise: NoiseModel) -> float:
    """Average gate fidelity of the noisy word against its ideal unitary,
    computed from the transfer map that process tomography reconstructs from
    :func:`word_channel` (which also probes the channel for linearity).

    This is the tomographic cross-check of :func:`calibrate_t2`, which
    composes the same per-letter maps without tomography."""
    ideal = braid_compiler.evaluate(word, "physical4")
    ptm = benchmark_suite.qpt(word_channel(word, noise), dim=4)
    return benchmark_suite.average_gate_fidelity(ptm, ideal)


T2_BOUNDS = (1e-3, 1e3)
"""Bracket, in seconds, of the common T2 that :func:`calibrate_t2` searches."""

MONOTONE_EXPONENT = 2.0
"""Dephasing exponent ``tau / T2`` (word duration over T2) up to which
:func:`calibrate_t2` takes a word's fidelity to be nondecreasing in T2 and no
lower than at any shorter T2.

Words of one or two letters are monotone at every T2: their process fidelity
is a sum of decaying exponentials with non-negative weights.  Longer words can
dip near the fully dephased floor.  Over 4350 random words of 1 to 200
letters, with powers up to 30 and a random generator at every letter, on a
600-point log grid of ``tau / T2`` in [1e-3, 1e3], the smallest exponent at
which the fidelity lay below its value at some shorter T2 was 5.4."""


class UnbracketedTargetError(ValueError):
    """The target fidelity is not reached between the T2 search bounds."""


@dataclass(frozen=True)
class CalibrationResult:
    t2: float
    fidelity: float
    target: float


def _t2_fidelity(word: BraidWord) -> Callable[[float], float]:
    """Average gate fidelity of the word, under a common per-qubit T2 and no
    other noise, as a function of that T2.

    Everything that does not depend on T2 is done here, once: the letters'
    transfer-matrix stack, gathered from the letter table, and their unit
    dephasing exponents (:func:`_word_terms`), and the ideal transfer
    matrix, the noiseless product of the same stack.  An evaluation is then
    one exp, a row scaling, about log2 L stacked matmuls and one dot product:
    the arithmetic of :func:`word_ptm`, up to rounding."""
    stack, exponents = _word_terms(word)
    ideal = _compose(stack)

    def fidelity(t2: float) -> float:
        return benchmark_suite._average_fidelity(_compose(np.exp(exponents / t2) * stack), ideal, 4)

    return fidelity


def _log_exponent(average_fidelity: float) -> float:
    """``log(tau / T2)`` at which the single-exponential model
    ``f_pro = exp(-tau / T2)`` gives the two-qubit ``average_fidelity``
    (``f_pro = (5 F - 1) / 4``); the process fidelity is clipped into
    (0, 1), so the result is always finite."""
    f_pro = (5.0 * average_fidelity - 1.0) / 4.0
    # min(max(f_pro, 1e-300), 1 - 2**-53), without the two builtin calls
    clipped = 1e-300 if 1e-300 > f_pro else 1.0 - 2**-53 if 1.0 - 2**-53 < f_pro else f_pro
    return math.log(-math.log(clipped))


def _brent_root(f: Callable[[float], float], a: float, b: float, fa: float, fb: float) -> float:
    """Root of ``f`` between ``a`` and ``b`` by Brent's method (R. P. Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4).

    ``fa`` and ``fb`` are ``f(a)`` and ``f(b)``, of opposite signs or zero.
    Each step takes an inverse-quadratic or secant step when it stays well
    inside the bracket and a bisection otherwise, and the search stops once
    the bracket is narrower than ``xtol + rtol * |x|``, with xtol = rtol =
    1e-12.  Returns the best estimate, a point at which ``f`` has been
    evaluated.
    """
    xtol = rtol = 1e-12
    if fa == 0:
        return a
    if fb == 0:
        return b
    # cur: best estimate; blk: the other end of the bracket; pre: the previous estimate
    xpre, fpre, xcur, fcur = a, fa, b, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise RuntimeError("root search did not converge in 100 steps")


_LOG_T2_BOUNDS = (math.log(T2_BOUNDS[0]), math.log(T2_BOUNDS[1]))
_LOG_MONOTONE_EXPONENT = math.log(MONOTONE_EXPONENT)


def _unbracketed(target_fidelity: float) -> UnbracketedTargetError:
    return UnbracketedTargetError(
        f"target fidelity {target_fidelity!r} lies outside the fidelities "
        f"reached between T2 = {T2_BOUNDS[0]:g} s and {T2_BOUNDS[1]:g} s"
    )


def calibrate_t2(word: BraidWord, target_fidelity: float) -> CalibrationResult:
    """Find a common per-qubit T2 in :data:`T2_BOUNDS` at which the simulated
    word fidelity hits the target, by Brent's method on log T2 to ``xtol =
    rtol = 1e-12``.  The word's T2-independent set-up is
    :func:`_t2_fidelity`.  A NaN target raises ``ValueError``, and one that
    the bracket does not reach :class:`UnbracketedTargetError`.

    The search brackets its root from the word's physics before Brent starts.
    With word duration ``tau`` (half a :data:`BRAIDING_STEP_SECONDS` per
    crossing), the average gate fidelity falls from 1 with slope ``-(4/5)
    tau`` in 1/T2: each letter's dephasing acts through an orthogonal transfer
    matrix, so only its trace counts.  The model ``f_pro = exp(-tau / T2)``,
    with ``f_pro = (5 F - 1) / 4``, gives the first trial T2.  The exponent
    that this evaluation implies gives the second, a little past the model's
    root, and the steps then double until the fidelity crosses the target.
    Every trial is clamped to :data:`T2_BOUNDS`, and the target is
    unbracketed when the fidelity at the bound reached has not crossed it.

    Brent then runs not on the gap ``F - target`` but on the residual of the
    model's log exponent, ``log(tau / T2)`` at the target minus that at the
    word's fidelity (:func:`_log_exponent`).  For a single-exponential decay
    the residual is exactly linear in log T2, so the secant and
    inverse-quadratic steps land close to the root, where the raw gap is
    strongly curved.  The log exponent is nonincreasing in F, so the residual
    never has the sign opposite to the gap's, and it is zero at a nonzero
    gap only where F and the target round to the same process fidelity,
    within an ulp of each other.  Its values at the bracket ends come from
    the fidelities already evaluated there; about 4.7 evaluations reach a
    target in [0.90, 0.99] on words of up to 15 letters.

    The fidelity is not monotone in T2 for every word: some words of three
    or more letters dip by up to about 1e-3 near the fully dephased floor.
    Above ``T2 = tau / MONOTONE_EXPONENT`` it is nondecreasing and at least
    its value at any shorter T2.  When the bracket reaches below that T2, the
    fidelity at the lower bound is checked as well, and so is the one at the
    upper bound when that bound too lies below it (past two million
    crossings).  So the target is unbracketed exactly when it lies below the
    fidelity at the lower bound or above that at the upper bound, as with a
    search over the whole bracket, and a target just above the lower bound's
    fidelity may have more than one root, of which one is returned.

    Every fidelity, the reported one included, is the average gate fidelity
    of the word's composed transfer map (:func:`word_ptm`'s, up to rounding)
    against the noiseless product of the same letters, and the reported one
    is the fidelity evaluated at the returned T2;
    :func:`predict_gate_fidelity` computes the same number by tomography."""
    if math.isnan(target_fidelity):
        raise ValueError(f"target fidelity {target_fidelity!r} is not a number")
    fidelity = _t2_fidelity(word)
    evaluated: dict[float, tuple[float, float]] = {}  # log T2 -> (fidelity, residual)

    def residual(log_t2: float) -> float:
        if log_t2 not in evaluated:
            at = fidelity(math.exp(log_t2))
            evaluated[log_t2] = at, log_target - _log_exponent(at)
        return evaluated[log_t2][1]

    def gap(log_t2: float) -> float:
        residual(log_t2)
        return evaluated[log_t2][0] - target_fidelity

    lo, hi = _LOG_T2_BOUNDS
    tau = word.crossing_count * BRAIDING_STEP_SECONDS / 2
    log_tau = math.log(tau) if tau else -math.inf
    log_target = _log_exponent(target_fidelity)
    x = min(max(log_tau - log_target, lo), hi)
    gx = gap(x)
    # past the model's root for the exponent implied at x by a tenth of the step, at least 1e-3
    step = math.copysign(max(1.1 * abs(residual(x)), 1e-3), -gx)
    y, gy = x, gx
    while gy and (gy < 0) == (gx < 0):
        if y == (lo if gx > 0 else hi):
            raise _unbracketed(target_fidelity)
        x, gx = y, gy
        y = min(max(x + step, lo), hi)
        gy = gap(y)
        step *= 2
    a, b = (y, x) if y < x else (x, y)
    # below T2 = tau / MONOTONE_EXPONENT a bound's fidelity may lie on the
    # other side of the target from the bracket end nearest to it
    monotone_from = log_tau - _LOG_MONOTONE_EXPONENT
    if (lo < a < monotone_from and gap(lo) > 0) or (b < hi < monotone_from and gap(hi) < 0):
        raise _unbracketed(target_fidelity)
    log_t2 = _brent_root(residual, a, b, residual(a), residual(b))
    return CalibrationResult(t2=math.exp(log_t2), fidelity=evaluated[log_t2][0], target=target_fidelity)


# ---------------------------------------------------------------------------
# Two-CNOT circuit decomposition of squared-generator braiding operations
# ---------------------------------------------------------------------------

class CNOT(NamedTuple):
    control: int
    target: int

    def matrix(self) -> np.ndarray:
        u = np.zeros((4, 4), dtype=complex)
        for a in (0, 1):
            for b in (0, 1):
                bits = [a, b]
                if bits[self.control]:
                    bits[self.target] ^= 1
                u[(bits[0] << 1) | bits[1], (a << 1) | b] = 1.0
        return u


class Rotation(NamedTuple):
    qubit: int
    axis: str
    angle: float

    def matrix(self) -> np.ndarray:
        single = over_rotation_unitary(self.axis, self.angle)
        eye = np.eye(2)
        return np.kron(single, eye) if self.qubit == 0 else np.kron(eye, single)


Gate = CNOT | Rotation


class CircuitDecomposition(NamedTuple):
    """Two-CNOT circuit equal to a squared-generator braiding operation up to
    a global phase.  Gates are listed in application order."""

    operation: tuple[int, int]          # (generator index, power)
    gates: tuple[Gate, ...]

    def compose(self) -> np.ndarray:
        u = np.eye(4, dtype=complex)
        for gate in self.gates:
            u = gate.matrix() @ u
        return u


def _zyz_angles(u: np.ndarray) -> tuple[float, float, float, float]:
    """u = e^{i alpha} Rz(b) Ry(c) Rz(d)."""
    alpha = 0.5 * np.angle(np.linalg.det(u))
    su = u * np.exp(-1j * alpha)
    c = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    sum_bd = 2.0 * np.angle(su[1, 1]) if abs(su[1, 1]) > 1e-12 else 0.0
    diff_bd = 2.0 * np.angle(su[1, 0]) if abs(su[1, 0]) > 1e-12 else 0.0
    b = (sum_bd + diff_bd) / 2.0
    d = (sum_bd - diff_bd) / 2.0
    return alpha, b, c, d


def decompose_braiding(generator: int, power: int) -> CircuitDecomposition:
    """Decompose ``sigma_generator^power`` (power in {+2, -2}) into two
    controlled-NOT gates and single-qubit rotations.

    The squared generators are controlled single-qubit gates: ``sigma12^2``
    acts on the first edge qubit controlled by the second, ``sigma23^2`` the
    same circuit with the qubit roles swapped.  The controlled part uses the
    standard two-CNOT similarity decomposition of a controlled unitary.
    """
    if generator not in braid_space.GENERATOR_INDICES or power not in (2, -2):
        raise ValueError("supported operations are sigma12/sigma23 to the powers +2 or -2")
    u = braid_compiler.letter_matrix("physical4", generator, power)
    if generator == 12:
        control, target = 1, 0
    else:
        control, target = 0, 1

    def block(ctrl_value: int) -> np.ndarray:
        idx = [(j << 1) | ctrl_value if control == 1 else (ctrl_value << 1) | j for j in (0, 1)]
        return u[np.ix_(idx, idx)]

    a0 = block(0)
    w = dagger(a0) @ block(1)
    alpha0, b0, c0, d0 = _zyz_angles(a0)
    alpha, b, c, d = _zyz_angles(w)

    gates: list[Gate] = [
        # phase of the controlled-W, absorbed into a control-qubit z rotation
        Rotation(control, "z", alpha),
        Rotation(target, "z", (d - b) / 2.0),
        CNOT(control, target),
        Rotation(target, "z", -(d + b) / 2.0),
        Rotation(target, "y", -c / 2.0),
        CNOT(control, target),
        Rotation(target, "y", c / 2.0),
        Rotation(target, "z", b),
        # the unconditional branch acting on the target qubit
        Rotation(target, "z", d0),
        Rotation(target, "y", c0),
        Rotation(target, "z", b0),
    ]
    circuit = CircuitDecomposition(operation=(generator, power), gates=tuple(gates))
    residual = phase_aligned_defect(circuit.compose(), u)
    if residual > 1e-10:
        raise AssertionError(f"decomposition failed to reproduce the braiding operation ({residual:.2e})")
    return circuit
