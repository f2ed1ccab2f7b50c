"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from conftest import global_phase_sweep, haar_unitary
from fibanyon import anyon_model as am
from fibanyon import benchmark_suite as bench
from fibanyon import braid_compiler as bc
from fibanyon import braid_space as bs
from fibanyon import noise_engine as ne
from fibanyon import robustness_lab as rob
from fibanyon._linalg import dagger, phase_aligned_defect, unitarity_defect


def report(number: int, name: str, passed: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_category_consistency():
    start = time.perf_counter()
    ftable = am.FSymbolTable.fibonacci()
    rtable = am.RSymbolTable.fibonacci()
    pentagon = am.verify_pentagon(ftable)
    hexagon = am.verify_hexagon(ftable, rtable)
    elapsed = time.perf_counter() - start
    passed = pentagon.max_residual < 1e-12 and hexagon.max_residual < 1e-12 and elapsed < 1.0
    report(1, "category consistency", passed,
           f"pentagon={pentagon.max_residual:.2e} hexagon={hexagon.max_residual:.2e} "
           f"runtime={elapsed:.3f}s")


def test_criterion_02_matrix_oracles(sigma12_printed, sigma23_printed, b1_printed, b2_printed):
    s12, s23 = bs.sigma(12), bs.sigma(23)
    d12 = float(np.abs(s12 - sigma12_printed).max())
    d23 = float(np.abs(s23 - sigma23_printed).max())
    db1 = float(np.abs(bs.tree_conjugate(s12) - b1_printed).max())
    db2 = float(np.abs(bs.tree_conjugate(s23) - b2_printed).max())
    df = unitarity_defect(bs.tree_transform())
    passed = d12 < 1e-12 and d23 < 1e-12 and db1 < 1e-10 and db2 < 1e-10 and df < 1e-12
    report(2, "matrix oracles", passed,
           f"sigma12={d12:.2e} sigma23={d23:.2e} B1={db1:.2e} B2={db2:.2e} F-unitarity={df:.2e}")


def test_criterion_03_braid_group_laws():
    s12, s23 = bs.sigma(12), bs.sigma(23)
    yb = float(np.abs(s12 @ s23 @ s12 - s23 @ s12 @ s23).max())
    order = float(np.abs(np.linalg.matrix_power(s12, 10) - np.eye(4)).max())
    passed = yb < 1e-12 and order < 1e-12
    report(3, "braid-group laws", passed, f"yang-baxter={yb:.2e} sigma12^10-I={order:.2e}")


def test_criterion_04_logical_protection(logical12_printed, logical23_printed):
    rng = bench.rng_for(424242, 0)
    gens = [bs.sigma(12), bs.sigma(23), dagger(bs.sigma(12)), dagger(bs.sigma(23))]
    p_l = bs.logical_projector()
    worst_leak = 0.0
    for _ in range(1000):
        u = np.eye(4, dtype=complex)
        for _ in range(int(rng.integers(1, 51))):
            u = gens[rng.integers(4)] @ u
        worst_leak = max(worst_leak, float(np.linalg.norm((np.eye(4) - p_l) @ u @ p_l, 2)))

    logical12, leak12 = bs.logical_restrict(bs.sigma(12))
    logical23, leak23 = bs.logical_restrict(bs.sigma(23))
    d12 = float(np.abs(logical12 - logical12_printed).max())
    d23 = float(np.abs(logical23 - logical23_printed).max())
    passed = worst_leak < 1e-10 and d12 < 1e-12 and d23 < 1e-12 and max(leak12, leak23) < 1e-12
    report(4, "logical protection (algebraic)", passed,
           f"max leakage over 1000 words={worst_leak:.2e} sigma12_L={d12:.2e} sigma23_L={d23:.2e}")


def _independent_hadamard_distance_oracle(dps: int = 50) -> float:
    """Extended-precision distance oracle written independently of the
    package: constants from the golden-ratio quadratic, the word hardcoded
    from its operator-product form, the product accumulated right to left."""
    import mpmath as mp

    with mp.workdps(dps):
        phi = mp.findroot(lambda x: x * x - x - 1, mp.mpf(8) / 5)
        r_vac = mp.expjpi(mp.mpf(-4) / 5)
        r_tau = mp.expjpi(mp.mpf(3) / 5)
        g12 = mp.matrix([[r_vac, 0], [0, r_tau]])
        f2 = mp.matrix([
            [1 / phi, 1 / mp.sqrt(phi)],
            [1 / mp.sqrt(phi), -1 / phi],
        ])
        g23 = f2 * mp.matrix([[r_vac, 0], [0, r_tau]]) * f2
        inv = {12: g12.H, 23: g23.H}
        fwd = {12: g12, 23: g23}
        # operator product as written, leftmost factor outermost
        written = [(12, 4), (23, -2), (12, 2), (23, -2), (12, 2), (23, 2), (12, -2),
                   (23, 4), (12, 2), (23, -2), (12, -2), (23, 2), (12, 2)]
        u = mp.eye(2)
        for gen, power in written:
            base = fwd[gen] if power > 0 else inv[gen]
            for _ in range(abs(power)):
                u = u * base
        h = mp.matrix([[1, 1], [1, -1]]) / mp.sqrt(2)
        prod = h.H * u
        return float(mp.sqrt(4 - 2 * abs(prod[0, 0] + prod[1, 1])))


def test_criterion_05_hadamard_word():
    start = time.perf_counter()
    u = bc.evaluate(bc.hadamard_word(), "logical2")
    delta_double = bc.distance_up_to_phase(u, bc.hadamard_gate())
    eval_time = time.perf_counter() - start

    oracle = _independent_hadamard_distance_oracle()
    pinned = bc.HADAMARD_WORD_DISTANCE
    rel = abs(pinned - oracle) / oracle
    passed = (
        rel < 1e-12
        and delta_double < 0.01
        and abs(delta_double - pinned) < 1e-8
        and eval_time < 0.1
    )
    report(5, "hadamard word distance", passed,
           f"delta_H={pinned:.15f} oracle-rel-err={rel:.2e} double-dev={abs(delta_double - pinned):.2e} "
           f"runtime={eval_time * 1e3:.1f}ms")


def test_criterion_06_robustness_condition():
    start = time.perf_counter()
    results = [rob.extract_M(q) for q in (1, 2)]
    devs = [r.proportionality_deviation for r in results]
    sweeps = [global_phase_sweep(r.matrix, 20, bench.rng_for(7, r.q)) for r in results]
    elapsed = time.perf_counter() - start
    sweep_err = max(max(worst, spread) for worst, spread, _ in sweeps)
    passed = max(devs) < 1e-10 and sweep_err < 1e-9 and elapsed < 1.0
    report(6, "robustness of the logical qubit", passed,
           f"M1-dev={devs[0]:.2e} M2-dev={devs[1]:.2e} phase-sweep={sweep_err:.2e} "
           f"runtime={elapsed:.3f}s")


def _noisy_hadamard(noise):
    """The exact Hadamard followed by ``noise``, as an interleaving target."""
    return bench.NoisyGate(bc.hadamard_gate(), noise.compose(bench.ptm_of_unitary(bc.hadamard_gate())))


def test_criterion_07_benchmark_estimator_recovery():
    start = time.perf_counter()
    group = bench.CliffordGroup()
    m_grid = (1, 2, 4, 8, 16, 32, 64)

    # interleaved RB on depolarizing noise of known per-gate fidelity
    p = 0.011
    noise = bench.depolarizing_ptm(2, p)
    f_star = 1.0 - p / 2  # average gate fidelity of d = 2 depolarizing noise
    gateset = bench.logical_gateset(noise=noise, group=group)
    reference = bench.rb_reference(gateset, m_grid, k=30, seed=2024)
    target = _noisy_hadamard(noise)
    interleaved = bench.rb_interleaved(target, gateset, m_grid, k=30, seed=2024,
                                       reference=reference)
    rb_err = abs(interleaved.f_rb - f_star)

    # PB split on dephasing-only noise: coherent component vanishes
    lam = 3 * 0.9944 - 2
    deph = bench.dephasing_ptm(lam)
    gate_d = bench.logical_gateset(noise=deph, group=group)
    target_d = _noisy_hadamard(deph)
    rb_int_d = bench.rb_interleaved(target_d, gate_d, m_grid, 30, 77,
                                    bench.rb_reference(gate_d, m_grid, 30, 77))
    pb_ref_d = bench.pb_run(gate_d, None, m_grid, k=30, seed=78)
    pb_int_d = bench.pb_run(gate_d, target_d, m_grid, k=30, seed=78)
    budget_d = bench.error_budget(rb_int_d, pb_ref_d, pb_int_d, dim=2)

    # PB split on over-rotation-only noise: incoherent component vanishes
    over = bench.ptm_of_unitary(ne.over_rotation_unitary("z", 0.06))
    gate_o = bench.logical_gateset(group=group)
    target_o = _noisy_hadamard(over)
    rb_int_o = bench.rb_interleaved(target_o, gate_o, m_grid, 30, 79,
                                    bench.rb_reference(gate_o, m_grid, 30, 79))
    pb_ref_o = bench.pb_run(gate_o, None, m_grid, k=30, seed=80)
    pb_int_o = bench.pb_run(gate_o, target_o, m_grid, k=30, seed=80)
    budget_o = bench.error_budget(rb_int_o, pb_ref_o, pb_int_o, dim=2)

    elapsed = time.perf_counter() - start
    passed = (
        rb_err < 2e-3
        and abs(budget_d.coherent) < 3e-3
        and abs(budget_o.incoherent) < 3e-3
        and elapsed < 60.0
    )
    report(7, "benchmarking estimator recovery", passed,
           f"RB error={rb_err:.2e} dephasing-coherent={budget_d.coherent:.2e} "
           f"over-rotation-incoherent={budget_o.incoherent:.2e} runtime={elapsed:.1f}s")


def _monte_carlo_fidelity(kraus, ideal, n_samples, rng) -> float:
    """Plain Monte-Carlo Haar-state average of the gate fidelity."""
    z = rng.normal(size=(n_samples, 2)) + 1j * rng.normal(size=(n_samples, 2))
    states = z / np.linalg.norm(z, axis=1, keepdims=True)
    rotated = states @ ideal.T  # row n is U|psi_n>
    vals = np.zeros(n_samples)
    for k in kraus:
        amps = np.einsum("ni,ij,nj->n", rotated.conj(), k, states)
        vals += np.abs(amps) ** 2
    return float(vals.mean())


def _octahedral_frame_fidelity(kraus, ideal, v: np.ndarray) -> float:
    """State average over a rotated octahedral frame.

    The six states form a projective 2-design, so this equals the Haar
    average exactly -- a zero-variance independent oracle for the closed
    form, computed purely from Kraus operators."""
    isq = 1 / math.sqrt(2)
    frame = (np.array([1, 0]), np.array([0, 1]), np.array([isq, isq]),
             np.array([isq, -isq]), np.array([isq, 1j * isq]), np.array([isq, -1j * isq]))
    total = 0.0
    for base in frame:
        psi = v @ base
        phi = ideal @ psi
        total += sum(abs(np.vdot(phi, k @ psi)) ** 2 for k in kraus)
    return total / len(frame)


def test_criterion_08_fidelity_formula_cross_check():
    # the Monte-Carlo estimator has an intrinsic standard error around
    # 6e-4 at 1e5 samples, so the 1e-3 bound is verified at this pinned
    # seed (deterministic per the package's reproducibility contract); the
    # exact 2-design state average backs it up at full precision
    master = 20
    rng = bench.rng_for(master, 0)
    worst_mc = 0.0
    worst_frame = 0.0
    for index in range(20):
        rank = int(rng.integers(1, 5))
        big = haar_unitary(2 * rank, rng)
        iso = big[:, :2]
        kraus = [iso[i * 2:(i + 1) * 2, :] for i in range(rank)]
        ideal = haar_unitary(2, rng)

        def channel(rho, kraus=kraus):
            return sum(k @ rho @ dagger(k) for k in kraus)

        closed = bench.average_gate_fidelity(bench.qpt(channel, 2), ideal)
        mc = _monte_carlo_fidelity(kraus, ideal, 100_000, bench.rng_for(master, 100 + index))
        worst_mc = max(worst_mc, abs(closed - mc))
        frame = _octahedral_frame_fidelity(kraus, ideal, haar_unitary(2, bench.rng_for(master, 200 + index)))
        worst_frame = max(worst_frame, abs(closed - frame))
    passed = worst_mc < 1e-3 and worst_frame < 1e-12
    report(8, "fidelity formula cross-check", passed,
           f"worst Monte-Carlo gap over 20 channels={worst_mc:.2e}, "
           f"exact 2-design state-average gap={worst_frame:.2e}")


def test_criterion_09_noise_model_analytics():
    t2, dt = 0.23, 0.017
    plus_state = np.kron(np.array([1, 1]) / math.sqrt(2), np.array([1, 0]))
    plus = ne.DensityMatrix(np.outer(plus_state, plus_state))
    out = ne.apply_dephasing(plus, ne.NoiseModel(t2=(t2, None)).rates(), dt)
    analytic_err = abs(out.matrix[0, 2] - 0.5 * math.exp(-dt / t2))

    # purity never increases along simulated trajectories: the transfer maps
    # of growing prefixes of the Hadamard word
    monotone = True
    noise = ne.NoiseModel(t2=(0.2, 0.35))
    letters = bc.hadamard_word().letters
    for column in (0, 1):
        start = bs.logical_encoding()[:, column]
        rho = np.outer(start, start.conj())
        last = 1.0
        for n in range(1, len(letters) + 1):
            out = ne.word_ptm(bc.BraidWord(letters[:n]), noise).apply(rho)
            current = float(np.trace(out @ out).real)
            monotone &= current <= last + 1e-12
            last = current

    passed = analytic_err < 1e-12 and monotone
    report(9, "noise-model analytics", passed,
           f"dephasing-analytic-error={analytic_err:.2e} purity-monotone={monotone}")


def test_criterion_10_calibration_demonstration():
    cal = ne.calibrate_t2(bc.hadamard_word(), 0.9823)
    gap = abs(cal.fidelity - 0.9823)
    passed = gap < 5e-4
    report(10, "calibration demonstration", passed,
           f"found T2={cal.t2 * 1e3:.2f} ms for the 30 ms word, predicted fidelity "
           f"{cal.fidelity:.6f} (target 0.9823, gap {gap:.2e}); procedure: Brent root on "
           f"log T2 of the composed per-letter transfer maps, bracketed around the "
           f"T2 that the word's closed-form dephasing slope predicts")


def test_criterion_11_circuit_decomposition():
    worst = 0.0
    for generator in (12, 23):
        for power in (2, -2):
            circuit = ne.decompose_braiding(generator, power)
            target = np.linalg.matrix_power(bs.sigma(generator), power)
            worst = max(worst, phase_aligned_defect(circuit.compose(), target))

    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    swap_dev = 0.0
    for power in (2, -2):
        c12 = ne.decompose_braiding(12, power).compose()
        c23 = ne.decompose_braiding(23, power).compose()
        swap_dev = max(swap_dev, float(np.abs(swap @ c12 @ swap - c23).max()))

    passed = worst < 1e-10 and swap_dev < 1e-10
    report(11, "circuit decomposition", passed,
           f"composition-vs-braiding={worst:.2e} qubit-swap-relation={swap_dev:.2e}")
