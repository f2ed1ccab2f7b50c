"""Output checks: tolerant comparison against recorded references, and an
independent dephasing oracle for the noise-sweep workload.

Floats must agree to :data:`FLOAT_TOL` (ROADMAP aim 1).  Values produced by
an iterative solver are compared within that solver's stated tolerance
instead, because a different but equally converged solver may land
elsewhere inside it:

* decay-fit parameters and everything derived from them, within the
  least-squares convergence tolerance of ``scipy.optimize.curve_fit``
  (``xtol = ftol = 1e-8``); a fit's ``residual`` may be smaller than the
  reference's but not larger;
* the calibrated ``t2_seconds``, within the ``brentq`` root tolerance
  (``xtol = rtol = 1e-12`` on log T2) with headroom for bracketing.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from pathlib import Path

FLOAT_TOL = 1e-12
FIT_TOL = 1e-8
SOLVER_TOL = {"t2_seconds": 1e-10}

FIT_KEYS = frozenset({
    "A", "B", "rate", "f_rb", "per_gate_fidelity", "incoherent_per_gate",
    "incoherent_per_gate_reference", "total_infidelity", "incoherent", "coherent",
})
"""Fields that are decay-fit parameters or computed from them."""


def compare(value, reference, path: str = "") -> list[str]:
    """Differences between an output and its reference, as readable lines."""
    key = path.rsplit(".", 1)[-1]
    if isinstance(reference, dict):
        if not isinstance(value, dict) or set(value) != set(reference):
            return [f"{path}: keys {sorted(value) if isinstance(value, dict) else value!r}"
                    f" != {sorted(reference)}"]
        return [d for k in sorted(reference) for d in compare(value[k], reference[k], f"{path}.{k}")]
    if isinstance(reference, list):
        if not isinstance(value, list) or len(value) != len(reference):
            return [f"{path}: {value!r} != {reference!r}"]
        return [d for i, (v, r) in enumerate(zip(value, reference))
                for d in compare(v, r, f"{path}[{i}]")]
    numeric = (int, float)
    if (isinstance(reference, numeric) and not isinstance(reference, bool)
            and isinstance(value, numeric) and not isinstance(value, bool)):
        if key == "residual":
            ok = value <= reference + FLOAT_TOL
        elif key in FIT_KEYS:
            ok = abs(value - reference) <= FIT_TOL * (1.0 + abs(reference))
        elif key in SOLVER_TOL:
            ok = abs(value - reference) <= SOLVER_TOL[key] * max(1.0, abs(reference))
        else:
            ok = abs(value - reference) <= FLOAT_TOL * max(1.0, abs(reference))
        return [] if ok else [f"{path}: {value!r} != {reference!r}"]
    return [] if value == reference else [f"{path}: {value!r} != {reference!r}"]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_outputs(directory: Path) -> dict[str, object]:
    """Every file under ``directory``, parsed: JSON as data, CSV as rows of
    numbers (header cells stay strings)."""
    out: dict[str, object] = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        rel = path.relative_to(directory).as_posix()
        text = path.read_text()
        if path.suffix == ".json":
            out[rel] = json.loads(text)
        elif path.suffix == ".csv":
            out[rel] = [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]
        else:
            out[rel] = text
    return out


# ---------------------------------------------------------------------------
# Dephasing oracle
# ---------------------------------------------------------------------------

PHI = (1 + math.sqrt(5)) / 2


def _phase(x: float) -> complex:
    return cmath.exp(1j * math.pi * x)


def _generator(index: int):
    """Closed-form 4x4 edge-basis braid generators."""
    import numpy as np

    diag = _phase(4 / 5) / PHI
    off = _phase(7 / 5) / math.sqrt(PHI)
    if index == 12:
        rows = [[1, 0, 0, 0], [0, diag, 0, off], [0, 0, _phase(3 / 5), 0], [0, off, 0, -1 / PHI]]
    else:
        rows = [[1, 0, 0, 0], [0, _phase(3 / 5), 0, 0], [0, 0, diag, off], [0, 0, off, -1 / PHI]]
    return np.array(rows, dtype=complex)


def dephasing_oracle_fidelity(letters, t2: float, braiding_step: float = 2e-3) -> float:
    """Average gate fidelity of a braid word under per-letter Z dephasing.

    ``letters`` are ``(generator, power)`` pairs in application order.  Each
    letter is the superoperator ``D(dt) (U (x) conj(U))`` on row-major
    vectorised density matrices, where ``D`` is diagonal in the computational
    basis: entry ``(a, b)`` decays by ``exp(-dt * sum of 1/T2 over the qubits
    whose bits differ)``, and ``dt`` is half a braiding step per crossing.
    """
    import numpy as np

    bits = np.array([[(a >> 1) & 1, a & 1] for a in range(4)])
    differing = (bits[:, None, :] != bits[None, :, :]).sum(axis=2).reshape(16)
    gens = {g: _generator(g) for g in (12, 23)}
    total = np.eye(16, dtype=complex)
    ideal = np.eye(4, dtype=complex)
    for gen, power in letters:
        u = np.linalg.matrix_power(gens[gen], power)
        dt = abs(power) * braiding_step / 2.0
        decay = np.exp(-dt * differing / t2)
        total = (decay[:, None] * np.kron(u, u.conj())) @ total
        ideal = u @ ideal
    ideal_super = np.kron(ideal, ideal.conj())
    f_pro = float(np.trace(ideal_super.conj().T @ total).real) / 16.0
    return (4.0 * f_pro + 1.0) / 5.0
