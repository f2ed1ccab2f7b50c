"""Fit the same decays with two source trees' ``fit_decay`` and print every
result that differs by even one bit.

    python tools/compare_fits.py BASE_SRC HEAD_SRC [--synthetic N]

The decays are the 128 recorded rb-pb means (the four fits of each of the 32
cases in ``perfbench/references/rb-pb.json``, which is only read) and N
(default 4000) seeded synthetic RB and PB decays on the default grid.  The
synthetic draws cycle through four regimes: generic decays, rates within 1e-6
of 1 (some exactly 1), ``|B| < 0.02``, and rates near 1e-5, the last three
being where the fit is ill-conditioned.  Each tree fits all of them in one
``python`` process with ``PYTHONPATH`` set to that tree, so neither tree's
modules reach the other, and reports ``A``, ``B``, the rate and the residual
as hex floats, or the error a fit raised.

Unlike the ``curve_fit`` tests this oracle needs no scipy and none of its
private names.  The script exits 1 if any fit differs and 0 if all agree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references" / "rb-pb.json"
FITS = ("reference", "interleaved", "pb_reference", "pb_interleaved")
M_GRID = (1, 2, 4, 8, 16, 32, 64)
SEED = 2022
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
FIT_ALL = """
import json, sys
from fibanyon import benchmark_suite as bench
results = []
for model, means in json.load(sys.stdin):
    try:
        fit = bench.fit_decay(bench.DEFAULT_M_GRID, means, [0.0] * len(means), model)
        results.append([v.hex() for v in (fit.a, fit.b, fit.rate, fit.residual)])
    except Exception as exc:
        results.append(f"{type(exc).__name__}: {exc}")
json.dump(results, sys.stdout)
"""


def recorded_decays() -> list[tuple[str, str, list[float]]]:
    """Label, model and means of every recorded rb-pb fit."""
    cases = json.loads(REFERENCES.read_text())
    return [(f"{key} {fit}", cases[key][fit]["model"], cases[key][fit]["means"])
            for key in sorted(cases) for fit in FITS]


def synthetic_decays(count: int, seed: int = SEED) -> list[tuple[str, str, list[float]]]:
    """``count`` seeded noisy ``A + B r^m`` (rb) and ``A + B r^(m-1)`` (pb)
    decays, cycling through generic and near-degenerate regimes."""
    rng = np.random.default_rng(seed)
    m = np.array(M_GRID, dtype=float)
    decays = []
    for i in range(count):
        model = ("rb", "pb")[i % 2]
        regime = ("generic", "rate~1", "small B", "rate~1e-5")[i // 2 % 4]
        a, b = rng.uniform(0.0, 0.5), rng.uniform(-0.9, 0.9)
        if regime == "generic":
            rate = min(1.0, rng.uniform(0.5, 1.02))
        elif regime == "rate~1":
            rate = 1.0 if rng.random() < 0.2 else 1.0 - 10 ** rng.uniform(-9, -6)
        elif regime == "small B":
            rate, b = rng.uniform(0.5, 1.0), rng.uniform(-0.02, 0.02)
        else:
            rate = 10 ** rng.uniform(-5.5, -4.5)
        exponent = m if model == "rb" else m - 1
        means = a + b * rate**exponent + rng.normal(0.0, 10 ** rng.uniform(-6, -2), m.size)
        decays.append((f"synthetic {i} ({regime})", model, means.tolist()))
    return decays


def fit_all(src: Path, decays: list[tuple[str, str, list[float]]]) -> list:
    env = {**os.environ, **ENV, "PYTHONPATH": str(src)}
    payload = json.dumps([[model, means] for _, model, means in decays])
    child = subprocess.run([sys.executable, "-c", FIT_ALL], input=payload, env=env,
                           capture_output=True, text=True, timeout=1800)
    if child.returncode:
        sys.exit(f"fitting with the tree {src} failed:\n{child.stderr}")
    return json.loads(child.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--synthetic", type=int, default=4000)
    args = parser.parse_args(argv)
    decays = recorded_decays() + synthetic_decays(args.synthetic)
    base, head = (fit_all(src.resolve(), decays) for src in (args.base, args.head))
    differing = 0
    for (label, _, _), old, new in zip(decays, base, head):
        if old != new:
            differing += 1
            print(f"{label}: base {old}, head {new}")
    print(f"{len(decays) - differing}/{len(decays)} fits identical to the bit "
          f"({len(decays) - args.synthetic} recorded, {args.synthetic} synthetic)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
