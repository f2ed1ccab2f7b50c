"""Calibrate the same words with two source trees' ``noise_engine`` and print
every result that differs by even one bit.

    python tools/compare_calibrations.py BASE_SRC HEAD_SRC [--rounds N]

The calibrations are those of N (default 500) seeded noise-sweep rounds,
each word parsed with ``BraidWord.from_string`` and calibrated with
``calibrate_t2`` as the workload's task does (the rounds come from
``perfbench/workloads.py``, which is only imported), and those of
``calibrate_t2_each`` on the Hadamard word: once at ``fibanyon calibrate``'s
default targets, and once per unbracketed or invalid target, each after the
default T2 target as when ``calibrate`` meets it second.  Each tree runs all of
them in one ``python`` process with ``PYTHONPATH`` set to that tree, so neither
tree's modules reach the other, and reports ``t2`` and ``fidelity`` as hex
floats, or the error a calibration raised.

The script exits 1 if any result differs and 0 if all agree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 2023
UNBRACKETED = (0.1, 0.99999, 1.0 + 1e-12, 1.5, float("nan"))
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CALIBRATE_ALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
from fibanyon import braid_compiler as bc, cli, noise_engine as ne
rounds, seed, unbracketed = int(sys.argv[2]), int(sys.argv[3]), json.loads(sys.argv[4])
results = []

def outcome(result):
    return [result.t2.hex(), result.fidelity.hex()]

def record(label, calls):
    try:
        for i, result in enumerate(calls):
            results.append([f"{label} #{i}", outcome(result)])
    except Exception as exc:
        results.append([f"{label} raised", f"{type(exc).__name__}: {exc}"])

sweep = workloads.NoiseSweep(seed)
for r in range(rounds):
    for spec in sweep.round(r):
        word, target = spec["word"], spec["target"]
        record(f"noise-sweep round {r}: {word!r} at {target!r}",
               (ne.calibrate_t2(bc.BraidWord.from_string(word), target) for _ in (0,)))
hadamard = bc.hadamard_word()
defaults = (cli.T2_FIDELITY_TARGET, cli.T2_STAR_FIDELITY_TARGET)
record(f"calibrate_t2_each(hadamard, {defaults!r})", ne.calibrate_t2_each(hadamard, defaults))
for target in unbracketed:
    targets = (cli.T2_FIDELITY_TARGET, float(target))
    record(f"calibrate_t2_each(hadamard, {targets!r})", ne.calibrate_t2_each(hadamard, targets))
json.dump(results, sys.stdout)
"""


def calibrate_all(src: Path, rounds: int) -> list:
    env = {**os.environ, **ENV, "PYTHONPATH": str(src)}
    argv = [str(PERFBENCH), str(rounds), str(SEED), json.dumps([str(t) for t in UNBRACKETED])]
    child = subprocess.run([sys.executable, "-c", CALIBRATE_ALL, *argv], env=env,
                           capture_output=True, text=True, timeout=1800)
    if child.returncode:
        sys.exit(f"calibrating with the tree {src} failed:\n{child.stderr}")
    return json.loads(child.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--rounds", type=int, default=500)
    args = parser.parse_args(argv)
    base, head = (dict(calibrate_all(src.resolve(), args.rounds)) for src in (args.base, args.head))
    labels = list(base) + [label for label in head if label not in base]
    differing = 0
    for label in labels:
        old, new = base.get(label, "absent"), head.get(label, "absent")
        if old != new:
            differing += 1
            print(f"{label}: base {old}, head {new}")
    print(f"{len(labels) - differing}/{len(labels)} calibration results identical to the bit "
          f"({args.rounds} noise-sweep rounds, Hadamard word at the calibrate defaults "
          f"and {len(UNBRACKETED)} unbracketed or invalid targets)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
