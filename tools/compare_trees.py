"""Run the same command forms, decay fits and T2 calibrations with two source
trees and print every result that differs.

    python tools/compare_trees.py BASE_SRC HEAD_SRC

A tree is the ``src`` directory of a checkout.  Every run is a fresh
``python`` process with ``PYTHONPATH`` set to one tree and BLAS pinned to one
thread, so neither tree's modules reach the other.  Before anything runs,
each tree must import fibanyon from itself and not from an installed copy.
The four corpora:

* command forms: every cli-session pool case of perfbench
  (``perfbench/workloads.py``), ``verify --json`` at seeds 0, 7 and
  2**64 - 1, a ``compile --word`` with powers outside the search alphabet,
  ``compile --named hadamard --max-letters 5``, and the help and usage forms:
  ``-h`` alone and after each subcommand, an unknown subcommand, no
  subcommand, and one argparse usage error per subcommand.  Each runs as
  ``python -m fibanyon.cli`` in a fresh working directory, with its input
  files in ``in/`` and its outputs in ``out/``, both given as relative paths,
  so the two runs see identical arguments.  Every output file, stdout, stderr
  and exit status counts, and a differing text shows as a unified diff.
* decay fits: ``fit_decay`` of the 128 recorded rb-pb means (the four fits of
  each of the 32 cases in ``perfbench/references/rb-pb.json``) and of 4000
  seeded synthetic RB and PB decays on the default grid, cycling through
  generic decays, rates within 1e-6 of 1 (some exactly 1), ``|B| < 0.02`` and
  rates near 1e-5.  ``A``, ``B``, the rate and the residual are compared as
  hex floats, or the error a fit raised.
* calibrations: ``calibrate_t2`` of every word of 500 seeded noise-sweep
  rounds, parsed with ``BraidWord.from_string`` as the workload's task does,
  and ``calibrate_t2`` of the Hadamard word at each of ``fibanyon
  calibrate``'s default targets in turn, and at the default T2 target and
  then at each unbracketed or invalid target, as when ``calibrate`` meets it
  second.
  ``t2`` and ``fidelity`` are compared as hex floats, or the error raised.
* RB/PB runs: ``run_protocols(..., purity=True)`` of the braided Hadamard
  (``noise_engine.clifford_gateset`` and ``hadamard_target``, as ``fibanyon
  benchmark --protocol pb`` builds them) for seeded noise models in both
  spaces: 24 models on the default grid with 30 sequences per length, 2 on
  the lengths 1 to 300 with 700 sequences per length, which spans two
  blocks of ``_SEQUENCE_BLOCK`` (4096) sequences, and 2 on the lengths 1, 2,
  300, 1000 and 4096 with 64 sequences per length, where the interleaved
  frames drift farthest from the group and a near tie in the recovery is
  likeliest.  Each run's four fits
  (means, standard deviations, ``A``, ``B``, the rate and the residual) and
  its derived values (``f_rb``, the oracle fidelity, both incoherent
  errors, the budget and the warnings) are compared as hex floats, or the
  error the run raised.

perfbench is only read.  The script exits 0 if every result is identical, 1
if any differs, and 2 if a path is not a tree that imports fibanyon from
itself.  It gates nothing by itself: a change that alters outputs on purpose
is expected to differ.
"""

from __future__ import annotations

import difflib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SHOWN_DIFF_LINES = 20

EXTRA_CASES = [
    ["verify", "--seed", str(seed), "--json", "{out}/verify.json"] for seed in (0, 7, 2**64 - 1)
] + [
    ["compile", "--word", "s12^4 s23^-2 s12^3 s23^7", "--out", "{out}/compile.json"],
    ["compile", "--named", "hadamard", "--max-letters", "5", "--out", "{out}/compile.json"],
]
SUBCOMMANDS = ("verify", "compile", "benchmark", "robustness", "dump-matrices", "calibrate")
HELP_AND_USAGE_CASES = [
    ["-h"], *([name, "-h"] for name in SUBCOMMANDS), ["no-such-command"], [],
    ["verify", "--seed", "-1"],
    ["compile", "--max-letters", "3"],
    ["benchmark", "--protocol", "xyz", "--out", "{out}"],
    ["robustness", "--q", "3"],
    ["dump-matrices", "--format", "csv"],
    ["calibrate", "--target", "high"],
]

FITS = ("reference", "interleaved", "pb_reference", "pb_interleaved")
SYNTHETIC_DECAYS = 4000
FIT_SEED = 2022
NOISE_SWEEP_ROUNDS = 500
CALIBRATION_SEED = 2023
UNBRACKETED = (0.1, 0.99999, 1.0 + 1e-12, 1.5, float("nan"))
RUN_SEED = 2024
RUN_GRIDS = (((1, 2, 4, 8, 16, 32, 64), 30, 24), ((1, 3, 10, 40, 120, 300), 700, 2),
             ((1, 2, 300, 1000, 4096), 64, 2))
"""Lengths, sequences per length and noise models of the RB/PB runs."""

FIT_ALL = """
import json, sys
from fibanyon import benchmark_suite as bench
results = []
for label, model, means in json.load(sys.stdin):
    try:
        fit = bench.fit_decay(bench.DEFAULT_M_GRID, means, [0.0] * len(means), model)
        results.append([label, [v.hex() for v in (fit.a, fit.b, fit.rate, fit.residual)]])
    except Exception as exc:
        results.append([label, f"{type(exc).__name__}: {exc}"])
json.dump(results, sys.stdout)
"""
CALIBRATE_ALL = """
import json, sys
perfbench, rounds, seed, unbracketed = json.load(sys.stdin)
sys.path.insert(0, perfbench)
import workloads
from fibanyon import braid_compiler as bc, cli, noise_engine as ne
results = []

def record(label, calls):
    try:
        for i, result in enumerate(calls):
            results.append([f"{label} #{i}", [result.t2.hex(), result.fidelity.hex()]])
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
for targets in (defaults, *((cli.T2_FIDELITY_TARGET, target) for target in unbracketed)):
    record(f"calibrate_t2(hadamard, each of {targets!r})",
           (ne.calibrate_t2(hadamard, target) for target in targets))
json.dump(results, sys.stdout)
"""
RUN_ALL = """
import json, sys
from fibanyon import benchmark_suite as bench, noise_engine as ne
group = bench.CliffordGroup()
results = []
for label, params, space, grid, k, seed in json.load(sys.stdin):
    noise = ne.NoiseModel(**{**params, "t2": tuple(params["t2"])})
    try:
        runs = bench.run_protocols(ne.clifford_gateset(noise, space, group),
                                   ne.hadamard_target(noise, space), grid, k, seed, True)
    except Exception as exc:
        results.append([f"{label} raised", f"{type(exc).__name__}: {exc}"])
        continue
    fits = (runs.reference, runs.interleaved.fit, runs.pb_reference.fit, runs.pb_interleaved.fit)
    for name, fit in zip(("reference", "interleaved", "pb_reference", "pb_interleaved"), fits):
        values = (*fit.means, *fit.stddevs, fit.a, fit.b, fit.rate, fit.residual)
        results.append([f"{label} {name}", [float(v).hex() for v in values]])
    derived = (runs.interleaved.f_rb, runs.channel_oracle_fidelity,
               runs.pb_reference.incoherent_per_gate, runs.pb_interleaved.incoherent_per_gate,
               *runs.budget[:3])
    results.append([f"{label} derived", [v.hex() for v in derived] + list(runs.budget.warnings)])
json.dump(results, sys.stdout)
"""
FIND_FIBANYON = """
import importlib.util, json
spec = importlib.util.find_spec("fibanyon")
print(json.dumps(spec and spec.origin))
"""


class TreeError(Exception):
    """A tree cannot be compared: it does not import fibanyon from itself, or
    a corpus script failed in it."""


def tree_env(src: Path) -> dict[str, str]:
    return {**os.environ, **ENV, "PYTHONPATH": str(src)}


def run_script(src: Path, script: str, payload=None):
    """JSON that ``python -c script`` prints with ``PYTHONPATH=src``, given
    ``payload`` as JSON on stdin."""
    child = subprocess.run([sys.executable, "-c", script], input=json.dumps(payload),
                           env=tree_env(src), capture_output=True, text=True, timeout=1800)
    if child.returncode:
        last = child.stderr.strip().splitlines()[-1:] or [f"exit status {child.returncode}"]
        raise TreeError(f"python with PYTHONPATH={src} failed: {last[0]}")
    return json.loads(child.stdout)


def check_import(src: Path) -> None:
    """Raise unless ``PYTHONPATH=src`` imports fibanyon from that tree."""
    found = run_script(src, FIND_FIBANYON)
    if found is None:
        raise TreeError(f"{src} holds no fibanyon package; pass a checkout's src directory")
    if not Path(found).resolve().is_relative_to(src):
        raise TreeError(f"PYTHONPATH={src} imports fibanyon from {found}, not from that tree")


def command_forms() -> list[tuple[list[str], dict[str, str]]]:
    """Arguments, with ``in`` and ``out`` as relative directories, and input
    files of every command form."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    from workloads import CLI_POOL, cli_case

    pool = [cli_case(kind, i) for kind, size in CLI_POOL.items() for i in range(size)]
    extra = [(argv, {}) for argv in EXTRA_CASES + HELP_AND_USAGE_CASES]
    return [([a.replace("{in}", "in").replace("{out}", "out") for a in argv], files)
            for argv, files in pool + extra]


def command_outputs(src: Path) -> dict[str, dict[str, bytes]]:
    """Exit status, stdout, stderr and every output file of each command
    form, keyed by form and then by name."""
    results = {}
    for i, (args, files) in enumerate(command_forms()):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            (work / "in").mkdir()
            (work / "out").mkdir()
            for name, text in files.items():
                (work / "in" / name).write_text(text)
            child = subprocess.run([sys.executable, "-m", "fibanyon.cli", *args], cwd=work,
                                   env=tree_env(src), capture_output=True, timeout=300)
            result = {"exit status": str(child.returncode).encode(), "stdout": child.stdout,
                      "stderr": child.stderr}
            for path in sorted((work / "out").rglob("*")):
                if path.is_file():
                    result[f"out/{path.relative_to(work / 'out')}"] = path.read_bytes()
        results[f"form {i}: fibanyon {shlex.join(args)}"] = result
    return results


def decays() -> list[tuple[str, str, list[float]]]:
    """Label, model and means of every recorded rb-pb fit, then of the seeded
    noisy ``A + B r^m`` (rb) and ``A + B r^(m-1)`` (pb) synthetic decays."""
    cases = json.loads((PERFBENCH / "references" / "rb-pb.json").read_text())
    recorded = [(f"{key} {fit}", cases[key][fit]["model"], cases[key][fit]["means"])
                for key in sorted(cases) for fit in FITS]
    rng = np.random.default_rng(FIT_SEED)
    m = np.array((1, 2, 4, 8, 16, 32, 64), dtype=float)
    synthetic = []
    for i in range(SYNTHETIC_DECAYS):
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
        synthetic.append((f"synthetic {i} ({regime})", model, means.tolist()))
    return recorded + synthetic


def fits(src: Path) -> dict[str, list[str] | str]:
    return dict(run_script(src, FIT_ALL, decays()))


def run_cases() -> list[tuple[str, dict, str, tuple[int, ...], int, int]]:
    """Label, noise model (NoiseModel keyword arguments), space, grid,
    sequences per length and seed of every RB/PB run."""
    rng = np.random.default_rng(RUN_SEED)
    cases = []
    for grid, k, models in RUN_GRIDS:
        for i in range(models):
            params = {"t2": [float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0))],
                      "depolarizing_prob": float(rng.uniform(0.0, 0.03)),
                      "over_rotation_angle": float(rng.uniform(-0.05, 0.05)),
                      "over_rotation_axis": "xyz"[i % 3]}
            seed = int(rng.integers(0, 2**63))
            for space in ("ls", "ps"):
                cases.append((f"{space} m<={max(grid)} k={k} model {i}", params, space, grid, k, seed))
    return cases


def runs(src: Path) -> dict[str, list[str] | str]:
    return dict(run_script(src, RUN_ALL, run_cases()))


def calibrations(src: Path) -> dict[str, list[str] | str]:
    payload = [str(PERFBENCH), NOISE_SWEEP_ROUNDS, CALIBRATION_SEED, UNBRACKETED]
    return dict(run_script(src, CALIBRATE_ALL, payload))


CORPORA = [
    (command_outputs, "command forms byte-identical (every output file, stdout, stderr and "
                      "exit status)"),
    (fits, f"fits identical to the bit (the recorded rb-pb fits and {SYNTHETIC_DECAYS} synthetic "
           "decays)"),
    (calibrations, f"calibration results identical to the bit ({NOISE_SWEEP_ROUNDS} noise-sweep "
                   "rounds, Hadamard word at the calibrate defaults and "
                   f"{len(UNBRACKETED)} unbracketed or invalid targets)"),
    (runs, "RB/PB results identical to the bit (the four fits and derived values of "
           f"{sum(2 * models for *_, models in RUN_GRIDS)} run_protocols runs with purity)"),
]


def describe_text(name: str, base: bytes | None, head: bytes | None) -> str:
    if base is None or head is None:
        return f"  {name}: only in {'head' if base is None else 'base'}"
    try:
        lines = list(difflib.unified_diff(base.decode().splitlines(), head.decode().splitlines(),
                                          "base", "head", lineterm="", n=0))
    except UnicodeDecodeError:
        return f"  {name}: binary contents differ"
    shown = "\n".join(f"    {line}" for line in lines[:SHOWN_DIFF_LINES])
    hidden = len(lines) - SHOWN_DIFF_LINES
    more = f"\n    ... {hidden} more diff lines" if hidden > 0 else ""
    return f"  {name}:\n{shown}{more}"


def describe(label: str, base, head) -> str:
    """Report of one label whose results differ: a unified diff of each
    differing text of a command form, else both values."""
    if not (isinstance(base, dict) and isinstance(head, dict)):
        return f"{label}: base {base}, head {head}"
    lines = [f"differs: {label}"]
    for name in sorted(set(base) | set(head)):
        if base.get(name) != head.get(name):
            lines.append(describe_text(name, base.get(name), head.get(name)))
    return "\n".join(lines)


def report(base: dict, head: dict) -> tuple[int, int]:
    """Print every label whose results differ between the trees; return how
    many labels differ and how many there are."""
    labels = [*base, *(label for label in head if label not in base)]
    differing = 0
    for label in labels:
        old, new = base.get(label, "absent"), head.get(label, "absent")
        if old != new:
            differing += 1
            print(describe(label, old, new))
    return differing, len(labels)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_trees.py BASE_SRC HEAD_SRC", file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv]
    try:
        for src in trees:
            check_import(src)
        runs = [(summary, [corpus(src) for src in trees]) for corpus, summary in CORPORA]
    except TreeError as exc:
        print(f"compare_trees.py: {exc}", file=sys.stderr)
        return 2
    status = 0
    for summary, (base, head) in runs:
        differing, total = report(base, head)
        print(f"{total - differing}/{total} {summary}")
        if differing:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
