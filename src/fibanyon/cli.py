"""Command-line driver.

Subcommands: ``verify``, ``compile``, ``benchmark``, ``robustness``,
``dump-matrices``, ``calibrate``.  Exit codes: 0 on success, 1 when a
verification check fails, 2 on usage errors, including an output path that
cannot be written.  All randomness flows from
``--seed`` through counter-based generator streams, so identical invocations
produce identical output bytes.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Collection, NamedTuple, NoReturn

import numpy as np

from . import anyon_model, braid_compiler, braid_space
from ._linalg import active_counts, longest_first_products, phase_aligned_defect, unitarity_defect

# benchmark_suite, noise_engine and robustness_lab are imported by the commands
# that use them, so a process loads only its own subcommand's modules
if TYPE_CHECKING:
    from . import benchmark_suite as bench, noise_engine

DEFAULT_SEED = 20230517

T2_FIDELITY_TARGET = 0.9823
"""Demonstration target: intrinsic-dephasing fidelity prediction of the
braided Hadamard."""

T2_STAR_FIDELITY_TARGET = 0.9463
"""Demonstration target: inhomogeneous-dephasing fidelity prediction."""


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, rows) -> None:
    """Comma-separated ``rows``: str and int cells as they are, every other
    cell as the repr of its float, so a float reads back bit for bit."""
    path.write_text("".join(
        ",".join(str(c) if isinstance(c, (str, int)) else repr(float(c)) for c in row) + "\n"
        for row in rows
    ))


def _decay_rows(fit: bench.DecayFit, k: int) -> list:
    """CSV rows of a decay's per-length statistics, columns ``m, mean, stddev, k``."""
    return [("m", "mean", "stddev", "k"),
            *((m, mean, std, k) for m, mean, std in zip(fit.m_values, fit.means, fit.stddevs))]


def _complex_pairs(matrix: np.ndarray) -> list:
    """JSON form of a complex matrix: nested row lists with ``[re, im]`` leaves."""
    return [[[v.real, v.imag] for v in row] for row in np.asarray(matrix, dtype=complex)]


def _parse_matrix_json(path: Path) -> np.ndarray:
    """A matrix stored as rows of ``[re, im]`` pairs of JSON numbers (not
    booleans); raises OSError or ValueError when the file is unreadable or
    holds anything else."""
    try:
        rows = json.loads(path.read_text(), parse_int=float)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    pair = lambda v: type(v) is list and len(v) == 2 and all(type(x) is float for x in v)
    if not (type(rows) is list and all(type(row) is list and all(map(pair, row)) for row in rows)):
        raise ValueError("matrix entries must be [re, im] pairs of numbers")
    return np.array([[complex(re, im) for re, im in row] for row in rows])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class Check(NamedTuple):
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


def _sigma_oracle(index: int) -> np.ndarray:
    """Closed-form generator matrices used as an independent diff target.

    The published sigma12 carries a typo in its second diagonal entry;
    unitarity and the braid relations force the e^{i 4 pi/5} / phi used here
    (see the braid_space tests)."""
    phi = anyon_model.PHI
    e = lambda x: np.exp(1j * np.pi * x)
    diag_phase = e(4 / 5) / phi
    off = e(7 / 5) / np.sqrt(phi)
    if index == 12:
        return np.array([
            [1, 0, 0, 0],
            [0, diag_phase, 0, off],
            [0, 0, e(3 / 5), 0],
            [0, off, 0, -1 / phi],
        ])
    return np.array([
        [1, 0, 0, 0],
        [0, e(3 / 5), 0, 0],
        [0, 0, diag_phase, off],
        [0, 0, off, -1 / phi],
    ])


def _logical_oracle(index: int) -> np.ndarray:
    """The generators' 2x2 logical-qubit blocks in closed form."""
    phi = anyon_model.PHI
    if index == 12:
        return np.diag([np.exp(-4j * np.pi / 5), np.exp(3j * np.pi / 5)])
    return np.array([
        [np.exp(4j * np.pi / 5) / phi, np.exp(7j * np.pi / 5) / np.sqrt(phi)],
        [np.exp(7j * np.pi / 5) / np.sqrt(phi), -1 / phi],
    ])


_MAX_WORD_LETTERS = 50  # longest random word of the leakage check
_WORD_BATCH = 1024  # random words multiplied as one stack


def _random_word_leakage(seed: int, count: int) -> float:
    """Largest ``||(1 - P_L) U P_L||_2`` over ``count`` random words U of
    sigma12, sigma23 and their inverses, drawn as RB sequences are: word i is
    ``1 + draw`` below ``_MAX_WORD_LETTERS`` of the stream ``(seed, 2i)``
    letters long, and its letters are the draws below 4 of the stream
    ``(seed, 2i + 1)``, indexing sigma23^-1, sigma23, sigma12^-1 and sigma12
    (:func:`~fibanyon.braid_compiler.letter_matrix`).  Batches of at most
    ``_WORD_BATCH`` words, drawn longest first, are multiplied by
    :func:`~fibanyon._linalg.longest_first_products`."""
    from ._philox import draw, lanes

    generators = np.array([braid_compiler.letter_matrix("physical4", g, p) for g in (23, 12) for p in (-1, 1)])
    p_l = braid_space.logical_projector()
    worst = 0.0
    for lo in range(0, count, _WORD_BATCH):
        streams = 2 * np.arange(lo, min(lo + _WORD_BATCH, count), dtype=np.uint64)
        ones = np.ones(len(streams), dtype=np.int64)
        lengths = 1 + draw(seed, streams, _MAX_WORD_LETTERS, ones, lanes(ones))[0].astype(np.int64)
        order = np.argsort(-lengths, kind="stable")
        lengths = lengths[order]
        letters = draw(seed, streams[order] + np.uint64(1), 4, lengths, lanes(lengths))
        u = longest_first_products(generators, letters, active_counts(lengths), np.eye(4, dtype=complex))
        leak = np.linalg.norm((np.eye(4) - p_l) @ u @ p_l, 2, axis=(1, 2))
        worst = max(worst, float(leak.max()))
    return worst


def _verification_checks(leakage_words: int, seed: int) -> tuple:
    """The invariant suite as ``(name, tolerance, residual)`` rows, in the
    order they run.  A residual takes no argument and builds what it checks
    only when called, so the rows list the suite without running a check or
    importing noise_engine, robustness_lab or benchmark_suite.  The F and R
    tables come from ``FusionData.fibonacci`` and ``FSymbolTable.fibonacci``
    at the first call, not from the tables braid_space caches."""
    am, bs, bc = anyon_model, braid_space, braid_compiler

    @functools.cache
    def tables():
        fusion = am.FusionData.fibonacci()
        return fusion, am.FSymbolTable.fibonacci(fusion), am.RSymbolTable.fibonacci(fusion)

    def qdim():
        d_vacuum, d_tau = (tables()[0].qdim[label] for label in (am.VACUUM, am.TAU))
        return abs(d_tau * d_tau - (d_vacuum + d_tau))

    def gap(a, b) -> float:
        return float(np.abs(a - b).max())

    def yang_baxter():
        s12, s23 = bs.sigma(12), bs.sigma(23)
        return gap(s12 @ s23 @ s12, s23 @ s12 @ s23)

    def logical_restriction(index):
        logical, leak = bs.logical_restrict(bs.sigma(index))
        return max(gap(logical, _logical_oracle(index)), leak)

    def extended_braid_relations():
        g = [bs.build_generator(5, p) for p in range(1, 5)]
        return max(0.0, *(gap(g[a] @ g[a + 1] @ g[a], g[a + 1] @ g[a] @ g[a + 1]) for a in range(3)),
                   *(gap(g[a] @ g[b], g[b] @ g[a]) for a, b in ((0, 2), (0, 3), (1, 3))))

    def extended_restriction():
        from .robustness_lab import ENV_PAIR_INDEX

        sector = np.ix_(*2 * [[ENV_PAIR_INDEX * 4 + t for t in range(4)]])
        return max(gap(bs.build_generator(5, 3)[sector], bs.sigma(12)),
                   gap(bs.build_generator(5, 4)[sector], bs.sigma(23)))

    def robustness(q):
        from .robustness_lab import extract_M

        return extract_M(q).proportionality_deviation

    def circuit_decompositions():
        from .noise_engine import decompose_braiding

        return max(0.0, *(phase_aligned_defect(decompose_braiding(gen, power).compose(),
                                               bc.letter_matrix("physical4", gen, power))
                          for gen in (12, 23) for power in (2, -2)))

    return (
        ("pentagon", 1e-12, lambda: am.verify_pentagon(tables()[1]).max_residual),
        ("hexagon", 1e-12, lambda: am.verify_hexagon(*tables()[1:]).max_residual),
        ("f-unitarity", 1e-12, lambda: am.verify_f_unitarity(tables()[1]).max_residual),
        ("qdim-consistency", 1e-12, qdim),
        ("tree-transform-unitarity", 1e-12, lambda: unitarity_defect(bs.tree_transform())),
        ("sigma12-oracle", 1e-12, lambda: gap(bs.sigma(12), _sigma_oracle(12))),
        ("sigma23-oracle", 1e-12, lambda: gap(bs.sigma(23), _sigma_oracle(23))),
        ("tree-conjugate-b1", 1e-10, lambda: gap(bs.tree_conjugate(bs.sigma(12)), bs.tree_generator(12))),
        ("tree-conjugate-b2", 1e-10, lambda: gap(bs.tree_conjugate(bs.sigma(23)), bs.tree_generator(23))),
        ("yang-baxter", 1e-12, yang_baxter),
        ("generator-order-ten", 1e-12, lambda: gap(np.linalg.matrix_power(bs.sigma(12), 10), np.eye(4))),
        ("logical-restriction-12", 1e-12, lambda: logical_restriction(12)),
        ("logical-restriction-23", 1e-12, lambda: logical_restriction(23)),
        ("random-word-leakage", 1e-10, lambda: _random_word_leakage(seed, leakage_words)),
        ("extended-braid-relations", 1e-12, extended_braid_relations),
        ("extended-restriction", 1e-12, extended_restriction),
        ("hadamard-distance-regression", 1e-8, lambda: abs(bc.distance_up_to_phase(
            bc.evaluate(bc.hadamard_word(), "logical2"), bc.hadamard_gate()) - bc.HADAMARD_WORD_DISTANCE)),
        ("robustness-m1", 1e-10, lambda: robustness(1)),
        ("robustness-m2", 1e-10, lambda: robustness(2)),
        ("circuit-decompositions", 1e-10, circuit_decompositions),
    )


def run_verification_checks(leakage_words: int = 100, seed: int = DEFAULT_SEED,
                            tolerance_scale: float = 1.0) -> list[Check]:
    """The full invariant suite of :func:`_verification_checks`, in its order,
    every tolerance multiplied by ``tolerance_scale``."""
    return [Check(name, residual(), tolerance * tolerance_scale)
            for name, tolerance, residual in _verification_checks(leakage_words, seed)]


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.list:
        print("\n".join(name for name, _, _ in _verification_checks(args.leakage_words, args.seed)))
        return 0
    checks = run_verification_checks(
        leakage_words=args.leakage_words,
        seed=args.seed,
        tolerance_scale=args.tolerance,
    )
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'}  {check.name}: "
              f"residual={check.residual:.3e} tolerance={check.tolerance:.0e}")
    failures = [check.name for check in checks if not check.passed]
    if args.json:
        _write_json(Path(args.json), {
            "checks": [{**c._asdict(), "passed": c.passed} for c in checks],
            "passed": not failures,
        })
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------

_NAMED_GATES = {
    "identity": lambda: np.eye(2, dtype=complex),
    "hadamard": braid_compiler.hadamard_gate,
    "sigma12": lambda: braid_space.sigma_logical(12),
    "sigma23": lambda: braid_space.sigma_logical(23),
}
"""The ``compile --named`` targets: each name's 2x2 logical gate builder."""

NAMED_GATES = tuple(_NAMED_GATES)


def _cmd_compile(args: argparse.Namespace) -> int:
    if args.word is not None:
        try:
            word = braid_compiler.BraidWord.from_string(args.word)
        except ValueError as exc:
            print(f"cannot parse braid word: {exc}", file=sys.stderr)
            return 2
        logical = braid_compiler.evaluate(word, "logical2")
        physical = braid_compiler.evaluate(word, "physical4")
        _, leakage = braid_space.logical_restrict(physical)
        payload = {
            "word": word.canonicalize().to_string(),
            "letters": len(word),
            "crossings": word.crossing_count,
            "leakage": leakage,
            "logical_unitary": _complex_pairs(logical),
            "physical_unitary": _complex_pairs(physical),
        }
        print(f"word: {payload['word'] or '(empty)'}")
        print(f"letters: {payload['letters']}  crossings: {payload['crossings']}  "
              f"leakage: {leakage:.3e}")
        if args.out:
            _write_json(Path(args.out), payload)
        return 0

    if args.hadamard:
        word = braid_compiler.hadamard_word()
        delta = braid_compiler.distance_up_to_phase(
            braid_compiler.evaluate(word, "logical2"), braid_compiler.hadamard_gate()
        )
        payload = {
            "word": word.canonicalize().to_string(),
            "letters": len(word),
            "crossings": word.crossing_count,
            "distance": delta,
            "pinned_distance": braid_compiler.HADAMARD_WORD_DISTANCE,
        }
        print(f"word: {payload['word']}")
        print(f"letters: {payload['letters']}  crossings: {payload['crossings']}")
        print(f"distance to Hadamard: {delta:.12f}")
        if args.out:
            _write_json(Path(args.out), payload)
        return 0

    if args.named:
        if args.named not in _NAMED_GATES:
            print(f"unknown named gate {args.named!r}; choices: {NAMED_GATES}", file=sys.stderr)
            return 2
        target = _NAMED_GATES[args.named]()
    else:
        try:
            target = _parse_matrix_json(Path(args.target))
        except (OSError, ValueError) as exc:
            print(f"cannot read target matrix {args.target}: {exc}", file=sys.stderr)
            return 2
        if target.shape != (2, 2):
            print("target must be a 2x2 matrix", file=sys.stderr)
            return 2
        if unitarity_defect(target) > 1e-8:
            print("target matrix is not unitary", file=sys.stderr)
            return 2

    result = braid_compiler.search_word(target, args.max_letters, budget=args.budget)
    payload = {
        "word": result.word.to_string(),
        "letters": len(result.word),
        "distance": result.distance,
        "evaluated": result.evaluated,
        "budget_exhausted": result.budget_exhausted,
    }
    print(f"word: {payload['word'] or '(empty)'}")
    print(f"distance: {result.distance:.12f}  evaluated: {result.evaluated}"
          f"{'  (budget exhausted)' if result.budget_exhausted else ''}")
    if args.out:
        _write_json(Path(args.out), payload)
    return 0


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


def _noise_model(args: argparse.Namespace) -> noise_engine.NoiseModel | None:
    """The ``--noise`` model, or None after reporting why it is unusable."""
    from . import noise_engine

    if not args.noise:
        return noise_engine.NoiseModel()
    try:
        return noise_engine.NoiseModel.from_json(Path(args.noise))
    except (OSError, ValueError, TypeError) as exc:
        print(f"cannot use noise model {args.noise}: {exc}", file=sys.stderr)
        return None


def _cmd_benchmark(args: argparse.Namespace) -> int:
    from . import benchmark_suite as bench, noise_engine

    noise = _noise_model(args)
    if noise is None:
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    space = args.space

    if args.protocol == "qpt":
        target = noise_engine.hadamard_target(noise, space)
        ptm = target.ptm
        fidelity = bench.average_gate_fidelity(ptm, target.unitary)
        if args.format == "csv":
            _write_csv(out_dir / "transfer_map.csv", ptm.matrix)
        else:
            _write_json(out_dir / "transfer_map.json", {
                "space": space,
                "labels": bench.pauli_labels(2 if space == "ps" else 1),
                "matrix": [list(map(float, row)) for row in ptm.matrix],
            })
        _write_json(out_dir / "fidelity.json", {
            "space": space,
            "average_gate_fidelity": fidelity,
            "trace_preserving_defect": ptm.trace_preserving_defect,
        })
        print(f"QPT[{space}]: average gate fidelity {fidelity:.6f}")
        return 0

    gateset = noise_engine.clifford_gateset(noise, space)
    purity = args.protocol == "pb"
    target = noise_engine.hadamard_target(noise, space) if purity or args.interleave_hadamard else None
    try:
        run = bench.run_protocols(gateset, target, tuple(args.m_grid), args.k, args.seed, purity)
    except bench.FitDivergenceError as exc:
        print(f"fibanyon benchmark: {exc}", file=sys.stderr)
        return 2
    for warning in run.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    if not purity:
        reference = run.reference
        _write_csv(out_dir / "rb_reference.csv", _decay_rows(reference, args.k))
        payload = {"reference": reference.to_dict(), "space": space, "k": args.k, "seed": args.seed}
        payload["reference"]["per_gate_fidelity"] = bench.reference_fidelity_from_rate(
            reference.rate, gateset.dim
        )
        print(f"RB[{space}] reference: f={reference.rate:.6f} "
              f"F_ref={payload['reference']['per_gate_fidelity']:.6f}")
        if run.interleaved is not None:
            rb_int, oracle = run.interleaved, run.channel_oracle_fidelity
            _write_csv(out_dir / "rb_interleaved.csv", _decay_rows(rb_int.fit, args.k))
            payload["interleaved"] = rb_int.fit.to_dict()
            payload["interleaved"]["f_rb"] = rb_int.f_rb
            payload["interleaved"]["channel_oracle_fidelity"] = oracle
            payload["interleaved"]["warnings"] = list(rb_int.warnings)
            print(f"RB[{space}] interleaved: F_RB={rb_int.f_rb:.6f} (channel oracle {oracle:.6f})")
        _write_json(out_dir / "rb_fit.json", payload)
        return 0

    pb_ref, pb_int, budget = run.pb_reference, run.pb_interleaved, run.budget
    _write_csv(out_dir / "pb_reference.csv", _decay_rows(pb_ref.fit, args.k))
    _write_csv(out_dir / "pb_interleaved.csv", _decay_rows(pb_int.fit, args.k))
    _write_json(out_dir / "pb_fit.json", {
        "space": space,
        "reference": pb_ref.fit.to_dict(),
        "interleaved": pb_int.fit.to_dict(),
        "incoherent_per_gate_reference": pb_ref.incoherent_per_gate,
    })
    _write_json(out_dir / "error_budget.json", {
        "space": space,
        "total_infidelity": budget.total_infidelity,
        "incoherent": budget.incoherent,
        "coherent": budget.coherent,
        "warnings": list(budget.warnings),
    })
    print(f"PB[{space}]: u_ref={pb_ref.fit.rate:.6f} u_int={pb_int.fit.rate:.6f} "
          f"total={budget.total_infidelity:.4%} incoherent={budget.incoherent:.4%} "
          f"coherent={budget.coherent:.4%}")
    return 0


# ---------------------------------------------------------------------------
# robustness / dump-matrices / calibrate
# ---------------------------------------------------------------------------


def _cmd_robustness(args: argparse.Namespace) -> int:
    from . import robustness_lab

    if args.noisy:
        result = robustness_lab.extract_M_noisy(args.q)
    else:
        result = robustness_lab.extract_M(args.q)
    print(f"M_{args.q}: deviation={result.proportionality_deviation:.3e} "
          f"theta={result.theta:.6f} |c|={result.modulus:.6f}")
    if args.out:
        _write_json(Path(args.out), {**result._asdict(), "matrix": _complex_pairs(result.matrix),
                                     "noisy": bool(args.noisy)})
    if args.csv:
        _write_csv(Path(args.csv), [("part", "m00", "m01", "m10", "m11"),
                                    ("real", *result.matrix.real.flatten()),
                                    ("imag", *result.matrix.imag.flatten())])
    return 0


def _cmd_dump_matrices(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    matrices = braid_space.dump_matrices()
    for name, matrix in matrices.items():
        if args.format == "csv":
            _write_csv(out_dir / f"{name}.csv", [[x for v in row for x in (v.real, v.imag)]
                                                 for row in np.asarray(matrix, dtype=complex)])
        else:
            _write_json(out_dir / f"{name}.json", _complex_pairs(matrix))
    print(f"wrote {len(matrices)} matrices to {out_dir}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from . import noise_engine

    targets = (("t2", args.target), ("t2_star", args.star_target))
    for label, target in targets:
        if not 0.0 < target < 1.0:
            print(f"{label} target fidelity must lie in (0, 1), got {target!r}", file=sys.stderr)
            return 2
    word = braid_compiler.hadamard_word()
    results = {}
    for label, target in targets:
        try:
            cal = noise_engine.calibrate_t2(word, target)
        except noise_engine.UnbracketedTargetError as exc:
            print(f"{label}: {exc}", file=sys.stderr)
            return 2
        results[label] = {"t2_seconds": cal.t2, "fidelity": cal.fidelity, "target": cal.target}
        print(f"{label}: T2={cal.t2:.6f} s reproduces fidelity {cal.fidelity:.6f} "
              f"(target {target:.4f})")
    if args.out:
        _write_json(Path(args.out), results)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _int_at_least(low: int, high: int | None = None):
    """argparse type: an integer no smaller than ``low`` (and, when given, no
    larger than ``high``)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


def _positive_float(text: str) -> float:
    """argparse type: a finite float greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text}")
    return value


_VERIFY_SEED = _int_at_least(0, 2**64 - 1)
"""argparse type of ``verify --seed``: verify draws only the streams
``(seed, 2i)`` and ``(seed, 2i + 1)`` of its random words i, so the seed may
be any uint64 generator key."""


class _SequenceLengths(argparse.Action):
    """``--m-grid``: a decay fit needs at least three distinct lengths."""

    def __call__(self, parser, namespace, values, option_string=None):
        if len(set(values)) < 3:
            raise argparse.ArgumentError(
                self, f"needs at least 3 distinct sequence lengths, got {' '.join(map(str, values))}"
            )
        setattr(namespace, self.dest, values)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--list", action="store_true", help="print check names without running")
    p.add_argument("--leakage-words", type=_int_at_least(0), default=100)
    p.add_argument("--seed", type=_VERIFY_SEED, default=DEFAULT_SEED)
    p.add_argument("--tolerance", type=_positive_float, default=1.0,
                   help="scale factor applied to every check tolerance")
    p.add_argument("--json", help="write the report to this JSON file")
    p.set_defaults(func=_cmd_verify)


def _compile_arguments(p: argparse.ArgumentParser) -> None:
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--hadamard", action="store_true",
                        help="evaluate the fixed 15-operation Hadamard word")
    target.add_argument("--named", help=f"named gate target: {', '.join(NAMED_GATES)}")
    target.add_argument("--target", help="JSON file with a 2x2 matrix of [re, im] pairs")
    target.add_argument("--word", help='evaluate a braid word, e.g. "s12^4 s23^-2"')
    p.add_argument("--max-letters", type=_int_at_least(0), default=5)
    p.add_argument("--budget", type=_int_at_least(1), default=1_000_000)
    p.add_argument("--out", help="write the result to this JSON file")
    p.set_defaults(func=_cmd_compile)


def _benchmark_arguments(p: argparse.ArgumentParser) -> None:
    from . import benchmark_suite as bench

    p.add_argument("--protocol", choices=("qpt", "rb", "pb"), required=True)
    p.add_argument("--space", choices=("ps", "ls"), default="ls")
    p.add_argument("--noise", help="NoiseModel JSON file")
    p.add_argument("--m-grid", type=_int_at_least(1, bench.MAX_LENGTH), nargs="+",
                   action=_SequenceLengths, default=list(bench.DEFAULT_M_GRID))
    p.add_argument("--k", type=_int_at_least(2, bench.MAX_SEQUENCES), default=bench.DEFAULT_SEQUENCES)
    # a master seed of the benchmark pipeline
    p.add_argument("--seed", type=_int_at_least(0, bench.MAX_SEED), default=DEFAULT_SEED)
    p.add_argument("--interleave-hadamard", action="store_true")
    p.add_argument("--format", choices=("json", "csv"),
                   help="transfer-map file format of --protocol qpt (default json)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_benchmark)


def _robustness_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, choices=(1, 2), required=True)
    p.add_argument("--noisy", action="store_true")
    p.add_argument("--out", help="write the result to this JSON file")
    p.add_argument("--csv", help="also write the block's re/im parts as CSV")
    p.set_defaults(func=_cmd_robustness)


def _dump_matrices_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_dump_matrices)


def _calibrate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", type=float, default=T2_FIDELITY_TARGET)
    p.add_argument("--star-target", type=float, default=T2_STAR_FIDELITY_TARGET)
    p.add_argument("--out", help="write the results to this JSON file")
    p.set_defaults(func=_cmd_calibrate)


SUBCOMMANDS = {
    "verify": ("run the invariant suite", _verify_arguments),
    "compile": ("braid-word compilation and evaluation", _compile_arguments),
    "benchmark": ("QPT / RB / PB protocols", _benchmark_arguments),
    "robustness": ("thermal anyon-pair scenarios", _robustness_arguments),
    "dump-matrices": ("emit oracle matrices for external diffing", _dump_matrices_arguments),
    "calibrate": ("find T2 values reproducing target fidelities", _calibrate_arguments),
}
"""Each subcommand's help line and the function adding its arguments, in the
order of the help."""


def build_parser(commands: Collection[str] = SUBCOMMANDS) -> argparse.ArgumentParser:
    """The ``fibanyon`` parser.  It lists every subcommand, but only those
    named in ``commands`` get their arguments; the top-level help, the
    subcommand list and the top-level errors do not depend on them."""
    parser = argparse.ArgumentParser(
        prog="fibanyon",
        description="Fibonacci-anyon braiding workbench: verification, "
                    "compilation, noisy simulation, benchmarking, robustness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name in commands:
            add_arguments(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top-level parser has no option that takes a value, so the first
    # argument naming a subcommand is the one argparse dispatches to, if any.
    parser = build_parser([a for a in argv if a in SUBCOMMANDS][:1])
    args = parser.parse_args(argv)
    if args.command == "benchmark" and args.format is not None and args.protocol != "qpt":
        parser.error(f"benchmark --format applies only to --protocol qpt, not {args.protocol}")
    if args.command == "benchmark" and args.interleave_hadamard and args.protocol != "rb":
        parser.error(f"benchmark --interleave-hadamard applies only to --protocol rb, not {args.protocol}")
    try:
        return args.func(args)
    except OSError as exc:
        # an output path that cannot be written; input files report their own errors
        print(f"fibanyon {args.command}: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Process entry of the ``fibanyon`` script and of ``python -m
    fibanyon.cli``: :func:`main` on the command line, then exit with its status.

    Once ``main`` has returned, ``run`` flushes stdout and stderr and ends the
    process with ``os._exit``, skipping interpreter shutdown, which only tears
    down what the process has loaded.  Every output file is closed before
    ``main`` returns, and fibanyon starts no thread and registers no exit
    handler, so outputs, streams and exit codes are unchanged.  Two cases keep
    the full shutdown through ``sys.exit``: argparse's ``SystemExit`` (help and
    usage errors), and a failed flush, such as stdout on a pipe whose reader
    has gone, which shutdown reports in one ``Exception ignored`` line and
    exit status 120.  Before either exit, ``gc.freeze()`` moves every tracked
    object to the permanent generation, which shutdown's collections skip:
    walking the objects numpy and fibanyon allocate at import took 30-45 ms of
    each process on a 2-vCPU Xeon VM.  :func:`main` never touches the
    collector, so an in-process caller's objects are not frozen."""
    try:
        status = main()
    finally:
        gc.freeze()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
