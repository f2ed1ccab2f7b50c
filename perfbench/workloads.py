"""The four workloads: seeded inputs, one task each, output checks, and the
closed loop that times them.

Every input comes from a counter-based stream keyed by the workload seed, so
the same seed always gives byte-identical inputs.  Workloads whose outputs
are checked against references recorded at a fixed commit (``cli-session``,
``rb-pb``, ``braid-search``) draw their inputs from fixed pools that the
references cover; the seed picks which pool entries run, and in which order.
The ``noise-sweep`` inputs are unbounded because an independent oracle checks
them.

Tasks run one at a time from one client (a closed loop).  A run executes
whole rounds until ``--seconds`` have elapsed, so each run holds the same mix
of task kinds; the median task latency then does not depend on where the
clock happened to stop.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from proc import HERE, INTERPRETER_START, NUMPY_LOOP, OUT, PYTHON, run_child, timed, unpin

REFERENCES = HERE / "references"
SEARCH_POWERS = (1, -1, 2, -2, 3, -3, 4, -4)
NAMED_GATES = ("identity", "hadamard", "sigma12", "sigma23")


def stream(*key) -> random.Random:
    """Deterministic random stream for one key (string seeding is hashed)."""
    return random.Random(":".join(str(k) for k in ("perfbench",) + key))


def pick(rng: random.Random, n: int) -> int:
    return min(int(rng.random() * n), n - 1)


def deal(r: int, size: int, *key) -> int:
    """Pool entry of round ``r``: the rounds walk through seeded shuffles of
    the pool, so every run covers the pool evenly whatever the seed."""
    order = list(range(size))
    stream(*key, "deal", r // size).shuffle(order)
    return order[r % size]


def word_string(letters) -> str:
    """Operator-product form of ``(generator, power)`` letters given in
    application order: the rightmost token acts first."""
    return " ".join(f"s{g}^{p}" for g, p in reversed(letters))


def canonical_letters(rng: random.Random, length: int) -> list[tuple[int, int]]:
    """Alternating generators with powers from the search alphabet."""
    gen = 12 if rng.random() < 0.5 else 23
    letters = []
    for _ in range(length):
        letters.append((gen, SEARCH_POWERS[pick(rng, len(SEARCH_POWERS))]))
        gen = 23 if gen == 12 else 12
    return letters


def haar_unitary(rng: random.Random) -> list[list[list[float]]]:
    """Haar-random 2x2 unitary as rows of ``[re, im]`` pairs."""
    a, b, c, d = (rng.gauss(0.0, 1.0) for _ in range(4))
    norm = (a * a + b * b + c * c + d * d) ** 0.5
    alpha, beta = complex(a, b) / norm, complex(c, d) / norm
    theta = 2 * math.pi * rng.random()
    phase = complex(math.cos(theta), math.sin(theta))
    rows = [[alpha * phase, -beta.conjugate() * phase],
            [beta * phase, alpha.conjugate() * phase]]
    return [[[v.real, v.imag] for v in row] for row in rows]


def noise_params(index: int) -> dict:
    """Pool entry ``index`` of noisy models, in NoiseModel JSON form:
    T2 in [0.2, 2] s per qubit, depolarizing up to 0.03, an over-rotation."""
    rng = stream("pool", "noise", index)
    return {
        "t2": [0.2 + 1.8 * rng.random(), 0.2 + 1.8 * rng.random()],
        "braiding_step": 0.002,
        "clifford_duration": 0.005,
        "depolarizing_prob": 0.03 * rng.random(),
        "over_rotation_angle": 0.01 + 0.04 * rng.random(),
        "over_rotation_axis": "xyz"[pick(rng, 3)],
    }


def load_references(workload: str) -> dict:
    return json.loads((REFERENCES / f"{workload}.json").read_text())


def spec_key(spec) -> str:
    """Reference key of a pool case."""
    return "/".join(str(x) for x in spec) if isinstance(spec, tuple) else str(spec)


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

CLI_POOL = {
    "verify": 4,
    "compile-hadamard": 1,
    "compile-word": 8,
    "compile-named": 4,
    "compile-target": 4,
    "benchmark-qpt": 8,
    "benchmark-rb": 8,
    "benchmark-pb": 8,
    "robustness": 2,
    "robustness-noisy": 2,
    "dump-json": 1,
    "dump-csv": 1,
    "calibrate": 3,
}
"""Task kinds of one cli-session round, each with the size of its pool."""


def cli_case(kind: str, index: int) -> tuple[list[str], dict[str, str]]:
    """Arguments and input files of one pool case.  ``{in}`` and ``{out}``
    stand for the task's input and output directories."""
    rng = stream("pool", kind, index)
    if kind == "verify":
        return ["verify", "--seed", str(pick(rng, 2**31)), "--json", "{out}/verify.json"], {}
    if kind == "compile-hadamard":
        return ["compile", "--hadamard", "--out", "{out}/compile.json"], {}
    if kind == "compile-word":
        word = word_string(canonical_letters(rng, 2 + pick(rng, 11)))
        return ["compile", "--word", word, "--out", "{out}/compile.json"], {}
    if kind == "compile-named":
        return ["compile", "--named", NAMED_GATES[index], "--max-letters", "5",
                "--out", "{out}/compile.json"], {}
    if kind == "compile-target":
        return (["compile", "--target", "{in}/target.json", "--max-letters", "5",
                 "--out", "{out}/compile.json"],
                {"target.json": json.dumps(haar_unitary(rng))})
    if kind.startswith("benchmark-"):
        protocol = kind.split("-", 1)[1]
        space, noise = ("ls", "ps")[index % 2], index // 2
        argv = ["benchmark", "--protocol", protocol, "--space", space,
                "--noise", "{in}/noise.json", "--seed", str(1000 + noise), "--out", "{out}"]
        if protocol == "rb":
            argv.append("--interleave-hadamard")
        if protocol == "qpt" and noise % 2:
            argv += ["--format", "csv"]
        return argv, {"noise.json": json.dumps(noise_params(noise), indent=2, sort_keys=True)}
    if kind == "robustness":
        return ["robustness", "--q", str(index + 1), "--out", "{out}/m.json",
                "--csv", "{out}/m.csv"], {}
    if kind == "robustness-noisy":
        return ["robustness", "--q", str(index + 1), "--noisy", "--out", "{out}/m.json"], {}
    if kind == "dump-json":
        return ["dump-matrices", "--out", "{out}"], {}
    if kind == "dump-csv":
        return ["dump-matrices", "--out", "{out}", "--format", "csv"], {}
    if kind == "calibrate":
        targets = [] if index == 0 else [
            "--target", repr(0.95 + 0.04 * rng.random()),
            "--star-target", repr(0.90 + 0.05 * rng.random())]
        return ["calibrate", *targets, "--out", "{out}/calibrate.json"], {}
    raise KeyError(kind)


class CliSession:
    """Each task is one ``python -m fibanyon.cli`` process; a round runs every
    task kind of :data:`CLI_POOL` once, with a seeded pool case."""

    name = "cli-session"
    reference = INTERPRETER_START

    def __init__(self, seed: int, references: dict | None = None) -> None:
        self.seed = seed
        self.references = load_references(self.name) if references is None else references
        OUT.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-session-", dir=OUT))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def round(self, r: int) -> list[tuple[str, int]]:
        return [(kind, deal(r, size, self.seed, self.name, kind))
                for kind, size in CLI_POOL.items()]

    def pool_specs(self) -> list[tuple[str, int]]:
        return [(kind, i) for kind, size in CLI_POOL.items() for i in range(size)]

    def run(self, j: int, spec: tuple[str, int], traced: bool) -> dict:
        kind, index = spec
        task_dir = self.tmp / f"{j}-{'traced' if traced else 'plain'}"
        in_dir, out_dir = task_dir / "in", task_dir / "out"
        in_dir.mkdir(parents=True)
        out_dir.mkdir()
        template, files = cli_case(kind, index)
        for name, text in files.items():
            (in_dir / name).write_text(text)
        argv = [a.replace("{in}", str(in_dir)).replace("{out}", str(out_dir)) for a in template]
        spans_path = task_dir / "spans.json"
        if traced:
            cmd = [PYTHON, str(HERE / "traced_cli.py"), str(spans_path), str(j), "--", *argv]
        else:
            cmd = [PYTHON, "-m", "fibanyon.cli", *argv]
        child = run_child(cmd, timeout=60, stdout_path=task_dir / "stdout.txt",
                          stderr_path=task_dir / "stderr.txt")
        return {"exitcode": child.exitcode, "maxrss_kb": child.maxrss_kb,
                "out": out_dir, "spans": spans_path if traced else None,
                "stderr": task_dir / "stderr.txt"}

    def check(self, spec: tuple[str, int], result: dict) -> list[str]:
        if result["exitcode"] != 0:
            tail = result["stderr"].read_text().strip().splitlines()[-1:]
            return [f"exit code {result['exitcode']}: {' '.join(tail)}"]
        return checks.compare(checks.read_outputs(result["out"]), self.references[spec_key(spec)])

    def record(self, spec: tuple[str, int], result: dict) -> dict:
        return checks.read_outputs(result["out"])


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


class InProcess:
    """Base of the workloads that call fibanyon's public functions inside
    one worker process.  Tracing installs the span wrappers around a task."""

    name = ""
    reference = NUMPY_LOOP

    def __init__(self, seed: int, references: dict | None = None) -> None:
        self.seed = seed
        self.references = references
        self.instrumentation = None

    def enable_tracing(self):
        import spans

        self.instrumentation = spans.Instrumentation(spans.Tracer())
        return self.instrumentation.tracer

    def run(self, j: int, spec, traced: bool):
        if not traced:
            return self.task(spec)
        import spans

        tracer = self.instrumentation.tracer
        tracer.task = j
        builds = spans.cold_cache_builds()
        self.instrumentation.install()
        try:
            return self.task(spec)
        finally:
            self.instrumentation.uninstall()
            tracer.counts["braid_space.cold_builds"] += spans.cold_cache_builds() - builds

    def close(self) -> None:
        pass


class NoiseSweep(InProcess):
    """Each task is one ``calibrate_t2(word, target)``; a round calibrates the
    Hadamard word and one seeded canonical word of each length in
    :data:`LENGTHS`, each to a seeded target fidelity in [0.90, 0.99]."""

    name = "noise-sweep"
    # Four of the seven tasks of a round are mid-length words, so the median
    # task falls inside that group and rests on 4 samples per round rather
    # than on the boundary between two cost groups.
    LENGTHS = (3, 9, 9, 9, 9, 15)
    T2_BOUNDS = (1e-3, 1e3)     # calibrate_t2's default bracket

    def __init__(self, seed: int, references: dict | None = None) -> None:
        super().__init__(seed, references)
        from fibanyon import braid_compiler, braid_space, noise_engine

        self.bc, self.ne = braid_compiler, noise_engine
        braid_space.sigma(12), braid_space.sigma(23)
        self.hadamard = [tuple(l) for l in braid_compiler.hadamard_word().letters]

    def round(self, r: int) -> list[dict]:
        rng = stream(self.seed, self.name, r)
        specs = [{"letters": self.hadamard, "target": 0.90 + 0.09 * rng.random()}]
        for length in self.LENGTHS:
            while True:
                letters = canonical_letters(rng, length)
                target = 0.90 + 0.09 * rng.random()
                # keep the target inside calibrate_t2's bracket
                if checks.dephasing_oracle_fidelity(letters, self.T2_BOUNDS[0]) < target:
                    break
            specs.append({"letters": letters, "target": target})
        for spec in specs:
            spec["word"] = word_string(spec["letters"])
        return specs

    def task(self, spec: dict):
        word = self.bc.BraidWord.from_string(spec["word"])
        return self.ne.calibrate_t2(word, spec["target"])

    def check(self, spec: dict, result) -> list[str]:
        oracle = checks.dephasing_oracle_fidelity(spec["letters"], result.t2)
        problems = []
        if abs(result.fidelity - spec["target"]) > 1e-9:
            problems.append(f"fidelity {result.fidelity!r} misses target {spec['target']!r}")
        if abs(result.fidelity - oracle) > checks.FLOAT_TOL:
            problems.append(f"fidelity {result.fidelity!r} != oracle {oracle!r}")
        return problems


class RbPb(InProcess):
    """Each task is what ``fibanyon benchmark --protocol pb
    --interleave-hadamard`` computes for one noisy model from the pool, in
    one space; a round runs one LS task and two PS tasks."""

    name = "rb-pb"
    # A PS task costs about 1.3 times an LS task.  Two of the three tasks of
    # a round are PS, so the median task falls inside the PS group rather
    # than on the boundary between the two cost groups.
    POOL = 16
    M_GRID = (1, 2, 4, 8, 16, 32, 64)
    SEQUENCES = 30

    def __init__(self, seed: int, references: dict | None = None) -> None:
        super().__init__(seed, load_references(self.name) if references is None else references)
        import numpy as np
        from fibanyon import benchmark_suite, braid_compiler, braid_space, noise_engine

        self.np, self.bench, self.bc, self.bs, self.ne = (
            np, benchmark_suite, braid_compiler, braid_space, noise_engine)
        self.group = benchmark_suite.CliffordGroup()
        braid_space.sigma(12), braid_space.sigma(23), braid_space.logical_encoding()

    def round(self, r: int) -> list[tuple[str, int]]:
        return [("ls", deal(r, self.POOL, self.seed, self.name, "ls")),
                ("ps", deal(2 * r, self.POOL, self.seed, self.name, "ps")),
                ("ps", deal(2 * r + 1, self.POOL, self.seed, self.name, "ps"))]

    def pool_specs(self) -> list[tuple[str, int]]:
        return [(space, i) for space in ("ls", "ps") for i in range(self.POOL)]

    def noise_model(self, index: int):
        params = dict(noise_params(index))
        params["t2"] = tuple(params["t2"])
        return self.ne.NoiseModel(**params)

    def gate_noise(self, noise, dim: int):
        """Per-Clifford noise transfer map, built as the CLI builds it."""
        bench, np = self.bench, self.np
        ptm = bench.identity_ptm(dim)
        rates = noise.rates()
        if dim == 4 and any(rates):
            channel = lambda rho: self.ne.apply_dephasing(
                self.ne.DensityMatrix(rho), rates, noise.clifford_duration).matrix
            ptm = bench.qpt(channel, 4).compose(ptm)
        if dim == 2 and any(rates):
            decay = float(np.exp(-noise.clifford_duration * sum(rates)))
            ptm = bench.dephasing_ptm(decay).compose(ptm)
        if noise.depolarizing_prob:
            ptm = bench.depolarizing_ptm(dim, noise.depolarizing_prob).compose(ptm)
        if noise.over_rotation_angle:
            u = self.ne.over_rotation_unitary(noise.over_rotation_axis, noise.over_rotation_angle)
            if dim == 4:
                iso = self.bs.logical_encoding()
                u = iso @ u @ iso.conj().T + (np.eye(4) - iso @ iso.conj().T)
            ptm = bench.ptm_of_unitary(u).compose(ptm)
        return ptm

    def task(self, spec: tuple[str, int]) -> dict:
        space, index = spec
        bench, bc = self.bench, self.bc
        noise = self.noise_model(index)
        dim = 4 if space == "ps" else 2
        make = bench.physical_gateset if space == "ps" else bench.logical_gateset
        gateset = make(noise=self.gate_noise(noise, dim), group=self.group)
        word = bc.hadamard_word()
        ptm_ps = bench.qpt(self.ne.word_channel(word, noise), 4)
        if space == "ps":
            target = bench.NoisyGate(bc.evaluate(word, "physical4"), ptm_ps)
        else:
            target = bench.NoisyGate(bc.evaluate(word, "logical2"), bench.project_to_logical(ptm_ps))
        seed = 1000 + index
        m, k = self.M_GRID, self.SEQUENCES
        reference = bench.rb_reference(gateset, m, k, seed)
        rb_int = bench.rb_interleaved(target, gateset, m, k, seed, reference)
        pb_ref = bench.pb_run(gateset, None, m, k, seed + 2)
        pb_int = bench.pb_run(gateset, target, m, k, seed + 3)
        budget = bench.error_budget(rb_int, pb_ref, pb_int, dim=gateset.dim)
        oracle = bench.average_gate_fidelity(target.ptm, target.unitary)

        def fit(f) -> dict:
            return {**f.to_dict(), "means": list(f.means), "stddevs": list(f.stddevs)}

        return {
            "reference": fit(reference),
            "interleaved": {**fit(rb_int.fit), "f_rb": rb_int.f_rb,
                            "channel_oracle_fidelity": oracle,
                            "warnings": list(rb_int.warnings)},
            "pb_reference": {**fit(pb_ref.fit), "incoherent_per_gate": pb_ref.incoherent_per_gate},
            "pb_interleaved": {**fit(pb_int.fit), "incoherent_per_gate": pb_int.incoherent_per_gate},
            "error_budget": {"total_infidelity": budget.total_infidelity,
                             "incoherent": budget.incoherent, "coherent": budget.coherent,
                             "warnings": list(budget.warnings)},
        }

    def check(self, spec: tuple[str, int], result: dict) -> list[str]:
        return checks.compare(self.record(spec, result), self.references[spec_key(spec)])

    def record(self, spec, result: dict) -> dict:
        return json.loads(json.dumps(result))

    @staticmethod
    def frb_gap(result: dict) -> float:
        """The known LS/PS disagreement: interleaved F_RB minus the channel
        oracle fidelity of the same target."""
        inter = result["interleaved"]
        return inter["f_rb"] - inter["channel_oracle_fidelity"]


class BraidSearch(InProcess):
    """Each task is one exhaustive ``search_word`` at :data:`LETTERS` letters
    toward a pool target: the named gates, then Haar-random unitaries."""

    name = "braid-search"
    LETTERS = 7
    POOL = 32

    def __init__(self, seed: int, references: dict | None = None) -> None:
        super().__init__(seed, load_references(self.name) if references is None else references)
        import numpy as np
        from fibanyon import braid_compiler, braid_space

        self.np, self.bc = np, braid_compiler
        named = {"identity": np.eye(2, dtype=complex), "hadamard": braid_compiler.hadamard_gate(),
                 "sigma12": braid_space.sigma_logical(12), "sigma23": braid_space.sigma_logical(23)}
        self.targets = [named[name] for name in NAMED_GATES] + [
            np.array([[complex(re, im) for re, im in row]
                      for row in haar_unitary(stream("pool", "search-target", index))])
            for index in range(len(NAMED_GATES), self.POOL)]

    def round(self, r: int) -> list[int]:
        return [deal(r, self.POOL, self.seed, self.name)]

    def pool_specs(self) -> list[int]:
        return list(range(self.POOL))

    def task(self, index: int):
        return self.bc.search_word(self.targets[index], self.LETTERS)

    def check(self, index: int, result) -> list[str]:
        np = self.np
        u = self.bc.evaluate(result.word, "logical2")
        # squared distances: sqrt amplifies rounding near zero to ~1e-8
        recomputed = 4.0 - 2.0 * abs(np.trace(self.targets[index].conj().T @ u))
        reported = result.distance ** 2
        reference = self.references[spec_key(index)]["distance"] ** 2
        problems = []
        if abs(reported - recomputed) > checks.FLOAT_TOL:
            problems.append(f"distance^2 {reported!r} != recomputed {recomputed!r}")
        if reported > reference + checks.FLOAT_TOL:
            problems.append(f"distance^2 {reported!r} worse than reference {reference!r}")
        return problems

    def record(self, index: int, result) -> dict:
        return {"distance": result.distance, "word": result.word.to_string(),
                "evaluated": result.evaluated}


WORKLOADS = {w.name: w for w in (CliSession, NoiseSweep, RbPb, BraidSearch)}


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


@dataclass
class Record:
    task: int
    spec: object
    traced: bool
    latency_s: float
    result: object = None
    error: str | None = None
    scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        """The latency at the reference's nominal speed."""
        return self.latency_s * self.scale


def run_rounds(workload, seconds: float, trace: bool) -> tuple[list[Record], float]:
    """Run whole rounds of tasks, one at a time, until ``seconds`` elapsed.

    With ``trace`` every task runs twice, plain and traced, alternating which
    goes first, so the tracing overhead is measured on the same inputs.  The
    workload's reference is timed just before and just after each task, on
    the task's CPU, to scale its latency to nominal speed (:func:`proc.timed`).
    """
    records: list[Record] = []
    start = time.perf_counter()
    task = 0
    r = 0
    while True:
        for spec in workload.round(r):
            modes = ((False, True) if task % 2 == 0 else (True, False)) if trace else (False,)
            for traced in modes:
                def attempt():
                    try:
                        return workload.run(task, spec, traced), None
                    except Exception as exc:  # a failed task is counted, not fatal
                        return None, f"{type(exc).__name__}: {exc}"

                (result, error), latency, scale = timed(workload.reference, attempt)
                records.append(Record(task, spec, traced, latency, result, error, scale))
            task += 1
        r += 1
        if time.perf_counter() - start >= seconds:
            unpin()
            return records, time.perf_counter() - start


def summarize(workload, records: list[Record], timed_s: float) -> dict:
    """Check every output and reduce the records to the run's numbers."""
    failures: dict[int, list[str]] = {}
    specs = {}
    for rec in records:
        specs[rec.task] = rec.spec
        problems = [rec.error] if rec.error else workload.check(rec.spec, rec.result)
        if problems:
            failures.setdefault(rec.task, []).extend(problems)
    tasks = sorted({rec.task for rec in records})
    plain = [rec for rec in records if not rec.traced]
    traced = [rec.scaled_s for rec in records if rec.traced]
    summary = {
        "attempted": len(tasks),
        "failed": len(failures),
        "passed": len(tasks) - len(failures),
        "timed_s": timed_s,
        "latencies_ms": [1e3 * rec.scaled_s for rec in plain],
        "wall_latencies_ms": [1e3 * rec.latency_s for rec in plain],
        "scales": [rec.scale for rec in plain],
        "failures": [f"task {t} {json.dumps(specs[t])}: {'; '.join(p[:3])}"
                     for t, p in sorted(failures.items())][:5],
    }
    if traced:
        summary["overhead_ratio"] = sum(traced) / sum(rec.scaled_s for rec in plain)
    if isinstance(workload, RbPb):
        gaps: dict[str, list[float]] = {"ls": [], "ps": []}
        for rec in records:
            if rec.result is not None and not rec.traced:
                gaps[rec.spec[0]].append(RbPb.frb_gap(rec.result))
        summary["frb_gap"] = gaps
    return summary
