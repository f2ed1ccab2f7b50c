"""fibanyon benchmark: one seeded workload per run, every output checked.

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 10 --trace 0

Run it from the repository root.  With ``--trace 0`` it prints the
end-to-end metrics, measured with tracing off; with ``--trace 1`` a separate
traced run prints the per-layer metrics.  The lines before the last give the
run's environment (``meta``), sample counts and failures; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record of the run is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version

from proc import HERE, INTERPRETER_START, OUT, PYTHON, ROOT, SRC, THREAD_SETTINGS, run_child, timed, unpin

SETUP_SAMPLES = 5
"""Set-up is measured in this many fresh processes and reported as their
median."""

TIMES_NOTE = ("times are scaled to nominal CPU speed by reference work timed "
              "around each measurement (perfbench/proc.py)")

END_TO_END = {
    "tasks_per_s": "1/s",
    "task_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SUBCOMMANDS = ("verify", "compile", "benchmark", "robustness", "dump-matrices", "calibrate")

PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    **{f"cli.main_ms.{c}": "ms" for c in SUBCOMMANDS},
    "anyon_model.calls": "count",
    "anyon_model.busy_ms": "ms",
    "braid_space.calls": "count",
    "braid_space.busy_ms": "ms",
    "braid_space.cold_builds": "count",
    "braid_compiler.calls": "count",
    "braid_compiler.busy_ms": "ms",
    "braid_compiler.search_ms": "ms",
    "braid_compiler.words_evaluated": "count",
    "braid_compiler.words_per_s": "1/s",
    "braid_compiler.evaluate_calls": "count",
    "braid_compiler.evaluate_ms": "ms",
    "noise_engine.calls": "count",
    "noise_engine.busy_ms": "ms",
    "noise_engine.fidelity_evals": "count",
    "noise_engine.fidelity_evals_per_calibration": "ratio",
    "noise_engine.channel_calls": "count",
    "noise_engine.density_matrices": "count",
    "benchmark_suite.calls": "count",
    "benchmark_suite.busy_ms": "ms",
    "benchmark_suite.qpt_calls": "count",
    "benchmark_suite.qpt_ms": "ms",
    "benchmark_suite.ptm_of_unitary_calls": "count",
    "benchmark_suite.ptm_of_unitary_ms": "ms",
    "benchmark_suite.gateset_ms": "ms",
    "benchmark_suite.sequences": "count",
    "benchmark_suite.sequence_ms": "ms",
    "benchmark_suite.nearest_calls": "count",
    "benchmark_suite.fit_calls": "count",
    "benchmark_suite.fit_ms": "ms",
    "benchmark_suite.fit_flat_ratio": "ratio",
    "benchmark_suite.frb_gap_ls": "fidelity",
    "benchmark_suite.frb_gap_ps": "fidelity",
    "robustness_lab.calls": "count",
    "robustness_lab.busy_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
"""Counts and times are per traced task; layers a workload never calls read 0."""


def metadata(args: argparse.Namespace) -> dict:
    def pkg(name: str) -> str | None:
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fibanyon").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": pkg("numpy"), "scipy": pkg("scipy"),
        "commit": commit, "source_sha256": digest.hexdigest(), "threads": THREAD_SETTINGS,
    }


def last_json_line(path) -> dict:
    lines = path.read_text().strip().splitlines()
    return json.loads(lines[-1])


def run_in_process(args: argparse.Namespace) -> dict:
    """Set-up probes, then the measured worker, each a fresh process."""
    worker = str(HERE / "worker.py")
    base = [PYTHON, worker, "--workload", args.workload, "--seed", str(args.seed)]
    stdout, stderr = OUT / f"{args.workload}-worker.out", OUT / f"{args.workload}-worker.err"
    setups, wall_setups = [], []
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        child, _, scale = timed(INTERPRETER_START, lambda: run_child(
            base + ["--setup-only", "--launched", repr(time.monotonic())],
            timeout=60, stdout_path=stdout, stderr_path=stderr))
        if child.exitcode != 0:
            raise RuntimeError(f"set-up probe failed:\n{stderr.read_text()}")
        wall_setups.append(last_json_line(stdout)["setup_s"])
        setups.append(wall_setups[-1] * scale)
    unpin()  # the worker picks a CPU per task, so it must see all of them
    child = run_child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                              "--launched", repr(time.monotonic())],
                      timeout=150, stdout_path=stdout, stderr_path=stderr)
    if child.exitcode != 0:
        raise RuntimeError(f"worker failed with exit code {child.exitcode}:\n{stderr.read_text()}")
    summary = last_json_line(stdout)
    summary["setup_samples_s"] = setups
    summary["wall_setup_samples_s"] = wall_setups
    summary["peak_rss_mb"] = child.maxrss_kb / 1024
    return summary


def import_probe(code: str) -> tuple[float, float]:
    """Wall time of ``python -c code``, scaled and as measured."""
    child, _, scale = timed(INTERPRETER_START, lambda: run_child([PYTHON, "-c", code], timeout=60))
    if child.exitcode != 0:
        raise RuntimeError(f"python -c {code!r} exited with {child.exitcode}")
    return child.wall_s * scale, child.wall_s


def run_cli_session(args: argparse.Namespace) -> dict:
    """Set-up probes, then the tasks, each task its own CLI process."""
    import workloads

    if args.trace:
        bare = [import_probe("pass")[0] for _ in range(SETUP_SAMPLES)]
        imported = [import_probe("import fibanyon.cli")[0] for _ in range(SETUP_SAMPLES)]
        probes = []
    else:
        probes = [import_probe("import fibanyon.cli") for _ in range(SETUP_SAMPLES)]

    workload = workloads.CliSession(args.seed)
    try:
        records, timed_s = workloads.run_rounds(workload, args.seconds, bool(args.trace))
        summary = workloads.summarize(workload, records, timed_s)
        done = [r.result for r in records if r.result is not None]
        summary["peak_rss_mb"] = max((r["maxrss_kb"] for r in done), default=0) / 1024
        if args.trace:
            import spans

            tracer = spans.Tracer()
            for r in done:
                if r["spans"] is not None and r["spans"].exists():
                    tracer.extend(r["spans"].read_text())
            (OUT / "cli-session-spans.json").write_text(tracer.to_json())
            layers = spans.layer_metrics(tracer, summary["attempted"])
            layers["cli.import_ms"] = 1e3 * (statistics.median(imported) - statistics.median(bare))
            per_task = spans.self_ms_by_task(tracer, "cli")
            command_of = {r.task: workloads.cli_case(*r.spec)[0][0] for r in records}
            for command in SUBCOMMANDS:
                own = [ms for task, ms in per_task.items() if command_of[task] == command]
                layers[f"cli.main_ms.{command}"] = statistics.fmean(own) if own else 0.0
            summary["layers"] = layers
    finally:
        workload.close()
    summary["setup_samples_s"] = [scaled for scaled, _ in probes]
    summary["wall_setup_samples_s"] = [wall for _, wall in probes]
    return summary


def metrics_of(summary: dict, trace: bool) -> dict[str, dict]:
    if trace:
        layers = dict(summary["layers"])
        layers["trace.overhead_ratio"] = summary["overhead_ratio"]
        gaps = summary.get("frb_gap", {})
        for space in ("ls", "ps"):
            layers[f"benchmark_suite.frb_gap_{space}"] = (
                statistics.median(gaps[space]) if gaps.get(space) else 0.0)
        values = {name: layers.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {
            "tasks_per_s": summary["passed"] / (sum(summary["latencies_ms"]) / 1e3),
            "task_ms_p50": statistics.median(summary["latencies_ms"]),
            "setup_s": statistics.median(summary["setup_samples_s"]),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        units = END_TO_END
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-session", "noise-sweep", "rb-pb", "braid-search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fibanyon" / "__init__.py").is_file():
        print(f"perfbench: no fibanyon sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    # byte-compile up front so that no measured process pays for it
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    meta = metadata(args)
    if args.workload == "cli-session":
        summary = run_cli_session(args)
    else:
        summary = run_in_process(args)
    metrics = metrics_of(summary, bool(args.trace))
    failed_ratio = summary["failed"] / summary["attempted"]

    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(
        {"meta": meta, "summary": summary, "metrics": metrics}, indent=1, default=str))
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"{args.workload} seed={args.seed}: {summary['attempted']} tasks attempted, "
          f"{summary['failed']} failed (failed_ratio {failed_ratio:.4f}), "
          f"timed phase {summary['timed_s']:.2f} s, "
          f"{len(summary['latencies_ms'])} latency samples, "
          f"{len(summary['setup_samples_s'])} set-up samples")
    for line in summary["failures"]:
        print(f"FAILED {line}")
    if not args.trace:
        wall = summary["wall_latencies_ms"]
        print(f"{TIMES_NOTE}; median scale factor {statistics.median(summary['scales']):.4f}; "
              f"unscaled: tasks_per_s {summary['passed'] / (sum(wall) / 1e3):.6g}, "
              f"task_ms_p50 {statistics.median(wall):.6g}, "
              f"setup_s {statistics.median(summary['wall_setup_samples_s']):.6g}")
    if "frb_gap" in summary:
        print("f_rb - channel_oracle_fidelity: " + json.dumps(summary["frb_gap"]))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
