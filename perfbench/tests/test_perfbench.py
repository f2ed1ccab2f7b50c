"""Tests of the benchmark itself: span arithmetic, output checks, seeding.

    python -m pytest perfbench/tests
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import proc
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_union_of_children():
    tree = [
        spans.Span("root", "cli", 0, 100, None, 0),
        spans.Span("a", "noise_engine", 10, 40, 0, 0),
        spans.Span("b", "benchmark_suite", 30, 60, 0, 0),   # overlaps a
        spans.Span("c", "braid_space", 15, 20, 1, 0),       # child of a
        spans.Span("d", "braid_space", 90, 120, 0, 0),      # runs past its parent
    ]
    assert spans.self_times(tree) == [100 - 50 - 10, 30 - 5, 30, 5, 30]


def test_layer_busy_time_sums_self_times():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span("noise_engine.calibrate_t2", "noise_engine", 0, 10_000_000, None, 0),
        spans.Span("benchmark_suite.qpt", "benchmark_suite", 1_000_000, 7_000_000, 0, 0),
        spans.Span("noise_engine.channel", "noise_engine", 2_000_000, 5_000_000, 1, 0),
    ]
    tracer.counts.update({"noise_engine.calibrate_t2": 1, "noise_engine.predict_gate_fidelity": 3,
                          "benchmark_suite.qpt": 1, "noise_engine.channel": 1})
    m = spans.layer_metrics(tracer, n_tasks=2)
    assert m["noise_engine.busy_ms"] == pytest.approx((4 + 3) / 2)
    assert m["benchmark_suite.busy_ms"] == pytest.approx(3 / 2)
    assert m["benchmark_suite.qpt_ms"] == pytest.approx(6 / 2)
    assert m["noise_engine.fidelity_evals_per_calibration"] == 3
    assert m["noise_engine.calls"] == pytest.approx(5 / 2)


def test_instrumentation_counts_and_restores():
    from fibanyon import benchmark_suite, braid_compiler, noise_engine

    original = noise_engine.predict_gate_fidelity
    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer)
    instrumentation.install()
    try:
        fidelity = noise_engine.predict_gate_fidelity(
            braid_compiler.hadamard_word(), noise_engine.NoiseModel(t2=(1.0, 1.0)))
    finally:
        instrumentation.uninstall()
    assert noise_engine.predict_gate_fidelity is original
    assert benchmark_suite.qpt.__module__ == "fibanyon.benchmark_suite"
    assert tracer.counts["noise_engine.predict_gate_fidelity"] == 1
    assert tracer.counts["benchmark_suite.qpt"] == 1
    assert tracer.counts["noise_engine.channel"] >= 16
    names = {s.name for s in tracer.spans}
    assert {"noise_engine.predict_gate_fidelity", "benchmark_suite.qpt",
            "noise_engine.channel"} <= names
    assert fidelity == noise_engine.predict_gate_fidelity(
        braid_compiler.hadamard_word(), noise_engine.NoiseModel(t2=(1.0, 1.0)))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def test_compare_tolerances():
    ref = {"rate": 0.98, "residual": 1e-3, "mean": 0.5, "model": "rb", "rows": [[1.0, "x"]]}
    assert checks.compare(dict(ref), ref) == []
    assert checks.compare({**ref, "mean": 0.5 + 1e-13}, ref) == []
    assert checks.compare({**ref, "mean": 0.5 + 1e-9}, ref)
    assert checks.compare({**ref, "rate": 0.98 + 1e-9}, ref) == []     # within fit tolerance
    assert checks.compare({**ref, "rate": 0.98 + 1e-6}, ref)
    assert checks.compare({**ref, "residual": 5e-4}, ref) == []        # a better fit passes
    assert checks.compare({**ref, "residual": 2e-3}, ref)
    assert checks.compare({**ref, "model": "pb"}, ref)
    assert checks.compare({k: v for k, v in ref.items() if k != "mean"}, ref)


def _records(workload, spec, results):
    return [workloads.Record(i, spec, False, 0.1, result) for i, result in enumerate(results)]


def test_altered_cli_output_counts_as_failed_task(tmp_path):
    good, bad = tmp_path / "good", tmp_path / "bad"
    for d, value in ((good, 0.25), (bad, 0.25 + 1e-6)):
        d.mkdir()
        (d / "fit.json").write_text(json.dumps({"A": 0.5, "value": value}))
        (d / "decay.csv").write_text("m,mean\n1,0.5\n")
    spec = ("benchmark-rb", 0)
    workload = workloads.CliSession(0, references={"benchmark-rb/0": checks.read_outputs(good)})
    try:
        results = [{"exitcode": 0, "out": good}, {"exitcode": 0, "out": bad}]
        summary = workloads.summarize(workload, _records(workload, spec, results), 1.0)
    finally:
        workload.close()
    assert (summary["attempted"], summary["failed"], summary["passed"]) == (2, 1, 1)
    assert "value" in summary["failures"][0]


def test_altered_calibration_counts_as_failed_task():
    workload = workloads.NoiseSweep(3)
    spec = workload.round(0)[1]
    result = workload.task(spec)
    assert workload.check(spec, result) == []
    shifted = replace(result, fidelity=result.fidelity + 1e-11)
    summary = workloads.summarize(workload, _records(workload, spec, [result, shifted]), 1.0)
    assert (summary["failed"], summary["passed"]) == (1, 1)


def test_altered_search_distance_counts_as_failed_task():
    workload = workloads.BraidSearch(0)
    reference = workload.references["2"]      # sigma12: found exactly
    from fibanyon.braid_compiler import BraidWord, SearchResult

    word = BraidWord.from_string(reference["word"])
    exact = SearchResult(word, reference["distance"], 1, False)
    worse = SearchResult(BraidWord.from_string("s12^2"), 0.5, 1, False)
    assert workload.check(2, exact) == []
    assert len(workload.check(2, worse)) == 2


def test_dephasing_oracle_matches_program_fidelity():
    from fibanyon import braid_compiler, noise_engine

    word = braid_compiler.hadamard_word()
    program = noise_engine.predict_gate_fidelity(word, noise_engine.NoiseModel(t2=(0.7, 0.7)))
    oracle = checks.dephasing_oracle_fidelity([tuple(l) for l in word.letters], 0.7)
    assert abs(program - oracle) < checks.FLOAT_TOL


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def _inputs(cls, seed: int) -> str:
    workload = cls(seed)
    try:
        rounds = [workload.round(r) for r in range(3)]
        files = [workloads.cli_case(*spec) for rnd in rounds for spec in rnd] \
            if cls is workloads.CliSession else []
        return json.dumps({"rounds": rounds, "files": files})
    finally:
        workload.close()


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_same_seed_gives_identical_inputs(cls):
    assert _inputs(cls, 7) == _inputs(cls, 7)
    assert _inputs(cls, 7) != _inputs(cls, 8)


def test_deal_covers_the_pool_evenly():
    dealt = [workloads.deal(r, 8, 5, "k") for r in range(16)]
    assert sorted(dealt[:8]) == sorted(dealt[8:]) == list(range(8))
    assert dealt == [workloads.deal(r, 8, 5, "k") for r in range(16)]
    assert dealt != [workloads.deal(r, 8, 6, "k") for r in range(16)]


def test_reference_scales_wall_time_to_nominal_speed():
    ref = proc.Reference(lambda: None, nominal_s=0.01, samples=1)
    # the reference ran at half speed around the measurement: halve the time
    assert ref.scale(0.015, 0.025) == pytest.approx(0.5)
    rec = workloads.Record(0, "spec", False, 0.8, scale=ref.scale(0.02, 0.02))
    assert rec.scaled_s == pytest.approx(0.4)
    result, wall, scale = proc.timed(ref, lambda: 42)
    assert result == 42 and wall >= 0 and scale > 0


def test_pool_inputs_are_fixed():
    assert json.dumps(workloads.noise_params(3)) == json.dumps(workloads.noise_params(3))
    assert workloads.noise_params(3) != workloads.noise_params(4)
    for kind, size in workloads.CLI_POOL.items():
        assert workloads.cli_case(kind, size - 1) == workloads.cli_case(kind, size - 1)


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
