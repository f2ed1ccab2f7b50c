import ast
import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fibanyon import anyon_model as am
from fibanyon import benchmark_suite as bench
from fibanyon import braid_compiler as bc
from fibanyon import braid_space as bs
from fibanyon import cli
from fibanyon import noise_engine as ne
from fibanyon import robustness_lab as rob
from fibanyon._philox import rng_for


def run(argv):
    return cli.main(argv)


class TestVerify:
    def test_default_run_passes(self, capsys):
        assert run(["verify", "--leakage-words", "25"]) == 0
        out = capsys.readouterr().out
        assert "all 20 checks passed" in out

    def test_list_prints_names_only(self, capsys):
        assert run(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        assert "pentagon" in out
        assert "PASS" not in out

    def test_listed_names_match_executed_checks(self, tmp_path, capsys):
        assert run(["verify", "--list"]) == 0
        listed = capsys.readouterr().out.splitlines()
        report = tmp_path / "report.json"
        assert run(["verify", "--leakage-words", "2", "--json", str(report)]) == 0
        capsys.readouterr()
        assert listed == [c["name"] for c in json.loads(report.read_text())["checks"]]

    def test_injected_f_error_fails_naming_pentagon(self, capsys, monkeypatch):
        fibonacci = am.FSymbolTable.fibonacci
        key = (1, 1, 0, 1, 1, 0)

        def corrupted(fusion=None):
            table = fibonacci(fusion)
            return table._replace(entries={**table.entries, key: -table.get(*key)})

        bs._fib_tables()  # cache the true tables first: the generators must not see the corruption
        monkeypatch.setattr(am.FSymbolTable, "fibonacci", corrupted)
        assert run(["verify", "--leakage-words", "5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  pentagon" in out
        assert "FAILED:" in out and "pentagon" in out.split("FAILED:")[1]

    def test_injected_qdim_error_fails_qdim_consistency(self, capsys, monkeypatch):
        fibonacci = am.FusionData.fibonacci

        def corrupted():
            fusion = fibonacci()
            return dataclasses.replace(fusion, qdim={**fusion.qdim, am.TAU: 1.6})

        bs._fib_tables()  # cache the true tables first: the generators must not see the corruption
        monkeypatch.setattr(am.FusionData, "fibonacci", corrupted)
        assert run(["verify", "--leakage-words", "5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  qdim-consistency" in out
        assert out.split("FAILED:")[1].split() == ["qdim-consistency"]

    def test_broken_circuit_fails_its_row_and_writes_report(self, tmp_path, capsys, monkeypatch):
        zyz_angles = bc._zyz_angles

        def shifted(u):
            alpha, b, c, d = zyz_angles(u)
            return alpha, b + 1e-9, c, d

        monkeypatch.setattr(bc, "_zyz_angles", shifted)
        report = tmp_path / "report.json"
        assert run(["verify", "--leakage-words", "2", "--json", str(report)]) == 1
        out = capsys.readouterr().out
        assert "FAIL  circuit-decompositions" in out
        assert out.split("FAILED:")[1].split() == ["circuit-decompositions"]
        checks = json.loads(report.read_text())["checks"]
        assert {c["name"] for c in checks if not c["passed"]} == {"circuit-decompositions"}

    def test_json_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run(["verify", "--leakage-words", "5", "--json", str(report)]) == 0
        capsys.readouterr()
        data = json.loads(report.read_text())
        assert data["passed"] is True
        assert any(c["name"] == "pentagon" for c in data["checks"])

    def test_tolerance_scale_can_force_failure(self, capsys):
        # scaling all tolerances to absurdly tight values flips the result
        assert run(["verify", "--leakage-words", "5", "--tolerance", "1e-9"]) == 1
        capsys.readouterr()


def scalar_word_leakage(seed, count):
    """The random-word-leakage check as a scalar loop of numpy generator
    draws: word i is 1 + rng_for(seed, 2i).integers(0, 50) letters long, and
    rng_for(seed, 2i + 1).integers(0, 4) picks each letter from sigma23^-1,
    sigma23, sigma12^-1 and sigma12.  The oracle for the stacked products of
    the CLI."""
    letters = [bc.letter_matrix("physical4", g, p) for g in (23, 12) for p in (-1, 1)]
    worst_leak = 0.0
    p_l = bs.logical_projector()
    for i in range(count):
        length = 1 + int(rng_for(seed, 2 * i).integers(0, 50))
        u = np.eye(4, dtype=complex)
        for letter in rng_for(seed, 2 * i + 1).integers(0, 4, size=length):
            u = letters[letter] @ u
        worst_leak = max(worst_leak, float(np.linalg.norm((np.eye(4) - p_l) @ u @ p_l, 2)))
    return worst_leak


class TestRandomWordLeakage:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 2**31, 2**32 + 1,
                                      12345678901234567, 2**63, 2**64 - 2, 2**64 - 1,
                                      cli.DEFAULT_SEED, cli.DEFAULT_SEED + 1])
    def test_matches_scalar_loop(self, seed):
        got = cli._random_word_leakage(seed, 100)
        assert got == scalar_word_leakage(seed, 100)

    @pytest.mark.parametrize("count", [0, 1, 7, 20])
    def test_batches_match_scalar_loop(self, count, monkeypatch):
        monkeypatch.setattr(cli, "_WORD_BATCH", 3)
        got = cli._random_word_leakage(99, count)
        assert got == scalar_word_leakage(99, count)


class TestCompile:
    def test_hadamard_shortcut(self, tmp_path, capsys):
        out_file = tmp_path / "h.json"
        assert run(["compile", "--hadamard", "--out", str(out_file)]) == 0
        printed = capsys.readouterr().out
        assert "letters: 15" in printed and "crossings: 30" in printed
        data = json.loads(out_file.read_text())
        assert data["distance"] < 0.01
        assert data["word"].startswith("s12^4 s23^-2")

    def test_named_identity(self, capsys):
        assert run(["compile", "--named", "identity", "--max-letters", "3"]) == 0
        out = capsys.readouterr().out
        assert "(empty)" in out
        assert "distance: 0.000000000000" in out

    def test_named_generator_compiles_to_itself(self, tmp_path, capsys):
        out_file = tmp_path / "s.json"
        assert run(["compile", "--named", "sigma12", "--max-letters", "1",
                    "--out", str(out_file)]) == 0
        capsys.readouterr()
        data = json.loads(out_file.read_text())
        assert data["word"] == "s12^1"
        assert data["distance"] < 1e-6

    def test_unknown_named_gate(self, capsys):
        assert run(["compile", "--named", "toffoli"]) == 2

    def test_zero_letter_budget_flagged(self, tmp_path, capsys):
        out_file = tmp_path / "x.json"
        assert run(["compile", "--named", "hadamard", "--max-letters", "0",
                    "--out", str(out_file)]) == 0
        capsys.readouterr()
        data = json.loads(out_file.read_text())
        assert data["word"] == ""
        assert data["budget_exhausted"] is True
        assert data["distance"] > 0

    def test_non_unitary_target_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([[[1, 0], [0, 0]], [[0, 0], [2, 0]]]))
        assert run(["compile", "--target", str(bad)]) == 2
        assert "not unitary" in capsys.readouterr().err

    def test_nan_target_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([[[1, 0], [0, 0]], [[0, 0], [float("nan"), 0]]]))
        assert run(["compile", "--target", str(bad)]) == 2
        assert "not unitary" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # a numpy warning would print two more stderr lines
    def test_integer_beyond_float_range_rejected(self, tmp_path, capsys):
        # JSON integers are read as floats, so a 400-digit integer is infinite, as 1e999 is, and the
        # target not unitary
        bad = tmp_path / "bad.json"
        for entry in (f"1{'0' * 400}", "1e999"):
            bad.write_text(f"[[[{entry}, 0], [0, 0]], [[0, 0], [1, 0]]]")
            assert run(["compile", "--target", str(bad)]) == 2
            assert capsys.readouterr().err == "target matrix is not unitary\n"

    @pytest.mark.parametrize("content,message", [
        (None, "No such file"),
        ("{not json", "Expecting property name"),
        ("[[1, 0]]", "[re, im] pairs"),
        ("[[[true, false], [false, false]], [[false, false], [true, false]]]", "[re, im] pairs"),
        ('[[["1", "0"], [0, 0]], [[0, 0], [1, 0]]]', "[re, im] pairs"),
        ('[[[1, 0], {"re": 0, "im": 0}], [[0, 0], [1, 0]]]', "[re, im] pairs"),
        ("[[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]]", "[re, im] pairs"),
        ('"[[1, 0]]"', "[re, im] pairs"),
        ("7", "[re, im] pairs"),
    ])
    def test_unreadable_target_exits_2(self, tmp_path, capsys, content, message):
        target = tmp_path / "target.json"
        if content is not None:
            target.write_text(content)
        assert run(["compile", "--target", str(target)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert message in err and str(target) in err

    def test_deeply_nested_target_exits_2(self, tmp_path, capsys):
        target = tmp_path / "deep.json"
        target.write_text("[" * 100_000 + "]" * 100_000)
        assert run(["compile", "--target", str(target)]) == 2
        err = capsys.readouterr().err
        assert err == f"cannot read target matrix {target}: JSON nested too deeply\n"

    def test_matrix_file_target(self, tmp_path, capsys):
        h = 1 / np.sqrt(2)
        target = tmp_path / "h.json"
        target.write_text(json.dumps([[[h, 0], [h, 0]], [[h, 0], [-h, 0]]]))
        assert run(["compile", "--target", str(target), "--max-letters", "2",
                    "--budget", "1000"]) == 0
        assert "distance:" in capsys.readouterr().out

    def test_word_evaluation(self, tmp_path, capsys):
        out_file = tmp_path / "word.json"
        assert run(["compile", "--word", "s12^2 s12^2 s23^-2",
                    "--out", str(out_file)]) == 0
        printed = capsys.readouterr().out
        assert "s12^4 s23^-2" in printed  # canonicalized on output
        data = json.loads(out_file.read_text())
        assert data["crossings"] == 6
        assert data["leakage"] < 1e-10
        logical = np.array([[complex(re, im) for re, im in row]
                            for row in data["logical_unitary"]])
        np.testing.assert_allclose(logical @ logical.conj().T, np.eye(2), atol=1e-10)

    def test_malformed_word_rejected(self, capsys):
        assert run(["compile", "--word", "nonsense"]) == 2
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("word,message", [
        ("s12^", "invalid literal for int() with base 10: ''"),
        ("s12^x", "invalid literal for int() with base 10: 'x'"),
        ("s12^2^3", "invalid literal for int() with base 10: '2^3'"),
        ("S12^2", "cannot parse braid letter 'S12^2'"),
        ("s12^x S12^2", "invalid literal for int() with base 10: 'x'"),
        ("s13^1 s12^0", "letter powers must be nonzero"),
        ("s1_2^2", "invalid literal for int() with base 10: '1_2'"),
    ])
    def test_malformed_word_exits_2_with_one_line(self, capsys, word, message):
        assert run(["compile", "--word", word]) == 2
        assert capsys.readouterr().err == f"cannot parse braid word: {message}\n"

    def test_power_far_beyond_the_order_does_not_leak(self, tmp_path, capsys):
        # sigma^(10^18) is the identity; a full matrix_power reported leakage 5.3e19
        out_file = tmp_path / "word.json"
        assert run(["compile", "--word", "s12^1000000000000000000", "--out", str(out_file)]) == 0
        capsys.readouterr()
        data = json.loads(out_file.read_text())
        assert data["crossings"] == 10**18
        assert data["leakage"] < 1e-12


class TestBenchmark:
    def test_rb_zero_noise_rate_one(self, tmp_path, capsys):
        out_dir = tmp_path / "rb"
        assert run(["benchmark", "--protocol", "rb", "--out", str(out_dir),
                    "--m-grid", "1", "2", "4", "8", "--k", "5"]) == 0
        capsys.readouterr()
        fit = json.loads((out_dir / "rb_fit.json").read_text())
        assert fit["reference"]["rate"] == 1.0
        assert (out_dir / "rb_reference.csv").read_text().startswith("m,mean,stddev,k")

    def test_deterministic_outputs(self, tmp_path, capsys):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"t2": [0.6, 0.9]}))
        args = ["benchmark", "--protocol", "rb", "--space", "ps",
                "--noise", str(noise), "--m-grid", "1", "2", "4", "--k", "4",
                "--seed", "11", "--interleave-hadamard"]
        for name in ("a", "b"):
            assert run(args + ["--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        for fname in ("rb_fit.json", "rb_reference.csv", "rb_interleaved.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_qpt_outputs(self, tmp_path, capsys):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"t2": [1.33768, 1.33768]}))
        out_dir = tmp_path / "qpt"
        assert run(["benchmark", "--protocol", "qpt", "--space", "ps",
                    "--noise", str(noise), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        fid = json.loads((out_dir / "fidelity.json").read_text())
        assert abs(fid["average_gate_fidelity"] - 0.9823) < 1e-3
        tm = json.loads((out_dir / "transfer_map.json").read_text())
        assert len(tm["matrix"]) == 16

    def test_qpt_csv_format(self, tmp_path, capsys):
        out_dir = tmp_path / "qpt_csv"
        assert run(["benchmark", "--protocol", "qpt", "--space", "ls",
                    "--format", "csv", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        rows = (out_dir / "transfer_map.csv").read_text().strip().splitlines()
        assert len(rows) == 4
        matrix = np.array([[float(v) for v in row.split(",")] for row in rows])
        # without noise the braided Hadamard map is orthogonal
        np.testing.assert_allclose(matrix @ matrix.T, np.eye(4), atol=1e-8)

    def test_qpt_ignores_sequence_options(self, tmp_path, capsys):
        base = ["benchmark", "--protocol", "qpt", "--space", "ps"]
        assert run(base + ["--out", str(tmp_path / "a")]) == 0
        assert run(base + ["--seed", "5", "--k", "3", "--m-grid", "1", "2", "3",
                           "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        for fname in ("transfer_map.json", "fidelity.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_pb_outputs_error_budget(self, tmp_path, capsys):
        out_dir = tmp_path / "pb"
        assert run(["benchmark", "--protocol", "pb", "--out", str(out_dir),
                    "--m-grid", "1", "2", "4", "--k", "4"]) == 0
        capsys.readouterr()
        budget = json.loads((out_dir / "error_budget.json").read_text())
        # no noise configured, but the braided Hadamard itself misses the
        # exact gate by its compilation distance, leaving ~1e-5 infidelity
        assert abs(budget["total_infidelity"]) < 1e-4
        assert (out_dir / "pb_reference.csv").exists()
        assert (out_dir / "pb_interleaved.csv").exists()

    @pytest.mark.parametrize("space", ["ls", "ps"])
    def test_writes_the_pipeline_numbers(self, tmp_path, capsys, space):
        model = ne.NoiseModel(t2=(0.5, 0.8), depolarizing_prob=0.01, over_rotation_angle=0.04)
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps(dataclasses.asdict(model)))
        common = ["--space", space, "--noise", str(noise), "--m-grid", "1", "2", "4",
                  "--k", "3", "--seed", "5"]
        assert run(["benchmark", "--protocol", "rb", "--interleave-hadamard", *common,
                    "--out", str(tmp_path / "rb")]) == 0
        assert run(["benchmark", "--protocol", "pb", *common, "--out", str(tmp_path / "pb")]) == 0
        capsys.readouterr()
        gateset = ne.clifford_gateset(model, space)
        expected = bench.run_protocols(gateset, ne.hadamard_target(model, space), (1, 2, 4), 3, 5, True)
        rb_int = expected.interleaved
        assert json.loads((tmp_path / "rb" / "rb_fit.json").read_text()) == {
            "space": space, "k": 3, "seed": 5,
            "reference": {**expected.reference.to_dict(), "per_gate_fidelity":
                          bench.reference_fidelity_from_rate(expected.reference.rate, gateset.dim)},
            "interleaved": {**rb_int.fit.to_dict(), "f_rb": rb_int.f_rb,
                            "channel_oracle_fidelity": expected.channel_oracle_fidelity,
                            "warnings": list(rb_int.warnings)},
        }
        pb_ref, pb_int, budget = expected.pb_reference, expected.pb_interleaved, expected.budget
        assert json.loads((tmp_path / "pb" / "pb_fit.json").read_text()) == {
            "space": space, "reference": pb_ref.fit.to_dict(), "interleaved": pb_int.fit.to_dict(),
            "incoherent_per_gate_reference": pb_ref.incoherent_per_gate,
        }
        assert json.loads((tmp_path / "pb" / "error_budget.json").read_text()) == {
            "space": space, "total_infidelity": budget.total_infidelity,
            "incoherent": budget.incoherent, "coherent": budget.coherent,
            "warnings": list(budget.warnings),
        }
        for path, fit in (("rb/rb_reference.csv", expected.reference),
                          ("rb/rb_interleaved.csv", rb_int.fit),
                          ("pb/pb_reference.csv", pb_ref.fit),
                          ("pb/pb_interleaved.csv", pb_int.fit)):
            rows = [row.split(",") for row in (tmp_path / path).read_text().splitlines()[1:]]
            assert [(int(m), float(mean), float(std)) for m, mean, std, _ in rows] == list(
                zip(fit.m_values, fit.means, fit.stddevs))

    def test_decay_csv_bytes(self, tmp_path, capsys):
        assert run(["benchmark", "--protocol", "rb", "--space", "ps", "--m-grid", "1", "2", "4",
                    "--k", "3", "--seed", "9", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        fit = bench.rb_reference(ne.clifford_gateset(ne.NoiseModel(), "ps"), (1, 2, 4), 3, 9)
        expected = "m,mean,stddev,k\n" + "".join(
            f"{m},{mean!r},{std!r},3\n" for m, mean, std in zip(fit.m_values, fit.means, fit.stddevs))
        assert (tmp_path / "rb_reference.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("space", ["ls", "ps"])
    @pytest.mark.parametrize("protocol", ["qpt", "rb", "pb"])
    def test_simulates_transfer_maps_only(self, tmp_path, capsys, monkeypatch, protocol, space):
        model = ne.NoiseModel(t2=(0.4, 0.9), depolarizing_prob=0.01, over_rotation_angle=0.05)
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps(dataclasses.asdict(model)))
        reference = bench.qpt(ne.word_channel(bc.hadamard_word(), model), 4)
        if space == "ls":
            reference = bench.project_to_logical(reference)

        def forbidden(*args, **kwargs):
            raise AssertionError("the command simulated density matrices")

        monkeypatch.setattr(bench, "qpt", forbidden)
        monkeypatch.setattr(ne, "word_channel", forbidden)
        monkeypatch.setattr(ne, "DensityMatrix", forbidden)
        out_dir = tmp_path / "out"
        argv = ["benchmark", "--protocol", protocol, "--space", space, "--noise", str(noise),
                "--m-grid", "1", "2", "3", "--k", "2", "--out", str(out_dir)]
        if protocol == "rb":
            argv.append("--interleave-hadamard")
        assert run(argv) == 0
        capsys.readouterr()
        if protocol == "qpt":
            # the tomographic cross-check of the composed map
            written = json.loads((out_dir / "transfer_map.json").read_text())["matrix"]
            np.testing.assert_allclose(written, reference.matrix, rtol=0, atol=1e-12)

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run(["benchmark", "--protocol", "nope", "--out", "/tmp/x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("content,message", [
        (None, "No such file"),
        ("{not json", "Expecting property name"),
        ('[0.5, 0.5]', "JSON object"),
        ('{"t2": [0.5]}', "2 entries"),
        ('{"t2": []}', "2 entries"),
        ('{"t2": [NaN, 0.5]}', "finite"),
        ('{"t2": [0.5, 0.5], "t2_star": [0.1, 0.1, 0.1]}', "unknown noise model keys: t2_star"),
        ('{"t2": [0.5, 0.5], "depolarising_prob": 0.3}', "unknown noise model keys: depolarising_prob"),
        ('{"t2": [0.5, 0.5], "T2": [0.1, 0.1]}', "unknown noise model keys: T2"),
        ('{"depolarizing_prob": true}', "depolarizing probability must be a number in [0, 1], got True"),
        ('{"depolarizing_prob": "0.1"}', "depolarizing probability must be a number in [0, 1], got '0.1'"),
        ('{"over_rotation_axis": ["x"]}', "over-rotation axis must be one of x, y, z, got ['x']"),
        ('{"t2": 0.5}', "t2 must be a list of one T2 time per qubit, got 0.5"),
        # 1/T2 overflows to inf, and inf times the zero Clifford duration is NaN
        ('{"t2": [5e-324, 1], "clifford_duration": 0}', "the dephasing rate 1/T2 overflows"),
    ])
    def test_bad_noise_file_exits_2(self, tmp_path, capsys, content, message):
        noise = tmp_path / "noise.json"
        if content is not None:
            noise.write_text(content)
        out_dir = tmp_path / "out"
        assert run(["benchmark", "--protocol", "qpt", "--noise", str(noise),
                    "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert message in err and str(noise) in err
        assert not out_dir.exists()

    def test_deeply_nested_noise_file_exits_2(self, tmp_path, capsys):
        noise = tmp_path / "deep.json"
        noise.write_text("[" * 100_000 + "]" * 100_000)
        out_dir = tmp_path / "out"
        assert run(["benchmark", "--protocol", "qpt", "--noise", str(noise), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"cannot use noise model {noise}: JSON nested too deeply\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", [
        ["--protocol", "qpt", "--space", "ps"],
        ["--protocol", "rb", "--space", "ps", "--interleave-hadamard", "--m-grid", "1", "2", "4", "--k", "3"],
        ["--protocol", "pb", "--space", "ls", "--m-grid", "1", "2", "4", "--k", "3"],
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_braiding_step_writes_finite_numbers(self, tmp_path, capsys, argv):
        # a letter's duration once overflowed to inf here, and inf times a zero rate is NaN;
        # with T2 set, a letter's or a physical-space Clifford's duration times its rate
        # overflows too, which must not warn
        def numbers(value):
            if isinstance(value, dict):
                return [x for v in value.values() for x in numbers(v)]
            if isinstance(value, list):
                return [x for v in value for x in numbers(v)]
            return [value] if isinstance(value, float) else []

        for i, content in enumerate(('{"braiding_step": 1e308}', '{"t2": [1, 1], "braiding_step": 1e308}',
                                     '{"t2": [1, 1], "clifford_duration": 1e308}')):
            noise = tmp_path / f"noise{i}.json"
            noise.write_text(content)
            out_dir = tmp_path / f"out{i}"
            assert run(["benchmark", *argv, "--noise", str(noise), "--out", str(out_dir)]) == 0
            capsys.readouterr()
            written = []
            for path in out_dir.iterdir():
                if path.suffix == ".json":
                    written += numbers(json.loads(path.read_text()))
                else:
                    written += [float(c) for line in path.read_text().splitlines()[1:] for c in line.split(",")]
            assert written and all(np.isfinite(written))

    @pytest.mark.parametrize("argv, flat, listed", [
        (["--protocol", "rb"], "reference RB at 0.5", None),
        (["--protocol", "rb", "--interleave-hadamard"], "reference RB at 0.5", "rb_fit.json"),
        (["--protocol", "pb"], "reference RB at 0.5, reference PB at ", "error_budget.json"),
    ])
    def test_flat_decay_off_its_noiseless_level_warns(self, tmp_path, capsys, argv, flat, listed):
        # full depolarization leaves the survival flat at 1/2 and the rescaled purity at 0
        # from the first length on, where the flat fit's rate 1 reads as a perfect gate
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"t2": [1, 1], "depolarizing_prob": 1.0}))
        assert run(["benchmark", *argv, "--space", "ls", "--noise", str(noise),
                    "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: flat decay off the noiseless level 1 (" + flat)
        if listed:
            payload = json.loads((tmp_path / "out" / listed).read_text())
            warnings = payload["interleaved"]["warnings"] if listed == "rb_fit.json" else payload["warnings"]
            assert warnings == [err[0].removeprefix("warning: ")]

    @pytest.mark.parametrize("protocol", [["rb", "--interleave-hadamard"], ["pb"]])
    def test_noiseless_flat_decay_is_silent(self, tmp_path, capsys, protocol):
        assert run(["benchmark", "--protocol", *protocol, "--space", "ls",
                    "--m-grid", "1", "2", "4", "--k", "4", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        fit = json.loads((tmp_path / f"{protocol[0]}_fit.json").read_text())
        assert fit["reference"]["rate"] == 1.0

    def test_fit_divergence_exits_2(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise bench.FitDivergenceError("decay fit failed to converge: data are not finite", math.nan)

        monkeypatch.setattr(bench, "fit_decay", diverge)
        assert run(["benchmark", "--protocol", "rb", "--m-grid", "1", "2", "4", "--k", "2",
                    "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fibanyon benchmark: decay fit failed to converge: data are not finite (residual nan)\n"


class TestDegenerateNumericInput:
    @pytest.mark.parametrize("argv,message", [
        (["benchmark", "--protocol", "rb", "--k", "1"], "--k: must be at least 2"),
        (["benchmark", "--protocol", "pb", "--m-grid", "4"], "at least 3 distinct"),
        (["benchmark", "--protocol", "rb", "--m-grid", "1", "2", "2", "1"], "at least 3 distinct"),
        (["benchmark", "--protocol", "rb", "--m-grid", "0", "1", "2"], "--m-grid: must be at least 1"),
        (["compile", "--named", "hadamard", "--budget", "-5"], "--budget: must be at least 1"),
        (["compile", "--named", "hadamard", "--budget", "0"], "--budget: must be at least 1"),
        (["compile", "--named", "hadamard", "--max-letters", "-1"], "--max-letters: must be at least 0"),
        (["verify", "--leakage-words", "-3"], "--leakage-words: must be at least 0"),
        (["verify", "--seed", "-1"], "--seed: must be at least 0"),
        (["verify", "--seed", str(2**64)], "--seed: must be at most"),
        (["benchmark", "--protocol", "pb", "--seed", "-1"], "--seed: must be at least 0"),
        # pb draws from the seed + 3 stream, which must still fit a uint64 key
        (["benchmark", "--protocol", "pb", "--seed", str(2**64 - 3)], "--seed: must be at most"),
        # a scale that is not finite and positive would fail every check with exit 1
        (["verify", "--tolerance", "nan"], "--tolerance: must be a finite positive number"),
        (["verify", "--tolerance", "inf"], "--tolerance: must be a finite positive number"),
        (["verify", "--tolerance", "0"], "--tolerance: must be a finite positive number"),
        (["verify", "--tolerance", "-1"], "--tolerance: must be a finite positive number"),
        (["verify", "--tolerance", "tight"], "--tolerance: invalid float value: 'tight'"),
        # sequence 100000 would read the index stream of the next length's sequence 0
        (["benchmark", "--protocol", "rb", "--k", "100001"], "--k: must be at most 100000"),
        # one block of index draws at this length would not fit in memory
        (["benchmark", "--protocol", "rb", "--m-grid", "1", "2", "10000000000000"],
         "--m-grid: must be at most 4096"),
        # only qpt writes a transfer map, the one file --format chooses
        (["benchmark", "--protocol", "rb", "--format", "csv", "--out", "unused"],
         "--format applies only to --protocol qpt, not rb"),
        (["benchmark", "--protocol", "pb", "--format", "json", "--out", "unused"],
         "--format applies only to --protocol qpt, not pb"),
        # qpt interleaves nothing: it tomographs the Hadamard target alone
        (["benchmark", "--protocol", "qpt", "--interleave-hadamard", "--out", "unused"],
         "--interleave-hadamard applies only to --protocol rb, not qpt"),
        # pb always runs interleaved PB, so the flag would change nothing
        (["benchmark", "--protocol", "pb", "--interleave-hadamard", "--out", "unused"],
         "--interleave-hadamard applies only to --protocol rb, not pb"),
    ])
    def test_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_largest_seed_runs(self, tmp_path, capsys):
        assert run(["benchmark", "--protocol", "pb", "--seed", str(2**64 - 4), "--k", "2",
                    "--m-grid", "1", "2", "3", "--out", str(tmp_path)]) == 0

    def test_largest_verify_seed_runs(self, capsys):
        # verify draws only the stream (seed, 0): every uint64 key is valid
        assert run(["verify", "--seed", str(2**64 - 1), "--leakage-words", "1"]) == 0


@pytest.mark.parametrize("argv", [
    ["verify", "--leakage-words", "1", "--json", "{missing}/report.json"],
    ["compile", "--hadamard", "--out", "{missing}/h.json"],
    ["benchmark", "--protocol", "qpt", "--out", "{file}"],
    ["robustness", "--q", "1", "--csv", "{missing}/m.csv"],
    ["dump-matrices", "--out", "{file}"],
    ["calibrate", "--out", "{missing}/cal.json"],
])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    existing = tmp_path / "taken"
    existing.write_text("")
    paths = {"missing": tmp_path / "no" / "such" / "dir", "file": existing}
    argv = [arg.format(**paths) for arg in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"fibanyon {argv[0]}: ")
    assert str(tmp_path) in err
    assert existing.read_text() == ""


class TestRobustness:
    @pytest.mark.parametrize("q", ["1", "2"])
    def test_exact_deviation(self, q, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run(["robustness", "--q", q, "--out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["proportionality_deviation"] < 1e-10
        assert data["noisy"] is False

    def test_noisy_deviation_loose(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run(["robustness", "--q", "1", "--noisy", "--out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["proportionality_deviation"] < 0.1

    def test_csv_rendering(self, tmp_path, capsys):
        csv_path = tmp_path / "m.csv"
        assert run(["robustness", "--q", "2", "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "part,m00,m01,m10,m11"
        real_entries = [float(x) for x in lines[1].split(",")[1:]]
        assert abs(real_entries[0] - real_entries[3]) < 1e-10

    def test_csv_bytes(self, tmp_path, capsys):
        csv_path = tmp_path / "m.csv"
        assert run(["robustness", "--q", "1", "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        m = rob.extract_M(1).matrix
        expected = "part,m00,m01,m10,m11\n" + "".join(
            f"{part}," + ",".join(repr(float(v)) for v in view.flatten()) + "\n"
            for part, view in (("real", m.real), ("imag", m.imag)))
        assert csv_path.read_bytes() == expected.encode()

    def test_json_round_trip_values(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run(["robustness", "--q", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        d = json.loads(out.read_text())
        assert d["q"] == 1
        assert abs(complex(*d["matrix"][0][0]) - rob.extract_M(1).matrix[0, 0]) < 1e-15

    def test_invalid_q(self):
        with pytest.raises(SystemExit) as exc:
            run(["robustness", "--q", "3"])
        assert exc.value.code == 2


class TestDumpMatrices:
    def test_files_and_contents(self, tmp_path, capsys):
        out_dir = tmp_path / "mats"
        assert run(["dump-matrices", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        names = {p.name for p in out_dir.iterdir()}
        assert names == {
            "sigma12.json", "sigma23.json", "b1.json", "b2.json",
            "f_transform.json", "sigma12_logical.json", "sigma23_logical.json",
        }
        f_entries = json.loads((out_dir / "f_transform.json").read_text())
        f = np.array([[complex(re, im) for re, im in row] for row in f_entries])
        np.testing.assert_allclose(f @ f.conj().T, np.eye(4), atol=1e-12)

    def test_csv_format(self, tmp_path, capsys):
        out_dir = tmp_path / "mats"
        assert run(["dump-matrices", "--out", str(out_dir), "--format", "csv"]) == 0
        capsys.readouterr()
        text = (out_dir / "sigma12.csv").read_text()
        assert len(text.splitlines()) == 4


class TestCalibrate:
    def test_reports_both_targets(self, tmp_path, capsys):
        out = tmp_path / "cal.json"
        assert run(["calibrate", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "t2:" in printed and "t2_star:" in printed
        data = json.loads(out.read_text())
        assert abs(data["t2"]["fidelity"] - 0.9823) < 5e-4
        assert abs(data["t2_star"]["fidelity"] - 0.9463) < 5e-4

    @pytest.mark.parametrize("flags, targets", [
        ([], (cli.T2_FIDELITY_TARGET, cli.T2_STAR_FIDELITY_TARGET)),
        (["--target", "0.97", "--star-target", "0.93"], (0.97, 0.93)),
    ])
    def test_writes_the_library_calibrations(self, tmp_path, capsys, flags, targets):
        out = tmp_path / "cal.json"
        assert run(["calibrate", *flags, "--out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        for label, target in zip(("t2", "t2_star"), targets):
            cal = ne.calibrate_t2(bc.hadamard_word(), target)
            written = data[label]
            assert written["target"] == target
            assert written["t2_seconds"].hex() == cal.t2.hex()
            assert written["fidelity"].hex() == cal.fidelity.hex()

    @pytest.mark.parametrize("flags", [
        ["--target", "1.5"],
        ["--target", "0"],
        ["--star-target", "nan"],
        ["--target", "0.1"],           # below the fidelity at T2 = 1 ms
        ["--star-target", "0.99999"],  # above the fidelity at T2 = 1000 s
    ])
    def test_bad_target_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "cal.json"
        assert run(["calibrate", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "target" in err
        assert not out.exists()


def outcome(parse, argv, capsys):
    """Exit status, stdout and stderr of ``parse(argv)``, which must exit
    through argparse's ``SystemExit``."""
    with pytest.raises(SystemExit) as exit_:
        parse(argv)
    captured = capsys.readouterr()
    return exit_.value.code, captured.out, captured.err


# help of the program, also when a subcommand follows, and of each subcommand,
# and argparse's errors: an unknown or missing subcommand, and one usage error
# per subcommand
PARSER_CASES = [
    ["-h"], *(["-h", name] for name in cli.SUBCOMMANDS), *([name, "-h"] for name in cli.SUBCOMMANDS),
    ["no-such-command"], [],
    ["verify", "--seed", "-1"], ["compile", "--max-letters", "3"],
    ["benchmark", "--protocol", "xyz", "--out", "out"], ["robustness", "--q", "3"],
    ["dump-matrices", "--format", "csv"], ["calibrate", "--target", "high"],
]


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
    def test_main_parses_as_the_full_parser(self, capsys, argv):
        # main adds arguments only to the subcommand it runs
        full = outcome(cli.build_parser().parse_args, argv, capsys)
        assert outcome(cli.main, argv, capsys) == full
        assert full[0] == (0 if "-h" in argv else 2)


# One process through cli.run, which reports how it leaves (os._exit, or
# argparse's SystemExit), the status it exits with and the collector's freeze
# count to the file named by its first argument.
ENTRY_PROBE = """\
import gc, json, os, sys
from fibanyon import cli
report, sys.argv = sys.argv[1], ["fibanyon", *sys.argv[2:]]
def record(exit, code):
    with open(report, "w") as handle:
        json.dump({"exit": exit, "code": code, "frozen": gc.get_freeze_count()}, handle)
exit_process = os._exit
def probed_exit(code):
    record("os._exit", code)
    exit_process(code)
os._exit = probed_exit
try:
    cli.run()
except SystemExit as exc:
    record("SystemExit", exc.code)
    raise
"""

# one command for each exit status: 0, 1 (a check fails) and 2 (argparse's usage error)
EXIT_CASES = [
    (["compile", "--hadamard", "--out", "h.json"], 0),
    (["verify", "--leakage-words", "5", "--tolerance", "1e-9"], 1),
    (["benchmark", "--protocol", "rb", "--format", "csv", "--out", "rb"], 2),
]


def in_process(argv, capsys):
    """Exit status, stdout and stderr of ``cli.main(argv)``."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def process_env():
    """The environment of a child process that imports this tree's fibanyon."""
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def files_under(root):
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


class TestProcessEntry:
    @pytest.mark.parametrize("argv,code", EXIT_CASES)
    def test_main_freezes_nothing(self, tmp_path, capsys, monkeypatch, argv, code):
        # main is the in-process API: a library caller's objects stay collectable
        monkeypatch.chdir(tmp_path)
        before = gc.get_freeze_count()
        assert in_process(argv, capsys)[0] == code
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv,code", EXIT_CASES)
    def test_run_freezes_and_matches_main(self, tmp_path, capsys, monkeypatch, argv, code):
        process_dir, main_dir = tmp_path / "run", tmp_path / "main"
        process_dir.mkdir()
        main_dir.mkdir()
        report = tmp_path / "report.json"
        done = subprocess.run([sys.executable, "-c", ENTRY_PROBE, str(report), *argv], cwd=process_dir,
                              env=process_env(), capture_output=True, text=True, timeout=120)
        exited = json.loads(report.read_text())
        assert done.returncode == exited["code"] == code
        assert exited["exit"] == ("SystemExit" if code == 2 else "os._exit")
        assert exited["frozen"] > 0

        monkeypatch.chdir(main_dir)
        assert (done.returncode, done.stdout, done.stderr) == in_process(argv, capsys)
        assert files_under(process_dir) == files_under(main_dir)

    @pytest.mark.parametrize("argv", [argv for argv, code in EXIT_CASES if code != 2])
    def test_stdout_to_a_closed_pipe_exits_120(self, tmp_path, argv):
        # block-buffered stdout is still unwritten when main returns; the failed
        # flush leaves through interpreter shutdown, which reports it in one
        # line and exits 120, whatever main's status
        env = {name: value for name, value in process_env().items() if name != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "fibanyon.cli", *argv], cwd=tmp_path, env=env,
                                  stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == 120
        ignored, error = done.stderr.splitlines()
        assert ignored.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
        assert error.startswith("BrokenPipeError:")

    def test_installed_script_is_the_main_block_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
        module, _, function = pyproject["project"]["scripts"]["fibanyon"].partition(":")
        source = ast.parse(Path(cli.__file__).read_text())
        main_block = [node for node in source.body if isinstance(node, ast.If)
                      and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert len(main_block) == 1
        (statement,) = main_block[0].body
        assert ast.unparse(statement) == f"{function}()"
        assert module == "fibanyon.cli" and getattr(cli, function) is cli.run
