"""tools/compare_trees.py on stand-in trees: its import check, its report and
its exit status, with each corpus script replaced by one that prints the
results a stand-in fibanyon package holds, so no corpus runs."""

import importlib.util
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_trees.py"
spec = importlib.util.spec_from_file_location("compare_trees", TOOL)
compare_trees = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_trees)

FIT = ("ls/3 interleaved", (0.25, -0.5, 0.96875, 1e-3))
CALIBRATION = ("noise-sweep round 0: 's12^2 s23^-1' at 0.95 #0", (0.75, 0.95))
RUN = ("ps m<=64 k=30 model 0 reference", (0.5, 0.25, 0.96875, 2e-3))


def printing(name: str) -> str:
    """A corpus script that prints the stand-in package's ``name`` results."""
    return ("import json, sys, fibanyon\n"
            f"json.load(sys.stdin)\njson.dump(fibanyon.{name}, sys.stdout)")


def tree(root: Path, name: str, fit: tuple = FIT, calibration: tuple = CALIBRATION,
         run: tuple = RUN) -> Path:
    """A source tree whose fibanyon package holds one fit, one calibration
    result and one RB/PB result, each a label and its values as hex floats."""
    package = root / name / "fibanyon"
    package.mkdir(parents=True)
    fits, calibrations, runs = ([[label, [v.hex() for v in values]]]
                                for label, values in (fit, calibration, run))
    (package / "__init__.py").write_text(
        f"FITS = {fits!r}\nCALIBRATIONS = {calibrations!r}\nRUNS = {runs!r}\n")
    return root / name


@pytest.fixture
def no_corpora(monkeypatch):
    """The fit, calibration and RB/PB corpora print the tree's stand-in
    results instead of running; the command forms are left out."""
    monkeypatch.setattr(compare_trees, "FIT_ALL", printing("FITS"))
    monkeypatch.setattr(compare_trees, "CALIBRATE_ALL", printing("CALIBRATIONS"))
    monkeypatch.setattr(compare_trees, "RUN_ALL", printing("RUNS"))
    monkeypatch.setattr(compare_trees, "CORPORA", compare_trees.CORPORA[1:])


def test_identical_results_exit_0(tmp_path, no_corpora, capsys):
    assert compare_trees.main([str(tree(tmp_path, "base")), str(tree(tmp_path, "head"))]) == 0
    summaries = capsys.readouterr().out.splitlines()
    assert len(summaries) == 3
    assert summaries[0].startswith("1/1 fits identical to the bit")
    assert summaries[1].startswith("1/1 calibration results identical to the bit")
    assert summaries[2].startswith("1/1 RB/PB results identical to the bit")


@pytest.mark.parametrize("planted", ["fit", "calibration", "run"])
def test_one_bit_difference_reported_by_label_exits_1(tmp_path, no_corpora, capsys, planted):
    label, values = {"fit": FIT, "calibration": CALIBRATION, "run": RUN}[planted]
    moved = (label, (*values[:-1], math.nextafter(values[-1], 1.0)))
    base = tree(tmp_path, "base")
    head = tree(tmp_path, "head", **{planted: moved})
    assert compare_trees.main([str(base), str(head)]) == 1
    out = capsys.readouterr().out.splitlines()
    old, new = ([v.hex() for v in result] for result in (values, moved[1]))
    diff = f"{label}: base {old}, head {new}"
    # each corpus prints its differences, then its count of identical results
    lines = [line if line == diff else line.split(" ", 1)[0] for line in out]
    assert lines == {"fit": [diff, "0/1", "1/1", "1/1"], "calibration": ["1/1", diff, "0/1", "1/1"],
                     "run": ["1/1", "1/1", diff, "0/1"]}[planted]


def test_tree_without_fibanyon_exits_2_with_one_line(tmp_path, no_corpora, capsys):
    head = tree(tmp_path, "head")
    empty = tmp_path / "checkout"
    empty.mkdir()
    assert compare_trees.main([str(empty), str(head)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert str(empty) in captured.err


def test_shadowed_tree_exits_2_with_one_line(tmp_path, no_corpora, capsys, monkeypatch):
    # a fibanyon package that python finds before PYTHONPATH (here the working
    # directory's) shadows a tree that holds none
    shadow = tree(tmp_path, "elsewhere")
    empty = tmp_path / "checkout"
    empty.mkdir()
    monkeypatch.chdir(shadow)
    assert compare_trees.main([str(empty), str(shadow)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"compare_trees.py: PYTHONPATH={empty} imports fibanyon from "
                            f"{shadow / 'fibanyon' / '__init__.py'}, not from that tree\n")


def test_command_form_difference_shows_a_unified_diff(capsys):
    label = "form 0: fibanyon verify"
    base = {label: {"exit status": b"0", "stdout": b"a\nb\n", "out/x.json": b"{}"}}
    head = {label: {"exit status": b"0", "stdout": b"a\nc\n"}}
    assert compare_trees.report(base, head) == (1, 1)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"differs: {label}"
    assert "  stdout:" in out and "    -b" in out and "    +c" in out
    assert "  out/x.json: only in base" in out
    assert not any("exit status" in line for line in out)


def test_run_cases_end_with_the_long_grid():
    # 56 runs, five results each; the long grid comes last, so the seeded
    # models and seeds of the shorter grids are drawn as before it
    cases = compare_trees.run_cases()
    assert len(cases) == sum(2 * models for *_, models in compare_trees.RUN_GRIDS) == 56
    assert compare_trees.CORPORA[-1][1].endswith("of 56 run_protocols runs with purity)")
    assert [label for label, *_ in cases[-4:]] == [f"{space} m<=4096 k=64 model {i}"
                                                   for i in (0, 1) for space in ("ls", "ps")]
    for _, _, _, grid, k, _ in cases[-4:]:
        assert (grid, k) == ((1, 2, 300, 1000, 4096), 64)
    assert [label for label, *_ in cases[:2]] == ["ls m<=64 k=30 model 0", "ps m<=64 k=30 model 0"]
