"""Run a fixed list of ``fibanyon`` command forms against two source trees and
print every difference between their results.

    python tools/compare_cli_outputs.py BASE_SRC HEAD_SRC

Each command runs as ``python -m fibanyon.cli`` with ``PYTHONPATH`` set to one
tree's ``src`` directory, in a fresh working directory: its input files are in
``in/`` and it writes to ``out/``, both given as relative paths, so the two
runs see identical arguments.  The command forms are every cli-session pool
case of perfbench (``perfbench/workloads.py``), ``verify --json`` at seeds 0,
7 and 2**64 - 1, a ``compile --word`` with powers outside the search alphabet,
``compile --named hadamard --max-letters 5``, and the help and usage forms:
``-h`` alone and after each subcommand, an unknown subcommand, no subcommand,
and one argparse usage error per subcommand.

Every output file, stdout, stderr and exit status that differs is printed.
The script exits 1 if anything differs and 0 if every result is
byte-identical.  It gates nothing by itself: a change that alters outputs on
purpose is expected to differ.
"""

from __future__ import annotations

import difflib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import CLI_POOL, cli_case  # noqa: E402

EXTRA_CASES = [
    (["verify", "--seed", str(seed), "--json", "{out}/verify.json"], {})
    for seed in (0, 7, 2**64 - 1)
] + [
    (["compile", "--word", "s12^4 s23^-2 s12^3 s23^7", "--out", "{out}/compile.json"], {}),
    (["compile", "--named", "hadamard", "--max-letters", "5", "--out", "{out}/compile.json"], {}),
]
SUBCOMMANDS = ("verify", "compile", "benchmark", "robustness", "dump-matrices", "calibrate")
HELP_AND_USAGE_CASES = [
    (argv, {}) for argv in [
        ["-h"], *([name, "-h"] for name in SUBCOMMANDS), ["no-such-command"], [],
        ["verify", "--seed", "-1"],
        ["compile", "--max-letters", "3"],
        ["benchmark", "--protocol", "xyz", "--out", "{out}"],
        ["robustness", "--q", "3"],
        ["dump-matrices", "--format", "csv"],
        ["calibrate", "--target", "high"],
    ]
]
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SHOWN_DIFF_LINES = 20


def command_forms() -> list[tuple[list[str], dict[str, str]]]:
    """Arguments, with ``in`` and ``out`` as relative directories, and input
    files of every command form."""
    pool = [cli_case(kind, i) for kind, size in CLI_POOL.items() for i in range(size)]
    return [([a.replace("{in}", "in").replace("{out}", "out") for a in argv], files)
            for argv, files in pool + EXTRA_CASES + HELP_AND_USAGE_CASES]


def run(src: Path, args: list[str], files: dict[str, str]) -> dict[str, bytes]:
    """Exit status, stdout, stderr and every output file of one command,
    keyed by name."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "in").mkdir()
        (work / "out").mkdir()
        for name, text in files.items():
            (work / "in" / name).write_text(text)
        env = {**os.environ, **ENV, "PYTHONPATH": str(src)}
        child = subprocess.run([sys.executable, "-m", "fibanyon.cli", *args], cwd=work, env=env,
                               capture_output=True, timeout=300)
        result = {"exit status": str(child.returncode).encode(), "stdout": child.stdout,
                  "stderr": child.stderr}
        for path in sorted((work / "out").rglob("*")):
            if path.is_file():
                result[f"out/{path.relative_to(work / 'out')}"] = path.read_bytes()
        return result


def describe(name: str, base: bytes | None, head: bytes | None) -> str:
    if base is None or head is None:
        return f"  {name}: only in {'head' if base is None else 'base'}"
    try:
        lines = list(difflib.unified_diff(base.decode().splitlines(), head.decode().splitlines(),
                                          "base", "head", lineterm="", n=0))
    except UnicodeDecodeError:
        return f"  {name}: binary contents differ"
    shown = "\n".join(f"    {line}" for line in lines[:SHOWN_DIFF_LINES])
    more = f"\n    ... {len(lines) - SHOWN_DIFF_LINES} more diff lines" if len(lines) > SHOWN_DIFF_LINES else ""
    return f"  {name}:\n{shown}{more}"


def check_import(src: Path) -> None:
    """Stop unless ``PYTHONPATH=src`` imports fibanyon from that tree, not
    from an installed copy."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    found = subprocess.run([sys.executable, "-c", "import fibanyon; print(fibanyon.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(found).resolve().is_relative_to(src):
        sys.exit(f"PYTHONPATH={src} imports fibanyon from {found}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    base_src, head_src = (Path(a).resolve() for a in argv)
    for src in (base_src, head_src):
        check_import(src)
    forms = command_forms()
    differing = 0
    for args, files in forms:
        base, head = run(base_src, args, files), run(head_src, args, files)
        names = sorted(set(base) | set(head))
        changed = [name for name in names if base.get(name) != head.get(name)]
        if changed:
            differing += 1
            print(f"differs: fibanyon {shlex.join(args)}")
            for name in changed:
                print(describe(name, base.get(name), head.get(name)))
    print(f"{len(forms) - differing}/{len(forms)} command forms byte-identical "
          "(every output file, stdout, stderr and exit status)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
