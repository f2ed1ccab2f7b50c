"""Record the reference outputs that the benchmark's output checks compare
against, for every pool case of the reference-checked workloads.

    python3 perfbench/record_references.py [cli-session] [rb-pb] [braid-search]

Run it from the repository root, at the commit whose outputs are the
reference; a later change that must keep outputs identical must not
re-record.
"""

from __future__ import annotations

import json
import sys

import workloads
from proc import HERE, OUT, PYTHON, run_child

NAMES = ("cli-session", "rb-pb", "braid-search")


def record(name: str) -> dict:
    if name != "cli-session":
        stdout, stderr = OUT / f"{name}-record.out", OUT / f"{name}-record.err"
        child = run_child([PYTHON, str(HERE / "worker.py"), "--workload", name, "--seed", "0",
                           "--launched", "0", "--record"],
                          timeout=900, stdout_path=stdout, stderr_path=stderr)
        if child.exitcode != 0:
            raise RuntimeError(stderr.read_text())
        return json.loads(stdout.read_text().strip().splitlines()[-1])
    workload = workloads.CliSession(0, references={})
    try:
        out = {}
        for spec in workload.pool_specs():
            result = workload.run(len(out), spec, traced=False)
            if result["exitcode"] != 0:
                raise RuntimeError(f"{spec}: {result['stderr'].read_text()}")
            out[workloads.spec_key(spec)] = workload.record(spec, result)
        return out
    finally:
        workload.close()


def main(names: list[str]) -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    for name in names or NAMES:
        data = record(name)
        path = workloads.REFERENCES / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"{path}: {len(data)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
