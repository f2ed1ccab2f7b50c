"""Run one fibanyon command in this fresh interpreter with the span wrappers
installed around ``cli.main``, then write the spans as JSON.

    python perfbench/traced_cli.py SPANS.json TASK_ID -- <fibanyon arguments>

Caches start cold, as in a real invocation; the exit code is the command's.
"""

from __future__ import annotations

import sys
from pathlib import Path

import spans


def main() -> int:
    spans_path, task, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json TASK_ID -- ARGS...")
    from fibanyon import cli

    tracer = spans.Tracer()
    tracer.task = int(task)
    instrumentation = spans.Instrumentation(tracer)
    builds = spans.cold_cache_builds()
    instrumentation.install()
    try:
        return tracer.call("cli.main", "cli", cli.main, (argv,), {}, True)
    finally:
        instrumentation.uninstall()
        tracer.counts["braid_space.cold_builds"] += spans.cold_cache_builds() - builds
        Path(spans_path).write_text(tracer.to_json())


if __name__ == "__main__":
    sys.exit(main())
