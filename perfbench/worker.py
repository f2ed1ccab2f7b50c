"""Worker process of an in-process workload.

The client launches it with the monotonic clock reading taken just before
the launch, so the worker can report its set-up time: interpreter start,
imports and one-off construction, up to the first timed task.  The last
line of its standard output is one JSON object with the run's numbers.

    python perfbench/worker.py --workload noise-sweep --seed 1 --seconds 10 \
        --trace 0 --launched <time.monotonic() of the client>
"""

from __future__ import annotations

import argparse
import json
import time

import workloads
from proc import OUT


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=[w for w in workloads.WORKLOADS if w != "cli-session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="print the outputs of every pool case instead of measuring")
    args = parser.parse_args()

    if args.record:
        workload = workloads.WORKLOADS[args.workload](args.seed, references={})
        print(json.dumps({workloads.spec_key(spec): workload.record(spec, workload.task(spec))
                          for spec in workload.pool_specs()}))
        return 0
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = workload.enable_tracing() if args.trace else None
    records, timed_s = workloads.run_rounds(workload, args.seconds, bool(args.trace))
    summary = workloads.summarize(workload, records, timed_s)
    summary["setup_s"] = setup_s
    if tracer is not None:
        import spans

        summary["layers"] = spans.layer_metrics(tracer, summary["attempted"])
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"{args.workload}-spans.json").write_text(tracer.to_json())
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
