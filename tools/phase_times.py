"""Per-phase time of one warm RB/PB pipeline run.

    PYTHONPATH=src python tools/phase_times.py [--runs N]

Times ``run_protocols(..., purity=True)`` of the braided Hadamard, built as
``fibanyon benchmark --protocol pb`` builds it, on the default grid with the
default 30 sequences per length, in the logical (LS) and the physical (PS)
space.  Each phase is a module-level function of ``benchmark_suite``, timed
by a wrapper put in its place:

* draw: ``draw``, the Philox draws of the Clifford indices (imported from
  ``_philox``);
* recoveries: ``_recoveries``, the RB recovery gates;
* advance: ``_advance``, the transfer-map steps;
* fits: ``fit_decay``, the four decay fits;
* rest: the run's wall time less the four phases.

Prints, per space, the median over ``N`` warm runs (default 200) of each
phase in microseconds per run.  The numbers are as noisy as the machine, so
nothing should gate on them.
"""

from __future__ import annotations

import argparse
import statistics
import time

from fibanyon import benchmark_suite as bench
from fibanyon import noise_engine as ne

PHASES = {"draw": "draw", "recoveries": "_recoveries", "advance": "_advance", "fits": "fit_decay"}
NOISE = ne.NoiseModel(t2=(0.43, 0.9), depolarizing_prob=0.02)


def _timed(function, spent: dict, phase: str):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            spent[phase] += time.perf_counter() - start
    return wrapper


def phase_times(space: str, runs: int) -> dict[str, float]:
    """Median microseconds per run of each phase, and of the rest."""
    group = bench.CliffordGroup()
    gateset, target = ne.clifford_gateset(NOISE, space, group), ne.hadamard_target(NOISE, space)
    spent = dict.fromkeys(PHASES, 0.0)
    originals = {name: getattr(bench, name) for name in PHASES.values()}
    samples = {phase: [] for phase in (*PHASES, "rest")}
    try:
        for phase, name in PHASES.items():
            setattr(bench, name, _timed(originals[name], spent, phase))
        for run in range(runs + 10):  # the first ten warm the caches
            spent.update(dict.fromkeys(PHASES, 0.0))
            start = time.perf_counter()
            bench.run_protocols(gateset, target, bench.DEFAULT_M_GRID, bench.DEFAULT_SEQUENCES, run, True)
            total = time.perf_counter() - start
            if run >= 10:
                for phase in PHASES:
                    samples[phase].append(spent[phase])
                samples["rest"].append(total - sum(spent.values()))
    finally:
        for name, function in originals.items():
            setattr(bench, name, function)
    return {phase: 1e6 * statistics.median(values) for phase, values in samples.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=200)
    args = parser.parse_args()
    for space in ("ls", "ps"):
        times = phase_times(space, args.runs)
        print(f"{space.upper()} run_protocols(..., purity=True), median of {args.runs} warm runs: "
              + ", ".join(f"{phase} {us:.0f} us" for phase, us in times.items()))


if __name__ == "__main__":
    main()
