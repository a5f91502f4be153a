"""Where the Monte Carlo engine spends its time, design by design.

Run from the root of a varaux checkout::

    python tools/engine_split.py --tier1 --out BENCH_24.json
    python tools/engine_split.py --src ../parent --tier1 --out BENCH_24.json

For every design in ``perfbench/workloads.py`` (this checkout's, so both
sides run the same designs) it generates the population from the
workload's spec at perfbench's default seed and runs ``run_simulation``
jobs in one process, ``bigpop-pool``'s design included.  It records:

- end-to-end µs per replication, median and quartiles of ``REPEATS``
  jobs after one untimed warm-up job, with no timers in place, and the
  minor page faults of each of those jobs (``ru_minflt``);
- the rows per block, ``montecarlo._block_rows``, and the bytes of
  positions such a block holds;
- the tracemalloc peak of ``generate_population`` building the design's
  population, and of ``delta_table`` computing that population's table
  afresh, next to the bytes of the population's data;
- the cost per block: ``_simulate_block`` timed on one row, the fixed
  numpy cost, and on a full block;
- a split of ``REPEATS`` more jobs into layers, from timers wrapped
  around the engine's private step functions: positions
  (``_draw_positions``), Fisher-Yates (``_fisher_yates``), gathers plus
  variances (the rest of ``_simulate_block``, the nested index take
  included), the plug-in table (``fourth_moments``), ``evaluate``, the
  rest of ``_simulate_chunk`` (workspace, value fill, failure scan), and
  aggregation plus theory (the rest of ``run_simulation``), and how
  often each step was called;
- with ``--tier1``, the wall time of the checkout's tier-1 suite;
- the core count, the CPU, Python and numpy.

``--src DIR`` imports ``varaux`` from ``DIR/src`` instead of this
checkout: a copy of the parent commit, whose record goes into the
``--out`` file as ``before``, next to this checkout's ``after``.  The
block costs size their statistics by the plan's ``stat_rows``, so
``DIR`` needs a plan that states it.
Without ``--out`` the record is printed as JSON.

A wrapped step that no longer exists stops the run with an error, and
one that still exists but ran in no design, so that its layer would
read zero, makes the tool exit with status 1 and write no record; so
does a traced peak below the population's data, which would mean that
tracemalloc does not see numpy's allocations.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Timed jobs per design, and as many traced ones.
REPEATS = 9

#: The engine steps that get a timer, by the name of the layer they time.
STEPS = {
    "_draw_positions": "positions",
    "_fisher_yates": "fisher_yates",
    "fourth_moments": "plugin_table",
    "evaluate": "evaluate",
    "_simulate_block": "block",
    "_simulate_chunk": "chunk",
}


class Timers:
    """Seconds spent in each wrapped step of ``varaux.montecarlo``."""

    def __init__(self, montecarlo) -> None:
        self.module = montecarlo
        self.originals = {name: getattr(montecarlo, name) for name in STEPS}
        self.seconds = dict.fromkeys(STEPS.values(), 0.0)
        self.calls = dict.fromkeys(STEPS.values(), 0)
        self.plan = None  # the plan of the last chunk

    def __enter__(self) -> Timers:
        for name, func in self.originals.items():
            setattr(self.module, name, self.timed(STEPS[name], func))
        return self

    def __exit__(self, *exc) -> None:
        for name, func in self.originals.items():
            setattr(self.module, name, func)

    def timed(self, layer: str, func):
        def wrapper(*args, **kwargs):
            if layer == "chunk":
                self.plan = args[0]
            start = time.perf_counter()
            result = func(*args, **kwargs)
            self.seconds[layer] += time.perf_counter() - start
            self.calls[layer] += 1
            return result

        return wrapper


def summary(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2], "n": len(values)}


def block_costs(montecarlo, plan, rows: int) -> dict:
    """Median µs of ``_simulate_block`` on 1 row and on ``rows`` rows, in the chunk's workspace."""
    work = montecarlo._chunk_workspace(plan, rows)
    stats = np.empty((plan.stat_rows, rows))
    costs = {}
    for count in (1, rows):
        times = []
        for _ in range(max(5, 2000 // count)):
            start = time.perf_counter()
            montecarlo._simulate_block(plan, 0, count, stats[:, :count], work)
            times.append(time.perf_counter() - start)
        costs[count] = 1e6 * statistics.median(times)
    return {
        "fixed_us_per_block": costs[1],
        "full_block_us": costs[rows],
        "marginal_us_per_row": (costs[rows] - costs[1]) / (rows - 1) if rows > 1 else None,
    }


def traced_peak(func, *args):
    """``func(*args)`` and the peak bytes it allocated, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        result = func(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def time_design(varaux, workload, seeds: tuple[int, list[int]]) -> dict:
    """The record of one design; ``seeds`` are the population's and the jobs'."""
    montecarlo = varaux.montecarlo
    pop_seed, job_seeds = seeds
    pop, generate_peak = traced_peak(varaux.generate_population, workload.spec(pop_seed))
    # The population's first table, which the warm-up job would compute.
    _, table_peak = traced_peak(varaux.delta_table, pop)
    configs = [workload.config(seed) for seed in job_seeds[: 1 + 2 * REPEATS]]
    varaux.run_simulation(pop, configs[0])  # warm-up, untimed
    wall, faults = [], []
    for config in configs[1 : 1 + REPEATS]:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        varaux.run_simulation(pop, config)
        wall.append(1e6 * (time.perf_counter() - start) / workload.reps)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    traced_s = 0.0
    with Timers(montecarlo) as timers:
        for config in configs[1 + REPEATS :]:
            start = time.perf_counter()
            varaux.run_simulation(pop, config)
            traced_s += time.perf_counter() - start
    seconds = timers.seconds
    layers = {
        "positions": seconds["positions"],
        "fisher_yates": seconds["fisher_yates"],
        "gather_var": seconds["block"] - seconds["positions"] - seconds["fisher_yates"] - seconds["plugin_table"],
        "plugin_table": seconds["plugin_table"],
        "evaluate": seconds["evaluate"],
        "chunk_rest": seconds["chunk"] - seconds["block"] - seconds["evaluate"],
        "aggregation_theory": traced_s - seconds["chunk"],
    }
    reps = REPEATS * workload.reps
    plan = timers.plan
    rows = min(montecarlo._block_rows(plan), workload.reps)
    return {
        "design": {"n": workload.n, "nprime": workload.nprime, "pop_size": workload.pop_size, "reps": workload.reps},
        "us_per_rep": summary(wall),
        "minor_faults_per_job": summary(faults),
        "rows_per_block": rows,
        "block_bytes": 8 * rows * plan.span.size,
        "tracemalloc_peak_bytes": {
            "population_data": pop.y.nbytes + pop.x.nbytes + pop.z.nbytes,
            "generate_population": generate_peak,
            "delta_table": table_peak,
        },
        **block_costs(montecarlo, plan, rows),
        "traced_us_per_rep": 1e6 * traced_s / reps,
        "layers_us_per_rep": {name: 1e6 * value / reps for name, value in layers.items()},
        "calls": timers.calls,
    }


def tier1(src_root: Path) -> dict:
    """Wall time and summary line of the checkout's tier-1 suite."""
    paths = [str(src_root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=src_root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - start, "exit": done.returncode, "summary": lines[-1] if lines else ""}


def host() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def git_commit(src_root: Path) -> str | None:
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=src_root, capture_output=True, text=True)
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, help="the parent checkout, whose src/varaux to time (default: this one)")
    parser.add_argument("--reps", type=int, help="replications per job (default: each workload's own)")
    parser.add_argument("--tier1", action="store_true", help="also time the checkout's tier-1 suite")
    parser.add_argument("--out", type=Path, help="JSON file to add the record to (default: print it)")
    args = parser.parse_args(argv)
    src = args.src or ROOT
    if not (src / "src" / "varaux" / "__init__.py").is_file():
        parser.error(f"no varaux sources under {src / 'src'}")

    # Import the package from --src and the designs from this checkout,
    # writing no bytecode into either.
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src / "src"), str(ROOT / "perfbench")]
    import varaux
    import varaux.montecarlo
    from workloads import DEFAULT_SEED, WORKLOADS, derive_seeds

    seeds = derive_seeds(DEFAULT_SEED)
    designs = {}
    for name, workload in WORKLOADS.items():
        # One process, so that the timers see every chunk.
        workload = dataclasses.replace(workload, workers=1, reps=args.reps or workload.reps)
        designs[name] = time_design(varaux, workload, seeds)
        us, faults = designs[name]["us_per_rep"]["median"], designs[name]["minor_faults_per_job"]["median"]
        print(f"{name}: {us:.2f} us/rep, {faults:g} minor faults/job", file=sys.stderr)
    idle = [step for step, layer in STEPS.items() if not any(design["calls"][layer] for design in designs.values())]
    if idle:
        print(f"error: {', '.join(idle)} ran in no design, so its layer would read zero", file=sys.stderr)
        return 1
    peaks = {name: design["tracemalloc_peak_bytes"] for name, design in designs.items()}
    unseen = [name for name, peak in peaks.items() if peak["generate_population"] < peak["population_data"]]
    if unseen:
        print(f"error: tracemalloc missed the population's data in {', '.join(unseen)}", file=sys.stderr)
        return 1
    record = {
        "commit": git_commit(src),
        "host": host(),
        "seed": DEFAULT_SEED,
        "repeats": REPEATS,
        "designs": designs,
        "tier1": tier1(src.resolve()) if args.tier1 else None,
    }
    if args.out is None:
        print(json.dumps(record, indent=2))
        return 0
    document = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    document["runs"]["before" if args.src else "after"] = record
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
