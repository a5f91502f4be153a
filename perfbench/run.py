"""Closed-loop benchmark of the varaux simulation engine.

Run from the root of a varaux checkout::

    python3 perfbench/run.py --workload twophase-all --seed 1 --seconds 20 --trace 0

One client submits ``run_simulation`` jobs one after another for
``--seconds`` seconds; each job starts when the previous report returns.
Every report is checked (see ``check_*`` below); a failed check exits
with code 1 and prints no result.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones (see ``workloads.py`` for the
workloads, the seeds and the layer map).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` (both in replications) and ``metrics``.

The host's speed swings by tens of percent between seconds and minutes,
so the client times a fixed unit of work (``probe.py``) before the first
job and after every job and every set-up sample.  Each end-to-end time
is scaled by ``REFERENCE_PROBE_S`` over the mean of the two probes
around it (CPU times by the probes' CPU time), so it reads as the time
on a host where the probe takes ``REFERENCE_PROBE_S``.  The wall-clock
figures are printed beside them.
"""

from __future__ import annotations

import os

# Before numpy is imported: the 2 workers and the 1M-row set-up must not
# start BLAS or OpenMP threads of their own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = HERE / "_work"

if __name__ == "__main__" and not (SRC / "varaux" / "__init__.py").is_file():
    sys.exit(f"perfbench: no varaux sources under {SRC}; run from the root of a varaux checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from varaux import (  # noqa: E402
    CHUNK_SIZE,
    DesignSizes,
    VarauxError,
    alpha_opt,
    delta_table,
    generate_population,
    load_population_csv,
    run_simulation,
    save_population_csv,
    theory_for_kind,
)
from varaux import cli as varaux_cli  # noqa: E402

from probe import PROBE_CHECKSUM, PROBE_REPS, probe  # noqa: E402
from replay import LAYERS, engine_kinds, replay  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    DIAGNOSTICS,
    GENERATE_CALLS,
    END_TO_END,
    PER_LAYER,
    REFERENCE_PROBE_S,
    SETUP_REPEATS,
    WORKLOADS,
    Workload,
    derive_seeds,
)

#: Report fields pinned by ``reference.json``; fields added later are ignored.
PINNED_ROW_FIELDS = (
    "kind", "weight", "emp_mean", "emp_bias", "emp_mse", "emp_pre",
    "theory_bias", "theory_mse", "theory_pre", "formula_id",
)
PINNED_RUN_FIELDS = ("reps_used", "failed_reps")


class CheckFailed(Exception):
    """A program output did not match what the benchmark expects."""


@dataclasses.dataclass
class Job:
    seed: int
    wall_s: float
    report: object | None
    error: str | None = None
    traced: bool = False
    self_cpu_s: float = 0.0
    child_cpu_s: float = 0.0
    scale: float = 1.0  # of wall time to the reference host speed; see HostSpeed
    cpu_scale: float = 1.0  # of CPU time


class Spans:
    """Durations of named calls into the package, kept in memory."""

    def __init__(self) -> None:
        self.seconds: dict[str, list[float]] = {}

    def call(self, name: str, func, *args, **kwargs):
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            self.seconds.setdefault(name, []).append(time.perf_counter() - start)

    def wrap(self, name: str, func):
        return lambda *args, **kwargs: self.call(name, func, *args, **kwargs)

    def median(self, name: str) -> float:
        return statistics.median(self.seconds[name])


class HostSpeed:
    """Times of the probe, run between units of timed work.  With more
    than one worker the probe runs once in each process of a fresh pool,
    as the engine's chunks do, so it waits for the slower core too."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.seconds: list[float] = []
        self.cpu_seconds: list[float] = []
        probe()  # the first call in a process pays for first use; leave it untimed

    def measure(self) -> None:
        cpu0 = cpu_seconds(resource.RUSAGE_SELF) + cpu_seconds(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        if self.workers == 1:
            checksums = [probe()]
        else:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                checksums = list(pool.map(probe, [PROBE_REPS] * self.workers))
        self.seconds.append(time.perf_counter() - start)
        self.cpu_seconds.append(cpu_seconds(resource.RUSAGE_SELF) + cpu_seconds(resource.RUSAGE_CHILDREN) - cpu0)
        if any(checksum != PROBE_CHECKSUM for checksum in checksums):
            raise CheckFailed(f"the probe returned {checksums}, expected {PROBE_CHECKSUM!r}")

    def scale(self) -> float:
        """Factor to the reference speed for the work between the last two probes."""
        return REFERENCE_PROBE_S / statistics.fmean(self.seconds[-2:])

    def cpu_scale(self) -> float:
        """The same for CPU time, from the CPU time of the probes."""
        return REFERENCE_PROBE_S * self.workers / statistics.fmean(self.cpu_seconds[-2:])


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# environment


def environment() -> dict[str, str]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        l2 = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip() + " per core"
    except OSError:
        l2 = "unknown"
    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu": cpu,
        "l2": l2,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# set-up


def generate_burst(spec, spans: Spans):
    """A generation takes under a millisecond, so one set-up sample of a
    generated workload is the median of ``GENERATE_CALLS`` calls.
    Returns the population and that median."""
    for _ in range(GENERATE_CALLS):
        pop = spans.call("popgen.generate_s", generate_population, spec)
    return pop, statistics.median(spans.seconds["popgen.generate_s"][-GENERATE_CALLS:])


def set_up(wl: Workload, pop_seed: int, csv_path: Path, spans: Spans, host: HostSpeed, setup: list):
    """Obtain the population ``SETUP_REPEATS`` times, with a probe before
    and after each, and return it; append ``(seconds, scale)`` of each
    to ``setup``.

    Also writes the population to ``csv_path`` (the CLI job reads it).
    """
    spec = wl.spec(pop_seed)
    if not wl.from_csv:
        host.measure()
        for _ in range(SETUP_REPEATS):
            pop, seconds = generate_burst(spec, spans)
            host.measure()
            setup.append((seconds, host.scale()))
        save_population_csv(pop, csv_path)
        return pop
    generated = spans.call("popgen.generate_s", generate_population, spec)
    save_population_csv(generated, csv_path)
    host.measure()
    for _ in range(SETUP_REPEATS):
        pop = None  # release the previous load before timing the next
        pop = spans.call("moments.load_csv_s", load_population_csv, csv_path)
        host.measure()
        setup.append((spans.seconds["moments.load_csv_s"][-1], host.scale()))
    for name in ("y", "x", "z"):
        if getattr(pop, name).tobytes() != getattr(generated, name).tobytes():
            raise CheckFailed(f"load_population_csv changed variate {name!r} of the written population")
    return pop


# ---------------------------------------------------------------------------
# checks


def pinned_fields(report) -> dict:
    doc = report.to_dict()
    return {
        "run": {name: doc["run"][name] for name in PINNED_RUN_FIELDS},
        "estimators": [{name: row[name] for name in PINNED_ROW_FIELDS} for row in doc["estimators"]],
    }


def report_digest(report) -> str:
    text = json.dumps(pinned_fields(report), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(path: Path, workload: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        reference = json.load(handle)
    if reference["seed"] != DEFAULT_SEED or reference["fields"] != {
        "run": list(PINNED_RUN_FIELDS), "estimators": list(PINNED_ROW_FIELDS)
    }:
        raise CheckFailed(f"{path}: made for another seed or field list; regenerate it")
    return reference["digests"][workload]


def check_reference(jobs: list[Job], digests: list[str]) -> None:
    """Each job's pinned report fields equal the reference, bit for bit."""
    for index, job in enumerate(jobs):
        if job.report is None:
            raise CheckFailed(f"job {index} raised {job.error}; the reference has a report for it")
        if report_digest(job.report) != digests[index % len(digests)]:
            raise CheckFailed(
                f"job {index} (seed {job.seed}) differs from reference.json: "
                + json.dumps(pinned_fields(job.report))
            )


def expected_theory(wl: Workload, deltas, sy2: float) -> list:
    """The theory columns of the report, recomputed with ``theory_for_kind``."""
    sizes = DesignSizes(wl.n, wl.nprime)
    optimum = alpha_opt(deltas) if any(k.is_combined for k in wl.kinds) else None
    return [
        theory_for_kind(kind, deltas, sy2, sizes, weight=optimum if kind.is_combined else None)
        for kind in engine_kinds(wl.config(0))
    ]


def check_report(job: Job, wl: Workload, pop, theory: list) -> None:
    """Invariants every report must satisfy, whatever the seed."""
    report = job.report
    labels = [kind.label for kind in engine_kinds(wl.config(0))]
    problems = []
    if (report.reps, report.seed, report.n, report.nprime) != (wl.reps, job.seed, wl.n, wl.nprime):
        problems.append("run or design fields do not echo the configuration")
    if report.reps_used + report.failed_reps != wl.reps:
        problems.append("reps_used + failed_reps != reps")
    if report.sy2 != pop.sy2 or report.pop_size != pop.size:
        problems.append("population fields do not match the population")
    if [row.kind for row in report.estimators] != labels:
        problems.append(f"estimator rows {[row.kind for row in report.estimators]} != {labels}")
    for row, result in zip(report.estimators, theory):
        if (row.theory_mse, row.theory_bias, row.formula_id) != (result.mse, result.bias, result.formula_id):
            problems.append(f"{row.kind}: theory columns differ from theory_for_kind")
        if not (math.isfinite(row.emp_mean) and row.emp_mse > 0.0):
            problems.append(f"{row.kind}: emp_mean not finite or emp_mse not positive")
        if row.emp_bias != row.emp_mean - report.sy2:
            problems.append(f"{row.kind}: emp_bias != emp_mean - sy2")
    if problems:
        raise CheckFailed(f"job with seed {job.seed}: " + "; ".join(problems))


def check_replay(pop, wl: Workload, job_seed: int):
    """Replay the first engine chunk of a job through the public
    functions; its ``emp_mean`` must equal the engine's bit for bit."""
    config = dataclasses.replace(wl.config(job_seed), reps=min(wl.reps, CHUNK_SIZE))
    report = run_simulation(pop, config, workers=1)
    result = replay(pop, config, config.reps)
    if int(result.failed.sum()) != report.failed_reps:
        raise CheckFailed(f"replay failed {int(result.failed.sum())} reps, engine {report.failed_reps}")
    for row, mean in zip(report.estimators, result.emp_mean()):
        if float(mean).hex() != float(row.emp_mean).hex():
            raise CheckFailed(
                f"replay of seed {job_seed} gives {row.kind} emp_mean {float(mean)!r}, "
                f"engine {row.emp_mean!r}: the layer times would describe another program"
            )
    return result


def check_workers(pop, wl: Workload, job: Job) -> None:
    """A report is byte-identical for one worker and for ``wl.workers``."""
    if job.report is None:
        raise CheckFailed(f"cannot compare worker counts: the job raised {job.error}")
    single = run_simulation(pop, wl.config(job.seed), workers=1)
    if single.to_json() != job.report.to_json():
        raise CheckFailed(f"workers=1 and workers={wl.workers} reports differ for seed {job.seed}")


# ---------------------------------------------------------------------------
# job phase


def job_phase(
    pop, wl: Workload, pop_seed: int, job_seeds: list[int], seconds: float,
    spans: Spans, host: HostSpeed, setup: list, trace: bool,
) -> list[Job]:
    """Closed loop of jobs for ``seconds``, with a probe before the first
    job and after each.  When tracing, every second job is traced:
    ``theory_for_kind`` and ``delta_table`` are timed after it, outside
    the job.  On generated workloads a set-up sample is taken after each
    job, before the probe, and appended to ``setup``."""
    spec = wl.spec(pop_seed)
    jobs: list[Job] = []
    burst_s = None
    sy2 = pop.sy2
    host.measure()
    start = time.perf_counter()
    while True:
        config = wl.config(job_seeds[len(jobs) % len(job_seeds)])
        traced = trace and len(jobs) % 2 == 1
        self0, child0 = cpu_seconds(resource.RUSAGE_SELF), cpu_seconds(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            report, error = run_simulation(pop, config, workers=wl.workers), None
        except VarauxError as exc:
            report, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        job = Job(seed=config.seed, wall_s=t1 - t0, report=report, error=error, traced=traced)
        job.self_cpu_s = cpu_seconds(resource.RUSAGE_SELF) - self0
        job.child_cpu_s = cpu_seconds(resource.RUSAGE_CHILDREN) - child0
        if traced:
            spans.seconds.setdefault("montecarlo.run_s", []).append(job.wall_s)
            deltas = spans.call("moments.delta_table_s", delta_table, pop)
            spans.call("theory.eval_s", expected_theory, wl, deltas, sy2)
        if not wl.from_csv:
            burst_s = generate_burst(spec, spans)[1]
        host.measure()
        job.scale, job.cpu_scale = host.scale(), host.cpu_scale()
        if burst_s is not None:
            setup.append((burst_s, job.scale))
        jobs.append(job)
        if t1 - start >= seconds and len(jobs) >= (2 if trace else 1):
            break
    return jobs


def failed_reps(job: Job, wl: Workload) -> int:
    return wl.reps if job.report is None else job.report.failed_reps


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and
    never below the median; returns (value, percentile)."""
    ordered = sorted(values)
    rank = len(ordered) - 10  # 1-based nearest rank; 10 samples lie above it
    if rank <= (len(ordered) + 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.6g} q3={q3:.6g} n={len(values)}"


# ---------------------------------------------------------------------------
# CLI job


def cli_job(wl: Workload, csv_path: Path, job: Job, spans: Spans) -> float:
    """Run one job through ``varaux simulate --format json`` in-process;
    return its wall time minus the ``run_simulation`` call inside it."""
    from click.testing import CliRunner

    args = [
        "simulate", "--input", str(csv_path), "--n", str(wl.n), "--reps", str(wl.reps),
        "--seed", str(job.seed), "--estimators", ",".join(k.label for k in wl.kinds),
        "--weight-policy", wl.weight_policy.value, "--workers", str(wl.workers), "--format", "json",
    ]
    if wl.nprime is not None:
        args += ["--nprime", str(wl.nprime)]
    originals = varaux_cli.run_simulation, varaux_cli.load_population_csv
    varaux_cli.run_simulation = spans.wrap("cli.run_simulation", originals[0])
    varaux_cli.load_population_csv = spans.wrap("moments.load_csv_s", originals[1])
    try:
        result = spans.call("cli.simulate", CliRunner().invoke, varaux_cli.main, args)
    finally:
        varaux_cli.run_simulation, varaux_cli.load_population_csv = originals
    if result.exit_code != 0:
        raise CheckFailed(f"varaux simulate exited {result.exit_code}: {result.output}")
    if job.report is None or result.stdout != job.report.to_json():
        raise CheckFailed("varaux simulate --format json differs from the library report of the same job")
    return spans.seconds["cli.simulate"][-1] - spans.seconds["cli.run_simulation"][-1]


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(wl, setup, jobs, host) -> tuple[dict, list[str]]:
    """End-to-end values, times scaled to the reference host speed, and
    the lines that print them beside their wall-clock counterparts."""
    raw_setup = [seconds for seconds, _ in setup]
    setup = [seconds * scale for seconds, scale in setup]
    walls = [job.wall_s * job.scale for job in jobs]
    raw_walls = [job.wall_s for job in jobs]
    attempted = wl.reps * len(jobs)
    completed = sum(job.report.reps_used for job in jobs if job.report is not None)
    cpu_s = sum((job.self_cpu_s + job.child_cpu_s) * job.cpu_scale for job in jobs)
    raw_cpu_s = sum(job.self_cpu_s + job.child_cpu_s for job in jobs)
    tail_s, tail_pct = tail(walls)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    values = {
        "setup_s": statistics.median(setup),
        "reps_per_s": completed / sum(walls),
        "job_s_p50": statistics.median(walls),
        "job_s_tail": tail_s,
        "cpu_s_per_krep": cpu_s / (attempted / 1000.0),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    notes = {
        "setup_s": f"median of samples; {describe(setup)}; wall clock {statistics.median(raw_setup):.6g} s",
        "reps_per_s": f"{completed} reps over the summed job times; wall clock {completed / sum(raw_walls):.6g} 1/s",
        "job_s_p50": f"median; {describe(walls)}; wall clock {statistics.median(raw_walls):.6g} s",
        "job_s_tail": f"p{tail_pct:.1f} of n={len(walls)} jobs (highest with >= 10 jobs beyond it, at least p50)",
        "cpu_s_per_krep": "user+sys of the process and its reaped workers during the jobs; "
        f"wall clock {raw_cpu_s / (attempted / 1000.0):.6g} s",
        "peak_rss_mb": "max of the process and its largest worker; n=1; not scaled",
    }
    lines = [f"metric {name} = {values[name]:.6g} {unit}  ({notes[name]})" for name, unit, _ in END_TO_END]
    lines.insert(0, f"probe: median {statistics.median(host.seconds):.6g} s, {describe(host.seconds)}; "
                 f"times below are scaled to a probe of {REFERENCE_PROBE_S:g} s")
    return values, lines


def per_layer(wl, replayed, spans, jobs, cli_overhead_s) -> dict:
    traced = [job for job in jobs if job.traced]
    count = len(replayed.failed)
    chunks = math.ceil(wl.reps / CHUNK_SIZE)
    return {
        "montecarlo.run_s": spans.median("montecarlo.run_s"),
        "montecarlo.stream_us_per_rep": replayed.us_per_rep("stream"),
        "montecarlo.draw_us_per_rep": replayed.us_per_rep("draw"),
        "montecarlo.draw_positions_per_rep": wl.n + (wl.nprime or 0),
        "montecarlo.parent_cpu_s_per_chunk": sum(j.self_cpu_s for j in traced) / (chunks * len(traced)),
        "moments.gather_var_us_per_rep": replayed.us_per_rep("gather_var"),
        "moments.gather_bytes_per_rep": 8 * replayed.gathered_values / count,
        "moments.plugin_table_us_per_rep": replayed.us_per_rep("plugin_table"),
        "moments.delta_table_s": spans.median("moments.delta_table_s"),
        "moments.load_csv_s": spans.median("moments.load_csv_s"),
        "popgen.generate_s": spans.median("popgen.generate_s"),
        "estimators.value_us_per_rep": replayed.us_per_rep("value"),
        "estimators.evaluations_per_rep": replayed.evaluations / count,
        "theory.eval_us_per_job": spans.median("theory.eval_s") * 1e6,
        "cli.overhead_s": cli_overhead_s,
    }


def diagnostics(wl, replayed, spans, jobs) -> dict:
    traced = [job for job in jobs if job.traced]
    untraced_s = statistics.median(job.wall_s for job in jobs if not job.traced)
    replay_s_per_job = sum(replayed.us_per_rep(layer) for layer in LAYERS) * wl.reps / 1e6
    return {
        "montecarlo.worker_busy_frac": sum(j.child_cpu_s for j in traced)
        / (wl.workers * sum(j.wall_s for j in traced)),
        "montecarlo.failed_reps": sum(failed_reps(job, wl) for job in jobs),
        "trace.overhead_frac": spans.median("montecarlo.run_s") / untraced_s - 1.0,
        "trace.replay_share": replay_s_per_job / untraced_s,
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object; raises CheckFailed."""
    pop_seed, job_seeds = derive_seeds(seed)
    spans = Spans()
    host = HostSpeed(1)
    setup: list[tuple[float, float]] = []  # (seconds, scale) of each set-up sample
    print(f"perfbench workload={wl.name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("env " + " ".join(f"{key}={value!r}" for key, value in environment().items()))
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        csv_path = Path(tmp) / "population.csv"
        pop = set_up(wl, pop_seed, csv_path, spans, host, setup)
        host = HostSpeed(wl.workers) if wl.workers > 1 else host
        theory = expected_theory(wl, delta_table(pop), pop.sy2)
        # The replay check also warms up the engine before the timed phase.
        replayed = check_replay(pop, wl, job_seeds[0])
        print(f"check replay: {len(replayed.failed)} reps of seed {job_seeds[0]}: emp_mean bit-identical")
        jobs = job_phase(pop, wl, pop_seed, job_seeds, seconds, spans, host, setup, trace)
        for job in jobs:
            if job.report is not None:
                check_report(job, wl, pop, theory)
        print(f"check reports: {sum(j.report is not None for j in jobs)} of {len(jobs)} jobs consistent")
        if seed == DEFAULT_SEED:
            check_reference(jobs, load_reference(REFERENCE, wl.name))
            print(f"check reference: {len(jobs)} jobs match {REFERENCE.name}")
        else:
            print(f"check reference: skipped (pinned for seed {DEFAULT_SEED} only)")
        if wl.workers > 1:
            check_workers(pop, wl, jobs[0])
            print(f"check workers: workers=1 and workers={wl.workers} byte-identical")
        cli_overhead_s = cli_job(wl, csv_path, jobs[0], spans) if trace else None

    attempted = wl.reps * len(jobs)
    failed = sum(failed_reps(job, wl) for job in jobs)
    for job in jobs:
        if job.error is not None:
            print(f"job with seed {job.seed} failed: {job.error}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} reps)")
    if trace:
        values = per_layer(wl, replayed, spans, jobs, cli_overhead_s)
        untraced = [job.wall_s for job in jobs if not job.traced]
        print(f"untraced montecarlo.run_s = {statistics.median(untraced):.6g} s  ({describe(untraced)})")
        for name, unit, _ in PER_LAYER:
            note = "  (computed)" if name == "moments.gather_bytes_per_rep" else ""
            print(f"layer {name} = {values[name]:.6g} {unit}{note}")
        extra = diagnostics(wl, replayed, spans, jobs)
        for name, unit in DIAGNOSTICS:
            print(f"diagnostic {name} = {extra[name]:.6g} {unit}  (printed, not a metric)")
        metrics = PER_LAYER
    else:
        values, lines = end_to_end(wl, setup, jobs, host)
        for line in lines:
            print(line)
        metrics = END_TO_END
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
