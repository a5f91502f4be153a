"""Workloads, seeds and metric definitions of the varaux engine benchmark.

Every workload is a closed loop with one client: the client submits a
``run_simulation`` job, waits for its report, and only then submits the
next one.  The benchmark passes the program nothing but a generated
population and a ``SimulationConfig``; both are derived from the
workload seed given on the command line (see :func:`derive_seeds`).

Seeds
-----
``DEFAULT_SEED`` is the seed whose job reports are pinned bit for bit in
``reference.json``.  ``HELD_OUT_SEED`` is reserved for held-out
confirmation: a change that claims a speed-up is developed and tuned on
other seeds and must then show the same gain on this one.  Do not use it
while writing or tuning a change.

Layer map
---------
The per-layer metrics (``--trace 1``) are measured from outside the
package: spans around calls into the public functions of each
``src/varaux`` module, and a replay of the first engine chunk of a job
through those public functions in the engine's order.  Each line below
names the metric, how it is measured, the end-to-end metric it should
move, and the workloads on which it should move.  The four marked (*)
are printed as diagnostics but are not in the result object (see
``DIAGNOSTICS``): failed reps are 0 on every workload, the busy share is
0 with one worker, the tracing overhead is noise around 0, and the
replay share is a coverage check with no better direction.

==================================== ========================================================== ======================= =============================================
metric                               measured as                                                should move             on
==================================== ========================================================== ======================= =============================================
montecarlo.run_s                     span around each traced ``run_simulation`` (median)        job_s_*                 all
montecarlo.stream_us_per_rep         replay: ``Generator(Philox(key=seed).jumped(rep))``        reps_per_s              plugin-small-n >> twophase-all
montecarlo.draw_us_per_rep           replay: ``draw_srswor`` (twice, nested, for two-phase)     reps_per_s, job_s_*     twophase-all, bigpop-pool; small on plugin-small-n
montecarlo.draw_positions_per_rep    count: n, or n' + n                                        (count)                 all
montecarlo.parent_cpu_s_per_chunk    parent RUSAGE_SELF CPU during ``run_simulation`` / chunks  cpu_s_per_krep          bigpop-pool only
montecarlo.worker_busy_frac (*)      children CPU / (workers x job wall time)                   reps_per_s              bigpop-pool only (0 with one worker)
montecarlo.failed_reps (*)           count from the reports                                     failed_frac             all
moments.gather_var_us_per_rep        replay: index the arrays, ``sample_variance`` on each      reps_per_s              bigpop-pool > twophase-all > plugin-small-n
moments.gather_bytes_per_rep         computed: 8 x values gathered (not measured)               (count)                 all
moments.plugin_table_us_per_rep      replay: ``delta_table(Population(sample))`` + alpha_opt    reps_per_s              plugin-small-n only (elsewhere: the skipped branch)
moments.delta_table_s                ``delta_table(pop)``, once per traced job                  job_s_*                 bigpop-pool
moments.load_csv_s                   span around ``load_population_csv`` (median)              setup_s                 bigpop-pool (elsewhere: the CLI's 5,000-row load)
popgen.generate_s                    span around ``generate_population`` (median)              setup_s                 twophase-all, plugin-small-n
estimators.value_us_per_rep          replay: ``single_phase_value`` / ``two_phase_value``       reps_per_s              twophase-all, plugin-small-n
estimators.evaluations_per_rep       count of the value calls above                             (count)                 all
theory.eval_us_per_job               ``theory_for_kind`` for every kind of a job                job_s_* (no visible)    all (guard for theory refactors)
cli.overhead_s                       one ``varaux simulate --format json`` job, minus its run   none of the library e2e all
trace.overhead_frac (*)              traced / untraced ``montecarlo.run_s`` - 1                 (overhead)              all
trace.replay_share (*)               replay layers x reps per job / untraced run_s              (coverage)              all
==================================== ========================================================== ======================= =============================================

On ``bigpop-pool`` the engine runs on two workers while the replay runs
in one process, so ``trace.replay_share`` there is a CPU share and can
exceed 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from varaux import (
    SINGLE_PHASE_KINDS,
    TWO_PHASE_KINDS,
    EstimatorKind,
    PopulationSpec,
    SimulationConfig,
    WeightPolicy,
)

DEFAULT_SEED = 1
HELD_OUT_SEED = 20090211

#: Job seeds cycle with this period.  A run today makes fewer jobs than
#: this, so no job repeats, and ``reference.json`` pins every job of the
#: default seed.  The engine keeps no state between calls.
JOB_SEED_PERIOD = 64

#: Set-up samples taken before the job phase, each between two probes.
#: ``setup_s`` is the median of these and, on generated workloads, of
#: one more sample after every job.
SETUP_REPEATS = 3

#: On generated workloads a set-up sample is the median of this many
#: ``generate_population`` calls (about 0.1 s in all).
GENERATE_CALLS = 200

#: End-to-end times are scaled to a host on which one call of
#: ``probe.probe`` takes this long (its median on a 2-vCPU Intel Xeon
#: KVM guest).  A fixed constant: changing it moves every time metric.
REFERENCE_PROBE_S = 0.4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pop_size: int
    from_csv: bool
    n: int
    nprime: int | None
    kinds: tuple[EstimatorKind, ...]
    weight_policy: WeightPolicy
    workers: int
    reps: int

    def config(self, job_seed: int) -> SimulationConfig:
        return SimulationConfig(
            n=self.n,
            nprime=self.nprime,
            reps=self.reps,
            seed=job_seed,
            estimators=self.kinds,
            weight_policy=self.weight_policy,
        )

    def spec(self, pop_seed: int) -> PopulationSpec:
        return PopulationSpec(size=self.pop_size, seed=pop_seed)


ALL_KINDS = SINGLE_PHASE_KINDS + TWO_PHASE_KINDS

WORKLOADS = {
    w.name: w
    for w in (
        # The index-draw layer does most of the work: 500 Fisher-Yates
        # positions per rep.  A batched draw engine should show here.
        Workload(
            name="twophase-all",
            why="two-phase n=100, n'=400, all kinds, one chunk per job: index draws dominate",
            pop_size=5000,
            from_csv=False,
            n=100,
            nprime=400,
            kinds=ALL_KINDS,
            weight_policy=WeightPolicy.POPULATION_OPTIMAL,
            workers=1,
            reps=2048,
        ),
        # Draws are cheap (20 positions); per-rep fixed costs dominate:
        # the plug-in moment table and the substream set-up.  A single
        # moment kernel should show here, a batched draw much less.
        Workload(
            name="plugin-small-n",
            why="single-phase n=20, plug-in weights: per-rep stream set-up and moment tables dominate",
            pop_size=5000,
            from_csv=False,
            n=20,
            nprime=None,
            kinds=SINGLE_PHASE_KINDS,
            weight_policy=WeightPolicy.PLUG_IN,
            workers=1,
            reps=2048,
        ),
        # 24 MB of population arrays, 6x the 4 MiB L2, so gathers miss
        # cache; the engine pickles the population into each of the 4
        # chunks; the strict CSV reader parses 1M rows.  The only
        # workload where the process pool, the CSV reader and the
        # population moment table do real work.
        Workload(
            name="bigpop-pool",
            why="1M-unit population from CSV, 2 workers, 4 chunks per job: pool, CSV reader and cache misses",
            pop_size=1_000_000,
            from_csv=True,
            n=100,
            nprime=400,
            kinds=ALL_KINDS,
            weight_policy=WeightPolicy.POPULATION_OPTIMAL,
            workers=2,
            reps=8192,
        ),
    )
}


def derive_seeds(workload_seed: int) -> tuple[int, list[int]]:
    """Population seed and job seeds, all derived from the workload seed."""
    state = np.random.SeedSequence(workload_seed).generate_state(1 + JOB_SEED_PERIOD, np.uint64)
    return int(state[0]), [int(s) for s in state[1:]]


# (name, unit, better) of every metric the benchmark prints.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("reps_per_s", "1/s", "higher"),
    ("job_s_p50", "s", "lower"),
    ("job_s_tail", "s", "lower"),
    ("cpu_s_per_krep", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("montecarlo.run_s", "s", "lower"),
    ("montecarlo.stream_us_per_rep", "us", "lower"),
    ("montecarlo.draw_us_per_rep", "us", "lower"),
    ("montecarlo.draw_positions_per_rep", "count", "lower"),
    ("montecarlo.parent_cpu_s_per_chunk", "s", "lower"),
    ("moments.gather_var_us_per_rep", "us", "lower"),
    ("moments.gather_bytes_per_rep", "B", "lower"),
    ("moments.plugin_table_us_per_rep", "us", "lower"),
    ("moments.delta_table_s", "s", "lower"),
    ("moments.load_csv_s", "s", "lower"),
    ("popgen.generate_s", "s", "lower"),
    ("estimators.value_us_per_rep", "us", "lower"),
    ("estimators.evaluations_per_rep", "count", "lower"),
    ("theory.eval_us_per_job", "us", "lower"),
    ("cli.overhead_s", "s", "lower"),
)

#: (name, unit) of per-layer figures the traced run prints but does not
#: report as metrics: each is 0 or near it on some workload, or has no
#: better direction, so a bound relative to a median means nothing.
DIAGNOSTICS = (
    ("montecarlo.worker_busy_frac", "frac"),
    ("montecarlo.failed_reps", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.replay_share", "frac"),
)
