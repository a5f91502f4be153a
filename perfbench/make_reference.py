"""Regenerate ``reference.json``: digests of the pinned report fields of
every job of every workload at the default seed.

    python3 perfbench/make_reference.py

Only regenerate it for a change that is meant to alter the simulated
numbers, and say so in the change.  Each run of ``run.py`` at the
default seed compares its jobs with these digests.
"""

from __future__ import annotations

import json

from run import (
    PINNED_ROW_FIELDS,
    PINNED_RUN_FIELDS,
    REFERENCE,
    report_digest,
)
from varaux import generate_population, run_simulation
from workloads import DEFAULT_SEED, WORKLOADS, derive_seeds


def main() -> None:
    reference = {
        "seed": DEFAULT_SEED,
        "fields": {"run": list(PINNED_RUN_FIELDS), "estimators": list(PINNED_ROW_FIELDS)},
        "digests": {},
    }
    pop_seed, job_seeds = derive_seeds(DEFAULT_SEED)
    for name, wl in sorted(WORKLOADS.items()):
        # run.py checks that the CSV round trip of the population is exact.
        pop = generate_population(wl.spec(pop_seed))
        reference["digests"][name] = [
            report_digest(run_simulation(pop, wl.config(seed), workers=wl.workers)) for seed in job_seeds
        ]
        print(f"{name}: {len(job_seeds)} jobs")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
