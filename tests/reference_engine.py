"""Reference engine: the per-replication loop of the simulation engine.

This is the engine as it ran before replications were evaluated in
blocks: one substream, one pair of Fisher-Yates draws and one estimator
evaluation per replication, in plain Python.  The block engine in
``varaux.montecarlo`` must reproduce its per-replication values, failure
flags and first-failure message bit for bit; tests compare the two.
"""

from __future__ import annotations

import numpy as np

from varaux.errors import DegenerateSampleError, NoUniqueOptimumError
from varaux.estimators import (
    AuxKnowledge,
    Family,
    alpha_opt,
    single_phase_value,
    two_phase_value,
)
from varaux.moments import DeltaTable


def _srswor(stream: np.random.Generator, n_pop: int, n_sample: int) -> np.ndarray:
    positions = stream.integers(np.arange(n_sample), n_pop)
    picked = np.empty(n_sample, dtype=np.int64)
    slots: dict[int, int] = {}
    for i in range(n_sample):
        j = int(positions[i])
        picked[i] = slots.pop(j, j)
        if j != i:
            slots[j] = slots.pop(i, i)
    return picked


def _sample_delta_table(ys: np.ndarray, xs: np.ndarray, zs: np.ndarray) -> DeltaTable:
    """Divisor-n moment table of a drawn sample, for plug-in weights."""
    squared = []
    for name, values in (("y", ys), ("x", xs), ("z", zs)):
        deviations = values - values.mean()
        sq = deviations * deviations
        if float(sq.mean()) <= 0.0:
            raise DegenerateSampleError(
                f"sample variate {name!r} has zero variance; cannot estimate moments"
            )
        squared.append(sq)
    y2, x2, z2 = squared
    my, mx, mz = float(y2.mean()), float(x2.mean()), float(z2.mean())
    return DeltaTable(
        d400=float((y2 * y2).mean()) / (my * my),
        d040=float((x2 * x2).mean()) / (mx * mx),
        d004=float((z2 * z2).mean()) / (mz * mz),
        d220=float((y2 * x2).mean()) / (my * mx),
        d202=float((y2 * z2).mean()) / (my * mz),
        d022=float((x2 * z2).mean()) / (mx * mz),
    )


def _simulate_chunk(plan, start: int, stop: int) -> tuple[np.ndarray, np.ndarray, str | None]:
    """Evaluate replications ``start..stop-1``; pure in (plan, range)."""
    n_pop = plan.y.size
    count = stop - start
    values = np.full((count, len(plan.kinds)), np.nan)
    failed = np.zeros(count, dtype=bool)
    first_failure: str | None = None
    aux = AuxKnowledge(sx2=plan.aux_sx2, sz2=plan.aux_sz2)
    plug_in_needed = any(
        kind.is_combined and weight is None
        for kind, weight in zip(plan.kinds, plan.weights)
    )
    key = plan.seed
    for offset in range(count):
        rep = start + offset
        stream = np.random.Generator(np.random.Philox(key=key).jumped(rep))
        if plan.nprime is not None:
            first = _srswor(stream, n_pop, plan.nprime)
            second = first[_srswor(stream, plan.nprime, plan.n)]
        else:
            first = None
            second = _srswor(stream, n_pop, plan.n)
        ys = plan.y[second]
        sy2 = float(np.var(ys, ddof=1))
        try:
            xs = zs = None
            sx2 = sz2 = sx2_first = sz2_first = None
            if "x" in plan.variates[1]:
                xs = plan.x[second]
                sx2 = float(np.var(xs, ddof=1))
            if "z" in plan.variates[1]:
                zs = plan.z[second]
                sz2 = float(np.var(zs, ddof=1))
            if "x" in plan.variates[0]:
                sx2_first = float(np.var(plan.x[first], ddof=1))
            if "z" in plan.variates[0]:
                sz2_first = float(np.var(plan.z[first], ddof=1))
            plug_weight: float | None = None
            if plug_in_needed:
                plug_weight = alpha_opt(_sample_delta_table(ys, xs, zs))
            for idx, (kind, weight) in enumerate(zip(plan.kinds, plan.weights)):
                if kind.family is Family.UNBIASED:
                    values[offset, idx] = sy2
                    continue
                resolved = weight if weight is not None else plug_weight
                if kind.is_two_phase:
                    values[offset, idx] = two_phase_value(
                        kind,
                        sy2=sy2,
                        sx2=sx2,
                        sz2=sz2,
                        sx2_first=sx2_first,
                        sz2_first=sz2_first,
                        weight=resolved,
                    )
                else:
                    values[offset, idx] = single_phase_value(
                        kind, sy2=sy2, sx2=sx2, sz2=sz2, aux=aux, weight=resolved
                    )
        except (DegenerateSampleError, NoUniqueOptimumError) as exc:
            failed[offset] = True
            values[offset, :] = np.nan
            if first_failure is None:
                first_failure = f"replication {rep}: {exc}"
    return values, failed, first_failure
