"""Replay of engine replications through varaux's public functions.

The replay repeats what ``run_simulation`` does for each replication,
in the same order and with the same arithmetic, but calls only public
functions and times each layer: substream set-up, index draws, gathers
plus sample variances, the plug-in moment table and the estimator
arithmetic.  Its per-rep values must reproduce the engine's report bit
for bit; otherwise the layer times describe a different program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from varaux import (
    UNBIASED,
    AuxKnowledge,
    DegeneratePopulationError,
    DegenerateSampleError,
    Family,
    NoUniqueOptimumError,
    Population,
    WeightPolicy,
    alpha_opt,
    delta_table,
    draw_srswor,
    sample_variance,
    single_phase_value,
    two_phase_value,
)

LAYERS = ("stream", "draw", "gather_var", "plugin_table", "value")


@dataclass
class Replay:
    values: np.ndarray
    failed: np.ndarray
    layer_ns: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LAYERS, 0))
    evaluations: int = 0
    gathered_values: int = 0

    def us_per_rep(self, layer: str) -> float:
        return self.layer_ns[layer] / 1e3 / len(self.failed)

    def emp_mean(self) -> np.ndarray:
        return self.values[~self.failed].mean(axis=0)


def engine_kinds(config) -> tuple:
    """The engine's kind order: the unbiased baseline first, then the
    requested kinds without duplicates."""
    kinds: list = []
    for kind in (UNBIASED,) + config.estimators:
        if kind not in kinds:
            kinds.append(kind)
    return tuple(kinds)


def replay(pop: Population, config, count: int) -> Replay:
    """Replay replications ``0..count-1`` of ``config`` on ``pop``."""
    kinds = engine_kinds(config)
    plug_in = config.weight_policy is WeightPolicy.PLUG_IN
    combined_weight = None
    if any(kind.is_combined and kind.weight is None for kind in kinds) and not plug_in:
        combined_weight = alpha_opt(delta_table(pop))
    weights = [
        (kind.weight if kind.weight is not None else combined_weight) if kind.is_combined else None
        for kind in kinds
    ]
    plug_in_needed = any(kind.is_combined and w is None for kind, w in zip(kinds, weights))
    uses_x = any(kind.uses_x for kind in kinds)
    uses_z = any(kind.uses_z for kind in kinds)
    need_x = uses_x or plug_in_needed
    need_z = uses_z or plug_in_needed
    need_x_first = any(kind.is_two_phase and kind.uses_x for kind in kinds)
    need_z_first = any(kind.is_two_phase and kind.uses_z for kind in kinds)
    aux = AuxKnowledge(sx2=pop.sx2 if uses_x else None, sz2=pop.sz2 if uses_z else None)
    n_pop, n, nprime = pop.size, config.n, config.nprime

    out = Replay(values=np.full((count, len(kinds)), np.nan), failed=np.zeros(count, dtype=bool))
    ns = out.layer_ns
    clock = time.perf_counter_ns
    for rep in range(count):
        t0 = clock()
        stream = np.random.Generator(np.random.Philox(key=config.seed).jumped(rep))
        t1 = clock()
        if nprime is not None:
            first = draw_srswor(stream, n_pop, nprime)
            second = first[draw_srswor(stream, nprime, n)]
        else:
            first = None
            second = draw_srswor(stream, n_pop, n)
        t2 = clock()
        ns["stream"] += t1 - t0
        ns["draw"] += t2 - t1
        ys = pop.y[second]
        sy2 = sample_variance(ys)
        xs = zs = None
        sx2 = sz2 = sx2_first = sz2_first = None
        if need_x:
            xs = pop.x[second]
            sx2 = sample_variance(xs)
        if need_z:
            zs = pop.z[second]
            sz2 = sample_variance(zs)
        if need_x_first:
            sx2_first = sample_variance(pop.x[first])
        if need_z_first:
            sz2_first = sample_variance(pop.z[first])
        t3 = clock()
        ns["gather_var"] += t3 - t2
        try:
            plug_weight = None
            if plug_in_needed:
                plug_weight = alpha_opt(delta_table(Population(ys, xs, zs)))
            t4 = clock()
            ns["plugin_table"] += t4 - t3
            for idx, (kind, weight) in enumerate(zip(kinds, weights)):
                if kind.family is Family.UNBIASED:
                    out.values[rep, idx] = sy2
                    continue
                resolved = weight if weight is not None else plug_weight
                if kind.is_two_phase:
                    out.values[rep, idx] = two_phase_value(
                        kind, sy2=sy2, sx2=sx2, sz2=sz2,
                        sx2_first=sx2_first, sz2_first=sz2_first, weight=resolved,
                    )
                else:
                    out.values[rep, idx] = single_phase_value(
                        kind, sy2=sy2, sx2=sx2, sz2=sz2, aux=aux, weight=resolved
                    )
                out.evaluations += 1
            ns["value"] += clock() - t4
        except (DegenerateSampleError, DegeneratePopulationError, NoUniqueOptimumError):
            out.failed[rep] = True
            out.values[rep, :] = np.nan
        out.gathered_values += (
            len(second) * (1 + need_x + need_z) + (nprime or 0) * (need_x_first + need_z_first)
        )
    return out
