"""Replicated sampling experiments with a hard determinism contract.

The engine draws SRSWOR or nested two-phase samples from a fixed
population, evaluates every requested estimator on the same draw
(paired comparison), and reports empirical mean, bias, MSE and
efficiency next to their first-order theoretical counterparts.

Determinism contract
--------------------
A report is a pure function of the population and the configuration.
Each replication gets its own counter-based substream,
``Philox(key=seed)`` jumped by the replication index, which is the
Philox counter ``(0, 0, rep, 0)``.  So replication ``i`` sees identical
randomness no matter which process evaluates it, in what order, or
alongside which other replications.  Work is split into fixed-size
chunks (independent of worker count) and results are assembled in
replication order, so the means are computed over identical arrays
every time.  Running with one worker or eight gives byte-identical
reports.

Blocks
------
A chunk is evaluated in blocks of replications, one row per
replication, with numpy: the draws of a block, the gathers and sample
variances, the plug-in moment tables and the estimator arithmetic each
run once per block, into arrays that the chunk allocates once.  Every
row still has its own substream and its own draw, and every reduction
runs along a row, so each replication's values are bit for bit those of
evaluating it alone, whatever the block size.

The Fisher-Yates positions are numpy's ``Generator.integers`` draws.
Per replication the engine only reads raw Philox words; it then applies
numpy's bounded-integer rule for 32-bit ranges (Lemire's
multiply-and-reject) to the whole block at once.  The rare row in which
that rule rejects a word is drawn again with ``integers`` itself, so no
row depends on a copy of numpy's rejection loop.

Failed replications (a sample with zero auxiliary variance, or a
plug-in weight with no unique optimum) fail the scalar estimators'
checks, which :func:`varaux.estimators.evaluate` runs once per block.
They are counted, and their draws are dropped for every estimator
alike to preserve pairing.  More than 0.1 percent failures aborts the
run: at that point the population is unsuited to the estimators and
aggregate numbers would mislead.
"""

from __future__ import annotations

import enum
import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import (
    DegeneratePopulationError,
    InvalidDesignError,
    InvalidInputError,
    SimulationError,
)
from .estimators import (
    UNBIASED,
    EstimatorKind,
    Family,
    _resolve_weight,
    alpha_opt,
    evaluate,
)
from .moments import DeltaTable, Population, delta_table, format_csv
from .theory import DesignSizes, pre, theory_for_kind

#: Replications per work unit.  Fixed (never derived from the worker
#: count) so that the chunk boundaries, and with them the assembled
#: result arrays, are identical for every parallel schedule.
CHUNK_SIZE = 2048


class WeightPolicy(enum.Enum):
    """How combined-kind weights are chosen during a run.

    ``FIXED`` requires every combined kind to carry an explicit weight.
    ``POPULATION_OPTIMAL`` (default) fills missing weights with the
    optimum computed from the population moment table, the right mode
    for checking theory, which assumes known moments.  ``PLUG_IN``
    re-estimates missing weights from each drawn sample, quantifying
    the practical estimator; explicitly carried weights are honored
    under every policy.
    """

    FIXED = "fixed"
    POPULATION_OPTIMAL = "population-optimal"
    PLUG_IN = "plug-in"


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs of a simulation run, population excluded.

    ``estimators`` may not be empty; an unbiased baseline is prepended
    automatically when missing (empirical PRE needs it and it costs
    nothing).  ``nprime`` must be present iff a two-phase kind is
    requested, and strictly exceeds ``n``: these are sizes for actual
    draws, not for degenerate theory evaluations.
    """

    n: int
    reps: int
    seed: int
    estimators: tuple[EstimatorKind, ...]
    nprime: int | None = None
    weight_policy: WeightPolicy = WeightPolicy.POPULATION_OPTIMAL

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise InvalidInputError(f"sample size n must be an integer >= 2, got {self.n!r}")
        if not isinstance(self.reps, int) or isinstance(self.reps, bool) or self.reps < 1:
            raise InvalidInputError(f"reps must be a positive integer, got {self.reps!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise InvalidInputError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        kinds = tuple(self.estimators)
        if not kinds:
            raise InvalidInputError("at least one estimator kind is required")
        for kind in kinds:
            if not isinstance(kind, EstimatorKind):
                raise InvalidInputError(f"estimators must be EstimatorKind instances, got {kind!r}")
        object.__setattr__(self, "estimators", kinds)
        if self.nprime is not None:
            if not isinstance(self.nprime, int) or isinstance(self.nprime, bool):
                raise InvalidInputError(f"nprime must be an integer, got {self.nprime!r}")
            if self.nprime <= self.n:
                raise InvalidDesignError(f"first-phase size nprime={self.nprime} must exceed n={self.n}")
        else:
            for kind in kinds:
                if kind.is_two_phase:
                    raise InvalidDesignError(f"estimator {kind.label!r} needs a first-phase size; pass nprime")
        if not isinstance(self.weight_policy, WeightPolicy):
            raise InvalidInputError(f"weight_policy must be a WeightPolicy, got {self.weight_policy!r}")


def draw_srswor(stream: np.random.Generator, n_pop: int, n_sample: int) -> np.ndarray:
    """Draw a uniform random ``n_sample``-subset of ``{0..n_pop-1}``.

    Partial Fisher-Yates: one ``integers`` call draws the position of
    every step, and :func:`_fisher_yates` resolves them as the engine
    does for each replication, so every subset is exactly equally
    probable and the cost does not grow with the population size.
    """
    if not isinstance(n_pop, int) or isinstance(n_pop, bool) or n_pop < 1:
        raise InvalidInputError(f"population size must be a positive integer, got {n_pop!r}")
    if not isinstance(n_sample, int) or isinstance(n_sample, bool) or n_sample < 1:
        raise InvalidInputError(f"sample size must be a positive integer, got {n_sample!r}")
    if n_sample > n_pop:
        raise InvalidInputError(f"cannot draw {n_sample} units from a population of {n_pop}")
    positions = stream.integers(np.arange(n_sample), n_pop)
    return _fisher_yates(positions[np.newaxis], _Workspace(1, n_sample, n_sample))[0]


def draw_two_phase(
    stream: np.random.Generator, n_pop: int, nprime: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a nested two-phase sample: SRSWOR of ``nprime`` from the
    population, then SRSWOR of ``n`` from that first-phase sample.
    Returns ``(first_phase, second_phase)`` as int64 index arrays.
    """
    if not isinstance(nprime, int) or isinstance(nprime, bool):
        raise InvalidDesignError(f"nprime must be an integer, got {nprime!r}")
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidDesignError(f"n must be an integer, got {n!r}")
    if not 2 <= n < nprime <= n_pop:
        raise InvalidDesignError(
            f"two-phase sizes must satisfy 2 <= n < nprime <= N, got n={n}, "
            f"nprime={nprime}, N={n_pop}"
        )
    first = draw_srswor(stream, n_pop, nprime)
    second = first[draw_srswor(stream, nprime, n)]
    return first, second


@dataclass(frozen=True)
class _Plan:
    """Everything a worker needs to evaluate a range of replications."""

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray
    n: int
    nprime: int | None
    seed: int
    kinds: tuple[EstimatorKind, ...]
    weights: tuple[float | None, ...]  # None = plug-in, re-estimated per draw
    aux_sx2: float | None
    aux_sz2: float | None
    # The variates to gather, for each phase.  The second phase's
    # auxiliaries also feed the plug-in moment table.
    need_x_second: bool = field(init=False, repr=False)
    need_z_second: bool = field(init=False, repr=False)
    need_x_first: bool = field(init=False, repr=False)
    need_z_first: bool = field(init=False, repr=False)
    # The position draw's constants, per draw: numpy's ``integers(low,
    # high)`` bounds, the range ``span = high - low``, Lemire's rejection
    # ``threshold`` and the 32-bit half of the row's words that feeds
    # each draw (``column``), for ``words`` raw Philox words per row.
    low: np.ndarray = field(init=False, repr=False)
    high: np.ndarray = field(init=False, repr=False)
    span: np.ndarray = field(init=False, repr=False)
    threshold: np.ndarray = field(init=False, repr=False)
    column: np.ndarray = field(init=False, repr=False)
    words: int = field(init=False, repr=False)
    # Per phase, its draws' columns ``begin:end``.
    phases: tuple[tuple[int, int], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n_pop = self.y.size
        if self.nprime is None:
            low, high = np.arange(self.n), np.full(self.n, n_pop)
            phases = ((0, self.n),)
        else:
            phases = ((0, self.nprime), (self.nprime, self.nprime + self.n))
            low = np.concatenate((np.arange(self.nprime), np.arange(self.n)))
            high = np.concatenate((np.full(self.nprime, n_pop), np.full(self.n, self.nprime)))
        span = (high - low).astype(np.uint64)
        if span.max() > 2**32:
            raise InvalidInputError(f"population size {n_pop} exceeds 2**32, the range of the engine's 32-bit draws")
        # A one-value range returns ``low`` without consuming a half-word;
        # its column repeats the previous draw's, which a span of 1 maps
        # to offset 0 and never rejects.
        consumes = span > 1
        column = np.maximum(np.cumsum(consumes) - 1, 0)
        plug_in = any(kind.is_combined and w is None for kind, w in zip(self.kinds, self.weights))
        constants = {
            "need_x_second": plug_in or any(kind.uses_x for kind in self.kinds),
            "need_z_second": plug_in or any(kind.uses_z for kind in self.kinds),
            "need_x_first": any(kind.is_two_phase and kind.uses_x for kind in self.kinds),
            "need_z_first": any(kind.is_two_phase and kind.uses_z for kind in self.kinds),
            "low": low,
            "high": high,
            "span": span,
            "threshold": ((2**32 - span) % span).astype(np.uint32),
            "column": column,
            "words": max(1, (int(consumes.sum()) + 1) // 2),
            "phases": phases,
        }
        for name, value in constants.items():
            object.__setattr__(self, name, value)


#: Bytes of drawn positions per block of replications.  Rows per block
#: follow from the draw width ``n' + n``: as many as fit this figure, but
#: at least 64 while they fit four times it, so that numpy's fixed cost
#: per call is shared by enough rows.  Blocks reuse their chunk's
#: :class:`_Workspace`, so the figure bounds memory and cache use only.
_BLOCK_BYTES = 64 * 1024

#: Bytes a chunk's workspace takes at least: its first release raises
#: glibc's mmap and trim thresholds so far that the per-block temporaries
#: of the plug-in moment table no longer make malloc trim the heap (139
#: minor faults per plugin-small-n job at seed 1 with 393 KB, 2 with this).
_WORKSPACE_BYTES = 1 << 20


def _block_rows(plan: _Plan) -> int:
    width = plan.span.size
    return max(1, min(CHUNK_SIZE, max(_BLOCK_BYTES // (8 * width), min(64, _BLOCK_BYTES // (2 * width)))))


class _Workspace:
    """Memory for blocks of up to ``rows`` rows of ``width`` positions, in
    phases of up to ``k`` draws: one buffer of ``reserve`` bytes or more.

    It holds the ``link`` table of :func:`_fisher_yates`, an array per
    ``(dtype, cols)`` of ``kept``, and scratch that each step borrows with
    :meth:`arrays`.  A chunk allocates one, so that no block returns
    memory to malloc only to fault it back in the next.
    """

    def __init__(self, rows: int, k: int, width: int, kept=(), reserve: int = 0) -> None:
        specs = [(np.intp, k), *kept]
        size = sum(-(-rows * cols * np.dtype(dtype).itemsize // 64) * 64 for dtype, cols in specs)
        # No step asks for more than 32 bytes per position, plus padding.
        self.scratch = np.empty(max(size + 32 * rows * width + 512, reserve), dtype=np.uint8)
        link, *self.kept = self.arrays(rows, *specs)
        self.scratch = self.scratch[size:]
        self.link = link.reshape(-1)  # link[i] = i between Fisher-Yates calls
        self.link[:] = np.arange(self.link.size)
        self.starts = np.arange(rows, dtype=np.intp)[:, np.newaxis]

    def arrays(self, rows: int, *specs) -> list[np.ndarray]:
        """A ``(rows, cols)`` array per ``(dtype, cols)``, valid until the next call."""
        arrays, offset = [], 0
        for dtype, cols in specs:
            arrays.append(self.scratch[offset:].view(dtype)[: rows * cols].reshape(rows, cols))
            offset += -(-arrays[-1].nbytes // 64) * 64
        return arrays


def _chunk_workspace(plan: _Plan, rows: int) -> _Workspace:
    """A workspace that keeps each phase's positions, picks and indices."""
    kept = [(np.int64, end - begin) for begin, end in plan.phases]
    return _Workspace(rows, plan.nprime or plan.n, plan.span.size, kept, _WORKSPACE_BYTES)


def _draw_positions(plan: _Plan, start: int, stop: int, work: _Workspace) -> list[np.ndarray]:
    """Fisher-Yates positions of replications ``start..stop-1``, one row
    each, in one array per phase (``work.kept``).

    Row ``i`` holds what :func:`draw_two_phase` (or :func:`draw_srswor`)
    draws with ``integers(low, high)`` from replication ``start + i``'s
    substream, the Philox counter ``(0, 0, rep, 0)``: per row, one bit
    generator is set to the block's state dict with that counter and its
    raw 64-bit words are read.  The dict holds Python lists, which the
    state setter reads item by item far faster than numpy arrays.
    The rest runs once per block and is numpy's rule for 32-bit bounded
    integers (Lemire's multiply-and-reject): each word feeds two draws,
    low half first; a draw of ``u`` over ``span`` values is ``low + (u *
    span >> 32)`` unless the low 32 bits of ``u * span`` fall below
    ``(2**32 - span) % span``; then numpy rejects ``u`` and reads the
    next half-word.  Such rows are rare (under 1 in 1,000 draws while
    ``span`` is below about 4 million) and are drawn again with
    ``integers`` itself, so every row is numpy's draw by construction.
    """
    count = stop - start
    bit_generator = np.random.Philox(key=plan.seed)
    state = bit_generator.state
    counter = state["state"]["counter"] = state["state"]["counter"].tolist()
    state["state"]["key"] = state["state"]["key"].tolist()
    state["buffer"] = state["buffer"].tolist()
    width = plan.span.size
    raw, halves, rejects = work.arrays(count, (np.uint64, plan.words), (np.uint32, width), (bool, width))
    for row, rep in enumerate(range(start, stop)):
        counter[2] = rep
        bit_generator.state = state
        raw[row] = bit_generator.random_raw(plan.words)
    # Little-endian words, so that each word's low half comes first
    # whatever the host's byte order.
    np.take(raw.astype("<u8", copy=False).view("<u4"), plan.column, axis=1, out=halves, mode="clip")
    positions = []
    for (begin, end), kept in zip(plan.phases, work.kept):
        product = kept[:count].view(np.uint64)
        np.multiply(halves[:, begin:end], plan.span[begin:end], out=product)
        np.copyto(halves[:, begin:end], product, casting="unsafe")  # the low 32 bits
        np.right_shift(product, 32, out=product)
        positions.append(np.add(product.view(np.int64), plan.low[begin:end], out=product.view(np.int64)))
    rejected = np.flatnonzero(np.less(halves, plan.threshold, out=rejects).any(axis=1))
    stream = np.random.Generator(bit_generator)
    for row in rejected.tolist():
        counter[2] = start + row
        bit_generator.state = state
        drawn = stream.integers(plan.low, plan.high)
        for (begin, end), phase in zip(plan.phases, positions):
            phase[row] = drawn[begin:end]
    return positions


def _fisher_yates(positions: np.ndarray, work: _Workspace) -> np.ndarray:
    """Partial Fisher-Yates on every row of ``positions`` at once.

    ``positions``, C-ordered int64, has rows of ``k`` draws, ``positions[:, i]``
    in ``[i, N)``, ``N <= 2**32``; it is overwritten with the picked indices
    and returned.  Row by row the result is the sequential draw over ``0..N-1``:
    step ``i`` picks the value at position ``j_i`` and moves the value at
    position ``i`` there.  So draw ``i`` picks ``j_i`` unless an earlier draw
    ``m`` named the same position; then it picks the value position ``m`` held
    at step ``m``: ``m`` unless an earlier draw moved a value there, and so on,
    a chain that ends at a draw whose own index is the value.  An in-place sort
    of each row's distinct keys ``(j_i << b) | i``, ``b`` the bits of ``k - 1``,
    finds both kinds of earlier draw, whatever the sort algorithm.  Draws and
    positions are flat indices ``row * k + i``.
    """
    rows, k = positions.shape
    keys, pos, mask = work.arrays(rows, (np.uint64, k), (np.int64, k), (bool, k))
    starts = work.starts[:rows] * k
    bits = (k - 1).bit_length()
    np.left_shift(positions.view(np.uint64), bits, out=keys)
    np.bitwise_or(keys, work.link[:k].view(np.uint64), out=keys)  # link[:k] holds 0..k-1
    keys.sort(axis=1)
    np.right_shift(keys, bits, out=pos.view(np.uint64))
    pos += starts
    flat = np.bitwise_and(keys, (1 << bits) - 1, out=keys).view(np.int64)
    flat += starts
    # Moves into a position p < k before step p: the value a chain reads
    # there.  Only the last move into each p counts: numpy leaves
    # unspecified which of several assignments to one index wins.
    inside = np.less(pos, starts + k, out=mask)
    targets, sources = pos[inside], flat[inside]
    moved = sources < targets
    targets, sources = targets[moved], sources[moved]
    last = np.ones(targets.size, dtype=bool)
    np.not_equal(targets[1:], targets[:-1], out=last[:-1])
    work.link[targets[last]] = sources[last]
    # Equal positions are adjacent: of each such pair the second draw
    # reads what the first one's chain ends at.
    same = np.equal(pos[:, 1:], pos[:, :-1], out=mask[:, :-1])
    source, readers = flat[:, :-1][same], flat[:, 1:][same]
    while True:
        linked = work.link[source]
        if np.array_equal(linked, source):
            break
        source = linked
    work.link[targets] = targets
    np.put(positions, readers, source % k)
    return positions


def _draw_block(plan: _Plan, start: int, stop: int, work: _Workspace) -> tuple[np.ndarray | None, np.ndarray]:
    """First- and second-phase indices of replications ``start..stop-1``,
    one row each; the first phase is None in single-phase designs."""
    positions = _draw_positions(plan, start, stop, work)
    picks = [_fisher_yates(phase, work) for phase in positions]
    if plan.nprime is None:
        return None, picks[0]
    first, second = picks
    # second[r, i] = first[r, second[r, i]]
    (flat,) = work.arrays(stop - start, (np.intp, plan.n))
    np.add(second, work.starts[: stop - start] * plan.nprime, out=flat)
    return first, np.take(first.reshape(-1), flat, out=second, mode="clip")


def _variance(block: np.ndarray, deviations: np.ndarray) -> np.ndarray:
    """``np.var(block, axis=1, ddof=1)`` of a C-ordered block, bit for bit, by numpy's
    own steps; ``deviations`` is C-ordered scratch of the block's shape, or the block."""
    mean = np.add.reduce(block, axis=1, keepdims=True)
    np.true_divide(mean, block.shape[1], out=mean)
    np.subtract(block, mean, out=deviations)
    np.square(deviations, out=deviations)
    variance = np.add.reduce(deviations, axis=1)
    return np.true_divide(variance, block.shape[1] - 1, out=variance)


def _simulate_block(plan: _Plan, start: int, stop: int, values: np.ndarray, failed: np.ndarray, work: _Workspace) -> str | None:
    """Fill ``values``/``failed`` for replications ``start..stop-1``.

    One call of :func:`evaluate` gives every row's values and checks.
    Returns the message of the first failed replication's first failed
    check, or None.
    """
    first, second = _draw_block(plan, start, stop, work)
    variances = dict.fromkeys(("sy2", "sx2", "sz2", "sx2_first", "sz2_first"))
    (first_values,) = work.arrays(len(second), (np.float64, plan.nprime or 0))
    for name, needed in (("x", plan.need_x_first), ("z", plan.need_z_first)):
        if needed:
            np.take(getattr(plan, name), first, out=first_values, mode="clip")
            variances[f"s{name}2_first"] = _variance(first_values, first_values)
    # The second phase's values, kept for the plug-in moment table.
    gathered = "y" + "x" * plan.need_x_second + "z" * plan.need_z_second
    deviations, *kept = work.arrays(len(second), *[(np.float64, plan.n)] * (1 + len(gathered)))
    samples = dict.fromkeys("yxz")
    for name, buffer in zip(gathered, kept):
        samples[name] = np.take(getattr(plan, name), second, out=buffer, mode="clip")
        variances[f"s{name}2"] = _variance(samples[name], deviations)
    refs = (plan.aux_sx2, plan.aux_sz2)
    own, checks = evaluate(plan.kinds, plan.weights, variances["sy2"], variances, refs, tuple(samples.values()))
    for idx, value in enumerate(own):
        values[:, idx] = value
    failed[:] = np.logical_or.reduce([mask for mask, _, _ in checks])
    if not failed.any():
        return None
    values[failed] = np.nan
    row = int(np.flatnonzero(failed)[0])
    message = next(message for mask, _, message in checks if mask[row])
    return f"replication {start + row}: {message}"


def _simulate_chunk(plan: _Plan, start: int, stop: int) -> tuple[np.ndarray, np.ndarray, str | None]:
    """Evaluate replications ``start..stop-1``; pure in (plan, range)."""
    count = stop - start
    values = np.full((count, len(plan.kinds)), np.nan)
    failed = np.zeros(count, dtype=bool)
    first_failure: str | None = None
    rows = min(_block_rows(plan), count)
    work = _chunk_workspace(plan, rows)
    for block_start in range(start, stop, rows):
        block_stop = min(block_start + rows, stop)
        block = slice(block_start - start, block_stop - start)
        message = _simulate_block(plan, block_start, block_stop, values[block], failed[block], work)
        if first_failure is None:
            first_failure = message
    return values, failed, first_failure


#: The plan of the run a pool worker serves, set once per worker by
#: :func:`_init_worker`, so that chunks carry only their bounds.
_worker_plan: _Plan | None = None


def _init_worker(plan: _Plan) -> None:
    global _worker_plan
    _worker_plan = plan


def _simulate_range(start: int, stop: int) -> tuple[np.ndarray, np.ndarray, str | None]:
    return _simulate_chunk(_worker_plan, start, stop)


@dataclass(frozen=True)
class EstimatorSummary:
    """One estimator's empirical and theoretical numbers."""

    kind: str
    weight_mode: str
    weight: float | None
    emp_mean: float
    emp_bias: float
    emp_mse: float
    emp_pre: float
    theory_bias: float | None
    theory_mse: float
    theory_pre: float
    formula_id: str


#: The ``weight_mode`` of a report row for each weight source, where
#: the two differ.
_WEIGHT_MODES = {"optimal": "population-optimal"}

#: CSV columns of a report: the summary's fields, in order.
_CSV_COLUMNS = tuple(f.name for f in fields(EstimatorSummary))


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated outcome of a run; serializes to stable JSON and CSV."""

    pop_size: int
    sy2: float
    sx2: float
    sz2: float
    deltas: DeltaTable
    n: int
    nprime: int | None
    reps: int
    reps_used: int
    failed_reps: int
    seed: int
    weight_policy: str
    estimators: tuple[EstimatorSummary, ...]

    def to_dict(self) -> dict:
        return {
            "population": {
                "size": self.pop_size,
                "sy2": self.sy2,
                "sx2": self.sx2,
                "sz2": self.sz2,
                "deltas": self.deltas.to_dict(),
            },
            "design": {"n": self.n, "nprime": self.nprime},
            "run": {
                "reps": self.reps,
                "reps_used": self.reps_used,
                "failed_reps": self.failed_reps,
                "seed": self.seed,
                "weight_policy": self.weight_policy,
            },
            "estimators": [asdict(summary) for summary in self.estimators],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        return format_csv(_CSV_COLUMNS, [asdict(summary) for summary in self.estimators])


def run_simulation(pop: Population, config: SimulationConfig, workers: int = 1) -> SimulationReport:
    """Run the replicated experiment and aggregate a report.

    ``workers`` only schedules the work; it is deliberately not part of
    the configuration because the report is identical for every value
    of it.  Failures inside replications are counted and reported; more
    than 0.1 percent of them aborts with :class:`SimulationError`.

    Raises
    ------
    InvalidInputError, InvalidDesignError
        If the configuration does not fit the population.
    DegeneratePopulationError
        If any variate is constant in the population.
    SimulationError
        If too many replications fail.
    """
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise InvalidInputError(f"workers must be a positive integer, got {workers!r}")
    n_pop = pop.size
    if config.n >= n_pop:
        raise InvalidDesignError(
            f"sample size n={config.n} must be smaller than the population "
            f"size {n_pop}; a census admits no sampling variation"
        )
    if config.nprime is not None and config.nprime > n_pop:
        raise InvalidDesignError(f"first-phase size nprime={config.nprime} exceeds the population size {n_pop}")
    kinds = tuple(dict.fromkeys((UNBIASED,) + config.estimators))
    sy2 = pop.sy2
    if sy2 <= 0.0:
        raise DegeneratePopulationError("variate 'y' has zero variance; nothing to estimate")
    pop_deltas = delta_table(pop)
    if config.n / n_pop > 0.05:
        warnings.warn(
            f"sampling fraction n/N = {config.n / n_pop:.3f} exceeds 5%; the "
            "theory columns ignore the finite population correction and will "
            "overstate the MSE",
            stacklevel=2,
        )

    sizes = DesignSizes(config.n, config.nprime)

    # Resolve weights once.  A None slot survives only under PLUG_IN,
    # where it means "re-estimate from every sample"; theory columns
    # for those rows are evaluated at the population optimum instead,
    # since per-sample weights have no single theoretical value.
    table = pop_deltas if config.weight_policy is WeightPolicy.POPULATION_OPTIMAL else None
    weights: list[float | None] = []
    modes: list[str] = []
    theory_weights: list[float | None] = []
    for kind in kinds:
        weight, source = _resolve_weight(kind, deltas=table)
        if source == "plug-in" and config.weight_policy is WeightPolicy.FIXED:
            raise InvalidInputError(f"weight policy 'fixed' requires an explicit weight on {kind.label!r}")
        weights.append(weight)
        modes.append(_WEIGHT_MODES.get(source, source))
        theory_weights.append(alpha_opt(pop_deltas) if source == "plug-in" else weight)

    plan = _Plan(
        y=pop.y,
        x=pop.x,
        z=pop.z,
        n=config.n,
        nprime=config.nprime,
        seed=config.seed,
        kinds=kinds,
        weights=tuple(weights),
        aux_sx2=pop.sx2,
        aux_sz2=pop.sz2,
    )

    starts = range(0, config.reps, CHUNK_SIZE)
    stops = [min(start + CHUNK_SIZE, config.reps) for start in starts]
    if workers == 1 or len(starts) == 1:
        results = [_simulate_chunk(plan, start, stop) for start, stop in zip(starts, stops)]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(plan,)) as executor:
            results = list(executor.map(_simulate_range, starts, stops))

    values = np.concatenate([r[0] for r in results], axis=0)
    failed = np.concatenate([r[1] for r in results])
    first_failure = next((r[2] for r in results if r[2] is not None), None)

    failed_reps = int(failed.sum())
    if failed_reps > 0.001 * config.reps:
        raise SimulationError(
            f"{failed_reps} of {config.reps} replications failed (above the 0.1% "
            f"threshold); first failure: {first_failure}"
        )
    kept = values[~failed]
    reps_used = int(kept.shape[0])
    if reps_used == 0:
        raise SimulationError("no replication survived; nothing to aggregate")

    emp_mean = kept.mean(axis=0)
    deviations = kept - sy2
    emp_mse = (deviations * deviations).mean(axis=0)
    if float(emp_mse.min()) <= 0.0:
        raise SimulationError(
            "an estimator's empirical MSE is zero; the design admits no "
            "sampling variation (is n = N?)"
        )
    baseline_idx = next(i for i, kind in enumerate(kinds) if kind.family is Family.UNBIASED)
    baseline_mse = float(emp_mse[baseline_idx])

    theory_results = [
        theory_for_kind(kind, pop_deltas, sy2, sizes, weight=theory_weights[i])
        for i, kind in enumerate(kinds)
    ]
    theory_baseline = theory_results[baseline_idx].mse
    if theory_baseline <= 0.0:
        raise DegeneratePopulationError(
            "the population's y kurtosis sits at its lower bound (d400 = 1), "
            "so first-order theory gives zero baseline variance and "
            "efficiencies are undefined"
        )

    summaries = []
    for i, kind in enumerate(kinds):
        theory = theory_results[i]
        summaries.append(
            EstimatorSummary(
                kind=kind.label,
                weight_mode=modes[i],
                weight=theory_weights[i],
                emp_mean=float(emp_mean[i]),
                emp_bias=float(emp_mean[i] - sy2),
                emp_mse=float(emp_mse[i]),
                emp_pre=pre(float(emp_mse[i]), baseline_mse),
                theory_bias=theory.bias,
                theory_mse=theory.mse,
                theory_pre=pre(theory.mse, theory_baseline),
                formula_id=theory.formula_id,
            )
        )

    return SimulationReport(
        pop_size=n_pop,
        sy2=sy2,
        sx2=pop.sx2,
        sz2=pop.sz2,
        deltas=pop_deltas,
        n=config.n,
        nprime=config.nprime,
        reps=config.reps,
        reps_used=reps_used,
        failed_reps=failed_reps,
        seed=config.seed,
        weight_policy=config.weight_policy.value,
        estimators=tuple(summaries),
    )
