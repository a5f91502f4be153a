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
A chunk is evaluated in two levels.  Per block of replications, one row
per replication, numpy runs the work that needs a row's whole sample:
the draws, the gathers of each phase's variates into one stacked buffer,
one sample-variance pass over it and, under plug-in weights, the moment
tables, built from the squared deviations that pass leaves, so each
sample is centred once.  Blocks keep their rows in arrays that the chunk
allocates once, and write each row's variances and moments into arrays
of one number per replication.  Per chunk, the estimator arithmetic,
the fill of the values and the failure scan then run once on those
arrays.  Every row still has its own substream and its own draw, every
reduction runs along a row and the arithmetic runs elementwise, so each
replication's values are bit for bit those of evaluating it alone,
whatever the block size.

The Fisher-Yates positions are numpy's ``Generator.integers`` draws.
Per replication the engine only reads raw Philox words; it then applies
numpy's bounded-integer rule for 32-bit ranges (Lemire's
multiply-and-reject) to the whole block at once.  The rare row in which
that rule rejects a word is drawn again with ``integers`` itself, so no
row depends on a copy of numpy's rejection loop.

Failed replications (a sample with zero auxiliary variance, or a
plug-in weight with no unique optimum) fail the scalar estimators'
checks, which :func:`varaux.estimators.evaluate` runs once per chunk.
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
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import InvalidDesignError, InvalidInputError, SimulationError, _integer
from .estimators import (
    UNBIASED,
    EstimatorKind,
    _resolve_weight,
    evaluate,
)
from .moments import DeltaTable, Population, delta_table, format_csv, fourth_moments
from .theory import DesignSizes, pre, theory_table

#: Replications per work unit.  Fixed (never derived from the worker
#: count) so that the chunk boundaries, and with them the assembled
#: result arrays, are identical for every parallel schedule.
CHUNK_SIZE = 2048


class WeightPolicy(enum.Enum):
    """How combined-kind weights are chosen during a run.

    ``FIXED`` requires every combined kind to carry an explicit weight;
    :class:`SimulationConfig` refuses one without at construction.
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
    nothing).  ``nprime`` is required by a two-phase kind and allowed with
    any: every replication then draws a first phase of ``nprime`` units and
    evaluates every kind on the second-phase sample of ``n`` units nested
    in it.  It strictly exceeds ``n``: these are sizes for actual draws,
    not for degenerate theory evaluations.  Under ``FIXED`` every
    combined kind carries a weight; each rule is checked here, with no population.
    """

    n: int
    reps: int
    seed: int
    estimators: tuple[EstimatorKind, ...]
    nprime: int | None = None
    weight_policy: WeightPolicy = WeightPolicy.POPULATION_OPTIMAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, "sample size n", 2))
        object.__setattr__(self, "reps", _integer(self.reps, "reps", 1))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0, 2**64))
        kinds = tuple(self.estimators)
        if not kinds:
            raise InvalidInputError("at least one estimator kind is required")
        for kind in kinds:
            if not isinstance(kind, EstimatorKind):
                raise InvalidInputError(f"estimators must be EstimatorKind instances, got {kind!r}")
        object.__setattr__(self, "estimators", kinds)
        if self.nprime is not None:
            object.__setattr__(self, "nprime", _integer(self.nprime, "nprime"))
            if self.nprime <= self.n:
                raise InvalidDesignError(f"first-phase size nprime={self.nprime} must exceed n={self.n}")
        else:
            for kind in kinds:
                if kind.is_two_phase:
                    raise InvalidDesignError(f"estimator {kind.label!r} needs a first-phase size; pass nprime")
        if not isinstance(self.weight_policy, WeightPolicy):
            raise InvalidInputError(f"weight_policy must be a WeightPolicy, got {self.weight_policy!r}")
        for kind in kinds:
            if self.weight_policy is WeightPolicy.FIXED and kind.is_combined and kind.weight is None:
                raise InvalidInputError(f"weight policy 'fixed' requires an explicit weight on {kind.label!r}")


def _population_size(n_pop) -> int:
    """``n_pop`` as an ``int`` from 1 to 2**32: numpy draws its positions from 32-bit words, and its keys fit 64 bits."""
    n_pop = _integer(n_pop, "population size", 1)
    if n_pop > 2**32:
        raise InvalidInputError(f"population size {n_pop} exceeds 2**32, the range of the engine's 32-bit draws")
    return n_pop


def draw_srswor(stream: np.random.Generator, n_pop: int, n_sample: int) -> np.ndarray:
    """Draw a uniform random ``n_sample``-subset of ``{0..n_pop-1}``.

    Partial Fisher-Yates: one ``integers`` call draws the position of
    every step, and :func:`_fisher_yates` resolves them as the engine
    does for each replication, so every subset is exactly equally
    probable and the cost does not grow with the population size.
    """
    n_pop = _population_size(n_pop)
    n_sample = _integer(n_sample, "sample size", 1)
    if n_sample > n_pop:
        raise InvalidInputError(f"cannot draw {n_sample} units from a population of {n_pop}")
    return _srswor(stream, n_pop, n_sample)


def _srswor(stream: np.random.Generator, n_pop: int, n_sample: int) -> np.ndarray:
    """:func:`draw_srswor` of checked sizes."""
    positions = stream.integers(np.arange(n_sample), n_pop)
    return _fisher_yates(positions[np.newaxis], n_pop, _Workspace(1, n_sample, n_sample))[0]


def draw_two_phase(
    stream: np.random.Generator, n_pop: int, nprime: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a nested two-phase sample: SRSWOR of ``nprime`` from the
    population, then SRSWOR of ``n`` from that first-phase sample.
    Returns ``(first_phase, second_phase)`` as int64 index arrays.
    """
    n_pop = _population_size(n_pop)
    nprime = _integer(nprime, "nprime", error=InvalidDesignError)
    n = _integer(n, "n", error=InvalidDesignError)
    if not 2 <= n < nprime <= n_pop:
        raise InvalidDesignError(
            f"two-phase sizes must satisfy 2 <= n < nprime <= N, got n={n}, "
            f"nprime={nprime}, N={n_pop}"
        )
    first = _srswor(stream, n_pop, nprime)
    second = first[_srswor(stream, nprime, n)]
    return first, second


class _Plan:
    """Everything a worker needs to evaluate a range of replications.

    ``weights`` has a slot per kind, None for a plug-in weight that each
    draw re-estimates; ``aux_sx2`` and ``aux_sz2`` are the population
    variances the kinds take as known.  :meth:`for_run` builds a run's plan.
    """

    def __init__(self, y, x, z, n, nprime, seed, kinds, weights, aux_sx2, aux_sz2) -> None:
        n_pop = _population_size(y.size)
        self.y, self.x, self.z = y, x, z
        self.n = n
        self.nprime = nprime
        self.seed = seed
        self.kinds = kinds
        self.weights = weights
        self.aux_sx2 = aux_sx2
        self.aux_sz2 = aux_sz2
        # The position draw's constants, per draw: numpy's ``integers(low,
        # high)`` bounds, the range ``span = high - low`` and Lemire's
        # rejection ``threshold``.  Draw i reads half-word i of the row's
        # ``words`` Philox words; numpy draws a one-value range without one,
        # but only a single-phase n = N ends in one, where any gives its value.
        # Per phase, its draws' columns ``begin:end`` and the number of units
        # it draws from.
        if nprime is None:
            self.low, self.high = np.arange(n), np.full(n, n_pop)
            self.phases = ((0, n, n_pop),)
        else:
            self.low = np.concatenate((np.arange(nprime), np.arange(n)))
            self.high = np.concatenate((np.full(nprime, n_pop), np.full(n, nprime)))
            self.phases = ((0, nprime, n_pop), (nprime, nprime + n, nprime))
        self.span = (self.high - self.low).astype(np.uint64)
        self.threshold = ((2**32 - self.span) % self.span).astype(np.uint32)
        self.words = (self.span.size + 1) // 2
        # The variates each phase gathers: the first phase's auxiliaries, then
        # y and the second phase's; and whether a combined kind takes the
        # plug-in weight of the second phase's moment table, which reads all three.
        self.plug_in = any(kind.is_combined and w is None for kind, w in zip(kinds, weights))
        two_phase = [kind for kind in kinds if kind.is_two_phase]
        first = "x" * any(kind.uses_x for kind in two_phase) + "z" * any(kind.uses_z for kind in two_phase)
        second = "y" + "x" * (self.plug_in or any(kind.uses_x for kind in kinds))
        second += "z" * (self.plug_in or any(kind.uses_z for kind in kinds))
        self.variates = (first, second)
        # A chunk's statistics, a row each: the variances named in
        # ``stat_names``, then under plug-in weights the moment table's nine.
        self.stat_names = [f"s{name}2_first" for name in first] + [f"s{name}2" for name in second]
        self.stat_rows = len(self.stat_names) + 9 * self.plug_in

    @classmethod
    def for_run(cls, pop: Population, config: SimulationConfig) -> tuple[_Plan, tuple[str, ...]]:
        """The plan of running ``config`` on ``pop``, and each kind's weight source.

        A census sample or first phase is refused before any moment table
        is computed.  The unbiased baseline is the first kind.  Weights are
        resolved once: a None slot survives only under ``PLUG_IN``.
        """
        for what, size, rest in (
            ("sample size n", config.n, "admits no sampling variation"),
            ("first-phase size nprime", config.nprime, "first phase makes each two-phase kind its single-phase twin"),
        ):
            if size is not None and size >= pop.size:
                raise InvalidDesignError(
                    f"{what}={size} must be smaller than the population size {pop.size}; a census {rest}"
                )
        kinds = tuple(dict.fromkeys((UNBIASED,) + config.estimators))
        table = delta_table(pop) if config.weight_policy is WeightPolicy.POPULATION_OPTIMAL else None
        weights, sources = zip(*(_resolve_weight(kind, deltas=table) for kind in kinds))
        plan = cls(pop.y, pop.x, pop.z, config.n, config.nprime, config.seed, kinds, weights, pop.sx2, pop.sz2)
        return plan, sources


#: Bytes of drawn positions per block of replications.  Rows per block
#: follow from the draw width ``n' + n``: as many as fit this figure, but
#: at least 128 while they fit eight times it.  A block pays a fixed
#: numpy cost whatever its rows, about 120 µs at width 500 against some
#: 10 µs per row, so wide designs share it among 128 rows; a block then
#: touches about 1.3 MB, inside a 2 MiB L2.  Blocks reuse their chunk's
#: :class:`_Workspace`, so the figure bounds memory and cache use only;
#: a block's largest numpy temporaries are the plug-in table's products,
#: one ``(rows, n)`` array at a time.
_BLOCK_BYTES = 64 * 1024


def _block_rows(plan: _Plan) -> int:
    """Rows per block: 1 to ``CHUNK_SIZE``, whose positions take at most
    ``8 * _BLOCK_BYTES`` once there are two or more."""
    width = plan.span.size
    return max(1, min(CHUNK_SIZE, max(_BLOCK_BYTES // (8 * width), min(128, _BLOCK_BYTES // width))))


class _Workspace:
    """Memory for blocks of up to ``rows`` rows of ``width`` positions, in
    phases of up to ``k`` draws.

    It holds the ``link`` table of :func:`_fisher_yates` and one buffer:
    an array per ``(dtype, cols)`` of ``kept``, then scratch that each
    step borrows with :meth:`arrays`.  Given a ``seed``, it also holds the
    substreams of :func:`_draw_positions`: one Philox bit generator with
    that key and a state dict to reset it to.  A chunk allocates one, so
    that no block returns memory to malloc only to fault it back in the
    next, nor builds a bit generator again.
    """

    def __init__(self, rows: int, k: int, width: int, kept=(), seed: int | None = None) -> None:
        size = sum(-(-rows * cols * np.dtype(dtype).itemsize // 64) * 64 for dtype, cols in kept)
        # No step asks for more than 24 bytes per position, plus padding:
        # the draw asks for 5, Fisher-Yates for 9 with 32-bit keys and 17
        # with 64-bit ones, and the most is 24 per second-phase position,
        # for its y, x and z values.
        self.scratch = np.empty(size + 24 * rows * width + 512, dtype=np.uint8)
        self.kept = self.arrays(rows, *kept)
        self.scratch = self.scratch[size:]
        self.link = np.full(rows * k, -1, dtype=np.intp)  # between Fisher-Yates calls
        self.draws = np.arange(k, dtype=np.uint32)  # the low bits of Fisher-Yates keys
        if seed is not None:
            # The state setter reads Python lists item by item far faster
            # than numpy arrays.  Only the counter's replication word ever
            # changes; the bit generator's own state is never read back.
            self.stream = np.random.Generator(np.random.Philox(key=seed))
            self.state = self.stream.bit_generator.state
            self.state["state"] = {name: value.tolist() for name, value in self.state["state"].items()}
            self.state["buffer"] = self.state["buffer"].tolist()

    def arrays(self, rows: int, *specs) -> list[np.ndarray]:
        """A ``(rows, cols)`` array per ``(dtype, cols)``, valid until the next call."""
        arrays, offset = [], 0
        for dtype, cols in specs:
            arrays.append(np.ndarray((rows, cols), dtype, self.scratch, offset))
            offset += -(-arrays[-1].nbytes // 64) * 64
        return arrays


def _chunk_workspace(plan: _Plan, rows: int) -> _Workspace:
    """A workspace that keeps each phase's positions, picks and indices,
    with the substreams of the plan's seed."""
    kept = [(np.int64, end - begin) for begin, end, _ in plan.phases]
    return _Workspace(rows, plan.nprime or plan.n, plan.span.size, kept, plan.seed)


def _draw_positions(plan: _Plan, start: int, stop: int, work: _Workspace) -> list[np.ndarray]:
    """Fisher-Yates positions of replications ``start..stop-1``, one row
    each, in one array per phase (``work.kept``).

    Row ``i`` holds what :func:`draw_two_phase` (or :func:`draw_srswor`)
    draws with ``integers(low, high)`` from replication ``start + i``'s
    substream, the Philox counter ``(0, 0, rep, 0)``: per row, the chunk's
    bit generator (``work.stream``) is set to the chunk's state dict
    (``work.state``) with that counter and its raw 64-bit words are read.
    Every reset sets the whole state, so what one row or block leaves in
    the bit generator never reaches the next.
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
    bit_generator, state = work.stream.bit_generator, work.state
    counter = state["state"]["counter"]
    width = plan.span.size
    raw, rejects = work.arrays(count, (np.uint64, plan.words), (bool, width))
    for row, rep in enumerate(range(start, stop)):
        counter[2] = rep
        bit_generator.state = state
        raw[row] = bit_generator.random_raw(plan.words)
    # Little-endian words, so that each word's low half comes first
    # whatever the host's byte order.
    halves = raw.astype("<u8", copy=False).view("<u4")[:, :width]
    positions = []
    for (begin, end, _), kept in zip(plan.phases, work.kept):
        product = kept[:count].view(np.uint64)
        np.multiply(halves[:, begin:end], plan.span[begin:end], out=product)
        np.copyto(halves[:, begin:end], product, casting="unsafe")  # the low 32 bits
        np.right_shift(product, 32, out=product)
        positions.append(np.add(product.view(np.int64), plan.low[begin:end], out=product.view(np.int64)))
    rejected = np.flatnonzero(np.less(halves, plan.threshold, out=rejects).any(axis=1))
    for row in rejected.tolist():
        counter[2] = start + row
        bit_generator.state = state
        drawn = work.stream.integers(plan.low, plan.high)
        for (begin, end, _), phase in zip(plan.phases, positions):
            phase[row] = drawn[begin:end]
    return positions


def _fisher_yates(positions: np.ndarray, n_pop: int, work: _Workspace) -> np.ndarray:
    """Partial Fisher-Yates on every row of ``positions`` at once.

    ``positions``, C-ordered int64, has rows of ``k`` draws, ``positions[:, i]``
    in ``[i, n_pop)``, ``n_pop <= 2**32``; it is overwritten with the picked
    indices and returned.  Row by row the result is the sequential draw over
    ``0..n_pop-1``: step ``i`` picks the value at position ``j_i`` and moves the
    value at position ``i`` there.  So draw ``i`` picks ``j_i`` unless an
    earlier draw ``m`` named the same position; then it picks the value
    position ``m`` held at step ``m``: ``m`` unless an earlier draw moved a
    value there, and so on, a chain that ends at a draw whose own index is the
    value.  An in-place sort of each row's distinct keys ``(j_i << b) | i``,
    ``b`` the bits of ``k - 1``, finds both kinds of earlier draw, whatever the
    sort algorithm.  The keys are uint32 while ``n_pop << b <= 2**32``, which
    bounds them, and uint64 beyond.  ``flatnonzero`` over the flat keys finds
    those earlier draws, and only their few keys are unpacked, into flat
    indices ``row * k + i`` of draws and positions; rows without two equal
    positions need nothing more.
    """
    rows, k = positions.shape
    bits = (k - 1).bit_length()
    dtype = np.uint32 if n_pop << bits <= 2**32 else np.uint64
    packed, xor, mask = work.arrays(rows, (dtype, k), (dtype, k), (bool, k))
    np.copyto(packed, positions, casting="unsafe")
    np.left_shift(packed, bits, out=packed)
    np.bitwise_or(packed, work.draws[:k], out=packed)
    packed.sort(axis=1)
    keys, xor, mask = packed.reshape(-1), xor.reshape(-1)[:-1], mask.reshape(-1)
    # The first draw of each pair of equal positions, which are adjacent
    # and whose keys agree above the low b bits.  Without such a pair every
    # draw picks its position.
    np.less(np.bitwise_xor(keys[1:], keys[:-1], out=xor), 1 << bits, out=mask[:-1])
    mask[k - 1 :: k] = False  # a row's last key and the next row's first
    pairs = np.flatnonzero(mask)
    if not pairs.size:
        return positions
    # The draws into positions p < k, then both draws of each pair.
    moves = np.flatnonzero(np.less_equal(keys, (k << bits) - 1, out=mask))
    at = np.concatenate((moves, pairs, pairs + 1))
    found, offsets = keys[at], at - at % k
    flat = (found & (1 << bits) - 1).astype(np.intp) + offsets
    split = moves.size + pairs.size
    sources, source, readers = flat[: moves.size], flat[moves.size : split], flat[split:]
    targets = (found[: moves.size] >> bits).astype(np.intp) + offsets[: moves.size]
    # link[p] becomes the last draw that moved a value into p before step p,
    # whose value a chain reads there, or stays -1.  Of the draws into p only
    # draw p itself, which moves nothing, is not such a move.
    np.maximum.at(work.link, targets, np.where(sources < targets, sources, -1))
    # Of each pair the second draw reads what the first one's chain ends at.
    while True:
        linked = work.link[source]
        if linked.max(initial=-1) < 0:
            break
        source = np.where(linked < 0, source, linked)
    work.link[targets] = -1
    np.put(positions, readers, source % k)
    return positions


def _draw_block(plan: _Plan, start: int, stop: int, work: _Workspace) -> tuple[np.ndarray | None, np.ndarray]:
    """First- and second-phase indices of replications ``start..stop-1``,
    one row each; the first phase is None in single-phase designs."""
    positions = _draw_positions(plan, start, stop, work)
    picks = [_fisher_yates(phase, n_pop, work) for (_, _, n_pop), phase in zip(plan.phases, positions)]
    if plan.nprime is None:
        return None, picks[0]
    first, second = picks
    # second[r, i] = first[r, second[r, i]]
    (flat,) = work.arrays(stop - start, (np.intp, plan.n))
    np.add(second, np.arange(0, (stop - start) * plan.nprime, plan.nprime)[:, np.newaxis], out=flat)
    return first, np.take(first.reshape(-1), flat, out=second, mode="clip")


def _variance(block: np.ndarray) -> np.ndarray:
    """``np.var(block, axis=1, ddof=1)`` of a C-ordered block, bit for bit, by numpy's
    own steps, in place: the block is left holding its squared deviations."""
    mean = np.add.reduce(block, axis=1, keepdims=True)
    np.true_divide(mean, block.shape[1], out=mean)
    np.subtract(block, mean, out=block)
    np.square(block, out=block)
    variance = np.add.reduce(block, axis=1)
    return np.true_divide(variance, block.shape[1] - 1, out=variance)


def _simulate_block(plan: _Plan, start: int, stop: int, stats: np.ndarray, work: _Workspace) -> None:
    """Write the statistics of replications ``start..stop-1`` into the
    columns of ``stats``, one per replication: the sample variance of each
    of ``plan.variates`` in order, then under plug-in weights the second
    phase's :func:`fourth_moments`, three variances and six deltas.

    Each phase's variates are gathered into one stacked buffer, one row
    per variate and replication, and reduced by one :func:`_variance`
    call in place.  That call leaves the squared deviations in the
    buffer, and the moment table reads the second phase's from there:
    they are the squares :func:`fourth_moments` forms from the values.
    """
    first, second = _draw_block(plan, start, stop, work)
    row = 0
    for indices, variates in zip((first, second), plan.variates):
        if not variates:
            continue
        count, width = indices.shape
        (stacked,) = work.arrays(len(variates) * count, (np.float64, width))
        samples = stacked.reshape(len(variates), count, width)
        for name, sample in zip(variates, samples):
            np.take(getattr(plan, name), indices, out=sample, mode="clip")
        stats[row : row + len(variates)] = _variance(stacked).reshape(len(variates), count)
        if indices is second and plan.plug_in:
            stats[-9:-6], stats[-6:] = fourth_moments(*samples, squared=True)
        row += len(variates)


def _simulate_chunk(plan: _Plan, start: int, stop: int) -> tuple[np.ndarray, np.ndarray, str | None]:
    """Evaluate replications ``start..stop-1``; pure in (plan, range).

    The blocks write each replication's statistics, then one call of
    :func:`evaluate` gives every replication's values and failure flag.
    The third item is the message of the first failed replication's
    first failed check, or None.
    """
    count = stop - start
    stats = np.empty((plan.stat_rows, count))
    rows = min(_block_rows(plan), count)
    work = _chunk_workspace(plan, rows)
    for block_start in range(start, stop, rows):
        block_stop = min(block_start + rows, stop)
        _simulate_block(plan, block_start, block_stop, stats[:, block_start - start : block_stop - start], work)
    table = (stats[-9:-6], stats[-6:]) if plan.plug_in else None
    own, failed, first = evaluate(plan.kinds, plan.weights, dict(zip(plan.stat_names, stats)), (plan.aux_sx2, plan.aux_sz2), table)
    values = np.stack(own, axis=1)
    if first is None:
        return values, failed, None
    values[failed] = np.nan
    return values, failed, f"replication {start + int(np.argmax(failed))}: {first[1]}"


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
        If ``workers`` is not a positive integer, or the design does not
        fit the population: a census sample or first phase is refused
        before any moment table is computed.
    DegeneratePopulationError
        If any variate is constant in the population, or its y kurtosis
        is at the lower bound ``d400 = 1``, where the theory has no
        baseline, or a kind's first-order MSE is not positive, as for
        ``isaki-ratio`` when x is y; each before any replication runs.
    SimulationError
        If too many replications fail, or a kind's empirical MSE is zero
        because every kept replication gave it exactly ``S_y^2``.
    """
    workers = _integer(workers, "workers", 1)
    plan, sources = _Plan.for_run(pop, config)
    n_pop = pop.size
    sy2 = pop.sy2
    pop_deltas = delta_table(pop)
    # A plug-in row's theory columns are evaluated at the population
    # optimum, since per-sample weights have no single theoretical value.
    theory = theory_table(plan.kinds, pop_deltas, sy2, DesignSizes(config.n, config.nprime))
    if config.n / n_pop > 0.05:
        warnings.warn(
            f"sampling fraction n/N = {config.n / n_pop:.3f} exceeds 5%; the "
            "theory columns ignore the finite population correction and will "
            "overstate the MSE",
            stacklevel=2,
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

    emp_mean = kept.mean(axis=0)
    deviations = kept - sy2
    emp_mse = (deviations * deviations).mean(axis=0)
    if float(emp_mse.min()) <= 0.0:
        kind = theory[int(np.argmin(emp_mse))]["kind"]
        raise SimulationError(
            f"the empirical MSE of {kind!r} is zero: every kept replication gave it exactly "
            f"S_y^2, so the population admits no sampling variation at n={config.n}"
        )
    # The unbiased baseline is always the first kind.
    baseline_mse = float(emp_mse[0])

    summaries = [
        EstimatorSummary(
            kind=row["kind"],
            weight_mode=_WEIGHT_MODES.get(sources[i], sources[i]),
            weight=row["weight"],
            emp_mean=float(emp_mean[i]),
            emp_bias=float(emp_mean[i] - sy2),
            emp_mse=float(emp_mse[i]),
            emp_pre=pre(float(emp_mse[i]), baseline_mse),
            theory_bias=row["bias"],
            theory_mse=row["mse"],
            theory_pre=row["pre"],
            formula_id=row["formula_id"],
        )
        for i, row in enumerate(theory)
    ]

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
