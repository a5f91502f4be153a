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
run once per block.  Every row still has its own substream and its own
draw, and every reduction runs along a row, so each replication's
values are bit for bit those of evaluating it alone.

The Fisher-Yates positions are numpy's ``Generator.integers`` draws.
Per replication the engine only reads raw Philox words; it then applies
numpy's bounded-integer rule for 32-bit ranges (Lemire's
multiply-and-reject) to the whole block at once.  The rare row in which
that rule rejects a word is drawn again with ``integers`` itself, so no
row depends on a copy of numpy's rejection loop.

Failed replications (a sample with zero auxiliary variance, or a
plug-in weight with no unique optimum) are counted, and their draws are
dropped for every estimator alike to preserve pairing.  More than 0.1
percent failures aborts the run: at that point the population is
unsuited to the estimators and aggregate numbers would mislead.
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
    DIVISOR_CHECKS,
    FLAT_OBJECTIVE,
    UNBIASED,
    EstimatorKind,
    Family,
    TwoPhaseDraw,
    alpha_opt,
    alpha_terms,
    value_kernel,
)
from .moments import DeltaTable, Population, delta_table, format_csv, fourth_moments
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
                raise InvalidDesignError(
                    f"first-phase size nprime={self.nprime} must exceed n={self.n}"
                )
        else:
            for kind in kinds:
                if kind.is_two_phase:
                    raise InvalidDesignError(
                        f"estimator {kind.label!r} needs a first-phase size; pass nprime"
                    )
        if not isinstance(self.weight_policy, WeightPolicy):
            raise InvalidInputError(
                f"weight_policy must be a WeightPolicy, got {self.weight_policy!r}"
            )


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
    return _fisher_yates(positions[np.newaxis])[0]


def draw_two_phase(
    stream: np.random.Generator, n_pop: int, nprime: int, n: int
) -> TwoPhaseDraw:
    """Draw a nested two-phase sample: SRSWOR of ``nprime`` from the
    population, then SRSWOR of ``n`` from that first-phase sample.
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
    return TwoPhaseDraw(first_phase=first, second_phase=second)


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

    def __post_init__(self) -> None:
        n_pop = self.y.size
        if self.nprime is None:
            low, high = np.arange(self.n), np.full(self.n, n_pop)
        else:
            low = np.concatenate((np.arange(self.nprime), np.arange(self.n)))
            high = np.concatenate((np.full(self.nprime, n_pop), np.full(self.n, self.nprime)))
        span = (high - low).astype(np.uint64)
        if span.max() > 2**32:
            raise InvalidInputError(
                f"population size {n_pop} exceeds 2**32, the range of the engine's 32-bit draws"
            )
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
        }
        for name, value in constants.items():
            object.__setattr__(self, name, value)


#: Bytes of drawn positions per block of replications.  Rows per block
#: follow from the draw width ``n' + n``, so that the block's temporaries
#: stay near a fixed size whatever the design.  Memory, not speed, sets
#: this figure: about ten times it is live during a block, and at twice
#: it glibc's malloc returned the block's memory to the system and
#: faulted it back on every block (6,000 page faults per 2,048 two-phase
#: replications instead of 100).
_BLOCK_BYTES = 64 * 1024


def _block_rows(plan: _Plan) -> int:
    width = plan.n + (plan.nprime or 0)
    return max(1, min(CHUNK_SIZE, _BLOCK_BYTES // (8 * width)))


def _draw_positions(plan: _Plan, start: int, stop: int) -> np.ndarray:
    """Fisher-Yates positions of replications ``start..stop-1``, one row each.

    Row ``i`` holds the positions :func:`draw_two_phase` (or
    :func:`draw_srswor`) draws from replication ``start + i``'s
    substream with ``integers(low, high)``: the first phase's followed
    by the second phase's.  The substream is ``Philox(key=seed)`` jumped
    by the replication index, i.e. the Philox counter ``(0, 0, rep, 0)``;
    one bit generator is reset to it per replication, and the only work
    per row is that reset and reading the row's raw 64-bit words.

    The rest runs once per block and is numpy's own rule for 32-bit
    bounded integers (Lemire's multiply-and-reject): each word feeds two
    draws, low half first; a draw of ``u`` over ``span`` values is
    ``low + (u * span >> 32)`` unless the low 32 bits of ``u * span``
    fall below ``(2**32 - span) % span``, in which case numpy rejects
    ``u`` and reads the next half-word, shifting every later draw of the
    row.  Rejections are rare (under 1 in 1,000 draws while ``span`` is
    below about 4 million), so a row with one is redrawn from its reset
    state with ``integers`` itself rather than resolved here: every row
    is numpy's draw by construction.
    """
    bit_generator = np.random.Philox(key=plan.seed)
    state = bit_generator.state
    counter = state["state"]["counter"]
    # The result is allocated before the temporaries: allocated after
    # them, it left their freed memory at the heap top, which glibc then
    # returned and faulted back on every block (550 minor page faults
    # per plugin-small-n job instead of about 5).
    product = np.empty((stop - start, plan.span.size), dtype=np.uint64)
    raw = np.empty((stop - start, plan.words), dtype=np.uint64)
    for row, rep in enumerate(range(start, stop)):
        counter[2] = rep
        bit_generator.state = state
        raw[row] = bit_generator.random_raw(plan.words)
    # Little-endian words, so that each word's low half comes first
    # whatever the host's byte order.
    halves = np.take(raw.astype("<u8", copy=False).view("<u4"), plan.column, axis=1)
    np.multiply(halves, plan.span, out=product)
    np.copyto(halves, product, casting="unsafe")  # the low 32 bits
    rejected = np.flatnonzero(np.less(halves, plan.threshold).any(axis=1))
    positions = np.right_shift(product, 32, out=product).view(np.int64)
    positions += plan.low
    stream = np.random.Generator(bit_generator)
    for row in rejected.tolist():
        counter[2] = start + row
        bit_generator.state = state
        positions[row] = stream.integers(plan.low, plan.high)
    return positions


def _position_order(positions: np.ndarray) -> np.ndarray:
    """Per row, the draw indices ordered by position, ties in draw order.

    A least-significant-digit radix sort over 16-bit digits, each pass a
    stable ``argsort`` of ``uint16`` keys (numpy's radix sort).  One pass
    covers populations up to 65,536 units.  A comparison sort of packed
    (position, draw) keys is slightly faster but maps about 0.3 MB more
    of numpy's code into the process, a visible share of its peak memory.
    """
    order = None
    rest = positions
    while True:
        digits = (rest % 65536).astype(np.uint16)
        if order is not None:
            digits = np.take_along_axis(digits, order, axis=1)
        step = np.argsort(digits, axis=1, kind="stable")
        order = step if order is None else np.take_along_axis(order, step, axis=1)
        if not (rest >= 65536).any():
            return order
        rest = rest // 65536


def _fisher_yates(positions: np.ndarray) -> np.ndarray:
    """Partial Fisher-Yates on every row of ``positions`` at once.

    ``positions[:, i]`` lies in ``[i, N)``.  Row by row the result, a
    C-ordered ``(rows, k)`` array of picked indices, is that of the
    sequential draw over the values ``0..N-1``: step ``i`` picks the
    value at position ``j_i`` and moves the value at position ``i``
    there.  So draw ``i`` picks ``j_i`` itself unless an earlier draw
    ``m`` named the same position; then it picks what step ``m`` moved
    there, the value position ``m`` held at that step.  That is ``m``
    unless an earlier draw moved a value into position ``m``, and so on:
    the chain of moves ends at a draw whose own index is the value.
    Ordering each row's draws by position finds both kinds of earlier
    draw; collisions are rare, so only the chains loop.  (Indexing is
    two-dimensional throughout: it needs no integer arithmetic, whose
    numpy loops would add to the process's mapped code.)
    """
    rows, k = positions.shape
    draw = _position_order(positions)
    pos = np.take_along_axis(positions, draw, axis=1)
    # Equal positions are adjacent: earlier[r, t] marks the first and
    # later[r, t + 1] the second of each such pair in row r.
    earlier = np.zeros((rows, k), dtype=bool)
    np.equal(pos[:, 1:], pos[:, :-1], out=earlier[:, :-1])
    later = np.zeros((rows, k), dtype=bool)
    later[:, 1:] = earlier[:, :-1]
    # The last draw of each position p < k that moves a value into p
    # before step p, where p is read as the source of the move.  Only
    # the last is kept: numpy leaves unspecified which of several
    # assignments to one index wins.
    moves = (pos < k) & (draw < pos)
    moves[:, :-1] &= ~(earlier[:, :-1] & moves[:, 1:])
    # link[r, m]: the draw whose move set position m's value at step m,
    # or m itself.
    link = np.repeat(np.arange(k)[np.newaxis], rows, axis=0)
    row, at = np.nonzero(moves)
    link[row, pos[row, at]] = draw[row, at]
    row, at = np.nonzero(earlier)
    source = draw[row, at]
    readers = draw[row, np.nonzero(later)[1]]
    while True:
        linked = link[row, source]
        if np.array_equal(linked, source):
            break
        source = linked
    picked = positions.copy()
    picked[row, readers] = source
    return picked


def _draw_block(plan: _Plan, start: int, stop: int) -> tuple[np.ndarray | None, np.ndarray]:
    """First- and second-phase indices of replications ``start..stop-1``,
    one row each; the first phase is None in single-phase designs."""
    positions = _draw_positions(plan, start, stop)
    if plan.nprime is None:
        return None, _fisher_yates(positions)
    first = _fisher_yates(positions[:, : plan.nprime])
    return first, np.take_along_axis(first, _fisher_yates(positions[:, plan.nprime :]), axis=1)


def _variance(block: np.ndarray) -> np.ndarray:
    # Row-wise along the contiguous axis: bit-identical to np.var of each
    # row alone.  A block in another memory order is summed differently.
    return np.var(block, axis=1, ddof=1)


def _simulate_block(plan: _Plan, start: int, stop: int, values: np.ndarray, failed: np.ndarray) -> str | None:
    """Fill ``values``/``failed`` for replications ``start..stop-1``.

    Returns the message of the first failed replication, or None.  A
    replication fails at the first check it does not pass, in the order
    the scalar path checks them: the plug-in moment table, then each
    kind's divisors in kind order.
    """
    first, second = _draw_block(plan, start, stop)
    ys = plan.y[second]
    sy2 = _variance(ys)
    xs = zs = None
    variances = dict.fromkeys(("sx2", "sz2", "sx2_first", "sz2_first"))
    if plan.need_x_second:
        xs = plan.x[second]
        variances["sx2"] = _variance(xs)
    if plan.need_z_second:
        zs = plan.z[second]
        variances["sz2"] = _variance(zs)
    if plan.need_x_first:
        variances["sx2_first"] = _variance(plan.x[first])
    if plan.need_z_first:
        variances["sz2_first"] = _variance(plan.z[first])

    # (mask, message) per check, in the scalar path's order.  Variances
    # are never negative, so ``== 0.0`` is its ``<= 0.0`` test.
    checks: list[tuple[np.ndarray, str]] = []
    plug_weight = None
    if any(kind.is_combined and weight is None for kind, weight in zip(plan.kinds, plan.weights)):
        moment_variances, deltas = fourth_moments(ys, xs, zs)
        for name, variance in zip("yxz", moment_variances):
            checks.append(
                (variance == 0.0, f"sample variate {name!r} has zero variance; cannot estimate moments")
            )
        degenerate = np.logical_or.reduce([mask for mask, _ in checks])
        unbounded = ~degenerate & ~np.isfinite(deltas).all(axis=0)
        if unbounded.any():
            # Raises the InvalidInputError of the scalar path.
            DeltaTable(*(d[np.flatnonzero(unbounded)[0]] for d in deltas))
        numerator, denominator = alpha_terms(*deltas)
        checks.append((denominator == 0.0, FLAT_OBJECTIVE))
        with np.errstate(all="ignore"):
            plug_weight = numerator / denominator

    with np.errstate(all="ignore"):
        for idx, (kind, weight) in enumerate(zip(plan.kinds, plan.weights)):
            for name, message in DIVISOR_CHECKS[kind.family]:
                checks.append((variances[name] == 0.0, message))
            if kind.is_two_phase:
                ref_x, ref_z = variances["sx2_first"], variances["sz2_first"]
            else:
                ref_x, ref_z = plan.aux_sx2, plan.aux_sz2
            values[:, idx] = value_kernel(
                kind.family,
                sy2,
                variances["sx2"],
                variances["sz2"],
                ref_x,
                ref_z,
                weight if weight is not None else plug_weight,
            )

    if not checks:
        return None
    failed[:] = np.logical_or.reduce([mask for mask, _ in checks])
    if not failed.any():
        return None
    values[failed] = np.nan
    row = int(np.flatnonzero(failed)[0])
    message = next(message for mask, message in checks if mask[row])
    return f"replication {start + row}: {message}"


def _simulate_chunk(plan: _Plan, start: int, stop: int) -> tuple[np.ndarray, np.ndarray, str | None]:
    """Evaluate replications ``start..stop-1``; pure in (plan, range)."""
    count = stop - start
    values = np.full((count, len(plan.kinds)), np.nan)
    failed = np.zeros(count, dtype=bool)
    first_failure: str | None = None
    rows = _block_rows(plan)
    for block_start in range(start, stop, rows):
        block_stop = min(block_start + rows, stop)
        block = slice(block_start - start, block_stop - start)
        message = _simulate_block(plan, block_start, block_stop, values[block], failed[block])
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
        If a variate an estimator relies on is constant in the population.
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
        raise InvalidDesignError(
            f"first-phase size nprime={config.nprime} exceeds the population size {n_pop}"
        )
    kinds = tuple(dict.fromkeys((UNBIASED,) + config.estimators))
    sy2 = pop.sy2
    if sy2 <= 0.0:
        raise DegeneratePopulationError("variate 'y' has zero variance; nothing to estimate")
    uses_x = any(kind.uses_x for kind in kinds)
    uses_z = any(kind.uses_z for kind in kinds)
    if uses_x and pop.sx2 <= 0.0:
        raise DegeneratePopulationError("variate 'x' has zero variance but an estimator uses it")
    if uses_z and pop.sz2 <= 0.0:
        raise DegeneratePopulationError("variate 'z' has zero variance but an estimator uses it")
    if config.n / n_pop > 0.05:
        warnings.warn(
            f"sampling fraction n/N = {config.n / n_pop:.3f} exceeds 5%; the "
            "theory columns ignore the finite population correction and will "
            "overstate the MSE",
            stacklevel=2,
        )

    pop_deltas = delta_table(pop)
    sizes = DesignSizes(config.n, config.nprime)

    # Resolve weights once.  A None slot survives only under PLUG_IN,
    # where it means "re-estimate from every sample"; theory columns
    # for those rows are evaluated at the population optimum instead,
    # since per-sample weights have no single theoretical value.
    weights: list[float | None] = []
    modes: list[str] = []
    theory_weights: list[float | None] = []
    for kind in kinds:
        if not kind.is_combined:
            weights.append(None)
            modes.append("none")
            theory_weights.append(None)
        elif kind.weight is not None:
            weights.append(kind.weight)
            modes.append("fixed")
            theory_weights.append(kind.weight)
        elif config.weight_policy is WeightPolicy.FIXED:
            raise InvalidInputError(
                f"weight policy 'fixed' requires an explicit weight on {kind.label!r}"
            )
        else:
            optimum = alpha_opt(pop_deltas)
            if config.weight_policy is WeightPolicy.POPULATION_OPTIMAL:
                weights.append(optimum)
                modes.append("population-optimal")
            else:
                weights.append(None)
                modes.append("plug-in")
            theory_weights.append(optimum)

    plan = _Plan(
        y=pop.y,
        x=pop.x,
        z=pop.z,
        n=config.n,
        nprime=config.nprime,
        seed=config.seed,
        kinds=kinds,
        weights=tuple(weights),
        aux_sx2=pop.sx2 if uses_x else None,
        aux_sz2=pop.sz2 if uses_z else None,
    )

    starts = range(0, config.reps, CHUNK_SIZE)
    stops = [min(start + CHUNK_SIZE, config.reps) for start in starts]
    if workers == 1 or len(starts) == 1:
        results = [_simulate_chunk(plan, start, stop) for start, stop in zip(starts, stops)]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(plan,)
        ) as executor:
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
