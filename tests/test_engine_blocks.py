"""The block engine against the per-replication reference engine.

``varaux.montecarlo`` evaluates replications in blocks with numpy; the
loop it replaced is kept in ``reference_engine``.  Every per-replication
value, failure flag and first-failure message must agree bit for bit,
and the block draws, and the public draws that run the same code on
one row, must equal the reference's scalar Fisher-Yates rep by rep.
The block's Fisher-Yates positions, which apply numpy's bounded-integer
rule to raw Philox words, must equal numpy's own ``integers`` draws.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine
from varaux import (
    COMBINED,
    COMBINED_TWO_PHASE,
    EXP_PRODUCT,
    EXP_RATIO,
    EXP_RATIO_TWO_PHASE,
    SINGLE_PHASE_KINDS,
    TWO_PHASE_KINDS,
    UNBIASED,
    EstimatorKind,
    Family,
    InvalidDesignError,
    InvalidInputError,
    Population,
    PopulationSpec,
    SimulationConfig,
    SimulationError,
    alpha_opt,
    delta_table,
    draw_srswor,
    draw_two_phase,
    generate_population,
    run_simulation,
)
from varaux import montecarlo
from varaux.montecarlo import (
    CHUNK_SIZE,
    _block_rows,
    _draw_block,
    _draw_positions,
    _fisher_yates,
    _Plan,
    _chunk_workspace,
    _simulate_chunk,
    _variance,
    _Workspace,
)


@pytest.fixture(scope="module")
def pop():
    return generate_population(PopulationSpec(size=600, seed=12))


@pytest.fixture(scope="module")
def two_valued_x():
    # The population of test_failure_threshold_aborts: x takes two
    # values, so many small samples have zero x variance.
    rng = np.random.default_rng(9)
    x = np.ones(40)
    x[:2] = 2.0
    return Population(y=rng.lognormal(size=40), x=x, z=rng.lognormal(size=40))


def make_plan(pop, *, n, seed, kinds, weights, nprime=None):
    """A plan as run_simulation builds it; ``None`` weights are plug-in."""
    kinds = tuple(kinds)
    uses_x = any(kind.uses_x for kind in kinds)
    uses_z = any(kind.uses_z for kind in kinds)
    return _Plan(
        y=pop.y,
        x=pop.x,
        z=pop.z,
        n=n,
        nprime=nprime,
        seed=seed,
        kinds=kinds,
        weights=tuple(weights),
        aux_sx2=pop.sx2 if uses_x else None,
        aux_sz2=pop.sz2 if uses_z else None,
    )


def optimal_weights(pop, kinds):
    optimum = alpha_opt(delta_table(pop))
    return [optimum if kind.is_combined else None for kind in kinds]


def assert_same_as_reference(plan, start, stop):
    expected = reference_engine._simulate_chunk(plan, start, stop)
    values, failed, first_failure = _simulate_chunk(plan, start, stop)
    assert values.shape == expected[0].shape
    assert np.array_equal(values.view(np.uint64), expected[0].view(np.uint64))
    assert np.array_equal(failed, expected[1])
    assert first_failure == expected[2]
    return failed, first_failure


ALL_KINDS = SINGLE_PHASE_KINDS + TWO_PHASE_KINDS


class TestMatchesReferenceEngine:
    def test_single_phase_all_kinds(self, pop):
        plan = make_plan(
            pop, n=12, seed=5, kinds=SINGLE_PHASE_KINDS,
            weights=optimal_weights(pop, SINGLE_PHASE_KINDS),
        )
        failed, _ = assert_same_as_reference(plan, 0, 300)
        assert not failed.any()

    def test_two_phase_all_kinds(self, pop):
        plan = make_plan(
            pop, n=12, nprime=60, seed=2**64 - 1, kinds=ALL_KINDS,
            weights=optimal_weights(pop, ALL_KINDS),
        )
        assert_same_as_reference(plan, 0, 300)

    def test_plug_in_weights(self, pop):
        kinds = (UNBIASED, COMBINED, COMBINED_TWO_PHASE)
        plan = make_plan(pop, n=12, nprime=48, seed=8, kinds=kinds, weights=(None, None, None))
        assert_same_as_reference(plan, 0, 300)

    def test_fixed_weights(self, pop):
        kinds = (UNBIASED, EstimatorKind(Family.COMBINED, 0.3), EstimatorKind(Family.COMBINED_2P, 1.7))
        plan = make_plan(pop, n=12, nprime=48, seed=8, kinds=kinds, weights=(None, 0.3, 1.7))
        assert_same_as_reference(plan, 0, 300)

    def test_range_starting_mid_chunk_across_blocks(self, pop):
        plan = make_plan(
            pop, n=12, nprime=60, seed=77, kinds=ALL_KINDS,
            weights=optimal_weights(pop, ALL_KINDS),
        )
        rows = _block_rows(plan)
        start = CHUNK_SIZE + rows // 2 + 3
        assert_same_as_reference(plan, start, start + 3 * rows + 5)

    def test_degenerate_samples_name_the_same_first_failure(self, two_valued_x):
        plan = make_plan(two_valued_x, n=3, seed=0, kinds=(UNBIASED, EXP_RATIO), weights=(None, None))
        failed, first_failure = assert_same_as_reference(plan, 0, 500)
        assert failed.sum() > 1
        assert "sample variance of x is zero" in first_failure

    def test_degenerate_plug_in_table(self, two_valued_x):
        plan = make_plan(two_valued_x, n=3, seed=4, kinds=(UNBIASED, COMBINED), weights=(None, None))
        failed, first_failure = assert_same_as_reference(plan, 0, 500)
        assert failed.any()
        assert "sample variate 'x' has zero variance" in first_failure

    def test_degenerate_first_phase(self, two_valued_x):
        plan = make_plan(
            two_valued_x, n=2, nprime=3, seed=1, kinds=(UNBIASED, EXP_RATIO_TWO_PHASE),
            weights=(None, None),
        )
        failed, first_failure = assert_same_as_reference(plan, 0, 500)
        assert failed.any()
        assert "first-phase sample variance of x is zero" in first_failure

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_unbounded_plug_in_table_raises_like_reference(self):
        # Squared deviations near 1e200 overflow in the fourth moments.
        rng = np.random.default_rng(3)
        big = Population(
            y=1e100 * rng.lognormal(size=50), x=rng.lognormal(size=50), z=rng.lognormal(size=50)
        )
        plan = make_plan(big, n=10, seed=3, kinds=(UNBIASED, COMBINED), weights=(None, None))
        with pytest.raises(InvalidInputError) as expected:
            reference_engine._simulate_chunk(plan, 0, 20)
        with pytest.raises(InvalidInputError) as got:
            _simulate_chunk(plan, 0, 20)
        assert str(got.value) == str(expected.value)


def test_estimators_run_once_per_chunk(pop, monkeypatch):
    # Blocks of 7 rows, so that each chunk holds many blocks; evaluate
    # runs on one number per replication of the whole chunk.
    calls = []

    def counted(kinds, weights, sy2, *args):
        calls.append(len(sy2))
        return montecarlo_evaluate(kinds, weights, sy2, *args)

    montecarlo_evaluate = montecarlo.evaluate
    monkeypatch.setattr(montecarlo, "_block_rows", lambda plan: 7)
    monkeypatch.setattr(montecarlo, "evaluate", counted)
    config = SimulationConfig(n=5, nprime=20, reps=CHUNK_SIZE + 100, seed=3, estimators=ALL_KINDS)
    run_simulation(pop, config)
    assert calls == [CHUNK_SIZE, 100]


def test_first_failure_in_the_last_block(monkeypatch):
    # Units 0 and 1 share their x value, so at seed 5 only replication 594
    # of the first 1,000 draws a sample constant in x (see
    # test_failure_threshold_at_999_and_1000_reps).  In blocks of 8 from
    # 560 it lies in the chunk's last block, after clean ones.
    rng = np.random.default_rng(20)
    y, x, z = (rng.lognormal(size=45) for _ in range(3))
    x[1] = x[0]
    plan = make_plan(Population(y=y, x=x, z=z), n=2, seed=5, kinds=(UNBIASED, EXP_RATIO), weights=(None, None))
    monkeypatch.setattr(montecarlo, "_block_rows", lambda plan: 8)
    failed, first_failure = assert_same_as_reference(plan, 560, 600)
    assert np.flatnonzero(failed).tolist() == [594 - 560]
    assert first_failure.startswith("replication 594: ")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_unbounded_plug_in_table_after_degenerate_blocks(two_valued_x, monkeypatch):
    # y near 1e100 overflows every sample's fourth moments, and x is 1 but
    # on units 0 and 1, so a sample without them has zero x variance and
    # fails before its table is read.  The first sample holding one raises
    # DeltaTable's error, for the same replication as the reference: the
    # range that stops before it matches the reference, failures only.
    big = Population(y=1e100 * two_valued_x.y, x=two_valued_x.x, z=two_valued_x.z)
    plan = make_plan(big, n=3, seed=5, kinds=(UNBIASED, COMBINED), weights=(None, None))
    monkeypatch.setattr(montecarlo, "_block_rows", lambda plan: 4)
    raising = 13  # in the fourth block
    failed, _ = assert_same_as_reference(plan, 0, raising)
    assert failed.all()
    with pytest.raises(InvalidInputError) as expected:
        reference_engine._simulate_chunk(plan, 0, raising + 1)
    with pytest.raises(InvalidInputError) as got:
        _simulate_chunk(plan, 0, raising + 1)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("design", ["two-phase", "plug-in"])
def test_block_size_never_moves_a_bit(design, monkeypatch):
    # x is 1 but on three units, so samples without them fail, from the
    # first block on.  Blocks of 1, 5 and the default rows, the last
    # one ragged, must give the reference's bits: no state a block
    # leaves in the chunk's workspace may reach the next.
    rng = np.random.default_rng(31)
    if design == "two-phase":  # the width of perfbench's twophase-all
        size, n, nprime, kinds, count = 500, 100, 400, ALL_KINDS, 150
    else:
        size, n, nprime, kinds, count = 40, 20, None, (UNBIASED, COMBINED), 500
    x = np.ones(size)
    x[:3] = 2.0
    pop = Population(y=rng.lognormal(size=size), x=x, z=rng.lognormal(size=size))
    weights = optimal_weights(pop, kinds) if design == "two-phase" else (None, None)
    plan = make_plan(pop, n=n, nprime=nprime, seed=13, kinds=kinds, weights=weights)
    default = _block_rows(plan)
    assert count % default and count > default
    expected = reference_engine._simulate_chunk(plan, 7, 7 + count)
    assert expected[1][:default].any() and not expected[1].all()
    for rows in (1, 5, default):
        monkeypatch.setattr(montecarlo, "_block_rows", lambda plan, rows=rows: rows)
        values, failed, first_failure = _simulate_chunk(plan, 7, 7 + count)
        assert np.array_equal(values.view(np.uint64), expected[0].view(np.uint64)), rows
        assert np.array_equal(failed, expected[1]), rows
        assert first_failure == expected[2], rows


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 512),
    width=st.integers(2, 400),
    exponent=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_workspace_variance_is_numpys(rows, width, exponent, seed):
    block = 10.0**exponent * np.random.default_rng(seed).lognormal(size=(rows, width))
    want = np.var(block, axis=1, ddof=1).view(np.uint64)
    (deviations,) = _Workspace(rows, width, width).arrays(rows, (np.float64, width))
    assert np.array_equal(_variance(block, deviations).view(np.uint64), want)
    # In place, as the engine computes the first phase's variances.
    assert np.array_equal(_variance(block, block).view(np.uint64), want)


@st.composite
def kind_plans(draw):
    """Kinds, their weights (``None`` on a combined kind is plug-in) and sizes."""
    families = draw(st.lists(st.sampled_from(list(Family)), min_size=1, unique=True))
    kinds = tuple(EstimatorKind(family) for family in families)
    weights = tuple(
        draw(st.one_of(st.none(), st.floats(-1.0, 2.0))) if kind.is_combined else None
        for kind in kinds
    )
    n = draw(st.integers(2, 15))
    two_phase = any(kind.is_two_phase for kind in kinds) or draw(st.booleans())
    nprime = draw(st.integers(n + 1, 80)) if two_phase else None
    return kinds, weights, n, nprime


@settings(max_examples=30, deadline=None)
@given(
    kind_plan=kind_plans(),
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**64 - 40),
    count=st.integers(1, 40),
)
def test_random_kind_subsets_match_reference(pop, kind_plan, seed, start, count):
    kinds, weights, n, nprime = kind_plan
    plan = make_plan(pop, n=n, nprime=nprime, seed=seed, kinds=kinds, weights=weights)
    assert_same_as_reference(plan, start, start + count)


def test_failure_threshold_at_999_and_1000_reps():
    # Units 0 and 1 share their x value, so a sample of two is constant
    # in x with probability 1/990.  At seed 5 exactly one of the first
    # 1,000 replications draws them: 1 failure is above 0.1 % of 999
    # replications, and not above 0.1 % of 1,000.
    rng = np.random.default_rng(20)
    y, x, z = (rng.lognormal(size=45) for _ in range(3))
    x[1] = x[0]
    pop = Population(y=y, x=x, z=z)
    plan = make_plan(pop, n=2, seed=5, kinds=(UNBIASED, EXP_RATIO), weights=(None, None))
    failed, _ = assert_same_as_reference(plan, 0, 1000)
    assert np.flatnonzero(failed).tolist() == [594]
    with pytest.raises(SimulationError, match="^1 of 999 replications failed .* replication 594:"):
        run_simulation(pop, SimulationConfig(n=2, reps=999, seed=5, estimators=(EXP_RATIO,)))
    report = run_simulation(pop, SimulationConfig(n=2, reps=1000, seed=5, estimators=(EXP_RATIO,)))
    assert (report.failed_reps, report.reps_used) == (1, 999)


@pytest.mark.parametrize("seed", range(2**64 - 8, 2**64))
def test_seeds_at_the_top_of_the_key_range(pop, seed, monkeypatch):
    chunks = []
    simulate_chunk = montecarlo._simulate_chunk

    def recording(plan, start, stop):
        result = simulate_chunk(plan, start, stop)
        chunks.append((plan, start, stop, result))
        return result

    monkeypatch.setattr(montecarlo, "_simulate_chunk", recording)
    config = SimulationConfig(
        n=3, nprime=6, reps=CHUNK_SIZE + 52, seed=seed,
        estimators=(EXP_PRODUCT, COMBINED_TWO_PHASE),
    )
    report = run_simulation(pop, config, workers=1)
    assert run_simulation(pop, config, workers=2).to_json() == report.to_json()
    plan, start, stop, (values, failed, first_failure) = chunks[0]
    assert (start, stop) == (0, CHUNK_SIZE)
    expected = reference_engine._simulate_chunk(plan, start, stop)
    assert np.array_equal(values.view(np.uint64), expected[0].view(np.uint64))
    assert np.array_equal(failed, expected[1])
    assert first_failure == expected[2]


def bare_plan(n_pop, n, nprime, seed):
    # Zero-stride variates: a plan over 2**32 units costs no memory.
    zeros = np.broadcast_to(0.0, (n_pop,))
    return _Plan(
        y=zeros, x=zeros, z=zeros, n=n, nprime=nprime, seed=seed,
        kinds=(UNBIASED,), weights=(None,), aux_sx2=None, aux_sz2=None,
    )


@st.composite
def designs(draw, populations, census=False):
    """``(N, n, n')``; n' = N only with ``census``, which the engine refuses."""
    n_pop = draw(populations)
    top = n_pop if census else n_pop - 1
    if top >= 3 and draw(st.booleans()):
        nprime = draw(st.integers(3, min(top, 600)))
        n = draw(st.integers(2, nprime - 1))
    else:
        nprime = None
        n = draw(st.integers(1, min(n_pop, 600)))
    return n_pop, n, nprime


@settings(max_examples=150, deadline=None)
@given(
    # Small populations, large ones, and the largest the engine admits,
    # whose positions fill the 32 high bits of the packed sort keys.
    design=designs(
        st.one_of(st.integers(1, 2000), st.integers(65_000, 200_000), st.integers(2**31, 2**32)),
        census=True,
    ),
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**64 - 8),
    count=st.integers(1, 7),
)
def test_block_draws_equal_scalar_draws(design, seed, start, count):
    n_pop, n, nprime = design
    # The public draws take a census first phase; the engine refuses it.
    census = nprime == n_pop
    if not census:
        plan = bare_plan(n_pop, n, nprime, seed)
        first, second = _draw_block(plan, start, start + count, _chunk_workspace(plan, count))
        assert second.flags.c_contiguous
    for row, rep in enumerate(range(start, start + count)):
        reference, public = (
            np.random.Generator(np.random.Philox(key=seed).jumped(rep)) for _ in range(2)
        )
        if nprime is None:
            want = reference_engine._srswor(reference, n_pop, n)
            assert first is None
            assert np.array_equal(draw_srswor(public, n_pop, n), want)
        else:
            want_first = reference_engine._srswor(reference, n_pop, nprime)
            want = want_first[reference_engine._srswor(reference, nprime, n)]
            assert census or np.array_equal(first[row], want_first)
            draw_first, draw_second = draw_two_phase(public, n_pop, nprime, n)
            assert np.array_equal(draw_first, want_first)
            assert np.array_equal(draw_second, want)
        assert census or np.array_equal(second[row], want)


def numpy_positions(seed, rep, n_pop, n, nprime):
    """Replication ``rep``'s Fisher-Yates positions as ``integers`` draws them."""
    if nprime is None:
        low, high = np.arange(n), n_pop
    else:
        low = np.concatenate((np.arange(nprime), np.arange(n)))
        high = np.concatenate((np.full(nprime, n_pop), np.full(n, nprime)))
    return np.random.Generator(np.random.Philox(key=seed).jumped(rep)).integers(low, high)


def assert_positions_are_numpys(n_pop, n, nprime, seed, start, count):
    plan = bare_plan(n_pop, n, nprime, seed)
    phases = _draw_positions(plan, start, start + count, _chunk_workspace(plan, count))
    assert all(phase.dtype == np.int64 and phase.flags.c_contiguous for phase in phases)
    positions = np.hstack(phases)
    assert positions.shape == (count, n + (nprime or 0))
    for row, rep in enumerate(range(start, start + count)):
        assert np.array_equal(positions[row], numpy_positions(seed, rep, n_pop, n, nprime))


@settings(max_examples=200, deadline=None)
@given(
    # Up to 2**32 units: numpy rejects up to half of the draws near 2**31
    # and none at 2**32, whose range takes a half-word as it is.
    design=designs(st.one_of(st.integers(1, 700), st.integers(700, 2**32))),
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**64 - 8),
    count=st.integers(1, 7),
)
def test_block_positions_equal_numpy_integers(design, seed, start, count):
    n_pop, n, nprime = design
    assert_positions_are_numpys(n_pop, n, nprime, seed, start, count)


@pytest.mark.parametrize("n, nprime", [(20, None), (30, 200)])
def test_positions_when_most_rows_reject(n, nprime):
    # (2**32 - N) % N = 2**30 for N = 3 * 2**30, so numpy rejects a
    # quarter of the draws and nearly every row is drawn again.
    assert_positions_are_numpys(3 * 2**30, n, nprime, seed=2**64 - 1, start=2**64 - 41, count=40)


@pytest.mark.parametrize("n_pop, n, nprime", [(50, 50, None), (1, 1, None)])
def test_one_value_range_consumes_no_word(n_pop, n, nprime):
    # The last range of n = N holds one value, which numpy returns without
    # reading the stream.
    assert_positions_are_numpys(n_pop, n, nprime, seed=11, start=2**40, count=30)


@pytest.mark.parametrize("n_pop, n, nprime", [(50, 10, 50), (3, 2, 3), (50, 10, 51)])
def test_census_first_phase_is_refused(n_pop, n, nprime):
    with pytest.raises(InvalidDesignError, match=f"nprime={nprime} must be smaller than the population size {n_pop}; a census"):
        bare_plan(n_pop, n, nprime, 0)


def test_population_beyond_32_bit_draws_is_rejected():
    with pytest.raises(InvalidInputError, match="exceeds 2\\*\\*32"):
        bare_plan(2**32 + 1, 2, None, 0)


# Positions whose 64-bit keys alias at N = 2**62, where Fisher-Yates once
# gave [2**61+2, 1, 0, ...] and [2, 0, 1, ...] for the sequential draws
# [2**61+2, 1, 2, ...] and [2, 2**61+2, 0, ...].
CRAFTED = [[2**61 + 2, 1, 2, 3, 4, 5, 6, 7], [2, 2**61 + 2, 2, 3, 4, 5, 6, 7]]


@pytest.mark.parametrize(
    "draw",
    [
        *(lambda rng, p=p: draw_srswor(FixedPositions(np.array(p)), 2**62, 8) for p in CRAFTED),
        lambda rng: draw_srswor(rng, 2**64, 2),
        lambda rng: draw_srswor(rng, 2**32 + 1, 2),
        lambda rng: draw_two_phase(rng, True, 3, 2),
        lambda rng: draw_two_phase(rng, "3", 3, 2),
        lambda rng: draw_two_phase(rng, 2**33, 3, 2),
    ],
    ids=["crafted-a", "crafted-b", "srswor-2**64", "srswor-2**32+1", "two-phase-True", "two-phase-str", "two-phase-2**33"],
)
def test_public_draws_refuse_sizes_beyond_the_key_bound(draw):
    with pytest.raises(InvalidInputError, match="population size"):
        draw(np.random.default_rng(0))


@pytest.fixture
def key_widths(monkeypatch):
    """Bits of the Fisher-Yates keys of every call from now on, read off its
    ``arrays`` request: keys and scratch of one dtype, then a bool mask."""
    widths = []
    arrays = _Workspace.arrays

    def recording(self, rows, *specs):
        if len(specs) == 3 and specs[0] == specs[1] and specs[2][0] is bool:
            widths.append(8 * np.dtype(specs[0][0]).itemsize)
        return arrays(self, rows, *specs)

    monkeypatch.setattr(_Workspace, "arrays", recording)
    return widths


# Keys ``(position << b) | draw``, b the bits of k - 1, fill 32 bits at
# n_pop << b = 2**32, the last size with 32-bit keys.
KEY_WIDTHS = [(2**31, 2, 32), (2**31 + 1, 2, 64), (2**23, 400, 32), (2**23 + 1, 400, 64)]


@pytest.mark.parametrize("n_pop, k, key_bits", KEY_WIDTHS)
def test_key_widths_at_their_boundary(n_pop, k, key_bits, key_widths):
    seed, start, count = 2**63 + 5, 2**40, 6
    plan = bare_plan(n_pop, k, None, seed)
    _, picks = _draw_block(plan, start, start + count, _chunk_workspace(plan, count))
    for row, rep in enumerate(range(start, start + count)):
        reference, public = (
            np.random.Generator(np.random.Philox(key=seed).jumped(rep)) for _ in range(2)
        )
        want = reference_engine._srswor(reference, n_pop, k)
        assert np.array_equal(picks[row], want)
        assert np.array_equal(draw_srswor(public, n_pop, k), want)
    assert set(key_widths) == {key_bits}


class FixedPositions:
    """A stand-in stream whose ``integers`` returns fixed positions."""

    def __init__(self, positions):
        self.positions = positions

    def integers(self, low, high):
        assert np.all(low <= self.positions) and np.all(self.positions < high)
        return self.positions.copy()


@pytest.mark.parametrize("n_pop, k, key_bits", KEY_WIDTHS)
def test_top_positions_resolve_in_either_key_width(n_pop, k, key_bits, key_widths):
    # Every draw names one of the last two positions, so the keys are the
    # largest of their width and nearly every draw reads a chain.
    positions = n_pop - 1 - np.arange(k) % 2
    want = reference_engine._srswor(FixedPositions(positions), n_pop, k)
    got = _fisher_yates(positions[np.newaxis].copy(), n_pop, _Workspace(1, k, k))
    assert np.array_equal(got[0], want)
    assert key_widths == [key_bits]


def test_chunk_substream_state_reused_across_blocks(monkeypatch):
    # (2**32 - N) % N = 2**30 for N = 3 * 2**30, so nearly every row is
    # drawn again with ``integers``, which moves the chunk's bit generator.
    # Blocks of 5 rows reuse the chunk's state dict; none may carry what a
    # redraw left in the bit generator into the next row or block.  The
    # blocks only draw: the variates of a plan this size are not gathered,
    # and the statistics they leave unwritten are not read here.
    n_pop, n, nprime, seed, start, count = 3 * 2**30, 20, 60, 2**64 - 3, 2**50 + 3, 17
    drawn = []

    def draw_only(plan, start, stop, stats, work):
        assert stats.shape[1] == stop - start
        drawn.append(np.hstack(_draw_positions(plan, start, stop, work)))

    monkeypatch.setattr(montecarlo, "_block_rows", lambda plan: 5)
    monkeypatch.setattr(montecarlo, "_simulate_block", draw_only)
    _simulate_chunk(bare_plan(n_pop, n, nprime, seed), start, start + count)
    assert len(drawn) == 4
    positions = np.vstack(drawn)
    for row, rep in enumerate(range(start, start + count)):
        assert np.array_equal(positions[row], numpy_positions(seed, rep, n_pop, n, nprime))
