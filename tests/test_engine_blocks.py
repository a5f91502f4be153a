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
    EXP_RATIO,
    EXP_RATIO_TWO_PHASE,
    SINGLE_PHASE_KINDS,
    TWO_PHASE_KINDS,
    UNBIASED,
    EstimatorKind,
    InvalidInputError,
    Population,
    PopulationSpec,
    alpha_opt,
    delta_table,
    draw_srswor,
    draw_two_phase,
    generate_population,
)
from varaux.montecarlo import (
    CHUNK_SIZE,
    _block_rows,
    _draw_block,
    _draw_positions,
    _Plan,
    _simulate_chunk,
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
    plug_in = any(kind.is_combined and w is None for kind, w in zip(kinds, weights))
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
        need_x_second=uses_x or plug_in,
        need_z_second=uses_z or plug_in,
        need_x_first=any(kind.is_two_phase and kind.uses_x for kind in kinds),
        need_z_first=any(kind.is_two_phase and kind.uses_z for kind in kinds),
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
        kinds = (UNBIASED, EstimatorKind.combined(0.3), EstimatorKind.combined_two_phase(1.7))
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


def bare_plan(n_pop, n, nprime, seed):
    # Zero-stride variates: a plan over 2**32 units costs no memory.
    zeros = np.broadcast_to(0.0, (n_pop,))
    return _Plan(
        y=zeros, x=zeros, z=zeros, n=n, nprime=nprime, seed=seed,
        kinds=(UNBIASED,), weights=(None,), aux_sx2=None, aux_sz2=None,
        need_x_second=False, need_z_second=False, need_x_first=False, need_z_first=False,
    )


@st.composite
def designs(draw, populations):
    n_pop = draw(populations)
    if n_pop >= 3 and draw(st.booleans()):
        nprime = draw(st.integers(3, min(n_pop, 600)))
        n = draw(st.integers(2, nprime - 1))
    else:
        nprime = None
        n = draw(st.integers(1, min(n_pop, 600)))
    return n_pop, n, nprime


@settings(max_examples=150, deadline=None)
@given(
    # Small populations, and large ones whose positions take more than
    # one 16-bit digit.
    design=designs(st.one_of(st.integers(1, 2000), st.integers(65_000, 200_000))),
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**64 - 8),
    count=st.integers(1, 7),
)
def test_block_draws_equal_scalar_draws(design, seed, start, count):
    n_pop, n, nprime = design
    first, second = _draw_block(bare_plan(n_pop, n, nprime, seed), start, start + count)
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
            assert np.array_equal(first[row], want_first)
            draw = draw_two_phase(public, n_pop, nprime, n)
            assert np.array_equal(draw.first_phase, want_first)
            assert np.array_equal(draw.second_phase, want)
        assert np.array_equal(second[row], want)


def numpy_positions(seed, rep, n_pop, n, nprime):
    """Replication ``rep``'s Fisher-Yates positions as ``integers`` draws them."""
    if nprime is None:
        low, high = np.arange(n), n_pop
    else:
        low = np.concatenate((np.arange(nprime), np.arange(n)))
        high = np.concatenate((np.full(nprime, n_pop), np.full(n, nprime)))
    return np.random.Generator(np.random.Philox(key=seed).jumped(rep)).integers(low, high)


def assert_positions_are_numpys(n_pop, n, nprime, seed, start, count):
    positions = _draw_positions(bare_plan(n_pop, n, nprime, seed), start, start + count)
    assert positions.dtype == np.int64
    assert positions.flags.c_contiguous
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


@pytest.mark.parametrize(
    "n_pop, n, nprime", [(50, 10, 50), (3, 2, 3), (50, 50, None), (1, 1, None)]
)
def test_one_value_range_consumes_no_word(n_pop, n, nprime):
    # The last first-phase range of n' = N (or of n = N) holds one value,
    # which numpy returns without reading the stream.
    assert_positions_are_numpys(n_pop, n, nprime, seed=11, start=2**40, count=30)


def test_population_beyond_32_bit_draws_is_rejected():
    with pytest.raises(InvalidInputError, match="exceeds 2\\*\\*32"):
        bare_plan(2**32 + 1, 2, None, 0)
