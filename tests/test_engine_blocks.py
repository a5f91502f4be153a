"""The block engine against the per-replication reference engine.

``varaux.montecarlo`` evaluates replications in blocks with numpy; the
loop it replaced is kept in ``reference_engine``.  Every per-replication
value, failure flag and first-failure message must agree bit for bit,
and the block draws must equal the public scalar draws rep by rep.
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
from varaux.montecarlo import CHUNK_SIZE, _block_rows, _draw_block, _Plan, _simulate_chunk


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
    return _Plan(
        y=np.zeros(n_pop), x=np.zeros(n_pop), z=np.zeros(n_pop), n=n, nprime=nprime, seed=seed,
        kinds=(UNBIASED,), weights=(None,), aux_sx2=None, aux_sz2=None,
        need_x_second=False, need_z_second=False, need_x_first=False, need_z_first=False,
    )


@st.composite
def designs(draw):
    # Small populations, and large ones whose positions take more than
    # one 16-bit digit.
    n_pop = draw(st.one_of(st.integers(1, 2000), st.integers(65_000, 200_000)))
    if n_pop >= 3 and draw(st.booleans()):
        nprime = draw(st.integers(3, min(n_pop, 600)))
        n = draw(st.integers(2, nprime - 1))
    else:
        nprime = None
        n = draw(st.integers(1, min(n_pop, 600)))
    return n_pop, n, nprime


@settings(max_examples=150, deadline=None)
@given(
    design=designs(),
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**64 - 8),
    count=st.integers(1, 7),
)
def test_block_draws_equal_scalar_draws(design, seed, start, count):
    n_pop, n, nprime = design
    first, second = _draw_block(bare_plan(n_pop, n, nprime, seed), start, start + count)
    assert second.flags.c_contiguous
    for row, rep in enumerate(range(start, start + count)):
        stream = np.random.Generator(np.random.Philox(key=seed).jumped(rep))
        if nprime is None:
            assert first is None
            assert np.array_equal(second[row], draw_srswor(stream, n_pop, n))
        else:
            draw = draw_two_phase(stream, n_pop, nprime, n)
            assert np.array_equal(first[row], draw.first_phase)
            assert np.array_equal(second[row], draw.second_phase)
