"""Monte Carlo engine: sampling designs, determinism, and aggregation."""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from varaux import (
    CHUNK_SIZE,
    COMBINED,
    COMBINED_TWO_PHASE,
    EXP_PRODUCT,
    EXP_RATIO,
    EXP_RATIO_TWO_PHASE,
    ISAKI_RATIO,
    SINGLE_PHASE_KINDS,
    TWO_PHASE_KINDS,
    UNBIASED,
    DegeneratePopulationError,
    InvalidDesignError,
    InvalidInputError,
    Population,
    PopulationSpec,
    SimulationConfig,
    SimulationError,
    WeightPolicy,
    alpha_opt,
    delta_table,
    draw_srswor,
    draw_two_phase,
    generate_population,
    load_population_csv,
    run_simulation,
)

from varaux import montecarlo

import reference_engine
from helpers import count_fourth_moments, random_population

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def small_pop():
    return generate_population(PopulationSpec(size=600, seed=12))


def quiet_run(pop, config, workers=1):
    """run_simulation with the large-sampling-fraction warning silenced."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return run_simulation(pop, config, workers=workers)


class TestDrawSrswor:
    def test_shape_and_range(self):
        rng = np.random.default_rng(0)
        idx = draw_srswor(rng, 100, 10)
        assert idx.shape == (10,)
        assert idx.dtype == np.int64
        assert len(set(idx.tolist())) == 10
        assert idx.min() >= 0 and idx.max() < 100

    def test_full_census_draw(self):
        rng = np.random.default_rng(0)
        idx = draw_srswor(rng, 7, 7)
        assert sorted(idx.tolist()) == list(range(7))

    def test_oversized_draw_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError):
            draw_srswor(rng, 5, 6)

    def test_deterministic_given_stream_state(self):
        a = draw_srswor(np.random.default_rng(42), 50, 8)
        b = draw_srswor(np.random.default_rng(42), 50, 8)
        assert np.array_equal(a, b)

    def test_uniform_over_subsets(self):
        # Every 2-subset of a 5-unit population must be equally likely.
        rng = np.random.default_rng(2718)
        counts = {frozenset(c): 0 for c in combinations(range(5), 2)}
        draws = 100_000
        for _ in range(draws):
            idx = draw_srswor(rng, 5, 2)
            counts[frozenset(idx.tolist())] += 1
        expected = draws / 10
        # 4-sigma band for a binomial(draws, 1/10) count.
        band = 4 * math.sqrt(draws * 0.1 * 0.9)
        for subset, count in counts.items():
            assert abs(count - expected) < band, (subset, count)


class TestDrawTwoPhase:
    def test_nested_and_sized(self):
        rng = np.random.default_rng(1)
        first, second = draw_two_phase(rng, 200, 50, 10)
        assert first.size == 50
        assert second.size == 10
        assert np.all(np.isin(second, first))

    def test_size_order_enforced(self):
        rng = np.random.default_rng(1)
        with pytest.raises(InvalidDesignError):
            draw_two_phase(rng, 200, 10, 10)
        with pytest.raises(InvalidDesignError):
            draw_two_phase(rng, 40, 50, 10)

    def test_second_phase_uniform_within_first(self):
        # Conditionally on the first phase, the subsample is SRSWOR from it.
        rng = np.random.default_rng(5)
        hits = np.zeros(4)
        draws = 40_000
        for _ in range(draws):
            _, second = draw_two_phase(rng, 4, 3, 2)
            for unit in second:
                hits[unit] += 1
        # Each unit appears in the second phase with probability
        # P(in first) * P(in second | first) = (3/4)*(2/3) = 1/2.
        expected = draws * 0.5
        band = 4 * math.sqrt(draws * 0.5 * 0.5)
        assert np.all(np.abs(hits - expected) < band)


class TestSimulationConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SimulationConfig(n=1, reps=10, seed=0, estimators=(UNBIASED,))
        with pytest.raises(InvalidInputError):
            SimulationConfig(n=5, reps=0, seed=0, estimators=(UNBIASED,))
        with pytest.raises(InvalidInputError):
            SimulationConfig(n=5, reps=10, seed=-1, estimators=(UNBIASED,))
        with pytest.raises(InvalidInputError):
            SimulationConfig(n=5, reps=10, seed=0, estimators=())
        with pytest.raises(InvalidInputError):
            SimulationConfig(n=5, reps=10, seed=0, estimators=("unbiased",))

    def test_two_phase_needs_nprime(self):
        with pytest.raises(InvalidDesignError):
            SimulationConfig(n=5, reps=10, seed=0, estimators=(EXP_RATIO_TWO_PHASE,))

    def test_nprime_strictly_larger(self):
        with pytest.raises(InvalidDesignError):
            SimulationConfig(
                n=5, reps=10, seed=0, nprime=5, estimators=(EXP_RATIO_TWO_PHASE,)
            )

    def test_nprime_with_single_phase_kinds_draws_a_nested_first_phase(self, monkeypatch):
        # nprime is required only by two-phase kinds, and allowed for any:
        # the run then draws a first phase of nprime units and evaluates
        # every kind on the second-phase sample of n units within it.
        config = SimulationConfig(n=10, reps=10, seed=0, estimators=(EXP_RATIO,), nprime=50)
        chunks = []
        simulate_chunk = montecarlo._simulate_chunk

        def recording(plan, start, stop):
            result = simulate_chunk(plan, start, stop)
            chunks.append((plan, start, stop, result))
            return result

        monkeypatch.setattr(montecarlo, "_simulate_chunk", recording)
        report = quiet_run(random_population(np.random.default_rng(9), 500), config)
        assert report.nprime == 50
        assert [row.kind for row in report.estimators] == ["unbiased", "exp-ratio"]
        [(plan, start, stop, (values, failed, _))] = chunks
        assert plan.phases == ((0, 50, 500), (50, 60, 50))
        expected = reference_engine._simulate_chunk(plan, start, stop)
        assert np.array_equal(values.view(np.uint64), expected[0].view(np.uint64))
        assert np.array_equal(failed, expected[1])


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, small_pop):
        config = SimulationConfig(
            n=12,
            nprime=60,
            reps=400,
            seed=99,
            estimators=tuple(SINGLE_PHASE_KINDS) + tuple(TWO_PHASE_KINDS),
        )
        a = quiet_run(small_pop, config)
        b = quiet_run(small_pop, config)
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_worker_count_does_not_change_results(self, small_pop):
        config = SimulationConfig(
            n=12, reps=CHUNK_SIZE + 37, seed=7, estimators=(EXP_RATIO, COMBINED)
        )
        serial = quiet_run(small_pop, config, workers=1)
        threaded = quiet_run(small_pop, config, workers=3)
        assert serial.to_json() == threaded.to_json()

    def test_seed_changes_results(self, small_pop):
        base = dict(n=12, reps=200, estimators=(EXP_RATIO,))
        a = quiet_run(small_pop, SimulationConfig(seed=1, **base))
        b = quiet_run(small_pop, SimulationConfig(seed=2, **base))
        assert a.to_json() != b.to_json()

    def test_paired_draws_are_shared_across_estimators(self, small_pop):
        # The unbiased column must not depend on which other estimators
        # run: every estimator sees the same draws (same substreams).  The
        # final mean is reduced over a differently shaped array, so agree-
        # ment is to rounding, far below any sampling difference.
        base = dict(n=12, nprime=48, reps=300, seed=41)
        solo = quiet_run(
            small_pop, SimulationConfig(estimators=(UNBIASED,), **base)
        )
        crowd = quiet_run(
            small_pop,
            SimulationConfig(
                estimators=tuple(SINGLE_PHASE_KINDS) + tuple(TWO_PHASE_KINDS), **base
            ),
        )
        solo_row = solo.estimators[0]
        crowd_row = next(e for e in crowd.estimators if e.kind == "unbiased")
        assert solo_row.emp_mean == pytest.approx(crowd_row.emp_mean, rel=1e-13)
        assert solo_row.emp_mse == pytest.approx(crowd_row.emp_mse, rel=1e-13)

    def test_per_rep_values_bitwise_identical_across_plans(self, small_pop):
        # White-box check of the same property at the replication level,
        # where equality is exact: the same (seed, rep) substream drives
        # the draw regardless of how many estimators are evaluated.
        from varaux.montecarlo import _Plan, _simulate_chunk

        common = dict(
            y=small_pop.y,
            x=small_pop.x,
            z=small_pop.z,
            n=12,
            nprime=None,
            seed=41,
        )
        solo = _Plan(
            kinds=(UNBIASED,),
            weights=(None,),
            aux_sx2=None,
            aux_sz2=None,
            **common,
        )
        crowd = _Plan(
            kinds=(UNBIASED, EXP_RATIO, COMBINED),
            weights=(None, None, 0.8),
            aux_sx2=small_pop.sx2,
            aux_sz2=small_pop.sz2,
            **common,
        )
        solo_values = _simulate_chunk(solo, 0, 64)[0]
        crowd_values = _simulate_chunk(crowd, 0, 64)[0]
        assert np.array_equal(solo_values[:, 0], crowd_values[:, 0])


class TestRunSimulation:
    def test_repeat_runs_on_one_population_match_a_fresh_one(self, monkeypatch):
        # The population's statistics are computed once and then reused.
        calls = count_fourth_moments(monkeypatch)
        pop = random_population(np.random.default_rng(14), 500)
        config = SimulationConfig(
            n=12, nprime=60, reps=300, seed=5, estimators=tuple(SINGLE_PHASE_KINDS) + tuple(TWO_PHASE_KINDS)
        )
        first = quiet_run(pop, config)
        assert len(calls) == 1
        assert quiet_run(pop, config).to_json() == first.to_json()
        assert len(calls) == 1  # no pass over the population once its cache is filled
        fresh = Population(pop.y, pop.x, pop.z)
        assert quiet_run(fresh, config).to_json() == first.to_json()
        assert len(calls) == 2

    def test_unbiased_baseline_prepended_and_pre_100(self, small_pop):
        config = SimulationConfig(n=12, reps=200, seed=3, estimators=(EXP_RATIO,))
        report = quiet_run(small_pop, config)
        kinds = [e.kind for e in report.estimators]
        assert kinds[0] == "unbiased"
        assert "exp-ratio" in kinds
        assert report.estimators[0].emp_pre == 100.0

    def test_unbiased_not_duplicated(self, small_pop):
        config = SimulationConfig(
            n=12, reps=100, seed=3, estimators=(UNBIASED, EXP_RATIO, UNBIASED)
        )
        report = quiet_run(small_pop, config)
        kinds = [e.kind for e in report.estimators]
        assert kinds.count("unbiased") == 1

    def test_empirical_mean_tracks_population_variance(self, small_pop):
        # The unbiased estimator's empirical mean should sit within a few
        # standard errors of the population variance.
        config = SimulationConfig(n=25, reps=4000, seed=17, estimators=(UNBIASED,))
        report = quiet_run(small_pop, config)
        row = report.estimators[0]
        se = math.sqrt(row.emp_mse / report.reps_used)
        assert abs(row.emp_bias) < 5 * se

    def test_weight_modes_reported(self, small_pop):
        from varaux import EstimatorKind, Family

        config = SimulationConfig(
            n=12,
            reps=100,
            seed=3,
            estimators=(EXP_RATIO, COMBINED, EstimatorKind(Family.COMBINED, 0.4)),
        )
        report = quiet_run(small_pop, config)
        modes = {e.kind: e.weight_mode for e in report.estimators}
        assert modes["unbiased"] == "none"
        assert modes["exp-ratio"] == "none"
        assert modes["combined:opt"] == "population-optimal"
        assert modes["combined:0.4"] == "fixed"
        weights = {e.kind: e.weight for e in report.estimators}
        assert weights["combined:opt"] == pytest.approx(
            alpha_opt(delta_table(small_pop)), rel=1e-14
        )
        assert weights["combined:0.4"] == 0.4

    def test_plug_in_policy(self, small_pop):
        config = SimulationConfig(
            n=30,
            reps=300,
            seed=3,
            estimators=(COMBINED,),
            weight_policy=WeightPolicy.PLUG_IN,
        )
        report = quiet_run(small_pop, config)
        row = next(e for e in report.estimators if e.kind.startswith("combined"))
        assert row.weight_mode == "plug-in"
        # Theory column is evaluated at the population optimum.
        assert row.weight == pytest.approx(
            alpha_opt(delta_table(small_pop)), rel=1e-14
        )

    def test_fixed_policy_requires_weights(self):
        # The rule needs only the config, so the config refuses itself.
        with pytest.raises(InvalidInputError, match="weight policy 'fixed' requires an explicit weight on 'combined:opt'"):
            SimulationConfig(
                n=12,
                reps=100,
                seed=3,
                estimators=(COMBINED,),
                weight_policy=WeightPolicy.FIXED,
            )

    def test_sample_as_large_as_population_rejected(self, small_pop):
        for n in (600, 601):
            config = SimulationConfig(n=n, reps=10, seed=0, estimators=(UNBIASED,))
            with pytest.raises(InvalidDesignError, match="population"):
                quiet_run(small_pop, config)

    def test_nprime_larger_than_population_rejected(self, small_pop):
        config = SimulationConfig(
            n=12, nprime=601, reps=10, seed=0, estimators=(EXP_RATIO_TWO_PHASE,)
        )
        with pytest.raises(InvalidDesignError):
            quiet_run(small_pop, config)

    def test_workers_validated(self, small_pop):
        config = SimulationConfig(n=12, reps=10, seed=0, estimators=(UNBIASED,))
        with pytest.raises(InvalidInputError):
            quiet_run(small_pop, config, workers=0)

    def test_large_sampling_fraction_warns(self, small_pop):
        config = SimulationConfig(n=60, reps=50, seed=0, estimators=(UNBIASED,))
        with pytest.warns(UserWarning, match="finite population correction"):
            run_simulation(small_pop, config)

    def test_degenerate_population_rejected(self):
        pop = Population(y=np.ones(50), x=np.arange(50.0), z=np.arange(50.0))
        config = SimulationConfig(n=5, reps=10, seed=0, estimators=(UNBIASED,))
        with pytest.raises(DegeneratePopulationError):
            quiet_run(pop, config)

    def test_kurtosis_at_its_bound_refused_before_any_chunk(self, monkeypatch):
        # A two-valued y has d400 = 1: first-order theory gives the
        # unbiased baseline zero MSE, which is known before any draw.
        def no_chunk(*args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(montecarlo, "_simulate_chunk", no_chunk)
        rng = np.random.default_rng(3)
        pop = Population(y=np.tile([1.0, 2.0], 1000), x=rng.lognormal(size=2000), z=rng.lognormal(size=2000))
        config = SimulationConfig(n=20, reps=50_000, seed=0, estimators=(UNBIASED, EXP_RATIO))
        with pytest.raises(DegeneratePopulationError, match=r"d400 = 1"):
            run_simulation(pop, config)

    def test_zero_theory_mse_refused(self):
        # With x = y the Isaki ratio estimator is exact: its theory row has
        # zero MSE, which is refused as the baseline's is.
        y = np.random.default_rng(4).lognormal(size=500)
        pop = Population(y=y, x=y, z=np.random.default_rng(5).lognormal(size=500))
        config = SimulationConfig(n=10, reps=50, seed=0, estimators=(ISAKI_RATIO,))
        with pytest.raises(DegeneratePopulationError, match="'isaki-ratio' an MSE of"):
            run_simulation(pop, config)

    def test_degenerate_auxiliary_rejected(self):
        # The report always carries the population's full moment table, so
        # a constant variate is rejected even when no estimator uses it.
        rng = np.random.default_rng(8)
        y = rng.lognormal(size=60)
        z = rng.lognormal(size=60)
        pop = Population(y=y, x=np.ones(60), z=z)
        for estimators in [(UNBIASED,), (EXP_RATIO,)]:
            config = SimulationConfig(n=6, reps=20, seed=0, estimators=estimators)
            with pytest.raises(DegeneratePopulationError):
                quiet_run(pop, config)

    def test_failure_threshold_aborts(self):
        # x takes only two distinct values, so many size-3 samples are
        # constant in x and the ratio kind degenerates in them; the run
        # must abort, not silently drop a biased subset of draws.
        rng = np.random.default_rng(9)
        y = rng.lognormal(size=40)
        x = np.ones(40)
        x[:2] = 2.0
        z = rng.lognormal(size=40)
        pop = Population(y=y, x=x, z=z)
        config = SimulationConfig(n=3, reps=500, seed=0, estimators=(EXP_RATIO,))
        with pytest.raises(SimulationError, match="threshold"):
            quiet_run(pop, config)

    def test_census_design_rejected_upfront(self, small_pop):
        # n = N leaves no sampling variation, so efficiencies would be
        # undefined; the design is rejected before any draws happen.
        config = SimulationConfig(n=600, reps=10, seed=0, estimators=(UNBIASED,))
        with pytest.raises(InvalidDesignError, match="census"):
            quiet_run(small_pop, config)

    def test_census_first_phase_rejected_before_any_chunk(self, small_pop, monkeypatch):
        # n' = N makes each two-phase kind its single-phase twin.
        def no_chunk(*args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(montecarlo, "_simulate_chunk", no_chunk)
        config = SimulationConfig(n=12, nprime=600, reps=10, seed=0, estimators=(EXP_RATIO_TWO_PHASE,))
        with pytest.raises(InvalidDesignError, match="nprime=600 must be smaller than the population size 600; a census"):
            quiet_run(small_pop, config)

    def test_census_first_phase_refused_without_a_warning(self, small_pop):
        # n/N = 40/600 would warn about the finite population correction,
        # but every refusal comes first.
        import warnings

        config = SimulationConfig(n=40, nprime=600, reps=10, seed=0, estimators=(EXP_RATIO_TWO_PHASE,))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidDesignError, match="a census first phase"):
                run_simulation(small_pop, config)
        assert [str(w.message) for w in caught] == []

    def test_census_first_phase_refused_before_any_moment_table(self, monkeypatch):
        calls = count_fourth_moments(monkeypatch)
        pop = random_population(np.random.default_rng(3), 50)
        config = SimulationConfig(n=10, nprime=50, reps=10, seed=0, estimators=(EXP_RATIO_TWO_PHASE,))
        with pytest.raises(InvalidDesignError, match="a census first phase"):
            run_simulation(pop, config)
        assert calls == []

    @pytest.mark.parametrize("estimators", [(UNBIASED,), (EXP_RATIO,), SINGLE_PHASE_KINDS], ids=["1", "2", "all"])
    def test_zero_empirical_mse_names_its_cause(self, estimators):
        # Every 5-unit sample of this two-point y has s_y^2 = S_y^2 exactly,
        # while d400 rounds to 1.0000000000000002, past the theory's check.
        pop = load_population_csv(DATA_DIR / "population_two_point.csv")
        config = SimulationConfig(n=5, reps=10, seed=0, estimators=estimators)
        with pytest.raises(SimulationError) as refused:
            quiet_run(pop, config)
        assert str(refused.value) == (
            "the empirical MSE of 'unbiased' is zero: every kept replication gave it exactly "
            "S_y^2, so the population admits no sampling variation at n=5"
        )


@pytest.fixture(scope="module")
def report(small_pop):
    config = SimulationConfig(
        n=12,
        nprime=48,
        reps=250,
        seed=21,
        estimators=(EXP_RATIO, COMBINED, EXP_RATIO_TWO_PHASE),
    )
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return run_simulation(small_pop, config)


class TestReportSerialization:

    def test_json_structure(self, report, small_pop):
        doc = json.loads(report.to_json())
        assert doc["population"]["size"] == small_pop.size
        assert doc["design"] == {"n": 12, "nprime": 48}
        assert doc["run"]["reps"] == 250
        assert doc["run"]["failed_reps"] == 0
        assert doc["run"]["weight_policy"] == "population-optimal"
        kinds = [e["kind"] for e in doc["estimators"]]
        assert kinds[0] == "unbiased"
        for entry in doc["estimators"]:
            assert set(entry) >= {
                "kind",
                "weight_mode",
                "emp_mse",
                "emp_pre",
                "theory_mse",
                "theory_pre",
                "formula_id",
            }

    def test_json_ends_with_newline(self, report):
        assert report.to_json().endswith("\n")

    def test_csv_structure(self, report):
        lines = report.to_csv().strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["kind", "weight_mode", "weight"]
        assert len(lines) == 1 + len(report.estimators)

    def test_csv_round_trips_floats_exactly(self, report):
        lines = report.to_csv().strip().splitlines()
        header = lines[0].split(",")
        mse_col = header.index("emp_mse")
        row = lines[1].split(",")
        assert float(row[mse_col]) == report.estimators[0].emp_mse

    def test_theory_matches_direct_evaluation(self, report, small_pop):
        from varaux import DesignSizes, theory_for_kind

        table = delta_table(small_pop)
        sizes = DesignSizes(12, nprime=48)
        for row in report.estimators:
            if row.kind.startswith("combined"):
                continue
            kind = [
                k
                for k in (UNBIASED,) + tuple(SINGLE_PHASE_KINDS) + tuple(TWO_PHASE_KINDS)
                if k.label == row.kind
            ][0]
            want = theory_for_kind(kind, table, small_pop.sy2, sizes)
            assert row.theory_mse == want.mse


class TestRankingStability:
    def test_empirical_ranking_agrees_with_theory_usually(self, default_pop):
        # Across seeds, the empirical MSE ordering of well-separated
        # estimators should agree with the first-order theory ordering
        # nearly always.  Only kinds with large theoretical gaps are
        # compared (exp-ratio beats unbiased beats exp-product by wide
        # margins on the reference population); finely separated pairs
        # belong to the high-rep acceptance run, and small-sample second-
        # order effects make tight orderings meaningless at n this size.
        from varaux import DesignSizes, theory_for_kind

        table = delta_table(default_pop)
        sizes = DesignSizes(100)
        theory_mse = {
            "unbiased": theory_for_kind(UNBIASED, table, default_pop.sy2, sizes).mse,
            "exp-ratio": theory_for_kind(
                EXP_RATIO, table, default_pop.sy2, sizes
            ).mse,
            "exp-product": theory_for_kind(
                EXP_PRODUCT, table, default_pop.sy2, sizes
            ).mse,
        }
        theory_order = sorted(theory_mse, key=theory_mse.get)
        agree = 0
        for seed in range(12):
            config = SimulationConfig(
                n=100,
                reps=2000,
                seed=seed,
                estimators=(EXP_RATIO, EXP_PRODUCT),
            )
            report = quiet_run(default_pop, config)
            emp = {
                e.kind: e.emp_mse for e in report.estimators if e.kind in theory_mse
            }
            if sorted(emp, key=emp.get) == theory_order:
                agree += 1
        assert agree >= 11
