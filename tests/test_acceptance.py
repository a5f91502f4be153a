"""Acceptance criteria for the toolkit, one test per criterion.

Each test is self-contained and checks exactly one shipping requirement
at its stated tolerance, so the ``pytest -v`` report gives one pass/fail
line per criterion:

1. the single-phase efficiency table reproduces the published values
   within 1.5 percent, in under a second;
2. the two-phase efficiencies come out near 147.0 / 55.6 / 147.3 and the
   published values (ten-fold larger) are flagged as inconsistent;
3. on the default synthetic population, empirical MSEs from a 50 000-rep
   run sit within 15 percent of the corrected first-order values and the
   empirical efficiency ordering matches the theoretical one, in under
   five minutes;
4. the empirical bias of the ratio-type estimator has the sign the
   corrected bias formula predicts, and the pre-correction formula
   predicts the opposite sign;
5. the closed-form optimal combined weight beats a dense weight grid on
   1000 randomized moment tables, in both designs;
6. algebraic reductions hold to 1e-12: the combined estimator and its
   MSE collapse to the ratio/product forms at the extreme weights, and
   the two-phase MSE degenerates to the single-phase one as the
   first-phase size grows without bound;
7. standardized moments agree with a naive brute-force evaluation to
   1e-12 relative on 100 random populations;
8. simulation reports are byte-identical across repeat runs and across
   worker counts.
"""

from __future__ import annotations

import json
import math
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import random_population
from varaux import (
    BUILTIN_EXAMPLE_DELTAS,
    BUILTIN_EXAMPLE_DESIGN,
    COMBINED,
    COMBINED_TWO_PHASE,
    EXP_PRODUCT,
    EXP_PRODUCT_TWO_PHASE,
    EXP_RATIO,
    EXP_RATIO_TWO_PHASE,
    SINGLE_PHASE_KINDS,
    TWO_PHASE_KINDS,
    UNBIASED,
    AuxKnowledge,
    DesignSizes,
    EstimatorKind,
    Family,
    PopulationSpec,
    SimulationConfig,
    alpha_opt,
    delta,
    delta_table,
    estimate_single_phase,
    estimate_two_phase,
    generate_population,
    pre,
    run_simulation,
    theory_for_kind,
)
from varaux.cli import main as cli_main

PUBLISHED_PRE_SINGLE = {"exp-ratio": 214.35, "exp-product": 42.90, "combined": 215.47}
PUBLISHED_PRE_TWO = {
    "exp-ratio-2p": 1470.76,
    "exp-product-2p": 513.86,
    "combined-2p": 1472.77,
}
EXPECTED_COMPUTED_TWO = {
    "exp-ratio-2p": 147.0,
    "exp-product-2p": 55.6,
    "combined-2p": 147.3,
}


def _quiet_run(pop, config, workers=1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return run_simulation(pop, config, workers=workers)


def test_criterion_1_single_phase_efficiencies_match_published():
    start = time.perf_counter()
    table = BUILTIN_EXAMPLE_DELTAS
    sizes = DesignSizes(BUILTIN_EXAMPLE_DESIGN.n)
    baseline = theory_for_kind(UNBIASED, table, 1.0, sizes).mse
    computed = {
        "exp-ratio": pre(theory_for_kind(EXP_RATIO, table, 1.0, sizes).mse, baseline),
        "exp-product": pre(
            theory_for_kind(EXP_PRODUCT, table, 1.0, sizes).mse, baseline
        ),
        "combined": pre(
            theory_for_kind(COMBINED, table, 1.0, sizes, weight=alpha_opt(table)).mse, baseline
        ),
    }
    elapsed = time.perf_counter() - start
    for kind, published in PUBLISHED_PRE_SINGLE.items():
        rel_dev = abs(computed[kind] - published) / published
        assert rel_dev <= 0.015, (
            f"{kind}: computed PRE {computed[kind]:.4f} deviates from the "
            f"published {published} by {100 * rel_dev:.3f}% (> 1.5%)"
        )
    assert elapsed < 1.0, f"single-phase efficiency table took {elapsed:.3f}s (>= 1s)"
    print(
        f"[criterion 1] PASS: PREs {computed['exp-ratio']:.2f}/"
        f"{computed['exp-product']:.2f}/{computed['combined']:.2f} within 1.5% "
        f"of {PUBLISHED_PRE_SINGLE}, {elapsed * 1000:.1f} ms"
    )


def test_criterion_2_two_phase_efficiencies_flag_published_values():
    table = BUILTIN_EXAMPLE_DELTAS
    sizes = BUILTIN_EXAMPLE_DESIGN
    baseline = theory_for_kind(UNBIASED, table, 1.0, sizes).mse
    computed = {
        "exp-ratio-2p": pre(
            theory_for_kind(EXP_RATIO_TWO_PHASE, table, 1.0, sizes).mse, baseline
        ),
        "exp-product-2p": pre(
            theory_for_kind(EXP_PRODUCT_TWO_PHASE, table, 1.0, sizes).mse, baseline
        ),
        "combined-2p": pre(
            theory_for_kind(COMBINED_TWO_PHASE, table, 1.0, sizes, weight=alpha_opt(table)).mse,
            baseline,
        ),
    }
    for kind, expected in EXPECTED_COMPUTED_TWO.items():
        assert computed[kind] == pytest.approx(expected, rel=0.015), (
            f"{kind}: computed PRE {computed[kind]:.4f} is not near {expected}"
        )
    for kind, published in PUBLISHED_PRE_TWO.items():
        rel_dev = abs(computed[kind] - published) / published
        assert rel_dev > 0.015, (
            f"{kind}: published value {published} unexpectedly agrees with the "
            f"formulas; it must be flagged as inconsistent"
        )
    # the shipped reproduction command must flag exactly those cells
    result = CliRunner().invoke(cli_main, ["reproduce-tables", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    statuses = {row["kind"]: row["status"] for row in doc["two_phase"]["rows"]}
    assert statuses["unbiased"] == "consistent"
    for kind in ("exp-ratio-2p", "exp-product-2p", "combined-2p:opt"):
        assert statuses[kind].startswith("flagged:"), (
            f"{kind} not flagged: {statuses[kind]!r}"
        )
    print(
        f"[criterion 2] PASS: computed two-phase PREs "
        f"{computed['exp-ratio-2p']:.2f}/{computed['exp-product-2p']:.2f}/"
        f"{computed['combined-2p']:.2f}; published {tuple(PUBLISHED_PRE_TWO.values())} "
        f"flagged as inconsistent"
    )


def test_criterion_3_simulation_matches_corrected_theory(default_pop):
    kinds = tuple(SINGLE_PHASE_KINDS) + tuple(TWO_PHASE_KINDS)
    config = SimulationConfig(
        n=100, nprime=400, reps=50_000, seed=20240, estimators=kinds
    )
    start = time.perf_counter()
    report = _quiet_run(default_pop, config, workers=4)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"simulation took {elapsed:.1f}s (>= 5 min)"
    assert report.failed_reps == 0
    worst = 0.0
    for row in report.estimators:
        rel_dev = abs(row.emp_mse - row.theory_mse) / row.theory_mse
        worst = max(worst, rel_dev)
        assert rel_dev <= 0.15, (
            f"{row.kind}: empirical MSE {row.emp_mse:.6e} deviates from corrected "
            f"theory {row.theory_mse:.6e} by {100 * rel_dev:.1f}% (> 15%)"
        )
    emp_order = [r.kind for r in sorted(report.estimators, key=lambda r: r.emp_mse)]
    theory_order = [
        r.kind for r in sorted(report.estimators, key=lambda r: r.theory_mse)
    ]
    assert emp_order == theory_order, (
        f"empirical efficiency ordering {emp_order} differs from "
        f"theoretical ordering {theory_order}"
    )
    print(
        f"[criterion 3] PASS: {len(report.estimators)} estimators within 15% of "
        f"corrected theory (worst {100 * worst:.1f}%), ordering matches, "
        f"{elapsed:.1f}s"
    )


def test_criterion_4_bias_sign_matches_corrected_formula(default_pop):
    table = delta_table(default_pop)
    sy2 = default_pop.sy2
    n = 200
    a = table.d040 - 1.0
    b = table.d220 - 1.0
    corrected_bias = theory_for_kind(EXP_RATIO, table, sy2, DesignSizes(n)).bias
    assert corrected_bias == pytest.approx(
        (sy2 / n) * (0.375 * a - 0.5 * b), rel=1e-12
    )
    # the replaced coefficient (1/8 instead of 3/8; see the corrections
    # registry entry bias:exp-ratio:corrected) predicts the opposite sign
    pre_correction_bias = (sy2 / n) * (0.125 * a - 0.5 * b)
    assert corrected_bias > 0.0
    assert pre_correction_bias < 0.0

    config = SimulationConfig(n=n, reps=200_000, seed=2024, estimators=(EXP_RATIO,))
    report = _quiet_run(default_pop, config, workers=4)
    emp_bias = next(r for r in report.estimators if r.kind == "exp-ratio").emp_bias
    assert emp_bias > 0.0, (
        f"empirical bias {emp_bias:.3e} does not have the corrected formula's "
        f"positive sign (corrected {corrected_bias:.3e}, "
        f"pre-correction {pre_correction_bias:.3e})"
    )
    print(
        f"[criterion 4] PASS: empirical bias {emp_bias:+.3e} matches the corrected "
        f"prediction {corrected_bias:+.3e}; the pre-correction formula predicts "
        f"{pre_correction_bias:+.3e}"
    )


def test_criterion_5_optimal_weight_beats_dense_grid():
    rng = np.random.default_rng(55)
    grid = np.linspace(-1.0, 2.0, 301)  # alpha in [-1, 2], step 0.01
    sizes_single = DesignSizes(30)
    sizes_two = DesignSizes(30, 90)
    for case in range(1000):
        pop = random_population(rng, int(rng.integers(20, 61)))
        table = delta_table(pop)
        sy2 = pop.sy2

        w_opt = alpha_opt(table)
        mse_opt = theory_for_kind(COMBINED, table, sy2, sizes_single, weight=w_opt).mse
        grid_min = min(
            theory_for_kind(COMBINED, table, sy2, sizes_single, weight=float(w)).mse
            for w in grid
        )
        assert mse_opt <= grid_min + 1e-12, (
            f"case {case}: single-phase optimum {mse_opt!r} at weight {w_opt!r} "
            f"loses to the grid minimum {grid_min!r}"
        )

        mse_opt2 = theory_for_kind(COMBINED_TWO_PHASE, table, sy2, sizes_two, weight=w_opt).mse
        grid_min2 = min(
            theory_for_kind(
                COMBINED_TWO_PHASE, table, sy2, sizes_two, weight=float(w)
            ).mse
            for w in grid
        )
        assert mse_opt2 <= grid_min2 + 1e-12, (
            f"case {case}: two-phase optimum {mse_opt2!r} at weight {w_opt!r} "
            f"loses to the grid minimum {grid_min2!r}"
        )
    print(
        "[criterion 5] PASS: closed-form optimal weights beat the 301-point grid "
        "on 1000 randomized moment tables in both designs (slack 1e-12)"
    )


def test_criterion_6_algebraic_reductions(tiny_pop):
    tol = 1e-12
    y, x, z = tiny_pop.y, tiny_pop.x, tiny_pop.z
    aux_both = AuxKnowledge(sx2=6.5, sz2=8.5)
    aux_x = AuxKnowledge(sx2=6.5)
    aux_z = AuxKnowledge(sz2=8.5)

    # estimator-level collapse at the extreme weights, single phase
    ratio_val = estimate_single_phase(EXP_RATIO, y, x, None, aux=aux_x)
    product_val = estimate_single_phase(EXP_PRODUCT, y, None, z, aux=aux_z)
    at_one = estimate_single_phase(EstimatorKind(Family.COMBINED, 1.0), y, x, z, aux=aux_both)
    at_zero = estimate_single_phase(EstimatorKind(Family.COMBINED, 0.0), y, x, z, aux=aux_both)
    assert abs(at_one - ratio_val) <= tol
    assert abs(at_zero - product_val) <= tol

    # estimator-level collapse, two phase
    x_first = [2.0, 3.0, 5.0, 7.0, 8.0, 4.0, 6.0, 9.0]
    z_first = [9.0, 7.0, 4.0, 3.0, 2.0, 6.0, 5.0, 1.0]
    ratio2 = estimate_two_phase(
        EXP_RATIO_TWO_PHASE, y, x_first=x_first, z_first=None, x_second=x, z_second=None
    )
    product2 = estimate_two_phase(
        EXP_PRODUCT_TWO_PHASE,
        y,
        x_first=None,
        z_first=z_first,
        x_second=None,
        z_second=z,
    )
    at_one2 = estimate_two_phase(
        EstimatorKind(Family.COMBINED_2P, 1.0),
        y,
        x_first=x_first,
        z_first=z_first,
        x_second=x,
        z_second=z,
    )
    at_zero2 = estimate_two_phase(
        EstimatorKind(Family.COMBINED_2P, 0.0),
        y,
        x_first=x_first,
        z_first=z_first,
        x_second=x,
        z_second=z,
    )
    assert abs(at_one2 - ratio2) <= tol
    assert abs(at_zero2 - product2) <= tol

    # MSE-level collapse at the extreme weights, both designs
    table = BUILTIN_EXAMPLE_DELTAS
    s1 = DesignSizes(10)
    s2 = DesignSizes(10, 25)
    pairs = [
        (COMBINED, 1.0, EXP_RATIO, s1),
        (COMBINED, 0.0, EXP_PRODUCT, s1),
        (COMBINED_TWO_PHASE, 1.0, EXP_RATIO_TWO_PHASE, s2),
        (COMBINED_TWO_PHASE, 0.0, EXP_PRODUCT_TWO_PHASE, s2),
    ]
    for combined_kind, weight, target_kind, sizes in pairs:
        lhs = theory_for_kind(combined_kind, table, 1.0, sizes, weight=weight).mse
        rhs = theory_for_kind(target_kind, table, 1.0, sizes).mse
        assert abs(lhs - rhs) <= tol, (
            f"{combined_kind.label} at weight {weight} gives MSE {lhs!r}, "
            f"{target_kind.label} gives {rhs!r}"
        )

    # two-phase MSE degenerates to single-phase as 1/nprime -> 0
    huge = DesignSizes(10, 10**18)
    reductions = [
        (EXP_RATIO_TWO_PHASE, EXP_RATIO, None),
        (EXP_PRODUCT_TWO_PHASE, EXP_PRODUCT, None),
        (COMBINED_TWO_PHASE, COMBINED, 0.7),
    ]
    for two_kind, one_kind, weight in reductions:
        lhs = theory_for_kind(two_kind, table, 1.0, huge, weight=weight).mse
        rhs = theory_for_kind(one_kind, table, 1.0, s1, weight=weight).mse
        assert abs(lhs - rhs) <= tol, (
            f"{two_kind.label} with vanishing first-phase term gives {lhs!r}, "
            f"single-phase {one_kind.label} gives {rhs!r}"
        )
    print(
        "[criterion 6] PASS: weight-extreme collapses (estimator and MSE level) "
        "and the two-phase-to-single-phase reduction all hold to 1e-12"
    )


def test_criterion_7_standardized_moments_match_brute_force():
    rng = np.random.default_rng(77)
    orders = [
        (4, 0, 0),
        (0, 4, 0),
        (0, 0, 4),
        (2, 2, 0),
        (2, 0, 2),
        (0, 2, 2),
        (1, 1, 1),
        (2, 1, 1),
        (3, 1, 0),
    ]
    for case in range(100):
        pop = random_population(rng, int(rng.integers(5, 51)))
        ys, xs, zs = list(pop.y), list(pop.x), list(pop.z)
        size = len(ys)
        my = math.fsum(ys) / size
        mx = math.fsum(xs) / size
        mz = math.fsum(zs) / size

        def mu(p, q, r):
            return (
                math.fsum(
                    (yi - my) ** p * (xi - mx) ** q * (zi - mz) ** r
                    for yi, xi, zi in zip(ys, xs, zs)
                )
                / size
            )

        denom_y, denom_x, denom_z = mu(2, 0, 0), mu(0, 2, 0), mu(0, 0, 2)
        for p, q, r in orders:
            reference = mu(p, q, r) / (
                denom_y ** (p / 2) * denom_x ** (q / 2) * denom_z ** (r / 2)
            )
            value = delta(pop, p, q, r)
            assert value == pytest.approx(reference, rel=1e-12), (
                f"case {case} (N={size}): delta_{p}{q}{r} = {value!r} vs "
                f"brute force {reference!r}"
            )
    print(
        "[criterion 7] PASS: standardized moments match brute force to 1e-12 "
        "relative on 100 random populations (9 orders each)"
    )


def test_criterion_8_reports_byte_identical_across_runs_and_workers():
    pop = generate_population(PopulationSpec(size=600, seed=12))
    kinds = tuple(SINGLE_PHASE_KINDS) + tuple(TWO_PHASE_KINDS)
    # more reps than one scheduling chunk, so multi-worker runs really split
    config = SimulationConfig(n=40, nprime=120, reps=2085, seed=99, estimators=kinds)
    first = _quiet_run(pop, config, workers=1)
    repeat = _quiet_run(pop, config, workers=1)
    parallel = _quiet_run(pop, config, workers=3)
    assert first.to_json() == repeat.to_json(), "repeat run changed the JSON report"
    assert first.to_csv() == repeat.to_csv(), "repeat run changed the CSV report"
    assert first.to_json() == parallel.to_json(), "worker count changed the JSON report"
    assert first.to_csv() == parallel.to_csv(), "worker count changed the CSV report"
    print(
        "[criterion 8] PASS: JSON and CSV reports byte-identical across repeat "
        "runs and across 1 vs 3 workers"
    )
