"""First-order variance/bias/MSE formulas, optimal weights, efficiency.

Frozen oracle values below come from two independent sources:

* the worked moment table bundled as ``BUILTIN_EXAMPLE_DELTAS`` with
  n=10, n'=25 and unit baseline variance, recomputed by hand from the
  bracket definitions (marked "derived"); and
* the externally published efficiency figures those computations are
  compared against in ``reproduce-tables`` (kept in
  ``REPORTED_PRE_*``; the two-phase set is known-inconsistent and must
  be flagged, not matched).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from varaux import (
    COMBINED,
    COMBINED_TWO_PHASE,
    CORRECTIONS,
    EXP_PRODUCT,
    EXP_PRODUCT_TWO_PHASE,
    EXP_RATIO,
    EXP_RATIO_TWO_PHASE,
    ISAKI_RATIO,
    REPORTED_PRE_SINGLE_PHASE,
    REPORTED_PRE_TWO_PHASE,
    SINGLE_PHASE_KINDS,
    TWO_PHASE_KINDS,
    UNBIASED,
    DeltaTable,
    DesignSizes,
    InvalidDesignError,
    InvalidInputError,
    alpha_opt,
    delta_table,
    min_mse_combined,
    pre,
    theory_for_kind,
)
from varaux.estimators import alpha_terms
from varaux.theory import (
    BUILTIN_EXAMPLE_DELTAS,
    BUILTIN_EXAMPLE_DESIGN,
    BUILTIN_EXAMPLE_POPULATION_SIZE,
)

from helpers import random_population

D = BUILTIN_EXAMPLE_DELTAS
N10 = DesignSizes(10)
N10_25 = DesignSizes(10, nprime=25)


def combined_curvature(d, sy2, n):
    """Second derivative in the weight of the single-phase combined-kind
    MSE: ``S_y^4/n`` times half the denominator of the optimal weight."""
    _, denominator = alpha_terms(*d.to_dict().values())
    return sy2 * sy2 / n * (denominator / 2.0)


def reference_brackets(d: DeltaTable, weight: float) -> dict[str, float]:
    """Independent restatement of the first-order MSE brackets.

    Written from the definitions, not by calling the module under test:
    relative-error expansion of each estimator, squared, expectations
    through order 1/n.
    """
    a = d.d040 - 1.0  # kurtosis spread of x
    b = d.d220 - 1.0  # y^2 x^2 cross spread
    c = d.d004 - 1.0  # kurtosis spread of z
    e = d.d202 - 1.0  # y^2 z^2 cross spread
    f = d.d022 - 1.0  # x^2 z^2 cross spread
    w = weight
    return {
        "isaki-ratio": a - 2.0 * b,
        "exp-ratio": a / 4.0 - b,
        "exp-product": c / 4.0 + e,
        "combined": (
            w * w / 4.0 * a
            + (1.0 - w) * (1.0 - w) / 4.0 * c
            - w * b
            + (1.0 - w) * e
            - w * (1.0 - w) / 2.0 * f
        ),
    }


class TestVarUnbiased:
    def test_builtin_value(self):
        # derived: (1/10) * (2.2667 - 1) = 0.12667
        assert theory_for_kind(UNBIASED, D, 1.0, N10).mse == pytest.approx(0.12667, rel=1e-12)

    def test_scales_with_sy4_over_n(self):
        rng = np.random.default_rng(8)
        pop = random_population(rng, 40)
        d = delta_table(pop)
        v = theory_for_kind(UNBIASED, d, pop.sy2, DesignSizes(20)).mse
        assert v == pytest.approx(pop.sy2**2 / 20 * (d.d400 - 1.0), rel=1e-14)


class TestSinglePhaseMse:
    def test_builtin_frozen_values(self):
        # derived by hand from the brackets; regression-pinned exactly.
        assert theory_for_kind(ISAKI_RATIO, D, 1.0, N10).mse == pytest.approx(
            0.12413, rel=1e-12
        )
        assert theory_for_kind(EXP_RATIO, D, 1.0, N10).mse == pytest.approx(
            0.05915, rel=1e-12
        )
        assert theory_for_kind(EXP_PRODUCT, D, 1.0, N10).mse == pytest.approx(
            0.29541, rel=1e-12
        )

    def test_matches_reference_brackets(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            pop = random_population(rng, 50)
            d = delta_table(pop)
            sy2 = pop.sy2
            sizes = DesignSizes(int(rng.integers(5, 40)))
            refs = reference_brackets(d, 0.0)
            base = sy2**2 / sizes.n * (d.d400 - 1.0)
            for kind, name in [
                (ISAKI_RATIO, "isaki-ratio"),
                (EXP_RATIO, "exp-ratio"),
                (EXP_PRODUCT, "exp-product"),
            ]:
                got = theory_for_kind(kind, d, sy2, sizes).mse
                want = base + sy2**2 / sizes.n * refs[name]
                assert got == pytest.approx(want, rel=1e-12), name
            for weight in [-0.3, 0.0, 0.5, 1.0, 1.4]:
                got = theory_for_kind(COMBINED, d, sy2, sizes, weight=weight).mse
                want = (
                    base + sy2**2 / sizes.n * reference_brackets(d, weight)["combined"]
                )
                assert got == pytest.approx(want, rel=1e-12)

    def test_unbiased_kind_equals_variance(self):
        r = theory_for_kind(UNBIASED, D, 1.0, N10)
        assert r.mse == theory_for_kind(UNBIASED, D, 1.0, N10).mse
        assert r.bias == 0.0

    def test_formula_ids(self):
        assert theory_for_kind(UNBIASED, D, 1.0, N10).formula_id == (
            "var:unbiased:as-published"
        )
        assert theory_for_kind(ISAKI_RATIO, D, 1.0, N10).formula_id == (
            "mse:isaki-ratio:as-published"
        )
        assert theory_for_kind(EXP_RATIO, D, 1.0, N10).formula_id == (
            "mse:exp-ratio:corrected"
        )
        assert theory_for_kind(EXP_PRODUCT, D, 1.0, N10).formula_id == (
            "mse:exp-product:as-published"
        )
        assert theory_for_kind(COMBINED, D, 1.0, N10, weight=0.5).formula_id == (
            "mse:combined:corrected"
        )

    def test_combined_requires_weight(self):
        with pytest.raises(InvalidInputError, match="weight"):
            theory_for_kind(COMBINED, D, 1.0, N10)

    def test_two_phase_kind_rejected(self):
        # A single-phase design has no n' for the two-phase formulas.
        for kind in TWO_PHASE_KINDS:
            weight = 0.5 if kind.is_combined else None
            with pytest.raises(InvalidDesignError, match="nprime"):
                theory_for_kind(kind, D, 1.0, N10, weight=weight)

    def test_negative_first_order_mse_marked_invalid(self):
        # A cross moment large enough drives the first-order MSE negative,
        # which the first-order approximation cannot support; the result
        # carries valid=False rather than raising.  (Such a table violates
        # the moment bounds, which is exactly why it can happen only with
        # user-supplied inputs.)
        d = DeltaTable(d400=1.2, d040=9.0, d004=2.0, d220=4.0, d202=1.0, d022=1.0)
        r = theory_for_kind(EXP_RATIO, d, 1.0, DesignSizes(10))
        assert r.mse < 0.0
        assert not r.valid

    def test_valid_flag_true_on_builtin(self):
        for kind in SINGLE_PHASE_KINDS:
            weight = 0.5 if kind.is_combined else None
            assert theory_for_kind(kind, D, 1.0, N10, weight=weight).valid


class TestBiasSinglePhase:
    def test_builtin_frozen_values(self):
        # derived: (3/8)(3.65-1) - (1/2)(2.3377-1) = 0.324913...
        assert theory_for_kind(EXP_RATIO, D, 1.0, N10).bias == pytest.approx(
            0.03249, rel=1e-10
        )
        # derived: -(1/8)(2.8664-1) + (1/2)(2.2208-1) = 0.37710...
        assert theory_for_kind(EXP_PRODUCT, D, 1.0, N10).bias == pytest.approx(
            0.03771, rel=1e-10
        )

    def test_reference_expressions(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pop = random_population(rng, 45)
            d = delta_table(pop)
            sy2 = pop.sy2
            sizes = DesignSizes(17)
            scale = sy2 / sizes.n
            want_ratio = scale * (
                (3.0 / 8.0) * (d.d040 - 1.0) - 0.5 * (d.d220 - 1.0)
            )
            want_product = scale * (
                -(1.0 / 8.0) * (d.d004 - 1.0) + 0.5 * (d.d202 - 1.0)
            )
            assert theory_for_kind(EXP_RATIO, d, sy2, sizes).bias == pytest.approx(
                want_ratio, rel=1e-12
            )
            assert theory_for_kind(EXP_PRODUCT, d, sy2, sizes).bias == pytest.approx(
                want_product, rel=1e-12
            )

    def test_combined_bias_collapses_at_extreme_weights(self):
        at_one = theory_for_kind(COMBINED, D, 1.0, N10, weight=1.0).bias
        at_zero = theory_for_kind(COMBINED, D, 1.0, N10, weight=0.0).bias
        assert at_one == theory_for_kind(EXP_RATIO, D, 1.0, N10).bias
        assert at_zero == theory_for_kind(EXP_PRODUCT, D, 1.0, N10).bias

    def test_unbiased_kind_has_zero_bias(self):
        assert theory_for_kind(UNBIASED, D, 1.0, N10).bias == 0.0

    def test_unsupported_kinds_rejected(self):
        # No first-order bias expression is implemented for these kinds.
        assert theory_for_kind(ISAKI_RATIO, D, 1.0, N10).bias is None
        for kind in TWO_PHASE_KINDS:
            weight = 0.5 if kind.is_combined else None
            assert theory_for_kind(kind, D, 1.0, N10_25, weight=weight).bias is None


class TestTwoPhaseMse:
    def test_builtin_frozen_values(self):
        assert theory_for_kind(EXP_RATIO_TWO_PHASE, D, 1.0, N10_25).mse == (
            pytest.approx(0.086158, rel=1e-12)
        )
        assert theory_for_kind(EXP_PRODUCT_TWO_PHASE, D, 1.0, N10_25).mse == (
            pytest.approx(0.227914, rel=1e-12)
        )

    def test_nprime_required(self):
        with pytest.raises(InvalidDesignError):
            theory_for_kind(EXP_RATIO_TWO_PHASE, D, 1.0, DesignSizes(10))

    def test_single_phase_kind_ignores_nprime(self):
        # The unbiased baseline of a two-phase table relies on this.
        for kind in SINGLE_PHASE_KINDS:
            weight = 0.5 if kind.is_combined else None
            got = theory_for_kind(kind, D, 1.0, N10_25, weight=weight)
            assert got == theory_for_kind(kind, D, 1.0, N10, weight=weight)

    def test_theta_factor_structure(self):
        # Two-phase MSE = Var(s_y^2) + S_y^4 * (1/n - 1/n') * bracket,
        # with the same bracket as the single-phase estimator.
        rng = np.random.default_rng(14)
        pop = random_population(rng, 60)
        d = delta_table(pop)
        sy2 = pop.sy2
        sizes = DesignSizes(12, nprime=48)
        theta = 1.0 / 12 - 1.0 / 48
        base = sy2**2 / 12 * (d.d400 - 1.0)
        refs = reference_brackets(d, 0.6)
        assert theory_for_kind(EXP_RATIO_TWO_PHASE, d, sy2, sizes).mse == pytest.approx(
            base + sy2**2 * theta * refs["exp-ratio"], rel=1e-12
        )
        assert theory_for_kind(
            EXP_PRODUCT_TWO_PHASE, d, sy2, sizes
        ).mse == pytest.approx(base + sy2**2 * theta * refs["exp-product"], rel=1e-12)
        assert theory_for_kind(
            COMBINED_TWO_PHASE, d, sy2, sizes, weight=0.6
        ).mse == pytest.approx(base + sy2**2 * theta * refs["combined"], rel=1e-12)

    def test_bias_not_reported(self):
        assert theory_for_kind(EXP_RATIO_TWO_PHASE, D, 1.0, N10_25).bias is None

    def test_formula_ids(self):
        assert theory_for_kind(EXP_RATIO_TWO_PHASE, D, 1.0, N10_25).formula_id == (
            "mse:exp-ratio-2p:as-published"
        )
        assert theory_for_kind(EXP_PRODUCT_TWO_PHASE, D, 1.0, N10_25).formula_id == (
            "mse:exp-product-2p:as-published"
        )
        assert theory_for_kind(
            COMBINED_TWO_PHASE, D, 1.0, N10_25, weight=0.5
        ).formula_id == ("mse:combined-2p:corrected")


class TestReductionIdentities:
    """Exact collapse/reduction identities; tolerance 1e-12 or bitwise."""

    def test_combined_mse_collapse_is_bitwise(self):
        for d in [D, delta_table(random_population(np.random.default_rng(2), 50))]:
            for sizes in [N10, DesignSizes(33)]:
                at_one = theory_for_kind(COMBINED, d, 1.3, sizes, weight=1.0).mse
                at_zero = theory_for_kind(COMBINED, d, 1.3, sizes, weight=0.0).mse
                assert at_one == theory_for_kind(EXP_RATIO, d, 1.3, sizes).mse
                assert at_zero == theory_for_kind(EXP_PRODUCT, d, 1.3, sizes).mse

    def test_combined_two_phase_mse_collapse_is_bitwise(self):
        sizes = N10_25
        at_one = theory_for_kind(COMBINED_TWO_PHASE, D, 1.0, sizes, weight=1.0).mse
        at_zero = theory_for_kind(COMBINED_TWO_PHASE, D, 1.0, sizes, weight=0.0).mse
        assert at_one == theory_for_kind(EXP_RATIO_TWO_PHASE, D, 1.0, sizes).mse
        assert at_zero == theory_for_kind(EXP_PRODUCT_TWO_PHASE, D, 1.0, sizes).mse

    def test_two_phase_reduces_to_single_phase_as_nprime_grows(self):
        # With 1/n' := 0 the two-phase MSE is the single-phase one.
        huge = DesignSizes(10, nprime=10**18)
        pairs = [
            (EXP_RATIO_TWO_PHASE, EXP_RATIO),
            (EXP_PRODUCT_TWO_PHASE, EXP_PRODUCT),
            (COMBINED_TWO_PHASE, COMBINED),
        ]
        for two_phase_kind, single_kind in pairs:
            weight = 0.7 if two_phase_kind.is_combined else None
            got = theory_for_kind(two_phase_kind, D, 1.0, huge, weight=weight).mse
            want = theory_for_kind(single_kind, D, 1.0, N10, weight=weight).mse
            assert got == pytest.approx(want, rel=1e-12)

    def test_equal_phases_reduce_to_unbiased(self):
        # theta = 0: the auxiliary carries no information beyond phase one.
        sizes = DesignSizes(10, nprime=10)
        for kind in TWO_PHASE_KINDS:
            weight = 0.7 if kind.is_combined else None
            got = theory_for_kind(kind, D, 1.0, sizes, weight=weight).mse
            assert got == theory_for_kind(UNBIASED, D, 1.0, N10).mse


class TestOptimalWeight:
    def test_builtin_optimum_frozen(self):
        weight, mse = min_mse_combined(D, 1.0, N10)
        assert weight == pytest.approx(1.0371742985766907, rel=1e-15)
        assert mse == pytest.approx(0.05884610010913558, rel=1e-15)

    def test_builtin_two_phase_optimum_frozen(self):
        weight, mse = min_mse_combined(D, 1.0, N10_25)
        assert weight == pytest.approx(1.0371742985766907, rel=1e-15)
        assert mse == pytest.approx(0.08597566006548134, rel=1e-15)

    def test_optimum_beats_grid(self):
        rng = np.random.default_rng(91)
        grid = np.arange(-1.0, 2.0 + 1e-9, 0.01)
        for _ in range(10):
            pop = random_population(rng, 70)
            d = delta_table(pop)
            sy2 = pop.sy2
            for sizes in [DesignSizes(15), DesignSizes(15, nprime=60)]:
                best_w, best_m = min_mse_combined(d, sy2, sizes)
                for w in grid:
                    m = theory_for_kind(
                        COMBINED_TWO_PHASE if sizes.nprime else COMBINED,
                        d,
                        sy2,
                        sizes,
                        weight=float(w),
                    ).mse
                    assert best_m <= m + 1e-12

    def test_curvature_positive_for_real_populations(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            pop = random_population(rng, 40)
            d = delta_table(pop)
            assert combined_curvature(d, pop.sy2, 10) > 0.0

    def test_optimum_matches_alpha_opt_plugin(self):
        rng = np.random.default_rng(23)
        pop = random_population(rng, 55)
        d = delta_table(pop)
        weight, mse = min_mse_combined(d, pop.sy2, DesignSizes(20))
        assert weight == pytest.approx(alpha_opt(d), rel=1e-14)
        direct = theory_for_kind(
            COMBINED, d, pop.sy2, DesignSizes(20), weight=weight
        ).mse
        assert mse == pytest.approx(direct, rel=1e-14)

    def test_quadratic_shape_in_weight(self):
        # MSE(w) - MSE(w_opt) == curvature/2 * (w - w_opt)^2 exactly
        # (the objective is a parabola in the weight).
        d = D
        w_opt, m_opt = min_mse_combined(d, 1.0, N10)
        curv = combined_curvature(d, 1.0, N10.n)
        for w in [-0.5, 0.2, 0.9, 1.5]:
            m = theory_for_kind(COMBINED, d, 1.0, N10, weight=w).mse
            assert m - m_opt == pytest.approx(
                0.5 * curv * (w - w_opt) ** 2, rel=1e-10
            )


class TestPre:
    def test_identity_is_100(self):
        assert pre(0.37, 0.37) == 100.0

    def test_smaller_candidate_mse_exceeds_100(self):
        assert pre(0.5, 1.0) == 200.0
        assert pre(2.0, 1.0) == 50.0

    def test_builtin_pre_values_frozen(self):
        base = theory_for_kind(UNBIASED, D, 1.0, N10).mse
        assert pre(
            theory_for_kind(ISAKI_RATIO, D, 1.0, N10).mse, base
        ) == pytest.approx(102.04624184322884, rel=1e-13)
        assert pre(
            theory_for_kind(EXP_RATIO, D, 1.0, N10).mse, base
        ) == pytest.approx(214.1504649196956, rel=1e-13)
        assert pre(
            theory_for_kind(EXP_PRODUCT, D, 1.0, N10).mse, base
        ) == pytest.approx(42.87938796926305, rel=1e-13)
        assert pre(min_mse_combined(D, 1.0, N10)[1], base) == pytest.approx(
            215.25640571775983, rel=1e-13
        )

    def test_builtin_two_phase_pre_values_frozen(self):
        base = theory_for_kind(UNBIASED, D, 1.0, N10).mse
        assert pre(
            theory_for_kind(EXP_RATIO_TWO_PHASE, D, 1.0, N10_25).mse, base
        ) == pytest.approx(147.0205900786926, rel=1e-13)
        assert pre(
            theory_for_kind(EXP_PRODUCT_TWO_PHASE, D, 1.0, N10_25).mse, base
        ) == pytest.approx(55.57798116833541, rel=1e-13)
        assert pre(min_mse_combined(D, 1.0, N10_25)[1], base) == pytest.approx(
            147.33239605665693, rel=1e-13
        )

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidInputError):
            pre(0.0, 1.0)
        with pytest.raises(InvalidInputError):
            pre(1.0, -2.0)


class TestReflectionSymmetry:
    def test_mse_and_weight_reflect(self):
        # Exchanging the roles of the auxiliaries (x with ratio form on
        # one side, z with product form on the other) maps the moment
        # table to (d040<->d004, d220 -> 2-d202, d202 -> 2-d220) and the
        # weight to 1-w; the combined MSE is invariant under the pair.
        rng = np.random.default_rng(300)
        for _ in range(15):
            pop = random_population(rng, 60)
            t = delta_table(pop)
            reflected = DeltaTable(
                d400=t.d400,
                d040=t.d004,
                d004=t.d040,
                d220=2.0 - t.d202,
                d202=2.0 - t.d220,
                d022=t.d022,
            )
            sy2 = pop.sy2
            for w in [-0.4, 0.0, 0.3, 1.0, 1.6]:
                orig = theory_for_kind(COMBINED, t, sy2, N10, weight=w).mse
                refl = theory_for_kind(
                    COMBINED, reflected, sy2, N10, weight=1.0 - w
                ).mse
                assert refl == pytest.approx(orig, rel=1e-12)
            w_orig, m_orig = min_mse_combined(t, sy2, N10)
            w_refl, m_refl = min_mse_combined(reflected, sy2, N10)
            assert w_refl == pytest.approx(1.0 - w_orig, rel=1e-10, abs=1e-12)
            assert m_refl == pytest.approx(m_orig, rel=1e-12)


class TestDesignSizes:
    def test_theta(self):
        assert DesignSizes(10, nprime=25).theta == pytest.approx(1 / 10 - 1 / 25)
        assert DesignSizes(10, nprime=10).theta == 0.0

    def test_theta_requires_nprime(self):
        with pytest.raises(InvalidDesignError):
            DesignSizes(10).theta

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            DesignSizes(1)
        with pytest.raises(InvalidInputError):
            DesignSizes(0)
        with pytest.raises(InvalidDesignError):
            DesignSizes(10, nprime=9)


class TestTheoryForKind:
    def test_dispatch_matches_direct_calls(self):
        # Each design's final expression, written out: the MSEs, golden
        # files and benchmark digests pin these bits.
        sy2, weight = 1.3, 0.6
        refs = reference_brackets(D, weight)
        refs["unbiased"] = 0.0
        for kind in SINGLE_PHASE_KINDS:
            got = theory_for_kind(kind, D, sy2, N10, weight=weight if kind.is_combined else None)
            bracket = refs[kind.family.value]
            assert got.mse == sy2 * sy2 * ((D.d400 - 1.0) + bracket) / 10
        theta = N10_25.theta
        for kind in TWO_PHASE_KINDS:
            got = theory_for_kind(kind, D, sy2, N10_25, weight=weight if kind.is_combined else None)
            bracket = refs[kind.family.value.removesuffix("-2p")]
            assert got.mse == sy2 * sy2 * ((D.d400 - 1.0) / 10 + theta * bracket)

    def test_weight_on_non_combined_rejected(self):
        with pytest.raises(InvalidInputError):
            theory_for_kind(UNBIASED, D, 1.0, N10, weight=0.5)


class TestPublishedFigures:
    def test_single_phase_reported_set(self):
        assert REPORTED_PRE_SINGLE_PHASE == {
            "unbiased": 100.0,
            "exp-ratio": 214.35,
            "exp-product": 42.9,
            "combined": 215.47,
        }

    def test_two_phase_reported_set(self):
        assert REPORTED_PRE_TWO_PHASE == {
            "unbiased": 100.0,
            "exp-ratio-2p": 1470.76,
            "exp-product-2p": 513.86,
            "combined-2p": 1472.77,
        }

    def test_builtin_design(self):
        assert BUILTIN_EXAMPLE_DESIGN.n == 10
        assert BUILTIN_EXAMPLE_DESIGN.nprime == 25
        assert BUILTIN_EXAMPLE_POPULATION_SIZE == 80

    def test_builtin_table_is_valid(self):
        assert D.violations() == []


class TestCorrectionRegistry:
    def test_twelve_entries_with_unique_ids(self):
        assert len(CORRECTIONS) == 12
        ids = [c.formula_id for c in CORRECTIONS]
        assert len(set(ids)) == 12

    def test_entries_are_documented(self):
        for c in CORRECTIONS:
            assert c.change.strip()
            assert c.forced_by.strip()

    def test_corrected_formula_ids_have_entries(self):
        # Every result tagged ":corrected" must be explained in the registry.
        table = {c.formula_id for c in CORRECTIONS}
        tagged = [
            theory_for_kind(EXP_RATIO, D, 1.0, N10).formula_id,
            theory_for_kind(COMBINED, D, 1.0, N10, weight=0.5).formula_id,
            theory_for_kind(COMBINED_TWO_PHASE, D, 1.0, N10_25, weight=0.5).formula_id,
        ]
        for formula_id in tagged:
            assert formula_id.endswith(":corrected")
            assert formula_id in table, formula_id


class TestPreAntisymmetry:
    def test_pre_product_rule(self):
        # pre(a, b) * pre(b, a) == 100^2 by construction.
        rng = np.random.default_rng(5)
        for _ in range(5):
            a, b = rng.uniform(0.1, 5.0, size=2)
            assert pre(a, b) * pre(b, a) == pytest.approx(10000.0, rel=1e-12)
