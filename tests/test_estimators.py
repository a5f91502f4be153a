"""Estimator kinds, sample-level estimates, and optimal weights.

The exp-ratio hand oracle below is fully worked: with sample variances
sy2=2, sx2=4 and known population Sx2=9, the adjustment factor is
exp((9-4)/(9+4)) = exp(5/13), so the estimate is 2*exp(5/13).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from varaux import (
    COMBINED,
    COMBINED_TWO_PHASE,
    EXP_PRODUCT,
    EXP_PRODUCT_TWO_PHASE,
    EXP_RATIO,
    EXP_RATIO_TWO_PHASE,
    ISAKI_RATIO,
    SINGLE_PHASE_KINDS,
    TWO_PHASE_KINDS,
    UNBIASED,
    AuxKnowledge,
    DegenerateSampleError,
    DeltaTable,
    EstimatorKind,
    Family,
    InvalidDesignError,
    InvalidInputError,
    NoUniqueOptimumError,
    alpha_opt,
    delta_table,
    estimate_single_phase,
    estimate_two_phase,
    sample_variance,
    single_phase_value,
    two_phase_value,
)
from varaux.estimators import FLAT_OBJECTIVE, _exp, evaluate
from varaux.theory import BUILTIN_EXAMPLE_DELTAS

from helpers import random_population


class TestKindParsing:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("unbiased", UNBIASED),
            ("isaki-ratio", ISAKI_RATIO),
            ("exp-ratio", EXP_RATIO),
            ("exp-product", EXP_PRODUCT),
            ("combined", COMBINED),
            ("exp-ratio-2p", EXP_RATIO_TWO_PHASE),
            ("exp-product-2p", EXP_PRODUCT_TWO_PHASE),
            ("combined-2p", COMBINED_TWO_PHASE),
        ],
    )
    def test_parse_all_tags(self, text, expected):
        assert EstimatorKind.parse(text) == expected

    def test_parse_combined_with_weight(self):
        kind = EstimatorKind.parse("combined:0.6")
        assert kind.is_combined
        assert kind.weight == 0.6
        assert kind.label == "combined:0.6"

    def test_parse_combined_opt(self):
        kind = EstimatorKind.parse("combined:opt")
        assert kind.is_combined
        assert kind.weight is None
        assert kind.label == "combined:opt"

    def test_parse_round_trips_label(self):
        for text in ["unbiased", "exp-ratio-2p", "combined:0.25", "combined-2p:opt", "combined:0.123456789"]:
            kind = EstimatorKind.parse(text)
            assert EstimatorKind.parse(kind.label) == kind
        third = EstimatorKind(Family.COMBINED_2P, 1 / 3)
        assert EstimatorKind.parse(third.label) == third

    def test_parse_rejects_unknown(self):
        with pytest.raises(InvalidInputError):
            EstimatorKind.parse("mystery")

    def test_parse_rejects_weight_on_non_combined(self):
        with pytest.raises(InvalidInputError):
            EstimatorKind.parse("exp-ratio:0.5")

    def test_parse_rejects_non_finite_weight(self):
        with pytest.raises(InvalidInputError):
            EstimatorKind.parse("combined:inf")

    def test_weight_only_for_combined(self):
        with pytest.raises(InvalidInputError):
            EstimatorKind(Family.EXP_RATIO, weight=0.5)

    def test_family_must_be_enum_member(self):
        with pytest.raises(InvalidInputError):
            EstimatorKind("exp-ratio", weight=0.5)

    def test_flags(self):
        assert UNBIASED.uses_x is False and UNBIASED.uses_z is False
        assert EXP_RATIO.uses_x and not EXP_RATIO.uses_z
        assert EXP_PRODUCT.uses_z and not EXP_PRODUCT.uses_x
        assert COMBINED.uses_x and COMBINED.uses_z and COMBINED.is_combined
        assert all(k.is_two_phase for k in TWO_PHASE_KINDS)
        assert not any(k.is_two_phase for k in SINGLE_PHASE_KINDS)


_X = ("sx2", "sample variance of x is zero; the estimator is undefined")
_Z = ("sz2", "sample variance of z is zero; the estimator is undefined")
_X_FIRST = ("sx2_first", "first-phase sample variance of x is zero; the estimator is undefined")
_Z_FIRST = ("sz2_first", "first-phase sample variance of z is zero; the estimator is undefined")

#: Each family's two-phase, combined, uses-x and uses-z flags, and the
#: ``(variance name, message)`` checks of the variances it divides by,
#: in checking order; the kinds' flags read the family's own.
FAMILY_FACTS = {
    Family.UNBIASED: (False, False, False, False, ()),
    Family.ISAKI_RATIO: (False, False, True, False, (_X,)),
    Family.EXP_RATIO: (False, False, True, False, (_X,)),
    Family.EXP_PRODUCT: (False, False, False, True, (_Z,)),
    Family.COMBINED: (False, True, True, True, (_X, _Z)),
    Family.EXP_RATIO_2P: (True, False, True, False, (_X_FIRST, _X)),
    Family.EXP_PRODUCT_2P: (True, False, False, True, (_Z_FIRST, _Z)),
    Family.COMBINED_2P: (True, True, True, True, (_X_FIRST, _X, _Z_FIRST, _Z)),
}


@pytest.mark.parametrize("family", list(Family), ids=lambda family: family.value)
def test_family_facts(family):
    kind = EstimatorKind(family)
    facts = (kind.is_two_phase, kind.is_combined, kind.uses_x, kind.uses_z, family.divisors)
    assert facts == FAMILY_FACTS[family]
    assert (family.two_phase, family.uses_x, family.uses_z) == (kind.is_two_phase, kind.uses_x, kind.uses_z)
    assert family.form == family.value.removesuffix("-2p")


class TestSinglePhaseValues:
    def test_exp_ratio_hand_oracle(self):
        got = single_phase_value(EXP_RATIO, sy2=2.0, sx2=4.0, aux=AuxKnowledge(sx2=9.0))
        assert got == pytest.approx(2.0 * math.exp(5.0 / 13.0), rel=1e-15)

    def test_exp_product_hand_oracle(self):
        # Product form: exp((obs - ref)/(obs + ref)) with z statistics.
        got = single_phase_value(
            EXP_PRODUCT, sy2=2.0, sz2=4.0, aux=AuxKnowledge(sz2=9.0)
        )
        assert got == pytest.approx(2.0 * math.exp(-5.0 / 13.0), rel=1e-15)

    def test_isaki_ratio_hand_oracle(self):
        got = single_phase_value(
            ISAKI_RATIO, sy2=2.0, sx2=4.0, aux=AuxKnowledge(sx2=9.0)
        )
        assert got == pytest.approx(2.0 * 9.0 / 4.0, rel=1e-15)

    def test_unbiased_passthrough(self):
        assert single_phase_value(UNBIASED, sy2=3.25) == 3.25
        assert type(single_phase_value(UNBIASED, sy2=np.float32(3.25))) is float

    def test_combined_is_weighted_arithmetic_blend(self):
        aux = AuxKnowledge(sx2=9.0, sz2=5.0)
        ratio = single_phase_value(EXP_RATIO, sy2=2.0, sx2=4.0, aux=aux)
        product = single_phase_value(EXP_PRODUCT, sy2=2.0, sz2=7.0, aux=aux)
        for weight in [-0.5, 0.0, 0.3, 1.0, 1.7]:
            combined = single_phase_value(
                COMBINED, sy2=2.0, sx2=4.0, sz2=7.0, aux=aux, weight=weight
            )
            # sy2 * (w * ratio_factor + (1-w) * product_factor)
            want = weight * ratio + (1.0 - weight) * product
            assert combined == pytest.approx(want, rel=1e-13)

    def test_combined_weight_collapse_is_bitwise(self):
        aux = AuxKnowledge(sx2=9.0, sz2=5.0)
        ratio = single_phase_value(EXP_RATIO, sy2=2.0, sx2=4.0, aux=aux)
        product = single_phase_value(EXP_PRODUCT, sy2=2.0, sz2=7.0, aux=aux)
        at_one = single_phase_value(
            COMBINED, sy2=2.0, sx2=4.0, sz2=7.0, aux=aux, weight=1.0
        )
        at_zero = single_phase_value(
            COMBINED, sy2=2.0, sx2=4.0, sz2=7.0, aux=aux, weight=0.0
        )
        assert at_one == ratio
        assert at_zero == product

    def test_degenerate_auxiliary_sample(self):
        aux = AuxKnowledge(sx2=9.0)
        with pytest.raises(DegenerateSampleError):
            single_phase_value(EXP_RATIO, sy2=2.0, sx2=0.0, aux=aux)

    @pytest.mark.parametrize("kind", [ISAKI_RATIO, EXP_RATIO], ids=lambda kind: kind.label)
    @pytest.mark.parametrize("sx2", [-1.0, -0.999])
    def test_negative_auxiliary_variance_is_refused(self, kind, sx2):
        # The engine's variances are never negative; the public values
        # still refuse them rather than divide by zero or overflow.
        with pytest.raises(DegenerateSampleError, match="sample variance of x is zero"):
            single_phase_value(kind, sy2=1.0, sx2=sx2, aux=AuxKnowledge(sx2=1.0))


class TestTwoPhaseValues:
    def test_exp_ratio_two_phase_hand_oracle(self):
        got = two_phase_value(EXP_RATIO_TWO_PHASE, sy2=2.0, sx2=4.0, sx2_first=9.0)
        assert got == pytest.approx(2.0 * math.exp(5.0 / 13.0), rel=1e-15)

    def test_first_phase_at_population_matches_single_phase(self):
        # When the first-phase statistic happens to equal the known
        # population value, the two-phase estimate is the single-phase one.
        aux = AuxKnowledge(sx2=9.0, sz2=5.0)
        single = single_phase_value(
            COMBINED, sy2=2.0, sx2=4.0, sz2=7.0, aux=aux, weight=0.4
        )
        double = two_phase_value(
            COMBINED_TWO_PHASE,
            sy2=2.0,
            sx2=4.0,
            sz2=7.0,
            sx2_first=9.0,
            sz2_first=5.0,
            weight=0.4,
        )
        assert double == single

    def test_combined_two_phase_collapse(self):
        kwargs = dict(sy2=2.0, sx2=4.0, sz2=7.0, sx2_first=9.0, sz2_first=5.0)
        ratio = two_phase_value(EXP_RATIO_TWO_PHASE, sy2=2.0, sx2=4.0, sx2_first=9.0)
        product = two_phase_value(
            EXP_PRODUCT_TWO_PHASE, sy2=2.0, sz2=7.0, sz2_first=5.0
        )
        assert two_phase_value(COMBINED_TWO_PHASE, weight=1.0, **kwargs) == ratio
        assert two_phase_value(COMBINED_TWO_PHASE, weight=0.0, **kwargs) == product


@pytest.mark.parametrize(
    "kind, name",
    [
        (kind, name)
        for kind in SINGLE_PHASE_KINDS + TWO_PHASE_KINDS
        for name, _ in kind.family.divisors
    ],
    ids=lambda value: getattr(value, "label", value),
)
def test_missing_divisor_variance_is_refused(kind, name):
    # Every other number is valid, so only the missing one can fail.
    kwargs = {"sy2": 2.0, "sx2": 4.0, "sz2": 7.0, "weight": 0.4 if kind.is_combined else None}
    if kind.is_two_phase:
        value, kwargs = two_phase_value, {**kwargs, "sx2_first": 9.0, "sz2_first": 5.0}
    else:
        value, kwargs = single_phase_value, {**kwargs, "aux": AuxKnowledge(sx2=9.0, sz2=5.0)}
    kwargs[name] = None
    with pytest.raises(InvalidInputError, match=f"needs the sample variance '{name}'"):
        value(kind, **kwargs)


@pytest.mark.parametrize("kind", SINGLE_PHASE_KINDS + TWO_PHASE_KINDS, ids=lambda kind: kind.label)
def test_missing_sy2_is_refused(kind):
    kwargs = {"sy2": None, "sx2": 4.0, "sz2": 7.0, "weight": 0.4 if kind.is_combined else None}
    if kind.is_two_phase:
        value, kwargs = two_phase_value, {**kwargs, "sx2_first": 9.0, "sz2_first": 5.0}
    else:
        value, kwargs = single_phase_value, {**kwargs, "aux": AuxKnowledge(sx2=9.0, sz2=5.0)}
    with pytest.raises(InvalidInputError, match="needs the sample variance 'sy2'"):
        value(kind, **kwargs)


class TestOptimalWeight:
    def test_builtin_value_frozen(self):
        # Derived independently from the moment table; regression-pinned.
        assert alpha_opt(BUILTIN_EXAMPLE_DELTAS) == pytest.approx(
            1.0371742985766907, rel=1e-15
        )

    def test_degenerate_denominator(self):
        # d040 + d004 + 2*d022 - 4 == 0 leaves no unique optimum.
        table = DeltaTable(d400=2.0, d040=1.0, d004=1.0, d220=1.0, d202=1.0, d022=1.0)
        with pytest.raises(NoUniqueOptimumError):
            alpha_opt(table)

    def test_reflection_antisymmetry(self):
        # Swapping the roles of the two auxiliaries means exchanging the
        # kurtosis entries and reflecting the cross-moment deviations about
        # 1 (a ratio factor in x behaves like a product factor in a
        # negatively associated z, whose cross moment sits on the other
        # side of 1).  Under that reflection the optimal weight maps to
        # 1 - alpha_opt.
        rng = np.random.default_rng(31)
        for _ in range(20):
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
            assert alpha_opt(reflected) == pytest.approx(
                1.0 - alpha_opt(t), rel=1e-11, abs=1e-12
            )


class TestSampleEstimates:
    def make_sample(self, seed=3, size=40):
        rng = np.random.default_rng(seed)
        pop = random_population(rng, size)
        return pop.y, pop.x, pop.z

    def test_unbiased_matches_sample_variance(self):
        y, _, _ = self.make_sample()
        assert estimate_single_phase(UNBIASED, y) == sample_variance(y)

    def test_exp_ratio_matches_direct_formula(self):
        y, x, _ = self.make_sample()
        aux = AuxKnowledge(sx2=2.5)
        got = estimate_single_phase(EXP_RATIO, y, x, aux=aux)
        sy2, sx2 = sample_variance(y), sample_variance(x)
        assert got == pytest.approx(
            sy2 * math.exp((2.5 - sx2) / (2.5 + sx2)), rel=1e-14
        )

    def test_exp_product_matches_direct_formula(self):
        y, _, z = self.make_sample()
        aux = AuxKnowledge(sz2=1.5)
        got = estimate_single_phase(EXP_PRODUCT, y, z=z, aux=aux)
        sy2, sz2 = sample_variance(y), sample_variance(z)
        assert got == pytest.approx(
            sy2 * math.exp((sz2 - 1.5) / (sz2 + 1.5)), rel=1e-14
        )

    def test_missing_aux_is_reported(self):
        y, x, _ = self.make_sample()
        with pytest.raises(InvalidInputError, match="sx2"):
            estimate_single_phase(EXP_RATIO, y, x, aux=AuxKnowledge(sz2=1.0))
        with pytest.raises(InvalidInputError):
            estimate_single_phase(EXP_RATIO, y, x)

    def test_missing_variate_is_reported(self):
        y, _, _ = self.make_sample()
        with pytest.raises(InvalidInputError):
            estimate_single_phase(EXP_RATIO, y, aux=AuxKnowledge(sx2=2.0))

    def test_two_phase_kind_rejected_in_single_phase(self):
        y, x, _ = self.make_sample()
        with pytest.raises(InvalidInputError):
            estimate_single_phase(EXP_RATIO_TWO_PHASE, y, x)

    def test_combined_weight_precedence(self):
        y, x, z = self.make_sample()
        aux = AuxKnowledge(sx2=2.5, sz2=1.5)
        table = BUILTIN_EXAMPLE_DELTAS
        explicit = estimate_single_phase(
            COMBINED, y, x, z, aux=aux, weight=0.7, deltas=table
        )
        want = estimate_single_phase(COMBINED, y, x, z, aux=aux, weight=0.7)
        # Explicit weight wins over the table.
        assert explicit == want
        # A weight baked into the kind is used when no explicit one is given.
        baked = estimate_single_phase(
            EstimatorKind.parse("combined:0.7"), y, x, z, aux=aux
        )
        assert baked == want
        # A delta table yields its optimal weight.
        from_table = estimate_single_phase(COMBINED, y, x, z, aux=aux, deltas=table)
        assert from_table == estimate_single_phase(
            COMBINED, y, x, z, aux=aux, weight=alpha_opt(table)
        )

    def test_combined_plug_in_weight_from_sample(self):
        y, x, z = self.make_sample(size=60)
        aux = AuxKnowledge(sx2=2.5, sz2=1.5)
        from varaux import Population

        got = estimate_single_phase(COMBINED, y, x, z, aux=aux)
        sample_table = delta_table(Population(y=y, x=x, z=z))
        want = estimate_single_phase(
            COMBINED, y, x, z, aux=aux, weight=alpha_opt(sample_table)
        )
        assert got == want

    def test_constant_study_sample_is_legitimate(self):
        # Zero sample variance of y is a valid (if extreme) estimate; only
        # an auxiliary variance, which enters a ratio, may not degenerate.
        assert estimate_single_phase(UNBIASED, np.ones(10)) == 0.0

    def test_constant_auxiliary_sample_degenerate(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        x = np.ones(4)
        with pytest.raises(DegenerateSampleError):
            estimate_single_phase(EXP_RATIO, y, x, aux=AuxKnowledge(sx2=2.0))

    def test_plug_in_weight_of_constant_auxiliary_sample(self):
        # The same words as a failed replication of the engine.
        y, _, z = self.make_sample()
        aux = AuxKnowledge(sx2=2.5, sz2=1.5)
        with pytest.raises(DegenerateSampleError) as info:
            estimate_single_phase(COMBINED, y, np.full(y.size, 3.0), z, aux=aux)
        assert str(info.value) == "sample variate 'x' has zero variance; cannot estimate moments"

    def test_plug_in_weight_of_flat_objective(self):
        # x and z take two values, equally often: their kurtoses and their
        # cross moment are all 1, so d040 + d004 + 2*d022 - 4 == 0.
        y, _, _ = self.make_sample()
        x = np.tile([1.0, -1.0], y.size // 2)
        aux = AuxKnowledge(sx2=2.5, sz2=1.5)
        with pytest.raises(NoUniqueOptimumError) as info:
            estimate_single_phase(COMBINED, y, x, -x, aux=aux)
        assert str(info.value) == FLAT_OBJECTIVE


class TestTwoPhaseEstimates:
    def make_phases(self, seed=9, n_first=50, n_second=12):
        rng = np.random.default_rng(seed)
        pop = random_population(rng, n_first)
        idx = np.arange(n_second)
        return pop, idx

    def test_matches_direct_formula(self):
        pop, idx = self.make_phases()
        y = pop.y[idx]
        got = estimate_two_phase(
            EXP_RATIO_TWO_PHASE, y, x_first=pop.x, x_second=pop.x[idx]
        )
        sy2 = sample_variance(y)
        sx2 = sample_variance(pop.x[idx])
        sx2_first = sample_variance(pop.x)
        assert got == pytest.approx(
            sy2 * math.exp((sx2_first - sx2) / (sx2_first + sx2)), rel=1e-14
        )

    def test_first_phase_must_be_larger(self):
        pop, idx = self.make_phases(n_first=10, n_second=10)
        with pytest.raises(InvalidDesignError):
            estimate_two_phase(
                EXP_RATIO_TWO_PHASE,
                pop.y[idx],
                x_first=pop.x,
                x_second=pop.x[idx],
            )

    def test_single_phase_kind_rejected(self):
        pop, idx = self.make_phases()
        with pytest.raises(InvalidInputError):
            estimate_two_phase(
                EXP_RATIO, pop.y[idx], x_first=pop.x, x_second=pop.x[idx]
            )


class TestAuxKnowledge:
    def test_require(self):
        aux = AuxKnowledge(sx2=2.0)
        assert aux.require("sx2") == 2.0
        with pytest.raises(InvalidInputError):
            aux.require("sz2")

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidInputError):
            AuxKnowledge(sx2=0.0)
        with pytest.raises(InvalidInputError):
            AuxKnowledge(sz2=-1.0)
        with pytest.raises(InvalidInputError):
            AuxKnowledge(sx2=math.inf)


def count_exp(monkeypatch) -> list:
    """Record each ``math.exp`` call, as the estimators make them."""
    calls = []
    original = math.exp

    def counted(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(math, "exp", counted)
    return calls


class TestSharedExpFactors:
    """One :func:`evaluate` call computes each design's ratio and product
    factor once, for all of its kinds, as the engine's chunks run it."""

    ROWS = 64
    REFS = (1.3, 0.8)  # the known S_x^2 and S_z^2

    @pytest.fixture
    def block(self):
        rng = np.random.default_rng(14)
        names = ("sy2", "sx2", "sz2", "sx2_first", "sz2_first")
        return {name: rng.uniform(0.5, 2.0, self.ROWS) for name in names}

    def run(self, kinds, weights, block):
        values, failed, first = evaluate(kinds, weights, block, self.REFS)
        assert not failed.any() and first is None
        return values

    @pytest.mark.parametrize(
        "kinds, calls_per_row",
        [(SINGLE_PHASE_KINDS, 2), (SINGLE_PHASE_KINDS + TWO_PHASE_KINDS, 4)],
    )
    def test_one_exp_pass_per_factor(self, block, kinds, calls_per_row, monkeypatch):
        weights = [0.3 if kind.is_combined else None for kind in kinds]
        calls = count_exp(monkeypatch)
        together = self.run(kinds, weights, block)
        assert len(calls) == calls_per_row * self.ROWS
        # Sharing the factors moves no bit: each kind alone gives the same values.
        for kind, weight, values in zip(kinds, weights, together):
            (alone,) = self.run((kind,), (weight,), block)
            assert np.asarray(alone).tobytes() == np.asarray(values).tobytes()

    @pytest.mark.parametrize(
        "combined, ratio, product",
        [
            (COMBINED, EXP_RATIO, EXP_PRODUCT),
            (COMBINED_TWO_PHASE, EXP_RATIO_TWO_PHASE, EXP_PRODUCT_TWO_PHASE),
        ],
    )
    def test_combined_at_weights_one_and_zero_is_each_factor(self, block, combined, ratio, product):
        (at_one,) = self.run((combined,), (1.0,), block)
        (at_zero,) = self.run((combined,), (0.0,), block)
        (ratio_values,) = self.run((ratio,), (None,), block)
        (product_values,) = self.run((product,), (None,), block)
        assert at_one.tobytes() == ratio_values.tobytes()
        assert at_zero.tobytes() == product_values.tobytes()

    def test_failure_verdict_is_the_first_failed_elements_first_check(self, block):
        # Row 3 fails only exp-product's check and row 5 both kinds': the
        # verdict is read at row 3, though exp-ratio's check comes first.
        block["sx2"][5] = 0.0
        block["sz2"][[3, 5]] = 0.0
        values, failed, first = evaluate((UNBIASED, EXP_RATIO, EXP_PRODUCT), (None,) * 3, block, self.REFS)
        assert np.flatnonzero(failed).tolist() == [3, 5]
        assert first == (DegenerateSampleError, "sample variance of z is zero; the estimator is undefined")
        # Only the statistics a kind divides by are read.
        (value,), failed, first = evaluate((EXP_PRODUCT_TWO_PHASE,), (None,), {"sy2": 2.0, "sz2": 0.5, "sz2_first": 0.5}, (None, None))
        assert (value, failed.shape, bool(failed), first) == (2.0, (), False, None)


def test_array_exp_is_elementwise_math_exp():
    # Bit for bit, where np.exp may round differently (which values
    # differ depends on the host, so none is asserted here).  1.0 is the
    # argument of a zero sample variance; NaN that of 0/0.
    args = np.concatenate((np.random.default_rng(7).uniform(-1.0, 1.0, 1000), [1.0, np.nan]))
    values = _exp(args)
    expected = np.array([math.exp(arg) for arg in args.tolist()])
    assert values.dtype == np.float64 and values.shape == args.shape
    assert values.tobytes() == expected.tobytes()
    assert np.isnan(values[-1])
