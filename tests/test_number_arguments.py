"""The one number rule of every argument that takes a real: any real
number but a bool, numpy's included, finite, and above zero where the
site needs a positive one, stored as a Python ``float``; each site keeps
its exception class for anything else.  Sample and variate vectors hold
numbers by the same rule."""

from __future__ import annotations

import numpy as np
import pytest

from varaux import (
    COMBINED,
    COMBINED_TWO_PHASE,
    EXP_RATIO,
    EXP_RATIO_TWO_PHASE,
    UNBIASED,
    AuxKnowledge,
    DeltaTable,
    DesignSizes,
    EstimatorKind,
    Family,
    InvalidInputError,
    InvalidSpecError,
    Marginal,
    Population,
    PopulationFormatError,
    PopulationSpec,
    estimate_single_phase,
    estimate_two_phase,
    pre,
    sample_variance,
    single_phase_value,
    theory_for_kind,
    theory_table,
    two_phase_value,
)

Y = np.arange(10.0)
X = Y**1.5
Z = 10.0 - Y
X_FIRST = np.arange(30.0) ** 1.5
Z_FIRST = 30.0 - np.arange(30.0)
AUX = AuxKnowledge(sx2=2.0, sz2=3.0)
TABLE = {"d400": 3.0, "d040": 3.2, "d004": 2.8, "d220": 1.5, "d202": 1.2, "d022": 1.3}
DELTAS = DeltaTable(**TABLE)
SIZES = DesignSizes(10)
SINGLE = {"sy2": 1.0, "sx2": 1.5, "sz2": 2.5}
TWO = {**SINGLE, "sx2_first": 2.0, "sz2_first": 3.0}


def _single(**changes):
    return single_phase_value(COMBINED, **{**SINGLE, "aux": AUX, "weight": 0.5, **changes})


def _two(**changes):
    return two_phase_value(COMBINED_TWO_PHASE, **{**TWO, "weight": 0.5, **changes})


#: ``(site, call taking the value, stored value of the result or None,
#: exception class of a refused value, whether it must be positive,
#: an accepted integer)``.
CASES = [
    ("EstimatorKind.weight", lambda v: EstimatorKind(Family.COMBINED, v), lambda k: k.weight, InvalidInputError, False, 1),
    (
        "estimate_single_phase.weight",
        lambda v: estimate_single_phase(COMBINED, Y, X, Z, aux=AUX, weight=v),
        None,
        InvalidInputError,
        False,
        1,
    ),
    (
        "estimate_two_phase.weight",
        lambda v: estimate_two_phase(
            COMBINED_TWO_PHASE, Y, x_first=X_FIRST, z_first=Z_FIRST, x_second=X, z_second=Z, weight=v
        ),
        None,
        InvalidInputError,
        False,
        1,
    ),
    ("theory_for_kind.weight", lambda v: theory_for_kind(COMBINED, DELTAS, 1.0, SIZES, weight=v), None, InvalidInputError, False, 1),
    ("theory_table.weight", lambda v: theory_table([COMBINED], DELTAS, 1.0, SIZES, weight=v), None, InvalidInputError, False, 1),
    ("single_phase_value.weight", lambda v: _single(weight=v), None, InvalidInputError, False, 1),
    ("two_phase_value.weight", lambda v: _two(weight=v), None, InvalidInputError, False, 1),
    ("AuxKnowledge.sx2", lambda v: AuxKnowledge(sx2=v), lambda a: a.sx2, InvalidInputError, True, 1),
    ("AuxKnowledge.sz2", lambda v: AuxKnowledge(sz2=v), lambda a: a.sz2, InvalidInputError, True, 1),
    *[
        (f"single_phase_value.{name}", lambda v, name=name: _single(**{name: v}), None, InvalidInputError, False, 1)
        for name in SINGLE
    ],
    *[
        (f"two_phase_value.{name}", lambda v, name=name: _two(**{name: v}), None, InvalidInputError, False, 1)
        for name in TWO
    ],
    ("theory_for_kind.sy2", lambda v: theory_for_kind(COMBINED, DELTAS, v, SIZES, weight=0.5), None, InvalidInputError, True, 1),
    ("pre.mse_candidate", lambda v: pre(v, 2.0), None, InvalidInputError, True, 1),
    ("pre.mse_baseline", lambda v: pre(2.0, v), None, InvalidInputError, True, 1),
    *[
        (
            f"DeltaTable.{name}",
            lambda v, name=name: DeltaTable(**{**TABLE, name: v}),
            lambda t, name=name: getattr(t, name),
            InvalidInputError,
            False,
            1,
        )
        for name in TABLE
    ],
    *[
        (
            f"DeltaTable.from_dict[{name}]",
            lambda v, name=name: DeltaTable.from_dict({**TABLE, name: v}),
            lambda t, name=name: getattr(t, name),
            PopulationFormatError,
            False,
            1,
        )
        for name in TABLE
    ],
    ("Marginal.loc", lambda v: Marginal("normal", v), lambda m: m.loc, InvalidSpecError, False, 1),
    ("Marginal.scale", lambda v: Marginal("normal", 0.0, v), lambda m: m.scale, InvalidSpecError, True, 1),
    *[
        (f"PopulationSpec.{name}", lambda v, name=name: PopulationSpec(**{name: v}), lambda s, name=name: getattr(s, name),
         InvalidSpecError, False, 0)
        for name in ("rho_yx", "rho_yz", "rho_xz")
    ],
]


@pytest.mark.parametrize("site, call, stored, error, positive, whole", CASES, ids=[case[0] for case in CASES])
def test_every_real_argument_follows_one_rule(site, call, stored, error, positive, whole):
    for value in (0.5, np.float64(0.5), np.float32(0.5), np.int64(whole)):
        result = call(value)
        assert result == call(float(value)), site
        if stored is not None:
            assert type(stored(result)) is float and stored(result) == float(value)
    refused = [True, "0.5", [0.5], float("nan"), float("inf"), float("-inf"), np.float64("nan")]
    for value in refused + ([0.0] if positive else []):
        with pytest.raises(error, match="must be"):
            call(value)


@pytest.mark.parametrize(
    "value, message",
    [
        ("0.5", "must be a number, got '0.5'"),
        (True, "must be a number, got True"),
        (np.float64("nan"), "must be a finite positive number, got nan"),
        (0, "must be a finite positive number, got 0.0"),
    ],
)
def test_a_refused_number_is_shown_as_a_float(value, message):
    with pytest.raises(InvalidInputError, match=f"aux knowledge sx2 {message}$"):
        AuxKnowledge(sx2=value)


V = [1.0, 2.0, 4.0]

#: ``(site, call taking a vector of three values)``: every argument that
#: takes a sample or a variate.
VECTOR_CASES = [
    ("estimate_single_phase.y", lambda v: estimate_single_phase(UNBIASED, v)),
    ("estimate_single_phase.x", lambda v: estimate_single_phase(EXP_RATIO, V, v, aux=AUX)),
    (
        "estimate_two_phase.x_first",
        lambda v: estimate_two_phase(EXP_RATIO_TWO_PHASE, V[:2], x_first=v, x_second=V[:2]),
    ),
    ("sample_variance", lambda v: sample_variance(v)),
    ("Population.y", lambda v: Population(v, V, V[::-1]).sy2),
]


@pytest.mark.parametrize("site, call", VECTOR_CASES, ids=[case[0] for case in VECTOR_CASES])
def test_every_vector_argument_follows_the_number_rule(site, call):
    # Integers and floats of any width are real numbers, converted to float64.
    want = call(V)
    for values in ([1, 2, 4], np.array(V, dtype=np.float32), np.array([1, 2, 4], dtype=np.int8), np.array(V)):
        assert call(values) == want, site
    # Bools, strings, objects and complex numbers are refused, not converted.
    refused = [
        ["1", "2", "4"],
        ["a", "2", "4"],
        [True, False, True],
        [1.0, None, 4.0],
        [1.0, 2.0, 4.0 + 0j],
        np.array(["1", "2", "4"]),
    ]
    for values in refused:
        with pytest.raises(InvalidInputError, match="must hold real numbers, got (str32|bool|object|complex128) values"):
            call(values)
    for values in ([[1.0], [2.0, 4.0]], [[1.0, 2.0, 4.0]]):
        with pytest.raises(InvalidInputError, match="must be one-dimensional"):
            call(values)
    with pytest.raises(InvalidInputError, match="contains non-finite values"):
        call([1.0, float("nan"), 4.0])
