"""Refusals that no other test reaches: each call raises its class with
its message, word for word."""

from __future__ import annotations

import json

import numpy as np
import pytest

from varaux import (
    COMBINED,
    COMBINED_TWO_PHASE,
    EXP_RATIO_TWO_PHASE,
    UNBIASED,
    AuxKnowledge,
    DegeneratePopulationError,
    DeltaTable,
    EstimatorKind,
    InvalidInputError,
    InvalidSpecError,
    Marginal,
    Population,
    PopulationFormatError,
    PopulationSpec,
    SimulationConfig,
    delta,
    estimate_two_phase,
    load_delta_table,
    load_population_csv,
    single_phase_value,
)
from varaux.cli import _parse_estimator_list

Y = np.arange(10.0)
X = Y**1.5
Z = 10.0 - Y


def _empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    return load_population_csv(path)


def _load_table(data):
    def load(tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(data))
        return load_delta_table(path)

    return load


#: ``(call taking tmp_path, class, message with {tmp} for tmp_path)``.
REFUSALS = {
    "parse-weight": (
        lambda tmp: EstimatorKind.parse("combined:abc"),
        InvalidInputError,
        "cannot parse weight 'abc' in estimator tag 'combined:abc'",
    ),
    "unresolved-weight": (
        lambda tmp: single_phase_value(
            COMBINED, sy2=1.0, sx2=1.0, sz2=1.0, aux=AuxKnowledge(sx2=1.0, sz2=1.0), weight=None
        ),
        InvalidInputError,
        "combined estimator needs a resolved weight",
    ),
    "second-phase-length": (
        lambda tmp: estimate_two_phase(EXP_RATIO_TWO_PHASE, Y, x_first=np.arange(20.0), x_second=X[:9]),
        InvalidInputError,
        "sample 'x_second' has length 9, expected 10",
    ),
    "first-phase-lengths": (
        lambda tmp: estimate_two_phase(
            COMBINED_TWO_PHASE, Y, x_first=np.arange(20.0), z_first=np.arange(21.0), x_second=X, z_second=Z
        ),
        InvalidInputError,
        "first-phase samples must have a common length, got x_first:20, z_first:21",
    ),
    "table-not-an-object": (
        lambda tmp: DeltaTable.from_dict([]),
        PopulationFormatError,
        "moment table must be a JSON object, got list",
    ),
    "empty-population-csv": (
        _empty_csv,
        PopulationFormatError,
        "{tmp}/empty.csv: empty file, expected header 'y,x,z'",
    ),
    "table-missing-keys": (
        _load_table({"d400": 3.0}),
        PopulationFormatError,
        "{tmp}/table.json: moment table is missing keys: d040, d004, d220, d202, d022",
    ),
    "table-unrealizable": (
        _load_table({"d400": 0.5, "d040": 3.0, "d004": 3.0, "d220": 1.0, "d202": 1.0, "d022": 1.0}),
        InvalidInputError,
        "{tmp}/table.json: moment table violates realizability bounds: d400 = 0.5 is below 1",
    ),
    "constant-y-delta": (
        lambda tmp: delta(Population(y=np.ones(10), x=X, z=Z), 4, 0, 0),
        DegeneratePopulationError,
        "variate 'y' has zero variance, delta_400 is undefined",
    ),
    "weight-policy-string": (
        lambda tmp: SimulationConfig(n=5, reps=10, seed=1, estimators=(UNBIASED,), weight_policy="fixed"),
        InvalidInputError,
        "weight_policy must be a WeightPolicy, got 'fixed'",
    ),
    "marginal-fields": (
        lambda tmp: Marginal.parse("normal:0:1:2"),
        InvalidSpecError,
        "cannot parse marginal 'normal:0:1:2'; expected 'family[:loc[:scale]]'",
    ),
    "marginal-unknown-key": (
        lambda tmp: PopulationSpec(marginal_y={"family": "normal", "mu": 1}),
        InvalidSpecError,
        "marginal object has unknown keys: ['mu']",
    ),
    "marginal-without-family": (
        lambda tmp: PopulationSpec(marginal_y={"loc": 1}),
        InvalidSpecError,
        "marginal object needs a 'family' key",
    ),
    "marginal-number": (
        lambda tmp: PopulationSpec(marginal_y=3),
        InvalidSpecError,
        "cannot interpret 3 as a marginal",
    ),
    "spec-not-an-object": (
        lambda tmp: PopulationSpec.from_dict([]),
        InvalidSpecError,
        "population spec must be a JSON object, got list",
    ),
    # What ``estimate --estimators ,`` parses its flag with.
    "estimate-empty-list": (
        lambda tmp: _parse_estimator_list(",", two_phase_available=False),
        InvalidInputError,
        "estimator list is empty",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_names_its_cause(call, error, message, tmp_path):
    with pytest.raises(error) as caught:
        call(tmp_path)
    assert type(caught.value) is error
    assert str(caught.value) == message.format(tmp=tmp_path)
