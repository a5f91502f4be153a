"""The one integer rule of every argument that takes a size, a seed, a
worker count or a moment order: any integer but a bool, numpy's
included, stored as a Python ``int``; each site keeps its exception
class for anything else."""

from __future__ import annotations

import json

import numpy as np
import pytest

from varaux import (
    EXP_RATIO,
    EXP_RATIO_TWO_PHASE,
    UNBIASED,
    DesignSizes,
    InvalidDesignError,
    InvalidInputError,
    InvalidSpecError,
    PopulationSpec,
    SimulationConfig,
    central_moment,
    draw_srswor,
    draw_two_phase,
    generate_population,
    run_simulation,
)

POP = generate_population(PopulationSpec(size=200, seed=5))


def _config(**changes):
    fields = {"n": 10, "reps": 40, "seed": 1, "estimators": (UNBIASED, EXP_RATIO)}
    return SimulationConfig(**{**fields, **changes})


def _stream():
    return np.random.default_rng(3)


#: ``(site, valid value, call taking the value, stored value of the
#: result or None, exception class of a refused value)``.
CASES = [
    ("SimulationConfig.n", 10, lambda v: _config(n=v), lambda c: c.n, InvalidInputError),
    ("SimulationConfig.reps", 40, lambda v: _config(reps=v), lambda c: c.reps, InvalidInputError),
    ("SimulationConfig.seed", 1, lambda v: _config(seed=v), lambda c: c.seed, InvalidInputError),
    (
        "SimulationConfig.nprime",
        40,
        lambda v: _config(nprime=v, estimators=(EXP_RATIO_TWO_PHASE,)),
        lambda c: c.nprime,
        InvalidInputError,
    ),
    ("DesignSizes.n", 10, lambda v: DesignSizes(v), lambda s: s.n, InvalidInputError),
    ("DesignSizes.nprime", 40, lambda v: DesignSizes(10, v), lambda s: s.nprime, InvalidInputError),
    ("PopulationSpec.size", 100, lambda v: PopulationSpec(size=v), lambda s: s.size, InvalidSpecError),
    ("PopulationSpec.seed", 3, lambda v: PopulationSpec(seed=v), lambda s: s.seed, InvalidSpecError),
    ("draw_srswor.n_pop", 200, lambda v: draw_srswor(_stream(), v, 5), None, InvalidInputError),
    ("draw_srswor.n_sample", 5, lambda v: draw_srswor(_stream(), 200, v), None, InvalidInputError),
    ("draw_two_phase.n_pop", 200, lambda v: draw_two_phase(_stream(), v, 40, 5), None, InvalidInputError),
    ("draw_two_phase.nprime", 40, lambda v: draw_two_phase(_stream(), 200, v, 5), None, InvalidDesignError),
    ("draw_two_phase.n", 5, lambda v: draw_two_phase(_stream(), 200, 40, v), None, InvalidDesignError),
    ("run_simulation.workers", 1, lambda v: run_simulation(POP, _config(), workers=v).to_json(), None, InvalidInputError),
    ("central_moment.p", 2, lambda v: central_moment(POP, v, 0, 0), None, InvalidInputError),
    ("central_moment.q", 2, lambda v: central_moment(POP, 0, v, 0), None, InvalidInputError),
    ("central_moment.r", 2, lambda v: central_moment(POP, 0, 0, v), None, InvalidInputError),
]


def _same(left, right) -> bool:
    if isinstance(left, tuple):
        return all(_same(a, b) for a, b in zip(left, right, strict=True))
    return bool(np.array_equal(left, right)) if isinstance(left, np.ndarray) else left == right


@pytest.mark.parametrize("site, value, call, stored, error", CASES, ids=[case[0] for case in CASES])
def test_every_integer_argument_follows_one_rule(site, value, call, stored, error):
    expected = call(value)
    for numpy_value in (np.int64(value), np.uint64(value)):
        result = call(numpy_value)
        assert _same(result, expected), site
        if stored is not None:
            assert type(stored(result)) is int and stored(result) == value
    for refused in (True, 2.0):
        with pytest.raises(error, match="must be"):
            call(refused)


def test_reports_and_specs_from_numpy_integers_serialize():
    config = _config(n=np.int64(10), reps=np.uint64(40), seed=np.int64(1), nprime=np.uint64(40),
                     estimators=(UNBIASED, EXP_RATIO_TWO_PHASE))
    report = run_simulation(POP, config, workers=np.int64(1))
    plain = _config(nprime=40, estimators=(UNBIASED, EXP_RATIO_TWO_PHASE))
    assert report.to_json() == run_simulation(POP, plain).to_json()
    spec = PopulationSpec(size=np.uint64(100), seed=np.int64(3))
    assert json.dumps(spec.to_dict()) == json.dumps(PopulationSpec(size=100, seed=3).to_dict())
