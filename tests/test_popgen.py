"""Synthetic population generation via a Gaussian copula."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varaux import (
    InvalidSpecError,
    Marginal,
    PopulationFormatError,
    PopulationSpec,
    delta_table,
    generate_population,
    load_population_spec,
    realized_correlations,
)

# Reference values of the default population, pinned so that any change
# to the generator or its defaults is a visible, deliberate event.
DEFAULT_POP_SY2 = 0.10025574942361175
DEFAULT_POP_DELTAS = {
    "d400": 4.469436117264167,
    "d040": 10.617143595460405,
    "d004": 6.444905537131124,
    "d220": 4.534319653464633,
    "d202": 1.4975185561230007,
    "d022": 1.086881264615807,
}


class TestMarginal:
    def test_normal_transform(self):
        m = Marginal("normal", loc=2.0, scale=3.0)
        latent = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(m.transform(latent), [-1.0, 2.0, 8.0])

    def test_lognormal_transform(self):
        m = Marginal("lognormal", loc=0.5, scale=2.0)
        latent = np.array([0.0, 1.0])
        assert np.allclose(m.transform(latent), np.exp([0.5, 2.5]))

    def test_parse_round_trip(self):
        m = Marginal.parse("lognormal:0.5:1.25")
        assert m == Marginal("lognormal", 0.5, 1.25)
        assert Marginal.parse(m.tag) == m

    def test_parse_defaults(self):
        assert Marginal.parse("normal") == Marginal("normal", 0.0, 1.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidSpecError):
            Marginal("uniform", 0.0, 1.0)

    def test_non_positive_scale_rejected(self):
        with pytest.raises(InvalidSpecError):
            Marginal("normal", 0.0, 0.0)
        with pytest.raises(InvalidSpecError):
            Marginal("normal", 0.0, -1.0)

    def test_parse_garbage_rejected(self):
        with pytest.raises(InvalidSpecError):
            Marginal.parse("lognormal:a:b")

    @pytest.mark.parametrize("field", ["loc", "scale"])
    @pytest.mark.parametrize("value", ["x", None, True, [1.0]])
    def test_non_numeric_parameters_rejected(self, field, value):
        with pytest.raises(InvalidSpecError, match=f"marginal {field} must be a number"):
            Marginal("normal", **{field: value})


class TestPopulationSpec:
    def test_defaults(self):
        spec = PopulationSpec()
        assert spec.size == 5000
        assert spec.rho_yx == 0.8
        assert spec.rho_yz == -0.6
        assert spec.rho_xz == -0.5
        assert spec.seed == 7

    def test_correlations_must_be_inside_unit_interval(self):
        with pytest.raises(InvalidSpecError):
            PopulationSpec(rho_yx=1.0)
        with pytest.raises(InvalidSpecError):
            PopulationSpec(rho_yz=-1.5)

    def test_size_validation(self):
        with pytest.raises(InvalidSpecError):
            PopulationSpec(size=1)

    def test_seed_validation(self):
        with pytest.raises(InvalidSpecError):
            PopulationSpec(seed=-1)

    def test_latent_correlation_matrix(self):
        spec = PopulationSpec(rho_yx=0.5, rho_yz=-0.25, rho_xz=-0.125)
        matrix = spec.latent_correlation()
        assert matrix.shape == (3, 3)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0)
        assert matrix[0, 1] == 0.5
        assert matrix[0, 2] == -0.25
        assert matrix[1, 2] == -0.125

    def test_dict_round_trip(self):
        spec = PopulationSpec(size=100, rho_yx=0.3, seed=11)
        again = PopulationSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_from_dict_rejects_unknown_keys(self):
        data = PopulationSpec().to_dict()
        data["typo"] = 1
        with pytest.raises(InvalidSpecError):
            PopulationSpec.from_dict(data)

    def test_load_from_json_file(self, tmp_path):
        spec = PopulationSpec(size=64, seed=3)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        assert load_population_spec(path) == spec

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(PopulationFormatError):
            load_population_spec(path)

    @pytest.mark.parametrize("value", ["abc", None, False, {"v": 0.5}])
    def test_non_numeric_correlation_rejected(self, value):
        with pytest.raises(InvalidSpecError, match="rho_yx must be a number"):
            PopulationSpec(rho_yx=value)

    @pytest.mark.parametrize(
        "data",
        [{"rho_yx": "abc"}, {"rho_yx": None}, {"marginal_y": {"family": "normal", "loc": "x"}}],
    )
    def test_load_rejects_non_numeric_values_naming_the_file(self, tmp_path, data):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(InvalidSpecError, match="spec.json: .* must be a number"):
            load_population_spec(path)

    def test_marginals_accept_tags(self):
        spec = PopulationSpec(marginal_y="normal:1:2")
        assert spec.marginal_y == Marginal("normal", 1.0, 2.0)


class TestGeneratePopulation:
    def test_deterministic_for_fixed_seed(self):
        a = generate_population(PopulationSpec(size=500))
        b = generate_population(PopulationSpec(size=500))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)

    def test_seed_changes_output(self):
        a = generate_population(PopulationSpec(size=500, seed=1))
        b = generate_population(PopulationSpec(size=500, seed=2))
        assert not np.array_equal(a.y, b.y)

    def test_size_respected(self):
        pop = generate_population(PopulationSpec(size=123))
        assert pop.size == 123

    def test_lognormal_marginals_are_positive(self, default_pop):
        assert np.all(default_pop.y > 0)
        assert np.all(default_pop.x > 0)
        assert np.all(default_pop.z > 0)

    def test_correlation_signs(self, default_pop):
        corr = realized_correlations(default_pop)
        assert corr["rho_yx"] > 0.5
        assert corr["rho_yz"] < -0.3
        assert corr["rho_xz"] < -0.2

    def test_normal_marginals_hit_latent_correlations(self):
        # With identity marginal transforms the realized correlations are
        # the latent ones up to sampling noise.
        spec = PopulationSpec(
            size=200_000,
            marginal_y="normal",
            marginal_x="normal",
            marginal_z="normal",
            seed=99,
        )
        corr = realized_correlations(generate_population(spec))
        assert corr["rho_yx"] == pytest.approx(0.8, abs=0.01)
        assert corr["rho_yz"] == pytest.approx(-0.6, abs=0.01)
        assert corr["rho_xz"] == pytest.approx(-0.5, abs=0.01)

    def test_non_positive_definite_matrix_rejected(self):
        spec = PopulationSpec(rho_yx=0.9, rho_yz=0.9, rho_xz=-0.9, size=10)
        with pytest.raises(InvalidSpecError):
            generate_population(spec)

    def test_default_population_reference_values(self, default_pop):
        assert default_pop.size == 5000
        assert default_pop.sy2 == pytest.approx(DEFAULT_POP_SY2, rel=1e-12)
        table = delta_table(default_pop)
        for name, value in DEFAULT_POP_DELTAS.items():
            assert getattr(table, name) == pytest.approx(value, rel=1e-12), name

    def test_default_population_moment_bounds_hold(self, default_pop):
        assert delta_table(default_pop).violations() == []


_correlations = st.floats(-0.95, 0.95)
_marginals = st.builds(
    Marginal, st.sampled_from(["normal", "lognormal"]), st.floats(-3.0, 3.0), st.floats(0.05, 2.0)
)


@settings(max_examples=40, deadline=None)
@given(
    spec=st.builds(
        PopulationSpec,
        size=st.integers(2, 300),
        rho_yx=_correlations,
        rho_yz=_correlations,
        rho_xz=_correlations,
        marginal_y=_marginals,
        marginal_x=_marginals,
        marginal_z=_marginals,
        seed=st.integers(0, 2**64 - 1),
    )
)
def test_generated_populations_are_realizable(spec):
    assume(np.all(np.linalg.eigvalsh(spec.latent_correlation()) > 0.0))
    assert delta_table(generate_population(spec)).violations() == []
