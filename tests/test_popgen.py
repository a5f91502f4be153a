"""Synthetic population generation via a Gaussian copula."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_popgen
from varaux import (
    InvalidInputError,
    InvalidSpecError,
    Marginal,
    Population,
    PopulationFormatError,
    PopulationSpec,
    delta,
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

    @settings(max_examples=200, deadline=None)
    @given(
        family=st.sampled_from(["normal", "lognormal"]),
        loc=st.floats(allow_nan=False, allow_infinity=False),
        scale=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_tag_parses_back_to_the_same_marginal(self, family, loc, scale):
        m = Marginal(family, loc, scale)
        assert Marginal.parse(m.tag) == m

    def test_tag_is_exact(self):
        assert Marginal("lognormal", 0.123456789, 0.3).tag == "lognormal:0.123456789:0.3"


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


#: perfbench's population seed at its default workload seed 1: the first
#: word of ``SeedSequence(1)``, as ``workloads.derive_seeds`` draws it.
_PERFBENCH_POP_SEED = int(np.random.SeedSequence(1).generate_state(1, np.uint64)[0])


def _assert_same_bits(spec):
    got, want = generate_population(spec), reference_popgen.generate_population(spec)
    for name in ("y", "x", "z"):
        assert np.array_equal(getattr(got, name).view(np.uint64), getattr(want, name).view(np.uint64)), name


def _traced_peak(func, *args):
    """``func(*args)`` and the peak bytes it allocated, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        result = func(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGeneratorMatchesReference:
    @pytest.mark.parametrize("size", [2, 3, 7, 5_000, 12_345])
    @pytest.mark.parametrize(
        "marginals",
        [
            ("normal:-1.5:2", "normal:-0.25:0.5", "normal:3:1"),
            ("lognormal:-0.7:0.4", "lognormal:-2:0.6", "lognormal:0:0.5"),
            ("normal:-4:0.1", "lognormal:-0.5:1.5", "normal:0:1"),
        ],
        ids=["normal", "lognormal", "mixed"],
    )
    def test_same_bits(self, size, marginals):
        y, x, z = marginals
        _assert_same_bits(PopulationSpec(size=size, seed=size, marginal_y=y, marginal_x=x, marginal_z=z))

    @pytest.mark.parametrize("size", [5_000, 1_000_000], ids=["twophase-all,plugin-small-n", "bigpop-pool"])
    def test_same_bits_on_perfbench_specs(self, size):
        _assert_same_bits(PopulationSpec(size=size, seed=_PERFBENCH_POP_SEED))

    @pytest.mark.parametrize("variate", ["y", "x", "z"])
    def test_overflow_refused_as_before(self, variate):
        spec = PopulationSpec(size=50, seed=4, **{f"marginal_{variate}": "lognormal:700:20"})
        for generate in (generate_population, reference_popgen.generate_population):
            with pytest.raises(InvalidInputError) as refused:
                generate(spec)
            assert str(refused.value) == f"variate {variate!r} contains non-finite values"

    def test_arrays_are_frozen_contiguous_and_owned_by_the_population(self):
        pop = generate_population(PopulationSpec(size=100))
        for values in (pop.y, pop.x, pop.z):
            assert values.flags.c_contiguous and not values.flags.writeable
            with pytest.raises(ValueError):
                values.setflags(write=True)
            assert not values.base.flags.writeable

    def test_generation_holds_the_data_at_most_twice(self):
        # The latent block and the three finished columns; no shifted
        # copies or constructor copies beside them.
        pop, peak = _traced_peak(generate_population, PopulationSpec(size=200_000))
        assert peak < 2.2 * 3 * pop.y.nbytes


class TestMomentTemporaries:
    """The moment kernel's N-sized temporaries on a fresh 200,000-unit population."""

    @pytest.fixture(scope="class")
    def pop(self):
        return generate_population(PopulationSpec(size=200_000, seed=11))

    def test_delta_table_holds_three_squares_and_one_product(self, pop):
        fresh = Population(pop.y, pop.x, pop.z)
        _, peak = _traced_peak(delta_table, fresh)
        assert peak < 4.5 * pop.y.nbytes

    def test_realized_correlations_hold_three_deviations_and_one_product(self, pop):
        _, peak = _traced_peak(realized_correlations, pop)
        assert peak < 4.5 * pop.y.nbytes


class TestRealizedCorrelations:
    def test_kernel_deltas_clipped_bit_for_bit(self, default_pop):
        corr = realized_correlations(default_pop)
        for name, order in (("rho_yx", (1, 1, 0)), ("rho_yz", (1, 0, 1)), ("rho_xz", (0, 1, 1))):
            want = np.clip(delta(default_pop, *order), -1.0, 1.0)
            assert np.float64(corr[name]).view(np.uint64) == np.float64(want).view(np.uint64), name

    def test_matches_corrcoef(self, default_pop):
        corr = realized_correlations(default_pop)
        matrix = np.corrcoef(np.vstack([default_pop.y, default_pop.x, default_pop.z]))
        for name, (i, j) in (("rho_yx", (0, 1)), ("rho_yz", (0, 2)), ("rho_xz", (1, 2))):
            assert corr[name] == pytest.approx(matrix[i, j], rel=0, abs=1e-14), name

    def test_perfect_association_stays_in_range(self):
        # Unclipped, y with x = y and z = -y rounds past +-1 in about a
        # quarter of such 50-row populations.
        rng = np.random.default_rng(5)
        for _ in range(100):
            y = rng.lognormal(size=50)
            corr = realized_correlations(Population(y=y, x=y, z=-y))
            assert corr["rho_yx"] <= 1.0 and corr["rho_yz"] >= -1.0 and corr["rho_xz"] >= -1.0
            assert corr["rho_yx"] == pytest.approx(1.0) and corr["rho_xz"] == pytest.approx(-1.0)

    def test_constant_variate_gives_nan(self):
        y = np.arange(10.0)
        corr = realized_correlations(Population(y=y, x=np.full(10, 3.0), z=-y))
        assert math.isnan(corr["rho_yx"]) and math.isnan(corr["rho_xz"])
        assert corr["rho_yz"] == pytest.approx(-1.0)


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
