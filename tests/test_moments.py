"""Central moments, delta ratios, and population I/O.

Oracle values marked exact below were computed independently with
Fraction arithmetic from the raw definition (divisor N for central
moments), so they are free of floating-point error.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from varaux import (
    MAX_MOMENT_ORDER,
    DeltaTable,
    InvalidInputError,
    Population,
    PopulationFormatError,
    central_moment,
    delta,
    delta_table,
    load_delta_table,
    load_population_csv,
    sample_variance,
    save_delta_table,
    save_population_csv,
)
from varaux.moments import format_csv, fourth_moments, load_csv_rows
from helpers import random_population


def brute_central_moment(y, x, z, p, q, r) -> float:
    """Independent reference: the raw definition, plain Python sums."""
    count = len(y)
    mean_y = sum(y) / count
    mean_x = sum(x) / count
    mean_z = sum(z) / count
    return (
        sum(
            (yi - mean_y) ** p * (xi - mean_x) ** q * (zi - mean_z) ** r
            for yi, xi, zi in zip(y, x, z)
        )
        / count
    )


def brute_delta(y, x, z, p, q, r) -> float:
    m_pqr = brute_central_moment(y, x, z, p, q, r)
    m200 = brute_central_moment(y, x, z, 2, 0, 0)
    m020 = brute_central_moment(y, x, z, 0, 2, 0)
    m002 = brute_central_moment(y, x, z, 0, 0, 2)
    return m_pqr / (m200 ** (p / 2) * m020 ** (q / 2) * m002 ** (r / 2))


# Exact central moments of the tiny_pop data, from Fraction arithmetic:
# y=[1,2,3,4,6], x=[2,3,5,7,8], z=[9,7,4,3,2].
TINY_EXACT_MU = {
    (2, 0, 0): Fraction(74, 25),
    (0, 2, 0): Fraction(26, 5),
    (0, 0, 2): Fraction(34, 5),
    (4, 0, 0): Fraction(10922, 625),
    (2, 2, 0): Fraction(3061, 125),
    (2, 0, 2): Fraction(3909, 125),
    (0, 2, 2): Fraction(257, 5),
    (1, 1, 1): Fraction(14, 25),
    (3, 1, 0): Fraction(2557, 125),
}


class TestCentralMoment:
    def test_exact_oracle_values(self, tiny_pop):
        for (p, q, r), exact in TINY_EXACT_MU.items():
            got = central_moment(tiny_pop, p, q, r)
            assert got == pytest.approx(float(exact), rel=1e-14), (p, q, r)

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            size = int(rng.integers(3, 40))
            pop = random_population(rng, size)
            p, q, r = (int(v) for v in rng.integers(0, 3, size=3))
            got = central_moment(pop, p, q, r)
            want = brute_central_moment(pop.y, pop.x, pop.z, p, q, r)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_order_zero_is_one(self, tiny_pop):
        assert central_moment(tiny_pop, 0, 0, 0) == 1.0

    def test_first_central_moments_vanish(self, tiny_pop):
        assert central_moment(tiny_pop, 1, 0, 0) == pytest.approx(0.0, abs=1e-15)
        assert central_moment(tiny_pop, 0, 1, 0) == pytest.approx(0.0, abs=1e-15)
        assert central_moment(tiny_pop, 0, 0, 1) == pytest.approx(0.0, abs=1e-15)

    def test_negative_order_rejected(self, tiny_pop):
        with pytest.raises(InvalidInputError):
            central_moment(tiny_pop, -1, 0, 0)

    def test_non_integer_order_rejected(self, tiny_pop):
        with pytest.raises(InvalidInputError):
            central_moment(tiny_pop, 2.0, 0, 0)

    def test_total_order_cap(self, tiny_pop):
        with pytest.raises(InvalidInputError):
            central_moment(tiny_pop, 3, 3, 3)
        assert MAX_MOMENT_ORDER == 8
        assert central_moment(tiny_pop, 3, 3, 2) == pytest.approx(
            brute_central_moment(tiny_pop.y, tiny_pop.x, tiny_pop.z, 3, 3, 2), rel=1e-12
        )


class TestDelta:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            pop = random_population(rng, int(rng.integers(4, 30)))
            p, q, r = (int(v) for v in rng.integers(0, 3, size=3))
            got = delta(pop, p, q, r)
            want = brute_delta(pop.y, pop.x, pop.z, p, q, r)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_normalizers_are_one(self, tiny_pop):
        assert delta(tiny_pop, 2, 0, 0) == pytest.approx(1.0, rel=1e-14)
        assert delta(tiny_pop, 0, 2, 0) == pytest.approx(1.0, rel=1e-14)
        assert delta(tiny_pop, 0, 0, 2) == pytest.approx(1.0, rel=1e-14)

    def test_affine_invariance(self):
        # delta ratios are invariant to per-variate location and positive
        # scale; with all-even exponents the scale sign cannot matter either.
        rng = np.random.default_rng(2025)
        pop = random_population(rng, 60)
        moved = Population(
            y=3.5 * pop.y + 11.0,
            x=0.25 * pop.x - 4.0,
            z=-2.0 * pop.z + 1.5,
        )
        for pqr in [(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 0), (2, 0, 2), (0, 2, 2)]:
            assert delta(moved, *pqr) == pytest.approx(delta(pop, *pqr), rel=1e-12)


class TestDeltaTable:
    def test_matches_individual_deltas(self, tiny_pop):
        table = delta_table(tiny_pop)
        assert table.d400 == pytest.approx(delta(tiny_pop, 4, 0, 0), rel=1e-14)
        assert table.d040 == pytest.approx(delta(tiny_pop, 0, 4, 0), rel=1e-14)
        assert table.d004 == pytest.approx(delta(tiny_pop, 0, 0, 4), rel=1e-14)
        assert table.d220 == pytest.approx(delta(tiny_pop, 2, 2, 0), rel=1e-14)
        assert table.d202 == pytest.approx(delta(tiny_pop, 2, 0, 2), rel=1e-14)
        assert table.d022 == pytest.approx(delta(tiny_pop, 0, 2, 2), rel=1e-14)

    def test_field_names(self):
        assert DeltaTable.field_names() == (
            "d400",
            "d040",
            "d004",
            "d220",
            "d202",
            "d022",
        )

    def test_dict_round_trip(self, tiny_pop):
        table = delta_table(tiny_pop)
        again = DeltaTable.from_dict(table.to_dict())
        assert again == table

    def test_from_dict_ignores_extra_keys(self):
        data = dict(d400=2.0, d040=2.0, d004=2.0, d220=1.0, d202=1.0, d022=1.0)
        table = DeltaTable.from_dict({**data, "comment": "ignored"})
        assert table.d400 == 2.0

    def test_from_dict_missing_key(self):
        data = dict(d400=2.0, d040=2.0, d004=2.0, d220=1.0, d202=1.0)
        with pytest.raises(PopulationFormatError):
            DeltaTable.from_dict(data)

    def test_from_dict_non_numeric(self):
        data = dict(d400="big", d040=2.0, d004=2.0, d220=1.0, d202=1.0, d022=1.0)
        with pytest.raises(PopulationFormatError):
            DeltaTable.from_dict(data)

    def test_from_dict_non_finite(self):
        data = dict(d400=math.inf, d040=2.0, d004=2.0, d220=1.0, d202=1.0, d022=1.0)
        with pytest.raises(PopulationFormatError):
            DeltaTable.from_dict(data)

    def test_violations_empty_for_real_population(self, default_pop):
        assert delta_table(default_pop).violations() == []

    def test_violations_flags_kurtosis_below_one(self):
        table = DeltaTable(d400=0.5, d040=2.0, d004=2.0, d220=1.0, d202=1.0, d022=1.0)
        assert any("d400" in v for v in table.violations())

    def test_violations_flags_cross_moment_bound(self):
        # |d220 - 1| must not exceed sqrt((d400-1)(d040-1)) = 1 here.
        table = DeltaTable(d400=2.0, d040=2.0, d004=2.0, d220=3.5, d202=1.0, d022=1.0)
        assert any("d220" in v for v in table.violations())

    def test_population_tables_always_satisfy_bounds(self):
        rng = np.random.default_rng(999)
        for _ in range(25):
            pop = random_population(rng, int(rng.integers(5, 80)))
            assert delta_table(pop).violations() == []

    def test_block_rows_match_single_tables_bitwise(self):
        # fourth_moments is the one moment-table kernel: each row of a
        # C-ordered block gets the bits delta_table gives that row alone.
        rng = np.random.default_rng(3)
        y, x, z = (rng.lognormal(size=(37, 23)) for _ in range(3))
        variances, deltas = fourth_moments(y, x, z)
        for row in range(37):
            table = delta_table(Population(y[row], x[row], z[row]))
            assert [d[row] for d in deltas] == list(table.to_dict().values())
            assert [v[row] for v in variances] == [
                float(np.mean((v[row] - v[row].mean()) ** 2)) for v in (y, x, z)
            ]

    def test_json_round_trip(self, tiny_pop, tmp_path):
        table = delta_table(tiny_pop)
        path = tmp_path / "deltas.json"
        save_delta_table(table, path)
        assert load_delta_table(path) == table

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(PopulationFormatError):
            load_delta_table(path)


class TestPopulation:
    def test_summaries_match_numpy(self, tiny_pop):
        assert tiny_pop.size == 5
        assert len(tiny_pop) == 5
        assert tiny_pop.sy2 == pytest.approx(np.var(tiny_pop.y, ddof=1), rel=1e-14)
        assert tiny_pop.sx2 == pytest.approx(np.var(tiny_pop.x, ddof=1), rel=1e-14)
        assert tiny_pop.sz2 == pytest.approx(np.var(tiny_pop.z, ddof=1), rel=1e-14)

    def test_arrays_are_read_only(self, tiny_pop):
        with pytest.raises(ValueError):
            tiny_pop.y[0] = 99.0

    def test_variate_access(self, tiny_pop):
        assert np.array_equal(tiny_pop.variate("x"), tiny_pop.x)
        with pytest.raises(InvalidInputError):
            tiny_pop.variate("w")

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            Population(y=[1.0, 2.0], x=[1.0, 2.0, 3.0], z=[1.0, 2.0])

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError):
            Population(y=[1.0], x=[1.0], z=[1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            Population(y=[1.0, math.nan], x=[1.0, 2.0], z=[1.0, 2.0])


def load_first_phase_csv(path):
    return load_csv_rows(path, "x,z", "a first-phase sample")


def both_readers(population_text, first_phase_text):
    """The same case for both strict CSV inputs: header y,x,z and x,z."""
    return ((load_population_csv, population_text), (load_first_phase_csv, first_phase_text))


class TestPopulationCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        pop = random_population(rng, 37)
        path = tmp_path / "pop.csv"
        save_population_csv(pop, path)
        again = load_population_csv(path)
        assert np.array_equal(again.y, pop.y)
        assert np.array_equal(again.x, pop.x)
        assert np.array_equal(again.z, pop.z)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n", encoding="utf-8")
        with pytest.raises(PopulationFormatError):
            load_population_csv(path)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "pop.csv"
        for load, text in both_readers("y,x,z\n1,2,3\n4,oops,6\n7,8,9\n", "x,z\n1,2\n4,oops\n7,8\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(PopulationFormatError, match="line 3: non-numeric"):
                load(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "pop.csv"
        for load, text in both_readers("y,x,z\n1,2,3\n4,inf,6\n", "x,z\n1,2\n4,inf\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(PopulationFormatError, match="line 3: non-finite"):
                load(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "pop.csv"
        for load, text in both_readers("y,x,z\n1,2,3\n4,5\n", "x,z\n1,2\n4\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(PopulationFormatError, match="line 3"):
                load(path)

    def test_single_row_rejected(self, tmp_path):
        path = tmp_path / "pop.csv"
        for load, text in both_readers("y,x,z\n1,2,3\n", "x,z\n1,2\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(InvalidInputError, match="at least two data rows, found 1"):
                load(path)

    def test_zero_variance_warns(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("y,x,z\n1,2,3\n1,5,6\n1,8,9\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="zero variance"):
            load_population_csv(path)

    def test_utf8_bom_tolerated(self, tmp_path):
        path = tmp_path / "pop.csv"
        for load, text in both_readers("y,x,z\n1,2,3\n4,5,6\n", "x,z\n1,2\n4,5\n"):
            path.write_bytes(text.encode("utf-8-sig"))
            assert len(load(path)) == 2

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "pop.csv"
        for load, text in both_readers("y,x,z\n1,2,3\n4,5,6\n", "x,z\n1,2\n4,5\n"):
            path.write_bytes(text.encode() + b"\xff\n")
            with pytest.raises(PopulationFormatError, match="pop.csv: not UTF-8 text"):
                load(path)


def test_format_csv_quotes_only_cells_that_need_it():
    rows = [
        {"text": "plain", "value": 0.1, "missing": None},
        {"text": "a, b", "value": 2.5, "missing": None},
        {"text": 'say "hi"', "value": -1.0, "missing": None},
        {"text": "two\nlines", "value": 3.0, "missing": None},
    ]
    text = format_csv(["text", "value", "missing"], rows)
    assert text.startswith("text,value,missing\nplain,0.1,\n")
    assert '"say ""hi"""' in text
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[1:] == [[row["text"], repr(row["value"]), ""] for row in rows]


class TestSampleVariance:
    def test_matches_numpy(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(23)
        assert sample_variance(values) == pytest.approx(
            np.var(values, ddof=1), rel=1e-14
        )

    def test_accepts_plain_lists(self):
        assert sample_variance([1.0, 2.0, 3.0]) == pytest.approx(1.0, rel=1e-14)

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            sample_variance([1.0])

    def test_non_finite(self):
        with pytest.raises(InvalidInputError):
            sample_variance([1.0, math.nan, 2.0])

    def test_requires_one_dimension(self):
        with pytest.raises(InvalidInputError):
            sample_variance(np.ones((3, 2)))
