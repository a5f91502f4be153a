"""Central moments, delta ratios, and population I/O.

Oracle values marked exact below were computed independently with
Fraction arithmetic from the raw definition (divisor N for central
moments), so they are free of floating-point error.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_csv
from varaux import (
    MAX_MOMENT_ORDER,
    DegeneratePopulationError,
    DeltaTable,
    InvalidInputError,
    Population,
    PopulationFormatError,
    PopulationSpec,
    central_moment,
    delta,
    delta_table,
    generate_population,
    load_delta_table,
    load_population_csv,
    sample_variance,
    save_population_csv,
)
from varaux.moments import _count_lines, format_csv, fourth_moments, load_csv_rows
from helpers import count_fourth_moments, random_population


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
    @pytest.mark.parametrize("source", ["tiny", "generated"])
    def test_matches_individual_deltas(self, source, request):
        # One kernel computes both, so they agree to the last bit.  On the
        # generated population a d400 from pow(deviation, 4) differs in the
        # last bit from the squares-first one.
        if source == "tiny":
            pop = request.getfixturevalue("tiny_pop")
        else:
            pop = generate_population(PopulationSpec(size=5000, seed=2))
        table = delta_table(pop)
        assert table.d400 == delta(pop, 4, 0, 0)
        assert table.d040 == delta(pop, 0, 4, 0)
        assert table.d004 == delta(pop, 0, 0, 4)
        assert table.d220 == delta(pop, 2, 2, 0)
        assert table.d202 == delta(pop, 2, 0, 2)
        assert table.d022 == delta(pop, 0, 2, 2)

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
        path.write_text(json.dumps(table.to_dict()), encoding="utf-8")
        assert load_delta_table(path) == table

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(PopulationFormatError):
            load_delta_table(path)


class TestPopulation:
    def test_summaries_match_numpy(self, tiny_pop):
        assert tiny_pop.size == 5
        assert tiny_pop.sy2 == pytest.approx(np.var(tiny_pop.y, ddof=1), rel=1e-14)
        assert tiny_pop.sx2 == pytest.approx(np.var(tiny_pop.x, ddof=1), rel=1e-14)
        assert tiny_pop.sz2 == pytest.approx(np.var(tiny_pop.z, ddof=1), rel=1e-14)

    def test_arrays_are_read_only(self, tiny_pop):
        with pytest.raises(ValueError):
            tiny_pop.y[0] = 99.0

    def test_arrays_cannot_be_made_writeable(self, tiny_pop):
        # The cached statistics rest on the arrays never changing.
        for values in (tiny_pop.y, tiny_pop.x, tiny_pop.z):
            with pytest.raises(ValueError):
                values.setflags(write=True)

    def test_cached_variances_are_numpy_bits(self):
        pop = random_population(np.random.default_rng(8), 1001)
        for name, values in (("sy2", pop.y), ("sx2", pop.x), ("sz2", pop.z)):
            assert name not in vars(pop)
            first = getattr(pop, name)
            assert vars(pop)[name] is first
            assert getattr(pop, name) is first
            assert first == float(np.var(values, ddof=1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            Population(y=[1.0, 2.0], x=[1.0, 2.0, 3.0], z=[1.0, 2.0])

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError):
            Population(y=[1.0], x=[1.0], z=[1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            Population(y=[1.0, math.nan], x=[1.0, 2.0], z=[1.0, 2.0])


class TestDeltaTableCache:
    def test_computed_once_per_population(self, monkeypatch):
        calls = count_fourth_moments(monkeypatch)
        pop = random_population(np.random.default_rng(9), 300)
        first = delta_table(pop)
        assert delta_table(pop) is first
        assert len(calls) == 1
        assert first == DeltaTable.from_moments(*fourth_moments(pop.y, pop.x, pop.z))
        other = Population(pop.y, pop.x, pop.z)
        assert delta_table(other).to_dict() == first.to_dict()
        assert len(calls) == 2

    def test_degenerate_population_raises_on_every_call(self, monkeypatch):
        calls = count_fourth_moments(monkeypatch)
        pop = Population(y=[1.0, 2.0, 4.0], x=[3.0, 3.0, 3.0], z=[1.0, 5.0, 2.0])
        for attempt in range(1, 4):
            with pytest.raises(DegeneratePopulationError, match="'x' has zero variance"):
                delta_table(pop)
            assert len(calls) == attempt

    def test_replace_starts_with_an_empty_cache(self):
        pop = random_population(np.random.default_rng(10), 300)
        table = delta_table(pop)
        assert pop.sy2 and {"sy2", "_delta_table"} <= vars(pop).keys()
        changed = dataclasses.replace(pop, y=pop.y[::-1])
        assert not {"sy2", "sx2", "sz2", "_delta_table"} & vars(changed).keys()
        fresh = Population(changed.y, changed.x, changed.z)
        assert delta_table(changed).to_dict() == delta_table(fresh).to_dict() != table.to_dict()
        assert changed.sy2 == float(np.var(changed.y, ddof=1))


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

    def test_loaded_arrays_are_frozen_contiguous_columns(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("y,x,z\n1,2,3\n4,5,6\n7,8,9\n", encoding="utf-8")
        pop = load_population_csv(path)
        for values, expected in zip((pop.y, pop.x, pop.z), ([1, 4, 7], [2, 5, 8], [3, 6, 9])):
            assert values.tolist() == expected
            assert values.flags.c_contiguous
            with pytest.raises(ValueError):
                values.setflags(write=True)
        assert pop.sy2 == 9.0
        assert delta_table(pop) is delta_table(pop)

    def test_load_holds_the_data_once(self, tmp_path):
        # The rows are parsed into the population's own arrays: no list of
        # blocks, joined table or constructor copy sits beside them.
        path = tmp_path / "pop.csv"
        save_population_csv(random_population(np.random.default_rng(6), 200_000), path)
        tracemalloc.start()
        try:
            pop = load_population_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 3 * pop.y.nbytes

    def test_header_spanning_lines_leaves_no_spare_row(self, tmp_path):
        # csv.reader reads the quoted line break into the header, so the
        # file has one line more than header and rows.
        path = tmp_path / "pop.csv"
        path.write_text('"y\n",x,z\n1,2,3\n4,5,6\n', encoding="utf-8")
        assert load_csv_rows(path, "y,x,z", "a population").tolist() == [[1, 2, 3], [4, 5, 6]]

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
            loaded = load(path)
            first_column = loaded.y if isinstance(loaded, Population) else loaded[:, 0]
            assert first_column.tolist() == [1.0, 4.0]

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "pop.csv"
        for load, text in both_readers("y,x,z\n1,2,3\n4,5,6\n", "x,z\n1,2\n4,5\n"):
            path.write_bytes(text.encode() + b"\xff\n")
            with pytest.raises(PopulationFormatError, match="pop.csv: not UTF-8 text"):
                load(path)

    def test_non_utf8_byte_past_the_first_megabyte(self, tmp_path):
        # The handle decodes the file a buffer at a time; the bad byte
        # here is far beyond the first buffer.
        path = tmp_path / "pop.csv"
        for load, text in both_readers("y,x,z\n" + "1,2,3\n" * 200_000, "x,z\n" + "1,2\n" * 300_000):
            data = text.encode()
            assert len(data) > 1 << 20
            path.write_bytes(data + b"4,\xff\n")
            with pytest.raises(PopulationFormatError, match="pop.csv: not UTF-8 text"):
                load(path)

    def test_digit_group_underscores_are_refused(self, tmp_path):
        # float() reads "2_0" as 20.0; numpy's reader, and so varaux, does not.
        path = tmp_path / "pop.csv"
        cases = both_readers("y,x,z\n1,2,3\n4,2_0,6\n", "x,z\n1,2\n2_0,6\n")
        for (load, text), fields in zip(cases, (["4", "2_0", "6"], ["2_0", "6"])):
            path.write_text(text, encoding="utf-8")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(PopulationFormatError) as caught:
                    load(path)
            assert str(caught.value) == f"{path}: line 3: non-numeric field in {fields!r}"

    def test_quoted_line_break_is_refused(self, tmp_path):
        # csv.reader joins the two lines into one record and float() reads
        # "1\n" as 1.0; numpy's reader takes a line at a time.
        path = tmp_path / "pop.csv"
        for load, text in both_readers('y,x,z\n"1\n",2,3\n4,5,6\n', 'x,z\n"1\n",2\n4,5\n'):
            path.write_text(text, encoding="utf-8", newline="")
            with pytest.raises(PopulationFormatError, match="line 2: expected"):
                load(path)

    def test_saved_bytes_match_the_csv_module(self, tmp_path):
        awkward = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                   0.1, 1 / 3, 2.2250738585072014e-308, 123456789.12345679, -9.999999999999998e-05]
        y = np.array(awkward)
        pop = Population(y, y[::-1].copy(), np.roll(y, 4))
        path = tmp_path / "pop.csv"
        save_population_csv(pop, path)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["y", "x", "z"])
        for row in zip(pop.y, pop.x, pop.z):
            writer.writerow([repr(float(value)) for value in row])
        assert path.read_bytes() == expected.getvalue().encode("utf-8")


def _lines(count: int, width: int, bad_at: int, bad: str) -> str:
    rows = [",".join(f"{i}.{j}" for j in range(width)) for i in range(count)]
    rows[bad_at] = bad
    return "\n".join(rows) + "\n"


# Data lines after the header, for headers y,x,z and x,z.
READER_CASES = {
    "plain": ("1,2,3\n4,5,6\n", "1,2\n4,5\n"),
    "non-numeric": ("1,2,3\n4,oops,6\n7,8,9\n", "1,2\n4,oops\n7,8\n"),
    "empty-field": ("1,2,3\n4,,6\n", "1,2\n,5\n"),
    "comment-text": ("1,2,3\n3 # c,5,6\n", "1,2\n4,3 # c\n"),
    "short-row": ("1,2,3\n4,5\n7,8,9\n", "1,2\n4\n7,8\n"),
    "long-row": ("1,2,3\n4,5,6,7\n", "1,2\n4,5,6\n"),
    "wrong-width-first-row": ("1,2\n3,4\n5,6\n", "1\n3\n5\n"),
    "blank-middle": ("1,2,3\n\n4,5,6\n", "1,2\n\n4,5\n"),
    "blank-end": ("1,2,3\n4,5,6\n\n", "1,2\n4,5\n\n"),
    "blank-only": ("\n", "\n"),
    "whitespace-line": ("1,2,3\n  \t\n4,5,6\n", "1,2\n  \t\n4,5\n"),
    "inf": ("1,2,3\n4,inf,6\n", "1,2\n-inf,5\n"),
    "nan": ("1,2,3\n4,5,nan\n", "1,2\nNaN,5\n"),
    "overflow": ("1,2,3\n1e400,5,6\n", "1,2\n4,-1e400\n"),
    "quoted": ('"1",2,"3.5"\n4,"5",6\n', '"1",2\n4,"5e-3"\n'),
    "quoted-comma": ('1,"2,5",3\n4,5,6\n', '"1,5",2\n4,5\n'),
    "spaces": (" 1 ,2,\t3\n4, 5 ,6 \n", " 1 ,2\n4,\t5 \n"),
    "crlf": ("1,2,3\r\n4,5,6\r\n", "1,2\r\n4,5\r\n"),
    "bare-cr": ("1,2,3\r4,5,6\r", "1,2\r4,5\r"),
    "no-final-newline": ("1,2,3\n4,5,6", "1,2\n4,5"),
    "awkward-numbers": ("-0.0,5e-324,1.7976931348623157e308\n1E5,+.5,-7.\n", "-0.0,5e-324\n0.30000000000000004,1e-320\n"),
    "one-row": ("1,2,3\n", "1,2\n"),
    "zero-rows": ("", ""),
    "bad-line-in-a-later-block": (_lines(9000, 3, 8500, "1,x,3"), _lines(9000, 2, 4096, "1,inf")),
    "blank-line-in-a-later-block": (_lines(9000, 3, 5000, ""), _lines(9000, 2, 8999, "")),
}


@pytest.mark.parametrize("bom", [False, True], ids=["utf8", "bom"])
@pytest.mark.parametrize("header", ["y,x,z", "x,z"])
@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_reader_matches_reference(case, header, bom, tmp_path):
    """numpy's C reader gives the per-cell reader's bits, or its error."""
    body = READER_CASES[case][header == "x,z"]
    path = tmp_path / "rows.csv"
    path.write_bytes((header + "\n" + body).encode("utf-8-sig" if bom else "utf-8"))

    def outcome(load):
        try:
            data = load(path, header, "the rows")
            return data.shape, data.tobytes()
        except (PopulationFormatError, InvalidInputError) as exc:
            return type(exc), str(exc)

    expected = outcome(reference_csv.load_csv_rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(load_csv_rows) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3)
        | st.sampled_from([(-0.0, 5e-324, -1.7976931348623157e308), (1.7976931348623157e308, -5e-324, 0.0)]),
        min_size=2,
        max_size=40,
    )
)
def test_saved_population_loads_back_bit_for_bit(rows):
    data = np.array(rows, dtype=np.float64)
    with tempfile.TemporaryDirectory() as folder:
        path = f"{folder}/pop.csv"
        save_population_csv(Population(data[:, 0], data[:, 1], data[:, 2]), path)
        assert load_csv_rows(path, "y,x,z", "a population").tobytes() == data.tobytes()


_CHUNK = 1 << 18  # the line counter's read size


@pytest.mark.parametrize(
    "text",
    ["", "a", "a\n", "a\r", "a\r\n", "\r\r\n\n", "a\rb\nc\r\nd", "\n\n\r",
     "x" * (_CHUNK - 1) + "\r\ny\r", "x" * (_CHUNK - 1) + "\rz", "x" * _CHUNK + "\n\r"],
    ids=["empty", "no-ending", "lf", "cr", "crlf", "runs", "mixed", "blank-lines",
         "crlf-across-chunks", "cr-at-chunk-end", "lf-opens-chunk"],
)
def test_line_count_matches_text_mode(text, tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes(text.encode())
    with open(path, encoding="utf-8", newline="") as handle:
        assert _count_lines(path) == len(list(handle))


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


def test_format_csv_leaves_out_keys_that_are_not_columns():
    rows = [{"kind": "combined:opt", "weight": 0.25, "mse": 1.5}]
    assert format_csv(["kind", "mse"], rows) == "kind,mse\ncombined:opt,1.5\n"


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
