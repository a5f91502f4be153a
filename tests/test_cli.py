"""End-to-end tests of the command-line interface.

These run each subcommand through click's CliRunner and check output
structure, exit codes, determinism, and agreement with direct library
calls.  Golden files under tests/data/ pin the exact output of
``theory --builtin-s5`` (single- and two-phase, optimal and fixed
weights), of ``reproduce-tables`` and of ``estimate`` for every kind, in
JSON, CSV or text, and one plug-in ``simulate`` JSON report of the small
population in tests/data/, so any numerical or schema drift fails
loudly.  The last tests run every ``varaux`` command
and every Python block of the README as written.
"""

from __future__ import annotations

import csv
import importlib.metadata
import io
import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from varaux import (
    __version__,
    BUILTIN_EXAMPLE_DELTAS,
    COMBINED,
    CORRECTIONS,
    central_moment,
    delta,
    delta_table,
    draw_two_phase,
    EXP_RATIO,
    EXP_RATIO_TWO_PHASE,
    AuxKnowledge,
    alpha_opt,
    estimate_single_phase,
    estimate_two_phase,
    generate_population,
    load_population_csv,
    load_population_spec,
    Population,
    PopulationSpec,
    run_simulation,
    save_population_csv,
    SimulationConfig,
    SINGLE_PHASE_KINDS,
    TWO_PHASE_KINDS,
    WeightPolicy,
)
from varaux import cli as cli_module
from varaux import moments as moments_module
from varaux.cli import main

DATA_DIR = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


def invoke(*args: str):
    return CliRunner().invoke(main, list(args))


def invoke_quietly(*args: str):
    """Invoke while suppressing UserWarnings raised inside the command."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return CliRunner().invoke(main, list(args))


@pytest.fixture()
def tiny_csv(tiny_pop, tmp_path):
    path = tmp_path / "tiny.csv"
    save_population_csv(tiny_pop, str(path))
    return str(path)


@pytest.fixture()
def first_phase_csv(tmp_path):
    path = tmp_path / "first.csv"
    rows = ["x,z"] + [
        f"{x},{z}"
        for x, z in zip(
            [2.0, 3.0, 5.0, 7.0, 8.0, 4.0, 6.0, 9.0],
            [9.0, 7.0, 4.0, 3.0, 2.0, 6.0, 5.0, 1.0],
        )
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def builtin_deltas_json(tmp_path):
    path = tmp_path / "deltas.json"
    path.write_text(json.dumps(BUILTIN_EXAMPLE_DELTAS.to_dict()), encoding="utf-8")
    return str(path)


def scaled_population_csv(scale: float, tmp_path) -> str:
    """A 500-unit generated population with every value times ``scale``."""
    pop = generate_population(PopulationSpec(size=500, seed=1))
    path = tmp_path / "scaled.csv"
    save_population_csv(Population(pop.y * scale, pop.x * scale, pop.z * scale), str(path))
    return str(path)


class TestVersion:
    def test_version_flag(self, monkeypatch):
        # The version must come from the package itself, not from installed
        # distribution metadata, so that it works from a source checkout.
        def not_installed(name):
            raise importlib.metadata.PackageNotFoundError(name)

        monkeypatch.setattr(importlib.metadata, "version", not_installed)
        result = invoke("--version")
        assert result.exit_code == 0, result.output
        assert "varaux" in result.stdout
        assert __version__ in result.stdout

    def test_help_lists_subcommands(self):
        result = invoke("--help")
        assert result.exit_code == 0
        for name in (
            "moments",
            "estimate",
            "theory",
            "simulate",
            "reproduce-tables",
            "gen-pop",
        ):
            assert name in result.stdout


class TestMoments:
    def test_json_values_match_library(self, tiny_pop, tiny_csv):
        result = invoke(
            "moments", "--input", tiny_csv, "--orders", "200,400", "--format", "json"
        )
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["population"]["size"] == 5
        by_order = {row["order"]: row for row in doc["orders"]}
        # bitwise agreement with direct library calls; the exact rational
        # values behind these moments are pinned in the moments tests
        assert by_order["200"]["mu"] == central_moment(tiny_pop, 2, 0, 0)
        assert by_order["400"]["mu"] == central_moment(tiny_pop, 4, 0, 0)
        assert by_order["400"]["delta"] == delta(tiny_pop, 4, 0, 0)
        assert set(doc["delta_table"]) == {
            "d400",
            "d040",
            "d004",
            "d220",
            "d202",
            "d022",
        }

    def test_text_output(self, tiny_csv):
        result = invoke("moments", "--input", tiny_csv)
        assert result.exit_code == 0
        assert "population: N=5" in result.stdout
        assert "delta table:" in result.stdout

    def test_csv_output(self, tiny_csv):
        result = invoke("moments", "--input", tiny_csv, "--format", "csv")
        assert result.exit_code == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "order,mu,delta"
        assert len(lines) == 7  # header + six default orders

    def test_out_file(self, tiny_csv, tmp_path):
        out = tmp_path / "moments.json"
        result = invoke(
            "moments", "--input", tiny_csv, "--format", "json", "--out", str(out)
        )
        assert result.exit_code == 0
        assert result.stdout == ""
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["population"]["size"] == 5

    def test_bad_order_token_exits_2(self, tiny_csv):
        result = invoke("moments", "--input", tiny_csv, "--orders", "2a0")
        assert result.exit_code == 2
        assert "bad moment order" in result.stderr

    def test_missing_input_file_exits_2(self):
        result = invoke("moments", "--input", "no-such-file.csv")
        assert result.exit_code == 2

    def test_malformed_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,x\n1,2\n", encoding="utf-8")
        result = invoke("moments", "--input", str(bad))
        assert result.exit_code == 2

    def test_digit_group_underscore_exits_2(self, tmp_path):
        # float("2_0") is 20.0, but the reader's number syntax has no underscores.
        bad = tmp_path / "bad.csv"
        bad.write_text("y,x,z\n1,2,3\n4,2_0,6\n7,8,9\n", encoding="utf-8")
        result = invoke("moments", "--input", str(bad))
        assert result.exit_code == 2
        assert result.stderr == f"error: {bad}: line 3: non-numeric field in ['4', '2_0', '6']\n"

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_badly_scaled_population_exits_2(self, scale, tmp_path):
        # Fourth powers of the deviations under- or overflow at these
        # scales, so the deltas cannot be computed: an input error.
        path = scaled_population_csv(scale, tmp_path)
        result = invoke("moments", "--input", path)
        assert result.exit_code == 2, result.output
        assert result.stderr == "error: moment d400 must be finite, got nan\n"

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    @pytest.mark.parametrize(
        "command", [["moments"], ["simulate", "--n", "20", "--reps", "10"]], ids=["moments", "simulate"]
    )
    def test_badly_scaled_population_warns_nothing(self, command, scale, tmp_path):
        # The moment kernel runs with floating-point warnings off: the
        # error line is all the user sees.
        path = scaled_population_csv(scale, tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = invoke(command[0], "--input", path, *command[1:])
        assert result.exit_code == 2, result.output
        assert [str(warning.message) for warning in caught] == []

    def test_one_pass_of_the_moment_kernel(self, tiny_csv, monkeypatch):
        # The requested orders and the delta table come from one kernel
        # pass over the population, not one or two per order.
        calls = []
        kernel = moments_module._moments

        def counting(variates, orders):
            calls.append(list(orders))
            return kernel(variates, orders)

        monkeypatch.setattr(moments_module, "_moments", counting)
        monkeypatch.setattr(cli_module, "_moments", counting)
        result = invoke("moments", "--input", tiny_csv, "--orders", "200,111,400", "--format", "json")
        assert result.exit_code == 0, result.output
        assert len(calls) == 1
        assert calls[0][:3] == [(2, 0, 0), (1, 1, 1), (4, 0, 0)]

    def test_orders_rows_agree_with_the_delta_table(self, tmp_path):
        path = tmp_path / "pop.csv"
        save_population_csv(generate_population(PopulationSpec(size=5000, seed=2)), str(path))
        result = invoke("moments", "--input", str(path), "--format", "json")
        assert result.exit_code == 0, result.output
        doc = json.loads(result.stdout)
        assert [row["order"] for row in doc["orders"]] == ["400", "040", "004", "220", "202", "022"]
        for row in doc["orders"]:
            assert row["delta"] == doc["delta_table"][f"d{row['order']}"], row["order"]


class TestEstimate:
    def test_single_phase_matches_library(self, tiny_pop, tiny_csv):
        result = invoke(
            "estimate",
            "--input",
            tiny_csv,
            "--estimators",
            "exp-ratio",
            "--sx2",
            "9.0",
            "--format",
            "json",
        )
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        expected = estimate_single_phase(
            EXP_RATIO, tiny_pop.y, tiny_pop.x, None, aux=AuxKnowledge(sx2=9.0)
        )
        assert doc["rows"][0]["kind"] == "exp-ratio"
        assert doc["rows"][0]["estimate"] == expected
        assert doc["sample"] == {"n": 5, "sy2": tiny_pop.sy2}

    def test_all_without_first_phase_is_single_phase_only(self, tiny_csv):
        result = invoke(
            "estimate",
            "--input",
            tiny_csv,
            "--estimators",
            "all",
            "--sx2",
            "6.0",
            "--sz2",
            "9.0",
            "--format",
            "json",
        )
        assert result.exit_code == 0
        kinds = [row["kind"] for row in json.loads(result.stdout)["rows"]]
        assert kinds == [
            "unbiased",
            "isaki-ratio",
            "exp-ratio",
            "exp-product",
            "combined:opt",
        ]

    def test_two_phase_matches_library(self, tiny_pop, tiny_csv, first_phase_csv):
        result = invoke(
            "estimate",
            "--input",
            tiny_csv,
            "--estimators",
            "exp-ratio-2p",
            "--first-phase",
            first_phase_csv,
            "--format",
            "json",
        )
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        x_first = [2.0, 3.0, 5.0, 7.0, 8.0, 4.0, 6.0, 9.0]
        expected = estimate_two_phase(
            EXP_RATIO_TWO_PHASE,
            tiny_pop.y,
            x_first=x_first,
            z_first=None,
            x_second=tiny_pop.x,
            z_second=None,
        )
        assert doc["rows"][0]["estimate"] == expected
        assert doc["first_phase"] == {"nprime": 8}

    def test_two_phase_without_first_phase_exits_2(self, tiny_csv):
        result = invoke(
            "estimate", "--input", tiny_csv, "--estimators", "exp-ratio-2p"
        )
        assert result.exit_code == 2
        assert "--first-phase" in result.stderr

    def test_combined_weight_sources(self, tiny_csv, builtin_deltas_json):
        result = invoke(
            "estimate",
            "--input",
            tiny_csv,
            "--estimators",
            "combined:0.8,combined",
            "--sx2",
            "6.0",
            "--sz2",
            "9.0",
            "--deltas",
            builtin_deltas_json,
            "--format",
            "json",
        )
        assert result.exit_code == 0
        rows = json.loads(result.stdout)["rows"]
        assert rows[0]["weight"] == 0.8
        assert rows[0]["weight_source"] == "fixed"
        assert rows[1]["weight"] == alpha_opt(BUILTIN_EXAMPLE_DELTAS)
        assert rows[1]["weight_source"] == "table-optimal"

    def test_combined_plugin_weight_from_sample(self, tiny_csv):
        result = invoke(
            "estimate",
            "--input",
            tiny_csv,
            "--estimators",
            "combined",
            "--sx2",
            "6.0",
            "--sz2",
            "9.0",
            "--format",
            "json",
        )
        assert result.exit_code == 0
        row = json.loads(result.stdout)["rows"][0]
        assert row["weight"] is None
        assert row["weight_source"] == "estimated from sample"
        assert isinstance(row["estimate"], float)

    @pytest.mark.parametrize("source", ["--weight", "tag", "--deltas", "none"])
    def test_reported_weight_is_the_weight_used(self, source, tiny_pop, tiny_csv, builtin_deltas_json):
        flags = {"--weight": ["--weight", "0.7"], "--deltas": ["--deltas", builtin_deltas_json]}
        result = invoke(
            "estimate",
            "--input",
            tiny_csv,
            "--estimators",
            "combined:0.3" if source == "tag" else "combined",
            "--sx2",
            "6.0",
            "--sz2",
            "9.0",
            *flags.get(source, []),
            "--format",
            "json",
        )
        assert result.exit_code == 0, result.output
        row = json.loads(result.stdout)["rows"][0]
        weight, label = {
            "--weight": (0.7, "fixed"),
            "tag": (0.3, "fixed"),
            "--deltas": (alpha_opt(BUILTIN_EXAMPLE_DELTAS), "table-optimal"),
            # The sample is the whole tiny population.
            "none": (alpha_opt(delta_table(tiny_pop)), "estimated from sample"),
        }[source]
        assert row["weight_source"] == label
        assert row["weight"] == (None if source == "none" else weight)
        assert row["estimate"] == estimate_single_phase(
            COMBINED,
            tiny_pop.y,
            tiny_pop.x,
            tiny_pop.z,
            aux=AuxKnowledge(sx2=6.0, sz2=9.0),
            weight=weight,
        )

    def test_explicit_weight_overrides_tag(self, tiny_csv):
        result = invoke(
            "estimate",
            "--input",
            tiny_csv,
            "--estimators",
            "combined:0.2",
            "--sx2",
            "6.0",
            "--sz2",
            "9.0",
            "--weight",
            "0.9",
            "--format",
            "json",
        )
        assert result.exit_code == 0
        row = json.loads(result.stdout)["rows"][0]
        assert row["weight"] == 0.9
        assert row["weight_source"] == "fixed"

    def test_fixed_weight_rows_are_labelled_with_their_weight(self, tiny_csv):
        result = invoke(
            "estimate", "--input", tiny_csv, "--estimators", "combined:0.6,combined",
            "--sx2", "6.0", "--sz2", "9.0", "--weight", "0.9", "--format", "json",
        )
        assert result.exit_code == 0, result.output
        rows = json.loads(result.stdout)["rows"]
        assert [(row["kind"], row["weight"]) for row in rows] == [("combined:0.9", 0.9)] * 2

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize(
        "name, estimators",
        [
            # every kind of both designs, combined at the table optimum
            ("all", "all"),
            # combined weights estimated from the sample, and fixed ones
            ("plugin", "combined,combined:0.8,combined-2p,combined-2p:0.3"),
        ],
    )
    def test_matches_golden(self, name, estimators, fmt, tiny_csv, first_phase_csv, builtin_deltas_json):
        args = [
            "estimate", "--input", tiny_csv, "--estimators", estimators,
            "--sx2", "5.5", "--sz2", "9.25", "--first-phase", first_phase_csv,
            "--format", fmt,
        ]
        if name == "all":
            args += ["--deltas", builtin_deltas_json]
        result = invoke(*args)
        assert result.exit_code == 0, result.output
        suffix = "txt" if fmt == "text" else fmt
        golden = (DATA_DIR / f"golden_estimate_{name}.{suffix}").read_text(encoding="utf-8")
        assert result.stdout == golden

    def test_unknown_estimator_exits_2(self, tiny_csv):
        result = invoke("estimate", "--input", tiny_csv, "--estimators", "bogus")
        assert result.exit_code == 2

    def test_empty_estimator_list_exits_2(self, tiny_csv):
        result = invoke("estimate", "--input", tiny_csv, "--estimators", ",")
        assert result.exit_code == 2
        assert result.stderr == "error: estimator list is empty\n"

    def test_bad_first_phase_header_exits_2(self, tiny_csv, tmp_path):
        bad = tmp_path / "first.csv"
        bad.write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
        result = invoke(
            "estimate",
            "--input",
            tiny_csv,
            "--estimators",
            "exp-ratio-2p",
            "--first-phase",
            str(bad),
        )
        assert result.exit_code == 2
        assert "expected header 'x,z'" in result.stderr


class TestTheory:
    def test_builtin_matches_golden(self):
        result = invoke("theory", "--builtin-s5", "--n", "10", "--format", "json")
        assert result.exit_code == 0
        golden = (DATA_DIR / "golden_theory_builtin.json").read_text(encoding="utf-8")
        assert result.stdout == golden

    @pytest.mark.parametrize(
        "golden, args",
        [
            ("golden_theory_builtin_2p.json", ["--nprime", "25", "--format", "json"]),
            ("golden_theory_alpha.csv", ["--alpha", "0.5", "--format", "csv"]),
            ("golden_theory_alpha.txt", ["--alpha", "0.5", "--format", "text"]),
        ],
    )
    def test_matches_golden(self, golden, args):
        result = invoke("theory", "--builtin-s5", "--n", "10", *args)
        assert result.exit_code == 0, result.output
        assert result.stdout == (DATA_DIR / golden).read_text(encoding="utf-8")

    def test_two_phase_rows(self):
        result = invoke(
            "theory", "--builtin-s5", "--n", "10", "--nprime", "25", "--format", "json"
        )
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        kinds = [row["kind"] for row in doc["rows"]]
        assert kinds == ["unbiased", "exp-ratio-2p", "exp-product-2p", "combined-2p:opt"]
        pres = {row["kind"]: row["pre"] for row in doc["rows"]}
        assert pres["exp-ratio-2p"] == pytest.approx(147.0205900786926, rel=1e-12)
        assert pres["exp-product-2p"] == pytest.approx(55.57798116833541, rel=1e-12)
        assert pres["combined-2p:opt"] == pytest.approx(147.33239605665693, rel=1e-12)

    def test_fixed_alpha_is_used(self):
        result = invoke(
            "theory",
            "--builtin-s5",
            "--n",
            "10",
            "--alpha",
            "0.3",
            "--format",
            "json",
        )
        assert result.exit_code == 0
        combined = [
            row for row in json.loads(result.stdout)["rows"] if "combined" in row["kind"]
        ]
        assert combined[0]["weight"] == 0.3

    @pytest.mark.parametrize(
        "args, label",
        [([], "combined:0.5"), (["--nprime", "25"], "combined-2p:0.5")],
        ids=["single-phase", "two-phase"],
    )
    def test_fixed_alpha_row_is_labelled_with_it(self, args, label):
        result = invoke("theory", "--builtin-s5", "--n", "10", "--alpha", "0.5", *args, "--format", "json")
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["rows"][-1]["kind"] == label

    def test_corrections_listing(self):
        result = invoke("theory", "--corrections", "--format", "json")
        assert result.exit_code == 0
        rows = json.loads(result.stdout)["corrections"]
        ids = [row["formula_id"] for row in rows]
        assert len(ids) == 12
        assert len(set(ids)) == 12
        assert all(row["change"] and row["forced_by"] for row in rows)

    def test_corrections_csv_parses_to_the_ledger(self):
        result = invoke("theory", "--corrections", "--format", "csv")
        assert result.exit_code == 0
        header, *rows = csv.reader(io.StringIO(result.stdout))
        assert header == ["formula_id", "change", "forced_by"]
        assert all(len(row) == 3 for row in rows)
        assert rows == [[c.formula_id, c.change, c.forced_by] for c in CORRECTIONS]

    def test_corrections_text(self):
        result = invoke("theory", "--corrections")
        assert result.exit_code == 0
        assert "forced by:" in result.stdout

    def test_deltas_and_builtin_conflict_exits_2(self, builtin_deltas_json):
        result = invoke(
            "theory", "--builtin-s5", "--deltas", builtin_deltas_json, "--n", "10"
        )
        assert result.exit_code == 2

    def test_missing_table_exits_2(self):
        result = invoke("theory", "--n", "10")
        assert result.exit_code == 2
        assert "moment table is required" in result.stderr

    def test_missing_n_exits_2(self):
        result = invoke("theory", "--builtin-s5")
        assert result.exit_code == 2
        assert "--n is required" in result.stderr

    def test_deltas_file_matches_builtin_rows(self, builtin_deltas_json):
        from_file = invoke(
            "theory", "--deltas", builtin_deltas_json, "--n", "10", "--format", "json"
        )
        builtin = invoke("theory", "--builtin-s5", "--n", "10", "--format", "json")
        assert from_file.exit_code == 0
        assert json.loads(from_file.stdout)["rows"] == json.loads(builtin.stdout)["rows"]

    def test_unrealizable_table_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"d400": 0.5, "d040": 3.0, "d004": 3.0, "d220": 1.0, "d202": 1.0, "d022": 1.0}
            ),
            encoding="utf-8",
        )
        result = invoke("theory", "--deltas", str(path), "--n", "10")
        assert result.exit_code == 2
        assert "realizability" in result.stderr


    def test_kurtosis_at_its_bound_exits_3(self, tmp_path):
        # d400 = 1 forces d220 = d202 = 1; the table is realizable, but
        # the unbiased baseline's first-order MSE is zero.
        path = tmp_path / "bound.json"
        table = {**BUILTIN_EXAMPLE_DELTAS.to_dict(), "d400": 1.0, "d220": 1.0, "d202": 1.0}
        path.write_text(json.dumps(table), encoding="utf-8")
        result = invoke("theory", "--deltas", str(path), "--n", "10")
        assert result.exit_code == 3
        assert "d400 = 1" in result.stderr
        assert "efficiencies are undefined" in result.stderr


class TestReproduceTables:
    def test_matches_golden(self):
        result = invoke("reproduce-tables", "--format", "json")
        assert result.exit_code == 0
        golden = (DATA_DIR / "golden_reproduce_tables.json").read_text(encoding="utf-8")
        assert result.stdout == golden

    @pytest.mark.parametrize("fmt, suffix", [("csv", "csv"), ("text", "txt")])
    def test_csv_and_text_match_golden(self, fmt, suffix):
        result = invoke("reproduce-tables", "--format", fmt)
        assert result.exit_code == 0
        golden = (DATA_DIR / f"golden_reproduce_tables.{suffix}").read_text(encoding="utf-8")
        assert result.stdout == golden

    def test_single_phase_rows_consistent(self):
        doc = json.loads(invoke("reproduce-tables", "--format", "json").stdout)
        for row in doc["single_phase"]["rows"]:
            assert row["status"] == "consistent"
            assert row["rel_dev_pct"] <= 1.5

    def test_two_phase_rows_flagged(self):
        doc = json.loads(invoke("reproduce-tables", "--format", "json").stdout)
        rows = {row["kind"]: row for row in doc["two_phase"]["rows"]}
        assert rows["unbiased"]["status"] == "consistent"
        for kind in ("exp-ratio-2p", "exp-product-2p", "combined-2p:opt"):
            assert rows[kind]["status"].startswith("flagged:")
            assert "inconsistent with the two-phase MSE formulas" in rows[kind]["status"]

    def test_text_format(self):
        result = invoke("reproduce-tables")
        assert result.exit_code == 0
        assert "single-phase efficiencies" in result.stdout
        assert "two-phase efficiencies" in result.stdout
        assert "inconsistent with the two-phase MSE formulas" in result.stdout


class TestSimulate:
    def test_gen_json_structure(self):
        result = invoke(
            "simulate",
            "--gen",
            "--n",
            "60",
            "--reps",
            "30",
            "--seed",
            "5",
            "--estimators",
            "exp-ratio",
            "--format",
            "json",
        )
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["population"]["size"] == 5000
        assert doc["run"]["reps"] == 30
        assert [e["kind"] for e in doc["estimators"]] == ["unbiased", "exp-ratio"]

    def test_out_file_is_deterministic(self, tmp_path):
        args = [
            "simulate",
            "--gen",
            "--n",
            "60",
            "--reps",
            "30",
            "--seed",
            "5",
            "--estimators",
            "exp-ratio",
            "--format",
            "json",
        ]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        res_a = invoke(*args, "--out", str(out_a))
        res_b = invoke(*args, "--out", str(out_b), "--workers", "2")
        assert res_a.exit_code == 0 and res_b.exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        # with --out, the human-readable summary still goes to stdout
        assert "emp MSE" in res_a.stdout

    def test_csv_format(self):
        result = invoke(
            "simulate",
            "--gen",
            "--n",
            "60",
            "--reps",
            "30",
            "--estimators",
            "exp-ratio",
            "--format",
            "csv",
        )
        assert result.exit_code == 0
        header = result.stdout.splitlines()[0]
        assert header.startswith("kind,weight_mode,weight,emp_mean")

    def test_output_is_the_library_report(self, tmp_path):
        # stdout, and the --out file in every format, are the report's
        # own to_json()/to_csv(); with --out the text format writes JSON.
        config = SimulationConfig(
            n=40, reps=20, seed=5, estimators=SINGLE_PHASE_KINDS + TWO_PHASE_KINDS,
            nprime=120, weight_policy=WeightPolicy.PLUG_IN,
        )
        report = run_simulation(generate_population(PopulationSpec()), config)
        args = [
            "simulate", "--gen", "--n", "40", "--nprime", "120", "--reps", "20",
            "--seed", "5", "--weight-policy", "plug-in",
        ]
        expected = {"json": report.to_json(), "csv": report.to_csv()}
        for fmt in ("json", "csv"):
            result = invoke(*args, "--format", fmt)
            assert result.exit_code == 0, result.output
            assert result.stdout == expected[fmt]
        for fmt, written in (("json", "json"), ("csv", "csv"), ("text", "json")):
            out = tmp_path / f"report.{fmt}"
            result = invoke(*args, "--format", fmt, "--out", str(out))
            assert result.exit_code == 0, result.output
            assert out.read_text(encoding="utf-8") == expected[written]
            assert result.stdout.startswith("population N=5000")

    def test_two_phase_kinds_enabled_by_nprime(self):
        result = invoke(
            "simulate",
            "--gen",
            "--n",
            "40",
            "--nprime",
            "120",
            "--reps",
            "20",
            "--estimators",
            "exp-ratio-2p",
            "--format",
            "json",
        )
        assert result.exit_code == 0
        kinds = [e["kind"] for e in json.loads(result.stdout)["estimators"]]
        assert kinds == ["unbiased", "exp-ratio-2p"]

    def test_population_csv_input(self, tmp_path):
        from varaux import PopulationSpec, generate_population

        pop_path = tmp_path / "pop.csv"
        save_population_csv(
            generate_population(PopulationSpec(size=400, seed=3)), str(pop_path)
        )
        result = invoke(
            "simulate",
            "--input",
            str(pop_path),
            "--n",
            "15",
            "--reps",
            "25",
            "--estimators",
            "unbiased",
            "--format",
            "json",
        )
        assert result.exit_code == 0
        assert json.loads(result.stdout)["population"]["size"] == 400

    def test_no_source_exits_2(self):
        result = invoke("simulate", "--n", "10", "--reps", "10")
        assert result.exit_code == 2
        assert "exactly one population source" in result.stderr

    def test_two_sources_exit_2(self, tmp_path):
        pop_path = tmp_path / "pop.csv"
        pop_path.write_text("y,x,z\n1,2,3\n4,5,6\n", encoding="utf-8")
        result = invoke(
            "simulate", "--gen", "--input", str(pop_path), "--n", "10", "--reps", "10"
        )
        assert result.exit_code == 2

    def test_degenerate_population_exits_3(self, tmp_path):
        rows = ["y,x,z"] + [f"5.0,{i}.0,{10 - i}.0" for i in range(10)]
        pop_path = tmp_path / "flat.csv"
        pop_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        result = invoke_quietly(
            "simulate",
            "--input",
            str(pop_path),
            "--n",
            "4",
            "--reps",
            "10",
            "--estimators",
            "unbiased",
        )
        assert result.exit_code == 3

    def test_constant_auxiliary_exits_3_even_if_no_estimator_uses_it(self, tmp_path):
        # The report's moment table needs every variate, so a constant x
        # is refused for exp-product too.
        rows = ["y,x,z"] + [f"{i}.5,2.0,{(7 * i) % 40}.0" for i in range(40)]
        pop_path = tmp_path / "flat_x.csv"
        pop_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        result = invoke_quietly(
            "simulate", "--input", str(pop_path), "--n", "4", "--reps", "10",
            "--estimators", "exp-product",
        )
        assert result.exit_code == 3
        assert "'x'" in result.output

    def test_plug_in_report_matches_golden(self):
        # n/N = 20/400; under plug-in the report's combined weight is the
        # population optimum its theory columns are evaluated at.
        result = invoke(
            "simulate", "--input", str(DATA_DIR / "population_small.csv"),
            "--n", "20", "--nprime", "60", "--reps", "3000", "--seed", "7",
            "--weight-policy", "plug-in", "--format", "json",
        )
        assert result.exit_code == 0, result.output
        golden = (DATA_DIR / "golden_simulate_plugin.json").read_text(encoding="utf-8")
        assert result.stdout == golden

    def test_census_design_exits_2(self, tmp_path):
        pop_path = tmp_path / "pop.csv"
        rows = ["y,x,z"] + [f"{i}.5,{i + 1}.0,{20 - i}.0" for i in range(10)]
        pop_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        result = invoke_quietly(
            "simulate",
            "--input",
            str(pop_path),
            "--n",
            "10",
            "--reps",
            "10",
            "--estimators",
            "unbiased",
        )
        assert result.exit_code == 2
        assert "census" in result.stderr

    def test_census_first_phase_exits_2(self):
        # The default population has 5,000 units.
        result = invoke("simulate", "--gen", "--n", "100", "--nprime", "5000", "--reps", "10")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: first-phase size nprime=5000 must be smaller than the population size 5000; "
            "a census first phase makes each two-phase kind its single-phase twin\n"
        )


class TestGenPop:
    def test_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "pop.csv"
        result = invoke(
            "gen-pop", "--out", str(out), "--size", "250", "--seed", "7"
        )
        assert result.exit_code == 0
        assert "wrote 250 units" in result.stdout
        pop = load_population_csv(str(out))
        assert pop.size == 250

    def test_same_seed_same_bytes(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            result = invoke(
                "gen-pop", "--out", str(out), "--size", "200", "--seed", "11"
            )
            assert result.exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_json_reports_spec_and_correlations(self, tmp_path):
        out = tmp_path / "pop.csv"
        result = invoke(
            "gen-pop",
            "--out",
            str(out),
            "--size",
            "400",
            "--seed",
            "2",
            "--format",
            "json",
        )
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["spec"]["size"] == 400
        assert doc["population"]["size"] == 400
        corr = doc["realized_correlations"]
        assert corr["rho_yx"] > 0
        assert corr["rho_yz"] < 0
        assert set(doc["delta_table"]) == {
            "d400",
            "d040",
            "d004",
            "d220",
            "d202",
            "d022",
        }

    def test_spec_file_with_flag_override(self, tmp_path):
        from varaux import PopulationSpec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(PopulationSpec(size=300, seed=1).to_dict()), encoding="utf-8"
        )
        out = tmp_path / "pop.csv"
        result = invoke(
            "gen-pop",
            "--out",
            str(out),
            "--spec",
            str(spec_path),
            "--size",
            "200",
            "--format",
            "json",
        )
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["spec"]["size"] == 200
        assert doc["spec"]["seed"] == 1

    def test_spec_file_population_is_the_specs_own(self, tmp_path):
        # The marginal's loc has more significant digits than the spec's
        # printed tag keeps; the population must come from the exact value.
        marginal_y = {"family": "lognormal", "loc": 0.123456789, "scale": 0.3}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"size": 50, "seed": 3, "marginal_y": marginal_y}), encoding="utf-8"
        )
        out, want = tmp_path / "pop.csv", tmp_path / "want.csv"
        result = invoke("gen-pop", "--out", str(out), "--spec", str(spec_path))
        assert result.exit_code == 0, result.output
        save_population_csv(generate_population(load_population_spec(spec_path)), want)
        assert out.read_bytes() == want.read_bytes()

    def test_printed_spec_regenerates_the_population(self, tmp_path):
        # loc and scale with more significant digits than ``:g`` keeps;
        # the other marginals print as ``:g`` does.
        marginal_y = {"family": "lognormal", "loc": 0.123456789, "scale": 0.30000001}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"size": 50, "seed": 3, "marginal_y": marginal_y}), encoding="utf-8"
        )
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        result = invoke("gen-pop", "--out", str(first), "--spec", str(spec_path), "--format", "json")
        assert result.exit_code == 0, result.output
        printed = json.loads(result.output)["spec"]
        assert printed["marginal_y"] == "lognormal:0.123456789:0.30000001"
        assert printed["marginal_x"] == "lognormal:0:0.6"
        printed_path = tmp_path / "printed.json"
        printed_path.write_text(json.dumps(printed), encoding="utf-8")
        result = invoke("gen-pop", "--out", str(again), "--spec", str(printed_path))
        assert result.exit_code == 0, result.output
        assert again.read_bytes() == first.read_bytes()

    def test_bad_marginal_exits_2(self, tmp_path):
        result = invoke(
            "gen-pop",
            "--out",
            str(tmp_path / "pop.csv"),
            "--marginal-y",
            "bogus:0:1",
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "flag, value, code, message",
        [
            ("--marginal-x", "normal:0:1e-320", 3, "variate 'x' has zero variance, standardized moments are undefined"),
            ("--marginal-y", "normal:0:1e300", 2, "moment d400 must be finite, got nan"),
            ("--marginal-y", "lognormal:1000:1", 2, "variate 'y' contains non-finite values"),
            ("--marginal-y", "normal:0:1e308", 2, "variate 'y' contains non-finite values"),
        ],
        ids=["subnormal-scale", "huge-scale", "exp-overflow", "scale-overflow"],
    )
    def test_refused_population_is_not_written(self, flag, value, code, message, tmp_path):
        # The population is refused before anything is written or
        # correlated, and the error line is all the user sees.
        out = tmp_path / "pop.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = invoke("gen-pop", "--out", str(out), flag, value)
        assert result.exit_code == code, result.output
        assert result.stderr == f"error: {message}\n"
        assert [str(warning.message) for warning in caught] == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-pop", "simulate"])
    def test_non_numeric_spec_value_exits_2(self, tmp_path, command):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"rho_yx": "abc"}), encoding="utf-8")
        if command == "gen-pop":
            args = ("gen-pop", "--out", str(tmp_path / "pop.csv"), "--spec", str(spec_path))
        else:
            args = ("simulate", "--gen-spec", str(spec_path), "--n", "10", "--reps", "10")
        result = invoke(*args)
        assert result.exit_code == 2
        assert "spec.json: rho_yx must be a number, got 'abc'" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("theory", "--builtin-s5", "--n", "10", "--format", "json", "--out"),
        ("gen-pop", "--size", "50", "--out"),
        ("simulate", "--gen", "--n", "10", "--reps", "10", "--format", "json", "--out"),
    ],
    ids=["theory", "gen-pop", "simulate"],
)
def test_unwritable_output_exits_2(args, tmp_path, monkeypatch):
    # simulate refuses the path before the run, so it never starts one.
    monkeypatch.setattr(cli_module, "run_simulation", _must_not_run)
    out = tmp_path / "missing" / "out.file"
    result = invoke(*args, str(out))
    assert result.exit_code == 2
    assert result.stderr == f"error: {out}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def _must_not_run(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize("existing", [None, "old report\n"], ids=["new", "existing"])
def test_a_refused_run_leaves_its_output_path_as_it_was(existing, tiny_csv, tmp_path):
    out = tmp_path / "r.json"
    if existing is not None:
        out.write_text(existing)
    result = invoke("simulate", "--input", tiny_csv, "--n", "1000000", "--reps", "10", "--out", str(out))
    assert result.exit_code == 2
    assert (out.read_text() if out.exists() else None) == existing


@pytest.mark.parametrize(
    "args, message",
    [
        (("--n", "1"), "sample size n must be an integer >= 2, got 1"),
        (("--n", "10", "--estimators", "bogus"), "unknown estimator kind 'bogus'"),
    ],
    ids=["n-1", "bogus-estimator"],
)
def test_simulate_refuses_arguments_before_reading_the_population(args, message, tiny_csv, monkeypatch):
    monkeypatch.setattr(cli_module, "load_population_csv", _must_not_run)
    monkeypatch.setattr(cli_module, "generate_population", _must_not_run)
    for source in (("--input", tiny_csv), ("--gen",)):
        result = invoke("simulate", *source, *args, "--reps", "10")
        assert result.exit_code == 2
        assert message in result.stderr


@pytest.mark.parametrize("kind", ["population", "first-phase", "deltas", "spec"])
def test_non_utf8_input_file_exits_2(kind, tiny_csv, tmp_path):
    path = tmp_path / "input.bin"
    path.write_bytes(b"\xff\xfe\n")
    args = {
        "population": ("moments", "--input", str(path)),
        "first-phase": (
            "estimate", "--input", tiny_csv, "--estimators", "exp-ratio-2p",
            "--first-phase", str(path),
        ),
        "deltas": ("theory", "--deltas", str(path), "--n", "10"),
        "spec": ("gen-pop", "--out", str(tmp_path / "pop.csv"), "--spec", str(path)),
    }[kind]
    result = invoke(*args)
    assert result.exit_code == 2
    assert f"{path}: not UTF-8 text" in result.stderr


def readme_commands() -> list[str]:
    """Every ``varaux`` command in the README's bash blocks, as written:
    continuation lines joined, trailing comments dropped."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split(" #")[0].strip()
            if line.startswith("varaux "):
                commands.append(line)
    return commands


def test_every_readme_command_runs(tmp_path):
    # The sample files the README reads but never writes are cut from the
    # pop.csv its first commands write, before the first command names them.
    inputs = {
        "sample.csv": lambda rows: rows[:41],
        "second_phase.csv": lambda rows: rows[:41],
        "first_phase.csv": lambda rows: ["x,z"] + [row.split(",", 1)[1] for row in rows[1:161]],
    }
    commands = readme_commands()
    assert len(commands) == 14, commands
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path):
        for command in commands:
            args = shlex.split(command)[1:]
            for name, cut in inputs.items():
                if name in args and not Path(name).exists():
                    rows = Path("pop.csv").read_text(encoding="utf-8").splitlines()
                    Path(name).write_text("\n".join(cut(rows)) + "\n", encoding="utf-8")
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (command, result.output)
        # `theory --deltas` reads the table the `moments --out` document holds.
        table = json.loads(Path("table.json").read_text(encoding="utf-8"))["delta_table"]
        result = runner.invoke(main, "theory --deltas table.json --n 100 --format json".split())
    assert json.loads(result.stdout)["deltas"] == table


def test_readme_python_blocks_run(capsys):
    # The blocks run in order in one namespace.  The second estimates from
    # samples the README leaves to the reader; they come from one nested
    # draw of the population the first block generates.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2, blocks
    namespace: dict = {}
    exec(blocks[0], namespace)
    pop = namespace["pop"]
    first, second = draw_two_phase(np.random.default_rng(1), pop.size, 400, 80)
    namespace.update(
        y_sample=pop.y[second],
        x_sample=pop.x[second],
        known_sx2=pop.sx2,
        x_first_phase=pop.x[first],
    )
    exec(blocks[1], namespace)
    assert np.isfinite(namespace["value"])
    assert namespace["report"].to_csv() in capsys.readouterr().out
