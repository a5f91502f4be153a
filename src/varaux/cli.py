"""Command-line interface.

Six subcommands: ``moments`` (moment tables from a population CSV),
``estimate`` (point estimates from sample files), ``theory``
(first-order bias/MSE/efficiency tables from a moment table),
``simulate`` (replicated sampling experiments), ``reproduce-tables``
(the built-in worked example, computed against the published numbers)
and ``gen-pop`` (synthetic population generation).

Exit codes: 0 success, 2 input error (bad flags, malformed files,
invalid designs), 3 numerical or degeneracy error (zero variances,
no unique optimum, failed simulation).

``--format json`` output is schema-stable and safe to script against;
``text`` output is for humans and may change.

Arguments are refused before any file is read or population generated:
every command's ``--out``, ``moments``' ``--orders``, ``estimate``'s
kinds, ``--sx2``/``--sz2``, ``--weight`` and ``--first-phase`` for a
two-phase kind, ``theory``'s sizes, ``--sy2`` and ``--alpha``, and
``simulate``'s sizes, kinds, weight policy and ``--workers``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import asdict, replace

import click

from . import __version__
from .errors import InvalidInputError, VarauxError, _finite, _integer
from .estimators import (
    COMBINED,
    EXP_PRODUCT,
    EXP_RATIO,
    SINGLE_PHASE_KINDS,
    TWO_PHASE_KINDS,
    UNBIASED,
    AuxKnowledge,
    EstimatorKind,
    _estimate,
    _row_label,
)
from .moments import (
    _FOURTH_ORDERS,
    DeltaTable,
    _check_order,
    _checked_delta,
    _moments,
    delta_table,
    format_csv,
    load_csv_rows,
    load_delta_table,
    load_population_csv,
    save_population_csv,
)
from .montecarlo import SimulationConfig, WeightPolicy, run_simulation
from .popgen import (
    PopulationSpec,
    generate_population,
    load_population_spec,
    realized_correlations,
)
from .theory import (
    BUILTIN_EXAMPLE_DELTAS,
    BUILTIN_EXAMPLE_DESIGN,
    BUILTIN_EXAMPLE_NOTES,
    BUILTIN_EXAMPLE_POPULATION_SIZE,
    CORRECTIONS,
    DesignSizes,
    REPORTED_PRE_SINGLE_PHASE,
    REPORTED_PRE_TWO_PHASE,
    theory_table,
)

_FORMAT_CHOICES = click.Choice(["json", "csv", "text"])


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _with_error_codes(func):
    """Refuse an ``out`` path that cannot be written before the command runs,
    leaving no new file; map package errors onto their exit codes, and a
    file that cannot be opened onto 2."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            out = kwargs.get("out")
            if out is not None:
                existed = os.path.exists(out)
                open(out, "a", encoding="utf-8").close()
                if not existed:
                    os.remove(out)
            return func(*args, **kwargs)
        except VarauxError as exc:
            _fail(str(exc), exc.exit_code)
        except OSError as exc:
            if exc.filename is None:
                raise
            _fail(f"{exc.filename}: {exc.strerror}", 2)

    return wrapper


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _table(columns, rows: list[dict]) -> str:
    """Text table of ``rows`` under ``columns``, a list of (row key, text
    header, cell format) triples: a header line, a rule, then one line per
    row, each column as wide as its widest cell, trailing blanks cut."""
    headers = [header for _, header, _ in columns]
    cells = [[cell(row[key]) for key, _, cell in columns] for row in rows]
    widths = [max(map(len, column)) for column in zip(headers, *cells)]
    lines = [headers, ["-" * width for width in widths], *cells]
    return "".join("  ".join(map(str.ljust, line, widths)).rstrip() + "\n" for line in lines)


def _fmt(value: float | None, digits: int = 6) -> str:
    return "-" if value is None else f"{value:.{digits}g}"


_fmt10 = functools.partial(_fmt, digits=10)
_fixed2 = "{:.2f}".format


def _render(fmt: str, out: str | None, doc: dict, columns, rows, text: str) -> None:
    """Write ``doc`` as JSON, ``rows`` as CSV under the row keys of
    ``columns`` (the list :func:`_table` takes), or ``text``."""
    if fmt == "json":
        _emit(json.dumps(doc, indent=2) + "\n", out)
    elif fmt == "csv":
        _emit(format_csv([key for key, _, _ in columns], rows), out)
    else:
        _emit(text, out)


def _population_doc(pop) -> dict:
    return {"size": pop.size, "sy2": pop.sy2, "sx2": pop.sx2, "sz2": pop.sz2}


def _parse_estimator_list(text: str, two_phase_available: bool) -> tuple[EstimatorKind, ...]:
    if text.strip().lower() == "all":
        kinds = SINGLE_PHASE_KINDS + (TWO_PHASE_KINDS if two_phase_available else ())
        return tuple(kinds)
    kinds = tuple(EstimatorKind.parse(token) for token in text.split(",") if token.strip())
    if not kinds:
        raise InvalidInputError("estimator list is empty")
    return kinds


@click.group()
@click.version_option(version=__version__, prog_name="varaux")
def main() -> None:
    """Finite-population variance estimation with auxiliary variables."""


# ---------------------------------------------------------------------------
# moments


def _parse_orders(text: str) -> list[tuple[int, int, int]]:
    tokens = [token.strip() for token in text.split(",")]
    for token in tokens:
        if len(token) != 3 or not token.isdigit():
            raise InvalidInputError(
                f"bad moment order {token!r}; expected three digits like '220'"
            )
        _check_order(*map(int, token))
    return [tuple(map(int, token)) for token in tokens]


_ORDER_COLUMNS = [("order", "order", str), ("mu", "mu", _fmt10), ("delta", "delta", _fmt10)]


@main.command("moments")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), required=True, help="Population CSV (header y,x,z).")
@click.option("--orders", default="400,040,004,220,202,022", show_default=True, help="Comma-separated pqr digit triples.")
@click.option("--format", "fmt", type=_FORMAT_CHOICES, default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write output here instead of stdout.")
@_with_error_codes
def cmd_moments(input_path: str, orders: str, fmt: str, out: str | None) -> None:
    """Central and standardized moments of a population CSV."""
    requested = _parse_orders(orders)
    pop = load_population_csv(input_path)
    # One kernel pass for every order; each delta is refused as delta
    # refuses it, in turn, and then the table as delta_table does.
    variances, mus, deltas = _moments((pop.y, pop.x, pop.z), [*requested, *_FOURTH_ORDERS])
    rows = [
        {"order": "".join(map(str, order)), "mu": float(mu), "delta": _checked_delta(order, variances, value)}
        for order, mu, value in zip(requested, mus, deltas)
    ]
    table = DeltaTable.from_moments(variances, deltas[len(requested) :])
    doc = {"population": _population_doc(pop), "orders": rows, "delta_table": table.to_dict()}
    body = [
        f"population: N={pop.size}  sy2={_fmt(pop.sy2, 10)}  "
        f"sx2={_fmt(pop.sx2, 10)}  sz2={_fmt(pop.sz2, 10)}",
        "",
        _table(_ORDER_COLUMNS, rows).rstrip(),
        "",
        "delta table: " + "  ".join(f"{k}={_fmt(v, 10)}" for k, v in table.to_dict().items()),
        "",
    ]
    _render(fmt, out, doc, _ORDER_COLUMNS, rows, "\n".join(body))


# ---------------------------------------------------------------------------
# estimate

#: The ``weight_source`` of an estimate row for each weight source.
_WEIGHT_SOURCES = {
    "none": "-",
    "fixed": "fixed",
    "optimal": "table-optimal",
    "plug-in": "estimated from sample",
}

_ESTIMATE_COLUMNS = [
    ("kind", "kind", str), ("estimate", "estimate", _fmt10), ("weight", "weight", _fmt), ("weight_source", "weight source", str)
]


@main.command("estimate")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), required=True, help="Sample CSV (header y,x,z); the second phase for two-phase kinds.")
@click.option("--estimators", default="unbiased", show_default=True, help="Comma-separated estimator kinds, e.g. 'exp-ratio,combined:0.8'.")
@click.option("--sx2", type=float, default=None, help="Known population variance of x (single-phase kinds).")
@click.option("--sz2", type=float, default=None, help="Known population variance of z (single-phase kinds).")
@click.option("--first-phase", "first_phase_path", type=click.Path(exists=True, dir_okay=False), default=None, help="First-phase auxiliary CSV (header x,z) for two-phase kinds.")
@click.option("--weight", type=float, default=None, help="Weight for combined kinds (overrides tag weights).")
@click.option("--deltas", "deltas_path", type=click.Path(exists=True, dir_okay=False), default=None, help="Moment-table JSON used to resolve optimal combined weights.")
@click.option("--format", "fmt", type=_FORMAT_CHOICES, default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_with_error_codes
def cmd_estimate(
    input_path: str,
    estimators: str,
    sx2: float | None,
    sz2: float | None,
    first_phase_path: str | None,
    weight: float | None,
    deltas_path: str | None,
    fmt: str,
    out: str | None,
) -> None:
    """Point estimates of the population variance of y from sample files."""
    kinds = _parse_estimator_list(estimators, two_phase_available=first_phase_path is not None)
    aux = AuxKnowledge(sx2=sx2, sz2=sz2) if (sx2 is not None or sz2 is not None) else None
    if weight is not None:
        _finite(weight, "weight")
    for kind in kinds:
        if kind.is_two_phase and first_phase_path is None:
            raise InvalidInputError(f"estimator {kind.label!r} needs --first-phase (header x,z)")
    deltas = load_delta_table(deltas_path) if deltas_path else None
    sample = load_population_csv(input_path)
    first = load_csv_rows(first_phase_path, "x,z", "a first-phase sample") if first_phase_path else None
    x_first, z_first = (None, None) if first is None else first.T

    rows = []
    for kind in kinds:
        # Every kind gets every column and reads only the variates it uses.
        value, used_weight, source = _estimate(
            kind, kind.is_two_phase, sample.y, sample.x, sample.z, x_first, z_first, aux, weight, deltas
        )
        rows.append(
            {
                "kind": _row_label(kind, used_weight, source),
                "estimate": value,
                "weight": used_weight,
                "weight_source": _WEIGHT_SOURCES[source],
            }
        )

    doc = {
        "sample": {"n": sample.size, "sy2": sample.sy2},
        "rows": rows,
    }
    if first is not None:
        doc["first_phase"] = {"nprime": len(first)}
    _render(fmt, out, doc, _ESTIMATE_COLUMNS, rows, _table(_ESTIMATE_COLUMNS, rows))


# ---------------------------------------------------------------------------
# theory


def _design_kinds(sizes: DesignSizes) -> list[EstimatorKind]:
    """The kinds a theory table covers: the unbiased baseline first."""
    if sizes.nprime is None:
        return list(SINGLE_PHASE_KINDS)
    return [UNBIASED] + list(TWO_PHASE_KINDS)


#: The built-in example's notes, as ``theory --builtin-s5`` and
#: ``reproduce-tables`` print them.
_NOTE_LINES = "".join(f"note: {note}\n" for note in BUILTIN_EXAMPLE_NOTES)

_THEORY_COLUMNS = [
    ("kind", "kind", str), ("weight", "weight", _fmt), ("bias", "bias", _fmt), ("mse", "mse", _fmt),
    ("pre", "pre", _fixed2), ("formula_id", "formula", str),
]

#: ``theory --corrections`` prints each formula id, then the other fields
#: under their labels.
_CORRECTION_COLUMNS = [("formula_id", "formula", str), ("change", "change", str), ("forced_by", "forced by", str)]


@main.command("theory")
@click.option("--deltas", "deltas_path", type=click.Path(exists=True, dir_okay=False), default=None, help="Moment-table JSON (keys d400,d040,d004,d220,d202,d022).")
@click.option("--builtin-s5", is_flag=True, help="Use the built-in worked-example moment table.")
@click.option("--n", type=int, default=None, help="Sample size.")
@click.option("--nprime", type=int, default=None, help="First-phase size; selects the two-phase table.")
@click.option("--sy2", type=float, default=1.0, show_default=True, help="Population variance of y.")
@click.option("--alpha", type=float, default=None, help="Fixed combined weight (default: the optimum).")
@click.option("--corrections", is_flag=True, help="Print the ledger of corrected formulas and exit.")
@click.option("--format", "fmt", type=_FORMAT_CHOICES, default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_with_error_codes
def cmd_theory(
    deltas_path: str | None,
    builtin_s5: bool,
    n: int | None,
    nprime: int | None,
    sy2: float,
    alpha: float | None,
    corrections: bool,
    fmt: str,
    out: str | None,
) -> None:
    """First-order bias, MSE and efficiency for every estimator kind."""
    if corrections:
        rows = [asdict(correction) for correction in CORRECTIONS]
        blocks = [
            row["formula_id"] + "".join(f"\n  {label + ':':<10} {row[key]}" for key, label, _ in _CORRECTION_COLUMNS[1:])
            for row in rows
        ]
        _render(fmt, out, {"corrections": rows}, _CORRECTION_COLUMNS, rows, "\n".join(blocks) + "\n")
        return
    if builtin_s5 and deltas_path:
        raise InvalidInputError("pass either --deltas or --builtin-s5, not both")
    if not builtin_s5 and not deltas_path:
        raise InvalidInputError("a moment table is required: pass --deltas FILE or --builtin-s5")
    if n is None:
        raise InvalidInputError("--n is required")
    sizes = DesignSizes(n, nprime)
    _finite(sy2, "S_y^2", positive=True)
    if alpha is not None:
        _finite(alpha, "weight")
    deltas = BUILTIN_EXAMPLE_DELTAS if builtin_s5 else load_delta_table(deltas_path)
    rows = theory_table(_design_kinds(sizes), deltas, sy2, sizes, alpha)
    doc = {
        "deltas": deltas.to_dict(),
        "design": {"n": n, "nprime": nprime},
        "sy2": sy2,
        "rows": rows,
    }
    if builtin_s5:
        doc["notes"] = list(BUILTIN_EXAMPLE_NOTES)
    notes = _NOTE_LINES + "\n" if builtin_s5 else ""
    _render(fmt, out, doc, _THEORY_COLUMNS, rows, notes + _table(_THEORY_COLUMNS, rows))


# ---------------------------------------------------------------------------
# reproduce-tables

_TWO_PHASE_FLAG = (
    "inconsistent with the two-phase MSE formulas, as printed and as corrected "
    "alike; the computed value is reported unaltered"
)

_REPRODUCTION_COLUMNS = [
    ("kind", "kind", str), ("reported_pre", "reported", _fixed2), ("computed_pre", "computed", _fixed2),
    ("rel_dev_pct", "dev %", _fixed2), ("status", "status", str),
]


def _reproduction_rows() -> tuple[list[dict], list[dict]]:
    # The published tables cover the exponential kinds and the combined
    # optimum; the plain ratio kind is not among the reported cells.
    designs = [
        ([UNBIASED, EXP_RATIO, EXP_PRODUCT, COMBINED], DesignSizes(BUILTIN_EXAMPLE_DESIGN.n), REPORTED_PRE_SINGLE_PHASE),
        (_design_kinds(BUILTIN_EXAMPLE_DESIGN), BUILTIN_EXAMPLE_DESIGN, REPORTED_PRE_TWO_PHASE),
    ]
    tables = []
    for kinds, sizes, reported in designs:
        rows = []
        for kind, row in zip(kinds, theory_table(kinds, BUILTIN_EXAMPLE_DELTAS, 1.0, sizes)):
            published = reported[kind.family.value]
            rel_dev_pct = 100.0 * (abs(row["pre"] - published) / published)
            if sizes.nprime is None:
                status = "consistent" if rel_dev_pct <= 1.5 else "DEVIATES by more than 1.5%"
            else:
                status = "consistent" if kind == UNBIASED else f"flagged: {_TWO_PHASE_FLAG}"
            rows.append(
                {
                    "kind": row["kind"],
                    "reported_pre": published,
                    "computed_pre": row["pre"],
                    "rel_dev_pct": rel_dev_pct,
                    "weight": row["weight"],
                    "status": status,
                }
            )
        tables.append(rows)
    return tuple(tables)


@main.command("reproduce-tables")
@click.option("--format", "fmt", type=_FORMAT_CHOICES, default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_with_error_codes
def cmd_reproduce_tables(fmt: str, out: str | None) -> None:
    """Recompute the published efficiency tables from the built-in moments.

    The single-phase efficiencies reproduce the published ones to
    within 1.5 percent.  The published two-phase values are roughly ten
    times what the formulas yield (the product kind does not match even
    after a decimal shift), so those cells are flagged as inconsistent
    rather than matched.
    """
    single, two = _reproduction_rows()
    doc = {
        "moments": BUILTIN_EXAMPLE_DELTAS.to_dict(),
        "population_size": BUILTIN_EXAMPLE_POPULATION_SIZE,
        "notes": list(BUILTIN_EXAMPLE_NOTES),
        "single_phase": {
            "design": {"n": BUILTIN_EXAMPLE_DESIGN.n},
            "rows": single,
        },
        "two_phase": {
            "design": {"n": BUILTIN_EXAMPLE_DESIGN.n, "nprime": BUILTIN_EXAMPLE_DESIGN.nprime},
            "rows": two,
        },
    }
    text = _NOTE_LINES
    for title, rows in (("single-phase efficiencies", single), ("two-phase efficiencies", two)):
        text += f"\n{title}\n" + _table(_REPRODUCTION_COLUMNS, rows)
    _render(fmt, out, doc, _REPRODUCTION_COLUMNS, single + two, text)


# ---------------------------------------------------------------------------
# simulate


@main.command("simulate")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), default=None, help="Population CSV; mutually exclusive with --gen/--gen-spec.")
@click.option("--gen", is_flag=True, help="Use the default synthetic population.")
@click.option("--gen-spec", "gen_spec_path", type=click.Path(exists=True, dir_okay=False), default=None, help="Synthetic population spec JSON.")
@click.option("--n", type=int, required=True, help="Sample size (second phase when --nprime is given).")
@click.option("--nprime", type=int, default=None, help="First-phase size; enables two-phase kinds, and draws a nested first phase for every kind.")
@click.option("--reps", type=int, required=True, help="Replication count.")
@click.option("--seed", type=int, default=0, show_default=True, help="Master seed (unsigned 64-bit).")
@click.option("--estimators", default="all", show_default=True, help="Comma-separated kinds, or 'all'.")
@click.option(
    "--weight-policy",
    type=click.Choice([p.value for p in WeightPolicy]),
    default=WeightPolicy.POPULATION_OPTIMAL.value,
    show_default=True,
    help="How combined weights are chosen.",
)
@click.option("--workers", type=int, default=1, show_default=True, help="Worker processes; never changes the results.")
@click.option("--format", "fmt", type=_FORMAT_CHOICES, default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the report here (json or csv).")
@_with_error_codes
def cmd_simulate(
    input_path: str | None,
    gen: bool,
    gen_spec_path: str | None,
    n: int,
    nprime: int | None,
    reps: int,
    seed: int,
    estimators: str,
    weight_policy: str,
    workers: int,
    fmt: str,
    out: str | None,
) -> None:
    """Run a replicated sampling experiment against a population."""
    sources = sum(1 for flag in (input_path, gen or None, gen_spec_path) if flag)
    if sources != 1:
        raise InvalidInputError(
            "exactly one population source is required: --input PATH, --gen, or --gen-spec PATH"
        )
    kinds = _parse_estimator_list(estimators, two_phase_available=nprime is not None)
    config = SimulationConfig(
        n=n,
        reps=reps,
        seed=seed,
        estimators=kinds,
        nprime=nprime,
        weight_policy=WeightPolicy(weight_policy),
    )
    workers = _integer(workers, "workers", 1)
    if input_path:
        pop = load_population_csv(input_path)
    else:
        spec = load_population_spec(gen_spec_path) if gen_spec_path else PopulationSpec()
        pop = generate_population(spec)
    report = run_simulation(pop, config, workers=workers)
    summary = _summary(report)
    # With --out the file gets the report (JSON in place of text) and
    # stdout the summary.
    if fmt != "text" or out is not None:
        _emit(report.to_csv() if fmt == "csv" else report.to_json(), out)
    if fmt == "text" or out is not None:
        click.echo(summary, nl=False)


def _summary(report) -> str:
    lines = [
        f"population N={report.pop_size}  sy2={_fmt(report.sy2, 8)}  "
        f"n={report.n}" + (f"  nprime={report.nprime}" if report.nprime else "")
        + f"  reps={report.reps} (used {report.reps_used}, failed {report.failed_reps})  "
        f"seed={report.seed}"
    ]
    for row in report.estimators:
        ratio = row.emp_mse / row.theory_mse
        lines.append(
            f"{row.kind:<16} emp MSE {row.emp_mse:.6e}  theory {row.theory_mse:.6e}  "
            f"(emp/theory {ratio:.3f})  emp PRE {row.emp_pre:8.2f}  theory PRE {row.theory_pre:8.2f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# gen-pop


@main.command("gen-pop")
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Population CSV to write.")
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False), default=None, help="Spec JSON; flags below override its fields.")
@click.option("--size", type=int, default=None, help="Number of units.")
@click.option("--rho-yx", type=float, default=None, help="Latent correlation of y and x.")
@click.option("--rho-yz", type=float, default=None, help="Latent correlation of y and z.")
@click.option("--rho-xz", type=float, default=None, help="Latent correlation of x and z.")
@click.option("--marginal-y", default=None, help="Marginal 'family:loc:scale', e.g. lognormal:0:0.4.")
@click.option("--marginal-x", default=None, help="Marginal for x.")
@click.option("--marginal-z", default=None, help="Marginal for z.")
@click.option("--seed", type=int, default=None, help="Generation seed.")
@click.option("--format", "fmt", type=_FORMAT_CHOICES, default="text", show_default=True)
@_with_error_codes
def cmd_gen_pop(out: str, spec_path: str | None, fmt: str, **overrides) -> None:
    """Generate a synthetic population CSV and print its summary."""
    # The flags carry PopulationSpec's field names; replace() validates them.
    base = load_population_spec(spec_path) if spec_path else PopulationSpec()
    spec = replace(base, **{k: v for k, v in overrides.items() if v is not None})
    pop = generate_population(spec)
    # A population the moment table refuses is not written.
    table = delta_table(pop)
    realized = realized_correlations(pop)
    save_population_csv(pop, out)
    doc = {
        "spec": spec.to_dict(),
        "out": out,
        "population": _population_doc(pop),
        "realized_correlations": realized,
        "delta_table": table.to_dict(),
    }
    row = {"size": pop.size, "sy2": pop.sy2, **realized}
    lines = [
        f"wrote {pop.size} units to {out}",
        "realized correlations: " + "  ".join(f"{k}={v:+.4f}" for k, v in realized.items()),
        f"sy2={_fmt(pop.sy2, 8)}  sx2={_fmt(pop.sx2, 8)}  sz2={_fmt(pop.sz2, 8)}",
        "delta table: " + "  ".join(f"{k}={_fmt(v, 6)}" for k, v in table.to_dict().items()),
    ]
    # --out names the population file; the summary always goes to stdout.
    _render(fmt, None, doc, [(key, key, str) for key in row], [row], "\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
