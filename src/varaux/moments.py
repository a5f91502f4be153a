"""Finite populations and their centered product moments.

Two divisor conventions coexist in this package and are easy to mix up,
so they are fixed here once:

* ``S^2`` (population variance, :attr:`Population.sy2` and friends) and
  ``s^2`` (:func:`sample_variance`) use divisor ``N - 1`` / ``n - 1``.
* Central product moments ``mu_pqr`` (:func:`central_moment`) use
  divisor ``N``.  The standardized moments ``delta_pqr`` built from
  them therefore also use divisor ``N`` throughout, numerator and
  denominator alike, and the mismatch with ``S^2`` cancels nowhere; it
  simply never enters, because every delta is a ratio of divisor-``N``
  quantities.

All moment computations are two-pass (center first, then average
products of deviations), so a mean far from zero costs little precision.
They do not rescale: fourth powers of deviations beyond about 1e77, or
below about 1e-77, over- or underflow, and such populations (say, a
population multiplied by 1e150 or 1e-150) are refused as not finite.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePopulationError, InvalidInputError, PopulationFormatError, _finite, _integer

#: Largest total order ``p + q + r`` accepted by the moment routines.
#: Fourth-order theory needs nothing beyond 4; the slack is for
#: exploratory use, not a license for unstable high orders.
MAX_MOMENT_ORDER = 8

_VARIATES = ("y", "x", "z")

#: How far past a moment bound :meth:`DeltaTable.violations` lets a
#: table sit before it reports it.
_VIOLATION_SLACK = 1e-9


def _finite_vector(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, refused unless one-dimensional and
    finite; ``what`` names it in the message.  As :func:`errors._finite`
    rules for one number, only integer and floating values are real: bools,
    strings and objects are refused, not converted."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        raise InvalidInputError(f"{what} must be one-dimensional") from None
    if arr.dtype.kind not in "iuf":
        raise InvalidInputError(f"{what} must hold real numbers, got {arr.dtype.name} values")
    if arr.ndim != 1:
        raise InvalidInputError(f"{what} must be one-dimensional")
    arr = arr.astype(np.float64, copy=False)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{what} contains non-finite values")
    return arr


def _exact(value: float) -> str:
    """``value`` as ``:g`` prints it where that is exact, else at ``repr`` precision."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def _frozen(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values.view()  # a view of a read-only array cannot be made writeable again


@dataclass(frozen=True, eq=False)
class Population:
    """A finite population of triples ``(y_i, x_i, z_i)``.

    The study variable is ``y``; ``x`` and ``z`` are auxiliary
    variables, conventionally positively and negatively correlated
    with ``y``.  Arrays are copied and frozen on construction (the loader
    and the generator freeze their own, uncopied, with :meth:`_adopt`), so a
    ``Population`` never changes under its consumers.  Its variances and
    its moment table are therefore computed once, on first use, and
    reused by every later call.

    Parameters
    ----------
    y, x, z : array_like
        One-dimensional, finite, of common length at least 2.
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        for name in _VARIATES:
            object.__setattr__(self, name, _frozen(np.array(_finite_vector(getattr(self, name), f"variate {name!r}"))))
        if not (self.y.size == self.x.size == self.z.size):
            raise InvalidInputError(
                "variates must have a common length, got "
                f"y:{self.y.size} x:{self.x.size} z:{self.z.size}"
            )
        if self.y.size < 2:
            raise InvalidInputError("a population needs at least two units")

    @classmethod
    def _adopt(cls, y, x, z, checked: bool = False) -> Population:
        """A population holding ``y``, ``x`` and ``z`` themselves, frozen without the
        constructor's copy: one-dimensional float64 of one length >= 2 that only the
        caller holds.  Unless ``checked``, a variate that is not finite is refused."""
        pop = object.__new__(cls)
        for name, values in zip(_VARIATES, (y, x, z)):
            values = values if checked else _finite_vector(values, f"variate {name!r}")
            object.__setattr__(pop, name, _frozen(values))
        return pop

    @property
    def size(self) -> int:
        """Number of units ``N``."""
        return int(self.y.size)

    @functools.cached_property
    def sy2(self) -> float:
        """Population variance of ``y``, divisor ``N - 1``."""
        return float(np.var(self.y, ddof=1))

    @functools.cached_property
    def sx2(self) -> float:
        """Population variance of ``x``, divisor ``N - 1``."""
        return float(np.var(self.x, ddof=1))

    @functools.cached_property
    def sz2(self) -> float:
        """Population variance of ``z``, divisor ``N - 1``."""
        return float(np.var(self.z, ddof=1))

    @functools.cached_property
    def _delta_table(self) -> DeltaTable:
        """:func:`delta_table` of this population; an error is not cached."""
        return DeltaTable.from_moments(*fourth_moments(self.y, self.x, self.z))


def _check_order(p: int, q: int, r: int) -> None:
    total = sum(_integer(value, f"moment order {label}", 0) for label, value in zip("pqr", (p, q, r)))
    if total > MAX_MOMENT_ORDER:
        raise InvalidInputError(f"total moment order {total} exceeds the cap {MAX_MOMENT_ORDER}")


def _power_product(order, squares, roots):
    """``prod_i squares[i]^(e_i // 2) * roots[i]^(e_i % 2)`` over the
    exponents ``e_i`` of ``order``, multiplied left to right from the
    first factor; None when every exponent is zero."""
    product = None
    for exponent, square, root in zip(order, squares, roots):
        for factor in (square,) * (exponent // 2) + (root,) * (exponent % 2):
            product = factor if product is None else product * factor
    return product


def _moments(variates, orders, squared: bool = False) -> tuple[list, list, list]:
    """The one moment kernel: ``mu_pqr`` and ``delta_pqr`` of each order.

    ``variates`` are the ``y``, ``x`` and ``z`` values, reduced along
    the last axis, so a row of a C-ordered block gets the bits of the
    same values passed alone.  Each power of the deviations is built
    from their squares, times one deviation when the exponent is odd;
    the variances in each denominator likewise, times ``variance **
    0.5``.  That root is C's ``pow`` on one population's variances but
    numpy's ``sqrt`` on a block's, so the row-alone bits hold for even
    orders only.  With ``squared``, ``variates`` are instead the squared
    deviations from numpy's row means, which give the same bits; every
    order must then be even.  Floating-point warnings are off: a moment
    that over- or underflows, or a zero variance, leaves a value that
    is not finite, for the caller to refuse.  Beside the deviations, a
    square is kept only where an order uses it, and temporary squares and
    the orders' products are built one at a time.

    Returns
    -------
    (variances, moments, deltas)
        The divisor-``n`` variances of ``y``, ``x`` and ``z``, then
        ``mu_pqr`` and ``delta_pqr`` in the order of ``orders``.
    """
    odd = [any(order[i] % 2 for order in orders) for i in range(3)]
    square_used = [any(order[i] > 1 for order in orders) for i in range(3)]
    with np.errstate(all="ignore"):
        deviations = squares = variates
        if not squared:
            deviations = [values - values.mean(axis=-1, keepdims=True) for values in variates]
            squares = [
                (d * d if keep else np.multiply(d, d, out=d)) if used else None
                for d, keep, used in zip(deviations, odd, square_used)
            ]
        variances = [(d * d if s is None else s).mean(axis=-1) for d, s in zip(deviations, squares)]
        roots = [variance**0.5 if keep else None for variance, keep in zip(variances, odd)]
        moments, deltas = [], []
        for order in orders:
            product = _power_product(order, squares, deviations)
            moment = np.ones_like(variances[0]) if product is None else product.mean(axis=-1)
            del product
            scale = _power_product(order, variances, roots)
            moments.append(moment)
            deltas.append(moment if scale is None else moment / scale)
    return variances, moments, deltas


def central_moment(pop: Population, p: int, q: int, r: int) -> float:
    """Centered product moment ``mu_pqr`` with divisor ``N``.

    ``mu_pqr = (1/N) * sum_i (y_i - mean_y)^p (x_i - mean_x)^q (z_i - mean_z)^r``

    Parameters
    ----------
    pop : Population
    p, q, r : int
        Non-negative exponents for the ``y``, ``x`` and ``z``
        deviations; their sum may not exceed :data:`MAX_MOMENT_ORDER`.

    Returns
    -------
    float
    """
    _check_order(p, q, r)
    return float(_moments((pop.y, pop.x, pop.z), [(p, q, r)])[1][0])


def delta(pop: Population, p: int, q: int, r: int) -> float:
    """Standardized moment ``delta_pqr``.

    ``delta_pqr = mu_pqr / (mu_200^(p/2) * mu_020^(q/2) * mu_002^(r/2))``

    where only the variances of variates that actually appear (nonzero
    exponent) enter the denominator.  Divisor ``N`` everywhere.

    Raises
    ------
    DegeneratePopulationError
        If a variate appearing with nonzero exponent has zero variance.
    InvalidInputError
        If the value is not finite: powers of the deviations over- or
        underflow on a badly scaled population, as in :class:`DeltaTable`.
    """
    _check_order(p, q, r)
    variances, _, deltas = _moments((pop.y, pop.x, pop.z), [(p, q, r)])
    return _checked_delta((p, q, r), variances, deltas[0])


def _checked_delta(order, variances, value) -> float:
    """``value`` as ``delta`` of ``order``, refused as :func:`delta` refuses it."""
    label = "".join(map(str, order))
    for name, exponent, variance in zip(_VARIATES, order, variances):
        if exponent and variance <= 0.0:
            raise DegeneratePopulationError(f"variate {name!r} has zero variance, delta_{label} is undefined")
    return _finite(float(value), f"moment d{label}")


@dataclass(frozen=True)
class DeltaTable:
    """The six fourth-order standardized moments the theory consumes.

    ``d400``, ``d040``, ``d004`` are the kurtoses of ``y``, ``x``,
    ``z``; ``d220``, ``d202``, ``d022`` are the pairwise squared-deviation
    cross moments.  Values are required to be finite, but the moment
    *bounds* (kurtoses at least 1, cross moments inside their
    Cauchy-Schwarz box) are deliberately not enforced at construction:
    hand-built tables may be anything, and :meth:`violations` reports
    what is wrong with them.
    """

    d400: float
    d040: float
    d004: float
    d220: float
    d202: float
    d022: float

    def __post_init__(self) -> None:
        for name in self.field_names():
            object.__setattr__(self, name, _finite(getattr(self, name), f"moment {name}"))

    @staticmethod
    def field_names() -> tuple[str, ...]:
        return ("d400", "d040", "d004", "d220", "d202", "d022")

    def violations(self) -> list[str]:
        """Describe every way this table fails to be realizable.

        A table computed from an actual population always passes: the
        kurtoses satisfy ``d >= 1`` (Jensen) and each cross moment
        satisfies ``|d_cross - 1| <= sqrt((d_a - 1)(d_b - 1))``
        (Cauchy-Schwarz on squared deviations).  The
        :data:`_VIOLATION_SLACK` absorbs floating-point noise on
        populations that sit exactly on a bound.
        """
        problems: list[str] = []
        for name in ("d400", "d040", "d004"):
            if getattr(self, name) < 1.0 - _VIOLATION_SLACK:
                problems.append(f"{name} = {getattr(self, name)!r} is below 1")
        for cross, left, right in (
            ("d220", "d400", "d040"),
            ("d202", "d400", "d004"),
            ("d022", "d040", "d004"),
        ):
            spread_left = max(getattr(self, left) - 1.0, 0.0)
            spread_right = max(getattr(self, right) - 1.0, 0.0)
            bound = math.sqrt(spread_left * spread_right)
            excess = abs(getattr(self, cross) - 1.0) - bound
            if excess > _VIOLATION_SLACK:
                problems.append(
                    f"|{cross} - 1| = {abs(getattr(self, cross) - 1.0)!r} exceeds "
                    f"sqrt(({left} - 1)({right} - 1)) = {bound!r}"
                )
        return problems

    def to_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.field_names()}

    @classmethod
    def from_moments(cls, variances, deltas) -> "DeltaTable":
        """Build a table from the output of :func:`fourth_moments` on 1-D variates.

        Raises
        ------
        DegeneratePopulationError
            If any of the three variates has zero variance.
        """
        for name, variance in zip(_VARIATES, variances):
            if variance <= 0.0:
                raise DegeneratePopulationError(
                    f"variate {name!r} has zero variance, standardized moments are undefined"
                )
        return cls(*deltas)

    @classmethod
    def from_dict(cls, data: dict) -> "DeltaTable":
        if not isinstance(data, dict):
            raise PopulationFormatError(f"moment table must be a JSON object, got {type(data).__name__}")
        missing = [name for name in cls.field_names() if name not in data]
        if missing:
            raise PopulationFormatError(f"moment table is missing keys: {', '.join(missing)}")
        values = {}
        for name in cls.field_names():
            values[name] = _finite(data[name], f"moment table key {name!r}", error=PopulationFormatError)
        return cls(**values)


#: The orders of the six standardized fourth moments, in
#: :meth:`DeltaTable.field_names` order.
_FOURTH_ORDERS = ((4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 0), (2, 0, 2), (0, 2, 2))


def fourth_moments(y, x, z, squared: bool = False) -> tuple[list, list]:
    """Divisor-``n`` variances and standardized fourth moments along the last axis.

    :func:`delta_table` applies it to a population, and the plug-in
    weights to a sample or to the engine's block of samples, one per
    row, whose tables :func:`varaux.estimators.evaluate` reads.  Its
    orders are even, so a block's row gets the bits of its values alone.
    With ``squared``, ``y``, ``x`` and ``z`` are the squared deviations
    from the row means that the engine's variance pass leaves instead.

    Returns
    -------
    (variances, deltas)
        The variances of ``y``, ``x`` and ``z``, and the six
        ``delta_pqr`` in :meth:`DeltaTable.field_names` order.  Where a
        variance is zero the deltas are not finite.
    """
    variances, _, deltas = _moments((y, x, z), _FOURTH_ORDERS, squared)
    return variances, deltas


def delta_table(pop: Population) -> DeltaTable:
    """Compute all six fourth-order standardized moments in one pass.

    The table is computed on the first call for ``pop`` and reused after.

    Raises
    ------
    DegeneratePopulationError
        If any of the three variates has zero variance.
    """
    return pop._delta_table


def _not_utf8(path, exc: UnicodeDecodeError) -> PopulationFormatError:
    # The exception's own position counts from the start of a read
    # buffer, not of the file, so only the offending byte is named.
    return PopulationFormatError(
        f"{path}: not UTF-8 text: {exc.reason} (byte 0x{exc.object[exc.start]:02x})"
    )


def load_json(path):
    """Parse a JSON file; a file that is not UTF-8 JSON is a format error naming it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise PopulationFormatError(f"{path}: not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _parse_lines(path, lineno: int, lines: list[str], width: int) -> np.ndarray:
    """``lines``, numbered from ``lineno``, as a ``(len(lines), width)`` array.

    A block that numpy's reader refuses is parsed again line by line, and
    the first line refused alone is named in the error.
    """
    try:
        with warnings.catch_warnings():
            # loadtxt skips blank lines, which then show as a missing row.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(lines, delimiter=",", dtype=np.float64, ndmin=2, comments=None, quotechar='"')
    except ValueError:
        data = None
    if data is not None and data.shape == (len(lines), width) and np.isfinite(data).all():
        return data
    if len(lines) > 1:
        return np.concatenate([_parse_lines(path, lineno + i, [line], width) for i, line in enumerate(lines)])
    fields = next(csv.reader(lines), [])
    if len(fields) != width:
        problem = f"expected {width} comma-separated values, got {len(fields)}"
    elif data is None or data.shape != (1, width):
        problem = f"non-numeric field in {fields!r}"
    else:
        problem = f"non-finite value in {fields!r}"
    raise PopulationFormatError(f"{path}: line {lineno}: {problem}")


def load_csv_rows(path, header: str, holds: str) -> np.ndarray:
    """Read a numeric CSV file with header ``header`` as a ``(rows, columns)`` array.

    Parsing is strict: a wrong header, a row with the wrong field
    count, or a non-numeric or non-finite field is a hard error naming
    the line, never skipped, and so is text that is not UTF-8 (a UTF-8
    byte-order mark is allowed).  Numbers are read by numpy's C reader,
    which converts as ``float()`` does but takes no digit-group
    underscores.  ``holds`` names what the rows make up, for the error
    when fewer than two of them follow the header.

    The lines are counted first and parsed straight into the returned
    array, in Fortran order so that each column is contiguous: a load
    allocates the data once, not once per block and again to join them.
    """
    names = header.split(",")
    width = len(names)
    lineno = 2
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            first = next(csv.reader(handle), None)
            if first is None:
                raise PopulationFormatError(f"{path}: empty file, expected header '{header}'")
            if [field.strip() for field in first] != names:
                raise PopulationFormatError(
                    f"{path}: line 1: expected header '{header}', got {','.join(first)!r}"
                )
            data = np.empty((max(_count_lines(path) - 1, 0), width), order="F")
            # 4,096 lines a block: only one block is held as Python strings,
            # and a refused one is parsed again line by line in about 0.1 s.
            while lines := list(itertools.islice(handle, 4096)):
                data[lineno - 2 : lineno - 2 + len(lines)] = _parse_lines(path, lineno, lines, width)
                lineno += len(lines)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    rows = lineno - 2
    if rows < 2:
        raise InvalidInputError(f"{path}: {holds} needs at least two data rows, found {rows}")
    # Fewer rows than lines only if a quoted header field spans lines.
    return data if rows == len(data) else data[:rows].copy(order="F")


def _count_lines(path) -> int:
    """The lines ``open(path, newline="")`` yields: each ends at a line
    feed, a carriage return and line feed, a lone carriage return, or
    the end of the file."""
    lines, last = 0, 10
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 18):
            if chunk.endswith(b"\r"):
                chunk += handle.read(1)  # a "\r\n" is never split between chunks
            codes = np.frombuffer(chunk, np.uint8)
            line_feeds, returns = codes == 10, codes == 13
            pairs = np.count_nonzero(returns[:-1] & line_feeds[1:])
            lines += np.count_nonzero(line_feeds) + np.count_nonzero(returns) - pairs
            last = codes[-1]
    return int(lines) + (last not in (10, 13))


def format_csv(columns, rows) -> str:
    """CSV text of ``rows`` (mappings) under a header of ``columns``.

    Floats use ``repr``, so they parse back to the same value; None is
    an empty field, and keys outside ``columns`` are left out.  A cell
    holding a comma, a double quote or a line feed is quoted as RFC 4180
    asks, inner quotes doubled; no other cell is quoted.
    """
    text = io.StringIO()
    writer = csv.DictWriter(text, columns, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return text.getvalue()


def load_delta_table(path) -> DeltaTable:
    """Read a moment table from JSON, insisting on all six finite keys.

    The file holds either the bare table (the object
    :meth:`DeltaTable.to_dict` gives) or the document of ``varaux moments
    --format json``, which carries the table under ``"delta_table"``.  A
    table that :meth:`DeltaTable.violations` faults is an InvalidInputError.
    """
    data = load_json(path)
    if isinstance(data, dict) and "delta_table" in data:
        data = data["delta_table"]
    try:
        table = DeltaTable.from_dict(data)
    except PopulationFormatError as exc:
        raise PopulationFormatError(f"{path}: {exc}") from exc
    if violations := table.violations():
        raise InvalidInputError(f"{path}: moment table violates realizability bounds: " + "; ".join(violations))
    return table


def load_population_csv(path) -> Population:
    """Read a population from CSV: header ``y,x,z``, one triple per row.

    Parsing is strict (see :func:`load_csv_rows`).  A variate with zero
    variance loads fine but triggers a warning, since most estimators
    will refuse it later.

    The population's arrays are the loaded columns themselves, adopted
    with :meth:`Population._adopt`: the loader holds the only reference
    to them and has checked every value finite, so a load holds the data
    once and scans it for finiteness once.
    """
    data = load_csv_rows(path, "y,x,z", "a population")
    data.setflags(write=False)  # the columns' owner: a view of a writeable owner can be thawed
    pop = Population._adopt(*data.T, checked=True)
    for name, variance in zip(_VARIATES, (pop.sy2, pop.sx2, pop.sz2)):
        if variance == 0.0:
            warnings.warn(
                f"{path}: variate {name!r} has zero variance; estimators that "
                "use it will fail",
                stacklevel=2,
            )
    return pop


def save_population_csv(pop: Population, path) -> None:
    """Write a population as CSV, round-tripping values exactly.

    Fields use ``repr`` formatting (shortest string that parses back to
    the same float), so save followed by load reproduces the population
    bit for bit.  Lines end in ``\\r\\n``, as :mod:`csv`'s writer ends them.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("y,x,z\r\n")
        # 512 rows a write: larger blocks write no faster, and a block's
        # lists and text, about 0.25 KB a row, add to peak memory.
        for start in range(0, pop.size, 512):
            rows = zip(*(values[start : start + 512].tolist() for values in (pop.y, pop.x, pop.z)))
            handle.write("".join(f"{y!r},{x!r},{z!r}\r\n" for y, x, z in rows))


def sample_variance(values) -> float:
    """Unbiased sample variance ``s^2`` with divisor ``n - 1``.

    Parameters
    ----------
    values : array_like
        One-dimensional, finite, length at least 2.
    """
    arr = _finite_vector(values, "sample")
    if arr.size < 2:
        raise InvalidInputError(f"sample variance needs at least two values, got {arr.size}")
    return float(np.var(arr, ddof=1))
