"""Point estimators of a finite-population variance.

Eight estimator kinds are supported, five single-phase and three
two-phase.  All of them start from the unbiased sample variance
``s_y^2`` and shrink or expand it using auxiliary variance information:

* ``unbiased``          -- ``s_y^2`` alone.
* ``isaki-ratio``       -- ``s_y^2 * S_x^2 / s_x^2``, the classical
  ratio form that multiplies by the known-to-observed variance ratio.
* ``exp-ratio``         -- ``s_y^2 * exp((S_x^2 - s_x^2)/(S_x^2 + s_x^2))``,
  a damped ratio adjustment using the positively correlated auxiliary.
* ``exp-product``       -- ``s_y^2 * exp((s_z^2 - S_z^2)/(s_z^2 + S_z^2))``,
  the mirrored adjustment for the negatively correlated auxiliary.
* ``combined``          -- ``s_y^2`` times a weighted mixture
  ``alpha * ratio_factor + (1 - alpha) * product_factor``.
* ``exp-ratio-2p``, ``exp-product-2p``, ``combined-2p`` -- the same
  adjustments with the unknown population variances replaced by
  first-phase sample variances, for designs where ``S_x^2``/``S_z^2``
  are not known but a large first-phase sample is affordable.

The exponential forms keep the adjustment factor inside
``(e^-1, e^1)`` no matter how wild the observed variance is, which is
what makes them competitive with the plain ratio form at small sample
sizes.

Sign conventions matter here.  The product-type adjustment must shrink
the estimate when the observed ``s_z^2`` falls below its reference
value, so its exponent is ``(observed - reference)/(observed +
reference)``; the ratio-type adjustment is the reverse.  The same
orientation is used in the two-phase forms, where the reference is the
first-phase variance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSampleError,
    InvalidDesignError,
    InvalidInputError,
    NoUniqueOptimumError,
    _finite,
)
from .moments import DeltaTable, _exact, _finite_vector, fourth_moments, sample_variance


class Family(enum.Enum):
    """Estimator families, by their stable report tags.

    A tag reads ``<form>[-2p]``, and each member derives its facts from
    it once: ``form`` (the tag without ``-2p``), ``two_phase``, whether
    it ``uses_x`` and ``uses_z``, and ``divisors``, the ``(variance name,
    message)`` of each sample variance it divides by, in checking order.
    The names are keyword arguments of :func:`single_phase_value` and
    :func:`two_phase_value`; a variance that is not positive fails the
    estimate with the message.
    """

    UNBIASED = "unbiased"
    ISAKI_RATIO = "isaki-ratio"
    EXP_RATIO = "exp-ratio"
    EXP_PRODUCT = "exp-product"
    COMBINED = "combined"
    EXP_RATIO_2P = "exp-ratio-2p"
    EXP_PRODUCT_2P = "exp-product-2p"
    COMBINED_2P = "combined-2p"

    def __init__(self, tag: str) -> None:
        self.form = tag.removesuffix("-2p")
        self.two_phase = self.form != tag
        self.uses_x = self.form in ("isaki-ratio", "exp-ratio", "combined")
        self.uses_z = self.form in ("exp-product", "combined")
        phases = ("first-phase ", "") if self.two_phase else ("",)
        self.divisors = tuple(
            (
                f"s{name}2_first" if phase else f"s{name}2",
                f"{phase}sample variance of {name} is zero; the estimator is undefined",
            )
            for name, used in (("x", self.uses_x), ("z", self.uses_z))
            if used
            for phase in phases
        )


@dataclass(frozen=True)
class EstimatorKind:
    """An estimator family plus, for combined kinds, an optional weight.

    ``weight=None`` on a combined kind means "resolve the weight when
    estimating": from an explicit argument, a moment table, or the
    sample itself, in that order of preference.  Non-combined kinds
    never carry a weight.
    """

    family: Family
    weight: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise InvalidInputError(
                f"family must be a Family member, got {self.family!r}"
            )
        if self.weight is not None:
            if not self.is_combined:
                raise InvalidInputError(
                    f"estimator {self.family.value!r} does not take a weight"
                )
            object.__setattr__(self, "weight", _finite(self.weight, "weight"))

    @property
    def is_two_phase(self) -> bool:
        return self.family.two_phase

    @property
    def is_combined(self) -> bool:
        return self.family.form == "combined"

    @property
    def uses_x(self) -> bool:
        return self.family.uses_x

    @property
    def uses_z(self) -> bool:
        return self.family.uses_z

    @property
    def label(self) -> str:
        """Human-readable tag, e.g. ``combined:0.75`` or ``exp-ratio``."""
        if not self.is_combined:
            return self.family.value
        if self.weight is None:
            return f"{self.family.value}:opt"
        return f"{self.family.value}:{_exact(self.weight)}"

    @classmethod
    def parse(cls, text: str) -> "EstimatorKind":
        """Parse a tag like ``exp-ratio`` or ``combined:0.6``.

        Combined kinds accept a suffix after a colon: a float fixes the
        weight, while ``opt`` (or nothing) leaves it to be resolved at
        estimation time.
        """
        raw = text.strip().lower()
        tag, _, weight_text = raw.partition(":")
        try:
            family = Family(tag)
        except ValueError:
            known = ", ".join(f.value for f in Family)
            raise InvalidInputError(
                f"unknown estimator kind {text!r}; expected one of: {known}"
            ) from None
        if weight_text in ("", "opt", "optimal"):
            weight = None
        else:
            try:
                weight = float(weight_text)
            except ValueError:
                raise InvalidInputError(
                    f"cannot parse weight {weight_text!r} in estimator tag {text!r}"
                ) from None
        return cls(family, weight)


UNBIASED = EstimatorKind(Family.UNBIASED)
ISAKI_RATIO = EstimatorKind(Family.ISAKI_RATIO)
EXP_RATIO = EstimatorKind(Family.EXP_RATIO)
EXP_PRODUCT = EstimatorKind(Family.EXP_PRODUCT)
COMBINED = EstimatorKind(Family.COMBINED)
EXP_RATIO_TWO_PHASE = EstimatorKind(Family.EXP_RATIO_2P)
EXP_PRODUCT_TWO_PHASE = EstimatorKind(Family.EXP_PRODUCT_2P)
COMBINED_TWO_PHASE = EstimatorKind(Family.COMBINED_2P)

SINGLE_PHASE_KINDS = (UNBIASED, ISAKI_RATIO, EXP_RATIO, EXP_PRODUCT, COMBINED)
TWO_PHASE_KINDS = (EXP_RATIO_TWO_PHASE, EXP_PRODUCT_TWO_PHASE, COMBINED_TWO_PHASE)


@dataclass(frozen=True)
class AuxKnowledge:
    """Known population variances of the auxiliary variables.

    Either field may be omitted when no estimator in play needs it;
    whichever is present must be a finite positive number.
    """

    sx2: float | None = None
    sz2: float | None = None

    def __post_init__(self) -> None:
        for name in ("sx2", "sz2"):
            value = getattr(self, name)
            if value is None:
                continue
            object.__setattr__(self, name, _finite(value, f"aux knowledge {name}", positive=True))

    def require(self, name: str) -> float:
        value = getattr(self, name)
        if value is None:
            raise InvalidInputError(
                f"this estimator needs the known population variance {name!r}, "
                "but it was not provided"
            )
        return value


def _exp(arg):
    # libm's ``exp``, elementwise through ``fromiter`` over ``map``, the
    # fastest Python loop for it: ``np.exp`` rounds some values
    # differently on some hosts.  A scalar past 1 fails a check and would
    # overflow it.
    if isinstance(arg, np.ndarray):
        return np.fromiter(map(math.exp, arg.tolist()), np.float64, arg.size)
    return math.exp(min(arg, 1.0))


def value_kernel(family: Family, sy2, sx2, sz2, ref_x, ref_z, weight, factors):
    """The arithmetic of every estimator, on floats or elementwise on arrays.

    ``ref_x``/``ref_z`` are the reference variances: the known
    population ones in single-phase designs, the first-phase sample ones
    in two-phase designs.  ``factors`` holds the exponential ``"ratio"``
    and ``"product"`` factors of these variances once computed, so that
    the kinds of one design share them.  Nothing is validated here;
    :func:`evaluate` checks the family's ``divisors``.
    """
    if family.form == "isaki-ratio":
        return sy2 * ref_x / sx2
    if family.uses_x:
        if "ratio" not in factors:
            factors["ratio"] = _exp((ref_x - sx2) / (ref_x + sx2))
        if not family.uses_z:
            return sy2 * factors["ratio"]
    if family.uses_z:
        if "product" not in factors:
            factors["product"] = _exp((sz2 - ref_z) / (sz2 + ref_z))
        if not family.uses_x:
            return sy2 * factors["product"]
        return sy2 * (weight * factors["ratio"] + (1.0 - weight) * factors["product"])
    return sy2


def single_phase_value(
    kind: EstimatorKind,
    *,
    sy2: float,
    sx2: float | None = None,
    sz2: float | None = None,
    aux: AuxKnowledge | None = None,
    weight: float | None = None,
) -> float:
    """Evaluate a single-phase estimator from already-computed variances.

    This is the checked scalar entry to :func:`evaluate`, shared by
    :func:`estimate_single_phase`.  ``weight`` must already be resolved
    for combined kinds.
    """
    variances = {name: _given(value, f"sample variance {name!r}") for name, value in (("sx2", sx2), ("sz2", sz2))}
    return _checked_value(kind, False, _given(sy2, "sample variance 'sy2'"), variances, aux, _given(weight, "weight"))


def two_phase_value(
    kind: EstimatorKind,
    *,
    sy2: float,
    sx2: float | None = None,
    sz2: float | None = None,
    sx2_first: float | None = None,
    sz2_first: float | None = None,
    weight: float | None = None,
) -> float:
    """Evaluate a two-phase estimator from already-computed variances.

    First-phase variances stand in for the unknown population ones, so
    the adjustment factors have the same shape as their single-phase
    counterparts with the reference replaced.
    """
    given = {"sx2": sx2, "sz2": sz2, "sx2_first": sx2_first, "sz2_first": sz2_first}
    variances = {name: _given(value, f"sample variance {name!r}") for name, value in given.items()}
    return _checked_value(kind, True, _given(sy2, "sample variance 'sy2'"), variances, None, _given(weight, "weight"))


def _given(value, what: str) -> float | None:
    """A ``*_value`` argument: None if not given, else checked by :func:`_finite`."""
    return None if value is None else _finite(value, what)


def _check_design(kind: EstimatorKind, two_phase: bool, entry: str) -> None:
    """Reject a kind of the other design, naming the ``entry`` (a format
    string taking ``single`` or ``two``) that serves it."""
    if kind.is_two_phase != two_phase:
        design = "two" if kind.is_two_phase else "single"
        raise InvalidInputError(
            f"estimator {kind.label!r} is {design}-phase; use {entry.format(design)}"
        )


def _checked_value(kind, two_phase, sy2, variances, aux, weight, samples=None) -> float:
    """The checks and arithmetic of :func:`single_phase_value` and
    :func:`two_phase_value`, and of the estimates given ``samples``.

    ``variances`` maps names of sample variances, among them the
    family's ``divisors``, to values or None.  The first failure of
    :func:`evaluate` raises; the numbers go in as numpy floats, so that
    no division raises before then.
    """
    _check_design(kind, two_phase, "{}_phase_value")
    if sy2 is None:
        raise InvalidInputError(f"estimator {kind.label!r} needs the sample variance 'sy2'")
    if kind.family.form == "unbiased":
        return sy2
    if not two_phase and aux is None:
        raise InvalidInputError(f"estimator {kind.label!r} needs known auxiliary variances")
    if weight is None and kind.is_combined and samples is None:
        raise InvalidInputError("combined estimator needs a resolved weight")
    if not two_phase:
        for name, _ in kind.family.divisors:
            aux.require(name)  # the known variances divided against
    for name, _ in kind.family.divisors:
        if variances.get(name) is None:
            raise InvalidInputError(f"estimator {kind.label!r} needs the sample variance {name!r}")
    refs = (None, None) if two_phase else (aux.sx2, aux.sz2)
    numbers = {k: np.float64(v) for k, v in variances.items() if v is not None}
    table = fourth_moments(*samples) if weight is None and kind.is_combined else None
    (value,), _, first = evaluate((kind,), (weight,), {"sy2": sy2, **numbers}, refs, table)
    if first is not None:
        raise first[0](first[1])
    return float(value)


#: Message of the NoUniqueOptimumError for a flat combined-weight objective.
FLAT_OBJECTIVE = "combined-weight objective is flat: d040 + d004 + 2*d022 - 4 == 0"


def alpha_terms(d400, d040, d004, d220, d202, d022):
    """Numerator and denominator of :func:`alpha_opt`, elementwise.

    Takes the six moments in :meth:`DeltaTable.field_names` order, as
    floats or as arrays (one table per element).
    """
    numerator = d004 + 2.0 * (d220 + d202) + d022 - 6.0
    denominator = d040 + d004 + 2.0 * d022 - 4.0
    return numerator, denominator


def alpha_opt(deltas: DeltaTable) -> float:
    """Weight minimizing the first-order MSE of the combined estimator.

    ``alpha_opt = (d004 + 2 (d220 + d202) + d022 - 6)
                / (d040 + d004 + 2 d022 - 4)``

    The denominator is, up to a positive factor, the second derivative
    of the MSE in the weight, so a zero denominator means the objective
    is flat and no unique optimum exists.

    Raises
    ------
    NoUniqueOptimumError
        If ``d040 + d004 + 2*d022 - 4 == 0``.
    """
    numerator, denominator = alpha_terms(*deltas.to_dict().values())
    if denominator == 0.0:
        raise NoUniqueOptimumError(FLAT_OBJECTIVE)
    return numerator / denominator


def evaluate(kinds, weights, stats, refs, table=None):
    """Values and failures of ``kinds``, on floats or elementwise on arrays.

    The one evaluation of the estimators, for the scalar entry points
    and for the engine's chunks (one replication per element).
    ``weights`` are resolved, or None where a combined kind takes the
    plug-in weight of ``table``, the :func:`fourth_moments` output of
    the ``(y, x, z)`` samples; ``stats`` maps ``"sy2"`` and the families'
    ``divisors``, the only names read; ``refs`` are the known
    ``(S_x^2, S_z^2)``.

    Returns a value per kind, undefined where a check fails; ``failed``,
    the OR of the checks, shaped as ``stats["sy2"]``; and ``first``, the
    ``(error class, message)`` of the first failed element's first
    failed check, or None.  The checks, in order: given a ``table``,
    each variate's zero variance, then a flat objective; then each
    kind's divisors.  A plug-in table that is not finite, where no
    variance is zero, raises DeltaTable's error.
    """
    checks, plug_weight = [], None
    with np.errstate(all="ignore"):
        if table is not None:
            moment_variances, deltas = table
            for name, variance in zip("yxz", moment_variances):
                message = f"sample variate {name!r} has zero variance; cannot estimate moments"
                checks.append((variance <= 0.0, DegenerateSampleError, message))
            degenerate = np.logical_or.reduce([failed for failed, _, _ in checks])
            unbounded = ~degenerate & ~np.isfinite(deltas).all(axis=0)
            if unbounded.any():  # DeltaTable raises for the first such row
                DeltaTable(*(np.ravel(d)[np.flatnonzero(unbounded)[0]] for d in deltas))
            numerator, denominator = alpha_terms(*deltas)
            checks.append((denominator == 0.0, NoUniqueOptimumError, FLAT_OBJECTIVE))
            plug_weight = numerator / denominator
        values, factors = [], ({}, {})  # the factors of each design
        sx2, sz2 = stats.get("sx2"), stats.get("sz2")
        for kind, weight in zip(kinds, weights):
            for name, message in kind.family.divisors:
                checks.append((stats[name] <= 0.0, DegenerateSampleError, message))
            ref_x, ref_z = refs
            two_phase = kind.is_two_phase
            if two_phase:
                ref_x, ref_z = stats.get("sx2_first"), stats.get("sz2_first")
            weight = plug_weight if weight is None else weight
            values.append(value_kernel(kind.family, stats["sy2"], sx2, sz2, ref_x, ref_z, weight, factors[two_phase]))
    failed = np.zeros(np.shape(stats["sy2"]), dtype=bool)
    for mask, _, _ in checks:
        failed |= mask
    at = np.argmax(failed)  # 0, which no check fails at, if none fails
    return values, failed, next(((error, message) for mask, error, message in checks if np.ravel(mask)[at]), None)


def _resolve_weight(
    kind: EstimatorKind,
    weight: float | None = None,
    deltas: DeltaTable | None = None,
) -> tuple[float | None, str]:
    """The weight a kind is evaluated at, and where it comes from.

    The one precedence of combined weights: an explicit ``weight``, then
    the kind's own, then the optimum of the moment table ``deltas``,
    then the optimum of each sample's table.  The source is ``"none"``
    for a kind that is not combined, then ``"fixed"``, ``"optimal"`` or
    ``"plug-in"``; a plug-in weight is None, left to :func:`evaluate`.
    A given ``weight`` is checked whatever the kind.
    """
    weight = kind.weight if weight is None else _finite(weight, "weight")
    if not kind.is_combined:
        return None, "none"
    if weight is not None:
        return weight, "fixed"
    if deltas is not None:
        return alpha_opt(deltas), "optimal"
    return None, "plug-in"


def _row_label(kind: EstimatorKind, weight: float | None, source: str) -> str:
    """The label of a row evaluated at ``weight`` from ``source``, as
    :func:`_resolve_weight` returns them: a fixed weight is spelled out,
    an optimal or plug-in one keeps the kind's ``:opt``."""
    return EstimatorKind(kind.family, weight).label if source == "fixed" else kind.label


def _checked_sample(values, name: str, expected_size: int | None = None) -> np.ndarray:
    if values is None:
        raise InvalidInputError(f"this estimator needs sample values for {name!r}")
    arr = _finite_vector(values, f"sample {name!r}")
    if expected_size is not None and arr.size != expected_size:
        raise InvalidInputError(
            f"sample {name!r} has length {arr.size}, expected {expected_size}"
        )
    return arr


def _estimate(kind, two_phase, y, x, z, x_first, z_first, aux, weight, deltas) -> tuple[float, float | None, str]:
    """The body of :func:`estimate_single_phase` and :func:`estimate_two_phase`,
    and of each ``varaux estimate`` row: the estimate, and the weight and
    source :func:`_resolve_weight` gives it.

    ``x``/``z`` are the samples ``y`` is observed on (the second phase of
    a two-phase design); ``x_first``/``z_first`` are only read in a
    two-phase design, and ``aux`` only in a single-phase one.
    """
    _check_design(kind, two_phase, "estimate_{}_phase")
    y_arr = _checked_sample(y, "y")
    n = y_arr.size
    sy2 = sample_variance(y_arr)
    variances: dict[str, float] = {}
    second: dict[str, np.ndarray] = {}
    first_sizes: dict[str, int] = {}
    for name, used, values, first_values in (
        ("x", kind.uses_x, x, x_first),
        ("z", kind.uses_z, z, z_first),
    ):
        if not used:
            continue
        if two_phase:
            first = _checked_sample(first_values, f"{name}_first")
            first_sizes[f"{name}_first"] = first.size
            second[name] = _checked_sample(values, f"{name}_second", n)
            variances[f"s{name}2_first"] = sample_variance(first)
        else:
            second[name] = _checked_sample(values, name, n)
        variances[f"s{name}2"] = sample_variance(second[name])
    if len(set(first_sizes.values())) > 1:
        raise InvalidInputError(
            "first-phase samples must have a common length, got "
            + ", ".join(f"{k}:{v}" for k, v in first_sizes.items())
        )
    for name, size in first_sizes.items():
        if size <= n:
            raise InvalidDesignError(
                f"first-phase sample {name!r} (length {size}) must be strictly "
                f"larger than the second phase (length {n})"
            )
    resolved, source = _resolve_weight(kind, weight, deltas)
    samples = (y_arr, second.get("x"), second.get("z"))
    return _checked_value(kind, two_phase, sy2, variances, aux, resolved, samples), resolved, source


def estimate_single_phase(
    kind: EstimatorKind,
    y,
    x=None,
    z=None,
    *,
    aux: AuxKnowledge | None = None,
    weight: float | None = None,
    deltas: DeltaTable | None = None,
) -> float:
    """Estimate the population variance of ``y`` from one SRSWOR sample.

    Parameters
    ----------
    kind : EstimatorKind
        A single-phase kind.
    y : array_like
        Study-variable sample, length at least 2.
    x, z : array_like, optional
        Auxiliary samples, same length as ``y``; required exactly when
        the kind uses that variable.
    aux : AuxKnowledge, optional
        Known population variances; required for every kind except
        ``unbiased``.
    weight : float, optional
        Overrides any weight carried by a combined kind.
    deltas : DeltaTable, optional
        Moment table used to resolve an optimal weight for a combined
        kind.  If neither a weight nor a table is available, the weight
        is estimated from the sample itself.

    Returns
    -------
    float
    """
    return _estimate(kind, False, y, x, z, None, None, aux, weight, deltas)[0]


def estimate_two_phase(
    kind: EstimatorKind,
    y,
    *,
    x_first=None,
    z_first=None,
    x_second=None,
    z_second=None,
    weight: float | None = None,
    deltas: DeltaTable | None = None,
) -> float:
    """Estimate the population variance of ``y`` under two-phase sampling.

    The study variable is observed only on the (small) second-phase
    sample; the auxiliaries are observed on both phases.  Only the
    auxiliary arrays the kind actually uses need to be supplied.

    Parameters
    ----------
    kind : EstimatorKind
        A two-phase kind.
    y : array_like
        Second-phase study-variable sample, length ``n >= 2``.
    x_first, z_first : array_like, optional
        First-phase auxiliary samples, common length ``n' > n``.
    x_second, z_second : array_like, optional
        Second-phase auxiliary samples, length ``n``.
    weight, deltas : optional
        As in :func:`estimate_single_phase`; a sample-estimated weight
        uses the second-phase observations.

    Returns
    -------
    float
    """
    return _estimate(kind, True, y, x_second, z_second, x_first, z_first, None, weight, deltas)[0]
