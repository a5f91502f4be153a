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
    DegeneratePopulationError,
    DegenerateSampleError,
    InvalidDesignError,
    InvalidInputError,
    NoUniqueOptimumError,
)
from .moments import DeltaTable, Population, fourth_moments, sample_variance


class Family(enum.Enum):
    """Estimator families, by their stable report tags."""

    UNBIASED = "unbiased"
    ISAKI_RATIO = "isaki-ratio"
    EXP_RATIO = "exp-ratio"
    EXP_PRODUCT = "exp-product"
    COMBINED = "combined"
    EXP_RATIO_2P = "exp-ratio-2p"
    EXP_PRODUCT_2P = "exp-product-2p"
    COMBINED_2P = "combined-2p"


# Tuples, not sets: membership then compares identities and never calls
# the enum's Python-level hash, which matters on the scalar paths.
_TWO_PHASE_FAMILIES = (Family.EXP_RATIO_2P, Family.EXP_PRODUCT_2P, Family.COMBINED_2P)
_COMBINED_FAMILIES = (Family.COMBINED, Family.COMBINED_2P)
_RATIO_FAMILIES = (Family.EXP_RATIO, Family.EXP_RATIO_2P)
_PRODUCT_FAMILIES = (Family.EXP_PRODUCT, Family.EXP_PRODUCT_2P)
_X_FAMILIES = (
    Family.ISAKI_RATIO, Family.EXP_RATIO, Family.COMBINED, Family.EXP_RATIO_2P, Family.COMBINED_2P
)
_Z_FAMILIES = (Family.EXP_PRODUCT, Family.COMBINED, Family.EXP_PRODUCT_2P, Family.COMBINED_2P)


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
            if self.family not in _COMBINED_FAMILIES:
                raise InvalidInputError(
                    f"estimator {self.family.value!r} does not take a weight"
                )
            weight = float(self.weight)
            if not math.isfinite(weight):
                raise InvalidInputError(f"weight must be finite, got {self.weight!r}")
            object.__setattr__(self, "weight", weight)

    @property
    def is_two_phase(self) -> bool:
        return self.family in _TWO_PHASE_FAMILIES

    @property
    def is_combined(self) -> bool:
        return self.family in _COMBINED_FAMILIES

    @property
    def uses_x(self) -> bool:
        return self.family in _X_FAMILIES

    @property
    def uses_z(self) -> bool:
        return self.family in _Z_FAMILIES

    @property
    def label(self) -> str:
        """Human-readable tag, e.g. ``combined:0.75`` or ``exp-ratio``."""
        if not self.is_combined:
            return self.family.value
        if self.weight is None:
            return f"{self.family.value}:opt"
        return f"{self.family.value}:{self.weight:g}"

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
        if weight is not None and family not in _COMBINED_FAMILIES:
            raise InvalidInputError(f"estimator {family.value!r} does not take a weight")
        return cls(family, weight)

    @classmethod
    def combined(cls, weight: float | None = None) -> "EstimatorKind":
        return cls(Family.COMBINED, weight)

    @classmethod
    def combined_two_phase(cls, weight: float | None = None) -> "EstimatorKind":
        return cls(Family.COMBINED_2P, weight)


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
            value = float(value)
            if not math.isfinite(value) or value <= 0.0:
                raise InvalidInputError(
                    f"aux knowledge {name} must be a finite positive number, got {value!r}"
                )
            object.__setattr__(self, name, value)

    def require(self, name: str) -> float:
        value = getattr(self, name)
        if value is None:
            raise InvalidInputError(
                f"this estimator needs the known population variance {name!r}, "
                "but it was not provided"
            )
        return value

    @classmethod
    def from_population(cls, pop: Population) -> "AuxKnowledge":
        return cls(sx2=pop.sx2, sz2=pop.sz2)


@dataclass(frozen=True, eq=False)
class TwoPhaseDraw:
    """Index sets of a nested two-phase draw from a population.

    ``second_phase`` must be a strict subset of ``first_phase``; both
    are duplicate-free index arrays.  Validation happens here so the
    rest of the package can take nesting for granted.
    """

    first_phase: np.ndarray
    second_phase: np.ndarray

    def __post_init__(self) -> None:
        for name in ("first_phase", "second_phase"):
            arr = np.array(getattr(self, name), dtype=np.int64, copy=True)
            if arr.ndim != 1:
                raise InvalidDesignError(f"{name} indices must be one-dimensional")
            if arr.size and arr.min() < 0:
                raise InvalidDesignError(f"{name} contains negative indices")
            if np.unique(arr).size != arr.size:
                raise InvalidDesignError(f"{name} contains repeated indices")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.second_phase.size < 2:
            raise InvalidDesignError("second phase needs at least two units")
        if self.first_phase.size <= self.second_phase.size:
            raise InvalidDesignError(
                "first phase must be strictly larger than the second phase, got "
                f"{self.first_phase.size} <= {self.second_phase.size}"
            )
        if not np.isin(self.second_phase, self.first_phase).all():
            raise InvalidDesignError("second-phase sample is not nested in the first phase")

    @property
    def n(self) -> int:
        return int(self.second_phase.size)

    @property
    def nprime(self) -> int:
        return int(self.first_phase.size)


def _zero_message(label: str) -> str:
    return f"{label} is zero; the estimator is undefined"


_X = ("sx2", _zero_message("sample variance of x"))
_Z = ("sz2", _zero_message("sample variance of z"))
_X_FIRST = ("sx2_first", _zero_message("first-phase sample variance of x"))
_Z_FIRST = ("sz2_first", _zero_message("first-phase sample variance of z"))

#: ``(variance name, message)`` for each sample variance a family
#: divides by, in checking order.  Names are the keyword arguments of
#: :func:`single_phase_value` and :func:`two_phase_value`; a variance
#: that is not positive fails the estimate with the message.
DIVISOR_CHECKS: dict[Family, tuple[tuple[str, str], ...]] = {
    Family.UNBIASED: (),
    Family.ISAKI_RATIO: (_X,),
    Family.EXP_RATIO: (_X,),
    Family.EXP_PRODUCT: (_Z,),
    Family.COMBINED: (_X, _Z),
    Family.EXP_RATIO_2P: (_X_FIRST, _X),
    Family.EXP_PRODUCT_2P: (_Z_FIRST, _Z),
    Family.COMBINED_2P: (_X_FIRST, _X, _Z_FIRST, _Z),
}


def _exp(arg):
    # ``math.exp`` elementwise: ``np.exp`` rounds differently from it on
    # some hosts, and a block of values must match the scalar path bit
    # for bit.
    if isinstance(arg, np.ndarray):
        return np.array([math.exp(value) for value in arg.tolist()])
    return math.exp(arg)


def _ratio_factor(reference, observed):
    return _exp((reference - observed) / (reference + observed))


def _product_factor(reference, observed):
    return _exp((observed - reference) / (observed + reference))


def value_kernel(family: Family, sy2, sx2, sz2, ref_x, ref_z, weight):
    """The arithmetic of every estimator, on floats or elementwise on arrays.

    ``ref_x``/``ref_z`` are the reference variances: the known
    population ones in single-phase designs, the first-phase sample ones
    in two-phase designs.  Nothing is validated here; callers check the
    divisors (:data:`DIVISOR_CHECKS`) and resolve combined weights.
    """
    if family in _RATIO_FAMILIES:
        return sy2 * _ratio_factor(ref_x, sx2)
    if family in _PRODUCT_FAMILIES:
        return sy2 * _product_factor(ref_z, sz2)
    if family in _COMBINED_FAMILIES:
        ratio = _ratio_factor(ref_x, sx2)
        product = _product_factor(ref_z, sz2)
        return sy2 * (weight * ratio + (1.0 - weight) * product)
    if family is Family.ISAKI_RATIO:
        return sy2 * ref_x / sx2
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

    This is the checked scalar entry to :func:`value_kernel`, shared by
    :func:`estimate_single_phase`.  ``weight`` must already be resolved
    for combined kinds.
    """
    family = kind.family
    if family is Family.UNBIASED:
        return sy2
    if kind.is_two_phase:
        raise InvalidInputError(
            f"estimator {kind.label!r} is two-phase; use two_phase_value"
        )
    if aux is None:
        raise InvalidInputError(f"estimator {kind.label!r} needs known auxiliary variances")
    if weight is None and kind.is_combined:
        raise InvalidInputError("combined estimator needs a resolved weight")
    observed = {"sx2": sx2, "sz2": sz2}
    for name, message in DIVISOR_CHECKS[family]:
        if observed[name] <= 0.0:
            raise DegenerateSampleError(message)
        aux.require(name)  # the known variance divided against
    return value_kernel(family, sy2, sx2, sz2, aux.sx2, aux.sz2, weight)


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
    family = kind.family
    if not kind.is_two_phase:
        raise InvalidInputError(
            f"estimator {kind.label!r} is single-phase; use single_phase_value"
        )
    if weight is None and kind.is_combined:
        raise InvalidInputError("combined estimator needs a resolved weight")
    observed = {"sx2": sx2, "sz2": sz2, "sx2_first": sx2_first, "sz2_first": sz2_first}
    for name, message in DIVISOR_CHECKS[family]:
        if observed[name] <= 0.0:
            raise DegenerateSampleError(message)
    return value_kernel(family, sy2, sx2, sz2, sx2_first, sz2_first, weight)


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


def _plug_in_table(y: np.ndarray, x: np.ndarray, z: np.ndarray) -> DeltaTable:
    try:
        return DeltaTable.from_moments(*fourth_moments(y, x, z))
    except DegeneratePopulationError as exc:
        raise DegenerateSampleError(
            f"cannot estimate moments from the sample: {exc}"
        ) from exc


def _resolve_weight(
    kind: EstimatorKind,
    weight: float | None,
    deltas: DeltaTable | None,
    plug_in,
) -> float:
    """Resolution order: explicit argument, kind.weight, moment table, sample."""
    if weight is not None:
        weight = float(weight)
        if not math.isfinite(weight):
            raise InvalidInputError(f"weight must be finite, got {weight!r}")
        return weight
    if kind.weight is not None:
        return kind.weight
    if deltas is not None:
        return alpha_opt(deltas)
    if plug_in is not None:
        return alpha_opt(plug_in())
    raise InvalidInputError(
        "combined estimator needs a weight: pass weight=..., embed one in the "
        "kind, or provide a moment table to optimize against"
    )


def _checked_sample(values, name: str, expected_size: int | None = None) -> np.ndarray:
    if values is None:
        raise InvalidInputError(f"this estimator needs sample values for {name!r}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"sample {name!r} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"sample {name!r} contains non-finite values")
    if expected_size is not None and arr.size != expected_size:
        raise InvalidInputError(
            f"sample {name!r} has length {arr.size}, expected {expected_size}"
        )
    return arr


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
    if kind.is_two_phase:
        raise InvalidInputError(
            f"estimator {kind.label!r} is two-phase; use estimate_two_phase"
        )
    y_arr = _checked_sample(y, "y")
    sy2 = sample_variance(y_arr)
    if kind.family is Family.UNBIASED:
        return sy2
    sx2 = sz2 = None
    x_arr = z_arr = None
    if kind.uses_x:
        x_arr = _checked_sample(x, "x", y_arr.size)
        sx2 = sample_variance(x_arr)
    if kind.uses_z:
        z_arr = _checked_sample(z, "z", y_arr.size)
        sz2 = sample_variance(z_arr)
    resolved = None
    if kind.is_combined:
        resolved = _resolve_weight(
            kind, weight, deltas, lambda: _plug_in_table(y_arr, x_arr, z_arr)
        )
    return single_phase_value(kind, sy2=sy2, sx2=sx2, sz2=sz2, aux=aux, weight=resolved)


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
    if not kind.is_two_phase:
        raise InvalidInputError(
            f"estimator {kind.label!r} is single-phase; use estimate_single_phase"
        )
    y_arr = _checked_sample(y, "y")
    n = y_arr.size
    sy2 = sample_variance(y_arr)
    sx2 = sz2 = sx2_first = sz2_first = None
    x2_arr = z2_arr = None
    first_sizes: dict[str, int] = {}
    if kind.uses_x:
        x1_arr = _checked_sample(x_first, "x_first")
        first_sizes["x_first"] = x1_arr.size
        x2_arr = _checked_sample(x_second, "x_second", n)
        sx2_first = sample_variance(x1_arr)
        sx2 = sample_variance(x2_arr)
    if kind.uses_z:
        z1_arr = _checked_sample(z_first, "z_first")
        first_sizes["z_first"] = z1_arr.size
        z2_arr = _checked_sample(z_second, "z_second", n)
        sz2_first = sample_variance(z1_arr)
        sz2 = sample_variance(z2_arr)
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
    resolved = None
    if kind.is_combined:
        resolved = _resolve_weight(
            kind, weight, deltas, lambda: _plug_in_table(y_arr, x2_arr, z2_arr)
        )
    return two_phase_value(
        kind,
        sy2=sy2,
        sx2=sx2,
        sz2=sz2,
        sx2_first=sx2_first,
        sz2_first=sz2_first,
        weight=resolved,
    )


def estimate_two_phase_from_draw(
    kind: EstimatorKind,
    pop: Population,
    draw: TwoPhaseDraw,
    *,
    weight: float | None = None,
    deltas: DeltaTable | None = None,
) -> float:
    """Apply a two-phase estimator to a draw from a known population.

    Convenience wrapper for simulations and examples: slices the
    population by the draw's index sets and hands only what a real
    two-phase design would observe to :func:`estimate_two_phase`
    (``y`` on the second phase, auxiliaries on both phases).
    """
    if draw.first_phase.size and int(draw.first_phase.max()) >= pop.size:
        raise InvalidDesignError(
            f"draw indexes unit {int(draw.first_phase.max())} but the population "
            f"has only {pop.size} units"
        )
    second = draw.second_phase
    first = draw.first_phase
    return estimate_two_phase(
        kind,
        pop.y[second],
        x_first=pop.x[first] if kind.uses_x else None,
        z_first=pop.z[first] if kind.uses_z else None,
        x_second=pop.x[second] if kind.uses_x else None,
        z_second=pop.z[second] if kind.uses_z else None,
        weight=weight,
        deltas=deltas,
    )
