"""Synthetic finite populations with controlled correlation structure.

Populations are generated through a Gaussian copula: latent standard
normal triples with a target correlation matrix, each coordinate then
pushed through a marginal transform.  The latent correlations are the
contract; realized (post-transform) correlations are close but not
equal for non-normal marginals, and callers who care should measure
them on the result with :func:`realized_correlations`, which reads them
off the moment kernel.

The defaults produce the package's reference test population: 5000
units, lognormal marginals, ``x`` positively and ``z`` negatively
correlated with ``y``.  Lognormal marginals are deliberate: they give
fourth moments heavy enough that the estimators under study separate
at realistic sample sizes, while staying light enough that first-order
theory is accurate there.

Negative association comes from a negative latent correlation, never
from reflecting a variate after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidSpecError, _finite, _integer
from .moments import Population, _exact, _moments, load_json

_MARGINAL_FAMILIES = ("normal", "lognormal")


@dataclass(frozen=True)
class Marginal:
    """A marginal transform applied to a latent standard normal value.

    ``normal(loc, scale)`` maps ``u`` to ``loc + scale*u``;
    ``lognormal(loc, scale)`` maps ``u`` to ``exp(loc + scale*u)``
    (``loc`` and ``scale`` on the log scale).
    """

    family: str
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in _MARGINAL_FAMILIES:
            raise InvalidSpecError(
                f"unknown marginal family {self.family!r}; expected one of {_MARGINAL_FAMILIES}"
            )
        object.__setattr__(self, "loc", _finite(self.loc, "marginal loc", error=InvalidSpecError))
        object.__setattr__(self, "scale", _finite(self.scale, "marginal scale", positive=True, error=InvalidSpecError))

    def transform(self, latent: np.ndarray) -> np.ndarray:
        """The marginal's values in one new array, computed in place: IEEE ``*``
        and ``+`` commute, so the bits are those of ``loc + scale * latent``."""
        values = np.multiply(latent, self.scale, out=np.empty(np.shape(latent)))
        np.add(values, self.loc, out=values)
        if self.family == "lognormal":
            np.exp(values, out=values)
        return values

    @property
    def tag(self) -> str:
        """``family:loc:scale``, which :meth:`parse` reads back to this marginal."""
        return f"{self.family}:{_exact(self.loc)}:{_exact(self.scale)}"

    @classmethod
    def parse(cls, text: str) -> "Marginal":
        """Parse ``family[:loc[:scale]]``, e.g. ``lognormal:0:0.4``.

        Omitted parts default to ``loc=0`` and ``scale=1``.
        """
        parts = text.strip().split(":")
        if not 1 <= len(parts) <= 3:
            raise InvalidSpecError(
                f"cannot parse marginal {text!r}; expected 'family[:loc[:scale]]'"
            )
        family = parts[0].strip().lower()
        try:
            loc = float(parts[1]) if len(parts) > 1 else 0.0
            scale = float(parts[2]) if len(parts) > 2 else 1.0
        except ValueError:
            raise InvalidSpecError(
                f"cannot parse marginal {text!r}; loc and scale must be numbers"
            ) from None
        return cls(family, loc, scale)


def _coerce_marginal(value) -> Marginal:
    if isinstance(value, Marginal):
        return value
    if isinstance(value, str):
        return Marginal.parse(value)
    if isinstance(value, dict):
        unknown = set(value) - {"family", "loc", "scale"}
        if unknown:
            raise InvalidSpecError(f"marginal object has unknown keys: {sorted(unknown)}")
        if "family" not in value:
            raise InvalidSpecError("marginal object needs a 'family' key")
        return Marginal(**value)
    raise InvalidSpecError(f"cannot interpret {value!r} as a marginal")


@dataclass(frozen=True)
class PopulationSpec:
    """Recipe for a synthetic population.

    ``rho_yx``, ``rho_yz``, ``rho_xz`` are latent correlations in
    (-1, 1); the resulting 3x3 matrix must be positive definite, which
    is checked at generation time by the factorization itself.
    """

    size: int = 5000
    rho_yx: float = 0.8
    rho_yz: float = -0.6
    rho_xz: float = -0.5
    marginal_y: Marginal = field(default_factory=lambda: Marginal("lognormal", 0.0, 0.3))
    marginal_x: Marginal = field(default_factory=lambda: Marginal("lognormal", 0.0, 0.6))
    marginal_z: Marginal = field(default_factory=lambda: Marginal("lognormal", 0.0, 0.5))
    seed: int = 7

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", _integer(self.size, "population size", 2, error=InvalidSpecError))
        for name in ("rho_yx", "rho_yz", "rho_xz"):
            value = _finite(getattr(self, name), name, error=InvalidSpecError)
            if not (-1.0 < value < 1.0):
                raise InvalidSpecError(f"{name} must lie strictly inside (-1, 1), got {value!r}")
            object.__setattr__(self, name, value)
        for name in ("marginal_y", "marginal_x", "marginal_z"):
            object.__setattr__(self, name, _coerce_marginal(getattr(self, name)))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0, 2**64, error=InvalidSpecError))

    def latent_correlation(self) -> np.ndarray:
        return np.array(
            [
                [1.0, self.rho_yx, self.rho_yz],
                [self.rho_yx, 1.0, self.rho_xz],
                [self.rho_yz, self.rho_xz, 1.0],
            ]
        )

    def to_dict(self) -> dict:
        """The spec's fields, each marginal as its :attr:`Marginal.tag`."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {
            key: value.tag if isinstance(value, Marginal) else value
            for key, value in values.items()
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PopulationSpec":
        if not isinstance(data, dict):
            raise InvalidSpecError(f"population spec must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidSpecError(f"population spec has unknown keys: {sorted(unknown)}")
        return cls(**data)


def load_population_spec(path) -> PopulationSpec:
    """Read a :class:`PopulationSpec` from a JSON file."""
    data = load_json(path)
    try:
        return PopulationSpec.from_dict(data)
    except InvalidSpecError as exc:
        raise InvalidSpecError(f"{path}: {exc}") from exc


def generate_population(spec: PopulationSpec) -> Population:
    """Generate a population from a spec, deterministically in its seed.

    Raises
    ------
    InvalidSpecError
        If the latent correlation matrix is not positive definite
        (detected by the Cholesky factorization failing).
    """
    try:
        factor = np.linalg.cholesky(spec.latent_correlation())
    except np.linalg.LinAlgError:
        raise InvalidSpecError(
            "latent correlation matrix is not positive definite for "
            f"rho_yx={spec.rho_yx}, rho_yz={spec.rho_yz}, rho_xz={spec.rho_xz}"
        ) from None
    rng = np.random.default_rng(spec.seed)
    latent = rng.standard_normal((spec.size, 3)) @ factor.T
    marginals = (spec.marginal_y, spec.marginal_x, spec.marginal_z)
    # A marginal that overflows gives inf, which Population._adopt refuses.
    with np.errstate(over="ignore"):
        columns = [marginal.transform(values) for marginal, values in zip(marginals, latent.T)]
    del latent  # before the finiteness scans allocate
    return Population._adopt(*columns)


def realized_correlations(pop: Population) -> dict[str, float]:
    """Pearson correlations actually attained by a population.

    They are the moment kernel's ``delta_110``, ``delta_101`` and
    ``delta_011``, clipped to [-1, 1] as ``np.corrcoef`` clips them; a
    constant variate gives NaN.
    """
    _, _, deltas = _moments((pop.y, pop.x, pop.z), ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    names = ("rho_yx", "rho_yz", "rho_xz")
    return {name: float(np.clip(value, -1.0, 1.0)) for name, value in zip(names, deltas)}
