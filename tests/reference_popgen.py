"""Reference generator: ``generate_population`` as it was before it built
each variate in place.

It applies each marginal as ``loc + scale * latent`` to a strided column
of the latent block and lets the ``Population`` constructor copy the
results.  ``varaux.popgen.generate_population`` must give the same array
bits on every spec, and refuse the same specs with the same exception
class and message; tests compare the two.
"""

from __future__ import annotations

import numpy as np

from varaux import Population
from varaux.errors import InvalidSpecError


def _transform(marginal, latent: np.ndarray) -> np.ndarray:
    shifted = marginal.loc + marginal.scale * latent
    if marginal.family == "lognormal":
        return np.exp(shifted)
    return shifted


def generate_population(spec) -> Population:
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
    # A marginal that overflows gives inf, which Population refuses.
    with np.errstate(over="ignore"):
        return Population(
            y=_transform(spec.marginal_y, latent[:, 0]),
            x=_transform(spec.marginal_x, latent[:, 1]),
            z=_transform(spec.marginal_z, latent[:, 2]),
        )
