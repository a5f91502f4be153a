"""Plain helpers shared across test modules (kept out of conftest so they
can be imported explicitly)."""

from __future__ import annotations

import numpy as np

import varaux.moments
from varaux import Population


def random_population(rng: np.random.Generator, size: int) -> Population:
    """A generic random population with positive yx and negative yz trend."""
    base = rng.standard_normal(size)
    y = np.exp(0.35 * base + 0.2 * rng.standard_normal(size))
    x = np.exp(0.4 * base + 0.3 * rng.standard_normal(size))
    z = np.exp(-0.35 * base + 0.25 * rng.standard_normal(size))
    return Population(y=y, x=x, z=z)


def count_fourth_moments(monkeypatch) -> list:
    """Record each call of ``fourth_moments`` made by the moments module;
    :func:`varaux.delta_table` makes one per pass over a population."""
    calls = []
    original = varaux.moments.fourth_moments

    def counted(*variates):
        calls.append(variates)
        return original(*variates)

    monkeypatch.setattr(varaux.moments, "fourth_moments", counted)
    return calls
