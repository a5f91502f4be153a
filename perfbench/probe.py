"""A fixed unit of work that measures how fast the host runs right now.

The benchmark host is a few cores of a shared machine whose speed for
one process swings by tens of percent from second to second and drifts
between minutes.  The client runs :func:`probe` between jobs; the
timing metrics are divided by the probe's time (see ``run.py``).  The
probe's mix follows the engine's per-replication work: a Philox
substream, a nested partial Fisher-Yates draw in pure Python, gathers
from a 5,000-unit population and small-array variances.  It imports
nothing from varaux, so a change to the package leaves it unchanged;
the code below must not change either, or every normalised metric
moves.
"""

from __future__ import annotations

import numpy as np

PROBE_KEY = 20090211
PROBE_POP = 5000
PROBE_NPRIME = 400
PROBE_N = 100
#: Replications per probe call: about 0.4 s on a 2-vCPU Intel Xeon KVM guest.
PROBE_REPS = 768
#: What ``probe(PROBE_REPS)`` returns; a different value means the probe
#: did other work than the one the reference speed was measured with.
PROBE_CHECKSUM = float.fromhex("0x1.8c548949bc7c1p+10")


def _population() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.Philox(key=PROBE_KEY))
    return tuple(rng.standard_normal((3, PROBE_POP)))


_Y, _X, _Z = _population()


def _draw(stream: np.random.Generator, n_pop: int, n_sample: int) -> np.ndarray:
    positions = stream.integers(np.arange(n_sample), n_pop)
    picked = np.empty(n_sample, dtype=np.int64)
    slots: dict[int, int] = {}
    for i in range(n_sample):
        j = int(positions[i])
        picked[i] = slots.pop(j, j)
        if j != i:
            slots[j] = slots.pop(i, i)
    return picked


def probe(reps: int = PROBE_REPS) -> float:
    """Run the fixed work; returns a checksum that depends only on ``reps``."""
    total = 0.0
    for rep in range(reps):
        stream = np.random.Generator(np.random.Philox(key=PROBE_KEY).jumped(rep))
        first = _draw(stream, PROBE_POP, PROBE_NPRIME)
        second = first[_draw(stream, PROBE_NPRIME, PROBE_N)]
        sy2 = float(np.var(_Y[second], ddof=1))
        sx2 = float(np.var(_X[second], ddof=1))
        sz2 = float(np.var(_Z[second], ddof=1))
        sx2_first = float(np.var(_X[first], ddof=1))
        sz2_first = float(np.var(_Z[first], ddof=1))
        total += sy2 * (sx2_first / sx2) + sy2 * (sz2_first / sz2)
    return total
