"""Named random streams derived from a single master seed.

Every stochastic component of a simulation (the value generator, the
tie-breaker, each agent's internal randomness) draws from its own stream.
Streams are independent and addressable by name, so replacing one agent in a
counterfactual re-run leaves every other stream untouched.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .distributions import _integer

__all__ = ["substream"]


def _seed(x, error: type = ValueError, name: str = "seed") -> int:
    """``x`` as an int in [0, 2**64), where distinct ints name distinct
    streams; anything else raises ``error``."""
    x = _integer(x, name, error)
    if not 0 <= x < 2**64:
        raise error(f"{name} must lie in [0, 2**64), got {x!r}")
    return x


def _token(label) -> int:
    if isinstance(label, (int, np.integer)):
        return _seed(label, name="stream label")
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(master_seed: int, *labels) -> np.random.Generator:
    """Return the generator for the stream named by ``labels``.

    The same (seed, labels) pair always yields an identical stream; distinct
    label paths yield independent streams.  The seed and every int label
    must lie in [0, 2**64): ``ValueError`` otherwise.
    """
    entropy = [_seed(master_seed)] + [_token(lab) for lab in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))
