"""Deterministic seed derivation.

All randomness flows from one root seed.  Child generators are derived from
(root_seed, *labels) by hashing each label with CRC-32 and feeding the integer
list to numpy's SeedSequence, so every (module, purpose, counter) combination
gets an independent, reproducible stream:

    rng = rng_for(root_seed, "time-tags", run_index)
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.random import Generator, SeedSequence, default_rng

__all__ = ["child_seed_sequence", "rng_for"]


def child_seed_sequence(root_seed: int, *labels) -> SeedSequence:
    entropy = [int(root_seed) & 0xFFFFFFFF]
    for label in labels:
        if isinstance(label, (int, np.integer)):
            entropy.append(int(label) & 0xFFFFFFFF)
        else:
            entropy.append(zlib.crc32(str(label).encode("utf-8")))
    return SeedSequence(entropy)


def rng_for(root_seed: int, *labels) -> Generator:
    """Generator for a named purpose under the given root seed."""
    return default_rng(child_seed_sequence(root_seed, *labels))
