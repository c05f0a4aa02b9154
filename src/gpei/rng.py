"""Seed derivation and trial streams for reproducible, platform-independent
randomness.

All generators are numpy PCG64 instances (``np.random.default_rng``), which
is a named, documented algorithm whose output is identical across platforms
for a given integer seed.  Substreams are derived arithmetically:

* trial substream:  ``seed XOR splitmix64(trial_index)``
* purpose substream of a lemma protocol: ``splitmix64(seed XOR tag)``

A trial seeds one PCG64 generator and cuts its stream (period 2**128) into
segments of 2**64 draws: the objective reads segment 0, the initial design
segment ``INIT`` and the noise segment ``NOISE``, each from the segment's
start, so each is reproducible on its own and none overlaps another.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

# Segments of a trial's stream after the objective's segment 0.
INIT, NOISE = 1, 2


def splitmix64(x: int) -> int:
    """One output of the splitmix64 sequence started at ``x`` (64-bit)."""
    z = (x + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Seed of the given trial's substream."""
    return (int(master_seed) ^ splitmix64(int(trial_index))) & _MASK


def derive_stream_seed(seed: int, tag: int) -> int:
    """Seed of a tagged purpose substream of a lemma protocol."""
    return splitmix64((int(seed) ^ int(tag)) & _MASK)


def to_segment(rng: np.random.Generator, seeded_state: dict, segment: int) -> np.random.Generator:
    """``rng`` moved to the start of ``segment``: its bit generator set to
    ``seeded_state`` (its state when seeded) and advanced segment * 2**64 draws."""
    bits = rng.bit_generator
    bits.state = seeded_state
    bits.advance(segment << 64)
    return rng
