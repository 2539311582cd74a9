"""Reproducible random number streams.

Every stochastic routine in this package draws from an SFC64 generator.
Streams are derived from a master seed plus a tuple of integer/string
labels (experiment name, replication index, ...): the labels are folded
into one 64-bit word with a splitmix64 step, and the pair (seed, word) is
the entropy of a numpy SeedSequence, which hashes it into the SFC64
state.  The same tuple always reproduces the same stream; distinct
tuples give distinct words, and SeedSequence's hashing makes the streams
they seed independent in practice (it is not the provable independence
of a counter-based generator's keys, which the lab does not need).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
# the replications of a Monte Carlo run are drawn in blocks of BLOCK_ROWS,
# one keyed stream per block: replication r is column r mod BLOCK_ROWS of
# block r // BLOCK_ROWS (processes.window_sums)
BLOCK_ROWS = 512


def _splitmix64(x: int) -> int:
    # Standard splitmix64 finalizer; mixes label words into the key.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fold_label(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK64
    if isinstance(label, str):
        acc = 0
        for b in label.encode("utf-8"):
            acc = _splitmix64(acc ^ b)
        return acc
    raise TypeError(f"stream label must be int or str, got {type(label).__name__}")


def stream_key(seed: int, *labels) -> tuple:
    """(seed, word): the two 64-bit words that key the stream of (seed, labels...)."""
    word = 0
    for lab in labels:
        word = _splitmix64(word ^ _fold_label(lab))
    # config seeds lie in [0, 2^64), so the mask wraps only the seed + 1 of
    # corollary-sum's Z stream at seed 2^64 - 1, to a key no other seed reaches
    return int(seed) & _MASK64, word


def stream(seed: int, *labels) -> np.random.Generator:
    """Independent generator for the given (seed, labels...) tuple."""
    seq = np.random.SeedSequence(entropy=stream_key(seed, *labels))
    return np.random.Generator(np.random.SFC64(seq))
