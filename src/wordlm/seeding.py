"""Deterministic named random streams derived from a single run seed.

Each (seed, stream name, step) triple maps to an independent generator, so
training can be resumed at any step without replaying earlier draws.
"""

import zlib

import numpy as np


def substream(seed: int, name: str, step: int = 0) -> np.random.Generator:
    """Generator for a named stream at a given step, stable across runs; every
    non-negative seed, however wide, is a stream of its own."""
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng([int(seed), tag, int(step)])
