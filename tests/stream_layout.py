"""
The keyed stream layout (see jopeq.dither), built directly, the product
with the lattice generator that maps its draws to dithers, the mixed rows
the stream tests use, and the block size of the block tests.
"""

import numpy as np

from jopeq import codec
from jopeq.dither import SharedRandomness

# The stream layout that user and server both regenerate from: key
# (seed mod 2^64, user), counter (0, 0, round, tag), one domain tag per
# stream (the local-SGD picks read round 0 of theirs).
DITHER_TAG, NOISE_TAG, SGD_TAG = 0xD17E, 0x9019, 102
# Rows of one batch whose seeds, users and rounds all differ; the seeds
# include a negative one and two at or above 2^63, and the last row's
# round is the largest, 2^64 - 1. (The round sits in counter word 2, so
# no offset the tests reach carries into it.)
MIXED = [SharedRandomness(seed=3, user=0, round_index=0),
         SharedRandomness(seed=-7, user=4, round_index=11),
         SharedRandomness(seed=2 ** 63 + 5, user=9, round_index=250),
         SharedRandomness(seed=2 ** 64 - 1, user=1, round_index=2),
         SharedRandomness(seed=6, user=2, round_index=2 ** 64 - 1)]


def layout_stream(seed, user, round_index, tag):
    """The stream of (seed, user, round) under tag, built directly."""
    return np.random.Generator(np.random.Philox(
        key=[np.uint64(seed & (2 ** 64 - 1)), np.uint64(user)],
        counter=[np.uint64(0), np.uint64(0), np.uint64(round_index),
                 np.uint64(tag)]))


def times_generator(lat, a):
    """
    G a for each vector a of shape (..., L), elementwise and in a fixed
    order: (g00 a0 + g01 a1, g11 a1) for the upper-triangular hexagonal G,
    the spacing times a for the scaled-identity families.
    """
    g = lat.generator
    if lat.family != "hexagonal":
        return a * g[0, 0]
    return np.stack([a[..., 0] * g[0, 0] + a[..., 1] * g[0, 1],
                     a[..., 1] * g[1, 1]], axis=-1)


# Sub-vectors per block in the block tests, which set the codec's budget
# (`codec._BLOCK`, in coordinates) to BLOCK L for a lattice of dimension
# L: smaller than the real budget, so that their inputs stay small.
BLOCK = 1 << 14


def small_blocks(monkeypatch, dim, block=BLOCK):
    """Make the codec code blocks of `block` sub-vectors of dimension dim."""
    monkeypatch.setattr(codec, "_BLOCK", block * dim)
