"""Shared-seed dither streams and the DQ/SDQ transforms."""

import numpy as np
import pytest

from jopeq.codec import encode_rows
from jopeq.dither import SharedRandomness, _KeyedStreams, dither_block, sdq
from jopeq.lattice import (hexagonal_lattice, nearest_point, quantize_clipped,
                           scalar_uniform)
from jopeq.privacy import PpnSampler, build_ppn_sampler, laplace_spec, t_spec
from jopeq.stattests import correlation_test, ks_test

# The stream layout that user and server both regenerate from: key
# (seed mod 2^64, user), counter (round, tag, 0, 0), one domain tag per
# stream.
DITHER_TAG, NOISE_TAG = 0xD17E, 0x9019
# Rows of one batch whose seeds, users and rounds all differ; the seeds
# include a negative one and two at or above 2^63.
MIXED = [SharedRandomness(seed=3, user=0, round_index=0),
         SharedRandomness(seed=-7, user=4, round_index=11),
         SharedRandomness(seed=2 ** 63 + 5, user=9, round_index=250),
         SharedRandomness(seed=2 ** 64 - 1, user=1, round_index=2)]


def layout_stream(seed, user, round_index, tag):
    """The stream of (seed, user, round) under tag, built directly."""
    return np.random.Generator(np.random.Philox(
        key=[np.uint64(seed & (2 ** 64 - 1)), np.uint64(user)],
        counter=[np.uint64(round_index), np.uint64(tag), np.uint64(0),
                 np.uint64(0)]))


class TestSharedStream:
    def test_deterministic(self):
        sr = SharedRandomness(seed=123, user=4, round_index=9)
        lat = scalar_uniform(4.0, 3)
        block = dither_block(sr, lat, 5)
        assert np.array_equal(block, dither_block(sr, lat, 5))

    def test_block_rows_match_single_draws(self):
        sr = SharedRandomness(seed=11, user=1, round_index=3)
        lat = hexagonal_lattice(3.0, 3)
        block = dither_block(sr, lat, 4)
        # Row i, the dither of sub-vector i, does not depend on the count.
        for i in range(4):
            assert np.array_equal(block[i], dither_block(sr, lat, i + 1)[i])

    @pytest.mark.parametrize("count", [1, 7])
    def test_stream_sequence_stacks_single_streams(self, count):
        # One sub-vector per stream is the (1, L) product with G, which
        # takes another BLAS path than a block of several.
        lat = hexagonal_lattice(3.0, 3)
        srs = [SharedRandomness(seed=2, user=k, round_index=5)
               for k in range(3)]
        want = np.concatenate([dither_block(sr, lat, count) for sr in srs])
        assert np.array_equal(dither_block(srs, lat, 3 * count), want)
        with pytest.raises(ValueError):
            dither_block(srs, lat, 3 * count + 1)

    def test_coordinates_change_stream(self):
        lat = scalar_uniform(4.0, 3)
        base = dither_block(SharedRandomness(seed=5), lat, 2)[:, 0]
        assert base[1] != base[0]
        for other in (SharedRandomness(6, 0, 0), SharedRandomness(5, 1, 0),
                      SharedRandomness(5, 0, 1)):
            assert dither_block(other, lat, 1)[0, 0] != base[0]

    def test_adjacent_indices_uncorrelated(self):
        lat = scalar_uniform(4.0, 3)
        block = dither_block(SharedRandomness(seed=21), lat, 100_001)[:, 0]
        rep = correlation_test(block[:-1], block[1:], "adjacent-dither")
        assert rep.passed, str(rep)

    def test_marginal_uniform_over_cell(self):
        lat = scalar_uniform(4.0, 3)  # delta 1
        d = dither_block(SharedRandomness(seed=33), lat, 100_000)[:, 0]
        rep = ks_test(d, lambda v: np.clip(v + 0.5, 0.0, 1.0), "dither-ks")
        assert rep.passed, str(rep)

    def test_dither_lies_in_basic_cell(self):
        lat = hexagonal_lattice(3.0, 3)
        d = dither_block(SharedRandomness(seed=2), lat, 2000)
        assert np.allclose(nearest_point(lat, d), 0.0, atol=1e-9)


class TestStreamLayout:
    @pytest.mark.parametrize("lat", [scalar_uniform(4.0, 3),
                                     hexagonal_lattice(3.0, 3)],
                             ids=["L=1", "L=2"])
    def test_dither_rows_follow_layout(self, lat):
        per = 5
        got = dither_block(MIXED, lat, len(MIXED) * per)
        for k, sr in enumerate(MIXED):
            u = layout_stream(sr.seed, sr.user, sr.round_index,
                              DITHER_TAG).random((per, lat.dimension))
            x = u @ lat.generator.T
            assert np.array_equal(got[k * per:(k + 1) * per],
                                  x - nearest_point(lat, x))

    @pytest.mark.parametrize("family", ["scalar", "hexagonal"])
    @pytest.mark.parametrize("noise_seed", [-12345, 2 ** 63 + 77])
    def test_ppn_rows_follow_layout(self, family, noise_seed, monkeypatch):
        # Both draw one cell uniform and then L jitter uniforms per vector.
        if family == "scalar":
            lat, spec = scalar_uniform(9.0, 4), laplace_spec(1.0, 1)
        else:
            lat, spec = hexagonal_lattice(9.0, 3), t_spec(3.0, 2, 3.0)
        samp = build_ppn_sampler(spec, lat, grid_points=64, refine_iters=5)
        drawn = []

        def keep(count, rng):
            drawn.append(PpnSampler.sample(samp, count, rng))
            return drawn[-1]

        monkeypatch.setattr(samp, "sample", keep)
        m = 7
        hs = np.random.default_rng(8).normal(0.0, 1.0,
                                             (len(MIXED), m * lat.dimension))
        encode_rows(hs, lat, samp, MIXED, noise_seed)
        (got,) = drawn
        for k, sr in enumerate(MIXED):
            g = layout_stream(noise_seed, sr.user, sr.round_index, NOISE_TAG)
            assert np.array_equal(got[k * m:(k + 1) * m],
                                  PpnSampler.sample(samp, m, g))

    def test_row_reset_clears_buffered_words(self):
        rows = _KeyedStreams(MIXED, NOISE_TAG)
        for gen, sr in zip(rows, MIXED):
            want = layout_stream(sr.seed, sr.user, sr.round_index, NOISE_TAG)
            # 32-bit draws first: they read a half word left over by the
            # previous row before they read the output buffer.
            for draw in (lambda g: g.integers(0, 2 ** 20, size=6),
                         lambda g: g.random(3),
                         lambda g: g.integers(0, 2 ** 20, size=5)):
                assert np.array_equal(draw(gen), draw(want))
            # The odd count left half a word and part of the output buffer
            # unread; that the next row still matches shows its reset
            # cleared both.
            state = gen.bit_generator.state
            assert state["has_uint32"] == 1 and state["buffer_pos"] < 4


class TestSdq:
    def test_exact_on_lattice_points_with_zero_dither(self):
        lat = scalar_uniform(4.0, 3)
        for x in (-2.0, 0.0, 3.0):
            val, _, over = sdq(lat, [x], np.zeros(1))
            assert val == [x] and not over

    def test_sdq_equals_dq_minus_dither(self):
        lat = hexagonal_lattice(3.0, 3)
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 1.0, (300, 2))
        d = dither_block(SharedRandomness(seed=4), lat, 300)
        pv, pi, po = quantize_clipped(lat, x + d)
        sv, si, so = sdq(lat, x, d)
        assert np.array_equal(sv, pv - d)
        assert np.array_equal(si, pi)
        assert np.array_equal(so, po)

    def _distortion(self, lat, x, seed):
        d = dither_block(SharedRandomness(seed=seed), lat, len(x))
        val, _, over = sdq(lat, x[:, None], d)
        assert not np.any(over)
        return val[:, 0] - x

    def test_distortion_uniform_and_uncorrelated(self):
        lat = scalar_uniform(4.0, 3)  # delta 1; keep |x| <= gamma - delta
        rng = np.random.default_rng(9)
        x = np.clip(rng.normal(0.0, 1.0, 100_000), -3.0, 3.0)
        e = self._distortion(lat, x, seed=90)
        rep = ks_test(e, lambda v: np.clip(v + 0.5, 0.0, 1.0), "sdq-uniform")
        assert rep.passed, str(rep)
        rep = correlation_test(x, e, "sdq-independence")
        assert rep.passed, str(rep)

    def test_overload_flagged_not_silent(self):
        lat = scalar_uniform(2.0, 2)
        val, _, over = sdq(lat, [5.0], [0.25])
        assert over
        assert val == pytest.approx([2.0 - 0.25])
