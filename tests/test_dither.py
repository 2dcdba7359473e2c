"""Shared-seed dither streams and the DQ/SDQ transforms."""

import numpy as np
import pytest

from jopeq import codec, dither
from jopeq.codec import encode_rows, scale_rows
from jopeq.dither import SharedRandomness, _KeyedStreams, dither_block, sdq
from jopeq.lattice import (hexagonal_lattice, nearest_point, quantize_clipped,
                           scalar_uniform)
from jopeq.privacy import PpnSampler, build_ppn_sampler, laplace_spec, t_spec
from jopeq.stattests import correlation_test, ks_test
from stream_layout import (BLOCK, DITHER_TAG, MIXED, NOISE_TAG, layout_stream,
                           small_blocks, times_generator)


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

    @pytest.mark.parametrize("tag", [DITHER_TAG, NOISE_TAG])
    def test_rounds_share_no_draw(self, tag):
        # Rounds r and r + 1 of one (seed, user) read disjoint streams:
        # none of the first 2^20 draws of one is among those of the other.
        for seed, user, r in ((2, 3, 7), (-5, 0, 0), (2 ** 63 + 1, 9, 250)):
            draws = [gen.bit_generator.random_raw(1 << 20) for gen in
                     _KeyedStreams([SharedRandomness(seed, user, r),
                                    SharedRandomness(seed, user, r + 1)],
                                   tag)]
            # (No 64-bit word repeats within either stream's draws here.)
            assert len(np.intersect1d(*draws, assume_unique=True)) == 0

    @pytest.mark.parametrize("count", [1, 7])
    def test_stream_sequence_stacks_single_streams(self, count):
        # One sub-vector per stream codes as a block of several does.
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
            x = times_generator(lat, u)
            assert np.array_equal(got[k * per:(k + 1) * per],
                                  x - nearest_point(lat, x))

    @pytest.mark.parametrize("family", ["scalar", "hexagonal"])
    @pytest.mark.parametrize("noise_seed", [-12345, 2 ** 63 + 77])
    def test_ppn_rows_follow_layout(self, family, noise_seed, monkeypatch):
        # Both draw one cell uniform and then L jitter uniforms per vector.
        # With m > BLOCK each row is coded in slices, each with its own
        # sample call. The blocks may run concurrently, in any order: each
        # draw is keyed by the block it served, its first row and its
        # first sub-vector, and in key order the draws are the rows in
        # order.
        if family == "scalar":
            lat, spec = scalar_uniform(9.0, 4), laplace_spec(1.0, 1)
        else:
            lat, spec = hexagonal_lattice(9.0, 3), t_spec(3.0, 2, 3.0)
        samp = build_ppn_sampler(spec, lat, grid_points=64, refine_iters=5)
        small_blocks(monkeypatch, lat.dimension)
        row_of = {sr.user: k for k, sr in enumerate(MIXED)}
        drawn = {}

        def keep(count, rng, **buffers):
            # A whole row reads from draw 0, a slice from its first cell
            # uniform's offset, which is its first sub-vector. The draw
            # goes to the block's buffers, which it then spends: keep a
            # copy.
            key = (row_of[rng._srs[0].user], rng._starts[0])
            assert key not in drawn
            got = PpnSampler.sample(samp, count, rng, **buffers)
            drawn[key] = got.copy()
            return got

        monkeypatch.setattr(samp, "sample", keep)
        dim = lat.dimension
        for m, calls in ((7, 1), (BLOCK + 3, 2 * len(MIXED))):
            drawn.clear()
            hs = np.random.default_rng(8).normal(0.0, 1.0,
                                                 (len(MIXED), m * dim))
            idx, _, overloaded = encode_rows(hs, lat, samp, MIXED,
                                             noise_seed)
            assert len(drawn) == calls
            want = np.concatenate([
                PpnSampler.sample(samp, m, layout_stream(
                    noise_seed, sr.user, sr.round_index, NOISE_TAG))
                for sr in MIXED])
            assert np.array_equal(
                np.concatenate([drawn[key] for key in sorted(drawn)]), want)
            # The encoded output is the quantized sum with that PPN.
            x = (scale_rows(hs, m)[:, None] * hs).reshape(-1, dim)
            x += dither_block(MIXED, lat, len(MIXED) * m)
            x += want
            _, want_idx, want_over = quantize_clipped(lat, x)
            assert np.array_equal(idx.ravel(), want_idx)
            assert np.array_equal(overloaded.ravel(), want_over)

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


class TestStreamOffsets:
    """A stream read from draw o on equals the layout stream after o draws."""

    OFFSETS = [0, 1, 3, 4, 5, 4 * BLOCK + 3]

    @staticmethod
    def after(sr, tag, offset):
        want = layout_stream(sr.seed, sr.user, sr.round_index, tag)
        want.bit_generator.random_raw(offset)
        return want

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_positioned_row_follows_layout(self, offset):
        for gen, sr in zip(_KeyedStreams(MIXED, NOISE_TAG, (offset,)),
                           MIXED):
            want = self.after(sr, NOISE_TAG, offset)
            assert np.array_equal(gen.random(11), want.random(11))
            assert np.array_equal(gen.integers(0, 2 ** 20, size=3),
                                  want.integers(0, 2 ** 20, size=3))

    def test_reads_start_at_their_offsets(self):
        starts = (5, 4 * BLOCK + 3, 2)
        rows = _KeyedStreams(MIXED, NOISE_TAG, starts)
        for reader, sr in zip(rows, MIXED):
            for start in starts:
                out = np.empty((3, 2))
                reader.random(out=out)
                want = self.after(sr, NOISE_TAG, start)
                assert np.array_equal(out, want.random((3, 2)))

    @pytest.mark.parametrize("lat", [scalar_uniform(4.0, 3),
                                     hexagonal_lattice(3.0, 3)],
                             ids=["L=1", "L=2"])
    @pytest.mark.parametrize("start", [1, 3, BLOCK + 1])
    def test_dither_block_from_start(self, lat, start):
        per = 6
        got = dither_block(MIXED, lat, len(MIXED) * per, start)
        for k, sr in enumerate(MIXED):
            u = self.after(sr, DITHER_TAG, start * lat.dimension).random(
                (per, lat.dimension))
            x = times_generator(lat, u)
            assert np.array_equal(got[k * per:(k + 1) * per],
                                  x - nearest_point(lat, x))
            whole = dither_block(sr, lat, start + per)
            assert np.array_equal(got[k * per:(k + 1) * per],
                                  whole[start:])

    @pytest.mark.parametrize("family", ["scalar", "hexagonal"])
    @pytest.mark.parametrize("lo,hi", [(0, 9), (1, 5), (3, 9), (0, 4)])
    def test_ppn_slice_reads_its_part_of_the_row(self, family, lo, hi):
        # A row of M = 9 vectors drawn whole, then sliced, equals the slice
        # drawn alone from the offsets of read_starts.
        if family == "scalar":
            lat, spec = scalar_uniform(9.0, 4), laplace_spec(1.0, 1)
        else:
            lat, spec = hexagonal_lattice(9.0, 3), t_spec(3.0, 2, 3.0)
        samp = build_ppn_sampler(spec, lat, grid_points=64, refine_iters=5)
        m = 9
        starts = samp.read_starts(lo, hi, m)
        assert starts == ((0,) if (lo, hi) == (0, m) else
                          (lo, m + lo * lat.dimension))
        got = samp.sample(len(MIXED) * (hi - lo),
                          _KeyedStreams(MIXED, NOISE_TAG, starts))
        want = np.concatenate([
            samp.sample(m, layout_stream(sr.seed, sr.user, sr.round_index,
                                         NOISE_TAG))[lo:hi]
            for sr in MIXED])
        assert np.array_equal(got, want)


def _draw_rows(rows):
    """Draws of every row of an iteration: 5 doubles, then 3 integers."""
    return [np.concatenate([gen.random(5), gen.integers(0, 2 ** 20, 3)])
            for gen in rows]


class TestPhiloxReuse:
    """Iterations of `_KeyedStreams` reuse their thread's Philox."""

    def test_interleaved_iterations_draw_as_apart(self):
        # The second iteration finds the thread's Philox taken and builds
        # its own, so taking rows of both in turn changes no draw.
        first = _KeyedStreams(MIXED, NOISE_TAG)
        second = _KeyedStreams(MIXED[::-1], DITHER_TAG, (7,))
        apart = _draw_rows(first), _draw_rows(second)
        together = ([], [])
        for a, b in zip(first, second):
            together[0].extend(_draw_rows([a]))
            together[1].extend(_draw_rows([b]))
        for got, want in zip(together, apart):
            assert np.array_equal(got, want)

    def test_pool_thread_draws_as_the_main_thread(self):
        rows = _KeyedStreams(MIXED, NOISE_TAG, (3,))

        def draw_and_hold():
            return _draw_rows(rows), dither._FREE.pair

        want, main_pair = draw_and_hold()
        got, pool_pair = codec._POOL.submit(draw_and_hold).result()
        assert np.array_equal(got, want)
        # Each thread keeps its own Philox.
        assert pool_pair is not None and pool_pair[0] is not main_pair[0]

    def test_iteration_left_early_changes_no_later_draw(self):
        want = _draw_rows(_KeyedStreams(MIXED, NOISE_TAG))
        for gen in _KeyedStreams(MIXED[::-1], DITHER_TAG, (5,)):
            # An odd count of 32-bit draws leaves half a word and part of
            # the output buffer unread.
            gen.integers(0, 2 ** 20, size=3, dtype=np.uint32)
            left = gen
            break
        rows = iter(_KeyedStreams(MIXED, NOISE_TAG))
        assert np.array_equal(_draw_rows(rows), want)
        # The iteration left by the break gave its Philox back.
        assert dither._FREE.pair[1] is left


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
