import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxgap import (BadConfig, CovSpec, DimensionMismatch, Partition, expected_max_many,
                    max_diff, sample)
from maxgap import sampling
from maxgap.cov import TILE, _clamped_max, _tile_edges, cross_corr, rho_bar
from maxgap.sampling import CHUNK, chunk_rng, chunks, emax_chunk_rows, sample_max_diff


class TestSampleDeterminism:
    def test_threads_do_not_change_numbers(self):
        spec = CovSpec.factor(np.array([[1.0, 0.0], [0.5, 0.5], [0.2, 0.9]]))
        one = sample(spec, 5000, seed=42, n_threads=1)
        four = sample(spec, 5000, seed=42, n_threads=4)
        assert np.array_equal(one.data, four.data)

    def test_seed_changes_numbers(self):
        spec = CovSpec.explicit(np.eye(2))
        assert not np.array_equal(sample(spec, 100, seed=1).data,
                                  sample(spec, 100, seed=2).data)

    def test_seeds_above_2_63_stay_distinct(self):
        # A plain list key holding a seed of 2^63 or more goes through float64.
        spec = CovSpec.explicit(np.eye(2))
        seeds = (2 ** 63, 2 ** 63 + 1, 2 ** 64 - 2, 2 ** 64 - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = [sample(spec, 4, seed=s).data for s in seeds]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_chunk_prefix_stability(self):
        # Whole chunks are keyed by index, so a longer run extends a shorter
        # one without disturbing it (at chunk granularity).
        spec = CovSpec.explicit(np.eye(3))
        short = sample(spec, 2 * CHUNK, seed=7)
        long = sample(spec, 3 * CHUNK, seed=7)
        assert np.array_equal(short.data, long.data[: 2 * CHUNK])

    def test_metadata(self):
        spec = CovSpec.explicit(np.eye(2))
        batch = sample(spec, 10, seed=3)
        assert batch.n_rep == 10
        assert batch.p == 2
        assert batch.seed == 3
        assert not batch.data.flags.writeable

    def test_seed_validation(self):
        spec = CovSpec.explicit(np.eye(2))
        with pytest.raises(BadConfig):
            sample(spec, 10, seed=-1)
        with pytest.raises(BadConfig):
            sample(spec, 10, seed=2 ** 64)

    def test_bad_n_rep(self):
        spec = CovSpec.explicit(np.eye(2))
        with pytest.raises(BadConfig):
            sample(spec, 0, seed=1)

    @pytest.mark.parametrize("n_threads", [0, -3])
    def test_bad_thread_count(self, n_threads):
        spec = CovSpec.explicit(np.eye(2))
        with pytest.raises(BadConfig):
            sample(spec, 10, seed=1, n_threads=n_threads)

    def test_pool_clamped_to_chunk_count(self, monkeypatch):
        # A huge request must open no more workers than there are chunks;
        # the recording stand-in checks the size before any thread starts.
        sizes = []
        real_pool = sampling.ThreadPoolExecutor

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", recording_pool)
        spans = sampling._map_chunks(lambda rng, lo, hi: (lo, hi), seed=5, n=2 * CHUNK + 1,
                                     n_threads=10 ** 9)
        assert sizes == [3]
        assert spans == [(0, CHUNK), (CHUNK, 2 * CHUNK), (2 * CHUNK, 2 * CHUNK + 1)]
        spec = CovSpec.explicit(np.eye(2))
        many = sample(spec, 2 * CHUNK + 1, seed=5, n_threads=10 ** 9)
        assert sizes == [3, 3]
        assert np.array_equal(many.data, sample(spec, 2 * CHUNK + 1, seed=5).data)


class TestChunkRunner:
    def test_results_in_chunk_order_when_a_later_chunk_finishes_first(self):
        # Chunk 0 waits until chunk 1 has finished, on two threads.
        chunk1_done, finished = threading.Event(), []

        def fn(rng, lo, hi):
            if lo == 0:
                assert chunk1_done.wait(timeout=30)
            finished.append(lo)
            if lo == CHUNK:
                chunk1_done.set()
            return lo, hi, rng.standard_normal()

        got = sampling._map_chunks(fn, seed=3, n=2 * CHUNK, n_threads=2)
        assert finished == [CHUNK, 0]
        assert got == [(0, CHUNK, chunk_rng(3, 0).standard_normal()),
                       (CHUNK, 2 * CHUNK, chunk_rng(3, 1).standard_normal())]


N_REPS = (1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 3 * CHUNK)


@st.composite
def streamed_designs(draw):
    """A factor spec, with or without noise, with nonzero mean, and a partition.

    p is small or lies across a tile edge (TILE - 1, TILE + 1, 2 * TILE + 3).
    The partition is contiguous, scattered, interleaved (A every k-th
    coordinate, so both blocks are index arrays within each tile), inner (A a
    range that lies inside one tile) or overlap.  An overlap partition
    duplicates the shared coordinates of a base law, so the partition of the
    stacked model stays disjoint.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    layout = draw(st.sampled_from(("contiguous", "scattered", "interleaved", "inner", "overlap")))
    q = draw(st.one_of(st.integers(2, 9), st.sampled_from((TILE - 1, TILE + 1, 2 * TILE + 3))))
    r = draw(st.integers(1, 6))
    base = rng.standard_normal((q, r))
    if layout == "overlap":
        k = draw(st.integers(1, q - 1))
        a_rows = np.arange(q - k + 1)
        b_rows = np.arange(q - k, q)
        gamma = np.vstack([base[a_rows], base[b_rows]])
        part = Partition.split(gamma.shape[0], a_rows.size)
    else:
        gamma = base
        if layout == "interleaved":
            a = np.arange(draw(st.integers(0, min(2, q - 1))), q, draw(st.integers(2, 5)))
        elif layout == "inner":
            t0, t1 = draw(st.sampled_from(_tile_edges(q)))
            lo = draw(st.integers(t0, t1 - 1))
            a = np.arange(lo, draw(st.integers(lo + 1, t1)))
        else:
            order = rng.permutation(q) if layout == "scattered" else np.arange(q)
            a = order[:draw(st.integers(1, q - 1))]
        if a.size == q:
            a = a[:-1]
        part = Partition(tuple(a), tuple(np.setdiff1d(np.arange(q), a)), q)
    mu = rng.standard_normal(gamma.shape[0]) * 3.0
    noise = np.abs(rng.standard_normal(gamma.shape[0])) if draw(st.booleans()) else None
    return CovSpec.factor(gamma, mu=mu, noise=noise), part


class TestSampleMaxDiff:
    @settings(max_examples=40, deadline=None)
    @given(design=streamed_designs(), n_rep=st.sampled_from(N_REPS),
           n_threads=st.integers(1, 3), seed=st.integers(0, 2 ** 64 - 1))
    def test_equals_batch_path(self, design, n_rep, n_threads, seed):
        spec, part = design
        streamed = sample_max_diff(spec, part, n_rep, seed, n_threads=n_threads)
        data = sample(spec, n_rep, seed, n_threads=n_threads)
        batch = max_diff(data, part)
        assert streamed.values.tobytes() == batch.values.tobytes()
        # Contiguous blocks are read as views: the maxima of index-array copies agree.
        copied = data.data[:, part.b_idx].max(axis=1) - data.data[:, part.a_idx].max(axis=1)
        assert streamed.values.tobytes() == copied.tobytes()
        assert (streamed.mean, streamed.sd) == (batch.mean, batch.sd)
        assert streamed.part == part
        assert not streamed.values.flags.writeable

    @settings(max_examples=30, deadline=None)
    @given(design=streamed_designs(), n=st.sampled_from(N_REPS),
           m=st.integers(1, 3 * CHUNK), n_threads=st.integers(1, 3),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_prefix_stable(self, design, n, m, n_threads, seed):
        # Whole chunks of a shorter run equal the longer run bit for bit.  A
        # partial last chunk is one matmul of another height, which BLAS may
        # sum in another order, so its rows agree only to rounding.
        spec, part = design
        m = min(m, n)
        long = sample_max_diff(spec, part, n, seed, n_threads=n_threads).values
        short = sample_max_diff(spec, part, m, seed).values
        exact = m if m == n else m // CHUNK * CHUNK
        assert short[:exact].tobytes() == long[:exact].tobytes()
        assert np.allclose(short, long[:m], rtol=0.0, atol=1e-12)

    def test_dimension_checked(self):
        spec = CovSpec.explicit(np.eye(3))
        with pytest.raises(DimensionMismatch):
            sample_max_diff(spec, Partition.split(4, 2), 10, seed=1)

    @pytest.mark.parametrize("n_rep, n_threads", [(0, 1), (10, 0)])
    def test_counts_checked(self, n_rep, n_threads):
        spec = CovSpec.explicit(np.eye(2))
        with pytest.raises(BadConfig):
            sample_max_diff(spec, Partition.split(2, 1), n_rep, seed=1, n_threads=n_threads)


class TestTiledMemory:
    """Peaks of the tile-streamed paths, which do not grow with p.

    tracemalloc sees numpy's buffers.  The designs are low rank with an
    interleaved partition, so each tile's block columns are index-array copies.
    """

    D = 20

    @staticmethod
    def design(p: int, d: int):
        rng = np.random.default_rng(p)
        order = rng.permutation(p)
        part = Partition(tuple(order[:p // 2]), tuple(order[p // 2:]), p)
        return CovSpec.factor(rng.standard_normal((p, d))), part

    @staticmethod
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("p", [4 * TILE, 16 * TILE])
    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_sampler_holds_one_tile_per_thread(self, p, n_threads):
        # Per thread: the chunk's normals, one CHUNK x TILE tile and a copy of
        # its block columns; besides them the factor, its transpose and the output.
        spec, part = self.design(p, self.D)
        n_rep = 4 * CHUNK
        peak = self.peak(lambda: sample_max_diff(spec, part, n_rep, seed=5, n_threads=n_threads))
        bound = 2 * CHUNK * (TILE + self.D) * 8 * n_threads + 2 * p * self.D * 8 + n_rep * 8
        assert peak < bound

    @pytest.mark.parametrize("halves", [False, True], ids=["full", "halves"])
    @pytest.mark.parametrize("p", [4 * TILE, 16 * TILE])
    def test_expected_max_holds_one_tile(self, p, halves):
        # The chunk's normals, one rows x TILE tile and a copy of a subset's
        # columns there; besides them the factor and its transpose.
        spec, part = self.design(p, self.D)
        subsets = [part.a_set, part.b_set] if halves else [range(p)]
        rows = emax_chunk_rows(self.D)
        peak = self.peak(lambda: expected_max_many(spec, subsets, 4096, seed=6))
        bound = 2 * rows * (TILE + self.D) * 8 + 2 * p * self.D * 8
        assert peak < bound

    @pytest.mark.parametrize("p", [4 * TILE, 16 * TILE])
    def test_rho_bar_holds_one_strip(self, p):
        # One |A| x TILE strip of Sigma[A, B], its sds' outer product and the
        # TILE x TILE tiles it is filled from; besides them the factor.
        spec, part = self.design(p, self.D)
        a = len(part.a_set)
        peak = self.peak(lambda: rho_bar(spec, part))
        bound = 4 * a * TILE * 8 + p * self.D * 8
        assert peak < bound

    def test_rho_bar_equals_cross_corr_max(self):
        # A and B interleave within every tile, so a strip's rows and columns
        # share their tiles, and B's last tile is partial.
        rng = np.random.default_rng(4)
        p = 2 * TILE + 3
        spec = CovSpec.factor(rng.standard_normal((p, 5)), noise=np.exp(rng.standard_normal(p)))
        part = Partition(tuple(range(0, p, 3)), tuple(i for i in range(p) if i % 3), p)
        want = _clamped_max(cross_corr(spec, part))
        assert np.float64(rho_bar(spec, part)).tobytes() == np.float64(want).tobytes()


class TestSampleMoments:
    def test_mean_and_sd(self):
        spec = CovSpec.factor(np.array([[math.sqrt(2.0)]]), mu=[5.0])
        batch = sample(spec, 10 ** 6, seed=123)
        x = batch.data[:, 0]
        assert x.mean() == pytest.approx(5.0, abs=0.004)
        assert x.std(ddof=1) == pytest.approx(math.sqrt(2.0), abs=0.01)

    def test_correlation(self):
        rho = 0.7
        spec = CovSpec.explicit(np.array([[1.0, rho], [rho, 1.0]]))
        batch = sample(spec, 200000, seed=9)
        got = np.corrcoef(batch.data.T)[0, 1]
        assert got == pytest.approx(rho, abs=0.01)

    def test_degenerate_pair_identical(self):
        # A duplicated factor row yields bitwise identical columns.
        spec = CovSpec.factor(np.array([[1.0], [1.0]]))
        batch = sample(spec, 4096, seed=11)
        assert np.array_equal(batch.data[:, 0], batch.data[:, 1])


class TestStreamHelpers:
    def test_chunks_match_chunk_rng(self):
        spans = list(chunks(seed=5, n=2100, rows=1024))
        assert [(lo, hi) for _, lo, hi in spans] == [(0, 1024), (1024, 2048), (2048, 2100)]
        for k, (rng, lo, hi) in enumerate(spans):
            direct = chunk_rng(5, k).standard_normal((hi - lo, 3))
            assert np.array_equal(rng.standard_normal((hi - lo, 3)), direct)
        for seed in (-1, 2 ** 64):
            with pytest.raises(BadConfig):
                chunks(seed, 10)  # at the call, before any chunk is iterated

    def test_emax_chunk_rows_bounds(self):
        assert emax_chunk_rows(1) == 4096
        assert emax_chunk_rows(10 ** 9) == 256
        r = 977
        rows = emax_chunk_rows(r)
        assert 256 <= rows <= 4096
        assert rows & (rows - 1) == 0


class TestMaxDiff:
    def test_known_values(self):
        spec = CovSpec.explicit(np.eye(4))
        batch = sample(spec, 256, seed=2)
        part = Partition.split(4, 2)
        diff = max_diff(batch, part)
        manual = batch.data[:, 2:].max(axis=1) - batch.data[:, :2].max(axis=1)
        assert np.array_equal(diff.values, manual)
        assert diff.n_rep == 256
        assert diff.mean == pytest.approx(manual.mean())
        assert diff.sd == pytest.approx(manual.std(ddof=1))

    @settings(max_examples=30, deadline=None)
    @given(p=st.integers(2, 12), d=st.integers(1, 6), k=st.data(),
           mu=st.lists(st.integers(-2 ** 27, 2 ** 27), min_size=12, max_size=12),
           shift=st.integers(-2 ** 48, 2 ** 48), n_rep=st.integers(1, 3000),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_shift_invariance_property(self, p, d, k, mu, shift, n_rep, seed):
        # Doubles in [1024, 2048) form a uniform grid of step 2^-42.  Means
        # near 1536 put every draw there, unit-variance rows keep it there,
        # and a shift by a multiple of 4 grid steps moves each rounded draw
        # by exactly the shift (round half to even keeps its parity); both
        # block maxima move with it, and Sterbenz makes their gap exact.
        rng = np.random.default_rng(seed % 2 ** 32)
        gamma = rng.standard_normal((p, d))
        gamma /= np.linalg.norm(gamma, axis=1, keepdims=True)
        mu = 1536.0 + np.array(mu[:p]) * 2.0 ** -20
        shift *= 2.0 ** -40
        part = Partition.split(p, k.draw(st.integers(1, p - 1)))
        plain = sample_max_diff(CovSpec.factor(gamma, mu), part, n_rep, seed)
        moved = sample_max_diff(CovSpec.factor(gamma, mu + shift), part, n_rep, seed)
        assert moved.values.tobytes() == plain.values.tobytes()

    def test_dimension_checked(self):
        spec = CovSpec.explicit(np.eye(3))
        batch = sample(spec, 10, seed=1)
        with pytest.raises(DimensionMismatch):
            max_diff(batch, Partition.split(4, 2))

    def test_sd_zero_for_single_row(self):
        spec = CovSpec.explicit(np.eye(2))
        batch = sample(spec, 1, seed=1)
        diff = max_diff(batch, Partition.split(2, 1))
        assert diff.sd == 0.0



class TestNoiseFactor:
    """A spec with noise draws as the dense factor [gamma | diag(noise)] does."""

    def pair(self, p=300, d=5, seed=7):
        rng = np.random.default_rng(seed)
        gamma = rng.standard_normal((p, d))
        noise = np.abs(rng.standard_normal(p))
        noise[::4] = 0.0
        mu = rng.standard_normal(p)
        return (CovSpec.factor(gamma, mu=mu, noise=noise),
                CovSpec.factor(np.hstack([gamma, np.diag(noise)]), mu=mu))

    @staticmethod
    def close(x, y):
        return np.max(np.abs(x - y)) <= 1e-14 * np.max(np.abs(y))

    @pytest.mark.parametrize("n_rep", [CHUNK - 3, 2 * CHUNK + 5])
    def test_sample_matches_dense_factor(self, n_rep):
        noisy, dense = self.pair()
        got, want = sample(noisy, n_rep, seed=11).data, sample(dense, n_rep, seed=11).data
        assert self.close(got, want)

    def test_sample_max_diff_matches_dense_factor(self):
        noisy, dense = self.pair()
        part = Partition(tuple(range(0, 300, 3)), tuple(i for i in range(300) if i % 3), 300)
        got = sample_max_diff(noisy, part, 2 * CHUNK + 5, seed=12, n_threads=2).values
        want = sample_max_diff(dense, part, 2 * CHUNK + 5, seed=12).values
        assert self.close(got, want)
