import math
import sys
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
from maxgap.cov import (TILE, _clamped_max, _tile_edges, check_conditions, cov_block,
                        rho_bar)
from maxgap.sampling import BLOCK, CHUNK, check_seed, chunk_rng, emax_chunk_rows, sample_max_diff


def started_threads(monkeypatch) -> list:
    """The threads the sampler starts from now on, in start order."""
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(sampling.threading, "Thread", CountingThread)
    return started


class TestSampleDeterminism:
    def test_threads_do_not_change_numbers(self):
        spec = CovSpec.factor(np.array([[1.0, 0.0], [0.5, 0.5], [0.2, 0.9]]))
        one = sample(spec, 5000, seed=42, n_threads=1)
        four = sample(spec, 5000, seed=42, n_threads=4)
        assert np.array_equal(one, four)

    def test_seed_changes_numbers(self):
        spec = CovSpec.explicit(np.eye(2))
        assert not np.array_equal(sample(spec, 100, seed=1), sample(spec, 100, seed=2))

    def test_seeds_above_2_63_stay_distinct(self):
        # A plain list key holding a seed of 2^63 or more goes through float64.
        spec = CovSpec.explicit(np.eye(2))
        seeds = (2 ** 63, 2 ** 63 + 1, 2 ** 64 - 2, 2 ** 64 - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = [sample(spec, 4, seed=s) for s in seeds]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_chunk_prefix_stability(self):
        # Whole chunks are keyed by index, so a longer run extends a shorter
        # one without disturbing it (at chunk granularity).
        spec = CovSpec.explicit(np.eye(3))
        short = sample(spec, 2 * CHUNK, seed=7)
        long = sample(spec, 3 * CHUNK, seed=7)
        assert np.array_equal(short, long[: 2 * CHUNK])

    @pytest.mark.parametrize("noise", [False, True], ids=["plain", "noise"])
    @pytest.mark.parametrize("p, d", [(40, 3), (2 * TILE + 3, 20), (2000, 200)])
    def test_whole_blocks_of_a_partial_chunk(self, p, d, noise):
        # A partial last chunk is drawn in the blocks of a whole one, so its
        # whole blocks are the longer run's matmuls and equal it bit for bit;
        # only a short last block has another height, and agrees to rounding.
        # p = 2000 with d = 200 and noise draws 256-row blocks, the others 512.
        rng = np.random.default_rng(p + d)
        spec = CovSpec.factor(rng.standard_normal((p, d)), mu=rng.standard_normal(p),
                              noise=np.abs(rng.standard_normal(p)) if noise else None)
        block = sampling._block_rows(spec)
        long = sample(spec, 2 * CHUNK, seed=9)
        for extra in (257, 600, 1023):
            n = CHUNK + extra
            short = sample(spec, n, seed=9)
            exact = n // block * block
            assert short[:exact].tobytes() == long[:exact].tobytes(), (n, block)
            assert np.allclose(short, long[:n], rtol=1e-12, atol=1e-12)

    def test_metadata(self):
        spec = CovSpec.explicit(np.eye(2))
        batch = sample(spec, 10, seed=3)
        assert batch.shape == (10, 2)
        assert not batch.flags.writeable

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
        # A huge request must open no more workers than there are chunks: the
        # caller is one of them, so one helper thread fewer starts.
        started = started_threads(monkeypatch)
        spans = sampling._map_chunks(lambda: lambda rng, lo, hi: (lo, hi), seed=5,
                                     n=2 * CHUNK + 1, n_threads=10 ** 9)
        assert len(started) == 2
        assert spans == [(0, CHUNK), (CHUNK, 2 * CHUNK), (2 * CHUNK, 2 * CHUNK + 1)]
        spec = CovSpec.explicit(np.eye(2))
        many = sample(spec, 2 * CHUNK + 1, seed=5, n_threads=10 ** 9)
        assert len(started) == 4
        assert np.array_equal(many, sample(spec, 2 * CHUNK + 1, seed=5))
        # One worker, by thread count or by chunk count, starts no thread.
        sampling._map_chunks(lambda: lambda rng, lo, hi: None, seed=5, n=2 * CHUNK)
        sampling._map_chunks(lambda: lambda rng, lo, hi: None, seed=5, n=CHUNK, n_threads=4)
        assert len(started) == 4
        assert not any(t.is_alive() for t in started)


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

        got = sampling._map_chunks(lambda: fn, seed=3, n=2 * CHUNK, n_threads=2)
        assert finished == [CHUNK, 0]
        assert got == [(0, CHUNK, chunk_rng(3, 0).standard_normal()),
                       (CHUNK, 2 * CHUNK, chunk_rng(3, 1).standard_normal())]

    @pytest.mark.parametrize("n_threads", [2, 3])
    def test_caller_is_one_of_the_workers(self, n_threads):
        # The first n_threads chunks each wait until all of them have started,
        # so each runs on its own worker; with fewer workers the barrier times out.
        started, idents = threading.Barrier(n_threads, timeout=30), []

        def draw(rng, lo, hi):
            return lo, hi, rng.standard_normal(3).tolist()

        def fn(rng, lo, hi):
            idents.append(threading.get_ident())
            if lo < n_threads * CHUNK:
                started.wait()
            return draw(rng, lo, hi)

        n = 2 * n_threads * CHUNK + 5
        got = sampling._map_chunks(lambda: fn, seed=4, n=n, n_threads=n_threads)
        assert got == sampling._map_chunks(lambda: draw, seed=4, n=n)
        assert len(idents) == len(got)
        assert threading.get_ident() in idents
        assert len(set(idents) - {threading.get_ident()}) <= n_threads - 1

    def test_every_chunk_taken_once_under_contention(self):
        # More workers than cores take 2000 one-row chunks from the shared
        # iterator with a short switch interval: a chunk taken twice or lost
        # changes the call count or the results.
        calls, got = [], []

        def fn(rng, lo, hi):
            calls.append(lo)
            return lo, hi

        def run():
            got.append(sampling._map_chunks(lambda: fn, seed=2, n=2000, rows=1, n_threads=8))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run)
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert got == [[(lo, lo + 1) for lo in range(2000)]]
        assert sorted(calls) == list(range(2000))

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        # Three workers: the first helper's chunk raises, and a chunk taken
        # by the caller or the second helper waits until the first helper's
        # thread has ended, after it recorded its error.  The error comes
        # back to the caller once both helpers have stopped, and no worker
        # takes a chunk after it.
        taken, made, caught = [], [], []

        class HelperError(Exception):
            pass

        def worker():
            index = len(made)
            made.append(threading.get_ident())

            def fn(rng, lo, hi):
                taken.append(lo)
                if index == 1:
                    raise HelperError(lo)
                started[0].join(timeout=30)  # the first helper runs worker 1's fn
                return lo

            return fn

        def run():
            try:
                sampling._map_chunks(worker, seed=1, n=50, rows=1, n_threads=3)
            except HelperError as exc:
                caught.append((exc, [t.is_alive() for t in started]))

        runner = threading.Thread(target=run)  # made before the count starts
        started = started_threads(monkeypatch)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert made == [runner.ident] * 3  # every worker made by the calling thread
        assert len(started) == 2
        assert len(caught) == 1 and caught[0][1] == [False, False]
        assert len(taken) == len(set(taken)) <= 3  # one chunk per worker at most


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
        assert streamed.tobytes() == batch.tobytes()
        # Contiguous blocks are read as views: the maxima of index-array copies agree.
        copied = data[:, part.b_idx].max(axis=1) - data[:, part.a_idx].max(axis=1)
        assert streamed.tobytes() == copied.tobytes()
        assert not streamed.flags.writeable

    @settings(max_examples=30, deadline=None)
    @given(design=streamed_designs(), n=st.sampled_from(N_REPS),
           m=st.integers(1, 3 * CHUNK), n_threads=st.integers(1, 3),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_prefix_stable(self, design, n, m, n_threads, seed):
        # Whole blocks of a shorter run equal the longer run bit for bit.  A
        # short last block is one matmul of another height, which BLAS may
        # sum in another order, so its rows agree only to rounding.
        spec, part = design
        m, block = min(m, n), sampling._block_rows(spec)
        long = sample_max_diff(spec, part, n, seed, n_threads=n_threads)
        short = sample_max_diff(spec, part, m, seed)
        exact = m if m == n else m // block * block
        assert short[:exact].tobytes() == long[:exact].tobytes()
        assert np.allclose(short, long[:m], rtol=0.0, atol=1e-12)

    def test_mean_added_unless_all_zero(self):
        # The fold skips the mean only when every entry is zero: a nonzero,
        # non-constant mean moves the signed expected maxima, and both specs'
        # streamed maxima equal the batch path's, which always adds the mean.
        rng = np.random.default_rng(21)
        p = 2 * TILE + 3
        gamma = rng.standard_normal((p, 4))
        shifted = CovSpec.factor(gamma, mu=np.linspace(-1.0, 2.0, p))
        centered = CovSpec.factor(gamma)
        part = Partition.split(p, TILE + 1)
        for spec in (shifted, centered):
            streamed = sample_max_diff(spec, part, CHUNK + 5, seed=3, n_threads=2)
            batch = max_diff(sample(spec, CHUNK + 5, seed=3), part)
            assert streamed.tobytes() == batch.tobytes()
        subsets = [part.a_set, part.b_set]
        moved = expected_max_many(shifted, subsets, 3000, seed=4, mode="signed")
        assert moved != expected_max_many(centered, subsets, 3000, seed=4, mode="signed")

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
    A chunk is drawn in blocks of ``BLOCK`` rows (fewer for a wide draw), so
    the bounds count block rows, not chunk rows.
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
        # Per thread: a block of normals, one TILE x BLOCK tile and a copy of
        # its block columns; besides them the output and the block selectors.
        spec, part = self.design(p, self.D)
        n_rep = 4 * CHUNK
        peak = self.peak(lambda: sample_max_diff(spec, part, n_rep, seed=5, n_threads=n_threads))
        bound = 2 * BLOCK * (TILE + self.D) * 8 * n_threads + 2 * p * self.D * 8 + n_rep * 8
        assert peak < bound

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_noise_draw_holds_one_block(self, n_threads):
        # A one-factor law with noise draws p + 1 normals per row: 256-row
        # blocks at p = 16 TILE.  Per thread: a block of normals and two
        # TILE x block tiles (the draw's and a copy of its block columns);
        # besides them a few length-p vectors and the output.  A whole
        # chunk's 1024 x (p + 1) normals alone would exceed the bound.
        p = 16 * TILE
        rng = np.random.default_rng(p)
        spec = CovSpec.factor(rng.standard_normal((p, 1)), noise=np.abs(rng.standard_normal(p)))
        _, part = self.design(p, 1)
        block, n_rep = sampling._block_rows(spec), 2 * CHUNK
        assert block == 256
        peak = self.peak(lambda: sample_max_diff(spec, part, n_rep, seed=5, n_threads=n_threads))
        bound = block * (p + 1 + 2 * TILE) * 8 * n_threads + 8 * p * 8 + n_rep * 8
        assert bound < CHUNK * (p + 1) * 8 * n_threads
        assert peak < bound

    @pytest.mark.parametrize("halves", [False, True], ids=["full", "halves"])
    @pytest.mark.parametrize("p", [4 * TILE, 16 * TILE])
    def test_expected_max_holds_one_tile(self, p, halves):
        # A block of normals, one TILE x BLOCK tile and a copy of a subset's
        # columns there; besides them the subsets' selectors and the chunk's
        # per-row maxima.
        spec, part = self.design(p, self.D)
        subsets = [part.a_set, part.b_set] if halves else [range(p)]
        rows = emax_chunk_rows(self.D)
        peak = self.peak(lambda: expected_max_many(spec, subsets, 4096, seed=6))
        bound = 2 * BLOCK * (TILE + self.D) * 8 + 2 * p * self.D * 8 + len(subsets) * rows * 8
        assert peak < bound

    @pytest.mark.parametrize("path", ["sampler", "expected_max"])
    def test_no_copy_of_the_factor(self, path):
        # The 8 MiB factor is made before tracing starts.  A pass on one thread
        # holds one block of normals and two TILE x BLOCK tiles (the
        # expected-max modes mix), plus slack: no p x d term.
        p, d = 16 * TILE, 256
        spec = CovSpec.factor(np.random.default_rng(1).standard_normal((p, d)))
        part = Partition.split(p, p // 2)
        rows = CHUNK if path == "sampler" else emax_chunk_rows(d)
        runs = {"sampler": lambda: sample_max_diff(spec, part, 2 * rows, seed=1),
                "expected_max": lambda: expected_max_many(
                    spec, [part.a_set, part.b_set], 2 * rows, seed=1, mode=("abs_std", "signed"))}
        assert self.peak(runs[path]) < BLOCK * (d + 2 * TILE) * 8 + 2 ** 20

    @staticmethod
    def normals_blocks(monkeypatch, spec) -> list:
        # Records each np.empty call that allocates a block of the spec's normals.
        shape, made, real = (sampling._block_rows(spec), sampling.draw_width(spec)), [], np.empty

        def empty(*args, **kwargs):
            if tuple(np.atleast_1d(args[0])) == shape:
                made.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "empty", empty)
        return made

    def test_normals_allocated_once_per_worker(self, monkeypatch):
        # Each worker allocates its block of normals once, on the calling
        # thread, and reuses it for every chunk it draws: two for a
        # five-chunk run on two threads, one for a three-chunk expected-max pass.
        spec, part = self.design(4 * TILE, self.D)
        made = self.normals_blocks(monkeypatch, spec)
        values = sample_max_diff(spec, part, 5 * CHUNK, seed=3, n_threads=2)
        assert made == [threading.get_ident()] * 2
        assert values.tobytes() == sample_max_diff(spec, part, 5 * CHUNK, seed=3).tobytes()
        made.clear()
        expected_max_many(spec, [part.a_set, part.b_set], 3 * emax_chunk_rows(self.D), seed=3)
        assert made == [threading.get_ident()]

    @pytest.mark.parametrize("p", [4 * TILE, 16 * TILE])
    def test_rho_bar_holds_one_strip(self, p):
        # One |A| x TILE strip of Sigma[A, B], its sds' outer product and the
        # TILE x TILE tiles it is filled from; besides them the factor.
        spec, part = self.design(p, self.D)
        a = len(part.a_set)
        peak = self.peak(lambda: rho_bar(spec, part))
        bound = 4 * a * TILE * 8 + p * self.D * 8
        assert peak < bound

    def test_geometry_holds_tiles(self):
        # The fold holds one TILE x TILE tile of Sigma and, at a time, one
        # copy of its entries in A x B, their sds' outer product, their
        # correlations and the absolute values: six tiles of doubles with
        # slack.  Besides them a few length-p vectors: the sds, the index
        # arrays and tile selectors of A and B, and the running maxima.
        p = 8 * TILE
        spec, part = self.design(p, self.D)
        bound = 6 * TILE * TILE * 8 + 16 * p * 8
        assert self.peak(lambda: check_conditions(spec, part)) < bound
        assert self.peak(lambda: rho_bar(spec, part)) < bound

    def test_rho_bar_equals_cross_corr_max(self):
        # A and B interleave within every tile, so a tile's rows and columns
        # hold both blocks, and B's last tile is partial.
        rng = np.random.default_rng(4)
        p = 2 * TILE + 3
        spec = CovSpec.factor(rng.standard_normal((p, 5)), noise=np.exp(rng.standard_normal(p)))
        part = Partition(tuple(range(0, p, 3)), tuple(i for i in range(p) if i % 3), p)
        a, b, sd = part.a_idx, part.b_idx, spec.sds
        want = _clamped_max(cov_block(spec, a, b) / np.outer(sd[a], sd[b]))
        assert np.float64(rho_bar(spec, part)).tobytes() == np.float64(want).tobytes()


class TestSampleMoments:
    def test_mean_and_sd(self):
        spec = CovSpec.factor(np.array([[math.sqrt(2.0)]]), mu=[5.0])
        batch = sample(spec, 10 ** 6, seed=123)
        x = batch[:, 0]
        assert x.mean() == pytest.approx(5.0, abs=0.004)
        assert x.std(ddof=1) == pytest.approx(math.sqrt(2.0), abs=0.01)

    def test_correlation(self):
        rho = 0.7
        spec = CovSpec.explicit(np.array([[1.0, rho], [rho, 1.0]]))
        batch = sample(spec, 200000, seed=9)
        got = np.corrcoef(batch.T)[0, 1]
        assert got == pytest.approx(rho, abs=0.01)

    def test_degenerate_pair_identical(self):
        # A duplicated factor row yields bitwise identical columns.
        spec = CovSpec.factor(np.array([[1.0], [1.0]]))
        batch = sample(spec, 4096, seed=11)
        assert np.array_equal(batch[:, 0], batch[:, 1])


class TestStreamHelpers:
    def test_chunks_match_chunk_rng(self):
        # _map_chunks computes chunk k's span and chunk_rng(seed, k) itself.
        spans = sampling._map_chunks(
            lambda: lambda rng, lo, hi: (lo, hi, rng.standard_normal((hi - lo, 3))),
            seed=5, n=2100)
        assert [(lo, hi) for lo, hi, _ in spans] == [(0, 1024), (1024, 2048), (2048, 2100)]
        for k, (lo, hi, z) in enumerate(spans):
            assert np.array_equal(z, chunk_rng(5, k).standard_normal((hi - lo, 3)))
        calls = []
        for seed in (-1, 2 ** 64):
            with pytest.raises(BadConfig):
                check_seed(seed)
            with pytest.raises(BadConfig):
                sampling._map_chunks(lambda: lambda *chunk: calls.append(chunk), seed, 10)
        assert calls == []  # rejected before fn is first called
        assert check_seed(np.uint64(2 ** 64 - 1)) == 2 ** 64 - 1

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": 1.7}, "seed must be an integer, got 1.7"),
        ({"seed": "3"}, "seed must be an integer, got '3'"),
        ({"n_rep": 100.0}, "n_rep must be an integer, got 100.0"),
        ({"n_threads": 2.0}, "n_threads must be an integer, got 2.0"),
    ], ids=["seed-float", "seed-str", "n_rep", "n_threads"])
    def test_non_integer_run_named(self, kwargs, message):
        # Once truncated: seed 1.7 ran as seed 1 and '3' as 3; n_threads 2.0
        # passed on this one-chunk run, and n_rep 100.0 raised a TypeError.
        run = {"n_rep": 100, "seed": 1, "n_threads": 1, **kwargs}
        with pytest.raises(BadConfig, match=message):
            sample_max_diff(CovSpec.explicit(np.eye(2)), Partition.split(2, 1), **run)

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
        manual = batch[:, 2:].max(axis=1) - batch[:, :2].max(axis=1)
        assert np.array_equal(diff, manual)
        assert not diff.flags.writeable

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
        assert moved.tobytes() == plain.tobytes()

    def test_dimension_checked(self):
        spec = CovSpec.explicit(np.eye(3))
        batch = sample(spec, 10, seed=1)
        with pytest.raises(DimensionMismatch):
            max_diff(batch, Partition.split(4, 2))

    def test_single_row(self):
        spec = CovSpec.explicit(np.eye(2))
        batch = sample(spec, 1, seed=1)
        diff = max_diff(batch, Partition.split(2, 1))
        assert diff.tolist() == [batch[0, 1] - batch[0, 0]]



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
        got, want = sample(noisy, n_rep, seed=11), sample(dense, n_rep, seed=11)
        assert self.close(got, want)

    def test_sample_max_diff_matches_dense_factor(self):
        noisy, dense = self.pair()
        part = Partition(tuple(range(0, 300, 3)), tuple(i for i in range(300) if i % 3), 300)
        got = sample_max_diff(noisy, part, 2 * CHUNK + 5, seed=12, n_threads=2)
        want = sample_max_diff(dense, part, 2 * CHUNK + 5, seed=12)
        assert self.close(got, want)
