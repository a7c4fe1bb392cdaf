"""Deterministic Gaussian sampling and max-difference statistics.

Randomness contract: replicate rows are produced in fixed chunks of
``CHUNK`` rows, and chunk k draws from its own counter-based stream (Philox
keyed by (seed, k)).  :func:`chunks` is the one place a seed meets Philox: it
checks the seed and hands out each chunk's span and generator.
:func:`_map_chunks` is the one loop over them and the one thread pool, for
the sampler, the expected-max passes and the bootstrap alike: each chunk's
result is a function of its own generator alone, and the caller reduces the
results in chunk order.  So serial and thread-parallel runs produce
bit-identical values for any thread count, and a run of whole chunks is a
prefix of any longer run with the same seed.  Bit-identity
holds under a fixed BLAS build and BLAS thread count: each tile of a chunk
is one matmul, and BLAS libraries may sum in another order when their own thread
count changes (OpenBLAS does, in the last bits, between
``OPENBLAS_NUM_THREADS=1`` and ``2``) or when the matmul height changes, so
the rows of a partial last chunk agree with a longer run only to
rounding.  The factor of an explicit covariance is an eigendecomposition,
which may then also return another basis of a repeated eigenvalue's
eigenspace, so such a spec's draws can differ by more than rounding.

Three paths share one chunk draw, :func:`_chunk_draw`, which turns the
chunk's normals into coordinates one ``TILE``-wide tile at a time
(:func:`maxgap.cov._tile_edges`).  :func:`sample`, the batch API and the
tests' reference, writes each tile into the n_rep x p matrix it keeps.
:func:`sample_max_diff`, which the CLI commands use, and the expected-max
passes fold each tile into running per-row maxima as soon as it is drawn
(:func:`_chunk_maxima`), so a chunk holds its normals and O(rows * TILE)
values, never a rows x p block.  All three run the same matmuls, and a
maximum is exact, so :func:`sample_max_diff` equals ``max_diff(sample(...))``
bit for bit.  Thread and whole-chunk prefix bit-identity hold for every path.

The normal generation method is numpy's ziggurat, fixed per build and
recorded as ``RNG_METHOD`` in every CSV sidecar.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cov import TILE, CovSpec, Partition, _by_tile, _column_selector, _tile_edges
from .errors import BadConfig

CHUNK = 1024
RNG_METHOD = "philox4x64-ziggurat"
_MASK64 = (1 << 64) - 1


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Stateless child stream for one chunk: Philox keyed by (seed, chunk)."""
    key = np.array([seed & _MASK64, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SampleBatch:
    """n_rep x p matrix of draws and the seed that drew it."""

    n_rep: int
    p: int
    data: np.ndarray
    seed: int


@dataclass(frozen=True)
class DiffSample:
    """Per-replicate difference of block maxima, M_B - M_A."""

    values: np.ndarray
    mean: float
    sd: float
    part: Partition

    @property
    def n_rep(self) -> int:
        return int(self.values.shape[0])


def sampling_factor(spec: CovSpec) -> np.ndarray:
    """p x r map L that every sampler and expected-max pass multiplies draws by.

    The spec's cached :attr:`CovSpec.root`, so each spec is factored once: a
    factor spec's gamma, or the square root of an explicit matrix (r its
    numerical rank).  L L^T is the covariance, except for a spec with noise,
    whose covariance is L L^T + diag(noise^2); its draws carry p more normals
    per row (see :func:`draw_width`).
    """
    return spec.root


def draw_width(spec: CovSpec) -> int:
    """Normals per row of a draw: the r columns of L, plus p for a spec with noise.

    This is the width of the dense factor [L | diag(noise)], and
    :func:`_chunk_draw` reads the columns in that factor's layout, so a spec
    with noise consumes the same normals as that factor.
    """
    return spec.root.shape[1] + (spec.p if spec.noise is not None else 0)


def chunks(seed: int, n: int, rows: int = CHUNK):
    """Iterator of (rng, lo, hi): rows lo..hi of n, ``rows`` at a time.

    Chunk k covers rows [k * rows, min((k + 1) * rows, n)) and draws from
    ``chunk_rng(seed, k)``.  The seed is checked at once, before any chunk is
    iterated; each generator is made as its chunk is reached.
    """
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise BadConfig(f"seed must be an unsigned 64-bit integer, got {seed}")
    return ((chunk_rng(seed, k), lo, min(lo + rows, n))
            for k, lo in enumerate(range(0, n, rows)))


def check_run(n_rep: int, seed: int, n_threads: int) -> None:
    """Check a sampler run's replicate count, seed and thread count."""
    if n_rep < 1:
        raise BadConfig(f"n_rep must be positive, got {n_rep}")
    if n_threads < 1:
        raise BadConfig(f"n_threads must be positive, got {n_threads}")
    chunks(seed, n_rep)  # checks the seed


def _map_chunks(fn, seed: int, n: int, rows: int = CHUNK, n_threads: int = 1) -> list:
    """``[fn(rng, lo, hi) for (rng, lo, hi) in chunks(seed, n, rows)]``, in chunk order.

    The one loop over :func:`chunks` and the one thread pool, serving the
    sampler, the expected-max passes and the bootstrap.  The chunk contract:
    fn may read only its own chunk's generator and write only rows lo..hi of
    an output, so its result does not depend on which thread ran it or when;
    the caller reduces the results in chunk order, so a reduction is the
    same floats for any thread count.  With n_threads > 1 the chunks run on
    a pool of at most one worker per chunk.
    """
    todo = chunks(seed, n, rows)
    n_chunks = len(range(0, n, rows))
    if n_threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=min(n_threads, n_chunks)) as pool:
            return list(pool.map(lambda chunk: fn(*chunk), todo))
    return [fn(*chunk) for chunk in todo]


def _chunk_draw(spec: CovSpec, tiles=None):
    """draw(rng, rows, out): one chunk of X - mu = L Z + noise * W, tile by tile.

    The one place normals become coordinates.  draw takes rows x
    :func:`draw_width` normals from rng and yields (t0, t1, x) for each listed
    tile (every tile by default): x = out(t0, t1), a rows x (t1 - t0) array,
    holds coordinates t0..t1 before mu.  Normal columns [0, d) feed L, in one
    (rows, d) @ (d, t1 - t0) matmul per tile, and column d + j feeds
    coordinate j's noise, so a tile's values do not depend on the tiles listed.
    """
    ell, r = sampling_factor(spec), draw_width(spec)
    d, noise = ell.shape[1], spec.noise
    lt = np.ascontiguousarray(ell.T)
    edges = _tile_edges(spec.p, tiles)

    def draw(rng: np.random.Generator, rows: int, out):
        z = rng.standard_normal((rows, r))
        for t0, t1 in edges:
            x = np.matmul(z[:, :d], lt[:, t0:t1], out=out(t0, t1))
            if noise is not None:
                w = z[:, d + t0:d + t1]
                w *= noise[t0:t1]
                x += w
            yield t0, t1, x

    return draw


def _chunk_maxima(spec: CovSpec, subsets, modes):
    """fold(rng, rows): a chunk's per-row maxima of each subset, tile by tile.

    modes names each subset's statistic: "signed" folds X, "abs_std" folds
    |X - mu| / sd.  fold draws only the tiles holding a subset coordinate and
    folds their statistics into one running maximum per subset, so it holds
    the chunk's normals, a rows x ``TILE`` tile (two if the modes mix) and,
    where a subset's columns in a tile are not a range, their copy.
    """
    # tile -> column selector, within the tile, of each subset's coordinates there.
    sels = [{t: _column_selector(off) for t, (_, off) in _by_tile(idx).items()}
            for idx in subsets]
    needs = {t: {m for sel, m in zip(sels, modes) if t in sel} for t in set().union(*sels)}
    draw, sds = _chunk_draw(spec, sorted(needs)), spec.sds

    def fold(rng: np.random.Generator, rows: int) -> list[np.ndarray]:
        buf = np.empty((rows, min(TILE, spec.p)))
        std_buf = np.empty_like(buf) if len(set(modes)) > 1 else buf
        maxima = [np.full(rows, -np.inf) for _ in sels]
        for t0, t1, x in draw(rng, rows, lambda t0, t1: buf[:, :t1 - t0]):
            t, std = t0 // TILE, std_buf[:, :t1 - t0]
            if "abs_std" in needs[t]:  # reads X - mu, so before x gains mu
                np.divide(np.abs(x, out=std), sds[t0:t1], out=std)
            if "signed" in needs[t]:
                x += spec.mu[t0:t1]
            for sel, mode, m in zip(sels, modes, maxima):
                if t in sel:
                    np.maximum(m, (x if mode == "signed" else std)[:, sel[t]].max(axis=1), out=m)
        return maxima

    return fold


def sample(spec: CovSpec, n_rep: int, seed: int, n_threads: int = 1) -> SampleBatch:
    """Draw n_rep independent replicates of X = L Z + noise * W + mu as one batch.

    Deterministic given (spec, n_rep, seed); the thread count only changes
    who fills which chunk, never the numbers.  Holds all n_rep x p values;
    :func:`sample_max_diff` streams them instead.
    """
    check_run(n_rep, seed, n_threads)
    data = np.empty((n_rep, spec.p))
    draw = _chunk_draw(spec)

    def fill(rng: np.random.Generator, lo: int, hi: int) -> None:
        for t0, t1, x in draw(rng, hi - lo, lambda t0, t1: data[lo:hi, t0:t1]):
            x += spec.mu[t0:t1]

    _map_chunks(fill, seed, n_rep, n_threads=n_threads)
    data.flags.writeable = False
    return SampleBatch(n_rep=n_rep, p=spec.p, data=data, seed=int(seed))


def sample_max_diff(spec: CovSpec, part: Partition, n_rep: int, seed: int,
                    n_threads: int = 1) -> DiffSample:
    """Per-replicate M_B - M_A of n_rep draws, reduced tile by tile.

    Equal, bit for bit, to ``max_diff(sample(spec, n_rep, seed, n_threads), part)``
    but holds, per sampler thread, one chunk of normals and one
    ``CHUNK`` x ``TILE`` tile of draws, which it folds into running maxima.
    """
    part.check_dim(spec.p)
    check_run(n_rep, seed, n_threads)
    values = np.empty(n_rep)
    fold = _chunk_maxima(spec, (part.a_idx, part.b_idx), ("signed", "signed"))

    def reduce(rng: np.random.Generator, lo: int, hi: int) -> None:
        m_a, m_b = fold(rng, hi - lo)
        np.subtract(m_b, m_a, out=values[lo:hi])

    _map_chunks(reduce, seed, n_rep, n_threads=n_threads)
    return _diff_sample(values, part)


def emax_chunk_rows(r: int) -> int:
    """Chunk height for streaming expected-max passes.

    About 4 MB of draws per chunk, a power of two in [256, 4096].  A pure
    function of r, so the chunk shapes, and with the fixed ``TILE``-wide
    column tiles every matmul of a pass, depend on the model alone, never on
    which subsets are requested.
    """
    target = 4_000_000 // (8 * max(r, 1))
    if target < 256:
        return 256
    return min(1 << int(math.log2(target)), 4096)


def _diff_sample(values: np.ndarray, part: Partition) -> DiffSample:
    values.flags.writeable = False
    sd = float(values.std(ddof=1)) if values.shape[0] > 1 else 0.0
    return DiffSample(values=values, mean=float(values.mean()), sd=sd, part=part)


def max_diff(batch: SampleBatch, part: Partition) -> DiffSample:
    """Per-replicate M_B - M_A of a batch."""
    part.check_dim(batch.p)
    a_sel, b_sel = part.blocks
    values = batch.data[:, b_sel].max(axis=1) - batch.data[:, a_sel].max(axis=1)
    return _diff_sample(values, part)

