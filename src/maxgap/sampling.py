"""Deterministic Gaussian sampling and max-difference statistics.

Randomness contract: replicate rows are produced in fixed chunks of
``CHUNK`` rows, and chunk k draws from its own counter-based stream (Philox
keyed by (seed, k)).  :func:`_map_chunks` is the one place a seed meets
Philox and the one loop over chunks, for the sampler, the expected-max
passes and the bootstrap alike: it checks the seed, makes each chunk's span
and generator itself, and runs its work loop on the calling thread and
n_threads - 1 helpers (none on one thread, and never more workers than
chunks).  Each chunk's result is a function of its own generator alone and
the caller reduces the results in chunk order, so any thread count gives
bit-identical values, and a run of whole chunks is a prefix of any longer
run with the same seed.  The worker contract: the calling thread makes
every worker, and with it the worker's buffers, once, before any helper
starts; helpers are plain threads, and a worker reuses its buffers for
each chunk it takes, so no chunk allocates them again.
Bit-identity holds under a fixed BLAS build and BLAS thread count: each tile
of a block of a chunk's rows is one matmul, and BLAS libraries may sum in
another order when their own thread count changes (OpenBLAS does, in the
last bits, between ``OPENBLAS_NUM_THREADS=1`` and ``2``) or when the matmul
height changes.  Every block but a partial last chunk's last has the same
height, so a run's rows equal a longer run's bit for bit on its whole
blocks; the rows of a short last block agree with it only to rounding.
The factor of an explicit covariance is an eigendecomposition, which may
then also return another basis of a repeated eigenvalue's eigenspace, so
such a spec's draws can differ by more than rounding.

Three paths share one chunk draw, :func:`_chunk_draw`, which draws a chunk
in blocks of at most ``BLOCK`` rows into one buffer of normals and computes
each block one coordinate-major ``TILE``-wide tile at a time in one more.
:func:`sample`, the batch API and the tests' reference, transposes each
tile into the read-only n_rep x p matrix it returns as it adds mu.
:func:`sample_max_diff`, which the CLI commands use, and the expected-max
passes fold each tile into running per-row maxima as soon as it is drawn
(:func:`_chunk_maxima`), so a worker holds a block of normals and
O(TILE * BLOCK) values, never a chunk's normals, a rows x p block, nor a
copy of the factor; they add mu only when it is not all zero.  All three
run the same matmuls, and a maximum is exact, so :func:`sample_max_diff`
equals ``max_diff(sample(...))`` bit for bit (adding a zero mean could only
flip the sign of an exact zero).

The normal generation method is numpy's ziggurat, fixed per build and
recorded as ``RNG_METHOD`` in every CSV sidecar.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .cov import TILE, CovSpec, Partition, _tile_edges, _tile_selectors, plain_count, plain_option
from .errors import BadConfig

CHUNK = 1024
BLOCK = 512    # most rows of a chunk drawn and multiplied at once
RNG_METHOD = "philox4x64-ziggurat"
_MASK64 = (1 << 64) - 1


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Stateless child stream for one chunk: Philox keyed by (seed, chunk)."""
    key = np.array([seed & _MASK64, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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


def check_seed(seed: int) -> int:
    """The seed as an int; BadConfig for a non-integer or outside [0, 2^64)."""
    seed = plain_option("seed", seed)
    if not 0 <= seed <= _MASK64:
        raise BadConfig(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def check_run(n_rep: int, seed: int, n_threads: int) -> None:
    """Check a sampler run's replicate count, seed and thread count."""
    plain_count("n_rep", n_rep)
    plain_count("n_threads", n_threads)
    check_seed(seed)


def _map_chunks(worker, seed: int, n: int, rows: int = CHUNK, n_threads: int = 1) -> list:
    """``[fn(chunk_rng(seed, k), lo, hi) for each chunk k]`` in chunk order, the seed checked first.

    Chunk k covers rows lo..hi = [k * rows, min((k + 1) * rows, n)).  The
    chunk contract: fn may read only its own chunk's generator and write only
    rows lo..hi of an output, so its result does not depend on which thread
    ran it or when, and a reduction in chunk order is the same floats for
    any thread count.  The worker contract: ``worker()`` makes one fn, which
    may own buffers that it reuses from chunk to chunk; the calling thread
    makes all ``min(n_threads, chunks)`` of them before any helper starts,
    then runs the one work loop with the first beside a plain thread per
    other.  Every worker takes chunk numbers from one shared counter; after
    a worker's error the others take no new chunk, and once all have
    stopped the first error is raised.
    """
    seed = check_seed(seed)
    n_chunks = len(range(0, n, rows))
    numbered, lock, results = iter(range(n_chunks)), threading.Lock(), [None] * n_chunks
    errors = []

    def work(fn) -> None:
        try:
            while not errors:
                with lock:
                    k = next(numbered, None)
                if k is None:
                    return
                results[k] = fn(chunk_rng(seed, k), k * rows, min((k + 1) * rows, n))
        except BaseException as exc:
            errors.append(exc)

    fns = [worker() for _ in range(min(n_threads, n_chunks))]
    helpers = [threading.Thread(target=work, args=(fn,)) for fn in fns[1:]]
    for helper in helpers:
        helper.start()
    if fns:
        work(fns[0])
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return results


def _chunk_draw(spec: CovSpec, height: int, tiles=None):
    """draw(rng, rows): one chunk of X - mu = L Z + noise * W, block by block, tile by tile.

    The one place normals become coordinates, and one worker's buffers: made
    for chunks of at most ``height`` rows, it allocates one block x r buffer
    of normals and one ``TILE`` x block tile once, and every chunk it draws
    reuses them, so one worker must draw one chunk at a time.  draw takes
    the chunk's rows x :func:`draw_width` normals from rng in consecutive
    blocks of :func:`_block_rows` rows (fewer when ``height`` is smaller),
    so it consumes them in the order one rows x r draw would.  For each
    block it yields (r0, r1, t0, t1, x) for each listed tile (every tile by
    default): x, a (t1 - t0) x (r1 - r0) view of the tile buffer, holds
    coordinates t0..t1 of the chunk's rows r0..r1 before mu, one per row,
    until the next tile.  Normal columns [0, d) feed L, in one
    (t1 - t0, d) @ (d, r1 - r0) matmul of a view of L's rows t0..t1 (no copy
    of the factor) per tile, and column d + j feeds coordinate j's noise, so
    a tile's values do not depend on the tiles listed.  Every block but a
    chunk's last has the full height, so only a short last block's rows come
    from a matmul of another shape.
    """
    ell, r = sampling_factor(spec), draw_width(spec)
    d, noise = ell.shape[1], spec.noise
    edges, block = _tile_edges(spec.p, tiles), min(_block_rows(spec), height)
    z, buf = np.empty((block, r)), np.empty((min(TILE, spec.p), block))

    def draw(rng: np.random.Generator, rows: int):
        for r0 in range(0, rows, block):
            r1 = min(r0 + block, rows)
            zb = rng.standard_normal(out=z[:r1 - r0])
            for t0, t1 in edges:
                x = np.matmul(ell[t0:t1], zb[:, :d].T, out=buf[:t1 - t0, :r1 - r0])
                if noise is not None:
                    w = zb[:, d + t0:d + t1].T
                    w *= noise[t0:t1, None]
                    x += w
                yield r0, r1, t0, t1, x

    return draw


def _block_rows(spec: CovSpec) -> int:
    """Rows per block of a chunk draw: ``BLOCK``, or fewer for a wide draw.

    ``min(BLOCK, emax_chunk_rows(draw_width(spec)))``: a power of two no
    taller than any chunk, so it divides every whole chunk of the sampler
    and of an expected-max pass.
    """
    return min(BLOCK, emax_chunk_rows(draw_width(spec)))


def _chunk_maxima(spec: CovSpec, subsets, modes, height: int):
    """fold(rng, rows): a chunk's per-row maxima of each subset, block by block, tile by tile.

    modes names each subset's statistic: "signed" folds X, "abs_std" folds
    |X - mu| / sd.  fold draws only the tiles holding a subset coordinate and
    folds their statistics into rows r0..r1 of one running maximum per
    subset.  Like :func:`_chunk_draw`, whose buffers it uses, it is one
    worker's, for chunks of at most ``height`` rows: it allocates a second
    ``TILE`` x block tile once if the modes mix, and per chunk only the
    maxima it returns and, where a subset's coordinates in a tile are not a
    range, their copy.  A zero mean is not added: adding 0.0 changes no
    maximum but the sign of an exact zero.
    """
    # tile -> row selector, within the tile, of each subset's coordinates there.
    sels = [_tile_selectors(idx) for idx in subsets]
    needs = {t: {m for sel, m in zip(sels, modes) if t in sel} for t in set().union(*sels)}
    draw, sds = _chunk_draw(spec, height, sorted(needs)), spec.sds
    mu = spec.mu if spec.mu.any() else None
    std_buf = (np.empty((min(TILE, spec.p), min(_block_rows(spec), height)))
               if len(set(modes)) > 1 else None)

    def fold(rng: np.random.Generator, rows: int) -> list[np.ndarray]:
        maxima = [np.full(rows, -np.inf) for _ in sels]
        for r0, r1, t0, t1, x in draw(rng, rows):
            t, std = t0 // TILE, x if std_buf is None else std_buf[:t1 - t0, :r1 - r0]
            if "abs_std" in needs[t]:  # reads X - mu, so before x gains mu
                np.divide(np.abs(x, out=std), sds[t0:t1, None], out=std)
            if "signed" in needs[t] and mu is not None:
                x += mu[t0:t1, None]
            for sel, mode, m in zip(sels, modes, maxima):
                if t in sel:
                    row_max = (x if mode == "signed" else std)[sel[t]].max(axis=0)
                    np.maximum(m[r0:r1], row_max, out=m[r0:r1])
        return maxima

    return fold


def sample(spec: CovSpec, n_rep: int, seed: int, n_threads: int = 1) -> np.ndarray:
    """Draw n_rep independent replicates of X = L Z + noise * W + mu as one batch.

    Returns the read-only n_rep x p matrix, the same numbers for any thread
    count.  Holds all n_rep x p values and, per sampler thread, a block of
    normals and one ``TILE`` x block tile; :func:`sample_max_diff` streams
    them instead.
    """
    check_run(n_rep, seed, n_threads)
    data = np.empty((n_rep, spec.p))

    def worker():
        draw = _chunk_draw(spec, min(CHUNK, n_rep))

        def fill(rng: np.random.Generator, lo: int, hi: int) -> None:
            for r0, r1, t0, t1, x in draw(rng, hi - lo):
                np.add(x.T, spec.mu[t0:t1], out=data[lo + r0:lo + r1, t0:t1])

        return fill

    _map_chunks(worker, seed, n_rep, n_threads=n_threads)
    data.flags.writeable = False
    return data


def sample_max_diff(spec: CovSpec, part: Partition, n_rep: int, seed: int,
                    n_threads: int = 1) -> np.ndarray:
    """Read-only vector of the per-replicate M_B - M_A of n_rep draws, reduced tile by tile.

    Equal, bit for bit, to ``max_diff(sample(spec, n_rep, seed, n_threads), part)``
    but holds, per sampler thread, one block of normals and one ``TILE`` x
    block tile of draws, which it folds into running maxima.
    """
    part.check_dim(spec.p)
    check_run(n_rep, seed, n_threads)

    def worker():
        fold = _chunk_maxima(spec, (part.a_idx, part.b_idx), ("signed", "signed"),
                             min(CHUNK, n_rep))

        def diff(rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
            m_a, m_b = fold(rng, hi - lo)
            return m_b - m_a

        return diff

    values = np.concatenate(_map_chunks(worker, seed, n_rep, n_threads=n_threads))
    values.flags.writeable = False
    return values


def emax_chunk_rows(r: int) -> int:
    """Chunk height for streaming expected-max passes.

    About 4 MB of normals per chunk, a power of two in [256, 4096], drawn in
    :func:`_block_rows` blocks.  A pure function of r, so the chunk shapes,
    and with the fixed ``TILE``-wide column tiles every matmul of a pass,
    depend on the model alone, never on which subsets are requested.
    """
    target = 4_000_000 // (8 * max(r, 1))
    if target < 256:
        return 256
    return min(1 << int(math.log2(target)), 4096)


def max_diff(batch: np.ndarray, part: Partition) -> np.ndarray:
    """Read-only vector of the per-replicate M_B - M_A of an n_rep x p batch."""
    part.check_dim(batch.shape[1])
    a_sel, b_sel = part.blocks
    values = batch[:, b_sel].max(axis=1) - batch[:, a_sel].max(axis=1)
    values.flags.writeable = False
    return values

