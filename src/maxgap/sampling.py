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
holds under a fixed BLAS build and BLAS thread count: each chunk is one
matmul, and BLAS libraries may sum in another order when their own thread
count changes (OpenBLAS does, in the last bits, between
``OPENBLAS_NUM_THREADS=1`` and ``2``) or when the matmul height changes, so
the rows of a partial last chunk agree with a longer run only to
rounding.  The factor of an explicit covariance is an eigendecomposition,
which may then also return another basis of a repeated eigenvalue's
eigenspace, so such a spec's draws can differ by more than rounding.

Two paths share one chunk draw.  :func:`sample` is the
batch API: it keeps the whole n_rep x p matrix, as the tests' reference.
:func:`sample_max_diff`, which the CLI commands use, reduces each chunk to
its per-replicate M_B - M_A as soon as it is drawn, so it holds
O(CHUNK * p) memory per sampler thread, and its values equal
``max_diff(sample(...))`` bit for bit (a maximum is exact).  Thread and
whole-chunk prefix bit-identity hold for both paths.

The normal generation method is numpy's ziggurat, fixed per build and
recorded as ``RNG_METHOD`` in every CSV sidecar.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cov import CovSpec, Partition
from .errors import BadConfig, DimensionMismatch

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
    :func:`apply_draws` reads the columns in that factor's layout, so a spec
    with noise consumes the same normals as that factor.
    """
    return spec.root.shape[1] + (spec.p if spec.noise is not None else 0)


def apply_draws(z: np.ndarray, lt: np.ndarray, noise: np.ndarray | None, t0: int, t1: int,
                out: np.ndarray) -> np.ndarray:
    """Write coordinates t0..t1 of the draws z, before mu, into out and return it.

    The one place the layout of :func:`draw_width` is read: columns [0, d)
    of z feed L, through lt = L[t0:t1]^T (d x (t1 - t0)), and column d + j
    feeds coordinate j's noise.  The noise columns t0..t1 of z are scaled
    in place, so each may be applied once per draw.
    """
    d = lt.shape[0]
    np.matmul(z[:, :d], lt, out=out)
    if noise is not None:
        w = z[:, d + t0:d + t1]
        w *= noise[t0:t1]
        out += w
    return out


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


def _chunk_draw(spec: CovSpec):
    """fill(rng, out): one chunk of X = L Z + noise * W + mu, drawn from rng, into out.

    The draws are applied by :func:`apply_draws` as one (rows, d) @ (d, p)
    matmul (d the columns of L) into the rows x p array out, which fill
    returns.  Every sampler path draws through here, so they all see the
    same numbers.
    """
    r = draw_width(spec)
    lt = np.ascontiguousarray(sampling_factor(spec).T)

    def fill(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        z = rng.standard_normal((out.shape[0], r))
        apply_draws(z, lt, spec.noise, 0, spec.p, out)
        out += spec.mu
        return out

    return fill


def sample(spec: CovSpec, n_rep: int, seed: int, n_threads: int = 1) -> SampleBatch:
    """Draw n_rep independent replicates of X = L Z + noise * W + mu as one batch.

    Deterministic given (spec, n_rep, seed); the thread count only changes
    who fills which chunk, never the numbers.  Holds all n_rep x p values;
    :func:`sample_max_diff` streams them instead.
    """
    check_run(n_rep, seed, n_threads)
    data = np.empty((n_rep, spec.p))
    fill = _chunk_draw(spec)
    _map_chunks(lambda rng, lo, hi: fill(rng, data[lo:hi]), seed, n_rep, n_threads=n_threads)
    data.flags.writeable = False
    return SampleBatch(n_rep=n_rep, p=spec.p, data=data, seed=int(seed))


def sample_max_diff(spec: CovSpec, part: Partition, n_rep: int, seed: int,
                    n_threads: int = 1) -> DiffSample:
    """Per-replicate M_B - M_A of n_rep draws, reduced chunk by chunk.

    Equal, bit for bit, to ``max_diff(sample(spec, n_rep, seed, n_threads), part)``
    but never holds more than one chunk of draws per sampler thread.
    """
    if part.p != spec.p:
        raise DimensionMismatch(f"partition over {part.p} coordinates, model has {spec.p}")
    check_run(n_rep, seed, n_threads)
    values = np.empty(n_rep)
    a_sel, b_sel = part.blocks
    fill = _chunk_draw(spec)

    def reduce(rng: np.random.Generator, lo: int, hi: int) -> None:
        x = fill(rng, np.empty((hi - lo, spec.p)))
        values[lo:hi] = x[:, b_sel].max(axis=1) - x[:, a_sel].max(axis=1)

    _map_chunks(reduce, seed, n_rep, n_threads=n_threads)
    return _diff_sample(values, part)


def emax_chunk_rows(r: int) -> int:
    """Chunk height for streaming expected-max passes.

    About 4 MB of draws per chunk, a power of two in [256, 4096].  A pure
    function of r, so the chunk shapes, and with the fixed ``EMAX_TILE``
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
    if part.p != batch.p:
        raise DimensionMismatch(f"partition over {part.p} coordinates, batch has {batch.p}")
    a_sel, b_sel = part.blocks
    values = batch.data[:, b_sel].max(axis=1) - batch.data[:, a_sel].max(axis=1)
    return _diff_sample(values, part)

