"""Deterministic Gaussian sampling and max-difference statistics.

Randomness contract: replicate rows are produced in fixed chunks of
``CHUNK`` rows, and chunk k draws from its own counter-based stream (Philox
keyed by (seed, k)).  :func:`chunks` is the one place a seed meets Philox: it
checks the seed and hands out each chunk's span and generator, to the
sampler, the expected-max passes and the bootstrap alike.  Chunk streams are
stateless and independent of execution order, so serial and thread-parallel
runs produce bit-identical values for any sampler thread count, and a run of
whole chunks is a prefix of any longer run with the same seed.  Bit-identity
holds under a fixed BLAS build and BLAS thread count: each chunk is one
matmul, and BLAS libraries may sum in another order when their own thread
count changes (OpenBLAS does, in the last bits, between
``OPENBLAS_NUM_THREADS=1`` and ``2``) or when the matmul height changes, so
the rows of a partial last chunk agree with a longer run only to
rounding.  The factor of an explicit covariance is an eigendecomposition,
which may then also return another basis of a repeated eigenvalue's
eigenspace, so such a spec's draws can differ by more than rounding.

Two paths share one chunk draw and one thread pool.  :func:`sample` is the
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
    """p x r map L with L L^T equal to the covariance (r = numerical rank).

    The spec's cached :attr:`CovSpec.root`, so each spec is factored once.
    """
    return spec.root


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


def _check_run(n_rep: int, seed: int, n_threads: int) -> list:
    """The run's :func:`chunks`, once the replicate and thread counts are checked."""
    if n_rep < 1:
        raise BadConfig(f"n_rep must be positive, got {n_rep}")
    if n_threads < 1:
        raise BadConfig(f"n_threads must be positive, got {n_threads}")
    return list(chunks(seed, n_rep))


def _run_chunks(spec: CovSpec, todo: list, n_threads: int, handle) -> None:
    """Call handle(lo, hi, fill) once per chunk of todo, on up to n_threads threads.

    fill(out) writes the chunk's rows of X = L Z + mu, drawn from the
    chunk's generator and multiplied as one (rows, r) @ (r, p) matmul, into
    the (hi - lo) x p array out and returns it.  Every sampler path draws
    through here, so they all see the same numbers.
    """
    ell = sampling_factor(spec)
    r = ell.shape[1]
    lt = np.ascontiguousarray(ell.T)
    mu = spec.mu

    def run(chunk) -> None:
        rng, lo, hi = chunk

        def fill(out: np.ndarray) -> np.ndarray:
            z = np.empty((hi - lo, r))
            rng.standard_normal(out=z)
            np.matmul(z, lt, out=out)
            out += mu
            return out

        handle(lo, hi, fill)

    if n_threads > 1 and len(todo) > 1:
        with ThreadPoolExecutor(max_workers=min(n_threads, len(todo))) as pool:
            list(pool.map(run, todo))
    else:
        for chunk in todo:
            run(chunk)


def sample(spec: CovSpec, n_rep: int, seed: int, n_threads: int = 1) -> SampleBatch:
    """Draw n_rep independent replicates of X = L Z + mu as one batch.

    Deterministic given (spec, n_rep, seed); the thread count only changes
    who fills which chunk, never the numbers.  Holds all n_rep x p values;
    :func:`sample_max_diff` streams them instead.
    """
    todo = _check_run(n_rep, seed, n_threads)
    data = np.empty((n_rep, spec.p))
    _run_chunks(spec, todo, n_threads, lambda lo, hi, fill: fill(data[lo:hi]))
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
    todo = _check_run(n_rep, seed, n_threads)
    values = np.empty(n_rep)
    a_idx, b_idx = part.a_idx, part.b_idx

    def reduce(lo: int, hi: int, fill) -> None:
        x = fill(np.empty((hi - lo, spec.p)))
        values[lo:hi] = x[:, b_idx].max(axis=1) - x[:, a_idx].max(axis=1)

    _run_chunks(spec, todo, n_threads, reduce)
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
    values = batch.data[:, part.b_idx].max(axis=1) - batch.data[:, part.a_idx].max(axis=1)
    return _diff_sample(values, part)

