"""Concentration-function estimation and expected maxima.

The concentration value of a sample at half-width eps is estimated by
scanning a grid of centers t from the sample min to its max, both included,
and taking the largest empirical probability of the closed interval
[t - eps, t + eps].  A sample is a 1-D array-like, such as the
max-difference vector the sampler returns; a batch or any other shape raises
``DimensionMismatch``.  The grid's intervals double from ``DEFAULT_GRID - 1``
until their spacing is at most the smallest eps (``BadConfig`` past
``MAX_INTERVALS``), so no point mass hides between two windows and
exact(eps / 2) <= scan(eps) <= exact(eps) for the in-sample supremum exact
(``exact=True``); both overshoot the true concentration (at eps = 0.05 the
grid scan by +1.0 to +1.7 se on average, the exact scan more).

Expected maxima stream the sampler's keyed chunks and its chunk draw: each
chunk of ``emax_chunk_rows`` rows is drawn in the sampler's row blocks and
folded tile by tile into per-row maxima of every requested subset, of one
statistic or both (see :mod:`maxgap.sampling`), so a pass holds one block of
normals and one ``TILE`` x block tile, and the chunks' sums are added in
chunk order.  A coordinate's per-replicate values come from the
same operations on the same inputs whichever requests go together, so
estimates under a common seed are exactly monotone in the subset, and a
batched request equals, bit for bit, the same requests made one at a time
(for a fixed BLAS build and BLAS thread count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cov import CovSpec, _indices, plain_count
from .errors import BadConfig, DimensionMismatch, EmptySample, EmptySubset
from .sampling import _chunk_maxima, _map_chunks, draw_width, emax_chunk_rows

DEFAULT_GRID = 1000
MAX_INTERVALS = 2 ** 17
DEFAULT_MC = 200_000


@dataclass(frozen=True)
class LevyEstimate:
    epsilon: float
    value: float
    argmax_t: float
    se_hint: float


def check_epsilon(epsilon) -> float:
    """A half-width as a float; it must be finite and strictly positive."""
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise BadConfig(f"epsilon must be finite and positive, got {epsilon}")
    return epsilon


def check_scan(epsilons, grid_points: int = DEFAULT_GRID) -> list[float]:
    """A scan's half-widths, at least one, each checked; and its grid size."""
    eps = [check_epsilon(e) for e in epsilons]
    if not eps:
        raise BadConfig("need at least one epsilon")
    plain_count("grid_points", grid_points)
    return eps


def _sorted_sample(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise DimensionMismatch(f"sample must be one-dimensional, got shape {values.shape}")
    if values.shape[0] == 0:
        raise EmptySample("cannot estimate concentration of an empty sample")
    if not np.all(np.isfinite(values)):
        raise BadConfig("sample has non-finite values")
    return np.sort(values)


def _estimate(epsilon: float, value, argmax_t: float, n: int) -> LevyEstimate:
    return LevyEstimate(epsilon=epsilon, value=float(value), argmax_t=argmax_t,
                        se_hint=float(np.sqrt(value * (1.0 - value) / n)))


def levy_hat(diffs, epsilon: float, grid_points: int = DEFAULT_GRID,
             exact: bool = False) -> LevyEstimate:
    """Concentration estimate of a 1-D sample, such as a max-difference vector.

    With ``exact`` the supremum is exact: the optimal window can start at a
    data point.
    """
    if not exact:
        return levy_curve(diffs, [epsilon], grid_points)[0]
    v = _sorted_sample(diffs)
    epsilon = check_epsilon(epsilon)
    n = v.shape[0]
    counts = np.searchsorted(v, v + 2.0 * epsilon, side="right") - np.arange(n)
    k = int(np.argmax(counts))
    return _estimate(epsilon, counts[k] / n, float(v[k] + epsilon), n)


def levy_curve(diffs, epsilons, grid_points: int = DEFAULT_GRID) -> list[LevyEstimate]:
    """Estimates for several half-widths over one common center grid.

    The epsilons come in any order, repeats included, and the estimates
    follow it.  Sharing the grid makes the curve nondecreasing in eps by
    construction.  Refining the grid for the smallest eps keeps every
    coarser center, so an estimate never reads below its own one-eps scan,
    and equals it when no smaller eps in the call refines the grid.
    """
    v = _sorted_sample(diffs)
    eps = check_scan(epsilons, grid_points)
    n = v.shape[0]
    span, intervals = float(v[-1]) - float(v[0]), max(grid_points - 1, 1)
    while span / intervals > min(eps):
        intervals, grid_points = 2 * intervals, 2 * intervals + 1
        if intervals > MAX_INTERVALS:
            raise BadConfig(f"eps = {min(eps):g} needs over {MAX_INTERVALS} scan intervals "
                            f"on the sample's range {span:.4g}")
    grid = np.linspace(v[0], v[-1], grid_points)
    out = []
    for e in eps:
        counts = (np.searchsorted(v, grid + e, side="right")
                  - np.searchsorted(v, grid - e, side="left"))
        k = int(np.argmax(counts))
        out.append(_estimate(e, counts[k] / n, float(grid[k]), n))
    return out


def _check_subset(subset, p: int) -> np.ndarray:
    idx = np.asarray(sorted(set(_indices("subset", subset, p))), dtype=np.intp)
    if idx.size == 0:
        raise EmptySubset("subset must be nonempty")
    return idx


def expected_max_many(spec: CovSpec, subsets, n_mc: int, seed: int,
                      mode: str | tuple[str, ...] = "abs_std") -> list[float]:
    """Stream one Monte Carlo pass and reduce several subsets at once.

    mode "abs_std": max over the subset of |X - mu| / sd.
    mode "signed":  max over the subset of X itself.
    One mode serves every subset; a tuple gives one mode per subset.

    Returns one mean per subset.  Each chunk draws the ``TILE``-wide column
    tiles that hold a requested coordinate, so subsets sharing coordinates
    share the per-replicate coordinate values bit for bit.
    """
    plain_count("n_mc", n_mc)
    idx_sets = [_check_subset(s, spec.p) for s in subsets]
    modes = mode if isinstance(mode, tuple) else (mode,) * len(idx_sets)
    if len(modes) != len(idx_sets) or any(m not in ("abs_std", "signed") for m in modes):
        raise BadConfig(f"need one expected-max mode, abs_std or signed, per subset; got {mode!r}")
    rows = min(emax_chunk_rows(draw_width(spec)), n_mc)  # a shorter pass is one chunk either way
    fold = _chunk_maxima(spec, idx_sets, modes, rows)

    def chunk_sums(rng: np.random.Generator, lo: int, hi: int) -> list[float]:
        return [float(np.sum(m)) for m in fold(rng, hi - lo)]

    sums = [0.0] * len(idx_sets)
    for chunk in _map_chunks(lambda: chunk_sums, seed, n_mc, rows):
        sums = [total + s for total, s in zip(sums, chunk)]
    return [total / n_mc for total in sums]
