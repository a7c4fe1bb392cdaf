"""Concentration-function estimation and expected maxima.

The concentration value of a sample at half-width eps is estimated by
scanning a fixed grid of centers t (grid endpoints are the sample min and
max, both included) and taking the largest empirical probability of the
closed interval [t - eps, t + eps].  The grid scan is mildly downward biased;
an exact sliding-interval maximizer is available behind ``exact=True``, the
tests' reference that the grid scan may not exceed.

Expected maxima stream the sampler's keyed chunks and its chunk draw: each
chunk is folded tile by tile into per-row maxima of every requested subset,
of one statistic or both (see :mod:`maxgap.sampling`), and the chunks' sums
are added in chunk order.  A coordinate's per-replicate values come from the
same operations on the same inputs whichever requests go together, so
estimates under a common seed are exactly monotone in the subset, and a
batched request equals, bit for bit, the same requests made one at a time
(for a fixed BLAS build and BLAS thread count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cov import CovSpec
from .errors import BadConfig, EmptySample, EmptySubset
from .sampling import DiffSample, _chunk_maxima, _map_chunks, draw_width, emax_chunk_rows

DEFAULT_GRID = 1000
DEFAULT_MC = 200_000


@dataclass(frozen=True)
class LevyEstimate:
    epsilon: float
    value: float
    argmax_t: float
    grid_points: int
    n_rep: int
    se_hint: float


def _as_values(x) -> np.ndarray:
    if isinstance(x, DiffSample):
        return x.values
    return np.asarray(x, dtype=float).reshape(-1)


def check_epsilon(epsilon) -> float:
    """A half-width as a float; it must be finite and strictly positive."""
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise BadConfig(f"epsilon must be finite and positive, got {epsilon}")
    return epsilon


def check_scan(epsilons, grid_points: int) -> list[float]:
    """A scan's half-widths, at least one, each checked; and its grid size."""
    eps = [check_epsilon(e) for e in epsilons]
    if not eps:
        raise BadConfig("need at least one epsilon")
    if grid_points < 1:
        raise BadConfig(f"grid_points must be positive, got {grid_points}")
    return eps


def _sorted_sample(values) -> np.ndarray:
    values = _as_values(values)
    if values.shape[0] == 0:
        raise EmptySample("cannot estimate concentration of an empty sample")
    if not np.all(np.isfinite(values)):
        raise BadConfig("sample has non-finite values")
    return np.sort(values)


def _estimate(epsilon: float, value, argmax_t: float, grid_points: int, n: int) -> LevyEstimate:
    return LevyEstimate(epsilon=epsilon, value=float(value), argmax_t=argmax_t,
                        grid_points=grid_points, n_rep=n,
                        se_hint=float(np.sqrt(value * (1.0 - value) / n)))


def levy_hat(diffs, epsilon: float, grid_points: int = DEFAULT_GRID,
             exact: bool = False) -> LevyEstimate:
    """Concentration estimate for a max-difference sample or a raw sample vector.

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
    return _estimate(epsilon, counts[k] / n, float(v[k] + epsilon), grid_points, n)


def levy_curve(diffs, epsilons, grid_points: int = DEFAULT_GRID) -> list[LevyEstimate]:
    """Estimates for several half-widths over one common center grid.

    Sharing the grid makes the curve nondecreasing in eps by construction.
    """
    v = _sorted_sample(diffs)
    eps = check_scan(epsilons, grid_points)
    if any(b < a for a, b in zip(eps, eps[1:])):
        raise BadConfig("epsilons must be sorted ascending")
    n = v.shape[0]
    grid = np.linspace(v[0], v[-1], grid_points)
    out = []
    for e in eps:
        counts = (np.searchsorted(v, grid + e, side="right")
                  - np.searchsorted(v, grid - e, side="left"))
        k = int(np.argmax(counts))
        out.append(_estimate(e, counts[k] / n, float(grid[k]), grid_points, n))
    return out


def _check_subset(subset, p: int) -> np.ndarray:
    idx = np.asarray(sorted(set(int(i) for i in subset)), dtype=np.intp)
    if idx.size == 0:
        raise EmptySubset("subset must be nonempty")
    if idx[0] < 0 or idx[-1] >= p:
        raise BadConfig(f"subset indices must lie in [0, {p})")
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
    if n_mc < 1:
        raise BadConfig(f"n_mc must be positive, got {n_mc}")
    idx_sets = [_check_subset(s, spec.p) for s in subsets]
    modes = mode if isinstance(mode, tuple) else (mode,) * len(idx_sets)
    if len(modes) != len(idx_sets) or any(m not in ("abs_std", "signed") for m in modes):
        raise BadConfig(f"need one expected-max mode, abs_std or signed, per subset; got {mode!r}")
    fold = _chunk_maxima(spec, idx_sets, modes)
    rows = min(emax_chunk_rows(draw_width(spec)), n_mc)  # a shorter pass is one chunk either way

    def chunk_sums(rng: np.random.Generator, lo: int, hi: int) -> list[float]:
        return [float(np.sum(m)) for m in fold(rng, hi - lo)]

    sums = [0.0] * len(idx_sets)
    for chunk in _map_chunks(chunk_sums, seed, n_mc, rows):
        sums = [total + s for total, s in zip(sums, chunk)]
    return [total / n_mc for total in sums]
