"""Reference values for the benchmark's output checks, in numpy alone.

Each function recomputes from the documented formulas what one maxgap CLI
command should print, without importing maxgap:

- sampling replays the chunk-keyed Philox streams (key = (seed, chunk)) with
  the program's chunk heights and matmul shapes, so the empirical columns
  must match the program bit for bit;
- expected maxima use one blocked matmul per chunk instead of the program's
  per-coordinate products, so bound ratios agree with the program to about
  1e-15 relative, and the checks allow 1e-9.

The oracle streams every chunk and keeps only row maxima, so its memory
stays far below the program's.
"""

from __future__ import annotations

import math

import numpy as np

SAMPLE_CHUNK = 1024       # rows per chunk of the sampler and the bootstrap
GRID_POINTS = 1000        # default scan grid of the concentration estimate
# The program's numerical tolerances (cov.py, bounds.py) and delta grid.
TOL_VAR_SPREAD = 1e-9
TOL_CORR = 1e-9
TOL_COND = 1e-9
TOL_EIG_CLIP = 1e-10
TOL_SINGULAR = 1e-12
TOL_RESID = 1e-10
RCOND_MIN = 1e-12
DELTA_GRID = np.geomspace(1e-3, 1.0 - 1e-3, 50)


def chunk_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, k]))


# ---------------------------------------------------------------- designs

def table1_factor(p: int, seed: int) -> np.ndarray:
    """p x (d + p) factor of the table1 design, d = p // 10."""
    d = max(p // 10, 1)
    gamma = np.random.default_rng(seed).standard_normal((p, d))
    scale = np.sqrt(np.einsum("ij,ij->i", gamma, gamma) + 1.0)
    return np.hstack([gamma, np.eye(p)]) / scale[:, None]


def equicorr(p: int, rho: float) -> np.ndarray:
    sig = np.full((p, p), rho)
    np.fill_diagonal(sig, 1.0)
    return sig


class Model:
    """Covariance given by a factor or an explicit matrix; mean zero."""

    def __init__(self, gamma=None, sigma=None):
        if gamma is not None:
            self.sds = np.sqrt(np.einsum("ij,ij->i", gamma, gamma))
            cov = gamma @ gamma.T
            self.cov = (cov + cov.T) * 0.5
            self.factor = gamma
        else:
            self.sds = np.sqrt(np.diag(sigma))
            self.cov = sigma
            self.factor = sqrt_factor(sigma)

    @property
    def p(self) -> int:
        return self.cov.shape[0]


def sqrt_factor(sigma: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(sigma)
    keep = w > TOL_EIG_CLIP * max(1.0, float(w[-1]))
    return v[:, keep] * np.sqrt(w[keep])


# --------------------------------------------------------------- sampling

def max_diffs(factor: np.ndarray, n_rep: int, seed: int, a: np.ndarray,
              b: np.ndarray) -> np.ndarray:
    """Per-replicate max over b minus max over a of X = L Z (mean zero)."""
    lt = np.ascontiguousarray(factor.T)
    out = np.empty(n_rep)
    for k in range(-(-n_rep // SAMPLE_CHUNK)):
        lo, hi = k * SAMPLE_CHUNK, min((k + 1) * SAMPLE_CHUNK, n_rep)
        z = np.empty((hi - lo, factor.shape[1]))
        chunk_rng(seed, k).standard_normal(out=z)
        x = z @ lt
        out[lo:hi] = x[:, b].max(axis=1) - x[:, a].max(axis=1)
    return out


def scan(values: np.ndarray, eps: float) -> tuple[float, float]:
    """Grid-scan concentration estimate and its standard error."""
    n = values.shape[0]
    v = np.sort(values)
    grid = np.linspace(v[0], v[-1], GRID_POINTS)
    counts = (np.searchsorted(v, grid + eps, side="right")
              - np.searchsorted(v, grid - eps, side="left"))
    value = counts[int(np.argmax(counts))] / n
    return float(value), float(np.sqrt(value * (1.0 - value) / n))


# ------------------------------------------------------ expected maxima

def emax_chunk_rows(r: int) -> int:
    target = 4_000_000 // (8 * max(r, 1))
    return 256 if target < 256 else min(1 << int(math.log2(target)), 4096)


def expected_max(model: Model, subsets, n_mc: int, seed: int,
                 mode: str = "abs_std") -> list[float]:
    """Monte Carlo E[max over each subset] on the program's random stream."""
    ell = model.factor
    r = ell.shape[1]
    union = np.unique(np.concatenate([np.asarray(s, dtype=np.intp) for s in subsets]))
    pos = {int(c): j for j, c in enumerate(union)}
    cols = [np.asarray([pos[int(c)] for c in s], dtype=np.intp) for s in subsets]
    lt = np.ascontiguousarray(ell[union].T)
    sds = model.sds[union]
    sums = [0.0] * len(subsets)
    rows, done, k = emax_chunk_rows(r), 0, 0
    while done < n_mc:
        z = np.empty((min(rows, n_mc - done), r))
        chunk_rng(seed, k).standard_normal(out=z)
        x = z @ lt
        vals = x if mode == "signed" else np.abs(x) / sds
        for i, c in enumerate(cols):
            sums[i] += float(np.sum(vals[:, c].max(axis=1)))
        done += z.shape[0]
        k += 1
    return [s / n_mc for s in sums]


# ----------------------------------------------------------------- bounds

def _corr(cov: np.ndarray) -> np.ndarray:
    sd = np.sqrt(np.diag(cov))
    return cov / np.outer(sd, sd)


def conditions(cov: np.ndarray, a: np.ndarray, b: np.ndarray) -> dict:
    """Both directions of the separation condition and their margins."""
    sd = np.sqrt(np.diag(cov))

    def direction(inner, outer):
        norm_ok = np.max(cov[np.ix_(inner, inner)] / sd[inner][:, None] ** 2) <= 1.0 + TOL_COND
        c = float(np.min(sd[inner][:, None] - cov[np.ix_(inner, outer)] / sd[inner][:, None]))
        return bool(norm_ok and c > 0.0), c

    cond_a, c_a = direction(b, a)
    cond_b, c_b = direction(a, b)
    cross = _corr(cov)[np.ix_(a, b)]
    return {"cond_a": cond_a, "c_a": c_a, "cond_b": cond_b, "c_b": c_b,
            "rho_bar": float(np.clip(np.max(cross), -1.0, 1.0)),
            "perfect": float(np.min([np.max(np.abs(cross)), 1.0])) >= 1.0 - TOL_CORR}


def _residuals(cov: np.ndarray, a: np.ndarray, b: np.ndarray):
    def schur(keep, cond_on):
        block = cov[np.ix_(cond_on, cond_on)]
        w = np.abs(np.linalg.eigvalsh(block))
        if w.max() == 0.0 or w.min() / w.max() < RCOND_MIN:
            return None
        cross = cov[np.ix_(cond_on, keep)]
        res = cov[np.ix_(keep, keep)] - cross.T @ np.linalg.solve(block, cross)
        return (res + res.T) * 0.5

    return schur(a, b), schur(b, a)


def bound_ratios(model: Model, a: np.ndarray, b: np.ndarray, n_mc: int, seed: int,
                 which, eps_list) -> list[dict]:
    """Per-epsilon bound ratios (bound / eps); a bound that does not apply is absent."""
    cov, sds = model.cov, model.sds
    cond = conditions(cov, a, b)
    homog_sd = None if sds.max() - sds.min() > TOL_VAR_SPREAD * sds.max() else float(sds[0])
    emax_ab = None
    if {"homogeneous", "single_max"} & set(which):
        emax_ab = expected_max(model, [a, b], n_mc, seed)
    rates: dict = {}
    if "homogeneous" in which and homog_sd is not None and cond["rho_bar"] < 1.0 - TOL_CORR:
        rates["homogeneous"] = min(emax_ab) / ((1.0 - cond["rho_bar"]) * homog_sd) * 7.0
    if "heterogeneous" in which and not cond["perfect"]:
        cands = [(s, c) for ok, s, c in ((cond["cond_a"], b, cond["c_a"]),
                                         (cond["cond_b"], a, cond["c_b"])) if ok]
        if cands:
            vals = expected_max(model, [s for s, _ in cands], n_mc, seed)
            rates["heterogeneous"] = min(e / c * 2.0 for e, (_, c) in zip(vals, cands))
    if "conditional" in which:
        res = _residuals(cov, a, b)
        marg = np.diag(cov)
        if all(r is not None for r in res) and not any(
                (np.diag(r) <= TOL_RESID * marg[idx]).any() for r, idx in zip(res, (a, b))):
            floor = min(float(np.sqrt(np.diag(r).min())) for r in res)
            e_vals = [expected_max(Model(sigma=r), [np.arange(r.shape[0])], n_mc, seed)[0]
                      for r in res]
            rates["conditional"] = min(e_vals) / floor * 2.0
    if "baseline" in which:
        lam = float(np.linalg.eigvalsh(cov)[0])
        if lam > TOL_SINGULAR * max(1.0, float(np.max(np.diag(cov)))):
            rates["baseline"] = (math.sqrt(2.0 * math.log(model.p)) + 2.0) * 2.0 / math.sqrt(lam)
    if "single_max" in which:
        rates["single_max"] = min(e / float(sds[s].min()) * 2.0
                                  for e, s in zip(emax_ab, (a, b)))
    terms = (_threshold_terms(model, a, b, n_mc, seed, homog_sd)
             if "corr_threshold" in which and homog_sd is not None else [])
    out = []
    for eps in eps_list:
        row = dict(rates)
        if terms:
            row["corr_threshold"] = min(rate * eps + 2.0 * omega for rate, omega in terms) / eps
        out.append(row)
    return out


def _threshold_terms(model: Model, a, b, n_mc: int, seed: int, sigma: float):
    """(rate, omega) for every admissible threshold of both orientations."""
    corr = _corr(model.cov)
    plans = []
    for own, other in ((a, b), (b, a)):
        best = corr[np.ix_(own, other)].max(axis=1)
        for delta in DELTA_GRID:
            captured = best >= 1.0 - float(delta)
            if not captured.all():
                plans.append((float(delta), tuple(own[~captured]), tuple(other),
                              tuple(own[captured])))
    std = sorted({s for _, rest, other, _ in plans for s in (rest, other)})
    signed = sorted({s for _, rest, _, n_set in plans if n_set for s in (rest, n_set)})
    e_std = dict(zip(std, expected_max(model, std, n_mc, seed))) if std else {}
    e_sgn = dict(zip(signed, expected_max(model, signed, n_mc, seed, "signed"))) if signed else {}
    terms = []
    for delta, rest, other, n_set in plans:
        rate = min(e_std[rest], e_std[other]) * 7.0 / (delta * sigma)
        omega = 0.0
        if n_set:
            d = e_sgn[rest] - e_sgn[n_set]
            omega = math.exp(-max(d, 0.0) ** 2 / (8.0 * sigma * sigma))
        terms.append((rate, omega))
    return terms


# -------------------------------------------------------------- bootstrap

def bootstrap(xi: np.ndarray, shift: np.ndarray, split: int, b_reps: int, seed: int,
              quantiles, n_mc: int) -> dict:
    """Gaussian multiplier bootstrap of argmax-in-A plus the coupling-rate diagnostic."""
    n, p = xi.shape
    a, b = np.arange(split), np.arange(split, p)
    centered = xi - xi.mean(axis=0)
    diffs = np.empty(b_reps)
    for k in range(-(-b_reps // SAMPLE_CHUNK)):
        lo, hi = k * SAMPLE_CHUNK, min((k + 1) * SAMPLE_CHUNK, b_reps)
        x = chunk_rng(seed, k).standard_normal((hi - lo, n)) @ centered
        x *= 1.0 / math.sqrt(n)
        x += math.sqrt(n) * shift
        diffs[lo:hi] = x[:, a].max(axis=1) - x[:, b].max(axis=1)
    out = {"prob": float(np.count_nonzero(diffs > 0.0)) / b_reps,
           "quantiles": {str(float(q)): float(np.quantile(diffs, q)) for q in quantiles},
           "clt_rate": None}
    sig = (centered.T @ centered) / n
    sig = (sig + sig.T) * 0.5
    cond = conditions(sig, a, b)
    if cond["cond_a"] or cond["cond_b"]:
        if cond["cond_a"] and cond["cond_b"]:
            c_ab, s = max(cond["c_a"], cond["c_b"]), (b if cond["c_a"] >= cond["c_b"] else a)
        else:
            c_ab, s = (cond["c_a"], b) if cond["cond_a"] else (cond["c_b"], a)
        emax = expected_max(Model(sigma=sig), [s], n_mc, seed)[0]
        b_n = max(1.0, float(np.abs(centered).max()))
        out["clt_rate"] = emax / c_ab * (b_n ** 2 * math.log(p * n) ** 3 / n) ** 0.25
    return out
