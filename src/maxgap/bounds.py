"""Anti-concentration bounds for the difference of two Gaussian block maxima.

Every bound here is eps times a factor free of eps, so each bound function
returns that factor, its rate per unit eps, and never sees eps at all.  The
correlation threshold bound alone adds a constant 2 * omega per threshold;
it returns its whole profile of (rate, omega) terms.  ``BoundReport.ratio``
applies a half-width afterwards, which makes a pure-rate ratio the same float
at every eps.  Expected-max terms are Monte Carlo estimates streamed under a
shared seed (common random numbers), which makes the documented algebraic
relations between bounds exact rather than approximate.  Within one
``bound_report`` each (spec content, subset, mode, n_mc, seed) request is
streamed once, a bound's requests of either mode in one pass, and served to
every bound that asks for it, also across specs equal in content; the fixed
column tiles of :func:`maxgap.levy.expected_max_many` make a served value
bit-identical to a fresh pass.

Bounds deliberately report values above 1 unclipped; a value's usefulness at
a given eps is the caller's judgment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cov import (_REPORT, CovSpec, Partition, _fold, _report_memo,
                  check_conditions, min_eigenvalue, residual_cov, rho_bar, TOL_CORR)
from .errors import (BadConfig, BadGeometry, ConditionFails,
                     HeterogeneousVariances, MaxgapError, NoAdmissibleDelta,
                     PerfectCrossCorrelation, SingularCovariance,
                     ZeroResidualVariance)
from .levy import DEFAULT_MC, check_epsilon, expected_max_many
from .sampling import chunks

TOL_VAR_SPREAD = 1e-9   # max relative sd spread treated as homogeneous
TOL_SINGULAR = 1e-12    # relative eigenvalue floor for the baseline
TOL_RESID = 1e-10       # residual variance below TOL_RESID * marginal is zero

ALL_BOUNDS = ("homogeneous", "corr_threshold", "heterogeneous", "conditional",
              "baseline", "single_max")


@dataclass(frozen=True)
class McConfig:
    """Size and seed of the expected-max Monte Carlo."""

    n_mc: int = DEFAULT_MC
    seed: int = 0


@dataclass(frozen=True)
class Inapplicable:
    """Marker for a bound whose hypotheses fail.

    ``reason`` is the machine-readable error code; ``detail`` keeps the error
    message, such as the smallest eigenvalue, the rcond or the rank.  Two
    markers with the same reason compare equal whatever their details.
    """

    reason: str
    detail: str = field(default="", compare=False)


@dataclass(frozen=True)
class DeltaTerm:
    """One admissible threshold, contributing rate * eps + 2 * omega; d_delta is None without N."""

    delta: float
    orientation: str
    rate: float
    omega: float
    d_delta: float | None


@dataclass(frozen=True)
class ExchangeableLower:
    """Lower bound k/p plus the additive constant 4k/(p+k) of the upper bound."""

    value: float
    residual: float


@dataclass(frozen=True)
class BoundReport:
    """One entry per ``ALL_BOUNDS`` name: a rate, ``Inapplicable``, or None.

    None marks a bound that was not requested, ``Inapplicable`` one whose
    hypotheses fail on the design.  ``corr_threshold`` holds its tuple of
    ``DeltaTerm``; ``single_max`` the smaller rate of the two blocks.
    """

    homogeneous: float | Inapplicable | None
    corr_threshold: tuple[DeltaTerm, ...] | Inapplicable | None
    heterogeneous: float | Inapplicable | None
    conditional: float | Inapplicable | None
    baseline: float | Inapplicable | None
    single_max: float | Inapplicable | None
    lower_exchangeable: ExchangeableLower | None

    def ratio(self, name: str, eps: float) -> float | Inapplicable | None:
        """Bound ``name`` at half-width eps divided by eps.

        The rate itself for every bound but ``corr_threshold``, whose omega
        terms add 2 * omega / eps before the minimum over thresholds.
        """
        eps = check_epsilon(eps)
        if name not in ALL_BOUNDS:
            raise BadConfig(f"unknown bound {name!r}; expected one of {ALL_BOUNDS}")
        value = getattr(self, name)
        if not isinstance(value, tuple):
            return value
        return min(t.rate + 2.0 * t.omega / eps for t in value)


def _emax(spec: CovSpec, requests, mc: McConfig) -> list[float]:
    """Expected max of each (subset, mode) request; one pass for those not yet served.

    Outside ``bound_report`` nothing is kept, so every call is one pass.
    """
    memo = _report_memo(spec)
    keys = [(frozenset(np.asarray(s, dtype=np.intp).tolist()), mode, mc.n_mc, mc.seed)
            for s, mode in requests]
    missing = {key: req for key, req in zip(keys, requests) if key not in memo}
    if missing:
        subsets, modes = zip(*missing.values())
        memo.update(zip(missing, expected_max_many(spec, subsets, mc.n_mc, mc.seed, modes)))
    return [memo[key] for key in keys]


def _common_sd(spec: CovSpec) -> float:
    sds = spec.sds
    if float(sds.max() - sds.min()) > TOL_VAR_SPREAD * float(sds.max()):
        raise HeterogeneousVariances(
            f"component sds spread over [{sds.min():.6g}, {sds.max():.6g}]")
    return float(sds[0])


def bound_homogeneous(spec: CovSpec, part: Partition, mc: McConfig | None = None) -> float:
    """Equal-variance rate from the largest cross correlation.

    min(E max_A |X - mu|/sd, E max_B ...) * 7 / ((1 - rho_bar) * sd).
    """
    mc = mc or McConfig()
    sigma = _common_sd(spec)
    rbar = rho_bar(spec, part)
    if rbar >= 1.0 - TOL_CORR:
        raise PerfectCrossCorrelation(f"largest cross correlation {rbar} too close to 1")
    e_a, e_b = _emax(spec, [(part.a_set, "abs_std"), (part.b_set, "abs_std")], mc)
    return min(e_a, e_b) / ((1.0 - rbar) * sigma) * 7.0


def default_delta_grid(n: int = 50) -> np.ndarray:
    return np.geomspace(1e-3, 1.0 - 1e-3, n)


def _delta_grid(delta_grid) -> np.ndarray:
    grid = default_delta_grid() if delta_grid is None else np.asarray(delta_grid, dtype=float)
    if grid.size == 0 or not np.all((grid > 0.0) & (grid < 1.0)):
        raise BadConfig("delta grid must lie strictly inside (0, 1)")
    return grid


def bound_corr_threshold(spec: CovSpec, part: Partition, delta_grid=None,
                         mc: McConfig | None = None) -> tuple[DeltaTerm, ...]:
    """Admissible threshold terms for both orientations of the partition.

    For orientation "AB", N(delta) collects the coordinates of A whose best
    correlation into B reaches 1 - delta (exact comparison); a threshold is
    admissible while N(delta) is not all of A; the best correlations come from
    :func:`maxgap.cov.rho_bar`'s tile fold.  The term's rate decays like
    1/delta; its crossover penalty is 2 * omega with
    omega = exp(-(positive part of D)^2 / (8 sd^2)) and D the gap between the
    expected plain maxima over A minus N and over N.  The bound at eps is the
    minimum of rate * eps + 2 * omega over the terms.
    """
    mc = mc or McConfig()
    sigma = _common_sd(spec)
    grid = _delta_grid(delta_grid)
    best = _fold(spec, part, within=False)[1]
    # Per admissible (delta, orientation): E max |X|/sd over the rest of the
    # block and over the other block, then, when N is nonempty, E max X over
    # the rest and over N; _emax streams the distinct requests in one pass.
    plans, requests = [], []  # plans: (delta, orientation, N nonempty)
    for orientation, own, other in (("AB", part.a_idx, part.b_idx),
                                    ("BA", part.b_idx, part.a_idx)):
        for delta in grid:
            captured = best[own] >= 1.0 - float(delta)
            if captured.all():
                continue
            rest, n_set = own[~captured], own[captured]
            plans.append((float(delta), orientation, n_set.size > 0))
            requests += [(rest, "abs_std"), (other, "abs_std")]
            requests += [(rest, "signed"), (n_set, "signed")] if n_set.size else []
    if not plans:
        raise NoAdmissibleDelta("every threshold in the grid captures a full block")
    emax = iter(_emax(spec, requests, mc))
    terms = []
    for delta, orientation, has_n in plans:
        rate = min(next(emax), next(emax)) * 7.0 / (delta * sigma)
        if has_n:
            d = next(emax) - next(emax)
            omega = math.exp(-max(d, 0.0) ** 2 / (8.0 * sigma * sigma))
        else:
            d, omega = None, 0.0
        terms.append(DeltaTerm(delta=delta, orientation=orientation, rate=rate,
                               omega=omega, d_delta=d))
    return tuple(terms)


def bound_heterogeneous(spec: CovSpec, part: Partition, mc: McConfig | None = None) -> float:
    """Separation-condition rate 2 * E(max over S of |X - mu|/sd) / C.

    S is the block opposite the direction that holds; when both directions
    hold the smaller of the two rates is returned.
    """
    mc = mc or McConfig()
    report = check_conditions(spec, part)
    if report.has_perfect_cross_corr:
        raise PerfectCrossCorrelation("a cross pair is perfectly correlated")
    candidates = []
    if report.cond_a_holds:
        candidates.append((part.b_set, report.c_a))
    if report.cond_b_holds:
        candidates.append((part.a_set, report.c_b))
    if not candidates:
        raise ConditionFails("neither direction of the separation condition holds")
    vals = _emax(spec, [(s, "abs_std") for s, _ in candidates], mc)
    return min(e / c * 2.0 for e, (_, c) in zip(vals, candidates))


def bound_conditional(spec: CovSpec, part: Partition, mc: McConfig | None = None) -> float:
    """Residual-law rate 2 * min(E max |Xres|/sdres) / min sdres.

    Each block's law is conditioned on the other block (Schur complement,
    centered); the sd minimum runs over all coordinates of both residuals.
    """
    mc = mc or McConfig()
    res_a, res_b = residual_cov(spec, part)
    marg = spec.variances
    mins = []
    e_vals = []
    for res, idx, name in ((res_a, part.a_idx, "A"), (res_b, part.b_idx, "B")):
        diag = np.diag(res)
        bad = diag <= TOL_RESID * marg[idx]
        if bad.any():
            j = int(idx[int(np.argmax(bad))])
            raise ZeroResidualVariance(f"coordinate {j} has no variance left given the other block")
        mins.append(float(np.sqrt(diag.min())))
        res_spec = CovSpec.explicit(res)
        e_vals += _emax(res_spec, [(range(res.shape[0]), "abs_std")], mc)
    sd_floor = min(mins)
    return min(e_vals) / sd_floor * 2.0


def bound_baseline_min_eig(spec: CovSpec) -> float:
    """Smallest-eigenvalue baseline rate 2 (sqrt(2 log p) + 2) / sqrt(lam_min).

    Undefined on degenerate covariances: raises SingularCovariance instead of
    returning infinity.  A factor spec whose rank is below p by its shape
    alone (d columns plus its nonzero noise sds) raises before any eigensolve;
    any other factor spec gets lam_min from :func:`maxgap.cov.min_eigenvalue`,
    which never forms the p x p matrix.
    """
    if spec.gamma is not None:
        rank = spec.gamma.shape[1] + (0 if spec.noise is None else np.count_nonzero(spec.noise))
        if rank < spec.p:
            raise SingularCovariance(f"covariance rank is at most {rank}, below p = {spec.p}")
    lam = min_eigenvalue(spec)
    if lam <= TOL_SINGULAR * max(1.0, float(np.max(spec.variances))):
        raise SingularCovariance(f"smallest eigenvalue {lam:.3e} not positive")
    p = spec.p
    return (math.sqrt(2.0 * math.log(p)) + 2.0) * 2.0 / math.sqrt(lam)


def bound_single_max(spec: CovSpec, subset=None, mc: McConfig | None = None) -> float:
    """Concentration rate of a single maximum over the subset (default all)."""
    mc = mc or McConfig()
    subset = tuple(range(spec.p)) if subset is None else tuple(int(i) for i in subset)
    e, = _emax(spec, [(subset, "abs_std")], mc)
    sd_floor = float(spec.sds[list(subset)].min())
    return e / sd_floor * 2.0


def lower_bound_exchangeable(k: int, p: int) -> ExchangeableLower:
    """Symmetry lower bound k/p for an exchangeable overlap design.

    Valid when the overlap size k and ambient dimension p arise from two
    blocks of a common size m sharing k coordinates, i.e. p = 2m - k with
    1 <= k < m.  Also returns the constant 4k/(p + k) that the matching upper
    bound adds on top of its threshold term.
    """
    k, p = int(k), int(p)
    if k < 1 or p <= k or (p + k) % 2 != 0:
        raise BadGeometry(f"no integer m with p = 2m - k and 1 <= k < m for k={k}, p={p}")
    return ExchangeableLower(value=k / p, residual=4.0 * k / (p + k))


def _attempt(fn):
    try:
        return fn()
    except MaxgapError as err:
        return Inapplicable(getattr(err, "code", "error"), str(err))


def bound_report(spec: CovSpec, part: Partition, mc: McConfig | None = None,
                 delta_grid=None, which=ALL_BOUNDS,
                 overlap_k: int | None = None) -> BoundReport:
    """Evaluate the requested bounds once, downgrading failed hypotheses to Inapplicable.

    Caller errors raise before any fold or pass: BadConfig for a name outside
    ``ALL_BOUNDS``, n_mc below 1, a seed outside [0, 2^64) or a delta outside
    (0, 1), DimensionMismatch for a partition of another dimension.  The
    bounds share one memo per spec content, so no tile of Sigma is formed
    and no expected-max request streamed twice.  Order: the threshold
    profile, whose pass covers both full blocks; ``single_max``, one request
    for both blocks, so each spec content is streamed once; then the rest.
    """
    mc = mc or McConfig()
    if not set(which) <= set(ALL_BOUNDS):
        raise BadConfig(f"unknown bound in {which!r}; expected names from {ALL_BOUNDS}")
    if mc.n_mc < 1:
        raise BadConfig(f"n_mc must be positive, got {mc.n_mc}")
    chunks(mc.seed, mc.n_mc)  # checks the seed
    delta_grid = _delta_grid(delta_grid)
    part.check_dim(spec.p)
    blocks = (part.a_set, part.b_set)

    def single_max():
        # One pass for both blocks; each block's rate is then served from it.
        _emax(spec, [(s, "abs_std") for s in blocks], mc)
        return min(bound_single_max(spec, s, mc) for s in blocks)

    evaluators = {
        "corr_threshold": lambda: bound_corr_threshold(spec, part, delta_grid, mc),
        "single_max": single_max,
        "homogeneous": lambda: bound_homogeneous(spec, part, mc),
        "heterogeneous": lambda: bound_heterogeneous(spec, part, mc),
        "conditional": lambda: bound_conditional(spec, part, mc),
        "baseline": lambda: bound_baseline_min_eig(spec),
    }
    token = _REPORT.set({})
    try:
        rates = {name: _attempt(fn) if name in which else None
                 for name, fn in evaluators.items()}
    finally:
        _REPORT.reset(token)
    lower = None
    if overlap_k is not None:
        p_under = spec.p - int(overlap_k)
        lower = lower_bound_exchangeable(int(overlap_k), p_under)
    return BoundReport(**rates, lower_exchangeable=lower)
