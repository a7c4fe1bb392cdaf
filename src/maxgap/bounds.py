"""Anti-concentration bounds for the difference of two Gaussian block maxima.

Every bound here is exactly linear in the half-width eps: implementations
compute a rate and multiply by eps last, so doubling eps doubles the value
bit for bit.  Expected-max terms are Monte Carlo estimates streamed under a
shared seed (common random numbers), which makes the documented algebraic
relations between bounds exact rather than approximate.

Bounds deliberately report values above 1 unclipped; a value's usefulness at
a given eps is the caller's judgment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cov import (CovSpec, Partition, check_conditions, explicit_cov,
                  min_eigenvalue, residual_cov, rho_bar, TOL_CORR)
from .errors import (BadConfig, BadGeometry, ConditionFails,
                     HeterogeneousVariances, MaxgapError, NoAdmissibleDelta,
                     PerfectCrossCorrelation, SingularCovariance,
                     ZeroResidualVariance)
from .levy import DEFAULT_MC, check_epsilon, expected_max_many

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
    """Marker for a bound whose hypotheses fail; reason is machine readable."""

    reason: str


@dataclass(frozen=True)
class DeltaTerm:
    """One admissible threshold: bound contribution is rate * eps + 2 * omega."""

    delta: float
    orientation: str
    rate: float
    omega: float
    d_delta: float


@dataclass(frozen=True)
class CorrThresholdBound:
    value: float
    best_delta: float
    omega_delta: float
    d_delta: float
    orientation: str
    profile: tuple[DeltaTerm, ...]


@dataclass(frozen=True)
class ExchangeableLower:
    """Lower bound k/p plus the additive constant 4k/(p+k) of the upper bound."""

    value: float
    residual: float


@dataclass(frozen=True)
class BoundReport:
    epsilon: float
    homogeneous: float | Inapplicable | None
    corr_threshold: CorrThresholdBound | Inapplicable | None
    heterogeneous: float | Inapplicable | None
    conditional: float | Inapplicable | None
    baseline_min_eig: float | Inapplicable | None
    single_max_a: float | Inapplicable | None
    single_max_b: float | Inapplicable | None
    lower_exchangeable: ExchangeableLower | None
    mc_meta: dict

    def to_json_dict(self) -> dict:
        def enc(v):
            if v is None:
                return None
            if isinstance(v, Inapplicable):
                return {"inapplicable": v.reason}
            if isinstance(v, CorrThresholdBound):
                return {"value": v.value, "best_delta": v.best_delta,
                        "omega_delta": v.omega_delta, "d_delta": v.d_delta}
            if isinstance(v, ExchangeableLower):
                return {"value": v.value, "residual": v.residual}
            return v

        return {
            "epsilon": self.epsilon,
            "homogeneous": enc(self.homogeneous),
            "corr_threshold": enc(self.corr_threshold),
            "heterogeneous": enc(self.heterogeneous),
            "conditional": enc(self.conditional),
            "baseline_min_eig": enc(self.baseline_min_eig),
            "single_max_a": enc(self.single_max_a),
            "single_max_b": enc(self.single_max_b),
            "lower_exchangeable": enc(self.lower_exchangeable),
            "mc_meta": dict(self.mc_meta),
        }


def _common_sd(spec: CovSpec) -> float:
    sds = spec.sds
    if float(sds.max() - sds.min()) > TOL_VAR_SPREAD * float(sds.max()):
        raise HeterogeneousVariances(
            f"component sds spread over [{sds.min():.6g}, {sds.max():.6g}]")
    return float(sds[0])


def bound_homogeneous(spec: CovSpec, part: Partition, epsilon: float,
                      mc: McConfig | None = None) -> float:
    """Equal-variance bound from the largest cross correlation.

    min(E max_A |X - mu|/sd, E max_B ...) * 7 eps / ((1 - rho_bar) * sd).
    """
    epsilon = check_epsilon(epsilon)
    mc = mc or McConfig()
    sigma = _common_sd(spec)
    rbar = rho_bar(spec, part)
    if rbar >= 1.0 - TOL_CORR:
        raise PerfectCrossCorrelation(f"largest cross correlation {rbar} too close to 1")
    (e_a, _), (e_b, _) = expected_max_many(
        spec, [part.a_set, part.b_set], mc.n_mc, mc.seed, "abs_std")
    return min(e_a, e_b) * epsilon / ((1.0 - rbar) * sigma) * 7.0


def _cross_corr(spec: CovSpec) -> np.ndarray:
    sig = explicit_cov(spec)
    sd = np.sqrt(np.diag(sig))
    return sig / np.outer(sd, sd)


def default_delta_grid(n: int = 50) -> np.ndarray:
    return np.geomspace(1e-3, 1.0 - 1e-3, n)


def corr_threshold_profile(spec: CovSpec, part: Partition, delta_grid=None,
                           mc: McConfig | None = None) -> list[DeltaTerm]:
    """Admissible threshold terms for both orientations of the partition.

    For orientation "AB", N(delta) collects the coordinates of A whose best
    correlation into B reaches 1 - delta (exact comparison); a threshold is
    admissible while N(delta) is not all of A.  The term's first part decays
    like 1/delta, the second is the crossover penalty 2 * omega with
    omega = exp(-(positive part of D)^2 / (8 sd^2)) and D the gap between the
    expected plain maxima over A minus N and over N.
    """
    mc = mc or McConfig()
    sigma = _common_sd(spec)
    grid = default_delta_grid() if delta_grid is None else np.asarray(delta_grid, dtype=float)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise BadConfig("delta grid must lie strictly inside (0, 1)")
    corr = _cross_corr(spec)
    plans = []  # (delta, orientation, rest, other, n_set)
    for orientation, own, other in (("AB", part.a_idx, part.b_idx),
                                    ("BA", part.b_idx, part.a_idx)):
        best = corr[np.ix_(own, other)].max(axis=1)
        for delta in grid:
            captured = best >= 1.0 - float(delta)
            if captured.all():
                continue
            rest = tuple(int(i) for i in own[~captured])
            n_set = tuple(int(i) for i in own[captured])
            plans.append((float(delta), orientation, rest, tuple(int(i) for i in other), n_set))
    if not plans:
        raise NoAdmissibleDelta("every threshold in the grid captures a full block")

    std_subsets: list[tuple[int, ...]] = []
    signed_subsets: list[tuple[int, ...]] = []
    std_pos: dict[tuple[int, ...], int] = {}
    signed_pos: dict[tuple[int, ...], int] = {}

    def want(table: dict, order: list, s: tuple[int, ...]) -> None:
        if s and s not in table:
            table[s] = len(order)
            order.append(s)

    for _, _, rest, other, n_set in plans:
        want(std_pos, std_subsets, rest)
        want(std_pos, std_subsets, other)
        if n_set:
            want(signed_pos, signed_subsets, rest)
            want(signed_pos, signed_subsets, n_set)
    std_vals = expected_max_many(spec, std_subsets, mc.n_mc, mc.seed, "abs_std")
    signed_vals = (expected_max_many(spec, signed_subsets, mc.n_mc, mc.seed, "signed")
                   if signed_subsets else [])

    terms = []
    for delta, orientation, rest, other, n_set in plans:
        e_rest = std_vals[std_pos[rest]][0]
        e_other = std_vals[std_pos[other]][0]
        rate = min(e_rest, e_other) * 7.0 / (delta * sigma)
        if n_set:
            d = signed_vals[signed_pos[rest]][0] - signed_vals[signed_pos[n_set]][0]
            omega = math.exp(-max(d, 0.0) ** 2 / (8.0 * sigma * sigma))
        else:
            d, omega = float("nan"), 0.0
        terms.append(DeltaTerm(delta=delta, orientation=orientation, rate=rate,
                               omega=omega, d_delta=d))
    return terms


def bound_corr_threshold(spec: CovSpec, part: Partition, epsilon: float,
                         delta_grid=None, mc: McConfig | None = None) -> CorrThresholdBound:
    """Best threshold bound over the delta grid and both orientations."""
    epsilon = check_epsilon(epsilon)
    terms = corr_threshold_profile(spec, part, delta_grid, mc)
    best, best_val = None, math.inf
    for t in terms:
        val = t.rate * epsilon + 2.0 * t.omega
        if val < best_val:
            best, best_val = t, val
    return CorrThresholdBound(value=best_val, best_delta=best.delta,
                              omega_delta=best.omega, d_delta=best.d_delta,
                              orientation=best.orientation, profile=tuple(terms))


def bound_heterogeneous(spec: CovSpec, part: Partition, epsilon: float,
                        mc: McConfig | None = None) -> float:
    """Separation-condition bound 2 * E(max over S of |X - mu|/sd) * eps / C.

    S is the block opposite the direction that holds; when both directions
    hold the smaller of the two values is returned.
    """
    epsilon = check_epsilon(epsilon)
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
    vals = expected_max_many(spec, [s for s, _ in candidates], mc.n_mc, mc.seed, "abs_std")
    return min(e * epsilon / c * 2.0 for (e, _), (_, c) in zip(vals, candidates))


def bound_conditional(spec: CovSpec, part: Partition, epsilon: float,
                      mc: McConfig | None = None) -> float:
    """Residual-law bound 2 * min(E max |Xres|/sdres) * eps / min sdres.

    Each block's law is conditioned on the other block (Schur complement,
    centered); the sd minimum runs over all coordinates of both residuals.
    """
    epsilon = check_epsilon(epsilon)
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
        (e, _), = expected_max_many(res_spec, [range(res.shape[0])], mc.n_mc, mc.seed, "abs_std")
        e_vals.append(e)
    sd_floor = min(mins)
    return min(e_vals) * epsilon / sd_floor * 2.0


def bound_baseline_min_eig(spec: CovSpec, epsilon: float) -> float:
    """Smallest-eigenvalue baseline 2 eps (sqrt(2 log p) + 2) / sqrt(lam_min).

    Undefined on degenerate covariances: raises SingularCovariance instead of
    returning infinity.
    """
    epsilon = check_epsilon(epsilon)
    sig = explicit_cov(spec)
    lam = min_eigenvalue(sig)
    if lam <= TOL_SINGULAR * max(1.0, float(np.max(np.diag(sig)))):
        raise SingularCovariance(f"smallest eigenvalue {lam:.3e} not positive")
    p = spec.p
    return epsilon / math.sqrt(lam) * (math.sqrt(2.0 * math.log(p)) + 2.0) * 2.0


def bound_single_max(spec: CovSpec, epsilon: float, subset=None,
                     mc: McConfig | None = None) -> float:
    """Concentration bound for a single maximum over the subset (default all)."""
    epsilon = check_epsilon(epsilon)
    mc = mc or McConfig()
    subset = tuple(range(spec.p)) if subset is None else tuple(int(i) for i in subset)
    (e, _), = expected_max_many(spec, [subset], mc.n_mc, mc.seed, "abs_std")
    sd_floor = float(spec.sds[list(subset)].min())
    return e * epsilon / sd_floor * 2.0


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


def bound_report(spec: CovSpec, part: Partition, epsilon: float,
                 mc: McConfig | None = None, delta_grid=None,
                 which=ALL_BOUNDS, overlap_k: int | None = None) -> BoundReport:
    """Evaluate the requested bounds, downgrading failures to Inapplicable."""
    epsilon = check_epsilon(epsilon)
    mc = mc or McConfig()

    def attempt(name, fn):
        if name not in which:
            return None
        try:
            return fn()
        except MaxgapError as err:
            return Inapplicable(getattr(err, "code", "error"))

    homog = attempt("homogeneous", lambda: bound_homogeneous(spec, part, epsilon, mc))
    thresh = attempt("corr_threshold",
                     lambda: bound_corr_threshold(spec, part, epsilon, delta_grid, mc))
    heterog = attempt("heterogeneous", lambda: bound_heterogeneous(spec, part, epsilon, mc))
    cond = attempt("conditional", lambda: bound_conditional(spec, part, epsilon, mc))
    base = attempt("baseline", lambda: bound_baseline_min_eig(spec, epsilon))
    sm_a = attempt("single_max", lambda: bound_single_max(spec, epsilon, part.a_set, mc))
    sm_b = attempt("single_max", lambda: bound_single_max(spec, epsilon, part.b_set, mc))
    lower = None
    if overlap_k is not None:
        p_under = spec.p - int(overlap_k)
        lower = lower_bound_exchangeable(int(overlap_k), p_under)
    return BoundReport(epsilon=epsilon, homogeneous=homog, corr_threshold=thresh,
                       heterogeneous=heterog, conditional=cond,
                       baseline_min_eig=base, single_max_a=sm_a, single_max_b=sm_b,
                       lower_exchangeable=lower,
                       mc_meta={"n_mc": mc.n_mc, "seed": mc.seed})
