"""Gaussian covariance specifications, partitions, and structural diagnostics.

A covariance model is either a factor map (p x d matrix G, so Sigma = G G^T)
or an explicit p x p matrix, plus a mean vector.  Degenerate (rank-deficient)
covariances are first-class citizens here; only zero-variance coordinates are
rejected.  The diagnostics in this module (cross-correlation maximum,
separation conditions, violation statistics, Schur-complement residuals) feed
the bound evaluators in :mod:`maxgap.bounds`.

All functions are pure: they never mutate their inputs and hold no state.
The one cache is :attr:`CovSpec.root`: each spec computes its square-root
factor (an eigendecomposition for explicit covariances) at most once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadConfig, DimensionMismatch, NotPSD, SingularBlock, ZeroVariance

# Tolerances are part of the numerical contract; tests pin behavior at these
# exact values, so change them only together with the test suite.
TOL_SYM = 1e-10          # max |S_ij - S_ji| allowed in explicit input
TOL_PSD = 1e-8           # eigenvalue floor is -TOL_PSD * max(1, max diag)
TOL_EIG_CLIP = 1e-10     # eigenvalues below TOL_EIG_CLIP * max(1, lam_max) are zero
TOL_CORR = 1e-9          # correlations >= 1 - TOL_CORR count as perfect
TOL_COND = 1e-9          # slack in the within-block normalization test
RCOND_MIN = 1e-12        # minimum relative condition number for block inversion


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CovSpec:
    """Immutable Gaussian model: covariance (factor or explicit) plus mean.

    Build instances with :meth:`factor` or :meth:`explicit`.
    """

    gamma: np.ndarray | None
    sigma: np.ndarray | None
    mu: np.ndarray

    @classmethod
    def factor(cls, gamma: np.ndarray, mu: np.ndarray | None = None) -> "CovSpec":
        """Model X = gamma @ Z + mu with Z standard normal of length d."""
        gamma = _readonly(np.atleast_2d(gamma))
        if gamma.ndim != 2 or gamma.shape[0] < 1 or gamma.shape[1] < 1:
            raise DimensionMismatch(f"factor matrix must be p x d, got {gamma.shape}")
        if not np.all(np.isfinite(gamma)):
            raise BadConfig("factor matrix has non-finite entries")
        rowsq = np.einsum("ij,ij->i", gamma, gamma)
        for i in np.flatnonzero(rowsq <= 0.0):
            raise ZeroVariance(int(i))
        return cls(gamma=gamma, sigma=None, mu=_check_mu(mu, gamma.shape[0]))

    @classmethod
    def explicit(cls, sigma: np.ndarray, mu: np.ndarray | None = None) -> "CovSpec":
        """Model with an explicit covariance matrix (may be rank deficient)."""
        sigma = _readonly(np.atleast_2d(sigma))
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] < 1:
            raise DimensionMismatch(f"covariance must be square, got {sigma.shape}")
        if not np.all(np.isfinite(sigma)):
            raise BadConfig("covariance has non-finite entries")
        if np.max(np.abs(sigma - sigma.T)) > TOL_SYM:
            raise BadConfig("covariance is not symmetric within 1e-10")
        diag = np.diag(sigma)
        for i in np.flatnonzero(diag <= 0.0):
            raise ZeroVariance(int(i))
        lam_min = float(np.linalg.eigvalsh(sigma)[0])
        if lam_min < -TOL_PSD * max(1.0, float(diag.max())):
            raise NotPSD(f"smallest eigenvalue {lam_min:.3e} below PSD tolerance")
        return cls(gamma=None, sigma=sigma, mu=_check_mu(mu, sigma.shape[0]))

    @property
    def form(self) -> str:
        return "factor" if self.gamma is not None else "explicit"

    @property
    def p(self) -> int:
        m = self.gamma if self.gamma is not None else self.sigma
        return int(m.shape[0])

    @property
    def variances(self) -> np.ndarray:
        if self.gamma is not None:
            return np.einsum("ij,ij->i", self.gamma, self.gamma)
        return np.diag(self.sigma).copy()

    @property
    def sds(self) -> np.ndarray:
        return np.sqrt(self.variances)

    @cached_property
    def root(self) -> np.ndarray:
        """Read-only p x r map L with L L^T the covariance, computed once per spec.

        The factor itself for factor specs, else :func:`sqrt_factor` of sigma.
        """
        if self.gamma is not None:
            return self.gamma
        ell = sqrt_factor(self.sigma)
        ell.flags.writeable = False
        return ell

    def to_json_dict(self) -> dict:
        out: dict = {"form": self.form, "mu": self.mu.tolist()}
        if self.gamma is not None:
            out["gamma"] = self.gamma.tolist()
        else:
            out["sigma"] = self.sigma.tolist()
        return out

    def content_hash(self) -> str:
        """Stable hex digest of the model content.

        sha256 over the form, then each array's shape and little-endian
        float64 bytes (gamma or sigma, then mu), so equal content hashes
        equal.
        """
        h = hashlib.sha256(self.form.encode())
        for arr in (self.gamma if self.gamma is not None else self.sigma, self.mu):
            h.update(repr(arr.shape).encode())
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        return h.hexdigest()


def _check_mu(mu: np.ndarray | None, p: int) -> np.ndarray:
    if mu is None:
        return _readonly(np.zeros(p))
    mu = _readonly(np.asarray(mu, dtype=float).reshape(-1))
    if mu.shape != (p,):
        raise DimensionMismatch(f"mean has length {mu.shape[0]}, expected {p}")
    if not np.all(np.isfinite(mu)):
        raise BadConfig("mean has non-finite entries")
    return mu


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty index sets a_set, b_set covering range(p).

    Overlapping designs are encoded by duplicating coordinates in the
    covariance so the partition itself stays disjoint.
    """

    a_set: tuple[int, ...]
    b_set: tuple[int, ...]
    p: int

    def __post_init__(self):
        a = tuple(int(i) for i in self.a_set)
        b = tuple(int(i) for i in self.b_set)
        object.__setattr__(self, "a_set", a)
        object.__setattr__(self, "b_set", b)
        if not a or not b:
            raise BadConfig("both index sets must be nonempty")
        sa, sb = set(a), set(b)
        if len(sa) != len(a) or len(sb) != len(b):
            raise BadConfig("index sets contain repeats")
        if sa & sb:
            raise BadConfig("index sets must be disjoint")
        if sa | sb != set(range(self.p)):
            raise BadConfig(f"index sets must cover all {self.p} coordinates")

    @property
    def a_idx(self) -> np.ndarray:
        return np.asarray(self.a_set, dtype=np.intp)

    @property
    def b_idx(self) -> np.ndarray:
        return np.asarray(self.b_set, dtype=np.intp)

    def to_json_dict(self) -> dict:
        return {"a": list(self.a_set), "b": list(self.b_set), "p": self.p}

    @classmethod
    def split(cls, p: int, k: int) -> "Partition":
        """First k coordinates against the rest."""
        if not 0 < k < p:
            raise BadConfig(f"split point {k} not inside (0, {p})")
        return cls(tuple(range(k)), tuple(range(k, p)), p)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the two-sided separation condition check.

    ``c_a`` is the margin with the second block normalized (bound set S = B),
    ``c_b`` the mirror image (S = A).  ``c_ab`` is the larger margin among the
    directions that hold, NaN if neither does.  ``s_set`` lists which block
    plays S for each direction that holds, in order of preference.
    """

    cond_a_holds: bool
    cond_b_holds: bool
    c_a: float
    c_b: float
    c_ab: float
    s_set: tuple[str, ...]
    rho_bar: float
    has_perfect_cross_corr: bool


@dataclass(frozen=True)
class ViolationStats:
    """How badly each side breaks the separation condition.

    ``v_a`` collects the coordinates of A whose margin against the other
    block is non-positive, ``nu_a`` their fraction of A, and ``m_a`` the mean
    margin over those violators (NaN when there are none).
    """

    v_a: tuple[int, ...]
    v_b: tuple[int, ...]
    nu_a: float
    nu_b: float
    m_a: float
    m_b: float


def explicit_cov(spec: CovSpec) -> np.ndarray:
    """Materialize the covariance matrix (symmetrized exactly)."""
    if spec.sigma is not None:
        sig = spec.sigma.copy()
    else:
        sig = spec.gamma @ spec.gamma.T
        sig = (sig + sig.T) * 0.5
    diag = np.diag(sig)
    for i in np.flatnonzero(diag <= 0.0):
        raise ZeroVariance(int(i))
    return sig


def cross_corr(sig: np.ndarray, part: Partition) -> np.ndarray:
    """Correlations between the coordinates of A (rows) and of B (columns)."""
    sd = np.sqrt(np.diag(sig))
    return sig[np.ix_(part.a_idx, part.b_idx)] / np.outer(sd[part.a_idx], sd[part.b_idx])


def rho_bar(spec: CovSpec, part: Partition) -> float:
    """Largest cross-block correlation, clamped to [-1, 1]."""
    _check_part(spec, part)
    return float(np.clip(np.max(cross_corr(explicit_cov(spec), part)), -1.0, 1.0))


def check_conditions(spec: CovSpec, part: Partition) -> ConditionReport:
    """Evaluate both directions of the separation condition.

    Direction A requires the second block to be normalized
    (max over j, j' in B of sigma_jj' / var_j at most 1) and every cross
    margin sigma_j - sigma_jj'/sigma_j for j in B, i in A to be strictly
    positive; the margin minimum is ``c_a``.  Direction B mirrors the roles.
    """
    _check_part(spec, part)
    sig = explicit_cov(spec)
    sd = np.sqrt(np.diag(sig))
    a, b = part.a_idx, part.b_idx

    def direction(inner: np.ndarray, outer: np.ndarray) -> tuple[bool, float]:
        # inner plays the normalized block; margin is against outer.
        norm_ok = np.max(sig[np.ix_(inner, inner)] / sd[inner][:, None] ** 2) <= 1.0 + TOL_COND
        margins = sd[inner][:, None] - sig[np.ix_(inner, outer)] / sd[inner][:, None]
        c = float(np.min(margins))
        return bool(norm_ok and c > 0.0), c

    cond_a, c_a = direction(b, a)
    cond_b, c_b = direction(a, b)
    if cond_a and cond_b:
        c_ab = max(c_a, c_b)
        s_set: tuple[str, ...] = ("B", "A") if c_a >= c_b else ("A", "B")
    elif cond_a:
        c_ab, s_set = c_a, ("B",)
    elif cond_b:
        c_ab, s_set = c_b, ("A",)
    else:
        c_ab, s_set = float("nan"), ()
    cross = cross_corr(sig, part)
    rbar = float(np.clip(np.max(cross), -1.0, 1.0))
    perfect = float(np.max(np.abs(cross))) >= 1.0 - TOL_CORR
    return ConditionReport(cond_a, cond_b, c_a, c_b, c_ab, s_set, rbar, perfect)


def violation_stats(spec: CovSpec, part: Partition) -> ViolationStats:
    """Per-coordinate margins below zero, per side."""
    _check_part(spec, part)
    sig = explicit_cov(spec)
    sd = np.sqrt(np.diag(sig))

    def side(own: np.ndarray, other: np.ndarray) -> tuple[tuple[int, ...], float, float]:
        margins = sd[own] - np.max(sig[np.ix_(own, other)], axis=1) / sd[own]
        mask = margins <= 0.0
        viol = tuple(int(i) for i in own[mask])
        nu = float(mask.mean())
        m = float(margins[mask].mean()) if mask.any() else float("nan")
        return viol, nu, m

    v_a, nu_a, m_a = side(part.a_idx, part.b_idx)
    v_b, nu_b, m_b = side(part.b_idx, part.a_idx)
    return ViolationStats(v_a, v_b, nu_a, nu_b, m_a, m_b)


def residual_cov(spec: CovSpec, part: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Schur complements of each block given the other.

    Returns (residual of A given B, residual of B given A).  The conditioning
    block is inverted exactly; a relative condition number below 1e-12 raises
    SingularBlock rather than falling back to a pseudo-inverse.
    """
    _check_part(spec, part)
    sig = explicit_cov(spec)
    a, b = part.a_idx, part.b_idx

    def schur(keep: np.ndarray, cond_on: np.ndarray, which: str) -> np.ndarray:
        block = sig[np.ix_(cond_on, cond_on)]
        w = np.linalg.eigvalsh(block)
        wmax = float(np.max(np.abs(w)))
        rcond = float(np.min(np.abs(w))) / wmax if wmax > 0 else 0.0
        if rcond < RCOND_MIN:
            raise SingularBlock(which, rcond)
        cross = sig[np.ix_(cond_on, keep)]
        res = sig[np.ix_(keep, keep)] - cross.T @ np.linalg.solve(block, cross)
        return (res + res.T) * 0.5

    return schur(a, b, "B"), schur(b, a, "A")


def sqrt_factor(sigma: np.ndarray) -> np.ndarray:
    """Eigenvalue square root L with L L^T reconstructing sigma.

    Eigenvalues below 1e-10 * max(1, lam_max) are treated as exact zeros and
    their columns dropped, so L has shape p x r with r the numerical rank.
    """
    sigma = np.asarray(sigma, dtype=float)
    w, v = np.linalg.eigh(sigma)
    diag_max = float(np.max(np.diag(sigma))) if sigma.size else 0.0
    if w[0] < -TOL_PSD * diag_max:
        raise NotPSD(f"smallest eigenvalue {float(w[0]):.3e} below PSD tolerance")
    keep = w > TOL_EIG_CLIP * max(1.0, float(w[-1]))
    return v[:, keep] * np.sqrt(w[keep])


def min_eigenvalue(sigma: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(np.asarray(sigma, dtype=float))[0])


def _check_part(spec: CovSpec, part: Partition) -> None:
    if part.p != spec.p:
        raise DimensionMismatch(f"partition is over {part.p} coordinates, model has {spec.p}")
