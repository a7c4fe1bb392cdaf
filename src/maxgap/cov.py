"""Gaussian covariance specifications, partitions, and structural diagnostics.

A covariance model is either a factor map (p x d matrix G, so Sigma = G G^T,
plus diag(noise^2) when the spec carries a noise vector) or an explicit p x p
matrix, plus a mean vector.  Degenerate (rank-deficient) covariances are
first-class citizens here; only zero-variance coordinates are rejected.  The
diagnostics in this module (cross-correlation maximum, separation
conditions and their violators, Schur-complement residuals) feed the bound
evaluators in :mod:`maxgap.bounds`.

Every diagnostic reads Sigma through :func:`cov_block`, one block at a time.
A factor spec never forms its p x p matrix there: each block is filled from
fixed ``COV_TILE``-row tiles of the factor, the same tiles that assemble
:attr:`CovSpec.cov`, so a block equals the same entries of that matrix bit
for bit.  Of the diagnostics and bounds, only the smallest-eigenvalue
baseline forms the matrix of a factor spec.  Each covariance quantity has
one definition: the diagonal of Sigma is :attr:`CovSpec.variances` for
every spec, so the sampler, the expected-max engine, the bounds and the
geometry share one sd per coordinate, and Sigma is stored exactly
symmetric, so Sigma[B, A] is the transpose of Sigma[A, B].

All functions are pure: they never mutate their inputs and hold no state.
The caches, all read-only, are :attr:`CovSpec.variances`,
:attr:`CovSpec.cov` (the p x p matrix), :attr:`CovSpec.root` (its
square-root factor) and :attr:`CovSpec.content_hash`; each spec fills each
once.  An explicit spec is factored at construction: :func:`sqrt_factor`,
whose one eigendecomposition both validates and factors the matrix, holds
the PSD floor, so a matrix that constructs always samples.
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
COV_TILE = 256           # factor rows per Sigma tile; fixes the bits of every block


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CovSpec:
    """Immutable Gaussian model: covariance (factor or explicit) plus mean.

    Build instances with :meth:`factor` or :meth:`explicit`.  A factor spec
    may carry ``noise``, the sds of independent per-coordinate noise, so that
    Sigma = gamma gamma^T + diag(noise^2).
    """

    gamma: np.ndarray | None
    sigma: np.ndarray | None
    mu: np.ndarray
    noise: np.ndarray | None = None

    @classmethod
    def factor(cls, gamma: np.ndarray, mu: np.ndarray | None = None,
               noise: np.ndarray | None = None) -> "CovSpec":
        """Model X = gamma @ Z + noise * W + mu, Z and W standard normal of lengths d and p."""
        gamma = _readonly(np.atleast_2d(gamma))
        if gamma.ndim != 2 or gamma.shape[0] < 1 or gamma.shape[1] < 1:
            raise DimensionMismatch(f"factor matrix must be p x d, got {gamma.shape}")
        if not np.all(np.isfinite(gamma)):
            raise BadConfig("factor matrix has non-finite entries")
        p = gamma.shape[0]
        if noise is not None:
            noise = _readonly(np.asarray(noise, dtype=float).reshape(-1))
            if noise.shape != (p,):
                raise DimensionMismatch(f"noise has length {noise.shape[0]}, expected {p}")
            if not np.all(np.isfinite(noise) & (noise >= 0.0)):
                raise BadConfig("noise sds must be finite and nonnegative")
        spec = cls(gamma=gamma, sigma=None, mu=_check_mu(mu, p), noise=noise)
        for i in np.flatnonzero(spec.variances <= 0.0):
            raise ZeroVariance(int(i))
        return spec

    @classmethod
    def explicit(cls, sigma: np.ndarray, mu: np.ndarray | None = None) -> "CovSpec":
        """Model with an explicit covariance matrix (may be rank deficient).

        The matrix must be symmetric within ``TOL_SYM``; its symmetrization
        (sigma + sigma^T) / 2 is stored, which leaves an exactly symmetric
        matrix unchanged bit for bit.  Factored here: :func:`sqrt_factor`
        raises NotPSD for an indefinite matrix.
        """
        sigma = _readonly(np.atleast_2d(sigma))
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] < 1:
            raise DimensionMismatch(f"covariance must be square, got {sigma.shape}")
        if not np.all(np.isfinite(sigma)):
            raise BadConfig("covariance has non-finite entries")
        if np.max(np.abs(sigma - sigma.T)) > TOL_SYM:
            raise BadConfig("covariance is not symmetric within 1e-10")
        sigma = (sigma + sigma.T) * 0.5
        sigma.flags.writeable = False
        for i in np.flatnonzero(np.diag(sigma) <= 0.0):
            raise ZeroVariance(int(i))
        spec = cls(gamma=None, sigma=sigma, mu=_check_mu(mu, sigma.shape[0]))
        spec.root  # factoring is the PSD check
        return spec

    @property
    def form(self) -> str:
        return "factor" if self.gamma is not None else "explicit"

    @property
    def p(self) -> int:
        m = self.gamma if self.gamma is not None else self.sigma
        return int(m.shape[0])

    @cached_property
    def variances(self) -> np.ndarray:
        """Read-only diag(Sigma), computed once per spec: the one source of every sd."""
        if self.gamma is None:
            return _readonly(np.diag(self.sigma))
        rowsq = np.einsum("ij,ij->i", self.gamma, self.gamma)
        return _readonly(rowsq if self.noise is None else rowsq + self.noise ** 2)

    @property
    def sds(self) -> np.ndarray:
        return np.sqrt(self.variances)

    @cached_property
    def cov(self) -> np.ndarray:
        """Read-only covariance matrix: sigma, or every :func:`cov_block` tile of a factor."""
        if self.sigma is not None:
            return self.sigma
        idx = np.arange(self.p)
        sig = cov_block(self, idx, idx)
        sig.flags.writeable = False
        return sig

    @cached_property
    def root(self) -> np.ndarray:
        """Read-only p x r map L, computed once per spec.

        The factor itself for factor specs, so the covariance is L L^T plus
        diag(noise^2) when the spec carries noise; else :func:`sqrt_factor`
        of sigma, with L L^T the covariance.
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
            if self.noise is not None:
                out["noise"] = self.noise.tolist()
        else:
            out["sigma"] = self.sigma.tolist()
        return out

    @cached_property
    def content_hash(self) -> str:
        """Stable hex digest of the model content, computed once per spec.

        sha256 over the form, then each array's shape and little-endian
        float64 bytes (gamma, then noise when present, or sigma; then mu),
        so equal content hashes equal.
        """
        h = hashlib.sha256(self.form.encode())
        for arr in (self.gamma, self.noise, self.sigma, self.mu):
            if arr is not None:
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

    @property
    def blocks(self) -> tuple[slice | np.ndarray, slice | np.ndarray]:
        """Column selectors of A and B for block maxima.

        A block whose indices form a contiguous range is a slice, so
        ``x[:, sel]`` is a view rather than a copy; any other block is its
        index array.  Either selects the same columns, and a maximum does not
        depend on their order.
        """
        def select(block: tuple[int, ...]) -> slice | np.ndarray:
            lo, hi = min(block), max(block) + 1
            return slice(lo, hi) if hi - lo == len(block) else np.asarray(block, dtype=np.intp)

        return select(self.a_set), select(self.b_set)

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

    The violators come from the same per-coordinate margins: ``v_a`` collects
    the coordinates of A whose margin against B is non-positive, ``nu_a``
    their fraction of A, and ``m_a`` the mean margin over those violators
    (NaN when there are none); ``v_b``, ``nu_b`` and ``m_b`` mirror them.
    """

    cond_a_holds: bool
    cond_b_holds: bool
    c_a: float
    c_b: float
    c_ab: float
    s_set: tuple[str, ...]
    rho_bar: float
    has_perfect_cross_corr: bool
    v_a: tuple[int, ...]
    v_b: tuple[int, ...]
    nu_a: float
    nu_b: float
    m_a: float
    m_b: float


def cov_block(spec: CovSpec, rows, cols) -> np.ndarray:
    """New array Sigma[rows][:, cols], equal bit for bit to ``spec.cov[np.ix_(rows, cols)]``.

    An explicit spec slices sigma.  A factor spec forms no p x p matrix: the
    block is filled from fixed ``COV_TILE`` x ``COV_TILE`` tiles of Sigma.
    With gamma_i the rows [i * COV_TILE, (i + 1) * COV_TILE) of gamma, tile
    (i, j) with i <= j is computed once per block as gamma_i gamma_j^T; a
    diagonal tile is symmetrized exactly and its diagonal is overwritten by
    the rows' :attr:`CovSpec.variances`, and tile (j, i) is the transpose of
    tile (i, j).  :attr:`CovSpec.cov` is assembled from the same tiles, so
    every block reads the same bits, Sigma is exactly symmetric, and its
    diagonal is ``spec.variances`` bit for bit.
    """
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    cols = np.asarray(cols, dtype=np.intp).reshape(-1)
    if spec.sigma is not None:
        return spec.sigma[np.ix_(rows, cols)]
    out = np.empty((rows.size, cols.size))
    row_tiles, col_tiles = _by_tile(rows), _by_tile(cols)
    for i, j in sorted({(min(i, j), max(i, j)) for i in row_tiles for j in col_tiles}):
        tile = _tile(spec, i, j)
        placements = [(i, j, tile)] if i == j else [(i, j, tile), (j, i, tile.T)]
        for ti, tj, t in placements:
            if ti in row_tiles and tj in col_tiles:
                (r_pos, r_off), (c_pos, c_off) = row_tiles[ti], col_tiles[tj]
                out[np.ix_(r_pos, c_pos)] = t[np.ix_(r_off, c_off)]
    return out


def _by_tile(idx: np.ndarray) -> dict:
    # tile -> (positions in idx of its indices, their offsets within the tile).
    tile = idx // COV_TILE
    out = {}
    for t in np.unique(tile):
        pos = np.flatnonzero(tile == t)
        out[int(t)] = (pos, idx[pos] - int(t) * COV_TILE)
    return out


def _tile(spec: CovSpec, i: int, j: int) -> np.ndarray:
    """Tile (i, j), i <= j, of a factor spec's Sigma."""
    rows_i = slice(i * COV_TILE, (i + 1) * COV_TILE)
    g_i = spec.gamma[rows_i]
    if i != j:
        return g_i @ spec.gamma[j * COV_TILE:(j + 1) * COV_TILE].T
    t = g_i @ g_i.T
    t = (t + t.T) * 0.5
    t[np.diag_indices_from(t)] = spec.variances[rows_i]
    return t


def cross_corr(spec: CovSpec, part: Partition) -> np.ndarray:
    """Correlations between the coordinates of A (rows) and of B (columns)."""
    _check_part(spec, part)
    a, b = part.a_idx, part.b_idx
    block = cov_block(spec, a, b)
    return _corr(block, spec.sds, a, b, out=block)


def _corr(block: np.ndarray, sd: np.ndarray, a: np.ndarray, b: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    # Sigma[A, B] scaled to correlations, sd holding every coordinate's sd.
    return np.divide(block, np.outer(sd[a], sd[b]), out=out)


def _clamped_max(cross: np.ndarray) -> float:
    return float(np.clip(np.max(cross), -1.0, 1.0))


def rho_bar(spec: CovSpec, part: Partition) -> float:
    """Largest cross-block correlation, clamped to [-1, 1]."""
    return _clamped_max(cross_corr(spec, part))


def _row_margins(sd: np.ndarray, block: np.ndarray) -> np.ndarray:
    # Margin sd_i - max_j sigma_ij / sd_i of each row i of block, sd holding the
    # rows' sds.  Rounding is monotone, so it equals the minimum over j of
    # sd_i - sigma_ij / sd_i bit for bit.
    return sd - np.max(block, axis=1) / sd


def check_conditions(spec: CovSpec, part: Partition) -> ConditionReport:
    """Evaluate both directions of the separation condition.

    Direction A requires the second block to be normalized
    (max over j, j' in B of sigma_jj' / var_j at most 1) and every cross
    margin sigma_j - sigma_jj'/sigma_j for j in B, i in A to be strictly
    positive; the margin minimum is ``c_a``.  Direction B mirrors the roles.
    The same row margins give each side's violators.  Each block of Sigma
    is read once; Sigma[B, A] is the transpose of Sigma[A, B].
    """
    _check_part(spec, part)
    a, b = part.a_idx, part.b_idx
    ab = cov_block(spec, a, b)
    sd = spec.sds
    cross = _corr(ab, sd, a, b)

    def direction(inner: np.ndarray, margin_block: np.ndarray):
        # inner plays the normalized block; margin_block is Sigma[inner, outer].
        # Whether the direction holds, its margin, and inner's violators, their
        # fraction of inner and their mean margin.
        within = cov_block(spec, inner, inner)
        norm_ok = np.max(within / sd[inner][:, None] ** 2) <= 1.0 + TOL_COND
        margins = _row_margins(sd[inner], margin_block)
        c = float(np.min(margins))
        viol = margins <= 0.0
        m = float(margins[viol].mean()) if viol.any() else float("nan")
        return (bool(norm_ok and c > 0.0), c,
                tuple(int(i) for i in inner[viol]), float(viol.mean()), m)

    cond_a, c_a, v_b, nu_b, m_b = direction(b, ab.T)
    cond_b, c_b, v_a, nu_a, m_a = direction(a, ab)
    # The directions that hold, larger margin first (S = B on a tie).
    holding = sorted(((c, s) for ok, c, s in ((cond_a, c_a, "B"), (cond_b, c_b, "A")) if ok),
                     key=lambda t: -t[0])
    c_ab = holding[0][0] if holding else float("nan")
    s_set = tuple(s for _, s in holding)
    perfect = float(np.max(np.abs(cross))) >= 1.0 - TOL_CORR
    return ConditionReport(cond_a, cond_b, c_a, c_b, c_ab, s_set, _clamped_max(cross), perfect,
                           v_a, v_b, nu_a, nu_b, m_a, m_b)


def residual_cov(spec: CovSpec, part: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Schur complements of each block given the other.

    Returns (residual of A given B, residual of B given A).  The conditioning
    block is inverted exactly; a relative condition number below 1e-12 raises
    SingularBlock rather than falling back to a pseudo-inverse.  For a spec
    with noise, the condition number is at least
    min noise^2 / (||gamma||_F^2 + max noise^2) over the conditioning block,
    and its eigenvalues are computed only when that bound falls below 1e-12.
    """
    _check_part(spec, part)
    a, b = part.a_idx, part.b_idx
    ab, aa, bb = cov_block(spec, a, b), cov_block(spec, a, a), cov_block(spec, b, b)

    def schur(keep: np.ndarray, block: np.ndarray, cross: np.ndarray, cond_on: np.ndarray,
              which: str) -> np.ndarray:
        # keep, block and cross are Sigma[K, K], Sigma[C, C] and Sigma[C, K]
        # for the kept block K and the conditioning block C = cond_on.
        if _rcond_floor(spec, cond_on) < RCOND_MIN:
            w = np.linalg.eigvalsh(block)
            wmax = float(np.max(np.abs(w)))
            rcond = float(np.min(np.abs(w))) / wmax if wmax > 0 else 0.0
            if rcond < RCOND_MIN:
                raise SingularBlock(which, rcond)
        cross = np.ascontiguousarray(cross)
        res = keep - cross.T @ np.linalg.solve(block, cross)
        return (res + res.T) * 0.5

    return schur(aa, bb, ab.T, b, "B"), schur(bb, aa, ab, a, "A")


def _rcond_floor(spec: CovSpec, idx: np.ndarray) -> float:
    """A lower bound on the rcond of Sigma[idx, idx] that needs no eigensolve, else 0."""
    if spec.noise is None:
        return 0.0
    nsq = spec.noise[idx] ** 2
    g = spec.gamma[idx]
    return float(nsq.min()) / (float(np.einsum("ij,ij->", g, g)) + float(nsq.max()))


def sqrt_factor(sigma: np.ndarray) -> np.ndarray:
    """Eigenvalue square root L with L L^T reconstructing sigma.

    The one PSD gate: a smallest eigenvalue below -1e-8 * max(1, max diag)
    raises NotPSD.  Eigenvalues below 1e-10 * max(1, lam_max) are treated as
    exact zeros and their columns dropped, so L has shape p x r with r the
    numerical rank.
    """
    sigma = np.asarray(sigma, dtype=float)
    w, v = np.linalg.eigh(sigma)
    if w[0] < -TOL_PSD * max(1.0, float(np.max(np.diag(sigma)))):
        raise NotPSD(f"smallest eigenvalue {float(w[0]):.3e} below PSD tolerance")
    keep = w > TOL_EIG_CLIP * max(1.0, float(w[-1]))
    return v[:, keep] * np.sqrt(w[keep])


def _check_part(spec: CovSpec, part: Partition) -> None:
    if part.p != spec.p:
        raise DimensionMismatch(f"partition is over {part.p} coordinates, model has {spec.p}")
