"""Gaussian covariance specifications, partitions, and structural diagnostics.

A covariance model is either a factor map (p x d matrix G, so Sigma = G G^T,
plus diag(noise^2) when the spec carries a noise vector) or an explicit p x p
matrix, plus a mean vector.  Degenerate (rank-deficient) covariances are
first-class citizens here; only zero-variance coordinates are rejected.  The
diagnostics in this module (cross-correlation maximum, separation
conditions and their violators, Schur-complement residuals) feed the bound
evaluators in :mod:`maxgap.bounds`.

Every diagnostic reads Sigma in fixed ``TILE`` x ``TILE`` tiles
(:func:`_tile`), so an entry's bits do not depend on what else a read
holds, and a factor spec never forms its p x p matrix.  The separation
geometry is one fold of the tiles into O(p) maxima (:func:`_fold`); the
residuals read blocks (:func:`cov_block`).  Two quantities of a factor spec
read no entry of Sigma: the residuals given a block with noise on every
coordinate (Woodbury's identity on the d x d core, :func:`residual_cov`)
and the smallest eigenvalue (an inertia count on that core, or the singular
values of the factor when it has no noise, :func:`min_eigenvalue`).  The
diagonal of Sigma is :attr:`CovSpec.variances` for every spec, so every
layer shares one sd per coordinate, and Sigma is stored exactly symmetric,
so Sigma[B, A] is the transpose of Sigma[A, B].

All functions are pure: they never mutate their inputs and hold no state
but the memo that a :func:`maxgap.bounds.bound_report` shares.  The
caches, all read-only, are :attr:`CovSpec.variances`, :attr:`CovSpec.root`
(the square-root factor) and :attr:`CovSpec.content_hash`; each spec fills
each once.  An explicit spec is factored at construction: :func:`sqrt_factor`,
whose one eigendecomposition both validates and factors the matrix, holds
the PSD floor, so a matrix that constructs always samples.
"""

from __future__ import annotations

import hashlib
import math
from contextvars import ContextVar
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
TILE = 256               # coordinates per tile of Sigma, of a draw and of an expected-max pass
_SECULAR_STEPS = 200     # cap on min_eigenvalue's bracketing steps
_EPS = float(np.finfo(float).eps)
_NEAR = math.sqrt(_EPS)  # a pole within _NEAR * var_i of lam stays explicit in the count


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

        The matrix must be symmetric within ``TOL_SYM``; an exactly
        symmetric matrix is stored as given, any other as its symmetrization
        (sigma + sigma^T) / 2.  Factored here: :func:`sqrt_factor` raises
        NotPSD for an indefinite matrix.
        """
        sigma = _readonly(np.atleast_2d(sigma))
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] < 1:
            raise DimensionMismatch(f"covariance must be square, got {sigma.shape}")
        if not np.all(np.isfinite(sigma)):
            raise BadConfig("covariance has non-finite entries")
        if not np.array_equal(sigma, sigma.T):
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


def _column_selector(idx) -> slice | np.ndarray:
    """Distinct indices idx as a column selector: a slice when they form a range, else an array.

    ``x[:, sel]`` is then a view for a range and a copy otherwise; either
    selects the same columns, and a maximum does not depend on their order.
    """
    idx = np.asarray(idx, dtype=np.intp)
    lo, hi = int(idx.min()), int(idx.max()) + 1
    return slice(lo, hi) if hi - lo == idx.size else idx


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
        """Column selectors of A and B for block maxima (:func:`_column_selector`)."""
        return _column_selector(self.a_set), _column_selector(self.b_set)

    def check_dim(self, p: int) -> None:
        """DimensionMismatch unless the partition is over p coordinates."""
        if self.p != p:
            raise DimensionMismatch(f"partition is over {self.p} coordinates, expected {p}")

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


def _tile_edges(p: int, tiles=None) -> list[tuple[int, int]]:
    """Edges (t0, t1) of the listed tiles of range(p), every tile by default.

    Tile t covers coordinates [t * TILE, min((t + 1) * TILE, p)), so its
    edges depend on p alone.  The covariance blocks, the sampler and the
    expected-max passes all cut coordinates at these edges.
    """
    tiles = range(-(-p // TILE)) if tiles is None else tiles
    return [(int(t) * TILE, min((int(t) + 1) * TILE, p)) for t in tiles]


def cov_block(spec: CovSpec, rows, cols) -> np.ndarray:
    """New array Sigma[rows][:, cols], the same bits for any rows and cols.

    Each tile (i, j), i <= j, that the block touches is formed once by
    :func:`_tile`, and tile (j, i) is its transpose, so every entry is read
    from the same tile whichever block holds it, and a factor spec forms no
    p x p matrix.
    """
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    cols = np.asarray(cols, dtype=np.intp).reshape(-1)
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
    """tile -> (positions in idx of its indices, their offsets within the tile), in tile order."""
    tile = idx // TILE
    out = {}
    for t in np.flatnonzero(np.bincount(tile)):
        pos = np.flatnonzero(tile == t)
        out[int(t)] = (pos, idx[pos] - int(t) * TILE)
    return out


def _tile(spec: CovSpec, i: int, j: int) -> np.ndarray:
    """Tile (i, j), i <= j, of Sigma: a view of sigma, or gamma_i gamma_j^T of a factor spec.

    A factor spec's diagonal tile is symmetrized exactly, with spec.variances as its diagonal.
    """
    (i0, i1), (j0, j1) = _tile_edges(spec.p, (i, j))
    if spec.sigma is not None:
        return spec.sigma[i0:i1, j0:j1]
    g_i = spec.gamma[i0:i1]
    if i != j:
        return g_i @ spec.gamma[j0:j1].T
    t = g_i @ g_i.T
    t = (t + t.T) * 0.5
    t[np.diag_indices_from(t)] = spec.variances[i0:i1]
    return t


def _corr(block: np.ndarray, sd_rows: np.ndarray, sd_cols: np.ndarray) -> np.ndarray:
    return block / np.outer(sd_rows, sd_cols)


def _clamped_max(cross: np.ndarray) -> float:
    return float(np.clip(np.max(cross), -1.0, 1.0))


# The running bound_report's memo: spec.content_hash -> {part: _fold's result,
# (subset as a frozenset, mode, n_mc, seed): expected max}, shared by equal contents.
_REPORT: ContextVar[dict | None] = ContextVar("maxgap_report_memo", default=None)


def _report_memo(spec: CovSpec) -> dict:
    """The running bound_report's memo for this spec's content; outside a report, a new dict."""
    memo = _REPORT.get()
    return {} if memo is None else memo.setdefault(spec.content_hash, {})


def _fold(spec: CovSpec, part: Partition, within: bool) -> tuple:
    """The separation geometry: maxima over entries of Sigma, one walk over its tiles.

    Returns (cross_cov, cross_corr, abs_corr, norms): per coordinate i, its
    largest sigma_ij and correlation over j in the other block; the largest
    |correlation| across the blocks; with ``within``, the largest
    sigma_jj' / sd_j^2 over j, j' in A and in B, else None.  A tile holding
    an entry read is formed once for both placements, (i, j) and (j, i), and
    its entries are the floats of :func:`cov_block` and :func:`_corr`.
    """
    part.check_dim(spec.p)
    memo = _report_memo(spec)
    if part in memo:
        return memo[part]
    within = within or _REPORT.get() is not None  # a report's fold serves check_conditions too
    sd = spec.sds
    sels = [{t: _column_selector(off) for t, (_, off) in _by_tile(idx).items()}
            for idx in (part.a_idx, part.b_idx)]
    cross_cov, cross_corr = np.full(spec.p, -np.inf), np.full(spec.p, -np.inf)
    abs_corr, norms = -np.inf, [-np.inf, -np.inf]
    edges = _tile_edges(spec.p)
    for i, j in [(i, j) for i in range(len(edges)) for j in range(i, len(edges))]:
        (i0, i1), (j0, j1) = edges[i], edges[j]
        # A's rows of tile i against B's columns of tile j, and B's against
        # A's: on a diagonal tile the second is the first transposed.
        cross = [(r[i], c[j]) for r, c in (sels, sels[::-1]) if i in r and j in c][:2 - (i == j)]
        blocks = [(k, s[i], s[j]) for k, s in enumerate(sels) if within and i in s and j in s]
        if not cross and not blocks:
            continue
        t = _tile(spec, i, j)
        for rs, cs in cross:
            cov = t[rs][:, cs]
            corr = _corr(cov, sd[i0:i1][rs], sd[j0:j1][cs])
            for out, x in ((cross_cov, cov), (cross_corr, corr)):
                rows, cols = out[i0:i1], out[j0:j1]
                rows[rs] = np.maximum(rows[rs], x.max(axis=1))
                cols[cs] = np.maximum(cols[cs], x.max(axis=0))
            abs_corr = max(abs_corr, float(np.max(np.abs(corr))))
        for k, rs, cs in blocks:
            # j the row: tile (i, j) divides by its rows' sds, (j, i) by its columns'.
            cov = t[rs][:, cs]
            norms[k] = max(norms[k], float(np.max(cov / sd[i0:i1][rs][:, None] ** 2)),
                           float(np.max(cov / sd[j0:j1][cs] ** 2)))
    memo[part] = (cross_cov, cross_corr, abs_corr, tuple(norms) if within else None)
    return memo[part]


def rho_bar(spec: CovSpec, part: Partition) -> float:
    """Largest cross-block correlation, clamped to [-1, 1], from the tiles holding Sigma[A, B]."""
    return _clamped_max(_fold(spec, part, within=False)[1])


def check_conditions(spec: CovSpec, part: Partition) -> ConditionReport:
    """Evaluate both directions of the separation condition.

    Direction A requires the second block to be normalized
    (max over j, j' in B of sigma_jj' / var_j at most 1) and every cross
    margin sigma_j - sigma_jj'/sigma_j for j in B, i in A to be strictly
    positive; the margin minimum is ``c_a``.  Direction B mirrors the roles.
    The same per-coordinate margins give each side's violators.  Everything
    comes from :func:`_fold`, which builds no block: the margin sd_i - (the
    largest sigma_ij) / sd_i equals the minimum over j of sd_i - sigma_ij /
    sd_i bit for bit, since rounding is monotone.
    """
    cross_cov, cross_corr, abs_corr, norms = _fold(spec, part, within=True)
    sd = spec.sds

    def direction(inner: np.ndarray, norm: float):
        # inner plays the normalized block, norm its largest sigma_jj' / var_j.
        # Whether it holds, its margin, inner's violators, their share and mean margin.
        margins = sd[inner] - cross_cov[inner] / sd[inner]
        c = float(np.min(margins))
        viol = margins <= 0.0
        m = float(margins[viol].mean()) if viol.any() else float("nan")
        return (norm <= 1.0 + TOL_COND and c > 0.0, c,
                tuple(int(i) for i in inner[viol]), float(viol.mean()), m)

    a, b = part.a_idx, part.b_idx
    cond_a, c_a, v_b, nu_b, m_b = direction(b, norms[1])
    cond_b, c_b, v_a, nu_a, m_a = direction(a, norms[0])
    # The directions that hold, larger margin first (S = B on a tie).
    holding = sorted(((c, s) for ok, c, s in ((cond_a, c_a, "B"), (cond_b, c_b, "A")) if ok),
                     key=lambda t: -t[0])
    c_ab = holding[0][0] if holding else float("nan")
    s_set = tuple(s for _, s in holding)
    perfect = abs_corr >= 1.0 - TOL_CORR
    return ConditionReport(cond_a, cond_b, c_a, c_b, c_ab, s_set, _clamped_max(cross_corr),
                           perfect, v_a, v_b, nu_a, nu_b, m_a, m_b)


def residual_cov(spec: CovSpec, part: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Schur complements of each block given the other, symmetrized exactly.

    Returns (residual of A given B, residual of B given A).  A conditioning
    block C whose rcond floor (:func:`_rcond_floor`) reaches 1e-12, which
    takes noise on every coordinate of C, goes through Woodbury's identity on
    the d x d core: with F = gamma and D = diag(noise^2), the residual of the
    kept block K is D_K + W W^T, W = F_K chol(I + F_C^T D_C^-1 F_C)^-T.  It
    reads no block of Sigma and solves no |C| x |C| system.  Any other
    conditioning block is read through :func:`cov_block` and inverted
    exactly; a relative condition number below 1e-12 raises SingularBlock
    rather than falling back to a pseudo-inverse.
    """
    part.check_dim(spec.p)
    a, b = part.a_idx, part.b_idx
    woodbury = [_rcond_floor(spec, c) >= RCOND_MIN for c in (b, a)]
    ab = None if all(woodbury) else cov_block(spec, a, b)
    res_a = _woodbury_residual(spec, a, b) if woodbury[0] else _schur(spec, a, b, ab.T, "B")
    res_b = _woodbury_residual(spec, b, a) if woodbury[1] else _schur(spec, b, a, ab, "A")
    return res_a, res_b


def _schur(spec: CovSpec, keep: np.ndarray, cond_on: np.ndarray, cross: np.ndarray,
           which: str) -> np.ndarray:
    # Sigma[K, K] - Sigma[K, C] Sigma[C, C]^-1 Sigma[C, K] for K = keep and
    # C = cond_on, with cross = Sigma[C, K].
    block = cov_block(spec, cond_on, cond_on)
    w = np.linalg.eigvalsh(block)
    wmax = float(np.max(np.abs(w)))
    rcond = float(np.min(np.abs(w))) / wmax if wmax > 0 else 0.0
    if rcond < RCOND_MIN:
        raise SingularBlock(which, rcond)
    cross = np.ascontiguousarray(cross)
    res = cov_block(spec, keep, keep) - cross.T @ np.linalg.solve(block, cross)
    return (res + res.T) * 0.5


def _woodbury_residual(spec: CovSpec, keep: np.ndarray, cond_on: np.ndarray) -> np.ndarray:
    # D_K + F_K (I + F_C^T D_C^-1 F_C)^-1 F_K^T through the Cholesky factor of the core.
    g = spec.gamma[cond_on] / spec.noise[cond_on][:, None]
    core = g.T @ g
    core[np.diag_indices_from(core)] += 1.0
    w = spec.gamma[keep] @ np.linalg.inv(np.linalg.cholesky(core)).T
    res = w @ w.T
    res[np.diag_indices_from(res)] += spec.noise[keep] ** 2
    return (res + res.T) * 0.5


def _rcond_floor(spec: CovSpec, idx: np.ndarray) -> float:
    """A lower bound on the rcond of Sigma[idx, idx] that needs no eigensolve, else 0.

    Positive only when every coordinate of idx carries noise, which is what
    the Woodbury residual needs to invert D over idx.
    """
    if spec.noise is None:
        return 0.0
    nsq = spec.noise[idx] ** 2
    g = spec.gamma[idx]
    return float(nsq.min()) / (float(np.einsum("ij,ij->", g, g)) + float(nsq.max()))


def min_eigenvalue(spec: CovSpec) -> float:
    """Smallest eigenvalue of Sigma.

    An explicit spec runs ``eigvalsh`` on sigma.  A factor spec forms no
    p x p matrix.  With no noise or the same noise sd c on every coordinate,
    Sigma = F F^T + c^2 I with F = gamma, and lam_min is c^2 plus the square
    of F's p-th singular value (zero when d < p): one SVD of F, whose
    relative accuracy a d x d Gram matrix would square away.  With other
    noise, D = diag(noise^2), a coordinate whose row of F is zero is an
    eigenvector with eigenvalue D_i, and :func:`_secular_min` finds lam_min
    of the other coordinates on the d x d core.
    """
    if spec.sigma is not None:
        return float(np.linalg.eigvalsh(spec.sigma)[0])
    if spec.noise is None or np.all(spec.noise == spec.noise[0]):
        shift = 0.0 if spec.noise is None else float(spec.noise[0]) ** 2
        if spec.gamma.shape[1] < spec.p:
            return shift
        return shift + float(np.linalg.svd(spec.gamma, compute_uv=False)[-1]) ** 2
    dsq = spec.noise ** 2
    loaded = np.any(spec.gamma != 0.0, axis=1)
    lam = float(dsq[~loaded].min(initial=np.inf))
    if loaded.any():
        lam = min(lam, _secular_min(spec.gamma[loaded], dsq[loaded],
                                    spec.variances[loaded], lam))
    return lam


def _secular_min(f: np.ndarray, dsq: np.ndarray, var: np.ndarray, cap: float) -> float:
    """Smallest eigenvalue of diag(dsq) + f f^T, or cap when that is smaller.

    Every row of f is nonzero, and var holds the diagonal.  lam_min lies in
    [D_(1), min(D_(d+1), min var)]: Weyl and interlacing for a rank-d
    update, and a variance is a Rayleigh quotient.  Each step counts
    the eigenvalues below lam (:func:`_inertia`), which moves one end of the
    bracket to lam, and steps toward the zero of the eigenvalue that crosses
    zero at lam_min.  The step is Newton's in t = 1 / (lam - c), c the
    largest value of dsq at or below the bracket's lower end, where that
    eigenvalue is close to linear (with D = 0 it is 1 - s^2 / lam, linear in
    t).  A step that would leave the bracket, or that falls short of halving
    the step before last, is a bisection instead.  The search ends when the
    step is a few ulps of lam, when the crossing eigenvalue is zero to the
    rounding of its matrix with lam at the edge of the count (at most one
    eigenvalue below it), or when the bracket closes.
    """
    d = f.shape[1]
    lo = float(dsq.min())
    hi = lam = min(cap, float(var.min()))
    pole = float(np.partition(dsq, d)[d]) if dsq.size > d else math.inf
    if pole < hi:
        hi = lam = pole
        if np.count_nonzero(dsq == pole) == 1:
            # lam_min < D_(d+1) when no other dsq equals it: start inside.
            lam = 0.5 * (lo + hi)
    # Otherwise the first count is at hi itself: when lam_min = hi, as when
    # cap is below every eigenvalue of the rest, that ends the search.
    last = before = hi - lo
    for _ in range(_SECULAR_STEPS):
        if not lo < lam <= hi:
            break
        below, value, slope, scale = _inertia(f, dsq, var, lam)
        if below == 0:
            lo = lam
        else:
            hi = lam
        x = lam - float(dsq[dsq <= lo].max())
        if slope * x + value > 0.0:
            step = x * value / (slope * x + value)
            at_zero = below <= 1 and abs(value) <= 8.0 * _EPS * scale
            if at_zero or abs(step) <= 4.0 * _EPS * lam:
                return min(max(lam - step, lo), hi)
            if abs(step) < 0.5 * before and lo < lam - step < hi:
                before, last = last, abs(step)
                lam -= step
                continue
        before, last = last, 0.5 * (hi - lo)
        lam = 0.5 * (lo + hi)
    return hi


def _inertia(f: np.ndarray, dsq: np.ndarray, var: np.ndarray,
             lam: float) -> tuple[int, float, float, float]:
    """The eigenvalues of diag(dsq) + f f^T below lam, and the one crossing zero.

    Haynsworth's inertia additivity on M = [[D - lam I, f], [f^T, -I]]: the
    -I pivot gives n_neg(M) = d + n_neg(Sigma - lam I).  Pivoting instead on
    the far rows R, whose |dsq_i - lam| exceeds sqrt(eps) var_i, leaves the
    small symmetric matrix S = [[D_N - lam I, f_N], [f_N^T, -I - f_R^T
    (D_R - lam I)^-1 f_R]] over the near rows N and the d factor columns, so
    n_neg(Sigma - lam I) = n_neg(D_R - lam I) + n_neg(S) - d, one ``eigh``
    of S.  Keeping N explicit bounds the entries of S, so its eigenvalues
    resolve their signs next to a pole, and lam may sit on one.

    Returns (count, value, slope, scale): value is minus the eigenvalue of S
    that crosses zero at lam_min (index d - n_neg(D_R - lam I)), increasing
    in lam with derivative slope = ||u_N||^2 + ||(D_R - lam I)^-1 f_R u_d||^2
    for its eigenvector u; scale is the largest |eigenvalue| of S.
    """
    d = f.shape[1]
    near = np.abs(dsq - lam) <= _NEAR * var
    k = int(np.count_nonzero(near))
    far_f, far_dsq = (f, dsq) if k == 0 else (f[~near], dsq[~near])
    fs = far_f / (far_dsq - lam)[:, None]
    s = np.empty((k + d, k + d))
    s[:k, :k] = np.diag(dsq[near] - lam)
    s[:k, k:] = f[near]
    s[k:, :k] = f[near].T
    s[k:, k:] = -np.eye(d) - fs.T @ far_f
    nu, u = np.linalg.eigh(s)
    neg = int(np.count_nonzero(far_dsq < lam))
    count = neg + int(np.count_nonzero(nu < 0.0)) - d
    j = d - neg
    g = fs @ u[k:, j]
    slope = float(u[:k, j] @ u[:k, j] + g @ g)
    return count, -float(nu[j]), slope, float(np.max(np.abs(nu)))


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
