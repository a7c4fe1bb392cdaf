"""Design generators for the simulation studies.

``DESIGNS`` is the one table of kinds: each kind's generator and the options
it reads besides p and seed.  A generator checks its config, reading nothing
else, and returns the zero-argument build of the design, so
:func:`check_design` rejects a config before any work and :func:`gen_design`
builds it.  A build returns a (CovSpec, Partition) pair, deterministic in
the seed, with block A first.  Overlapping blocks are encoded by
duplication: the shared coordinates appear twice in the covariance
(perfectly correlated copies), so the partition stays disjoint;
``exchangeable_overlap`` samples p + k coordinates for its p distinct ones.

A factor design draws its p x d factor into one array, scales it in place
(row norms one ``TILE`` of rows at a time) and hands it over read-only, so
the spec holds that array uncopied (see the Ownership note of
:mod:`maxgap.cov`) and a build peaks near one factor, not two or three.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass, asdict

import numpy as np

from .cov import TILE, CovSpec, Partition, plain_option
from .errors import BadConfig
from .sampling import check_seed

# The options a kind may read besides p and seed, with their design_id formats.
_OPTIONS = {"d": "d{}", "overlap_k": "k{}", "k0": "k0_{}", "rho": "rho{:g}",
            "variance_profile": "{}"}

# Per-side sd profiles of the condition-violation designs, as fractions of
# the side length.  The values are used as standard deviations; that is the
# reading that reproduces the reference violation statistics (see tests).
VARIANCE_PROFILES = {
    "v075": ((0.9, 0.5), (1.0, 0.25), (10.0, 0.25)),
    "v0875": ((0.9, 0.75), (1.0, 0.125), (15.0, 0.125)),
}


@dataclass(frozen=True)
class DesignConfig:
    """Parameters of one simulation design, held as plain Python values.

    p, seed and each integer option set become ints and rho a float, so a
    numpy scalar is recorded as the number it holds; any other value, or a
    seed outside [0, 2^64), raises BadConfig.
    """

    kind: str
    p: int = 400
    d: int | None = None
    overlap_k: int | None = None
    k0: int | None = None
    rho: float | None = None
    variance_profile: str | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("p", "d", "overlap_k", "k0", "rho"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, plain_option(
                    name, value, float if name == "rho" else operator.index))
        object.__setattr__(self, "seed", check_seed(self.seed))

    def design_id(self) -> str:
        bits = [fmt.format(getattr(self, name)) for name, fmt in _OPTIONS.items()
                if getattr(self, name) is not None]
        return "-".join([self.kind, f"p{self.p}", *bits, f"s{self.seed}"])

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise BadConfig(msg)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row, ``TILE`` rows at a time.

    Each norm is its own row's sum, so it has the bits of
    ``np.linalg.norm(rows, axis=1)`` without that call's rows-sized temporary.
    """
    return np.concatenate([np.linalg.norm(rows[t0:t0 + TILE], axis=1)
                           for t0 in range(0, rows.shape[0], TILE)])


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """rows scaled to unit length, in place: the callers pass a fresh array."""
    rows /= _row_norms(rows)[:, None]
    return rows


def _factor(gamma: np.ndarray, noise: np.ndarray | None = None) -> CovSpec:
    """The factor spec of gamma and noise, handed over by the caller: read-only, held uncopied."""
    gamma.flags.writeable = False
    if noise is not None:
        noise.flags.writeable = False
    return CovSpec.factor(gamma, noise=noise)


def _check_equicorr(p: int, rho: float) -> None:
    _need(-1.0 / (p - 1) < rho < 1.0 if p > 1 else True,
          f"equicorrelation {rho} not positive semidefinite at p={p}")


def _equicorr(p: int, rho: float, sds: np.ndarray | None = None) -> np.ndarray:
    sig = np.full((p, p), float(rho))
    np.fill_diagonal(sig, 1.0)
    if sds is not None:
        sig = sig * np.outer(sds, sds)
    return sig


def check_design(cfg: DesignConfig) -> Callable[[], tuple[CovSpec, Partition]]:
    """The zero-argument build of cfg's design, after checking cfg alone.

    BadConfig for an unknown kind, an option it does not read or a value it
    cannot build; nothing is generated until the build is called.
    """
    if cfg.kind not in DESIGNS:
        raise BadConfig(f"unknown design kind {cfg.kind!r}; expected one of {KINDS}")
    generate, reads = DESIGNS[cfg.kind]
    unread = [name for name in _OPTIONS if getattr(cfg, name) is not None and name not in reads]
    if unread:
        raise BadConfig(f"{cfg.kind} does not read {', '.join(unread)}")
    return generate(cfg)


def gen_design(cfg: DesignConfig) -> tuple[CovSpec, Partition]:
    """The (spec, partition) of cfg; BadConfig as :func:`check_design` raises it."""
    return check_design(cfg)()


def _halves(cfg: DesignConfig) -> int:
    _need(cfg.p >= 2 and cfg.p % 2 == 0, f"{cfg.kind} needs even p >= 2, got {cfg.p}")
    return cfg.p // 2


def _rank(cfg: DesignConfig, low: int = 1) -> int:
    d = cfg.d if cfg.d is not None else max(cfg.p // 10, 1 if cfg.kind == "table1" else 2)
    _need(low <= d <= cfg.p, f"{cfg.kind} needs {low} <= d <= p, got d={d}")
    return d


def _normals(cfg: DesignConfig, d: int) -> np.ndarray:
    return np.random.default_rng(cfg.seed).standard_normal((cfg.p, d))


def _homog_lowrank(cfg: DesignConfig):
    half, d = _halves(cfg), _rank(cfg)
    return lambda: (_factor(_unit_rows(_normals(cfg, d))), Partition.split(cfg.p, half))


def _homog_overlap(cfg: DesignConfig):
    half, d, k = _halves(cfg), _rank(cfg), cfg.overlap_k
    _need(k is not None and 1 <= k <= half,
          f"homog_overlap needs 1 <= overlap_k <= p/2, got {k}")

    def build():
        gamma = _unit_rows(_normals(cfg, d))
        gamma[half:half + k] = gamma[:k]
        return _factor(gamma), Partition.split(cfg.p, half)
    return build


def _heterog_cond_a(cfg: DesignConfig):
    half, d = _halves(cfg), _rank(cfg, low=2)

    def build():
        # One draw holds both halves: the stream's first half x d normals are A's.
        gamma = _normals(cfg, d)
        gamma[:half] /= _row_norms(gamma[:half]).max()
        _unit_rows(gamma[half:])
        return _factor(gamma), Partition.split(cfg.p, half)
    return build


def _heterog_violation(cfg: DesignConfig):
    p = cfg.p
    profile = cfg.variance_profile or "v075"
    _need(profile in VARIANCE_PROFILES,
          f"variance_profile must be one of {sorted(VARIANCE_PROFILES)}, got {profile!r}")
    parts = VARIANCE_PROFILES[profile]
    denom = int(round(1.0 / min(frac for _, frac in parts))) * 2
    _need(p >= denom and p % denom == 0,
          f"profile {profile} needs p divisible by {denom}, got {p}")
    half = p // 2

    def build():
        side = np.concatenate([np.full(int(round(frac * half)), sd) for sd, frac in parts])
        sds = np.concatenate([side, side])
        return CovSpec.explicit(_equicorr(p, 0.9, sds)), Partition.split(p, half)
    return build


def _fullrank_equicorr(cfg: DesignConfig):
    half = _halves(cfg)
    _need(cfg.rho is not None, "fullrank_equicorr needs rho")
    _check_equicorr(cfg.p, cfg.rho)
    return lambda: (CovSpec.explicit(_equicorr(cfg.p, cfg.rho)), Partition.split(cfg.p, half))


def _table1(cfg: DesignConfig):
    half, d = _halves(cfg), _rank(cfg)

    def build():
        gamma = _normals(cfg, d)
        scale = np.sqrt(np.einsum("ij,ij->i", gamma, gamma) + 1.0)
        # The rows of [gamma, I] / scale, held as the factor gamma / scale plus
        # noise sds 1 / scale.
        gamma /= scale[:, None]
        return _factor(gamma, noise=1.0 / scale), Partition.split(cfg.p, half)
    return build


def _exchangeable_overlap(cfg: DesignConfig):
    p, k, rho = cfg.p, cfg.overlap_k, cfg.rho or 0.0
    _need(k is not None and k >= 1, f"exchangeable_overlap needs overlap_k >= 1, got {k}")
    _need(p > k and (p + k) % 2 == 0,
          f"exchangeable_overlap needs p > k with p + k even, got p={p}, k={k}")
    _check_equicorr(p, rho)
    m = (p + k) // 2

    def build():
        # Blocks of size m sharing k coordinates: A reads 0..m-1, B reads m-k..p-1.
        index_map = np.concatenate([np.arange(m), np.arange(m - k, p)])
        sig_dup = _equicorr(p, rho)[np.ix_(index_map, index_map)]
        return CovSpec.explicit(sig_dup), Partition.split(2 * m, m)
    return build


def _k0_split(cfg: DesignConfig):
    p, k0, rho = cfg.p, cfg.k0, cfg.rho or 0.0
    _need(k0 is not None and 1 <= k0 < p, f"k0_split needs 1 <= k0 < p, got k0={k0}, p={p}")
    _check_equicorr(p, rho)
    return lambda: (CovSpec.explicit(_equicorr(p, rho)), Partition.split(p, k0))


# Each kind's generator (config -> build) and the options it reads besides p and seed.
DESIGNS = {
    "homog_lowrank": (_homog_lowrank, ("d",)),
    "homog_overlap": (_homog_overlap, ("d", "overlap_k")),
    "heterog_condA": (_heterog_cond_a, ("d",)),
    "heterog_violation": (_heterog_violation, ("variance_profile",)),
    "fullrank_equicorr": (_fullrank_equicorr, ("rho",)),
    "table1": (_table1, ("d",)),
    "exchangeable_overlap": (_exchangeable_overlap, ("overlap_k", "rho")),
    "k0_split": (_k0_split, ("k0", "rho")),
}
KINDS = tuple(DESIGNS)
