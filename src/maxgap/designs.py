"""Design generators for the simulation studies.

Each kind maps a small config to a (CovSpec, Partition) pair, deterministic
in the seed.  The first block is always A.  Overlapping-block designs are
emitted in the duplication encoding: the shared coordinates appear twice in
the covariance (perfectly correlated copies), so the partition itself stays
disjoint and the ambient dimension is p + k.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .cov import CovSpec, Partition
from .errors import BadConfig

KINDS = ("homog_lowrank", "homog_overlap", "heterog_condA", "heterog_violation",
         "fullrank_equicorr", "table1", "exchangeable_overlap", "k0_split")

# Per-side sd profiles of the condition-violation designs, as fractions of
# the side length.  The values are used as standard deviations; that is the
# reading that reproduces the reference violation statistics (see tests).
VARIANCE_PROFILES = {
    "v075": ((0.9, 0.5), (1.0, 0.25), (10.0, 0.25)),
    "v0875": ((0.9, 0.75), (1.0, 0.125), (15.0, 0.125)),
}


@dataclass(frozen=True)
class DesignConfig:
    """Parameters of one simulation design."""

    kind: str
    p: int = 400
    d: int | None = None
    overlap_k: int | None = None
    k0: int | None = None
    rho: float | None = None
    variance_profile: str | None = None
    seed: int = 0

    def design_id(self) -> str:
        bits = [self.kind, f"p{self.p}"]
        if self.d is not None:
            bits.append(f"d{self.d}")
        if self.overlap_k is not None:
            bits.append(f"k{self.overlap_k}")
        if self.k0 is not None:
            bits.append(f"k0_{self.k0}")
        if self.rho is not None:
            bits.append(f"rho{self.rho:g}")
        if self.variance_profile is not None:
            bits.append(self.variance_profile)
        bits.append(f"s{self.seed}")
        return "-".join(bits)

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise BadConfig(msg)


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _equicorr(p: int, rho: float, sds: np.ndarray | None = None) -> np.ndarray:
    _need(-1.0 / (p - 1) < rho < 1.0 if p > 1 else True,
          f"equicorrelation {rho} not positive semidefinite at p={p}")
    sig = np.full((p, p), rho)
    np.fill_diagonal(sig, 1.0)
    if sds is not None:
        sig = sig * np.outer(sds, sds)
    return sig


def gen_design(cfg: DesignConfig) -> tuple[CovSpec, Partition]:
    if cfg.kind not in KINDS:
        raise BadConfig(f"unknown design kind {cfg.kind!r}; expected one of {KINDS}")
    return _GENERATORS[cfg.kind](cfg)


def _homog_lowrank(cfg: DesignConfig) -> tuple[CovSpec, Partition]:
    p, d = cfg.p, cfg.d if cfg.d is not None else max(cfg.p // 10, 2)
    _need(p >= 2 and p % 2 == 0, f"homog_lowrank needs even p >= 2, got {p}")
    _need(1 <= d <= p, f"homog_lowrank needs 1 <= d <= p, got d={d}")
    rng = np.random.default_rng(cfg.seed)
    gamma = _unit_rows(rng.standard_normal((p, d)))
    return CovSpec.factor(gamma), Partition.split(p, p // 2)


def _homog_overlap(cfg: DesignConfig) -> tuple[CovSpec, Partition]:
    p, d = cfg.p, cfg.d if cfg.d is not None else max(cfg.p // 10, 2)
    k = cfg.overlap_k
    _need(p >= 2 and p % 2 == 0, f"homog_overlap needs even p >= 2, got {p}")
    _need(1 <= d <= p, f"homog_overlap needs 1 <= d <= p, got d={d}")
    _need(k is not None and 1 <= k <= p // 2,
          f"homog_overlap needs 1 <= overlap_k <= p/2, got {k}")
    rng = np.random.default_rng(cfg.seed)
    gamma = _unit_rows(rng.standard_normal((p, d)))
    half = p // 2
    gamma[half:half + k] = gamma[:k]
    return CovSpec.factor(gamma), Partition.split(p, half)


def _heterog_cond_a(cfg: DesignConfig) -> tuple[CovSpec, Partition]:
    p, d = cfg.p, cfg.d if cfg.d is not None else max(cfg.p // 10, 2)
    _need(p >= 2 and p % 2 == 0, f"heterog_condA needs even p >= 2, got {p}")
    _need(2 <= d <= p, f"heterog_condA needs 2 <= d <= p, got d={d}")
    rng = np.random.default_rng(cfg.seed)
    half = p // 2
    gamma_a = rng.standard_normal((half, d))
    gamma_b = _unit_rows(rng.standard_normal((half, d)))
    gamma_a = gamma_a / np.linalg.norm(gamma_a, axis=1).max()
    return CovSpec.factor(np.vstack([gamma_a, gamma_b])), Partition.split(p, half)


def _heterog_violation(cfg: DesignConfig) -> tuple[CovSpec, Partition]:
    p = cfg.p
    profile = cfg.variance_profile or "v075"
    _need(profile in VARIANCE_PROFILES,
          f"variance_profile must be one of {sorted(VARIANCE_PROFILES)}, got {profile!r}")
    parts = VARIANCE_PROFILES[profile]
    denom = int(round(1.0 / min(frac for _, frac in parts))) * 2
    _need(p >= denom and p % denom == 0,
          f"profile {profile} needs p divisible by {denom}, got {p}")
    half = p // 2
    side = np.concatenate([np.full(int(round(frac * half)), sd) for sd, frac in parts])
    sds = np.concatenate([side, side])
    return CovSpec.explicit(_equicorr(p, 0.9, sds)), Partition.split(p, half)


def _fullrank_equicorr(cfg: DesignConfig) -> tuple[CovSpec, Partition]:
    p = cfg.p
    _need(p >= 2 and p % 2 == 0, f"fullrank_equicorr needs even p >= 2, got {p}")
    _need(cfg.rho is not None, "fullrank_equicorr needs rho")
    return CovSpec.explicit(_equicorr(p, float(cfg.rho))), Partition.split(p, p // 2)


def _table1(cfg: DesignConfig) -> tuple[CovSpec, Partition]:
    p = cfg.p
    d = cfg.d if cfg.d is not None else max(p // 10, 1)
    _need(p >= 2 and p % 2 == 0, f"table1 needs even p >= 2, got {p}")
    _need(1 <= d <= p, f"table1 needs 1 <= d <= p, got d={d}")
    rng = np.random.default_rng(cfg.seed)
    gamma = rng.standard_normal((p, d))
    scale = np.sqrt(np.einsum("ij,ij->i", gamma, gamma) + 1.0)
    # The rows of [gamma, I] / scale, held as the factor gamma / scale plus noise sds 1 / scale.
    return (CovSpec.factor(gamma / scale[:, None], noise=1.0 / scale),
            Partition.split(p, p // 2))


def _exchangeable_overlap(cfg: DesignConfig) -> tuple[CovSpec, Partition]:
    p, k = cfg.p, cfg.overlap_k
    _need(k is not None and k >= 1, f"exchangeable_overlap needs overlap_k >= 1, got {k}")
    _need(p > k and (p + k) % 2 == 0,
          f"exchangeable_overlap needs p > k with p + k even, got p={p}, k={k}")
    rho = float(cfg.rho) if cfg.rho is not None else 0.0
    m = (p + k) // 2
    sig = _equicorr(p, rho)
    # Blocks of size m sharing k coordinates: A reads 0..m-1, B reads m-k..p-1.
    index_map = np.concatenate([np.arange(m), np.arange(m - k, p)])
    sig_dup = sig[np.ix_(index_map, index_map)]
    return CovSpec.explicit(sig_dup), Partition.split(2 * m, m)


def _k0_split(cfg: DesignConfig) -> tuple[CovSpec, Partition]:
    p, k0 = cfg.p, cfg.k0
    _need(k0 is not None and 1 <= k0 < p, f"k0_split needs 1 <= k0 < p, got k0={k0}, p={p}")
    rho = float(cfg.rho) if cfg.rho is not None else 0.0
    return CovSpec.explicit(_equicorr(p, rho)), Partition.split(p, k0)


_GENERATORS = {
    "homog_lowrank": _homog_lowrank,
    "homog_overlap": _homog_overlap,
    "heterog_condA": _heterog_cond_a,
    "heterog_violation": _heterog_violation,
    "fullrank_equicorr": _fullrank_equicorr,
    "table1": _table1,
    "exchangeable_overlap": _exchangeable_overlap,
    "k0_split": _k0_split,
}
