import json
import math
import tracemalloc

import numpy as np
import pytest

from maxgap import BadConfig, check_conditions, rho_bar
from maxgap.cov import CovSpec, cov_block
from maxgap import designs
from maxgap.designs import (DESIGNS, KINDS, VARIANCE_PROFILES, DesignConfig, check_design,
                            gen_design)


def spec_of(**kwargs):
    return gen_design(DesignConfig(**kwargs))


# The options each kind reads besides p and seed, and a valid config of each kind.
READS = {
    "homog_lowrank": {"d"},
    "homog_overlap": {"d", "overlap_k"},
    "heterog_condA": {"d"},
    "heterog_violation": {"variance_profile"},
    "fullrank_equicorr": {"rho"},
    "table1": {"d"},
    "exchangeable_overlap": {"overlap_k", "rho"},
    "k0_split": {"k0", "rho"},
}
SMOKE = {
    "homog_lowrank": dict(p=8),
    "homog_overlap": dict(p=8, overlap_k=1),
    "heterog_condA": dict(p=8),
    "heterog_violation": dict(p=8),
    "fullrank_equicorr": dict(p=8, rho=0.2),
    "table1": dict(p=8),
    "exchangeable_overlap": dict(p=7, overlap_k=1),
    "k0_split": dict(p=8, k0=3),
}
OPTION_VALUES = {"d": 2, "overlap_k": 1, "k0": 3, "rho": 0.2, "variance_profile": "v075"}


def full_cov(spec):
    idx = np.arange(spec.p)
    return cov_block(spec, idx, idx)


class TestHomogLowrank:
    def test_structure(self):
        spec, part = spec_of(kind="homog_lowrank", p=20, d=4)
        assert spec.form == "factor"
        assert spec.gamma.shape == (20, 4)
        assert np.allclose(spec.variances, 1.0, atol=1e-12)
        assert len(part.a_set) == len(part.b_set) == 10

    def test_default_rank(self):
        spec, _ = spec_of(kind="homog_lowrank", p=40)
        assert spec.gamma.shape == (40, 4)
        spec, _ = spec_of(kind="homog_lowrank", p=4)
        assert spec.gamma.shape == (4, 2)

    def test_validation(self):
        with pytest.raises(BadConfig):
            spec_of(kind="homog_lowrank", p=7)
        with pytest.raises(BadConfig):
            spec_of(kind="homog_lowrank", p=4, d=9)


class TestHomogOverlap:
    def test_duplicated_rows(self):
        spec, part = spec_of(kind="homog_overlap", p=10, d=3, overlap_k=2)
        assert np.array_equal(spec.gamma[5], spec.gamma[0])
        assert np.array_equal(spec.gamma[6], spec.gamma[1])
        assert not np.array_equal(spec.gamma[7], spec.gamma[2])
        rep = check_conditions(spec, part)
        assert rep.has_perfect_cross_corr

    def test_requires_k(self):
        with pytest.raises(BadConfig):
            spec_of(kind="homog_overlap", p=10, d=3)
        with pytest.raises(BadConfig):
            spec_of(kind="homog_overlap", p=10, d=3, overlap_k=6)


class TestHeterogCondA:
    def test_condition_holds(self):
        spec, part = spec_of(kind="heterog_condA", p=20, d=5, seed=3)
        rep = check_conditions(spec, part)
        assert rep.cond_a_holds
        assert rep.c_a > 0.0

    def test_scaling_convention(self):
        spec, _ = spec_of(kind="heterog_condA", p=20, d=5, seed=3)
        norms = np.linalg.norm(spec.gamma, axis=1)
        assert norms[:10].max() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(norms[10:], 1.0, atol=1e-12)

    def test_needs_rank_two(self):
        with pytest.raises(BadConfig):
            spec_of(kind="heterog_condA", p=10, d=1)


class TestHeterogViolation:
    def test_profile_fractions_cover_each_side(self):
        for parts in VARIANCE_PROFILES.values():
            assert math.fsum(frac for _, frac in parts) == pytest.approx(1.0)

    def test_sd_layout(self):
        spec, _ = spec_of(kind="heterog_violation", p=8, variance_profile="v075")
        assert np.allclose(spec.sds, [0.9, 0.9, 1.0, 10.0] * 2, atol=1e-12)

    def test_equicorrelation(self):
        spec, _ = spec_of(kind="heterog_violation", p=8)
        sig = full_cov(spec)
        sd = spec.sds
        corr = sig / np.outer(sd, sd)
        off = corr[~np.eye(8, dtype=bool)]
        assert np.allclose(off, 0.9, atol=1e-12)

    def test_divisibility(self):
        with pytest.raises(BadConfig):
            spec_of(kind="heterog_violation", p=12, variance_profile="v075")
        with pytest.raises(BadConfig):
            spec_of(kind="heterog_violation", p=24, variance_profile="v0875")
        with pytest.raises(BadConfig):
            spec_of(kind="heterog_violation", p=8, variance_profile="steep")


class TestFullrankEquicorr:
    def test_structure(self):
        spec, part = spec_of(kind="fullrank_equicorr", p=6, rho=0.4)
        sig = full_cov(spec)
        assert np.array_equal(np.diag(sig), np.ones(6))
        assert rho_bar(spec, part) == pytest.approx(0.4)

    def test_psd_range_enforced(self):
        with pytest.raises(BadConfig):
            spec_of(kind="fullrank_equicorr", p=4, rho=-0.5)
        with pytest.raises(BadConfig):
            spec_of(kind="fullrank_equicorr", p=4, rho=1.0)
        with pytest.raises(BadConfig):
            spec_of(kind="fullrank_equicorr", p=4)


class TestTable1:
    def test_unit_variances_exact_rank(self):
        spec, part = spec_of(kind="table1", p=30, seed=1)
        assert spec.gamma.shape == (30, 3)
        assert spec.noise.shape == (30,)
        assert np.all(spec.noise > 0.0)
        assert np.allclose(spec.variances, 1.0, atol=1e-12)
        assert len(part.a_set) == 15

    def test_same_entries_as_dense_factor(self):
        # The factor plus noise holds the entries of the dense factor
        # [gamma, I] / scale bit for bit, so both draw the same normals.
        d = 3
        gamma = np.random.default_rng(1).standard_normal((30, d))
        scale = np.sqrt(np.einsum("ij,ij->i", gamma, gamma) + 1.0)
        dense = np.hstack([gamma, np.eye(30)]) / scale[:, None]
        spec, _ = spec_of(kind="table1", p=30, seed=1)
        assert spec.gamma.tobytes() == dense[:, :d].tobytes()
        assert spec.noise.tobytes() == np.diag(dense[:, d:]).tobytes()

    def test_conditions_hold(self):
        spec, part = spec_of(kind="table1", p=30, seed=1)
        rep = check_conditions(spec, part)
        assert rep.cond_a_holds and rep.cond_b_holds
        assert not rep.has_perfect_cross_corr


class TestExchangeableOverlap:
    def test_duplication_encoding(self):
        spec, part = spec_of(kind="exchangeable_overlap", p=14, overlap_k=2, rho=0.3)
        assert spec.p == 16
        assert len(part.a_set) == len(part.b_set) == 8
        sig = full_cov(spec)
        # Coordinates 6, 7 of A are the same underlying coordinates as 8, 9 of B.
        assert sig[6, 8] == 1.0
        assert sig[7, 9] == 1.0
        assert sig[6, 9] == 0.3
        assert np.allclose(sig, sig.T)
        assert np.all(np.linalg.eigvalsh(sig) >= -1e-10)

    def test_no_rho_means_independent(self):
        spec, _ = spec_of(kind="exchangeable_overlap", p=5, overlap_k=1)
        sig = full_cov(spec)
        assert sig[0, 1] == 0.0

    def test_validation(self):
        with pytest.raises(BadConfig):
            spec_of(kind="exchangeable_overlap", p=14, overlap_k=0)
        with pytest.raises(BadConfig):
            spec_of(kind="exchangeable_overlap", p=14, overlap_k=3)
        with pytest.raises(BadConfig):
            spec_of(kind="exchangeable_overlap", p=2, overlap_k=2)


class TestK0Split:
    def test_structure(self):
        spec, part = spec_of(kind="k0_split", p=30, k0=20)
        assert len(part.a_set) == 20
        assert len(part.b_set) == 10
        assert np.array_equal(full_cov(spec), np.eye(30))

    def test_rho_passthrough(self):
        spec, _ = spec_of(kind="k0_split", p=10, k0=2, rho=0.25)
        assert full_cov(spec)[0, 5] == 0.25

    def test_validation(self):
        with pytest.raises(BadConfig):
            spec_of(kind="k0_split", p=10)
        with pytest.raises(BadConfig):
            spec_of(kind="k0_split", p=10, k0=10)


class TestConfigPlumbing:
    def test_unknown_kind(self):
        with pytest.raises(BadConfig):
            spec_of(kind="mystery", p=4)

    def test_determinism_and_seed_sensitivity(self):
        a, _ = spec_of(kind="homog_lowrank", p=12, d=3, seed=5)
        b, _ = spec_of(kind="homog_lowrank", p=12, d=3, seed=5)
        c, _ = spec_of(kind="homog_lowrank", p=12, d=3, seed=6)
        assert a.content_hash == b.content_hash
        assert a.content_hash != c.content_hash

    def test_design_id(self):
        cfg = DesignConfig(kind="homog_overlap", p=10, d=3, overlap_k=2, seed=4)
        assert cfg.design_id() == "homog_overlap-p10-d3-k2-s4"
        cfg = DesignConfig(kind="fullrank_equicorr", p=8, rho=0.35)
        assert cfg.design_id() == "fullrank_equicorr-p8-rho0.35-s0"
        cfg = DesignConfig(kind="k0_split", p=30, k0=20)
        assert cfg.design_id() == "k0_split-p30-k0_20-s0"

    def test_json_roundtrip(self):
        cfg = DesignConfig(kind="heterog_violation", p=16, variance_profile="v0875")
        back = DesignConfig(**json.loads(json.dumps(cfg.to_json_dict())))
        assert back == cfg
        assert "d" not in cfg.to_json_dict()

    def test_all_kinds_have_generators(self):
        assert set(SMOKE) == set(KINDS)
        for kind, kwargs in SMOKE.items():
            spec, part = spec_of(kind=kind, **kwargs)
            assert spec.p == len(part.a_set) + len(part.b_set)

    def test_table_lists_the_options_each_kind_reads(self):
        assert {kind: set(reads) for kind, (_, reads) in DESIGNS.items()} == READS
        for kind, reads in READS.items():
            # Every option a kind reads is accepted.
            spec_of(kind=kind, **{**{name: OPTION_VALUES[name] for name in reads},
                                  **SMOKE[kind]})

    @pytest.mark.parametrize("kind,option", [(kind, option) for kind in READS
                                             for option in OPTION_VALUES
                                             if option not in READS[kind]])
    def test_unread_option_rejected(self, kind, option):
        with pytest.raises(BadConfig, match=f"^{kind} does not read {option}$"):
            spec_of(kind=kind, **SMOKE[kind], **{option: OPTION_VALUES[option]})

    def test_unread_options_named_together(self):
        with pytest.raises(BadConfig, match="^table1 does not read k0, rho$"):
            spec_of(kind="table1", p=40, rho=0.5, k0=7)

    def test_numpy_options_become_plain(self):
        cfg = DesignConfig(kind="k0_split", p=np.int64(30), k0=np.int16(20),
                           rho=np.float64(0.25), seed=np.uint64(7))
        assert cfg == DesignConfig(kind="k0_split", p=30, k0=20, rho=0.25, seed=7)
        assert [type(getattr(cfg, name)) for name in ("p", "k0", "rho", "seed")] == \
            [int, int, float, int]
        assert json.loads(json.dumps(cfg.to_json_dict()))["p"] == 30

    @pytest.mark.parametrize("option, value, message", [
        ("p", 5.7, "^p must be an integer, got 5.7$"),
        ("d", np.float64(2.0), r"^d must be an integer, got (np\.float64\()?2\.0\)?$"),
        ("rho", "high", "^rho must be a number, got 'high'$"),
    ])
    def test_non_plain_option_rejected(self, option, value, message):
        with pytest.raises(BadConfig, match=message):
            DesignConfig(kind="homog_lowrank", **{"p": 8, option: value})


class TestCheckDesign:
    """check_design checks a config alone and builds nothing until its build is called."""

    @pytest.mark.parametrize("kind", sorted(SMOKE))
    def test_builds_nothing(self, kind, monkeypatch):
        cfg = DesignConfig(kind=kind, **SMOKE[kind])
        monkeypatch.setattr(designs, "CovSpec", None)
        monkeypatch.setattr(designs, "np", None)
        build = check_design(cfg)
        monkeypatch.undo()
        spec, part = build()
        want_spec, want_part = gen_design(cfg)
        assert spec.content_hash == want_spec.content_hash
        assert part == want_part

    @pytest.mark.parametrize("kwargs", [
        dict(kind="homog_lowrank", p=7),
        dict(kind="homog_lowrank", p=4, d=9),
        dict(kind="homog_overlap", p=8, overlap_k=5),
        dict(kind="heterog_condA", p=8, d=1),
        dict(kind="heterog_violation", p=12),
        dict(kind="fullrank_equicorr", p=8),
        dict(kind="fullrank_equicorr", p=8, rho=-0.5),
        dict(kind="exchangeable_overlap", p=14, overlap_k=3),
        dict(kind="exchangeable_overlap", p=7, overlap_k=1, rho=-0.5),
        dict(kind="k0_split", p=10, k0=10),
        dict(kind="k0_split", p=10, k0=3, rho=1.0),
    ], ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()))
    def test_rejects_before_any_work(self, kwargs, monkeypatch):
        monkeypatch.setattr(designs, "CovSpec", None)
        monkeypatch.setattr(designs, "np", None)
        with pytest.raises(BadConfig):
            check_design(DesignConfig(**kwargs))


# content_hash of each kind at small points: the in-place factor builds must
# keep every bit.  The p = 600 points span three TILE-row norm tiles and, for
# heterog_condA, a half that is not a whole number of tiles.
GOLDEN = [
    (dict(kind="homog_lowrank", p=40, seed=0),
     "1b8580b14c731b291024b0d99e542eb0194ae3bc21482ffb3a3a8c1e5b60c833"),
    (dict(kind="homog_lowrank", p=600, d=3, seed=11),
     "4ac36f7fd17ec21bd3e319c50bcce713c9dbdddc71e7cf9584fdac8298565b26"),
    (dict(kind="homog_overlap", p=40, d=4, overlap_k=3, seed=1),
     "abd81533ffe283e563f97df396f629aac455fc5ebe32843788bfa70f8a532712"),
    (dict(kind="homog_overlap", p=600, d=7, overlap_k=20, seed=2),
     "d362e064b4a216a26f7f7f58fcfd0df281cb3c96d4cec6836d7c4edffd6611f5"),
    (dict(kind="heterog_condA", p=40, d=3, seed=0),
     "fa5c3b72ab3b717818379aa8c39bad20596342ac866599ddaab631b6f300e99b"),
    (dict(kind="heterog_condA", p=600, d=5, seed=3),
     "a23b562cbf05fb0ea561def867557b596dc2e93e29140af01ef3f161f4034f89"),
    (dict(kind="heterog_violation", p=16, seed=0),
     "f4ba6206ed1a0ebe26aa5b3fdd108177453e56e95e3efd0e50ce98faefd58b71"),
    (dict(kind="heterog_violation", p=32, variance_profile="v0875", seed=1),
     "5cc029cbd604e6dd5f24dd75c83ecc65b2c6973d42b370c6074dc78242ecbef8"),
    (dict(kind="fullrank_equicorr", p=10, rho=0.3, seed=0),
     "028b95c22fd4853a2419f6f6627d6e791082637bb6ff96e41a76b392e3d5f646"),
    (dict(kind="fullrank_equicorr", p=12, rho=-0.05, seed=4),
     "8b3bbe5316aece84b57d97f21578dfadc35dc7710850561fc77569fa43818f08"),
    (dict(kind="table1", p=40, seed=0),
     "5330a3c55d4469547c8ebc5aba5d2f9e89d43ad11d6f47b7da7dd0eb606998e1"),
    (dict(kind="table1", p=600, d=4, seed=5),
     "7e4d6abf5218468890e05a017717e9f02f614ed141442d5deb82606443766c27"),
    (dict(kind="exchangeable_overlap", p=10, overlap_k=2, rho=0.2, seed=0),
     "b9309f2f712b3925f86bd23e339fdb4bc49413923ae4b8572db7c8a220706590"),
    (dict(kind="exchangeable_overlap", p=9, overlap_k=3, seed=6),
     "7920d7c208c636180fcfa6d95e44756dbadd06fe86047ae20313fcc6381fd7e4"),
    (dict(kind="k0_split", p=10, k0=3, rho=0.4, seed=0),
     "77ad3ea5a41e2cc23c90d73b56370c8098c675ce4ce8bb6babf6e5ed9c08118e"),
    (dict(kind="k0_split", p=7, k0=2, seed=8),
     "fc1d50d7e6017b5d059ff47a48eeb1995951db7562c61063677a855727985278"),
]


class TestGolden:
    @pytest.mark.parametrize("kwargs, digest", GOLDEN,
                             ids=["-".join(map(str, kw.values())) for kw, _ in GOLDEN])
    def test_content_hash(self, kwargs, digest):
        spec, _ = spec_of(**kwargs)
        assert spec.content_hash == digest

    def test_every_kind_pinned(self):
        assert {kw["kind"] for kw, _ in GOLDEN} == set(KINDS)


class TestFactorBuildMemory:
    """A factor design draws, scales and hands over one p x d array.

    tracemalloc sees numpy's buffers.  Beside the factor, a build holds one
    ``TILE`` x d tile of squares for the row norms and ``CovSpec.factor``'s
    p x d finiteness mask (one byte per entry), about 1.2 factors in all; a
    second p x d float array (a rows-sized norm temporary, a scaled copy, a
    stacked copy, or the spec's copy of a writable factor) would reach 2.
    """

    P, D = 4096, 128

    @pytest.mark.parametrize("kind, extra", [
        ("homog_lowrank", {}),
        ("homog_overlap", {"overlap_k": 16}),
        ("heterog_condA", {}),
        ("table1", {}),
    ])
    def test_peak_near_one_factor(self, kind, extra):
        cfg = DesignConfig(kind=kind, p=self.P, d=self.D, seed=3, **extra)
        gen_design(cfg)
        tracemalloc.start()
        try:
            spec, _ = gen_design(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.gamma.shape == (self.P, self.D)
        assert peak <= 1.5 * spec.gamma.nbytes

    def test_table1_noise_held_as_handed_over(self, monkeypatch):
        # table1's noise sds, 1 / scale, reach the spec read-only and uncopied.
        handed, factor = [], CovSpec.factor
        monkeypatch.setattr(CovSpec, "factor", classmethod(
            lambda cls, gamma, **kw: handed.append(kw["noise"]) or factor(gamma, **kw)))
        spec, _ = gen_design(DesignConfig(kind="table1", p=40, seed=3))
        assert spec.noise is handed[0] and not spec.noise.flags.writeable
