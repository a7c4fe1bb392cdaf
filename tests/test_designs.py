import json
import math

import numpy as np
import pytest

from maxgap import BadConfig, check_conditions, rho_bar
from maxgap.cov import cov_block
from maxgap.designs import KINDS, VARIANCE_PROFILES, DesignConfig, gen_design


def spec_of(**kwargs):
    return gen_design(DesignConfig(**kwargs))


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
        smoke = {
            "homog_lowrank": dict(p=8),
            "homog_overlap": dict(p=8, overlap_k=1),
            "heterog_condA": dict(p=8),
            "heterog_violation": dict(p=8),
            "fullrank_equicorr": dict(p=8, rho=0.2),
            "table1": dict(p=8),
            "exchangeable_overlap": dict(p=7, overlap_k=1),
            "k0_split": dict(p=8, k0=3),
        }
        assert set(smoke) == set(KINDS)
        for kind, kwargs in smoke.items():
            spec, part = spec_of(kind=kind, **kwargs)
            assert spec.p == len(part.a_set) + len(part.b_set)
