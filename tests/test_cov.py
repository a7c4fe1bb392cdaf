import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxgap import (BadConfig, CovSpec, DimensionMismatch, NotPSD, Partition,
                    SingularBlock, ZeroVariance, check_conditions, residual_cov,
                    rho_bar, sample_max_diff, sqrt_factor, violation_stats)
from maxgap.cov import TOL_COND, TOL_CORR, TOL_PSD
from maxgap.designs import DesignConfig, gen_design

from conftest import footnote_factor, random_psd


class TestCovSpec:
    def test_factor_basic(self):
        spec = CovSpec.factor(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert spec.form == "factor"
        assert spec.p == 2
        assert np.allclose(spec.variances, [1.0, 0.5])
        assert np.array_equal(spec.mu, [0.0, 0.0])

    def test_explicit_basic(self):
        spec = CovSpec.explicit(np.eye(3), mu=[1.0, 2.0, 3.0])
        assert spec.form == "explicit"
        assert np.array_equal(spec.variances, np.ones(3))
        assert np.array_equal(spec.mu, [1.0, 2.0, 3.0])

    def test_zero_variance_row_rejected(self):
        with pytest.raises(ZeroVariance) as err:
            CovSpec.factor(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert err.value.index == 1

    def test_zero_variance_diag_rejected(self):
        sig = np.eye(2)
        sig[1, 1] = 0.0
        with pytest.raises(ZeroVariance):
            CovSpec.explicit(sig)

    def test_asymmetric_rejected(self):
        sig = np.array([[1.0, 0.5], [0.3, 1.0]])
        with pytest.raises(BadConfig):
            CovSpec.explicit(sig)

    def test_indefinite_rejected(self):
        sig = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPSD):
            CovSpec.explicit(sig)

    def test_small_scale_near_psd_samples(self):
        # Smallest eigenvalue -5e-9, inside the floor -1e-8 * max(1, max diag).
        sig = np.array([[1e-3, 1e-3 + 5e-9], [1e-3 + 5e-9, 1e-3]])
        spec = CovSpec.explicit(sig)
        assert sample_max_diff(spec, Partition.split(2, 1), 10, seed=0).n_rep == 10

    @settings(max_examples=100, deadline=None)
    @given(p=st.integers(2, 6), scale_exp=st.integers(-6, 1),
           frac=st.floats(0.0, 2.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_constructs_exactly_when_samples_property(self, p, scale_exp, frac, seed):
        # A rank-deficient matrix shifted down by frac times the PSD floor, so
        # its smallest eigenvalue lands on either side of it.
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((p, p - 1))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        scale = 10.0 ** scale_exp
        sig = scale * (g @ g.T)
        sig = (sig + sig.T) * 0.5 - np.eye(p) * frac * TOL_PSD * max(1.0, scale)
        try:
            spec = CovSpec.explicit(sig)
        except NotPSD:
            return
        assert sample_max_diff(spec, Partition.split(p, 1), 8, seed=0).n_rep == 8

    def test_singular_explicit_allowed(self):
        sig = np.ones((3, 3))
        spec = CovSpec.explicit(sig)
        assert np.linalg.eigvalsh(spec.cov)[0] == pytest.approx(0.0, abs=1e-12)

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            CovSpec.explicit(np.ones((2, 3)))

    def test_mean_length_checked(self):
        with pytest.raises(DimensionMismatch):
            CovSpec.factor(np.eye(2), mu=[0.0, 0.0, 0.0])

    def test_json_roundtrip_factor(self):
        # The JSON that gen-design writes rebuilds the model bit for bit.
        spec = CovSpec.factor(np.array([[1.0, 0.25], [0.0, 2.0]]), mu=[0.5, -1.0])
        d = json.loads(json.dumps(spec.to_json_dict()))
        assert d["form"] == "factor"
        assert CovSpec.factor(d["gamma"], d["mu"]).content_hash() == spec.content_hash()

    def test_json_roundtrip_explicit(self):
        sig = np.array([[2.0, 0.3], [0.3, 1.0]])
        d = json.loads(json.dumps(CovSpec.explicit(sig).to_json_dict()))
        assert d["form"] == "explicit"
        assert np.array_equal(d["sigma"], sig)

    def test_content_hash_sensitive(self):
        a = CovSpec.explicit(np.eye(2))
        b = CovSpec.explicit(np.eye(2), mu=[0.0, 1e-9])
        assert a.content_hash() != b.content_hash()

    def test_content_hash_separates_form_and_shape(self):
        # The same float64 bytes in another form or another shape.
        vals = np.arange(1.0, 7.0)
        tall = CovSpec.factor(vals[:3].reshape(3, 1), mu=vals[3:])
        square = CovSpec.factor(vals[:4].reshape(2, 2), mu=vals[4:])
        assert tall.content_hash() != square.content_hash()
        assert (CovSpec.factor(np.eye(2)).content_hash()
                != CovSpec.explicit(np.eye(2)).content_hash())

    def test_inputs_are_copied_and_frozen(self):
        g = np.eye(2)
        spec = CovSpec.factor(g)
        g[0, 0] = 5.0
        assert spec.gamma[0, 0] == 1.0
        with pytest.raises(ValueError):
            spec.gamma[0, 0] = 2.0


class TestPartition:
    def test_split(self):
        part = Partition.split(5, 2)
        assert part.a_set == (0, 1)
        assert part.b_set == (2, 3, 4)

    def test_split_bounds(self):
        with pytest.raises(BadConfig):
            Partition.split(4, 0)
        with pytest.raises(BadConfig):
            Partition.split(4, 4)

    @pytest.mark.parametrize("a,b,p", [
        ((), (0, 1), 2),
        ((0,), (1,), 3),
        ((0, 1), (1, 2), 3),
        ((0, 0), (1,), 2),
    ])
    def test_invalid_partitions(self, a, b, p):
        with pytest.raises(BadConfig):
            Partition(a, b, p)

    def test_json_roundtrip(self):
        part = Partition((0, 2), (1, 3), 4)
        d = json.loads(json.dumps(part.to_json_dict()))
        assert Partition(tuple(d["a"]), tuple(d["b"]), d["p"]) == part


class TestFootnoteDesign:
    """Rank-deficient 4-coordinate design: B spans the same plane as A."""

    def setup_method(self):
        self.spec = CovSpec.factor(footnote_factor())
        self.part = Partition.split(4, 2)

    def test_unit_variances(self):
        assert np.allclose(self.spec.variances, 1.0, atol=1e-12)

    def test_rank_two(self):
        lam = np.linalg.eigvalsh(self.spec.cov)[0]
        assert abs(lam) <= 1e-12

    def test_rho_bar_is_inv_sqrt2(self):
        assert rho_bar(self.spec, self.part) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_residuals_vanish(self):
        res_a, res_b = residual_cov(self.spec, self.part)
        assert np.allclose(res_a, 0.0, atol=1e-12)
        assert np.allclose(res_b, 0.0, atol=1e-12)

    def test_conditions_hold(self):
        rep = check_conditions(self.spec, self.part)
        assert rep.cond_a_holds and rep.cond_b_holds
        assert rep.c_a == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-12)
        assert not rep.has_perfect_cross_corr


class TestConditions:
    def test_equicorr_margin(self):
        cfg = DesignConfig(kind="fullrank_equicorr", p=4, rho=0.9)
        spec, part = gen_design(cfg)
        rep = check_conditions(spec, part)
        assert rep.cond_a_holds and rep.cond_b_holds
        assert rep.c_a == pytest.approx(0.1, abs=1e-12)
        assert rep.c_ab == pytest.approx(0.1, abs=1e-12)
        assert rep.rho_bar == pytest.approx(0.9, abs=1e-12)
        assert rep.s_set[0] in ("A", "B")

    def test_asymmetric_direction(self):
        # Cross covariance 0.08 exceeds the A variances (0.04), so the margin
        # for the direction that normalizes A goes negative while the other
        # direction keeps a healthy margin.
        sig = np.array([
            [0.04, 0.0, 0.08, 0.08],
            [0.0, 0.04, 0.08, 0.08],
            [0.08, 0.08, 1.0, 0.5],
            [0.08, 0.08, 0.5, 1.0],
        ])
        spec = CovSpec.explicit(sig)
        rep = check_conditions(spec, Partition.split(4, 2))
        assert rep.cond_a_holds
        assert not rep.cond_b_holds
        assert rep.s_set == ("B",)
        assert rep.c_ab == rep.c_a
        assert rep.c_a == pytest.approx(0.92, abs=1e-12)

    def test_neither_direction(self):
        cfg = DesignConfig(kind="heterog_violation", p=8, variance_profile="v075")
        spec, part = gen_design(cfg)
        rep = check_conditions(spec, part)
        assert not rep.cond_a_holds and not rep.cond_b_holds
        assert rep.s_set == ()
        assert math.isnan(rep.c_ab)

    def test_perfect_cross_corr_flag(self):
        gamma = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        spec = CovSpec.factor(gamma)
        rep = check_conditions(spec, Partition.split(3, 2))
        assert rep.has_perfect_cross_corr
        assert rep.rho_bar == pytest.approx(1.0)


class TestViolationStats:
    def test_profile_v075(self):
        cfg = DesignConfig(kind="heterog_violation", p=8, variance_profile="v075")
        spec, part = gen_design(cfg)
        stats = violation_stats(spec, part)
        assert stats.nu_a == pytest.approx(0.75)
        assert stats.nu_b == pytest.approx(0.75)
        assert stats.m_a == pytest.approx(-8.0667, abs=5e-4)
        assert stats.m_b == pytest.approx(-8.0667, abs=5e-4)

    def test_profile_v0875(self):
        cfg = DesignConfig(kind="heterog_violation", p=16, variance_profile="v0875")
        spec, part = gen_design(cfg)
        stats = violation_stats(spec, part)
        assert stats.nu_a == pytest.approx(0.875)
        assert stats.m_a == pytest.approx(-12.5857, abs=5e-4)

    def test_profile_scale_free(self):
        # The margins depend only on the profile, not on the dimension.
        small = violation_stats(*gen_design(
            DesignConfig(kind="heterog_violation", p=8, variance_profile="v075")))
        large = violation_stats(*gen_design(
            DesignConfig(kind="heterog_violation", p=64, variance_profile="v075")))
        assert small.nu_a == large.nu_a
        assert small.m_a == pytest.approx(large.m_a, abs=1e-9)

    def test_no_violations(self):
        spec, part = gen_design(DesignConfig(kind="fullrank_equicorr", p=4, rho=0.5))
        stats = violation_stats(spec, part)
        assert stats.v_a == () and stats.v_b == ()
        assert stats.nu_a == 0.0
        assert math.isnan(stats.m_a)


class TestResidualCov:
    def test_equicorr_schur(self):
        # Equicorrelated rho, blocks of 2: conditioning on the other block
        # leaves variance 1 - 2 rho^2 / (1 + rho).
        rho = 0.5
        spec, part = gen_design(DesignConfig(kind="fullrank_equicorr", p=4, rho=rho))
        res_a, res_b = residual_cov(spec, part)
        expected_var = 1.0 - 2.0 * rho * rho / (1.0 + rho)
        assert np.allclose(np.diag(res_a), expected_var, atol=1e-12)
        assert np.allclose(res_a, res_b, atol=1e-12)

    def test_diag_contraction(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = int(rng.integers(4, 12))
            sig = random_psd(rng, p)
            spec = CovSpec.explicit(sig)
            part = Partition.split(p, int(rng.integers(1, p)))
            res_a, res_b = residual_cov(spec, part)
            assert np.all(np.diag(res_a) <= sig.diagonal()[part.a_idx] + 1e-10)
            assert np.all(np.diag(res_b) <= sig.diagonal()[part.b_idx] + 1e-10)
            assert np.all(np.linalg.eigvalsh(res_a) >= -1e-8)

    def test_singular_block_raises(self):
        # Coordinates 2 and 3 are copies, so the B block cannot be inverted.
        gamma = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        spec = CovSpec.factor(gamma)
        with pytest.raises(SingularBlock) as err:
            residual_cov(spec, Partition.split(4, 2))
        assert err.value.which == "B"

    def test_independent_blocks_identity(self):
        spec = CovSpec.explicit(np.eye(4))
        res_a, res_b = residual_cov(spec, Partition.split(4, 2))
        assert np.array_equal(res_a, np.eye(2))
        assert np.array_equal(res_b, np.eye(2))


class TestSqrtFactor:
    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = int(rng.integers(2, 50))
            rank = int(rng.integers(1, p + 1))
            sig = random_psd(rng, p, rank)
            ell = sqrt_factor(sig)
            err = np.max(np.abs(ell @ ell.T - sig))
            assert err <= 1e-8 * max(1.0, sig.diagonal().max())

    def test_rank_clipping(self):
        sig = np.ones((3, 3))
        ell = sqrt_factor(sig)
        assert ell.shape == (3, 1)

    def test_indefinite_raises(self):
        with pytest.raises(NotPSD):
            sqrt_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_spec_root_cached_read_only(self):
        sig = np.array([[2.0, 1.0], [1.0, 2.0]])
        spec = CovSpec.explicit(sig)
        assert spec.root is spec.root
        assert np.array_equal(spec.root, sqrt_factor(sig))
        assert not spec.root.flags.writeable
        gamma = np.array([[1.0], [2.0]])
        assert np.array_equal(CovSpec.factor(gamma).root, gamma)


class TestRhoBar:
    def test_signed_maximum(self):
        # Strong negative correlation must not dominate: rho_bar is signed.
        sig = np.array([[1.0, -0.9], [-0.9, 1.0]])
        spec = CovSpec.explicit(sig)
        assert rho_bar(spec, Partition.split(2, 1)) == pytest.approx(-0.9)

    def test_clipped_at_one(self):
        gamma = np.array([[1.0], [1.0]])
        spec = CovSpec.factor(gamma)
        assert rho_bar(spec, Partition.split(2, 1)) == 1.0

    def test_partition_dim_checked(self):
        spec = CovSpec.explicit(np.eye(3))
        with pytest.raises(DimensionMismatch):
            rho_bar(spec, Partition.split(4, 2))


@st.composite
def geometry_designs(draw):
    """A factor or explicit spec with a scattered partition.

    Factor specs may be rank deficient and repeat rows, which puts perfectly
    correlated pairs across the partition; row scales spread the variances
    so the separation margins take both signs.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p, d = draw(st.integers(2, 10)), draw(st.integers(1, 8))
    gamma = rng.standard_normal((p, d)) * np.exp(rng.standard_normal((p, 1)))
    for _ in range(draw(st.integers(0, 3))):
        src, dst = rng.integers(0, p, size=2)
        gamma[dst] = gamma[src]
    if draw(st.booleans()):
        spec = CovSpec.factor(gamma)
    else:
        sig = gamma @ gamma.T
        spec = CovSpec.explicit((sig + sig.T) * 0.5)
    order = rng.permutation(p)
    k = draw(st.integers(1, p - 1))
    return spec, Partition(tuple(order[:k]), tuple(order[k:]), p)


def _full_margin_reference(sig, part):
    """Conditions and violation stats read off the full margin matrices."""
    sd = np.sqrt(np.diag(sig))
    a, b = part.a_idx, part.b_idx

    def margins(own, other):
        return sd[own][:, None] - sig[np.ix_(own, other)] / sd[own][:, None]

    def direction(inner, outer):
        norm_ok = np.max(sig[np.ix_(inner, inner)] / sd[inner][:, None] ** 2) <= 1.0 + TOL_COND
        c = float(np.min(margins(inner, outer)))
        return bool(norm_ok and c > 0.0), c

    def side(own, other):
        row = np.min(margins(own, other), axis=1)
        mask = row <= 0.0
        m = float(row[mask].mean()) if mask.any() else float("nan")
        return tuple(int(i) for i in own[mask]), float(mask.mean()), m

    (ok_a, c_a), (ok_b, c_b) = direction(b, a), direction(a, b)
    if ok_a and ok_b:
        choice = (max(c_a, c_b), ("B", "A") if c_a >= c_b else ("A", "B"))
    elif ok_a or ok_b:
        choice = (c_a, ("B",)) if ok_a else (c_b, ("A",))
    else:
        choice = (float("nan"), ())
    cross = sig[np.ix_(a, b)] / np.outer(sd[a], sd[b])
    rbar = float(np.clip(np.max(cross), -1.0, 1.0))
    perfect = float(np.max(np.abs(cross))) >= 1.0 - TOL_CORR
    return (ok_a, c_a), (ok_b, c_b), choice, rbar, perfect, side(a, b), side(b, a)


def _bits(*xs):
    return np.array(xs, dtype=float).tobytes()


class TestGeometryProperty:
    @settings(max_examples=200, deadline=None)
    @given(design=geometry_designs())
    def test_conditions_and_violations_match_full_margins(self, design):
        spec, part = design
        assert spec.cov is spec.cov
        assert not spec.cov.flags.writeable
        if spec.gamma is not None:
            gg = spec.gamma @ spec.gamma.T
            assert np.array_equal(spec.cov, (gg + gg.T) * 0.5)
        else:
            assert spec.cov is spec.sigma
        (ok_a, c_a), (ok_b, c_b), (c_ab, s_set), rbar, perfect, side_a, side_b = \
            _full_margin_reference(spec.cov, part)
        rep = check_conditions(spec, part)
        assert (rep.cond_a_holds, rep.cond_b_holds, rep.s_set) == (ok_a, ok_b, s_set)
        assert _bits(rep.c_a, rep.c_b, rep.c_ab, rep.rho_bar) == _bits(c_a, c_b, c_ab, rbar)
        assert rep.has_perfect_cross_corr == perfect
        assert _bits(rho_bar(spec, part)) == _bits(rep.rho_bar)
        stats = violation_stats(spec, part)
        assert (stats.v_a, stats.v_b) == (side_a[0], side_b[0])
        assert (_bits(stats.nu_a, stats.m_a, stats.nu_b, stats.m_b)
                == _bits(*side_a[1:], *side_b[1:]))
