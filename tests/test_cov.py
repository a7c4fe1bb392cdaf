import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxgap import (BadConfig, CovSpec, DimensionMismatch, NotPSD, Partition,
                    SingularBlock, ZeroVariance, check_conditions, residual_cov,
                    rho_bar, sample_max_diff, sqrt_factor)
from maxgap import cov
from maxgap.cov import (TILE, TOL_COND, TOL_CORR, TOL_PSD, TOL_SYM, ConditionReport, _corr,
                        _fold, cov_block, min_eigenvalue)
from maxgap.designs import KINDS, DesignConfig, gen_design

from conftest import footnote_factor, random_psd, spy_calls


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
        assert np.linalg.eigvalsh(spec.sigma)[0] == pytest.approx(0.0, abs=1e-12)

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
        assert CovSpec.factor(d["gamma"], d["mu"]).content_hash == spec.content_hash

    def test_json_roundtrip_explicit(self):
        sig = np.array([[2.0, 0.3], [0.3, 1.0]])
        d = json.loads(json.dumps(CovSpec.explicit(sig).to_json_dict()))
        assert d["form"] == "explicit"
        assert np.array_equal(d["sigma"], sig)

    def test_content_hash_sensitive(self):
        a = CovSpec.explicit(np.eye(2))
        b = CovSpec.explicit(np.eye(2), mu=[0.0, 1e-9])
        assert a.content_hash != b.content_hash

    def test_content_hash_separates_form_and_shape(self):
        # The same float64 bytes in another form or another shape.
        vals = np.arange(1.0, 7.0)
        tall = CovSpec.factor(vals[:3].reshape(3, 1), mu=vals[3:])
        square = CovSpec.factor(vals[:4].reshape(2, 2), mu=vals[4:])
        assert tall.content_hash != square.content_hash
        assert (CovSpec.factor(np.eye(2)).content_hash
                != CovSpec.explicit(np.eye(2)).content_hash)

    def test_inputs_are_copied_and_frozen(self):
        g = np.eye(2)
        spec = CovSpec.factor(g)
        g[0, 0] = 5.0
        assert spec.gamma[0, 0] == 1.0
        with pytest.raises(ValueError):
            spec.gamma[0, 0] = 2.0

    def test_noise_validated(self):
        g = np.ones((2, 1))
        with pytest.raises(DimensionMismatch):
            CovSpec.factor(g, noise=[1.0])
        for bad in ([1.0, -1.0], [1.0, np.nan], [1.0, np.inf]):
            with pytest.raises(BadConfig):
                CovSpec.factor(g, noise=bad)
        # Noise gives a zero factor row its variance; a zero row without it has none.
        spec = CovSpec.factor([[1.0], [0.0]], noise=[0.0, 2.0])
        assert np.array_equal(spec.variances, [1.0, 4.0])
        with pytest.raises(ZeroVariance) as err:
            CovSpec.factor([[1.0], [0.0]], noise=[1.0, 0.0])
        assert err.value.index == 1

    def test_json_roundtrip_noise(self):
        spec = CovSpec.factor([[1.0], [0.5]], mu=[0.0, 1.0], noise=[0.25, 0.0])
        d = json.loads(json.dumps(spec.to_json_dict()))
        assert CovSpec.factor(d["gamma"], d["mu"], d["noise"]).content_hash == spec.content_hash
        assert "noise" not in CovSpec.factor([[1.0]]).to_json_dict()

    def test_content_hash_cached_and_covers_noise(self):
        g = np.array([[1.0], [0.5]])
        spec = CovSpec.factor(g, noise=[0.5, 0.5])
        assert spec.content_hash is spec.content_hash
        assert spec.content_hash != CovSpec.factor(g).content_hash
        assert spec.content_hash != CovSpec.factor(g, noise=[0.5, 0.25]).content_hash


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

    def test_blocks_are_views_when_contiguous(self):
        # A = {1, 2, 3} in any order is a range; B = {0, 4, 5} is not.
        a, b = Partition((3, 1, 2), (0, 4, 5), 6).blocks
        assert a == slice(1, 4)
        assert b.tolist() == [0, 4, 5]
        assert Partition.split(6, 2).blocks == (slice(0, 2), slice(2, 6))

    def test_json_roundtrip(self):
        part = Partition((0, 2), (1, 3), 4)
        d = json.loads(json.dumps(part.to_json_dict()))
        assert Partition(tuple(d["a"]), tuple(d["b"]), d["p"]) == part

    def test_one_dimension_check(self):
        # Every layer that takes a partition raises the same DimensionMismatch.
        from maxgap import (DataMatrix, argmax_prob, bound_report, max_diff, run_bootstrap,
                            sample)
        spec, part = CovSpec.explicit(np.eye(4)), Partition.split(6, 3)
        data = np.random.default_rng(0).standard_normal((5, 4))
        calls = [lambda: rho_bar(spec, part), lambda: residual_cov(spec, part),
                 lambda: bound_report(spec, part),
                 lambda: sample_max_diff(spec, part, n_rep=10, seed=0),
                 lambda: max_diff(sample(spec, 10, seed=0), part),
                 lambda: argmax_prob(data, part),
                 lambda: run_bootstrap(DataMatrix(xi=data), part, b_reps=10, seed=0)]
        for call in calls:
            with pytest.raises(DimensionMismatch,
                               match="^partition is over 6 coordinates, expected 4$"):
                call()


class TestFootnoteDesign:
    """Rank-deficient 4-coordinate design: B spans the same plane as A."""

    def setup_method(self):
        self.spec = CovSpec.factor(footnote_factor())
        self.part = Partition.split(4, 2)

    def test_unit_variances(self):
        assert np.allclose(self.spec.variances, 1.0, atol=1e-12)

    def test_rank_two(self):
        lam = np.linalg.eigvalsh(_tiled_cov(self.spec))[0]
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
        stats = check_conditions(spec, part)
        assert stats.nu_a == pytest.approx(0.75)
        assert stats.nu_b == pytest.approx(0.75)
        assert stats.m_a == pytest.approx(-8.0667, abs=5e-4)
        assert stats.m_b == pytest.approx(-8.0667, abs=5e-4)

    def test_profile_v0875(self):
        cfg = DesignConfig(kind="heterog_violation", p=16, variance_profile="v0875")
        spec, part = gen_design(cfg)
        stats = check_conditions(spec, part)
        assert stats.nu_a == pytest.approx(0.875)
        assert stats.m_a == pytest.approx(-12.5857, abs=5e-4)

    def test_profile_scale_free(self):
        # The margins depend only on the profile, not on the dimension.
        small = check_conditions(*gen_design(
            DesignConfig(kind="heterog_violation", p=8, variance_profile="v075")))
        large = check_conditions(*gen_design(
            DesignConfig(kind="heterog_violation", p=64, variance_profile="v075")))
        assert small.nu_a == large.nu_a
        assert small.m_a == pytest.approx(large.m_a, abs=1e-9)

    def test_no_violations(self):
        spec, part = gen_design(DesignConfig(kind="fullrank_equicorr", p=4, rho=0.5))
        stats = check_conditions(spec, part)
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

    def test_singular_block_with_partial_noise_raises(self):
        # Coordinates 2 and 3 are copies without noise: min noise^2 over B is 0,
        # so the eigenvalues are computed and find the singular block.
        gamma = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        spec = CovSpec.factor(gamma, noise=[0.5, 0.5, 0.0, 0.0])
        with pytest.raises(SingularBlock) as err:
            residual_cov(spec, Partition.split(4, 2))
        assert err.value.which == "B"

    def test_noise_skips_eigenvalues_and_blocks(self, monkeypatch):
        # Noise on every coordinate bounds the rcond away from 0, so the
        # residuals come from Woodbury's identity: no eigenvalues, no solve and
        # no block of Sigma.  They are exactly symmetric and agree with the
        # Schur complements of the same matrix given explicitly to 1e-12 of
        # its largest entry.
        rng = np.random.default_rng(4)
        p = TILE + 40
        spec = CovSpec.factor(rng.standard_normal((p, 6)),
                              noise=0.1 + np.abs(rng.standard_normal(p)))
        part = Partition(tuple(range(0, p, 2)), tuple(range(1, p, 2)), p)
        want = residual_cov(CovSpec.explicit(_tiled_cov(spec)), part)
        linalg = spy_calls(monkeypatch, np.linalg, ("eigvalsh", "solve"))
        blocks = spy_calls(monkeypatch, cov, ("cov_block",))
        got = residual_cov(spec, part)
        assert linalg == [] and blocks == []
        for g, w in zip(got, want):
            assert np.array_equal(g, g.T)
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    def test_independent_blocks_identity(self):
        spec = CovSpec.explicit(np.eye(4))
        res_a, res_b = residual_cov(spec, Partition.split(4, 2))
        assert np.array_equal(res_a, np.eye(2))
        assert np.array_equal(res_b, np.eye(2))


@st.composite
def eigen_specs(draw):
    """Factor specs on every path of ``min_eigenvalue``.

    Noise specs may have zero loading rows, spread, repeated or constant
    noise, zero noise sds on up to d loaded rows, and d >= p.  Noise-free
    factors are full width (d >= p), the only ones the baseline's rank gate
    lets through.  Some specs span two ``TILE`` tiles.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = draw(st.one_of(st.integers(2, 12), st.integers(TILE - 8, TILE + 40)))
    scale = np.exp(0.5 * rng.standard_normal((p, 1)))
    if draw(st.booleans()):
        return CovSpec.factor(rng.standard_normal((p, p + draw(st.integers(0, 3)))) * scale)
    d = draw(st.integers(1, p + 2))
    gamma = rng.standard_normal((p, d)) * scale
    unloaded = rng.random(p) < draw(st.sampled_from((0.0, 0.2, 1.0)))
    gamma[unloaded] = 0.0
    style = draw(st.sampled_from(("spread", "repeated", "constant", "zeros")))
    if style == "repeated":
        noise = rng.choice(np.exp(rng.standard_normal(3)), size=p)
    elif style == "constant":
        noise = np.full(p, float(np.exp(rng.standard_normal())))
    else:
        noise = np.exp(0.5 * rng.standard_normal(p))
    if style == "zeros":
        loaded = np.flatnonzero(~unloaded)
        k = min(loaded.size, d, draw(st.integers(1, 3)))
        noise[rng.choice(loaded, size=k, replace=False)] = 0.0
    return CovSpec.factor(gamma, noise=noise)


class TestMinEigenvalue:
    @settings(max_examples=150, deadline=None)
    @given(spec=eigen_specs())
    def test_matches_eigvalsh_property(self, spec):
        # Within 1e-10 relative of eigvalsh on the tiled reference, plus that
        # reference's own rounding, about sqrt(p) eps lam_max: on an
        # ill-conditioned Sigma eigvalsh resolves lam_min no more finely.
        w = np.linalg.eigvalsh(_tiled_cov(spec))
        tol = 1e-10 * abs(w[0]) + math.sqrt(spec.p) * np.finfo(float).eps * w[-1]
        assert abs(min_eigenvalue(spec) - w[0]) <= tol

    def test_explicit_is_eigvalsh(self):
        sig = random_psd(np.random.default_rng(6), 7)
        assert min_eigenvalue(CovSpec.explicit(sig)) == np.linalg.eigvalsh(sig)[0]

    def test_unloaded_row_gives_its_noise_exactly(self):
        # Coordinate 2 has no loading: e_2 is an eigenvector with eigenvalue 0.25.
        gamma = np.array([[1.0, 0.5], [0.3, 1.0], [0.0, 0.0], [2.0, 1.0]])
        spec = CovSpec.factor(gamma, noise=[1.0, 1.0, 0.5, 1.0])
        assert min_eigenvalue(spec) == 0.25

    def test_collapsed_bracket_is_exact(self):
        # Constant noise with d < p: D_(1) = D_(d+1), so lam_min is that value.
        gamma = np.random.default_rng(7).standard_normal((6, 2))
        spec = CovSpec.factor(gamma, noise=np.full(6, 0.5))
        assert min_eigenvalue(spec) == 0.25

    def test_constant_noise_takes_singular_values(self):
        # Sigma - c^2 I = gamma gamma^T, so lam_min is c^2 plus the square of
        # gamma's smallest singular value.  This spec puts lam_min 1.7e-6
        # above the pole c^2, where a count on the core loses about 1e-9.
        rng = np.random.default_rng(262)
        p = d = 262
        scale = np.exp(0.5 * rng.standard_normal((p, 1)))
        gamma = rng.standard_normal((p, d)) * scale
        rng.random(p)
        c = float(np.exp(rng.standard_normal()))
        assert c == 0.42290459337195785
        spec = CovSpec.factor(gamma, noise=np.full(p, c))
        w = np.linalg.eigvalsh(_tiled_cov(spec))
        tol = 1e-10 * abs(w[0]) + math.sqrt(p) * np.finfo(float).eps * w[-1]
        assert abs(min_eigenvalue(spec) - w[0]) <= tol

    def test_count_on_a_pole(self, monkeypatch):
        # D = (1, 25, 49) with d = 2 brackets lam_min in [1, 49], whose
        # midpoint is the pole 25.  The count there keeps that row explicit,
        # a 3 x 3 eigh, so nothing is divided by zero; the counts away from
        # the poles are 2 x 2.
        gamma = np.array([[7.0, 1.0], [1.0, 5.0], [3.0, 3.0]])
        spec = CovSpec.factor(gamma, noise=[1.0, 5.0, 7.0])
        calls = spy_calls(monkeypatch, np.linalg, ("eigh",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = min_eigenvalue(spec)
        assert calls[0] == ("eigh", (3, 3))
        assert set(calls[1:]) == {("eigh", (2, 2))}
        want = np.linalg.eigvalsh(_tiled_cov(spec))[0]
        assert lam == pytest.approx(want, rel=1e-12)

    def test_noise_free_takes_singular_values(self, monkeypatch):
        # An ill-conditioned full-width factor: exactly the square of the
        # smallest singular value of gamma, with no eigensolver; zero when
        # d < p.
        rng = np.random.default_rng(8)
        gamma = rng.standard_normal((40, 40)) * np.exp(rng.standard_normal((40, 1)))
        want = np.linalg.svd(gamma, compute_uv=False)[-1] ** 2
        spec = CovSpec.factor(gamma)
        calls = spy_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh", "svd"))
        assert min_eigenvalue(spec) == want
        assert calls == [("svd", (40, 40))]
        assert min_eigenvalue(CovSpec.factor(gamma[:, :30])) == 0.0


@st.composite
def woodbury_designs(draw):
    """A factor spec with noise on every coordinate and a scattered partition."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = draw(st.one_of(st.integers(2, 12), st.integers(TILE + 1, TILE + 40)))
    d = draw(st.integers(1, 8))
    gamma = rng.standard_normal((p, d)) * np.exp(0.5 * rng.standard_normal((p, 1)))
    noise = np.exp(0.5 * rng.standard_normal(p))
    order = rng.permutation(p)
    k = draw(st.integers(1, p - 1))
    return CovSpec.factor(gamma, noise=noise), Partition(tuple(order[:k]), tuple(order[k:]), p)


class TestWoodburyProperty:
    @settings(max_examples=100, deadline=None)
    @given(design=woodbury_designs())
    def test_matches_dense_schur_property(self, design):
        # The Woodbury residuals against the dense Schur complements of the
        # same matrix given explicitly: exactly symmetric, and equal within
        # 1e-12 of the largest entry times the conditioning block's condition
        # number over 1e3, the rounding the dense solve carries.
        spec, part = design
        sig = _tiled_cov(spec)
        got = residual_cov(spec, part)
        a, b = part.a_idx, part.b_idx
        for res, keep, cond in ((got[0], a, b), (got[1], b, a)):
            assert cov._rcond_floor(spec, cond) >= cov.RCOND_MIN
            w = np.linalg.eigvalsh(sig[np.ix_(cond, cond)])
            want = _schur_reference(sig, keep, cond)
            assert np.array_equal(res, res.T)
            tol = 1e-12 * max(1.0, w[-1] / w[0] / 1e3) * np.max(np.abs(want))
            assert np.max(np.abs(res - want)) <= tol


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


def _noisy_factor(rng: np.random.Generator, p: int, d: int, repeats: int) -> CovSpec:
    """Factor plus noise: gamma of rank at most d with repeated rows, some noise sds zero."""
    gamma = (rng.standard_normal((p, d)) @ rng.standard_normal((d, d + 2))
             * np.exp(rng.standard_normal((p, 1))))
    for _ in range(repeats):
        src, dst = rng.integers(0, p, size=2)
        gamma[dst] = gamma[src]
    noise = np.abs(rng.standard_normal(p))
    noise[rng.random(p) < 0.3] = 0.0
    return CovSpec.factor(gamma, noise=noise)


@st.composite
def geometry_designs(draw):
    """A factor, factor-plus-noise or explicit spec with a scattered partition.

    Factor specs may be rank deficient and repeat rows, which puts perfectly
    correlated pairs across the partition; row scales spread the variances
    so the separation margins take both signs.  Some specs end at or just
    past a ``TILE`` edge, spanning up to three tiles.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = draw(st.one_of(st.integers(2, 10), st.integers(TILE - 1, TILE + 40),
                       st.integers(2 * TILE - 1, 2 * TILE + 1)))
    d = draw(st.integers(1, 8))
    repeats = draw(st.integers(0, 3))
    form = draw(st.sampled_from(("factor", "noise", "explicit")))
    if form == "noise":
        spec = _noisy_factor(rng, p, d, repeats)
    else:
        gamma = rng.standard_normal((p, d)) * np.exp(rng.standard_normal((p, 1)))
        for _ in range(repeats):
            src, dst = rng.integers(0, p, size=2)
            gamma[dst] = gamma[src]
        if form == "factor":
            spec = CovSpec.factor(gamma)
        else:
            sig = gamma @ gamma.T
            spec = CovSpec.explicit((sig + sig.T) * 0.5)
    order = rng.permutation(p)
    k = draw(st.integers(1, p - 1))
    return spec, Partition(tuple(order[:k]), tuple(order[k:]), p)


def _tiled_cov(spec: CovSpec) -> np.ndarray:
    """Sigma of a factor spec from TILE-row tiles of gamma, the documented layout."""
    g, p, t = spec.gamma, spec.p, TILE
    sig = np.empty((p, p))
    for i in range(0, p, t):
        for j in range(i, p, t):
            tile = g[i:i + t] @ g[j:j + t].T
            if i == j:
                tile = (tile + tile.T) * 0.5
                tile[np.diag_indices_from(tile)] = spec.variances[i:i + t]
            sig[i:i + t, j:j + t] = tile
            sig[j:j + t, i:i + t] = tile.T
    return sig


def _full_cov(spec: CovSpec) -> np.ndarray:
    """The p x p matrix of any spec: sigma, or the tiled reference of a factor."""
    return spec.sigma if spec.gamma is None else _tiled_cov(spec)


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
        sig = _full_cov(spec)
        idx = np.arange(spec.p)
        assert cov_block(spec, idx, idx).tobytes() == sig.tobytes()
        (ok_a, c_a), (ok_b, c_b), (c_ab, s_set), rbar, perfect, side_a, side_b = \
            _full_margin_reference(sig, part)
        rep = check_conditions(spec, part)
        assert (rep.cond_a_holds, rep.cond_b_holds, rep.s_set) == (ok_a, ok_b, s_set)
        assert _bits(rep.c_a, rep.c_b, rep.c_ab, rep.rho_bar) == _bits(c_a, c_b, c_ab, rbar)
        assert rep.has_perfect_cross_corr == perfect
        assert _bits(rho_bar(spec, part)) == _bits(rep.rho_bar)
        assert (rep.v_a, rep.v_b) == (side_a[0], side_b[0])
        assert (_bits(rep.nu_a, rep.m_a, rep.nu_b, rep.m_b)
                == _bits(*side_a[1:], *side_b[1:]))

    @settings(max_examples=100, deadline=None)
    @given(design=geometry_designs())
    def test_fold_equals_block_reference_property(self, design):
        # The report, rho_bar and the threshold bound's best correlation of
        # each coordinate, against blocks read through cov_block and scaled
        # by _corr: every entry is the same float, and a maximum is exact.
        spec, part = design
        a, b, sd = part.a_idx, part.b_idx, spec.sds
        ab = cov_block(spec, a, b)
        corr = _corr(ab, sd[a], sd[b])
        norms = [float(np.max(cov_block(spec, s, s) / sd[s][:, None] ** 2)) for s in (a, b)]

        def direction(inner, margin_block):
            norm_ok = norms[0 if inner is a else 1] <= 1.0 + TOL_COND
            margins = sd[inner] - np.max(margin_block, axis=1) / sd[inner]
            viol = margins <= 0.0
            m = float(margins[viol].mean()) if viol.any() else float("nan")
            c = float(np.min(margins))
            return bool(norm_ok and c > 0.0), c, tuple(int(i) for i in inner[viol]), \
                float(viol.mean()), m

        cond_a, c_a, v_b, nu_b, m_b = direction(b, ab.T)
        cond_b, c_b, v_a, nu_a, m_a = direction(a, ab)
        holding = sorted(((c, s) for ok, c, s in ((cond_a, c_a, "B"), (cond_b, c_b, "A"))
                          if ok), key=lambda t: -t[0])
        rbar = float(np.clip(np.max(corr), -1.0, 1.0))
        want = ConditionReport(cond_a, cond_b, c_a, c_b,
                               holding[0][0] if holding else float("nan"),
                               tuple(s for _, s in holding), rbar,
                               float(np.max(np.abs(corr))) >= 1.0 - TOL_CORR,
                               v_a, v_b, nu_a, nu_b, m_a, m_b)
        assert repr(check_conditions(spec, part)) == repr(want)
        assert _bits(rho_bar(spec, part)) == _bits(rbar)
        best = _fold(spec, part, within=False)[1]
        assert best[a].tobytes() == corr.max(axis=1).tobytes()
        assert best[b].tobytes() == corr.T.max(axis=1).tobytes()
        # The within-block maxima themselves, beyond the one bit norm_ok keeps.
        assert _bits(*_fold(spec, part, within=True)[3]) == _bits(*norms)


# Small configs of every design kind; "noise" is a factor plus noise with a
# rank-deficient gamma and repeated rows.
KIND_CONFIGS = {
    "homog_lowrank": {}, "homog_overlap": {"overlap_k": 3}, "heterog_condA": {},
    "heterog_violation": {}, "fullrank_equicorr": {"rho": 0.3}, "table1": {},
    "exchangeable_overlap": {"overlap_k": 2}, "k0_split": {"k0": 5},
}


@st.composite
def block_requests(draw):
    """A spec over one to three tiles, and row and column index arrays for a block.

    An index array is either a run that may cross tile edges or scattered
    indices in any order, with repeats.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = draw(st.sampled_from((16, TILE + 16, 2 * TILE + 16)))
    kind = draw(st.sampled_from(KINDS + ("noise",)))
    if kind == "noise":
        spec = _noisy_factor(rng, p, draw(st.integers(1, 6)), draw(st.integers(0, 3)))
    else:
        spec, _ = gen_design(DesignConfig(kind=kind, p=p, seed=draw(st.integers(0, 99)),
                                          **KIND_CONFIGS[kind]))

    def index() -> np.ndarray:
        if draw(st.booleans()):
            lo = draw(st.integers(0, spec.p - 1))
            return np.arange(lo, min(lo + draw(st.integers(1, 2 * TILE)), spec.p))
        return rng.integers(0, spec.p, size=draw(st.integers(1, 40)))

    return spec, index(), index()


class TestCovBlock:
    def test_kinds_covered(self):
        assert set(KIND_CONFIGS) == set(KINDS)

    @settings(max_examples=60, deadline=None)
    @given(req=block_requests())
    def test_block_equals_matrix_entries_property(self, req):
        spec, rows, cols = req
        block = cov_block(spec, rows, cols)
        assert block.shape == (rows.size, cols.size)
        assert block.tobytes() == _full_cov(spec)[np.ix_(rows, cols)].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(req=block_requests())
    def test_diagonal_is_variances_property(self, req):
        # Every design kind and noise specs: the diagonal of any square block
        # is spec.variances, the one source of every sd.
        spec, rows, _ = req
        idx = np.arange(spec.p)
        assert np.diag(cov_block(spec, idx, idx)).tobytes() == spec.variances.tobytes()
        assert np.diag(cov_block(spec, rows, rows)).tobytes() == spec.variances[rows].tobytes()
        assert np.sqrt(np.diag(_full_cov(spec))).tobytes() == spec.sds.tobytes()


def _schur_reference(sig: np.ndarray, keep: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """Residual covariance of keep given cond, every block read off sig."""
    cross = sig[np.ix_(cond, keep)]
    res = sig[np.ix_(keep, keep)] - cross.T @ np.linalg.solve(sig[np.ix_(cond, cond)], cross)
    return (res + res.T) * 0.5


class TestExplicitSymmetry:
    def test_exactly_symmetric_input_stored_as_is(self):
        rng = np.random.default_rng(2)
        for p in (2, 7, 40):
            sig = random_psd(rng, p, rank=max(1, p // 2))
            spec = CovSpec.explicit(sig)
            assert spec.sigma.tobytes() == sig.tobytes()
            assert not spec.sigma.flags.writeable

    def test_symmetric_input_checked_without_float_temporaries(self, monkeypatch):
        # An exactly symmetric matrix is checked by one comparison with its
        # transpose: besides its stored copy, one p x p boolean mask, no
        # difference, absolute value or symmetrization (each 8 p^2 bytes).
        # The factoring is stubbed out, so the peak is the check's own.
        monkeypatch.setattr(cov, "sqrt_factor", lambda sigma: sigma[:, :1])
        sig = random_psd(np.random.default_rng(3), 300)
        tracemalloc.start()
        try:
            spec = CovSpec.explicit(sig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.sigma.tobytes() == sig.tobytes()
        assert peak < 1.5 * sig.nbytes

    def test_asymmetry_beyond_tolerance_rejected(self):
        sig = random_psd(np.random.default_rng(5), 6)
        sig[1, 4] += 1.5 * TOL_SYM
        with pytest.raises(BadConfig):
            CovSpec.explicit(sig)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(2, 12))
    def test_asymmetric_within_tolerance_symmetrized_property(self, seed, p):
        # An input asymmetric by less than TOL_SYM is stored as its
        # symmetrization; the geometry, which reads Sigma[B, A] as the
        # transpose of Sigma[A, B], then matches the full-margin reference
        # that reads every block of the stored matrix.
        rng = np.random.default_rng(seed)
        scale = np.exp(rng.standard_normal(p) * 0.5)
        sig = random_psd(rng, p) * np.outer(scale, scale)
        sig = (sig + sig.T) * 0.5
        sig += np.triu(rng.uniform(-0.4, 0.4, (p, p)) * TOL_SYM, 1)
        spec = CovSpec.explicit(sig)
        assert spec.sigma.tobytes() == ((sig + sig.T) * 0.5).tobytes()
        assert np.array_equal(spec.sigma, spec.sigma.T)
        order = rng.permutation(p)
        k = int(rng.integers(1, p))
        part = Partition(tuple(order[:k]), tuple(order[k:]), p)
        (ok_a, c_a), (ok_b, c_b), (c_ab, s_set), rbar, _, side_a, side_b = \
            _full_margin_reference(spec.sigma, part)
        rep = check_conditions(spec, part)
        assert (rep.cond_a_holds, rep.cond_b_holds, rep.s_set) == (ok_a, ok_b, s_set)
        assert _bits(rep.c_a, rep.c_b, rep.c_ab, rep.rho_bar) == _bits(c_a, c_b, c_ab, rbar)
        assert (rep.v_a, rep.v_b) == (side_a[0], side_b[0])
        assert _bits(rep.nu_a, rep.m_a, rep.nu_b, rep.m_b) == _bits(*side_a[1:], *side_b[1:])
        res_a, res_b = residual_cov(spec, part)
        a, b = part.a_idx, part.b_idx
        assert res_a.tobytes() == _schur_reference(spec.sigma, a, b).tobytes()
        assert res_b.tobytes() == _schur_reference(spec.sigma, b, a).tobytes()
