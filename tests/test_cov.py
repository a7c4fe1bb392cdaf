import hashlib
import json
import math
import re
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
from maxgap.cov import (TILE, TOL_COND, TOL_CORR, TOL_PSD, TOL_SYM, ConditionReport,
                        _fold, cov_block, min_eigenvalue)
from maxgap.designs import KINDS, DesignConfig, gen_design

from conftest import footnote_factor, random_psd, run_python, spy_calls


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

    def test_misshapen_and_non_finite_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            CovSpec.factor(np.ones((2, 2, 2)))
        with pytest.raises(BadConfig):
            CovSpec.factor([[1.0], [np.nan]])
        with pytest.raises(BadConfig):
            CovSpec.explicit([[1.0, 0.0], [0.0, np.inf]])
        with pytest.raises(BadConfig):
            CovSpec.explicit(np.eye(2), mu=[0.0, np.nan])

    def test_indefinite_rejected(self):
        sig = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPSD):
            CovSpec.explicit(sig)

    def test_small_scale_near_psd_samples(self):
        # Smallest eigenvalue -5e-9, inside the floor -1e-8 * max(1, max diag).
        sig = np.array([[1e-3, 1e-3 + 5e-9], [1e-3 + 5e-9, 1e-3]])
        spec = CovSpec.explicit(sig)
        assert sample_max_diff(spec, Partition.split(2, 1), 10, seed=0).shape == (10,)

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
        assert sample_max_diff(spec, Partition.split(p, 1), 8, seed=0).shape == (8,)

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

    def test_content_hash_golden(self):
        # The digest format is pinned: form, then each array's shape and
        # little-endian float64 bytes, whatever the memory order of the input.
        gamma = [[1.0, 0.5], [0.0, 2.0], [-1.5, 0.25]]
        want = "c48d136cc2beb92b0061808762bb8fe79001ece51052eca9aff640bd366b58fa"
        for g in (np.array(gamma), np.asfortranarray(gamma)):
            spec = CovSpec.factor(g, mu=[0.0, 1.0, -2.0], noise=[0.5, 0.0, 1.0])
            assert spec.content_hash == want
        spec = CovSpec.explicit([[2.0, 0.5], [0.5, 1.0]], mu=[1.0, -1.0])
        assert spec.content_hash == (
            "649be024b86077d3dd041cbe0b9d86739153523322a3f0d616c949116e610d5f")

    def test_content_hash_reads_the_arrays_in_place(self):
        # sha256 reads each array's own buffer: no copy of a 500 x 500 sigma.
        spec = CovSpec.explicit(np.eye(500))
        tracemalloc.start()
        try:
            spec.content_hash
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 500 * 500 // 10


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

    @pytest.mark.parametrize("a,bad", [
        ((0, 1.5), 1.5),
        (np.array([0.0, 1.9]), np.float64(0.0)),
        (("0", 1), "0"),
    ], ids=["float", "float_array", "string"])
    def test_non_integer_index_named(self, a, bad):
        # operator.index, not int(): each of these was truncated to A = (0, 1).
        message = f"partition index must be an integer, got {bad!r}"
        with pytest.raises(BadConfig, match=re.escape(message)):
            Partition(a, (2, 3), 4)

    def test_integer_arrays_accepted(self):
        part = Partition(np.array([1, 0]), np.arange(2, 4), np.int64(4))
        assert part == Partition((1, 0), (2, 3), 4)
        assert {type(i) for i in part.a_set + part.b_set + (part.p,)} == {int}

    def test_index_outside_range_named(self):
        with pytest.raises(BadConfig, match=re.escape("partition index 5 outside [0, 4)")):
            Partition((0, 5), (1, 2, 3), 4)
        with pytest.raises(BadConfig, match=re.escape("partition index -1 outside [0, 4)")):
            Partition((0, 1, 2, 3), (-1,), 4)

    def test_split_point_must_be_an_integer(self):
        with pytest.raises(BadConfig, match="split point must be an integer, got 2.5"):
            Partition.split(4, 2.5)

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
        calls = [lambda: rho_bar(spec, part), lambda: residual_cov(spec, part, "A"),
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
        res_a, res_b = (residual_cov(self.spec, self.part, k) for k in "AB")
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
        res_a, res_b = (residual_cov(spec, part, k) for k in "AB")
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
            res_a, res_b = (residual_cov(spec, part, k) for k in "AB")
            assert np.all(np.diag(res_a) <= sig.diagonal()[part.a_idx] + 1e-10)
            assert np.all(np.diag(res_b) <= sig.diagonal()[part.b_idx] + 1e-10)
            assert np.all(np.linalg.eigvalsh(res_a) >= -1e-8)

    def test_singular_block_raises(self):
        # Coordinates 2 and 3 are copies, so the B block cannot be inverted:
        # A given B raises, naming B.  A can, and B given A is zero.
        gamma = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        spec = CovSpec.factor(gamma)
        with pytest.raises(SingularBlock) as err:
            residual_cov(spec, Partition.split(4, 2), "A")
        assert err.value.which == "B"
        assert np.array_equal(residual_cov(spec, Partition.split(4, 2), "B"), np.zeros((2, 2)))

    @pytest.mark.parametrize("block", ["C", "a", ""])
    def test_block_name_checked(self, block):
        with pytest.raises(BadConfig, match="^block must be 'A' or 'B'"):
            residual_cov(CovSpec.explicit(np.eye(4)), Partition.split(4, 2), block)

    def test_singular_block_with_partial_noise_raises(self):
        # Coordinates 2 and 3 are copies without noise: min noise^2 over B is 0,
        # so the eigenvalues are computed and find the singular block.
        gamma = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        spec = CovSpec.factor(gamma, noise=[0.5, 0.5, 0.0, 0.0])
        with pytest.raises(SingularBlock) as err:
            residual_cov(spec, Partition.split(4, 2), "A")
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
        want = [residual_cov(CovSpec.explicit(_tiled_cov(spec)), part, k) for k in "AB"]
        linalg = spy_calls(monkeypatch, np.linalg, ("eigvalsh", "solve"))
        blocks = spy_calls(monkeypatch, cov, ("cov_block",))
        got = [residual_cov(spec, part, k) for k in "AB"]
        assert linalg == [] and blocks == []
        for g, w in zip(got, want):
            assert np.array_equal(g, g.T)
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    def test_independent_blocks_identity(self):
        spec = CovSpec.explicit(np.eye(4))
        res_a, res_b = (residual_cov(spec, Partition.split(4, 2), k) for k in "AB")
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

    # ROADMAP item 9: two factor specs with heterogeneous noise far below
    # the loadings, on which min_eigenvalue misses lam_min by 1.9e6 and 517
    # eps lam_max, while eigvalsh of the rounded Sigma is within 0.14 and 0.02.
    ITEM9_SPECS = {
        "4x1": ([0.9392272585008475, 2.614348143066993, -0.17077382381121967,
                 -1.0662656227062781],
                [1.9588880453166527e-05, 0.0001812763073817112, 0.00015921645444578583,
                 0.00022516620480168403]),
        "6x1": ([-0.09146023071307353, 1.0528330970036588, 0.1562700504622523,
                 -185.74383178642597, -42.76254032283186, -3.3104093927725664],
                [0.0007723857848132591, 0.0010373007612283264, 0.0005530271301157782,
                 0.00044360507913737235, 0.00025473808796750173, 0.0010080195043961878]),
    }

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 9: _secular_min stops early")
    @pytest.mark.parametrize("name", sorted(ITEM9_SPECS))
    def test_item9_within_100_eps_of_exact(self, name):
        # Against a 50-digit eigsy of Sigma built from the same floats.
        mpmath = pytest.importorskip("mpmath")
        gamma, noise = self.ITEM9_SPECS[name]
        spec = CovSpec.factor(np.array(gamma)[:, None], noise=noise)
        with mpmath.workdps(50):
            g, n = [mpmath.mpf(x) for x in gamma], [mpmath.mpf(x) for x in noise]
            sig = mpmath.matrix([[g[i] * g[j] + (n[i] ** 2 if i == j else 0)
                                  for j in range(spec.p)] for i in range(spec.p)])
            w = sorted(mpmath.eigsy(sig, eigvals_only=True))
            lam_min, lam_max = float(w[0]), float(w[-1])
        assert abs(min_eigenvalue(spec) - lam_min) <= 100 * np.finfo(float).eps * lam_max

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
        a, b = part.a_idx, part.b_idx
        for block, keep, cond in (("A", a, b), ("B", b, a)):
            res = residual_cov(spec, part, block)
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

    def test_row_major(self):
        # The sampler multiplies row tiles of the factor, as of a factor
        # spec's gamma; eigh's column-major basis would slow those products.
        g = np.random.default_rng(6).standard_normal((40, 25))
        ell = sqrt_factor(g @ g.T)  # rank 25: eigh's other columns are dropped
        assert ell.shape == (40, 25)
        assert ell.flags.c_contiguous

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
        # each coordinate, against blocks read through cov_block and divided
        # by the outer product of the sds: every entry is the same float,
        # and a maximum is exact.
        spec, part = design
        a, b, sd = part.a_idx, part.b_idx, spec.sds
        ab = cov_block(spec, a, b)
        corr = ab / np.outer(sd[a], sd[b])
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


def _golden_design(name: str) -> tuple[CovSpec, Partition]:
    """The explicit specs of TestGoldenGeometry, by name."""
    if name == "fullrank_equicorr_even":
        spec, _ = gen_design(DesignConfig(kind="fullrank_equicorr", p=600, rho=0.5))
        return spec, Partition(tuple(range(0, 600, 2)), tuple(range(1, 600, 2)), 600)
    if name == "lattice_thirds":
        # I plus three outer products of integer lattice vectors: no BLAS, and
        # every row's maxima sit at different columns, so each placement counts.
        i = np.arange(600)
        sig = np.eye(600)
        for k in range(3):
            v = (i * (k + 3) * 7919 % 101) / 50.0 - 1.0
            sig += np.outer(v, v)
        return CovSpec.explicit(sig), Partition(tuple(i[i % 3 == 0]), tuple(i[i % 3 != 0]), 600)
    return gen_design({
        "heterog_violation": DesignConfig(kind="heterog_violation", p=400,
                                          variance_profile="v0875"),
        "k0_split": DesignConfig(kind="k0_split", p=600, k0=40, rho=0.3),
    }[name])


def _geometry_digests(name: str) -> dict:
    """sha256 of _fold's outputs (within False and True) and of check_conditions' fields."""
    spec, part = _golden_design(name)
    out = {}
    for within in (False, True):
        cross_cov, cross_corr, abs_corr, norms = _fold(spec, part, within)
        h = hashlib.sha256(cross_cov.tobytes() + cross_corr.tobytes())
        h.update(_bits(abs_corr, *(norms or ())))
        out[f"fold_within_{within}"] = h.hexdigest()
    report = repr(check_conditions(spec, part))
    out["check_conditions"] = hashlib.sha256(report.encode()).hexdigest()
    return out


class TestGoldenGeometry:
    """Pinned bytes of the tile walk on explicit specs, independent of the walk itself.

    An explicit spec's tiles are views of sigma and the fold only divides,
    multiplies and takes maxima, so these digests hold on every BLAS kernel.
    """

    DIGESTS = {
        "fullrank_equicorr_even": {
            "fold_within_False": "8a2dc5de2f87ac5df92663c45b4311971d9a215916e5a7d468727359c73afc6f",
            "fold_within_True": "7a1ac7b5895583be7cde046be443b32d59413df4c14ba9ea83f6287938017f85",
            "check_conditions": "22dbfb7fe61084a1adab3bf7b239fa4cdf9291fa7ca477d81453d062e20f2f2f",
        },
        "heterog_violation": {
            "fold_within_False": "22abba38de4b72187dc5ecb7b60e1ec705df1daac776fe65184106af1d3bbb3f",
            "fold_within_True": "814b316f9f4f813eec78ee5909dddae488fa865aa927292b4a0600fca7578b8c",
            "check_conditions": "3383b1e507fde9e199f1b531429138516088eca4b9bc51458f4a7b93b7a5fef9",
        },
        "k0_split": {
            "fold_within_False": "43ef8faf3cb252316195a5e91b5b9ef8a77a1f6fdb341a7edfb5de2d333086e2",
            "fold_within_True": "6f7b2d6f64052da90e518a482de6dc60f34d04a2469bd04212b62e515413742b",
            "check_conditions": "0ec79038541a8048dfe019c7e02d4c836b31006bda3fa779aca0c2a3a199e5ce",
        },
        "lattice_thirds": {
            "fold_within_False": "3d1566bfd269f15178c4fa97562e375fef4a4ee368c294d12724b03804dd023b",
            "fold_within_True": "22e57d2f11c39099fefaf792c47afea5043974ced2d4918b623d7dbc7434d1ff",
            "check_conditions": "33e625634fa47583663b0932fc041b1ee3d336b2a1d349f4c64571ace61080bc",
        },
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_fold_and_conditions_digests(self, name):
        assert _geometry_digests(name) == self.DIGESTS[name]

    def test_cov_block_permuted_digest(self):
        # A stride permutation crosses every tile edge, in both placements.
        spec, _ = _golden_design("heterog_violation")
        rows = np.arange(400) * 173 % 400
        cols = rows[::-1][:150]
        block = cov_block(spec, rows, cols)
        assert block.tobytes() == spec.sigma[np.ix_(rows, cols)].tobytes()
        assert (hashlib.sha256(block.tobytes()).hexdigest()
                == "ecb9be9d0d448e2870ea3443074704197a6b768732e62a8631e49a633be130b8")


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


class TestWalkScratch:
    """A walk holds one tile buffer and the fold one scratch buffer; no placement forms a tile."""

    P = 4 * TILE + 8
    TILE_BYTES = 8 * TILE * TILE

    def design(self):
        rng = np.random.default_rng(33)
        spec = CovSpec.factor(rng.standard_normal((self.P, 3)), noise=np.full(self.P, 0.5))
        return spec, Partition.split(self.P, self.P // 2)

    def test_check_conditions_peak(self):
        # The tile buffer, the fold's scratch buffer and O(p) vectors; a
        # second tile buffer would peak near 3.2 tile arrays.
        spec, part = self.design()
        tracemalloc.start()
        try:
            check_conditions(spec, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 64 * self.P <= 2.5 * self.TILE_BYTES

    def test_cov_block_peak(self):
        # Beyond its output, the tile buffer and index vectors; a second tile
        # buffer would peak near 2.2 tile arrays.
        spec, _ = self.design()
        rows = np.arange(100, self.P)
        tracemalloc.start()
        try:
            out = cov_block(spec, rows, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 1.5 * self.TILE_BYTES

    @pytest.mark.parametrize("read", ["fold", "cov_block"])
    def test_no_placement_allocates_a_tile(self, monkeypatch, read):
        # Each step of the walk, forming a tile and then the reader's work on
        # its placement, rises above where it ends by under half a tile:
        # numpy's iterator buffers (8192 floats each) where an operand is a
        # transpose, and a few TILE vectors.  Forming a tile or a placement's
        # correlations outside the walk's buffers would take a whole tile.
        spec, part = self.design()
        real, rises = cov._placements, []

        def placements(spec, pairs):
            walk = real(spec, pairs)
            while True:
                tracemalloc.reset_peak()
                try:
                    item = next(walk)
                except StopIteration:
                    return
                yield item
                now, peak = tracemalloc.get_traced_memory()
                rises.append(peak - now)
        monkeypatch.setattr(cov, "_placements", placements)
        rows = np.arange(100, self.P)
        tracemalloc.start()
        try:
            if read == "fold":
                _fold(spec, part, within=True)
            else:
                cov_block(spec, rows, rows)
        finally:
            tracemalloc.stop()
        assert len(rises) == 25
        assert max(rises) <= self.TILE_BYTES // 2


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
        res_a, res_b = (residual_cov(spec, part, k) for k in "AB")
        a, b = part.a_idx, part.b_idx
        assert res_a.tobytes() == _schur_reference(spec.sigma, a, b).tobytes()
        assert res_b.tobytes() == _schur_reference(spec.sigma, b, a).tobytes()


class TestOwnership:
    """A spec keeps a read-only float64 array that owns its data and copies anything else."""

    def test_read_only_owner_kept(self):
        sig = random_psd(np.random.default_rng(4), 5)
        sig.flags.writeable = False
        assert CovSpec.explicit(sig).sigma is sig
        gamma = np.random.default_rng(5).standard_normal((5, 2))
        gamma.flags.writeable = False
        assert CovSpec.factor(gamma).gamma is gamma

    def test_read_only_vectors_kept(self):
        # A factor spec's noise and mean, handed over as 1-D read-only owners,
        # are held as given, like its factor.
        rng = np.random.default_rng(5)
        g, m, n = rng.standard_normal((5, 2)), rng.standard_normal(5), rng.uniform(0.5, 1.0, 5)
        for a in (g, m, n):
            a.flags.writeable = False
        spec = CovSpec.factor(g, mu=m, noise=n)
        assert spec.gamma is g and spec.mu is m and spec.noise is n
        assert CovSpec.explicit(random_psd(np.random.default_rng(4), 5), mu=m).mu is m

    @pytest.mark.parametrize("form", ["writable", "view", "list", "float32"])
    def test_anything_else_copied(self, form):
        # A later write to the caller's input leaves the spec unchanged.
        sig = random_psd(np.random.default_rng(4), 5)
        base = np.zeros((6, 6))
        base[:5, :5] = sig
        given = {"writable": sig, "view": base[:5, :5], "list": sig.tolist(),
                 "float32": sig.astype(np.float32)}[form]
        if form in ("view", "float32"):
            given.flags.writeable = False  # read-only, yet not a float64 array owning its data
        want = np.array(given, dtype=float)
        spec = CovSpec.explicit(given)
        assert spec.sigma is not given and spec.sigma.tobytes() == want.tobytes()
        if form == "list":
            given[0][0] += 1.0
        else:
            given.flags.writeable = True
            given[0, 0] += 1.0
        assert spec.sigma.tobytes() == want.tobytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_woodbury_residuals_exactly_symmetric(self, threads):
        # W W^T is a Gram product, which numpy computes exactly symmetric at
        # either BLAS thread count, so the residual needs no symmetrization.
        # table1 has noise on every coordinate: both residuals are Woodbury's.
        out = run_python("""
            import numpy as np
            from maxgap import cov
            from maxgap.designs import DesignConfig, gen_design
            cov._schur = None
            spec, part = gen_design(DesignConfig(kind="table1", p=1200, seed=3))
            res = [cov.residual_cov(spec, part, k) for k in "AB"]
            print([np.array_equal(m, m.T) for m in res])
        """, OPENBLAS_NUM_THREADS=threads)
        assert out.split("\n")[0] == "[True, True]"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_gram_tiles_exactly_symmetric(self, threads):
        # A factor spec's diagonal tile is one matmul of a row block with its
        # own transpose into the walk's flat buffer, kept as computed: at the
        # walk's tile heights (1, 2, a partial 88, 255, a whole tile), at
        # table1's d = 200 and at row offsets inside and past the first tile.
        out = run_python("""
            import numpy as np
            from maxgap import cov
            rng = np.random.default_rng(34)
            buf = np.empty(cov.TILE * cov.TILE)
            bad = []
            for d in (1, 3, 200):
                f = rng.standard_normal((2 * cov.TILE + 8, d))
                for rows in (1, 2, 88, 255, 256):
                    for off in (0, 3, 256):
                        g = f[off:off + rows]
                        t = np.matmul(g, g.T, out=cov._shaped(buf, (rows, rows)))
                        if not np.array_equal(t, t.T):
                            bad.append((d, rows, off))
            print(bad)
        """, OPENBLAS_NUM_THREADS=threads)
        assert out.split("\n")[0] == "[]"
