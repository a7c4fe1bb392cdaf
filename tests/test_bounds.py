import math

import numpy as np
import pytest

from maxgap import (BadConfig, BadGeometry, ConditionFails, CovSpec,
                    HeterogeneousVariances, Inapplicable, McConfig,
                    NoAdmissibleDelta, Partition, PerfectCrossCorrelation,
                    SingularCovariance, ZeroResidualVariance,
                    bound_baseline_min_eig, bound_conditional,
                    bound_corr_threshold, bound_heterogeneous,
                    bound_homogeneous, bound_report, bound_single_max,
                    corr_threshold_profile, lower_bound_exchangeable)
from maxgap.bounds import default_delta_grid
from maxgap.designs import DesignConfig, gen_design

from conftest import footnote_factor

MC = McConfig(n_mc=100000, seed=0)
E_ABS_Z = math.sqrt(2.0 / math.pi)


def iid_pair():
    return CovSpec.explicit(np.eye(2)), Partition.split(2, 1)


class TestOraclesIidPair:
    """p = 2 independent coordinates: every constant is known in closed form."""

    def test_homogeneous(self):
        spec, part = iid_pair()
        got = bound_homogeneous(spec, part, 0.05, MC)
        assert got == pytest.approx(7.0 * 0.05 * E_ABS_Z, abs=0.003)

    def test_heterogeneous(self):
        spec, part = iid_pair()
        got = bound_heterogeneous(spec, part, 0.05, MC)
        assert got == pytest.approx(2.0 * 0.05 * E_ABS_Z, abs=0.001)

    def test_conditional_independent(self):
        spec, part = iid_pair()
        got = bound_conditional(spec, part, 0.05, MC)
        assert got == pytest.approx(2.0 * 0.05 * E_ABS_Z, abs=0.001)

    def test_conditional_correlated(self):
        rho = 0.6
        spec = CovSpec.explicit(np.array([[1.0, rho], [rho, 1.0]]))
        got = bound_conditional(spec, Partition.split(2, 1), 0.05, MC)
        want = 2.0 * 0.05 * E_ABS_Z / math.sqrt(1.0 - rho * rho)
        assert got == pytest.approx(want, abs=0.002)

    def test_baseline(self):
        spec, _ = iid_pair()
        got = bound_baseline_min_eig(spec, 0.05)
        assert got == pytest.approx(0.1 * (math.sqrt(2.0 * math.log(2.0)) + 2.0), rel=1e-12)

    def test_single_max(self):
        spec, _ = iid_pair()
        got = bound_single_max(spec, 0.05, subset=[0], mc=MC)
        assert got == pytest.approx(2.0 * 0.05 * E_ABS_Z, abs=0.001)

    def test_corr_threshold_prefers_largest_delta(self):
        spec, part = iid_pair()
        got = bound_corr_threshold(spec, part, 0.05, mc=MC)
        grid = default_delta_grid()
        assert got.best_delta == grid[-1]
        assert got.omega_delta == 0.0
        assert math.isnan(got.d_delta)
        assert got.value == pytest.approx(7.0 * 0.05 * E_ABS_Z / grid[-1], abs=0.003)
        assert len(got.profile) == 2 * grid.size


class TestApplicabilityErrors:
    def test_footnote_conditional(self):
        spec = CovSpec.factor(footnote_factor())
        with pytest.raises(ZeroResidualVariance):
            bound_conditional(spec, Partition.split(4, 2), 0.05, MC)

    def test_footnote_baseline(self):
        spec = CovSpec.factor(footnote_factor())
        with pytest.raises(SingularCovariance):
            bound_baseline_min_eig(spec, 0.05)

    def test_footnote_other_bounds_still_work(self):
        spec = CovSpec.factor(footnote_factor())
        part = Partition.split(4, 2)
        assert bound_homogeneous(spec, part, 0.05, MC) > 0.0
        assert bound_heterogeneous(spec, part, 0.05, MC) > 0.0
        assert bound_corr_threshold(spec, part, 0.05, mc=MC).value > 0.0

    def test_perfect_cross_pair(self):
        spec = CovSpec.factor(np.array([[1.0], [1.0]]))
        part = Partition.split(2, 1)
        with pytest.raises(PerfectCrossCorrelation):
            bound_homogeneous(spec, part, 0.05, MC)
        with pytest.raises(PerfectCrossCorrelation):
            bound_heterogeneous(spec, part, 0.05, MC)
        with pytest.raises(NoAdmissibleDelta):
            bound_corr_threshold(spec, part, 0.05, mc=MC)

    def test_unequal_variances(self):
        spec = CovSpec.explicit(np.diag([1.0, 4.0]))
        part = Partition.split(2, 1)
        with pytest.raises(HeterogeneousVariances):
            bound_homogeneous(spec, part, 0.05, MC)
        with pytest.raises(HeterogeneousVariances):
            bound_corr_threshold(spec, part, 0.05, mc=MC)

    def test_violation_design_fails_condition(self):
        spec, part = gen_design(
            DesignConfig(kind="heterog_violation", p=8, variance_profile="v075"))
        with pytest.raises(ConditionFails):
            bound_heterogeneous(spec, part, 0.05, MC)

    def test_epsilon_validation(self):
        spec, part = iid_pair()
        with pytest.raises(BadConfig):
            bound_homogeneous(spec, part, 0.0, MC)
        with pytest.raises(BadConfig):
            bound_baseline_min_eig(spec, -0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_epsilon_rejected(self, eps):
        spec, part = iid_pair()
        with pytest.raises(BadConfig):
            bound_baseline_min_eig(spec, eps)
        with pytest.raises(BadConfig):
            bound_corr_threshold(spec, part, eps, mc=MC)
        with pytest.raises(BadConfig):
            bound_report(spec, part, eps, mc=MC)

    def test_delta_grid_validation(self):
        spec, part = iid_pair()
        for bad in ([], [0.0], [1.0], [0.5, 1.2]):
            with pytest.raises(BadConfig):
                corr_threshold_profile(spec, part, delta_grid=bad, mc=MC)


class TestCorrThresholdStructure:
    def test_orientations_and_admissibility(self):
        # One A coordinate is duplicated into B, so for large delta the set N
        # is that single coordinate and the term stays admissible.
        gamma = np.array([[1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0],
                          [0.0, 1.0, 0.0]])
        spec = CovSpec.factor(gamma)
        part = Partition.split(4, 2)
        terms = corr_threshold_profile(spec, part, delta_grid=[0.5], mc=MC)
        assert {t.orientation for t in terms} == {"AB", "BA"}
        for t in terms:
            assert t.omega > 0.0
            assert t.rate > 0.0

    def test_omega_saturates_when_n_dominates(self):
        # The duplicated pair carries a huge mean, so the crossover gap D is
        # negative and the penalty hits its cap of one.
        gamma = np.array([[1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0],
                          [0.0, 1.0, 0.0]])
        spec = CovSpec.factor(gamma, mu=[0.0, 5.0, 0.0, 5.0])
        part = Partition.split(4, 2)
        got = bound_corr_threshold(spec, part, 0.05, mc=MC)
        assert got.omega_delta == 1.0
        assert got.d_delta == pytest.approx(-5.0, abs=0.05)
        assert got.value >= 2.0

    def test_overlap_crosscheck_at_half(self):
        # Duplicated-coordinate exchangeable design, blocks of 8 sharing 2:
        # at delta = 0.5 the bound cannot undercut the symmetry lower bound.
        cfg = DesignConfig(kind="exchangeable_overlap", p=14, overlap_k=2, rho=0.3)
        spec, part = gen_design(cfg)
        got = bound_corr_threshold(spec, part, 0.05, delta_grid=[0.5], mc=MC)
        assert got.value >= 2.0 / 14.0
        lower = lower_bound_exchangeable(2, 14)
        assert lower.value == 2.0 / 14.0
        assert got.value >= lower.value


class TestExchangeableLower:
    def test_known_values(self):
        got = lower_bound_exchangeable(2, 14)
        assert got.value == 2.0 / 14.0
        assert got.residual == 0.5

    @pytest.mark.parametrize("k,p", [(0, 10), (5, 5), (2, 13), (3, 8)])
    def test_bad_geometry(self, k, p):
        with pytest.raises(BadGeometry):
            lower_bound_exchangeable(k, p)


class TestExactArithmetic:
    """Pure-rate bounds are exactly linear in eps; scaling is exactly stable."""

    def test_eps_linearity(self):
        spec, part = iid_pair()
        eps = 0.05
        assert bound_homogeneous(spec, part, 2.0 * eps, MC) \
            == 2.0 * bound_homogeneous(spec, part, eps, MC)
        assert bound_heterogeneous(spec, part, 2.0 * eps, MC) \
            == 2.0 * bound_heterogeneous(spec, part, eps, MC)
        assert bound_conditional(spec, part, 2.0 * eps, MC) \
            == 2.0 * bound_conditional(spec, part, eps, MC)
        assert bound_baseline_min_eig(spec, 2.0 * eps) \
            == 2.0 * bound_baseline_min_eig(spec, eps)
        assert bound_single_max(spec, 2.0 * eps, mc=MC) \
            == 2.0 * bound_single_max(spec, eps, mc=MC)

    def test_threshold_linearity_without_crossover(self):
        spec, part = iid_pair()
        a = bound_corr_threshold(spec, part, 0.05, mc=MC)
        b = bound_corr_threshold(spec, part, 0.1, mc=MC)
        assert b.value == 2.0 * a.value
        assert b.best_delta == a.best_delta
        for ta, tb in zip(a.profile, b.profile):
            assert tb.rate == ta.rate

    def test_factor_doubling_halves_single_max(self):
        rng = np.random.default_rng(19)
        g = rng.standard_normal((4, 2))
        base = CovSpec.factor(g)
        doubled = CovSpec.factor(2.0 * g)
        assert bound_single_max(doubled, 0.05, mc=MC) \
            == 0.5 * bound_single_max(base, 0.05, mc=MC)

    def test_heterogeneous_homogeneous_agreement(self):
        # With unit variances and equal margins both bounds share the same
        # expected-max factor, so the 7:2 constant ratio holds bitwise.
        spec, part = gen_design(DesignConfig(kind="fullrank_equicorr", p=4, rho=0.3))
        a = bound_heterogeneous(spec, part, 0.05, MC)
        b = bound_homogeneous(spec, part, 0.05, MC)
        assert a * 7.0 == b * 2.0


class TestBoundReport:
    def test_which_filter(self):
        spec, part = iid_pair()
        rep = bound_report(spec, part, 0.05, MC, which=("homogeneous",))
        assert isinstance(rep.homogeneous, float)
        assert rep.corr_threshold is None
        assert rep.heterogeneous is None
        assert rep.single_max_a is None

    def test_inapplicable_downgrade(self):
        spec = CovSpec.factor(footnote_factor())
        rep = bound_report(spec, Partition.split(4, 2), 0.05, MC)
        assert isinstance(rep.conditional, Inapplicable)
        assert rep.conditional.reason == "zero_residual_variance"
        assert isinstance(rep.baseline_min_eig, Inapplicable)
        assert rep.baseline_min_eig.reason == "singular_covariance"
        assert isinstance(rep.homogeneous, float)
        assert isinstance(rep.single_max_a, float)
        assert isinstance(rep.single_max_b, float)

    def test_lower_included_on_request(self):
        cfg = DesignConfig(kind="exchangeable_overlap", p=14, overlap_k=2, rho=0.3)
        spec, part = gen_design(cfg)
        rep = bound_report(spec, part, 0.05, MC, which=("homogeneous",), overlap_k=2)
        assert rep.lower_exchangeable.value == 2.0 / 14.0

    def test_json_shape(self):
        spec = CovSpec.factor(footnote_factor())
        rep = bound_report(spec, Partition.split(4, 2), 0.05, MC)
        d = rep.to_json_dict()
        assert d["conditional"] == {"inapplicable": "zero_residual_variance"}
        assert isinstance(d["corr_threshold"], dict)
        assert "value" in d["corr_threshold"]
        assert d["mc_meta"] == {"n_mc": MC.n_mc, "seed": MC.seed}

    def test_mc_determinism(self):
        spec, part = iid_pair()
        a = bound_report(spec, part, 0.05, McConfig(n_mc=20000, seed=5))
        b = bound_report(spec, part, 0.05, McConfig(n_mc=20000, seed=5))
        assert a.homogeneous == b.homogeneous
        assert a.corr_threshold.value == b.corr_threshold.value
        c = bound_report(spec, part, 0.05, McConfig(n_mc=20000, seed=6))
        assert c.homogeneous != a.homogeneous
