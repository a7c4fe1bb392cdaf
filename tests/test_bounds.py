import math
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from maxgap import (ALL_BOUNDS, BadConfig, BadGeometry, ConditionFails,
                    CovSpec, DeltaTerm, HeterogeneousVariances, Inapplicable,
                    McConfig, NoAdmissibleDelta, Partition,
                    PerfectCrossCorrelation, SingularCovariance,
                    ZeroResidualVariance, bound_baseline_min_eig,
                    bound_conditional, bound_corr_threshold,
                    bound_heterogeneous, bound_homogeneous, bound_report,
                    bound_single_max, lower_bound_exchangeable, residual_cov,
                    sample)
from maxgap import bounds, cov
from maxgap.bounds import default_delta_grid
from maxgap.designs import DesignConfig, gen_design

from conftest import footnote_factor, spy_calls

MC = McConfig(n_mc=100000, seed=0)
E_ABS_Z = math.sqrt(2.0 / math.pi)


PURE_RATE_BOUNDS = tuple(b for b in ALL_BOUNDS if b != "corr_threshold")


def iid_pair():
    return CovSpec.explicit(np.eye(2)), Partition.split(2, 1)


def threshold_at(terms, eps):
    """The term attaining the threshold bound at eps, and the bound's value."""
    best = min(terms, key=lambda t: t.rate * eps + 2.0 * t.omega)
    return best, best.rate * eps + 2.0 * best.omega


class TestOraclesIidPair:
    """p = 2 independent coordinates: every constant is known in closed form."""

    def test_homogeneous(self):
        spec, part = iid_pair()
        got = 0.05 * bound_homogeneous(spec, part, MC)
        assert got == pytest.approx(7.0 * 0.05 * E_ABS_Z, abs=0.003)

    def test_heterogeneous(self):
        spec, part = iid_pair()
        got = 0.05 * bound_heterogeneous(spec, part, MC)
        assert got == pytest.approx(2.0 * 0.05 * E_ABS_Z, abs=0.001)

    def test_conditional_independent(self):
        spec, part = iid_pair()
        got = 0.05 * bound_conditional(spec, part, MC)
        assert got == pytest.approx(2.0 * 0.05 * E_ABS_Z, abs=0.001)

    def test_conditional_correlated(self):
        rho = 0.6
        spec = CovSpec.explicit(np.array([[1.0, rho], [rho, 1.0]]))
        got = 0.05 * bound_conditional(spec, Partition.split(2, 1), MC)
        want = 2.0 * 0.05 * E_ABS_Z / math.sqrt(1.0 - rho * rho)
        assert got == pytest.approx(want, abs=0.002)

    def test_baseline(self):
        spec, _ = iid_pair()
        got = 0.05 * bound_baseline_min_eig(spec)
        assert got == pytest.approx(0.1 * (math.sqrt(2.0 * math.log(2.0)) + 2.0), rel=1e-12)

    def test_single_max(self):
        spec, _ = iid_pair()
        got = 0.05 * bound_single_max(spec, subset=[0], mc=MC)
        assert got == pytest.approx(2.0 * 0.05 * E_ABS_Z, abs=0.001)

    def test_corr_threshold_prefers_largest_delta(self):
        spec, part = iid_pair()
        terms = bound_corr_threshold(spec, part, mc=MC)
        best, value = threshold_at(terms, 0.05)
        grid = default_delta_grid()
        assert best.delta == grid[-1]
        assert best.omega == 0.0
        assert math.isnan(best.d_delta)
        assert value == pytest.approx(7.0 * 0.05 * E_ABS_Z / grid[-1], abs=0.003)
        assert len(terms) == 2 * grid.size


class TestApplicabilityErrors:
    def test_footnote_conditional(self):
        spec = CovSpec.factor(footnote_factor())
        with pytest.raises(ZeroResidualVariance):
            bound_conditional(spec, Partition.split(4, 2), MC)

    def test_footnote_baseline(self):
        spec = CovSpec.factor(footnote_factor())
        with pytest.raises(SingularCovariance):
            bound_baseline_min_eig(spec)

    def test_footnote_other_bounds_still_work(self):
        spec = CovSpec.factor(footnote_factor())
        part = Partition.split(4, 2)
        assert 0.05 * bound_homogeneous(spec, part, MC) > 0.0
        assert 0.05 * bound_heterogeneous(spec, part, MC) > 0.0
        assert threshold_at(bound_corr_threshold(spec, part, mc=MC), 0.05)[1] > 0.0

    def test_perfect_cross_pair(self):
        spec = CovSpec.factor(np.array([[1.0], [1.0]]))
        part = Partition.split(2, 1)
        with pytest.raises(PerfectCrossCorrelation):
            bound_homogeneous(spec, part, MC)
        with pytest.raises(PerfectCrossCorrelation):
            bound_heterogeneous(spec, part, MC)
        with pytest.raises(NoAdmissibleDelta):
            bound_corr_threshold(spec, part, mc=MC)

    def test_unequal_variances(self):
        spec = CovSpec.explicit(np.diag([1.0, 4.0]))
        part = Partition.split(2, 1)
        with pytest.raises(HeterogeneousVariances):
            bound_homogeneous(spec, part, MC)
        with pytest.raises(HeterogeneousVariances):
            bound_corr_threshold(spec, part, mc=MC)

    def test_violation_design_fails_condition(self):
        spec, part = gen_design(
            DesignConfig(kind="heterog_violation", p=8, variance_profile="v075"))
        with pytest.raises(ConditionFails):
            bound_heterogeneous(spec, part, MC)

    def test_epsilon_validation(self):
        spec, part = iid_pair()
        rep = bound_report(spec, part, MC, which=("homogeneous", "baseline"))
        with pytest.raises(BadConfig):
            rep.ratio("homogeneous", 0.0)
        with pytest.raises(BadConfig):
            rep.ratio("baseline", -0.1)
        with pytest.raises(BadConfig):
            rep.ratio("lower_exchangeable", 0.05)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_epsilon_rejected(self, eps):
        spec, part = iid_pair()
        rep = bound_report(spec, part, mc=McConfig(n_mc=2000, seed=0))
        for name in ALL_BOUNDS:
            with pytest.raises(BadConfig):
                rep.ratio(name, eps)

    def test_delta_grid_validation(self):
        spec, part = iid_pair()
        for bad in ([], [0.0], [1.0], [0.5, 1.2]):
            with pytest.raises(BadConfig):
                bound_corr_threshold(spec, part, delta_grid=bad, mc=MC)


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
        terms = bound_corr_threshold(spec, part, delta_grid=[0.5], mc=MC)
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
        best, value = threshold_at(bound_corr_threshold(spec, part, mc=MC), 0.05)
        assert best.omega == 1.0
        assert best.d_delta == pytest.approx(-5.0, abs=0.05)
        assert value >= 2.0

    def test_overlap_crosscheck_at_half(self):
        # Duplicated-coordinate exchangeable design, blocks of 8 sharing 2:
        # at delta = 0.5 the bound cannot undercut the symmetry lower bound.
        cfg = DesignConfig(kind="exchangeable_overlap", p=14, overlap_k=2, rho=0.3)
        spec, part = gen_design(cfg)
        terms = bound_corr_threshold(spec, part, delta_grid=[0.5], mc=MC)
        _, value = threshold_at(terms, 0.05)
        assert value >= 2.0 / 14.0
        lower = lower_bound_exchangeable(2, 14)
        assert lower.value == 2.0 / 14.0
        assert value >= lower.value


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
        rep = bound_report(spec, part, MC)
        for name in PURE_RATE_BOUNDS:
            assert rep.ratio(name, 2.0 * eps) * (2.0 * eps) \
                == 2.0 * (rep.ratio(name, eps) * eps)
        assert rep.homogeneous == bound_homogeneous(spec, part, MC)
        assert rep.heterogeneous == bound_heterogeneous(spec, part, MC)
        assert rep.conditional == bound_conditional(spec, part, MC)
        assert rep.baseline == bound_baseline_min_eig(spec)

    def test_threshold_linearity_without_crossover(self):
        spec, part = iid_pair()
        terms = bound_corr_threshold(spec, part, mc=MC)
        best_a, a = threshold_at(terms, 0.05)
        best_b, b = threshold_at(terms, 0.1)
        assert b == 2.0 * a
        assert best_b.delta == best_a.delta
        rep = bound_report(spec, part, MC, which=("corr_threshold",))
        assert rep.ratio("corr_threshold", 0.1) * 0.1 \
            == 2.0 * (rep.ratio("corr_threshold", 0.05) * 0.05)
        for ta, tb in zip(terms, rep.corr_threshold):
            assert tb.rate == ta.rate

    def test_factor_doubling_halves_single_max(self):
        rng = np.random.default_rng(19)
        g = rng.standard_normal((4, 2))
        base = CovSpec.factor(g)
        doubled = CovSpec.factor(2.0 * g)
        assert 0.05 * bound_single_max(doubled, mc=MC) \
            == 0.5 * (0.05 * bound_single_max(base, mc=MC))

    def test_heterogeneous_homogeneous_agreement(self):
        # With unit variances and equal margins both bounds share the same
        # expected-max factor, so the 7:2 constant ratio holds bitwise.
        spec, part = gen_design(DesignConfig(kind="fullrank_equicorr", p=4, rho=0.3))
        rep = bound_report(spec, part, MC, which=("heterogeneous", "homogeneous"))
        a = rep.ratio("heterogeneous", 0.05)
        b = rep.ratio("homogeneous", 0.05)
        assert a * 7.0 == b * 2.0

    @settings(max_examples=50, deadline=None)
    @given(eps=st.floats(1e-6, 1e3), k=st.integers(-20, 20))
    def test_pure_rate_ratio_is_eps_free(self, equicorr_report, eps, k):
        c = 2.0 ** k
        for name in PURE_RATE_BOUNDS:
            rate = equicorr_report.ratio(name, eps)
            assert isinstance(rate, float)
            assert equicorr_report.ratio(name, c * eps) == rate
            assert rate * (c * eps) == c * (rate * eps)


@pytest.fixture(scope="module")
def equicorr_report():
    spec, part = gen_design(DesignConfig(kind="fullrank_equicorr", p=4, rho=0.5))
    return bound_report(spec, part, McConfig(n_mc=2000, seed=3))


class TestBoundReport:
    def test_which_filter(self):
        spec, part = iid_pair()
        rep = bound_report(spec, part, MC, which=("homogeneous",))
        assert isinstance(rep.homogeneous, float)
        assert rep.corr_threshold is None
        assert rep.heterogeneous is None
        assert rep.single_max is None
        assert rep.ratio("single_max", 0.05) is None

    def test_inapplicable_downgrade(self):
        spec = CovSpec.factor(footnote_factor())
        part = Partition.split(4, 2)
        rep = bound_report(spec, part, MC)
        assert isinstance(rep.conditional, Inapplicable)
        assert rep.conditional.reason == "zero_residual_variance"
        assert isinstance(rep.baseline, Inapplicable)
        assert rep.baseline.reason == "singular_covariance"
        assert isinstance(rep.homogeneous, float)
        # The message rides along as detail, which equality ignores.
        assert rep.baseline.detail == "covariance rank is at most 2, below p = 4"
        assert rep.conditional.detail.startswith("coordinate ")
        assert rep.baseline == Inapplicable("singular_covariance")
        rate_a = bound_single_max(spec, part.a_set, MC)
        rate_b = bound_single_max(spec, part.b_set, MC)
        assert isinstance(rate_a, float)
        assert isinstance(rate_b, float)
        assert rep.single_max == min(rate_a, rate_b)

    def test_single_max_inapplicable_keeps_block_a_reason(self, monkeypatch):
        import maxgap.bounds as bounds

        spec, part = iid_pair()

        def fail(spec, subset=None, mc=None):
            if subset == part.a_set:
                raise ZeroResidualVariance("block A")
            raise SingularCovariance("block B")
        monkeypatch.setattr(bounds, "bound_single_max", fail)
        rep = bound_report(spec, part, MC, which=("single_max",))
        assert rep.single_max == Inapplicable("zero_residual_variance")

    def test_lower_included_on_request(self):
        cfg = DesignConfig(kind="exchangeable_overlap", p=14, overlap_k=2, rho=0.3)
        spec, part = gen_design(cfg)
        rep = bound_report(spec, part, MC, which=("homogeneous",), overlap_k=2)
        assert rep.lower_exchangeable.value == 2.0 / 14.0

    def test_report_shape(self):
        spec = CovSpec.factor(footnote_factor())
        rep = bound_report(spec, Partition.split(4, 2), MC)
        assert tuple(vars(rep)) == ALL_BOUNDS + ("lower_exchangeable", "mc_meta")
        assert rep.conditional == Inapplicable("zero_residual_variance")
        assert all(isinstance(t, DeltaTerm) for t in rep.corr_threshold)
        assert rep.mc_meta == {"n_mc": MC.n_mc, "seed": MC.seed}

    def test_mc_determinism(self):
        spec, part = iid_pair()
        a = bound_report(spec, part, McConfig(n_mc=20000, seed=5))
        b = bound_report(spec, part, McConfig(n_mc=20000, seed=5))
        assert a.homogeneous == b.homogeneous
        assert a.ratio("corr_threshold", 0.05) == b.ratio("corr_threshold", 0.05)
        c = bound_report(spec, part, McConfig(n_mc=20000, seed=6))
        assert c.homogeneous != a.homogeneous


class TestRequestReuse:
    """bound_report streams each expected-max request once and serves it to every bound."""

    CFG = DesignConfig(kind="fullrank_equicorr", p=40, rho=0.5)
    MC = McConfig(n_mc=3000, seed=9)

    def count_passes(self, monkeypatch, spec, part):
        """Each expected-max pass of one report, as its (content, subset, ...) keys."""
        import maxgap.bounds as bounds

        passes = []
        real = bounds.expected_max_many

        def counting(spec, subsets, n_mc, seed, mode="abs_std"):
            passes.append([(spec.content_hash, tuple(sorted({int(i) for i in s})), mode,
                            n_mc, seed) for s in subsets])
            return real(spec, subsets, n_mc, seed, mode)
        monkeypatch.setattr(bounds, "expected_max_many", counting)
        rep = bound_report(spec, part, self.MC)
        assert not any(isinstance(getattr(rep, name), Inapplicable) for name in ALL_BOUNDS)
        requests = [key for keys in passes for key in keys]
        assert len(requests) == len(set(requests))
        return passes

    def test_no_request_streamed_twice(self, monkeypatch):
        spec, part = gen_design(self.CFG)
        # One pass for the design, one for the two residual laws: the split is
        # symmetric, so they are equal in content.
        assert len(self.count_passes(monkeypatch, spec, part)) == 2

    def test_unequal_residual_laws_streamed_apart(self, monkeypatch):
        spec, _ = gen_design(self.CFG)
        part = Partition.split(40, 15)
        assert len(self.count_passes(monkeypatch, spec, part)) == 3

    def test_served_values_equal_separate_calls(self):
        spec, part = gen_design(self.CFG)
        rep = bound_report(spec, part, self.MC)
        assert rep.homogeneous == bound_homogeneous(spec, part, self.MC)
        assert rep.heterogeneous == bound_heterogeneous(spec, part, self.MC)
        assert rep.single_max == min(bound_single_max(spec, s, self.MC)
                                     for s in (part.a_set, part.b_set))
        # The report streams the two residual laws, equal in content, once;
        # outside a report each is streamed on its own.
        res_a, res_b = residual_cov(spec, part)
        assert np.array_equal(res_a, res_b)
        assert rep.conditional == bound_conditional(spec, part, self.MC)

    def test_explicit_spec_factored_once(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counting(a, *args, name=name, real=real, **kwargs):
                calls.append((name, a.shape))
                return real(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        spec, part = gen_design(self.CFG)
        assert spec.form == "explicit"
        assert spec.root is spec.root
        sample(spec, 100, seed=1)
        bound_report(spec, part, self.MC)
        # One eigh per explicit spec, at construction: the design, then each
        # residual law; the two conditioning blocks and the baseline take
        # their eigenvalues only.
        assert calls == [("eigh", (40, 40)), ("eigvalsh", (20, 20)), ("eigvalsh", (20, 20)),
                         ("eigh", (20, 20)), ("eigh", (20, 20)), ("eigvalsh", (40, 40))]


class TestFactorSpecsFormNoMatrix:
    """Factor specs read Sigma block by block and never form the p x p matrix."""

    SMALL_MC = McConfig(n_mc=500, seed=4)

    def test_baseline_by_rank(self, monkeypatch):
        spec, part = gen_design(DesignConfig(kind="homog_lowrank", p=400))
        shapes = []
        real = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        rep = bound_report(spec, part, self.SMALL_MC, which=("baseline",))
        assert rep.baseline == Inapplicable("singular_covariance")
        with pytest.raises(SingularCovariance, match="rank is at most 40,"):
            bound_baseline_min_eig(spec)
        assert shapes == []

    def test_noise_counts_toward_rank(self):
        g = np.ones((4, 1))
        with pytest.raises(SingularCovariance, match="rank is at most 3,"):
            bound_baseline_min_eig(CovSpec.factor(g, noise=[1.0, 1.0, 0.0, 0.0]))
        # 1 + 3 = p: Sigma = 1 1^T + diag(1, 1, 1, 0) is positive definite.
        assert bound_baseline_min_eig(CovSpec.factor(g, noise=[1.0, 1.0, 1.0, 0.0])) > 0.0

    def test_full_width_singular_factor_takes_eigenvalues(self, monkeypatch):
        # d >= p with a repeated row: singular, which only the eigenvalues
        # show.  Without noise they are the squared singular values of gamma,
        # so no eigensolver sees Sigma.
        g = np.random.default_rng(0).standard_normal((4, 5))
        g[3] = g[0]
        spec = CovSpec.factor(g)
        calls = spy_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh", "svd"))
        with pytest.raises(SingularCovariance, match="smallest eigenvalue"):
            bound_baseline_min_eig(spec)
        assert calls == [("svd", (4, 5))]

    def test_table1_report_without_baseline_forms_no_matrix(self):
        spec, part = gen_design(DesignConfig(kind="table1", p=40, seed=3))
        rep = bound_report(spec, part, self.SMALL_MC,
                           which=tuple(b for b in ALL_BOUNDS if b != "baseline"))
        assert isinstance(rep.heterogeneous, float)
        assert isinstance(rep.conditional, float)

    def test_table1_report_forms_no_matrix(self, monkeypatch):
        # Every bound of a table1 report, the baseline included: lam_min comes
        # from the d x d core and the residuals from Woodbury's identity, so
        # the report runs no eigvalsh and no solve, reads no block of Sigma
        # inside residual_cov, and no block as large as p x p anywhere.
        spec, part = gen_design(DesignConfig(kind="table1", p=600, seed=3))
        linalg = spy_calls(monkeypatch, np.linalg, ("eigvalsh", "solve"))
        blocks, inside = [], []
        real_block, real_residual = cov.cov_block, cov.residual_cov

        def block(spec, rows, cols):
            blocks.append((np.size(rows) * np.size(cols), bool(inside)))
            return real_block(spec, rows, cols)

        def residual(*args):
            inside.append(True)
            try:
                return real_residual(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(cov, "cov_block", block)
        monkeypatch.setattr(bounds, "residual_cov", residual)
        rep = bound_report(spec, part, McConfig(n_mc=64, seed=1))
        assert not any(isinstance(getattr(rep, b), Inapplicable) for b in ALL_BOUNDS)
        assert linalg == []
        assert blocks and not any(in_residual for _, in_residual in blocks)
        assert max(size for size, _ in blocks) < spec.p ** 2
        assert not hasattr(CovSpec, "cov")

    def test_baseline_allocates_less_than_one_matrix(self):
        # The baseline's working set is a few p x d arrays, under half of the
        # 8 p^2 bytes one p x p matrix would take (table1 has d = p / 10).
        spec, _ = gen_design(DesignConfig(kind="table1", p=600, seed=3))
        tracemalloc.start()
        try:
            rate = bound_baseline_min_eig(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rate > 0.0
        assert peak < 8 * spec.p ** 2 / 2

    def test_design_spec_hashed_once(self, monkeypatch):
        import hashlib

        forms = []
        real = hashlib.sha256

        def counting(data=b"", *args, **kwargs):
            forms.append(data)
            return real(data, *args, **kwargs)
        monkeypatch.setattr(hashlib, "sha256", counting)
        spec, part = gen_design(DesignConfig(kind="table1", p=40, seed=3))
        rep = bound_report(spec, part, self.SMALL_MC)
        assert not all(isinstance(getattr(rep, b), Inapplicable) for b in ALL_BOUNDS)
        # The residual laws are explicit specs, hashed once each.
        assert forms.count(b"factor") == 1
