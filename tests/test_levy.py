import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from maxgap import (BadConfig, CovSpec, EmptySample, EmptySubset, Partition,
                    expected_max_many, levy_curve, levy_hat, max_diff, sample)
from maxgap.cov import TILE
from maxgap.sampling import CHUNK, chunk_rng, draw_width, emax_chunk_rows

from conftest import dyadic, phi

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


class TestScanOracles:
    def test_point_mass(self):
        est = levy_hat(np.zeros(100), 0.01)
        assert est.value == 1.0
        assert est.argmax_t == 0.0

    def test_epsilon_covers_range(self):
        values = np.array([0.0, 1.0, 2.0, 5.0])
        est = levy_hat(values, 5.0)
        assert est.value == 1.0

    def test_gap_of_two_iid(self):
        # M_B - M_A over a 2-coordinate identity model is N(0, 2).
        spec = CovSpec.explicit(np.eye(2))
        diffs = max_diff(sample(spec, 200000, seed=101), Partition.split(2, 1))
        est = levy_hat(diffs, 0.05)
        truth = 2.0 * phi(0.05 / math.sqrt(2.0)) - 1.0
        assert truth == pytest.approx(0.0282, abs=2e-4)
        assert est.value == pytest.approx(truth, abs=0.003)
        # The window probability is locally flat, so the maximizer is only
        # loosely pinned near the center.
        assert abs(est.argmax_t) < 0.5

    def test_single_normal(self):
        spec = CovSpec.explicit(np.eye(1), mu=[1.0])
        batch = sample(spec, 200000, seed=55)
        est = levy_hat(batch.data[:, 0], 0.05)
        truth = 2.0 * phi(0.05) - 1.0
        assert truth == pytest.approx(0.0399, abs=2e-4)
        assert est.value == pytest.approx(truth, abs=0.003)
        assert est.argmax_t == pytest.approx(1.0, abs=0.4)

    def test_exact_scan_on_known_sample(self):
        values = np.array([0.0, 0.1, 0.25, 0.3, 1.0])
        est = levy_hat(values, 0.1, exact=True)
        assert est.value == 0.6
        assert est.argmax_t == pytest.approx(0.2)

    def test_exact_vs_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = np.sort(rng.standard_normal(40))
            eps = float(rng.uniform(0.05, 0.5))
            est = levy_hat(values, eps, exact=True)
            ts = np.linspace(values[0] - eps, values[-1] + eps, 20001)
            counts = (np.searchsorted(values, ts + eps, side="right")
                      - np.searchsorted(values, ts - eps, side="left"))
            assert est.value >= counts.max() / 40 - 1e-12
            assert est.value == pytest.approx(counts.max() / 40, abs=1.0 / 40)

    def test_exact_dominates_grid(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(500)
        for eps in (0.01, 0.1, 0.5):
            grid = levy_hat(values, eps).value
            exact = levy_hat(values, eps, exact=True).value
            assert exact >= grid

    def test_se_hint(self):
        est = levy_hat(np.arange(100.0), 1.0)
        expect = math.sqrt(est.value * (1.0 - est.value) / 100)
        assert est.se_hint == pytest.approx(expect)


class TestScanInvariants:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        values = rng.standard_normal(1000)
        a = levy_hat(values, 0.1)
        b = levy_hat(rng.permutation(values), 0.1)
        assert a.value == b.value
        assert a.argmax_t == b.argmax_t

    def test_curve_nondecreasing(self):
        rng = np.random.default_rng(13)
        values = rng.standard_normal(2000)
        ests = levy_curve(values, [0.01, 0.02, 0.05, 0.1, 0.5, 1.0])
        vals = [e.value for e in ests]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_shift_equivariance_exact(self):
        # On a dyadic lattice with a power-of-two grid-step divisor every
        # intermediate is exact, so the estimate is bit-identical and the
        # window center shifts by exactly the added constant.
        rng = np.random.default_rng(14)
        values = dyadic(rng.standard_normal(4000))
        shift = 0.8125
        eps = 0.0625
        a = levy_hat(values, eps, grid_points=1025)
        b = levy_hat(values + shift, eps, grid_points=1025)
        assert a.value == b.value
        assert b.argmax_t == a.argmax_t + shift

    @settings(max_examples=60, deadline=None)
    @given(ints=st.lists(st.integers(-2 ** 24, 2 ** 24), min_size=1, max_size=300),
           shift=st.integers(-2 ** 26, 2 ** 26), eps=st.integers(1, 2 ** 24),
           grid_points=st.sampled_from([1] + [2 ** j + 1 for j in range(11)]),
           exact=st.booleans())
    def test_shift_equivariance_property(self, ints, shift, eps, grid_points, exact):
        # Samples, shift and eps on the 2^-20 lattice, below 2^6 in size, and a
        # grid step of (max - min) / 2^j: every sum the scan forms is exact.
        values = np.array(ints) * 2.0 ** -20
        shift, eps = shift * 2.0 ** -20, eps * 2.0 ** -20
        a = levy_hat(values, eps, grid_points=grid_points, exact=exact)
        b = levy_hat(values + shift, eps, grid_points=grid_points, exact=exact)
        assert b.value == a.value
        assert b.argmax_t == a.argmax_t + shift

    def test_curve_matches_single(self):
        rng = np.random.default_rng(15)
        values = rng.standard_normal(500)
        single = levy_hat(values, 0.25)
        curve, = levy_curve(values, [0.25])
        assert curve.value == single.value
        assert curve.argmax_t == single.argmax_t

    def test_validation(self):
        with pytest.raises(EmptySample):
            levy_hat(np.array([]), 0.1)
        with pytest.raises(BadConfig):
            levy_hat(np.zeros(5), 0.0)
        with pytest.raises(BadConfig):
            levy_hat(np.zeros(5), 0.1, grid_points=0)
        with pytest.raises(BadConfig):
            levy_curve(np.zeros(5), [])
        with pytest.raises(BadConfig):
            levy_curve(np.zeros(5), [0.2, 0.1])
        with pytest.raises(BadConfig):
            levy_curve(np.zeros(5), [-0.1, 0.2])
        with pytest.raises(EmptySample):
            levy_curve(np.array([]), [0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        values = np.array([bad, 1.0, 2.0])
        with pytest.raises(BadConfig):
            levy_hat(values, 0.1)
        with pytest.raises(BadConfig):
            levy_hat(values, 0.1, exact=True)
        with pytest.raises(BadConfig):
            levy_curve(values, [0.1])

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
           eps=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=8),
           grid_points=st.integers(1, 300))
    def test_curve_nondecreasing_property(self, values, eps, grid_points):
        ests = levy_curve(np.array(values), sorted(eps), grid_points=grid_points)
        vals = [e.value for e in ests]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_epsilon_rejected(self, eps):
        values = np.random.default_rng(16).standard_normal(50)
        with pytest.raises(BadConfig):
            levy_hat(values, eps)
        with pytest.raises(BadConfig):
            levy_hat(values, eps, exact=True)
        with pytest.raises(BadConfig):
            levy_curve(values, [0.1, eps])


class TestExpectedMax:
    def test_abs_single_normal(self):
        # E|Z| = sqrt(2/pi); quadrature confirms the constant first.
        quad, _ = integrate.quad(lambda t: 2.0 * (1.0 - phi(t)), 0.0, np.inf)
        assert quad == pytest.approx(SQRT_2_OVER_PI, abs=1e-9)
        spec = CovSpec.explicit(np.eye(1))
        value, = expected_max_many(spec, [[0]], n_mc=10 ** 6, seed=0)
        assert value == pytest.approx(SQRT_2_OVER_PI, abs=0.002)

    def test_abs_pair_iid(self):
        # E max(|Z1|, |Z2|) = 2/sqrt(pi) via P(max > t) = 1 - (2 Phi(t) - 1)^2.
        quad, _ = integrate.quad(
            lambda t: 1.0 - (2.0 * phi(t) - 1.0) ** 2, 0.0, np.inf)
        assert quad == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-9)
        spec = CovSpec.explicit(np.eye(2))
        value, = expected_max_many(spec, [[0, 1]], n_mc=200000, seed=1)
        assert value == pytest.approx(TWO_OVER_SQRT_PI, abs=0.003)

    def test_signed_pair_iid(self):
        spec = CovSpec.explicit(np.eye(2))
        got, = expected_max_many(spec, [[0, 1]], n_mc=200000, seed=2, mode="signed")
        assert got == pytest.approx(INV_SQRT_PI, abs=0.003)

    def test_signed_includes_mean(self):
        spec = CovSpec.explicit(np.eye(1), mu=[3.0])
        got, = expected_max_many(spec, [[0]], n_mc=200000, seed=3, mode="signed")
        assert got == pytest.approx(3.0 + 0.0, abs=0.004)

    def test_abs_ignores_mean(self):
        plain = CovSpec.explicit(np.eye(1))
        shifted = CovSpec.explicit(np.eye(1), mu=[100.0])
        a = expected_max_many(plain, [[0]], n_mc=5000, seed=4)
        b = expected_max_many(shifted, [[0]], n_mc=5000, seed=4)
        assert a[0] == b[0]

    def test_duplicated_pair_equals_single(self):
        # Same factor rank means the same normal stream, so a duplicated
        # coordinate changes nothing, down to the last bit.
        single = CovSpec.factor(np.array([[1.0]]))
        pair = CovSpec.factor(np.array([[1.0], [1.0]]))
        a = expected_max_many(single, [[0]], n_mc=50000, seed=5)
        b = expected_max_many(pair, [[0, 1]], n_mc=50000, seed=5)
        assert a == b

    def test_standardization(self):
        # Doubling a coordinate is exact, and abs_std divides its sd of 2 out again.
        one = expected_max_many(CovSpec.factor(np.array([[1.0]])), [[0]], n_mc=50000, seed=6)
        two = expected_max_many(CovSpec.factor(np.array([[2.0]])), [[0]], n_mc=50000, seed=6)
        assert two == one

    def test_crn_monotone_in_subset(self):
        # Same seed, nested subsets: the estimate can only go up, exactly.
        rng = np.random.default_rng(16)
        g = rng.standard_normal((6, 3))
        spec = CovSpec.factor(g)
        small, = expected_max_many(spec, [[1, 4]], n_mc=20000, seed=7)
        large, = expected_max_many(spec, [[0, 1, 4, 5]], n_mc=20000, seed=7)
        assert large >= small

    def test_batched_matches_separate(self):
        rng = np.random.default_rng(17)
        spec = CovSpec.factor(rng.standard_normal((5, 2)))
        subsets = [[0, 1], [2, 3, 4], [0, 4]]
        batched = expected_max_many(spec, subsets, n_mc=10000, seed=8)
        separate = [expected_max_many(spec, [s], n_mc=10000, seed=8)[0]
                    for s in subsets]
        assert batched == separate

    @pytest.mark.parametrize("mode", ["abs_std", "signed"])
    def test_equals_chunk_by_chunk_reference(self, mode):
        # Three chunks of emax_chunk_rows(d) rows, each drawn from its own
        # chunk_rng and summed in chunk order, give the same floats.
        rng = np.random.default_rng(18)
        gamma, mu = rng.standard_normal((5, 3)), rng.standard_normal(5)
        spec = CovSpec.factor(gamma, mu=mu)
        subsets = [[0, 1], [1, 2, 4]]
        rows = emax_chunk_rows(3)
        n_mc, seed = 2 * rows + 7, 11
        sums = [0.0] * len(subsets)
        for k, lo in enumerate(range(0, n_mc, rows)):
            z = chunk_rng(seed, k).standard_normal((min(lo + rows, n_mc) - lo, 3))
            x = z @ gamma.T
            x = x + mu if mode == "signed" else np.abs(x) / spec.sds
            for i, s in enumerate(subsets):
                sums[i] += float(np.sum(x[:, s].max(axis=1)))
        want = [total / n_mc for total in sums]
        got = expected_max_many(spec, subsets, n_mc, seed, mode)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_validation(self):
        spec = CovSpec.explicit(np.eye(2))
        with pytest.raises(EmptySubset):
            expected_max_many(spec, [[]], n_mc=10, seed=0)
        with pytest.raises(BadConfig):
            expected_max_many(spec, [[2]], n_mc=10, seed=0)
        with pytest.raises(BadConfig):
            expected_max_many(spec, [[0]], n_mc=0, seed=0)
        with pytest.raises(BadConfig):
            expected_max_many(spec, [[0]], n_mc=10, seed=0, mode="median")


MODES = ("abs_std", "signed")


@st.composite
def tiled_requests(draw):
    """A factor spec over up to about 3 tiles, with or without noise, and
    subsets that cross tile edges.
    """
    p = draw(st.integers(1, 3 * TILE + 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gamma, mu = rng.standard_normal((p, draw(st.integers(1, 40)))), rng.standard_normal(p)
    noise = np.abs(rng.standard_normal(p)) if draw(st.booleans()) else None
    spec = CovSpec.factor(gamma, mu=mu, noise=noise)
    edges = [t * TILE for t in range(1, (p - 1) // TILE + 1)] or [0]
    lo = st.builds(lambda e, back: max(e - back, 0), st.sampled_from(edges),
                   st.integers(0, 8))
    spans = st.builds(lambda a, n: list(range(a, min(a + n, p))), lo, st.integers(1, 20))
    scattered = st.lists(st.integers(0, p - 1), min_size=1, max_size=12)
    subsets = draw(st.lists(st.one_of(spans, scattered), min_size=1, max_size=4))
    return spec, subsets, draw(st.integers(1, 2000)), draw(st.integers(0, 2 ** 64 - 1))


class TestTileContract:
    """Fixed column tiles: a coordinate's values never depend on the request."""

    @settings(max_examples=40, deadline=None)
    @given(req=tiled_requests(), mode=st.sampled_from(MODES))
    def test_batched_equals_separate_property(self, req, mode):
        spec, subsets, n_mc, seed = req
        batched = expected_max_many(spec, subsets, n_mc, seed, mode)
        separate = [expected_max_many(spec, [s], n_mc, seed, mode)[0] for s in subsets]
        assert np.array(batched).tobytes() == np.array(separate).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(req=tiled_requests(), mode=st.sampled_from(MODES))
    def test_enlarging_subset_never_lowers_property(self, req, mode):
        spec, subsets, n_mc, seed = req
        small = subsets[0]
        large = sorted(set(small).union(*subsets[1:]))
        e_small, = expected_max_many(spec, [small], n_mc, seed, mode)
        e_large, = expected_max_many(spec, [large], n_mc, seed, mode)
        assert e_large >= e_small

    @pytest.mark.parametrize("noise", [False, True], ids=["plain", "noise"])
    @pytest.mark.parametrize("p, d", [(TILE, 50), (2 * TILE + 3, 7)])
    def test_reads_the_sampler_coordinates(self, p, d, noise):
        # A pass of one chunk draws, at every height, the coordinates that
        # sample() returns bit for bit, so its signed estimate is the mean of
        # their row maxima.
        rng = np.random.default_rng(p + d)
        spec = CovSpec.factor(rng.standard_normal((p, d)), mu=rng.standard_normal(p),
                              noise=np.abs(rng.standard_normal(p)) if noise else None)
        top = min(CHUNK, emax_chunk_rows(draw_width(spec)))
        subsets = [range(p), range(TILE - 5, min(TILE + 5, p)), range(1, p, 7)]
        for m in (1, 2, 3, 64, top - 1, top):
            data = sample(spec, m, seed=m).data
            for a in subsets:
                want = float(np.sum(data[:, list(a)].max(axis=1))) / m
                got, = expected_max_many(spec, [a], m, seed=m, mode="signed")
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (m, a)


def test_noise_spec_matches_dense_factor():
    # The same normals feed gamma and the noise columns of the dense factor
    # [gamma | diag(noise)], chunk by chunk.
    rng = np.random.default_rng(3)
    p, d = 2 * TILE + 9, 4
    gamma = rng.standard_normal((p, d))
    noise = np.abs(rng.standard_normal(p))
    mu = rng.standard_normal(p)
    noisy = CovSpec.factor(gamma, mu=mu, noise=noise)
    dense = CovSpec.factor(np.hstack([gamma, np.diag(noise)]), mu=mu)
    subsets = [range(p), range(TILE - 3, TILE + 40), [0, p - 1]]
    for mode in MODES:
        got = np.array(expected_max_many(noisy, subsets, 3000, seed=8, mode=mode))
        want = np.array(expected_max_many(dense, subsets, 3000, seed=8, mode=mode))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
