"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(straight to the terminal, bypassing capture) so a suite run doubles as a
checklist.  Seeds are fixed, so every verdict is reproducible bit for bit;
statistical tolerances are pinned to multiples of the binomial standard
error at the stated sample sizes.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from maxgap import (ALL_BOUNDS, CovSpec, DataMatrix, Inapplicable,
                    Partition, SingularCovariance, argmax_prob,
                    bound_baseline_min_eig, bound_corr_threshold, bound_report,
                    bound_single_max, expected_max_many, levy_hat,
                    max_diff, multiplier_replicates, run_bounds_compare,
                    sample)
from maxgap.cli import main as cli_main
from maxgap.designs import DesignConfig, gen_design

from conftest import dyadic, footnote_factor, phi


@contextmanager
def verdict(capsys, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"\n{label}: {'PASS' if ok else 'FAIL'}")


def test_01_analytic_gap_oracle(capsys):
    # Two correlated coordinates: M_B - M_A is Gaussian with sd
    # sigma*sqrt(2(1-rho)), so the concentration has a closed form.
    with verdict(capsys, "criterion 1 (analytic gap oracle)"):
        t0 = time.monotonic()
        n = 100000
        rng = np.random.default_rng(13)
        for trial in range(20):
            rho = float(rng.uniform(-0.9, 0.99))
            sd = float(rng.uniform(0.5, 2.0))
            mu = rng.uniform(-3.0, 3.0, size=2)
            sigma = sd * sd * np.array([[1.0, rho], [rho, 1.0]])
            spec = CovSpec.explicit(sigma, mu=mu)
            part = Partition.split(2, 1)
            diffs = max_diff(sample(spec, n, seed=1000 + trial), part)
            gap_sd = sd * math.sqrt(2.0 * (1.0 - rho))
            for eps in (0.01, 0.05, 0.2):
                est = levy_hat(diffs, eps, grid_points=1000)
                truth = 2.0 * phi(eps / gap_sd) - 1.0
                se = math.sqrt(truth * (1.0 - truth) / n)
                assert abs(est.value - truth) <= 4.0 * se, \
                    f"trial {trial} eps {eps}: {est.value} vs {truth}"
        assert time.monotonic() - t0 < 30.0


def test_02_degenerate_design_rate(capsys):
    # Rank-two four-coordinate design: the joint covariance is singular, so
    # the minimum-eigenvalue bound must refuse, yet the difference of maxima
    # still spreads out at a dimension-free linear rate in epsilon.
    with verdict(capsys, "criterion 2 (degenerate design rate)"):
        t0 = time.monotonic()
        spec = CovSpec.factor(footnote_factor())
        part = Partition.split(4, 2)
        with pytest.raises(SingularCovariance):
            bound_baseline_min_eig(spec)
        diffs = max_diff(sample(spec, 200000, seed=7), part)
        rate = 8.0 / math.sqrt(math.pi)
        for eps in (0.02, 0.05, 0.1):
            est = levy_hat(diffs, eps)
            assert est.value <= rate * eps + 4.0 * est.se_hint, \
                f"eps {eps}: {est.value} above {rate * eps}"
        assert time.monotonic() - t0 < 60.0


def test_03_high_dim_ratio_table(capsys, tmp_path):
    # p=2000 low-rank design with a fresh random factor: the per-unit-epsilon
    # ratios land in wide brackets around their reference magnitudes and the
    # empirical < heterogeneous < conditional < baseline ordering is strict.
    with verdict(capsys, "criterion 3 (high-dim ratio table)"):
        t0 = time.monotonic()
        cfg = DesignConfig(kind="table1", p=2000, seed=2025)
        _, rows, _ = run_bounds_compare(
            cfg, epsilons=(0.05,), n_rep=5000, n_mc=20000,
            which=("heterogeneous", "conditional", "baseline"),
            out_dir=str(tmp_path))
        row = rows[0]
        emp = row["ratio_empirical"]
        het = row["ratio_heterogeneous"]
        con = row["ratio_conditional"]
        base = row["ratio_baseline"]
        assert 1.3 <= emp <= 2.6, f"empirical ratio {emp}"
        assert 6.0 <= het <= 16.0, f"heterogeneous ratio {het}"
        assert 60.0 <= con <= 160.0, f"conditional ratio {con}"
        assert 140.0 <= base <= 260.0, f"baseline ratio {base}"
        assert emp < het < con < base
        assert row["inapplicable"] == ""
        assert time.monotonic() - t0 < 600.0


def test_04_bound_dominance_suite(capsys):
    # 30 randomized designs: every applicable bound sits above the empirical
    # concentration of the statistic it bounds, up to 4 standard errors.
    # The single-max bounds cover each block maximum alone, so they are
    # checked against the single-max estimates rather than the difference.
    with verdict(capsys, "criterion 4 (bound dominance suite)"):
        t0 = time.monotonic()
        rng = np.random.default_rng(314)
        for trial in range(30):
            p = 2 * int(rng.integers(5, 101))
            if trial % 2 == 0:
                cfg = DesignConfig(kind="homog_lowrank", p=p,
                                   seed=int(rng.integers(2**32)))
            else:
                cfg = DesignConfig(kind="heterog_condA", p=p,
                                   d=int(rng.integers(2, 21)),
                                   seed=int(rng.integers(2**32)))
            spec, part = gen_design(cfg)
            batch = sample(spec, 4000, seed=int(rng.integers(2**32)))
            diffs = max_diff(batch, part)
            max_a = batch[:, part.a_idx].max(axis=1)
            max_b = batch[:, part.b_idx].max(axis=1)
            mc = {"n_mc": 10000, "seed": trial}
            rep = bound_report(spec, part, **mc)
            single_a = bound_single_max(spec, part.a_set, **mc)
            single_b = bound_single_max(spec, part.b_set, **mc)
            assert rep.single_max == min(single_a, single_b)
            for eps in (0.02, 0.05):
                est = levy_hat(diffs, eps)
                targets = {name: (rep.ratio(name, eps), est)
                           for name in ALL_BOUNDS if name != "single_max"}
                targets["single_max_a"] = (single_a, levy_hat(max_a, eps))
                targets["single_max_b"] = (single_b, levy_hat(max_b, eps))
                for name, (ratio, tgt) in targets.items():
                    if ratio is None or isinstance(ratio, Inapplicable):
                        continue
                    v = ratio * eps
                    floor = tgt.value - 4.0 * tgt.se_hint
                    assert v >= floor, \
                        f"{name} on {cfg.design_id()} at eps {eps}: {v} < {floor}"
        assert time.monotonic() - t0 < 300.0


def test_05_exchangeable_sandwich(capsys):
    # Exchangeable blocks of 8 sharing 2 of 14 coordinates: the overlap pins
    # at least k/p of the mass at zero, while away from zero the mass falls
    # under the linear expected-max envelope.
    with verdict(capsys, "criterion 5 (exchangeable sandwich)"):
        t0 = time.monotonic()
        n = 200000
        eps = 0.05
        cfg = DesignConfig(kind="exchangeable_overlap", p=14, overlap_k=2,
                           rho=0.3, seed=0)
        spec, part = gen_design(cfg)
        diffs = max_diff(sample(spec, n, seed=77), part)
        est = levy_hat(diffs, eps)
        assert est.value >= 1.0 / 7.0 - 4.0 * est.se_hint

        v = np.sort(diffs)
        grid = np.linspace(v[0], v[-1], 1000)
        grid = grid[np.abs(grid) > eps]
        counts = (np.searchsorted(v, grid + eps, side="right")
                  - np.searchsorted(v, grid - eps, side="left"))
        off_sup = counts.max() / n
        # rho_bar of the underlying equicorrelated law, not of the duplicated
        # encoding (where the shared coordinates correlate perfectly).
        e_a, e_b = expected_max_many(spec, [part.a_set, part.b_set], n_mc=200000, seed=78)
        cap = 14.0 * eps / ((1.0 - 0.3) * 1.0) * min(e_a, e_b)
        se = math.sqrt(off_sup * (1.0 - off_sup) / n)
        assert off_sup <= cap + 4.0 * se
        assert time.monotonic() - t0 < 60.0


def test_06_block_size_plateau(capsys):
    # Fixed split size k0=20 in a growing ambient dimension: past p ~ 2*k0
    # the concentration stops depending on p, so all tail points agree
    # within noise.
    with verdict(capsys, "criterion 6 (block-size plateau)"):
        t0 = time.monotonic()
        levels = []
        for i, p in enumerate((25, 30, 40, 60, 80, 120)):
            cfg = DesignConfig(kind="k0_split", p=p, k0=20)
            spec, part = gen_design(cfg)
            diffs = max_diff(sample(spec, 2000, seed=100 + i), part)
            est = levy_hat(diffs, 0.05)
            levels.append((p, est.value, est.se_hint))
        tail = [x for x in levels if x[0] >= 40]
        for i in range(len(tail)):
            for j in range(i + 1, len(tail)):
                gap = abs(tail[i][1] - tail[j][1])
                noise = 3.0 * math.hypot(tail[i][2], tail[j][2])
                assert gap < noise, \
                    f"p={tail[i][0]} vs p={tail[j][0]}: {gap} >= {noise}"
        assert time.monotonic() - t0 < 120.0


def test_07_bootstrap_argmax_validity(capsys):
    # Multiplier bootstrap from one observed sample versus the argmax law
    # under the true covariance: the probabilities agree within 0.03 on at
    # least 18 of 20 random partitions.
    with verdict(capsys, "criterion 7 (bootstrap argmax validity)"):
        t0 = time.monotonic()
        p = 20
        cfg = DesignConfig(kind="fullrank_equicorr", p=p, rho=0.5)
        spec, _ = gen_design(cfg)
        data = DataMatrix(xi=sample(spec, 2000, seed=42))
        reps = multiplier_replicates(data, b_reps=5000, seed=43)
        truth_draws = sample(spec, 100000, seed=44)
        rng = np.random.default_rng(45)
        misses = 0
        for _ in range(20):
            k = int(rng.integers(1, p))
            perm = rng.permutation(p)
            part = Partition(tuple(sorted(perm[:k])), tuple(sorted(perm[k:])), p)
            got = argmax_prob(reps, part).prob_argmax_in_a
            want = float(np.mean(truth_draws[:, part.a_idx].max(axis=1)
                                 > truth_draws[:, part.b_idx].max(axis=1)))
            if abs(got - want) > 0.03:
                misses += 1
        assert misses <= 2, f"{misses} partitions off by more than 0.03"
        assert time.monotonic() - t0 < 180.0


def test_08_selftest_determinism(capsys, tmp_path):
    # The built-in selftest replays the two-coordinate analytic design with
    # 1 thread and with 8, and byte-compares the CSV payloads.
    with verdict(capsys, "criterion 8 (selftest determinism)"):
        code = cli_main(["selftest", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 2


def test_09_exact_invariants(capsys):
    # No tolerances anywhere below: these identities hold in floating point
    # exactly, by construction of the estimators.
    with verdict(capsys, "criterion 9 (exact invariants)"):
        # Shift equivariance on a dyadic lattice with a power-of-two grid
        # divisor: the value is bit-identical and the center moves by the
        # exact shift.
        rng = np.random.default_rng(5)
        vals = dyadic(1.5 * rng.standard_normal(4096))
        shift = 0.8125
        a = levy_hat(vals, 0.0625, grid_points=1025)
        b = levy_hat(vals + shift, 0.0625, grid_points=1025)
        assert b.value == a.value
        assert b.argmax_t == a.argmax_t + shift

        # Every bound is exactly linear in epsilon (doubling a float is
        # exact), including the threshold bound's value and per-delta rates.
        mc = {"n_mc": 100000, "seed": 0}
        spec, part = CovSpec.explicit(np.eye(2)), Partition.split(2, 1)
        eps = 0.05
        rep = bound_report(spec, part, **mc)
        for name in ALL_BOUNDS:
            assert rep.ratio(name, 2.0 * eps) * (2.0 * eps) \
                == 2.0 * (rep.ratio(name, eps) * eps), name
        for ta, tb in zip(bound_corr_threshold(spec, part, **mc), rep.corr_threshold):
            assert tb.rate == ta.rate

        # Common random numbers: enlarging the subset can only raise the
        # expected-max estimate, replicate by replicate.
        g = rng.standard_normal((6, 3))
        fspec = CovSpec.factor(g)
        small, = expected_max_many(fspec, [[1, 4]], n_mc=20000, seed=7)
        large, = expected_max_many(fspec, [[0, 1, 4, 5]], n_mc=20000, seed=7)
        assert large >= small

        # Equal variances and equal margins collapse the heterogeneous bound
        # onto the homogeneous one up to the 7:2 constants, bitwise.
        espec, epart = gen_design(DesignConfig(kind="fullrank_equicorr",
                                               p=4, rho=0.3))
        erep = bound_report(espec, epart, **mc, which=("heterogeneous", "homogeneous"))
        het = erep.ratio("heterogeneous", eps)
        hom = erep.ratio("homogeneous", eps)
        assert het * 7.0 == hom * 2.0
