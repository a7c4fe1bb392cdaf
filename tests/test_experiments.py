import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

import maxgap
from maxgap import (BadConfig, CovSpec, DataMatrix, IoError, Partition,
                    SmallSampleWarning, bound_report, levy_curve, max_diff,
                    run_bootstrap_demo, run_bounds_compare, run_levy_experiment,
                    run_scaling_study, sample, sample_max_diff)
from maxgap.cov import TILE
from maxgap.designs import DesignConfig, gen_design
from maxgap.experiments import (COMPARE_COLUMNS, LEVY_COLUMNS, SCALING_COLUMNS, _versions,
                                write_csv, write_json)
from maxgap.sampling import BLOCK, CHUNK, RNG_METHOD, draw_width

from conftest import run_python, spy_calls


def read_rows(path):
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestLevySweep:
    """The levy command's sweep: one streamed sample, one curve over the epsilons."""

    def test_identical_blocks_concentrate_fully(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 2))
        spec = CovSpec.factor(np.vstack([g, g]))
        diffs = sample_max_diff(spec, Partition.split(8, 4), n_rep=500, seed=1)
        ests = levy_curve(diffs, [0.01, 0.05])
        assert all(e.value == 1.0 for e in ests)

    def test_matches_direct_path(self):
        spec, part = gen_design(DesignConfig(kind="fullrank_equicorr", p=4, rho=0.3))
        a = levy_curve(sample_max_diff(spec, part, n_rep=1000, seed=2), [0.05])
        b = levy_curve(max_diff(sample(spec, 1000, seed=2), part), [0.05])
        assert a[0].value == b[0].value
        assert a[0].argmax_t == b[0].argmax_t


class TestLevyExperiment:
    CFG = DesignConfig(kind="fullrank_equicorr", p=4, rho=0.5, seed=3)

    def test_rows_and_rerun_identical(self, tmp_path):
        d1, d2 = str(tmp_path / "one"), str(tmp_path / "two")
        path1, rows = run_levy_experiment(self.CFG, epsilons=(0.05, 0.01),
                                          n_rep=400, out_dir=d1)
        path2, _ = run_levy_experiment(self.CFG, epsilons=(0.05, 0.01),
                                       n_rep=400, out_dir=d2)
        assert open(path1, "rb").read() == open(path2, "rb").read()
        assert [r["epsilon"] for r in rows] == [0.01, 0.05]
        assert all(r["design_id"] == self.CFG.design_id() for r in rows)

    def test_normalized_epsilon_column(self, tmp_path):
        _, rows = run_levy_experiment(self.CFG, epsilons=(0.1,), n_rep=100,
                                      out_dir=str(tmp_path))
        want = 0.1 * np.sqrt(np.log(4.0)) / 1.0
        assert rows[0]["norm_eps"] == pytest.approx(want, rel=1e-12)
        assert rows[0]["rho_bar"] == pytest.approx(0.5)

    def test_sidecar_manifest(self, tmp_path):
        path, rows = run_levy_experiment(self.CFG, epsilons=(0.05,), n_rep=100,
                                         out_dir=str(tmp_path))
        meta = json.load(open(path + ".meta.json"))
        assert meta["command"] == "levy"
        assert meta["n_rows"] == len(rows)
        assert meta["config"]["kind"] == "fullrank_equicorr"
        assert meta["columns"][0] == "design_id"
        assert "created" in meta

    def test_sidecar_layout(self, tmp_path, monkeypatch):
        # The sidecar holds the manifest's eleven fields, keys sorted and
        # tuples written as lists, in the one JSON layout of write_json.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        path = write_csv(str(tmp_path / "t.csv"), ("x", "y"), [{"x": 1, "y": 2.5}],
                         command="levy", seed=7, config={"kind": "k", "eps": (0.05, 0.1)},
                         spec_hash="abc")
        text = open(path + ".meta.json").read()
        meta = json.loads(text)
        assert meta == {
            "command": "levy", "seed": 7, "config": {"kind": "k", "eps": [0.05, 0.1]},
            "columns": ["x", "y"], "n_rows": 1, "outputs": ["t.csv"],
            "created": meta["created"], "versions": _versions(),
            "blas_threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                             "MKL_NUM_THREADS": None},
            "spec_hash": "abc", "rng_method": RNG_METHOD,
        }
        assert text == json.dumps(meta, indent=2, sort_keys=True) + "\n"

    def test_versions_without_dict_config(self, monkeypatch):
        # numpy before 1.26 (pyproject allows 1.24) has show_config() with no
        # mode, so the call raises TypeError and the BLAS build reads None.
        monkeypatch.setattr(np, "show_config", lambda: None)
        assert _versions() == {"maxgap": maxgap.__version__, "numpy": np.__version__,
                               "blas": None}

    def test_sidecar_provenance(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        path, _ = run_levy_experiment(self.CFG, epsilons=(0.05,), n_rep=100,
                                      out_dir=str(tmp_path))
        meta = json.load(open(path + ".meta.json"))
        assert meta["versions"]["maxgap"] == maxgap.__version__
        assert meta["versions"]["numpy"] == np.__version__
        assert "blas" in meta["versions"]
        assert meta["blas_threads"]["OPENBLAS_NUM_THREADS"] == "2"
        assert meta["blas_threads"]["MKL_NUM_THREADS"] is None
        assert set(meta["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS"}

    def test_csv_cells_roundtrip_exactly(self, tmp_path):
        path, rows = run_levy_experiment(self.CFG, epsilons=(0.05,), n_rep=100,
                                         out_dir=str(tmp_path))
        cells = read_rows(path)[0]
        assert float(cells["levy_hat"]) == rows[0]["levy_hat"]
        assert float(cells["norm_eps"]) == rows[0]["norm_eps"]


class TestStreamingMemory:
    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("cfg", [DesignConfig(kind="homog_lowrank", p=4 * TILE, d=40, seed=1),
                                     DesignConfig(kind="fullrank_equicorr", p=400, rho=0.5)],
                             ids=["lowrank", "fullrank"])
    def test_levy_peak_is_per_chunk(self, cfg, n_threads, tmp_path):
        # tracemalloc sees numpy's buffers.  Each sampler thread holds a
        # block of normals and one TILE x BLOCK tile (the blocks are ranges,
        # so no copies); rho_bar holds one |A| x TILE strip of Sigma[A, B] and
        # the tiles it is filled from; besides them the spec's p x r arrays
        # (the factor, its transpose and an explicit spec's Sigma), the
        # n_rep differences and their sorted copy.  The low-rank design spans
        # four tiles, so a CHUNK x p block per thread would exceed the bound.
        n_rep, p = 16 * CHUNK, cfg.p
        spec, part = gen_design(cfg)
        r = draw_width(spec)
        tracemalloc.start()
        try:
            run_levy_experiment(cfg, epsilons=(0.05,), n_rep=n_rep, out_dir=str(tmp_path),
                                n_threads=n_threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = (BLOCK * (r + TILE) * 8 * n_threads + 4 * len(part.a_set) * TILE * 8
                 + 3 * p * r * 8 + 2 * n_rep * 8)
        assert bound < n_rep * p * 8 / 2
        assert peak < bound


class TestEpsilonsCheckedFirst:
    @pytest.mark.parametrize("argv", [
        ["levy", "--kind", "fullrank_equicorr", "--p", "4", "--rho", "0.5", "--eps", "0.05,nan"],
        ["bounds-compare", "--kind", "fullrank_equicorr", "--p", "4", "--rho", "0.5",
         "--mc", "500", "--eps", "0.05,nan"],
        ["scaling", "--study", "k0_sweep", "--p-list", "25", "--eps", "nan"],
    ], ids=["levy", "bounds-compare", "scaling"])
    def test_before_any_monte_carlo(self, argv, tmp_path, monkeypatch, capsys):
        # A bad epsilon exits 2 before the geometry, the bounds or the sampler run.
        import maxgap.experiments as experiments
        from maxgap.cli import main
        ran = []
        for name in ("rho_bar", "bound_report", "sample_max_diff"):
            monkeypatch.setattr(experiments, name, lambda *a, _name=name, **k: ran.append(_name))
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "epsilon must be finite and positive, got nan" in capsys.readouterr().err
        assert ran == []


class TestArgumentsCheckedFirst:
    """Every driver argument is checked before the design, geometry or sampler run."""

    CFG = DesignConfig(kind="fullrank_equicorr", p=4, rho=0.5, seed=3)
    MESSAGES = {"n_rep": "n_rep must be positive", "n_threads": "n_threads must be positive",
                "seed": "seed must be an unsigned 64-bit", "epsilons": "need at least one epsilon"}

    @staticmethod
    def spy(monkeypatch) -> list:
        import maxgap.experiments as experiments
        ran = []
        for name in ("gen_design", "rho_bar", "bound_report", "sample_max_diff"):
            real = getattr(experiments, name)
            monkeypatch.setattr(experiments, name, lambda *a, _real=real, _name=name, **k:
                                ran.append(_name) or _real(*a, **k))
        return ran

    @pytest.mark.parametrize("driver, kwargs", [
        (run_levy_experiment, {"n_rep": 0}),
        (run_levy_experiment, {"n_threads": 0}),
        (run_levy_experiment, {"seed": 2 ** 64}),
        (run_levy_experiment, {"epsilons": ()}),
        (run_bounds_compare, {"n_threads": 0}),
        (run_bounds_compare, {"seed": -1}),
        (run_bounds_compare, {"epsilons": ()}),
        (run_scaling_study, {"n_rep": 0}),
        (run_scaling_study, {"n_threads": 0}),
        pytest.param(run_scaling_study, {"seed": -1}, id="run_scaling_study-seed-negative"),
        pytest.param(run_scaling_study, {"seed": 2 ** 64}, id="run_scaling_study-seed-2^64"),
    ], ids=lambda v: "-".join(v) if isinstance(v, dict) else v.__name__)
    def test_before_any_work(self, driver, kwargs, tmp_path, monkeypatch):
        # levy and bounds-compare sample with the design's seed.
        ran, message = self.spy(monkeypatch), self.MESSAGES[next(iter(kwargs))]
        if driver is run_scaling_study:
            call = lambda: driver("k0_sweep", p_list=(25,), out_dir=str(tmp_path), **kwargs)
        else:
            # The config checks its seed when it is built, so it is built in the call.
            extra = {"n_mc": 200} if driver is run_bounds_compare else {}
            seed = kwargs.get("seed", self.CFG.seed)
            kwargs = {k: v for k, v in kwargs.items() if k != "seed"}
            call = lambda: driver(dataclasses.replace(self.CFG, seed=seed),
                                  out_dir=str(tmp_path), **extra, **kwargs)
        with pytest.raises(BadConfig, match=message):
            call()
        assert ran == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("driver, extra", [(run_levy_experiment, {}),
                                               (run_bounds_compare, {"n_mc": 200})],
                             ids=["levy", "bounds-compare"])
    def test_numpy_design_options_run_as_ints(self, driver, extra, tmp_path, monkeypatch):
        # Numpy scalars in a design config become the Python numbers they
        # hold: the run samples once and its sidecar records plain ints.
        ran = self.spy(monkeypatch)
        cfg = DesignConfig(kind="homog_lowrank", p=np.int64(200), d=np.int32(4),
                           seed=np.uint64(1))
        path, *_ = driver(cfg, n_rep=300, out_dir=str(tmp_path), **extra)
        assert ran.count("sample_max_diff") == 1
        config = json.load(open(path + ".meta.json"))["config"]
        assert (config["p"], config["d"], config["seed"]) == (200, 4, 1)
        assert path.endswith("homog_lowrank-p200-d4-s1.csv")
        plain = driver(DesignConfig(kind="homog_lowrank", p=200, d=4, seed=1), n_rep=300,
                       out_dir=str(tmp_path / "plain"), **extra)[0]
        assert open(path, "rb").read() == open(plain, "rb").read()

    def test_each_check_runs_once(self, tmp_path, monkeypatch):
        # A driver checks its epsilons and its run once, before its first
        # design; a two-point study checks them once, not once per point.
        import maxgap.experiments as experiments
        calls = []
        for name in ("check_scan", "check_run"):
            real = getattr(experiments, name)
            monkeypatch.setattr(experiments, name, lambda *a, _real=real, _name=name, **k:
                                calls.append(_name) or _real(*a, **k))
        run_levy_experiment(self.CFG, n_rep=200, out_dir=str(tmp_path))
        run_bounds_compare(self.CFG, n_rep=200, n_mc=200, out_dir=str(tmp_path),
                           which=("baseline",))
        run_scaling_study("k0_sweep", k0=3, p_list=(5, 6), n_rep=100, out_dir=str(tmp_path))
        assert calls == ["check_scan", "check_run"] * 3

    def test_config_json_cannot_hold_fails_before_any_work(self, tmp_path, monkeypatch):
        # The sidecar config is serialized before the design is built.
        ran = self.spy(monkeypatch)
        cfg = dataclasses.replace(self.CFG, variance_profile=b"v075")
        with pytest.raises(BadConfig, match="^run config is not JSON"):
            run_bounds_compare(cfg, n_mc=200, n_rep=300, out_dir=str(tmp_path),
                               which=("baseline",))
        assert ran == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n_mc, message", [(0, "^n_mc must be positive, got 0$"),
                                                (2.5, "^n_mc must be an integer, got 2.5$")],
                             ids=["zero", "float"])
    def test_n_mc_checked_before_the_design(self, n_mc, message, tmp_path, monkeypatch):
        ran = self.spy(monkeypatch)
        with pytest.raises(BadConfig, match=message):
            run_bounds_compare(self.CFG, n_mc=n_mc, n_rep=100, out_dir=str(tmp_path))
        assert ran == []
        assert list(tmp_path.iterdir()) == []

    def test_numpy_n_mc_runs_as_int(self, tmp_path, monkeypatch):
        ran = self.spy(monkeypatch)
        path, *_ = run_bounds_compare(self.CFG, n_mc=np.int64(300), n_rep=100,
                                      out_dir=str(tmp_path), which=("single_max",))
        assert ran.count("gen_design") == 1
        mc = json.load(open(path + ".meta.json"))["config"]["mc"]
        assert mc == 300 and type(mc) is int

    @pytest.mark.parametrize("driver, extra", [(run_levy_experiment, {}),
                                               (run_bounds_compare, {"n_mc": 500})],
                             ids=["levy", "bounds-compare"])
    def test_scalar_epsilon_is_a_list_of_one(self, driver, extra, tmp_path):
        scalar = driver(self.CFG, epsilons=0.05, n_rep=200, out_dir=str(tmp_path / "s"), **extra)
        listed = driver(self.CFG, epsilons=[0.05], n_rep=200, out_dir=str(tmp_path / "l"),
                        **extra)
        assert scalar[1] == listed[1]
        assert open(scalar[0], "rb").read() == open(listed[0], "rb").read()

    @pytest.mark.parametrize("driver, extra", [(run_levy_experiment, {}),
                                               (run_bounds_compare, {"n_mc": 500})],
                             ids=["levy", "bounds-compare"])
    def test_one_scan_in_caller_order(self, driver, extra, tmp_path, monkeypatch):
        # One levy_curve call over the caller's epsilons, in their order,
        # serves every row; each estimate equals its own one-epsilon scan.
        import maxgap.experiments as experiments
        scans = []
        monkeypatch.setattr(experiments, "levy_curve", lambda d, eps, *a:
                            scans.append(list(eps)) or levy_curve(d, eps, *a))
        _, rows, *_ = driver(self.CFG, epsilons=(0.2, 0.01, 0.2), n_rep=300,
                             out_dir=str(tmp_path), **extra)
        assert scans == [[0.2, 0.01, 0.2]]
        diffs = sample_max_diff(*gen_design(self.CFG), n_rep=300, seed=self.CFG.seed)
        for row in rows:
            assert row["levy_hat"] == maxgap.levy_hat(diffs, row["epsilon"]).value
        want = [0.01, 0.2, 0.2] if driver is run_levy_experiment else [0.2, 0.01, 0.2]
        assert [row["epsilon"] for row in rows] == want


class TestBoundsCompare:
    def test_ratio_semantics(self, tmp_path):
        cfg = DesignConfig(kind="fullrank_equicorr", p=4, rho=0.5, seed=4)
        path, rows, report = run_bounds_compare(
            cfg, epsilons=(0.01, 0.05, 0.07), n_rep=400, n_mc=20000,
            out_dir=str(tmp_path))
        assert len(rows) == 3
        for row in rows:
            assert row["ratio_homogeneous"] == report.ratio("homogeneous", row["epsilon"])
            assert row["ratio_empirical"] == row["levy_hat"] / row["epsilon"]
            assert row["inapplicable"] == ""
        # Pure-rate bounds have epsilon-free ratios, bit for bit.
        for col in ("ratio_homogeneous", "ratio_heterogeneous", "ratio_conditional",
                    "ratio_baseline", "ratio_single_max"):
            assert len({row[col] for row in rows}) == 1, col

    def test_bounds_evaluated_once(self, tmp_path, monkeypatch):
        import maxgap.experiments as experiments
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return bound_report(*args, **kwargs)
        monkeypatch.setattr(experiments, "bound_report", counting)
        cfg = DesignConfig(kind="fullrank_equicorr", p=4, rho=0.5, seed=4)
        _, rows, _ = run_bounds_compare(cfg, epsilons=(0.01, 0.05, 0.07), n_rep=200,
                                        n_mc=2000, out_dir=str(tmp_path))
        assert len(rows) == 3
        assert len(calls) == 1

    def test_bounds_before_sampler(self, tmp_path, monkeypatch):
        # The report runs before the threaded sampler, whose freed chunk
        # buffers would otherwise sit under it; a bad n_rep fails first.
        import maxgap.experiments as experiments
        order = []
        for name in ("bound_report", "sample_max_diff"):
            real = getattr(experiments, name)
            monkeypatch.setattr(experiments, name, lambda *a, _real=real, _name=name, **k:
                                order.append(_name) or _real(*a, **k))
        cfg = DesignConfig(kind="fullrank_equicorr", p=4, rho=0.5, seed=4)
        run_bounds_compare(cfg, n_rep=200, n_mc=500, out_dir=str(tmp_path))
        assert order == ["bound_report", "sample_max_diff"]
        with pytest.raises(maxgap.BadConfig, match="n_rep"):
            run_bounds_compare(cfg, n_rep=0, n_mc=500, out_dir=str(tmp_path))
        assert order == ["bound_report", "sample_max_diff"]

    def test_inapplicable_flags(self, tmp_path):
        cfg = DesignConfig(kind="homog_overlap", p=4, d=2, overlap_k=1, seed=5)
        _, rows, _ = run_bounds_compare(cfg, epsilons=(0.05,), n_rep=200,
                                        n_mc=5000, out_dir=str(tmp_path))
        flags = dict(f.split(":") for f in rows[0]["inapplicable"].split(";"))
        assert flags == {
            "homogeneous": "perfect_cross_correlation",
            "heterogeneous": "perfect_cross_correlation",
            "conditional": "zero_residual_variance",
            "baseline": "singular_covariance",
        }
        assert rows[0]["ratio_single_max"] is not None
        assert rows[0]["ratio_corr_threshold"] is not None

    def test_lower_bound_on_overlap_design(self, tmp_path):
        cfg = DesignConfig(kind="exchangeable_overlap", p=14, overlap_k=2, rho=0.3)
        _, rows, report = run_bounds_compare(cfg, epsilons=(0.05,), n_rep=200,
                                             n_mc=5000, which=("corr_threshold",),
                                             out_dir=str(tmp_path))
        assert rows[0]["lower_bound"] == 2.0 / 14.0
        assert rows[0]["p"] == 16
        assert tuple(vars(report)) == maxgap.ALL_BOUNDS
        # Only the exchangeable design has the k/p lower bound.
        cfg = DesignConfig(kind="homog_overlap", p=14, d=3, overlap_k=2)
        _, rows, _ = run_bounds_compare(cfg, n_rep=200, n_mc=500, which=("corr_threshold",),
                                        out_dir=str(tmp_path))
        assert rows[0]["lower_bound"] is None

    def test_which_filter(self, tmp_path):
        cfg = DesignConfig(kind="fullrank_equicorr", p=4, rho=0.5)
        _, rows, _ = run_bounds_compare(cfg, epsilons=(0.05,), n_rep=200,
                                        n_mc=5000, which=("baseline",),
                                        out_dir=str(tmp_path))
        assert rows[0]["ratio_baseline"] is not None
        assert rows[0]["ratio_homogeneous"] is None
        assert rows[0]["ratio_single_max"] is None


# The options each scaling study reads, and a valid value of every study option.
READS = {"rho_sweep_fullrank": {"p", "points", "rho_min", "rho_max"},
         "rho_sweep_lowrank": {"p", "d", "points"},
         "k0_sweep": {"k0", "p_list"}}
VALUES = {"p": 8, "d": 2, "points": 2, "rho_min": 0.5, "rho_max": 0.6, "k0": 3,
          "p_list": (5, 6)}


class TestScalingStudy:
    def test_rho_sweep_tracks_gap(self, tmp_path):
        path, rows = run_scaling_study("rho_sweep_fullrank", out_dir=str(tmp_path),
                                       p=16, points=10, n_rep=2000, seed=6)
        levy = [r["levy_hat"] for r in rows]
        regressor = [r["inv_sqrt_gap"] for r in rows]
        corr, _ = stats.spearmanr(levy, regressor)
        assert corr > 0.7
        assert all(r["rho_bar"] == pytest.approx(r["rho"], abs=1e-12) for r in rows)

    def test_k0_sweep_rows(self, tmp_path):
        path, rows = run_scaling_study("k0_sweep", out_dir=str(tmp_path),
                                       k0=20, p_list=(25, 30), n_rep=200, seed=7)
        assert [r["p"] for r in rows] == [25, 30]
        assert all(r["k0"] == 20 for r in rows)
        assert all(r["rho"] is None for r in rows)
        cells = read_rows(path)
        assert cells[0]["rho"] == ""

    def test_lowrank_sweep_reseeds_designs(self, tmp_path):
        _, rows = run_scaling_study("rho_sweep_lowrank", out_dir=str(tmp_path),
                                    p=12, d=3, points=3, n_rep=100, seed=8)
        ids = [r["design_id"] for r in rows]
        assert len(set(ids)) == 3

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(Exception):
            run_scaling_study("epsilon_sweep", out_dir=str(tmp_path))

    @pytest.mark.parametrize("kind, option", [(kind, option) for kind, reads in READS.items()
                                              for option in VALUES if option not in reads])
    def test_unread_option_rejected_before_any_work(self, tmp_path, monkeypatch, kind, option):
        ran = TestArgumentsCheckedFirst.spy(monkeypatch)
        with pytest.raises(BadConfig, match=f"^{kind} does not read {option}$"):
            run_scaling_study(kind, out_dir=str(tmp_path), n_rep=100,
                              **{option: VALUES[option]})
        assert ran == []
        assert list(tmp_path.iterdir()) == []

    def test_unread_options_named_in_table_order(self, tmp_path):
        with pytest.raises(BadConfig, match="^k0_sweep does not read d, points, rho_min$"):
            run_scaling_study("k0_sweep", out_dir=str(tmp_path), rho_min=0.5, points=7, d=5)

    def test_unset_option_is_not_read(self, tmp_path):
        # None leaves an option unset, as in a design config.
        path, rows = run_scaling_study("k0_sweep", out_dir=str(tmp_path), k0=3, p_list=(5,),
                                       n_rep=100, d=None, points=None)
        assert len(rows) == 1

    def test_unknown_option_name(self, tmp_path):
        with pytest.raises(BadConfig, match="^rho_sweep_fullrank does not read n_points$"):
            run_scaling_study("rho_sweep_fullrank", out_dir=str(tmp_path), n_points=3)
        assert list(tmp_path.iterdir()) == []

    def test_run_options_are_keywords(self, tmp_path):
        # An old positional call (p fourth) must fail rather than run with p as n_rep.
        with pytest.raises(TypeError):
            run_scaling_study("k0_sweep", str(tmp_path), 0, 100)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", sorted(READS))
    def test_sidecar_config_holds_the_options_read(self, tmp_path, kind):
        options = {name: VALUES[name] for name in READS[kind]}
        path, _ = run_scaling_study(kind, out_dir=str(tmp_path), n_rep=100, epsilons=(0.1,),
                                    seed=4, **options)
        config = json.load(open(path + ".meta.json"))["config"]
        assert config == {"study": kind, **json.loads(json.dumps(options)), "reps": 100,
                          "eps": [0.1], "seed": 4}

    def test_array_p_list_recorded_as_ints(self, tmp_path):
        # A numpy p_list resolves to Python ints: both files are written, and
        # they match the run given the same dimensions as a tuple.
        arr, _ = run_scaling_study("k0_sweep", out_dir=str(tmp_path / "a"), k0=3,
                                   p_list=np.array([5, 6]), n_rep=100)
        tup, _ = run_scaling_study("k0_sweep", out_dir=str(tmp_path / "t"), k0=3,
                                   p_list=(5, 6), n_rep=100)
        config = json.load(open(arr + ".meta.json"))["config"]
        assert config["p_list"] == [5, 6]
        assert config == json.load(open(tup + ".meta.json"))["config"]
        assert open(arr, "rb").read() == open(tup, "rb").read()

    def test_numpy_k0_runs_as_int(self, tmp_path):
        path, rows = run_scaling_study("k0_sweep", out_dir=str(tmp_path), k0=np.int64(3),
                                       p_list=(5, 6), n_rep=100)
        assert [row["k0"] for row in rows] == [3, 3]
        assert json.load(open(path + ".meta.json"))["config"]["k0"] == 3

    @pytest.mark.parametrize("options, message", [
        ({"k0": 3, "p_list": [5.7, 6]}, r"^p_list must be a list of integers, got \[5.7, 6\]$"),
        ({"k0": 3.0, "p_list": (5,)}, "^k0 must be an integer, got 3.0$"),
        ({"k0": 3, "p_list": 5}, "^p_list must be a list of integers, got 5$"),
        ({"k0": 3, "p_list": [4, 3]}, r"^k0_split needs 1 <= k0 < p, got k0=3, p=3$"),
    ], ids=["fractional-p", "float-k0", "scalar-p_list", "unbuildable-point"])
    def test_bad_option_rejected_before_any_point(self, tmp_path, monkeypatch, options,
                                                  message):
        import maxgap.experiments as experiments

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the options were checked")

        monkeypatch.setattr(experiments, "sample_max_diff", no_sampling)
        options = {"n_rep": 100, **options}
        with pytest.raises(BadConfig, match=message):
            run_scaling_study("k0_sweep", out_dir=str(tmp_path), **options)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("run", [{"n_rep": np.int64(100)}, {"seed": np.uint64(3)}],
                             ids=["numpy-reps", "numpy-seed"])
    def test_numpy_run_options_run_as_ints(self, tmp_path, run):
        # As in levy and bounds-compare, a numpy n_rep or seed becomes the
        # Python int it holds: the study runs, its sidecar records plain
        # ints, and its CSV matches the run given plain ints.
        base = {"k0": 3, "p_list": (5, 6), "n_rep": 100}
        plain = {**base, **{k: int(v) for k, v in run.items()}}
        path, _ = run_scaling_study("k0_sweep", out_dir=str(tmp_path / "np"), **{**base, **run})
        want, _ = run_scaling_study("k0_sweep", out_dir=str(tmp_path / "int"), **plain)
        meta = json.load(open(path + ".meta.json"))
        assert type(meta["config"]["reps"]) is int and type(meta["config"]["seed"]) is int
        assert meta["seed"] == meta["config"]["seed"] == plain.get("seed", 0)
        assert meta["config"] == json.load(open(want + ".meta.json"))["config"]
        assert open(path, "rb").read() == open(want, "rb").read()

    @pytest.mark.parametrize("kind, options", [("k0_sweep", {"k0": 3, "p_list": (5, 9)}),
                                               ("rho_sweep_lowrank", {"p": 8, "points": 2})])
    def test_csv_bytes_equal_at_one_and_two_threads(self, tmp_path, kind, options):
        # Each point samples three chunks, so two threads split every point's work.
        paths = [run_scaling_study(kind, out_dir=str(tmp_path / str(n)), n_rep=3 * CHUNK,
                                   epsilons=(0.2, 0.05), n_threads=n, seed=11, **options)[0]
                 for n in (1, 2)]
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

    @pytest.mark.parametrize("kind, empty", [("k0_sweep", {"p_list": ()}),
                                             ("rho_sweep_fullrank", {"points": 0}),
                                             ("rho_sweep_lowrank", {"points": 0})])
    def test_empty_sweep_rejected(self, tmp_path, kind, empty):
        with pytest.raises(BadConfig, match=f"^{kind} needs at least one point, got 0$"):
            run_scaling_study(kind, out_dir=str(tmp_path), **empty)
        assert list(tmp_path.iterdir()) == []


class TestBootstrapDemo:
    def good_data(self):
        sig = np.full((6, 6), 0.5) + np.eye(6) * 0.5
        return DataMatrix(xi=sample(CovSpec.explicit(sig), 300, seed=9))

    def test_payload_shape(self, tmp_path):
        out = str(tmp_path / "demo.json")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallSampleWarning)
            payload = run_bootstrap_demo(self.good_data(), Partition.split(6, 3),
                                         b_reps=500, seed=10)
        assert payload["n"] == 300 and payload["p"] == 6
        assert 0.0 <= payload["bootstrap"]["prob"] <= 1.0
        assert payload["clt_rate"] > 0.0
        assert set(payload["clt_inputs"]) == {"b_n", "b0", "c_ab", "emax_s", "s_set"}
        assert "clt_skipped" not in payload
        write_json(out, payload)
        assert json.load(open(out)) == payload

    def test_diagnostic_skipped_on_violation(self):
        spec, part = gen_design(
            DesignConfig(kind="heterog_violation", p=8, variance_profile="v075"))
        data = DataMatrix(xi=sample(spec, 400, seed=11))
        payload = run_bootstrap_demo(data, part, b_reps=200, seed=11)
        assert payload["clt_rate"] is None
        assert payload["clt_skipped"] == "condition_fails"
        assert payload["clt_skipped_detail"] == (
            "variance conditions fail on the sample covariance")

    @pytest.mark.parametrize("kwargs, message", [
        ({"b_reps": 0}, "b_reps must be positive"),
        ({"multiplier": "poisson"}, "multiplier must be one of"),
        ({"seed": -1}, "seed must be an unsigned 64-bit"),
    ], ids=["b_reps", "multiplier", "seed"])
    def test_arguments_checked_before_the_diagnostic(self, kwargs, message, monkeypatch):
        import maxgap.experiments as experiments
        monkeypatch.setattr(experiments, "_clt_diagnostic", None)  # calling it would fail
        with pytest.raises(BadConfig, match=message):
            run_bootstrap_demo(self.good_data(), Partition.split(6, 3), **kwargs)

    def test_diagnostic_runs_before_the_replicates(self, monkeypatch):
        # The replicate chunks' freed buffers stay in the heap, so the
        # diagnostic's eigendecomposition runs first.
        import maxgap.experiments as experiments
        calls = spy_calls(monkeypatch, experiments, ("_clt_diagnostic", "run_bootstrap"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallSampleWarning)
            payload = run_bootstrap_demo(self.good_data(), Partition.split(6, 3), b_reps=300)
        assert [name for name, _ in calls] == ["_clt_diagnostic", "run_bootstrap"]
        assert list(payload)[-2:] == ["clt_rate", "clt_inputs"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sample_covariance_exactly_symmetric(self, threads):
        # centered^T centered is a Gram product, which numpy computes exactly
        # symmetric at either BLAS thread count: Sigma-hat needs no
        # symmetrization, and its spec stores it as computed.
        out = run_python("""
            import warnings
            import numpy as np
            from maxgap import DataMatrix, Partition, cov, experiments
            seen, real = [], cov.sqrt_factor
            cov.sqrt_factor = lambda sigma: seen.append(sigma) or real(sigma)
            warnings.simplefilter("ignore")
            data = DataMatrix(np.random.default_rng(2).standard_normal((300, 800)))
            experiments._clt_diagnostic(data, Partition.split(800, 400), 1)
            print([np.array_equal(m, m.T) for m in seen])
        """, OPENBLAS_NUM_THREADS=threads)
        assert out.split("\n")[0] == "[True]"

    def test_diagnostic_holds_the_sample_covariance_once(self, monkeypatch):
        # n < p, so Sigma-hat is p x p of rank r = n - 1.  With a 64-draw pass
        # the peak is the eigendecomposition: Sigma-hat (handed to its spec,
        # not copied), eigh's p x p basis, the r basis columns kept and the
        # p x r root.  The slack, half the n x p centered rows, admits neither
        # a second Sigma-hat nor the centered rows.  tracemalloc does not see
        # eigh's workspace, which LAPACK mallocs.
        import maxgap.experiments as experiments
        monkeypatch.setattr(experiments, "CLT_MC", 64)
        n, p = 100, 600
        assert self.diagnostic_peak(n, p) < 8 * (2 * p * p + 2 * p * (n - 1)) + 8 * n * p / 2

    def test_diagnostic_pass_holds_one_block(self):
        # The full CLT_MC-draw pass on the same 100 x 600 matrix: its draw
        # width r = n - 1 gives 4096-row chunks, drawn in BLOCK-row blocks.
        # The bound is Sigma-hat, its eigendecomposition (eigh's p x p basis,
        # the r columns kept and the p x r root), one TILE x BLOCK tile and
        # BLOCK x r normals.  A TILE x 4096 tile alone is 8 MiB.
        n, p = 100, 600
        r = n - 1
        assert self.diagnostic_peak(n, p) < 8 * (2 * p * p + 2 * p * r) + 8 * BLOCK * (TILE + r)

    @staticmethod
    def diagnostic_peak(n: int, p: int) -> int:
        """tracemalloc's peak over the diagnostic on a seeded n x p matrix, which must rate."""
        import maxgap.experiments as experiments
        data = DataMatrix(np.random.default_rng(0).standard_normal((n, p)))
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SmallSampleWarning)
                out = experiments._clt_diagnostic(data, Partition.split(p, p // 2), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out["clt_rate"] > 0.0
        return peak


class TestWriteCsv:
    def test_float_cells_survive(self, tmp_path):
        rng = np.random.default_rng(12)
        values = rng.standard_normal(50) * 10.0 ** rng.integers(-8, 8, 50)
        rows = [{"x": float(v)} for v in values]
        path = write_csv(str(tmp_path / "floats.csv"), ("x",), rows,
                         command="test", seed=0, config={})
        back = [float(r["x"]) for r in read_rows(path)]
        assert back == [r["x"] for r in rows]

    def test_unwritable_path(self):
        with pytest.raises(IoError):
            write_csv("/proc/nope/out.csv", ("x",), [], command="test",
                      seed=0, config={})

    def test_config_json_cannot_hold_writes_no_file(self, tmp_path):
        # The sidecar is serialized before either file is written.
        with pytest.raises(BadConfig, match="not JSON"):
            write_csv(str(tmp_path / "t.csv"), ("x",), [{"x": 1}], command="test",
                      seed=0, config={"p_list": np.array([5, 6])})
        assert list(tmp_path.iterdir()) == []

    def test_compare_columns_frozen(self):
        assert COMPARE_COLUMNS == (
            "design_id", "p", "epsilon", "levy_hat", "se", "ratio_empirical",
            "ratio_homogeneous", "ratio_corr_threshold", "ratio_heterogeneous",
            "ratio_conditional", "ratio_baseline", "ratio_single_max",
            "lower_bound", "inapplicable")

    def test_levy_and_scaling_columns_frozen(self):
        assert LEVY_COLUMNS == ("design_id", "p", "epsilon", "norm_eps", "levy_hat", "se",
                                "n_rep", "rho_bar")
        assert SCALING_COLUMNS == ("kind", "design_id", "p", "k0", "rho", "rho_bar", "epsilon",
                                   "levy_hat", "se", "n_rep", "inv_sqrt_gap", "inv_gap")


def test_drivers_share_one_row_builder(tmp_path):
    # k0_sweep's one point is this design, sampled with the study's seed, so
    # the three drivers measure one design: every row holds the same columns,
    # and rows at one eps agree on the measurement's columns.
    cfg = DesignConfig(kind="k0_split", p=6, k0=3, seed=2)
    run = {"epsilons": (0.2, 0.05), "n_rep": 300}
    _, levy = run_levy_experiment(cfg, out_dir=str(tmp_path / "l"), **run)
    _, compare, _ = run_bounds_compare(cfg, n_mc=200, which=("baseline",),
                                       out_dir=str(tmp_path / "b"), **run)
    _, scaling = run_scaling_study("k0_sweep", out_dir=str(tmp_path / "s"), k0=3, p_list=(6,),
                                   seed=2, **run)
    assert [r["epsilon"] for r in levy] == [0.05, 0.2]
    assert [r["epsilon"] for r in compare] == [r["epsilon"] for r in scaling] == [0.2, 0.05]
    assert {frozenset(r) for r in levy + compare + scaling} == {
        frozenset(LEVY_COLUMNS + COMPARE_COLUMNS + SCALING_COLUMNS)}
    for row in compare + scaling:
        same = next(r for r in levy if r["epsilon"] == row["epsilon"])
        for col in ("design_id", "p", "norm_eps", "levy_hat", "se", "n_rep"):
            assert row[col] == same[col], col
    assert [r["rho_bar"] for r in scaling] == [levy[0]["rho_bar"]] * 2


def test_levy_on_factor_spec_forms_no_matrix(tmp_path, monkeypatch):
    import maxgap.experiments as experiments

    specs = []
    real = experiments.gen_design

    def recording(cfg):
        spec, part = real(cfg)
        specs.append(spec)
        return spec, part
    monkeypatch.setattr(experiments, "gen_design", recording)
    cfg = DesignConfig(kind="homog_lowrank", p=400, seed=2)
    _, rows = run_levy_experiment(cfg, epsilons=(0.05,), n_rep=200, out_dir=str(tmp_path))
    spec, = specs
    assert rows[0]["rho_bar"] == maxgap.rho_bar(*real(cfg))
    assert "cov" not in spec.__dict__
