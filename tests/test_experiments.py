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
from maxgap.experiments import COMPARE_COLUMNS, _versions, write_csv
from maxgap.sampling import CHUNK, RNG_METHOD, draw_width


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
        # tracemalloc sees numpy's buffers.  Each sampler thread holds the
        # chunk's normals and one CHUNK x TILE tile (the blocks are ranges, so
        # no copies); rho_bar holds one |A| x TILE strip of Sigma[A, B] and
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
        bound = (CHUNK * (r + TILE) * 8 * n_threads + 4 * len(part.a_set) * TILE * 8
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
    MESSAGES = {"grid_points": "grid_points must be positive", "n_rep": "n_rep must be positive",
                "n_threads": "n_threads must be positive",
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
        (run_levy_experiment, {"grid_points": 0}),
        (run_levy_experiment, {"n_rep": 0}),
        (run_levy_experiment, {"n_threads": 0}),
        (run_levy_experiment, {"seed": 2 ** 64}),
        (run_levy_experiment, {"epsilons": ()}),
        (run_bounds_compare, {"grid_points": 0}),
        (run_bounds_compare, {"n_threads": 0}),
        (run_bounds_compare, {"seed": -1}),
        (run_bounds_compare, {"epsilons": ()}),
        (run_scaling_study, {"grid_points": 0}),
        (run_scaling_study, {"n_rep": 0}),
        (run_scaling_study, {"n_threads": 0}),
    ], ids=lambda v: "-".join(v) if isinstance(v, dict) else v.__name__)
    def test_before_any_work(self, driver, kwargs, tmp_path, monkeypatch):
        ran = self.spy(monkeypatch)
        if driver is run_scaling_study:
            call = lambda: driver("k0_sweep", p_list=(25,), out_dir=str(tmp_path), **kwargs)
        else:
            extra = {"n_mc": 200} if driver is run_bounds_compare else {}
            call = lambda: driver(self.CFG, out_dir=str(tmp_path), **extra, **kwargs)
        with pytest.raises(BadConfig, match=self.MESSAGES[next(iter(kwargs))]):
            call()
        assert ran == []
        assert list(tmp_path.iterdir()) == []

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
    def test_one_scan_over_distinct_epsilons(self, driver, extra, tmp_path, monkeypatch):
        # One levy_curve call over the sorted distinct epsilons serves every
        # row; each estimate equals its own one-epsilon scan.
        import maxgap.experiments as experiments
        scans = []
        monkeypatch.setattr(experiments, "levy_curve", lambda d, eps, *a:
                            scans.append(list(eps)) or levy_curve(d, eps, *a))
        _, rows, *_ = driver(self.CFG, epsilons=(0.2, 0.01, 0.2), n_rep=300,
                             out_dir=str(tmp_path), **extra)
        assert scans == [[0.01, 0.2]]
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
        assert report.lower_exchangeable.residual == 0.5

    def test_which_filter(self, tmp_path):
        cfg = DesignConfig(kind="fullrank_equicorr", p=4, rho=0.5)
        _, rows, _ = run_bounds_compare(cfg, epsilons=(0.05,), n_rep=200,
                                        n_mc=5000, which=("baseline",),
                                        out_dir=str(tmp_path))
        assert rows[0]["ratio_baseline"] is not None
        assert rows[0]["ratio_homogeneous"] is None
        assert rows[0]["ratio_single_max"] is None


class TestScalingStudy:
    def test_rho_sweep_tracks_gap(self, tmp_path):
        path, rows = run_scaling_study("rho_sweep_fullrank", out_dir=str(tmp_path),
                                       p=16, n_points=10, n_rep=2000, seed=6)
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
                                    p=12, d=3, n_points=3, n_rep=100, seed=8)
        ids = [r["design_id"] for r in rows]
        assert len(set(ids)) == 3

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(Exception):
            run_scaling_study("epsilon_sweep", out_dir=str(tmp_path))

    @pytest.mark.parametrize("kind, empty", [("k0_sweep", {"p_list": ()}),
                                             ("rho_sweep_fullrank", {"n_points": 0}),
                                             ("rho_sweep_lowrank", {"n_points": 0})])
    def test_empty_sweep_rejected(self, tmp_path, kind, empty):
        with pytest.raises(BadConfig):
            run_scaling_study(kind, out_dir=str(tmp_path), **empty)
        assert list(tmp_path.iterdir()) == []


class TestBootstrapDemo:
    def good_data(self):
        sig = np.full((6, 6), 0.5) + np.eye(6) * 0.5
        batch = sample(CovSpec.explicit(sig), 300, seed=9)
        return DataMatrix(xi=batch.data)

    def test_payload_shape(self, tmp_path):
        out = str(tmp_path / "demo.json")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallSampleWarning)
            payload = run_bootstrap_demo(self.good_data(), Partition.split(6, 3),
                                         b_reps=500, seed=10, n_mc=2000,
                                         out_path=out)
        assert payload["n"] == 300 and payload["p"] == 6
        assert 0.0 <= payload["bootstrap"]["prob"] <= 1.0
        assert payload["clt_rate"] > 0.0
        assert set(payload["clt_inputs"]) == {"b_n", "b0", "c_ab", "emax_s", "s_set"}
        assert json.load(open(out)) == payload

    def test_diagnostic_skipped_on_violation(self):
        spec, part = gen_design(
            DesignConfig(kind="heterog_violation", p=8, variance_profile="v075"))
        data = DataMatrix(xi=sample(spec, 400, seed=11).data)
        payload = run_bootstrap_demo(data, part, b_reps=200, seed=11, n_mc=1000)
        assert payload["clt_rate"] is None
        assert payload["clt_skipped"] == "condition_fails"


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

    def test_compare_columns_frozen(self):
        assert COMPARE_COLUMNS[0] == "design_id"
        assert "inapplicable" in COMPARE_COLUMNS


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
