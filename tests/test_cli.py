import csv
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxgap
from maxgap import SmallSampleWarning, load_csv, multiplier_replicates
from maxgap.bootstrap import DEFAULT_QUANTILES
from maxgap.sampling import CHUNK
from maxgap.cli import (EXIT_CONFIG, EXIT_INAPPLICABLE, EXIT_IO, EXIT_OK,
                        EXIT_SELFTEST_FAILED, cmd_gen_design, main, parse_args)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenDesign:
    def test_stdout_json(self, capsys):
        code, out, _ = run(capsys, "gen-design", "--kind", "fullrank_equicorr",
                           "--p", "4", "--rho", "0.5")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["design_id"] == "fullrank_equicorr-p4-rho0.5-s0"
        assert payload["spec"]["form"] == "explicit"
        assert payload["partition"] == {"a": [0, 1], "b": [2, 3], "p": 4}

    def test_noise_written_when_present(self, capsys):
        code, out, _ = run(capsys, "gen-design", "--kind", "table1", "--p", "20")
        assert code == EXIT_OK
        spec = json.loads(out)["spec"]
        assert np.array(spec["gamma"]).shape == (20, 2)
        assert len(spec["noise"]) == 20

    def test_out_file(self, capsys, tmp_path):
        out_path = str(tmp_path / "design.json")
        code, out, _ = run(capsys, "gen-design", "--kind", "homog_lowrank",
                           "--p", "8", "--d", "2", "--out", out_path)
        assert code == EXIT_OK
        assert "wrote" in out
        payload = json.load(open(out_path))
        assert payload["config"]["kind"] == "homog_lowrank"

    def test_missing_kind(self, capsys):
        code, _, err = run(capsys, "gen-design", "--p", "4")
        assert code == EXIT_CONFIG
        assert "kind" in err

    def test_bad_geometry(self, capsys):
        code, _, err = run(capsys, "gen-design", "--kind", "fullrank_equicorr",
                           "--p", "5", "--rho", "0.5")
        assert code == EXIT_CONFIG
        assert "error:" in err


class TestConfigFile:
    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "fullrank_equicorr", "p": 4, "rho": 0.5}))
        code, out, _ = run(capsys, "gen-design", "--config", str(cfg), "--p", "6")
        assert code == EXIT_OK
        assert json.loads(out)["config"]["p"] == 6

    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "fullrank_equicorr", "p": 4, "rho": 0.5}))
        code, out, _ = run(capsys, "gen-design", "--config", str(cfg))
        assert code == EXIT_OK
        assert json.loads(out)["config"]["p"] == 4

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "gen-design", "--config", "/no/such/file.json")
        assert code == EXIT_IO
        assert "error:" in err

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        code, _, _ = run(capsys, "gen-design", "--config", str(cfg))
        assert code == EXIT_CONFIG

    def test_non_object_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, _ = run(capsys, "gen-design", "--config", str(cfg))
        assert code == EXIT_CONFIG

    def test_non_utf8_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'\xff\xfe{"p": 4}')
        code, _, err = run(capsys, "gen-design", "--kind", "table1", "--p", "20",
                           "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert len(err.splitlines()) == 1 and err.startswith("error:")


class TestLevyCommand:
    def test_happy_path(self, capsys, tmp_path):
        code, out, _ = run(capsys, "levy", "--kind", "fullrank_equicorr",
                           "--p", "4", "--rho", "0.3", "--reps", "200",
                           "--eps", "0.05,0.1", "--out", str(tmp_path))
        assert code == EXIT_OK
        assert "levy_hat=" in out
        assert "wrote" in out
        csvs = list(tmp_path.glob("levy_*.csv"))
        assert len(csvs) == 1


class TestBoundsCompareCommand:
    def test_happy_path(self, capsys, tmp_path):
        code, out, _ = run(capsys, "bounds-compare", "--kind", "fullrank_equicorr",
                           "--p", "4", "--rho", "0.3", "--reps", "200",
                           "--mc", "2000", "--out", str(tmp_path))
        assert code == EXIT_OK
        assert "homogeneous=" in out

    def test_all_requested_inapplicable(self, capsys, tmp_path):
        code, _, err = run(capsys, "bounds-compare", "--kind", "homog_overlap",
                           "--p", "4", "--d", "2", "--k", "1", "--reps", "100",
                           "--bounds", "homogeneous,heterogeneous,conditional,baseline",
                           "--out", str(tmp_path))
        assert code == EXIT_INAPPLICABLE
        assert "inapplicable" in err

    def test_inapplicable_line_carries_detail(self, capsys, tmp_path):
        # stdout names each inapplicable bound with its message; the CSV
        # column keeps the codes only.
        code, out, _ = run(capsys, "bounds-compare", "--kind", "homog_lowrank",
                           "--p", "6", "--d", "2", "--reps", "100", "--mc", "500",
                           "--bounds", "homogeneous,baseline", "--out", str(tmp_path))
        assert code == EXIT_OK
        line, = [ln for ln in out.splitlines() if "inapplicable:" in ln]
        assert line == ("  inapplicable: baseline:singular_covariance "
                        "(covariance rank is at most 2, below p = 6)")
        (path,) = tmp_path.glob("bounds_*.csv")
        with open(path, newline="") as fh:
            row, = csv.DictReader(fh)
        assert row["inapplicable"] == "baseline:singular_covariance"

    def test_inapplicable_line_printed_once(self, capsys, tmp_path):
        # One report serves every epsilon: one line after the rows, while
        # each CSV row keeps its own column.
        code, out, _ = run(capsys, "bounds-compare", "--kind", "homog_lowrank",
                           "--p", "6", "--d", "2", "--reps", "100", "--mc", "500",
                           "--eps", "0.01,0.05,0.2", "--bounds", "homogeneous,baseline",
                           "--out", str(tmp_path))
        assert code == EXIT_OK
        lines = out.splitlines()
        assert [ln for ln in lines if "inapplicable:" in ln] == [
            "  inapplicable: baseline:singular_covariance "
            "(covariance rank is at most 2, below p = 6)"]
        assert [ln.split()[0] for ln in lines[:3]] == ["eps=0.01", "eps=0.05", "eps=0.2"]
        (path,) = tmp_path.glob("bounds_*.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["inapplicable"] for r in rows] == ["baseline:singular_covariance"] * 3

    def test_single_max_rescues_overlap_design(self, capsys, tmp_path):
        code, _, _ = run(capsys, "bounds-compare", "--kind", "homog_overlap",
                         "--p", "4", "--d", "2", "--k", "1", "--reps", "100",
                         "--mc", "2000", "--out", str(tmp_path))
        assert code == EXIT_OK

    def test_unknown_bound_flag(self, capsys, tmp_path):
        code, _, _ = run(capsys, "bounds-compare", "--kind", "fullrank_equicorr",
                         "--p", "4", "--rho", "0.3", "--bounds", "sharpest",
                         "--out", str(tmp_path))
        assert code == 2

    def test_unknown_bound_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "fullrank_equicorr", "p": 4,
                                   "rho": 0.3, "bounds": ["sharpest"]}))
        code, _, err = run(capsys, "bounds-compare", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "unknown bounds" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_bound_list(self, capsys, tmp_path, source):
        # An empty request is a usage error, not "every bound inapplicable".
        argv = ["bounds-compare", "--out", str(tmp_path)]
        if source == "flag":
            argv += ["--kind", "fullrank_equicorr", "--p", "4", "--rho", "0.3", "--bounds", ""]
        else:
            argv += ["--config", write_config(tmp_path, {**DESIGN, "bounds": []})]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert "empty list" in err
        assert not list(tmp_path.glob("*.csv"))


class TestSidecarReplay:
    @pytest.mark.parametrize("argv", [
        ["bounds-compare", "--kind", "fullrank_equicorr", "--p", "6", "--rho", "0.4",
         "--reps", "300", "--mc", "500", "--eps", "0.2,0.01,0.2", "--grid", "50",
         "--bounds", "homogeneous,baseline", "--seed", "5"],
        ["levy", "--kind", "homog_lowrank", "--p", "8", "--d", "2", "--reps", "300",
         "--eps", "0.2,0.05", "--grid", "70", "--seed", "6"],
    ], ids=["bounds-compare", "levy"])
    def test_config_replays_run(self, capsys, tmp_path, argv):
        # The sidecar's config, passed back through --config, replays the
        # run: the same CSV, byte for byte.
        first, again = tmp_path / "first", tmp_path / "again"
        assert run(capsys, *argv, "--out", str(first))[0] == EXIT_OK
        (path,) = first.glob("*.csv")
        meta = json.loads((first / (path.name + ".meta.json")).read_text())
        cfg = write_config(tmp_path, meta["config"])
        assert run(capsys, argv[0], "--config", cfg, "--out", str(again))[0] == EXIT_OK
        assert (again / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("names", ["homogeneous", "homogeneous,baseline"])
    def test_bounds_config_takes_string_or_list(self, capsys, tmp_path, names):
        # A config's bounds take the flag's comma-joined string as well as a list.
        base = ["bounds-compare", "--kind", "fullrank_equicorr", "--p", "4", "--rho", "0.3",
                "--reps", "200", "--mc", "500"]
        sources = {
            "flag": ["--bounds", names],
            "string": ["--config", write_config(tmp_path, {"bounds": names}, "s.json")],
            "list": ["--config", write_config(tmp_path, {"bounds": names.split(",")},
                                              "l.json")],
        }
        csvs = {}
        for source, extra in sources.items():
            out = tmp_path / source
            assert run(capsys, *base, *extra, "--out", str(out))[0] == EXIT_OK
            (path,) = out.glob("*.csv")
            csvs[source] = path.read_bytes()
        assert csvs["string"] == csvs["flag"] == csvs["list"]


class TestImports:
    def test_monte_carlo_commands_skip_numpy_ma(self, tmp_path):
        # Importing numpy.ma (np.unique does) costs milliseconds on every run;
        # levy and an all-bounds bounds-compare never need it.
        script = textwrap.dedent(f"""
            import sys
            from maxgap.cli import main
            out = {str(tmp_path)!r}
            assert main(["levy", "--kind", "table1", "--p", "40", "--reps", "500",
                         "--out", out]) == 0
            assert main(["bounds-compare", "--kind", "table1", "--p", "40", "--reps", "500",
                         "--mc", "200", "--out", out]) == 0
            print("numpy.ma" in sys.modules)
        """)
        src = str(pathlib.Path(maxgap.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"


class TestScalingCommand:
    def test_k0_sweep(self, capsys, tmp_path):
        code, out, _ = run(capsys, "scaling", "--study", "k0_sweep", "--k0", "3",
                           "--p-list", "5,6", "--reps", "100", "--out", str(tmp_path))
        assert code == EXIT_OK
        assert "2 rows" in out

    def test_largest_seed_wraps(self, capsys, tmp_path):
        # Point 1 samples with seed 2^64, which wraps to 0.
        code, out, err = run(capsys, "scaling", "--study", "k0_sweep", "--k0", "20",
                             "--p-list", "25,30", "--reps", "100",
                             "--seed", str(2 ** 64 - 1), "--out", str(tmp_path))
        assert code == EXIT_OK, err
        assert "2 rows" in out

    def test_multiple_epsilons_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "scaling", "--study", "k0_sweep",
                           "--eps", "0.05,0.1", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "single epsilon" in err

    def test_study_required(self, capsys, tmp_path):
        code, _, err = run(capsys, "scaling", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "study" in err


class TestBootstrapCommand:
    def write_csv(self, tmp_path, n=60, p=4, seed=0):
        rng = np.random.default_rng(seed)
        path = tmp_path / "data.csv"
        rows = "\n".join(",".join(f"{v:.6f}" for v in row)
                         for row in rng.standard_normal((n, p)))
        path.write_text(rows + "\n")
        return str(path)

    def test_stdout_payload(self, capsys, tmp_path):
        data = self.write_csv(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallSampleWarning)
            code, out, _ = run(capsys, "bootstrap", "--data", data,
                               "--breps", "300", "--split", "2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["p"] == 4
        assert payload["a_size"] == 2
        assert 0.0 <= payload["bootstrap"]["prob"] <= 1.0

    def test_explicit_a_indices(self, capsys, tmp_path):
        data = self.write_csv(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallSampleWarning)
            code, out, _ = run(capsys, "bootstrap", "--data", data,
                               "--breps", "200", "--a", "0,3")
        assert code == EXIT_OK
        assert json.loads(out)["a_size"] == 2

    @pytest.mark.parametrize("a", ["0,1,2", "1,2", "3,0,2"])
    def test_a_indices_match_index_array_reference(self, capsys, tmp_path, a):
        # A contiguous block is read as a column view and any other as an
        # index array; both give the maxima of plain index-array copies.
        data = self.write_csv(tmp_path, n=40, p=6)
        b_reps = 2 * CHUNK + 5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallSampleWarning)
            code, out, _ = run(capsys, "bootstrap", "--data", data, "--breps", str(b_reps),
                               "--a", a, "--seed", "3")
        assert code == EXIT_OK
        a_idx = sorted(int(i) for i in a.split(","))
        b_idx = [i for i in range(6) if i not in a_idx]
        reps = multiplier_replicates(load_csv(data), b_reps, 3)
        diffs = reps[:, a_idx].max(axis=1) - reps[:, b_idx].max(axis=1)
        boot = json.loads(out)["bootstrap"]
        assert boot["prob"] == np.count_nonzero(diffs > 0.0) / b_reps
        assert boot["quantiles"] == {str(float(q)): float(np.quantile(diffs, q))
                                     for q in DEFAULT_QUANTILES}

    def test_shift_forces_block_a(self, capsys, tmp_path):
        data = self.write_csv(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallSampleWarning)
            code, out, _ = run(capsys, "bootstrap", "--data", data,
                               "--breps", "200", "--split", "1",
                               "--shift", "5,0,0,0")
        assert code == EXIT_OK
        assert json.loads(out)["bootstrap"]["prob"] == 1.0

    def test_missing_data_flag(self, capsys):
        code, _, err = run(capsys, "bootstrap", "--breps", "10")
        assert code == EXIT_CONFIG
        assert "data" in err

    def test_missing_data_file(self, capsys):
        code, _, _ = run(capsys, "bootstrap", "--data", "/no/such/data.csv")
        assert code == EXIT_IO

    def test_non_utf8_data(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_bytes(b"\xff\xfe1,2\n3,4\n")
        code, _, err = run(capsys, "bootstrap", "--data", str(data))
        assert code == EXIT_IO
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_position(self, capsys, tmp_path, cell):
        # A non-finite or overflowing cell is a malformed data file, named by
        # its position like any other bad cell.
        data = tmp_path / "data.csv"
        data.write_text(f"1,2,3\n4,{cell},6\n7,8,9\n")
        code, _, err = run(capsys, "bootstrap", "--data", str(data), "--breps", "10")
        assert code == EXIT_IO
        assert one_error_line(err) and "at row 2, column 2" in err

    def test_small_sample_warning_is_one_line(self, capsys, tmp_path):
        data = self.write_csv(tmp_path, n=200, p=30)
        code, _, err = run(capsys, "bootstrap", "--data", data, "--split", "10",
                           "--breps", "500", "--out", str(tmp_path / "boot.json"))
        assert code == EXIT_OK
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: b_n^2 log^5(pn) = ")
        assert lines[0].endswith("exceeds n = 200; rate is vacuous at this sample size")
        assert ".py:" not in err

    def test_json_out_file(self, capsys, tmp_path):
        data = self.write_csv(tmp_path)
        out_path = str(tmp_path / "boot.json")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallSampleWarning)
            code, out, _ = run(capsys, "bootstrap", "--data", data,
                               "--breps", "200", "--out", out_path)
        assert code == EXIT_OK
        assert "prob_argmax_in_A=" in out
        assert json.load(open(out_path))["n"] == 60


class TestSelftest:
    def test_passes(self, capsys, tmp_path):
        code, out, _ = run(capsys, "selftest", "--reps", "4000",
                           "--threads", "2", "--out", str(tmp_path))
        assert code == EXIT_OK
        assert out.count("PASS") == 4
        assert "bounds-compare thread determinism" in out
        assert "FAIL" not in out

    def test_failed_check_exits_1(self, capsys, tmp_path):
        # One replication cannot meet the analytic check's 6 SE band.
        code, out, _ = run(capsys, "selftest", "--reps", "1",
                           "--threads", "2", "--out", str(tmp_path))
        assert code == EXIT_SELFTEST_FAILED == 1
        assert out.count("FAIL") == 1 and out.count("PASS") == 3

    def test_one_thread_still_compares_two_runs(self, capsys, tmp_path, monkeypatch):
        # With --threads 1 both runs of a determinism check share a thread
        # count; they must still write, and be compared as, separate files.
        from maxgap import experiments
        real, dirs = experiments.run_levy_experiment, []

        def spy(*args, **kwargs):
            dirs.append(kwargs["out_dir"])
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_levy_experiment", spy)
        code, out, _ = run(capsys, "selftest", "--reps", "4000",
                           "--threads", "1", "--out", str(tmp_path))
        assert code == EXIT_OK and "FAIL" not in out
        assert len(dirs) == 4 and len(set(dirs)) == 4


class TestParser:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "gen-design", "--sigma", "1")[0] == 2

    def test_bad_eps_list(self, capsys):
        assert run(capsys, "levy", "--kind", "fullrank_equicorr", "--p", "4",
                   "--rho", "0.3", "--eps", "a,b")[0] == 2


DESIGN = {"kind": "fullrank_equicorr", "p": 4, "rho": 0.3}


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def one_error_line(err: str) -> bool:
    return "Traceback" not in err and sum("error:" in line for line in err.splitlines()) == 1


class TestConfigResolution:
    @pytest.mark.parametrize("command,bad", [
        ("levy", {"reps": "abc"}),
        ("levy", {"grid": "x"}),
        ("levy", {"eps": "0.05"}),
        ("levy", {"eps": [0.05, "x"]}),
        ("levy", {"p": "6"}),
        ("scaling", {"p": "6"}),
        ("levy", {"reps": 2.5}),
        ("levy", {"reps": True}),
        ("levy", {"threads": 0}),
        ("levy", {"kind": 3}),
        ("bootstrap", {"data": ["x.csv"]}),
        ("levy", {"seed": -1}),
        ("levy", {"seed": 2 ** 64}),
    ])
    def test_bad_value_exits_2(self, capsys, tmp_path, command, bad):
        base = {"study": "k0_sweep"} if command == "scaling" else dict(DESIGN)
        cfg = write_config(tmp_path, {**base, **bad})
        code, _, err = run(capsys, command, "--config", cfg, "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert one_error_line(err)
        assert not list(tmp_path.glob("*.csv"))

    def test_null_leaves_default(self, tmp_path):
        cfg = write_config(tmp_path, {**DESIGN, "p": None, "reps": None})
        args = parse_args(["levy", "--config", cfg])
        assert args.p == 400 and args.reps == 2000

    def test_option_names_are_keys(self, tmp_path):
        cfg = write_config(tmp_path, {"a": [3, 1], "rho_min": 0.5, "p_list": [5, 6],
                                      "overlap_k": 2})
        assert parse_args(["bootstrap", "--config", cfg]).a == [3, 1]
        scaling = parse_args(["scaling", "--config", cfg])
        assert scaling.rho_min == 0.5 and scaling.p_list == [5, 6]
        assert parse_args(["levy", "--config", cfg]).overlap_k == 2

    def test_config_cannot_pick_handler(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {**DESIGN, "func": "cmd_selftest",
                                      "command": "selftest", "config": "other.json"})
        args = parse_args(["gen-design", "--config", cfg])
        assert args.func is cmd_gen_design and args.command == "gen-design"
        code, out, _ = run(capsys, "gen-design", "--config", cfg)
        assert code == EXIT_OK
        assert json.loads(out)["design_id"] == "fullrank_equicorr-p4-rho0.3-s0"

    @settings(max_examples=60, deadline=None)
    @given(reps=st.integers(1, 10 ** 9), grid=st.integers(1, 10 ** 6),
           eps=st.lists(st.floats(1e-9, 1e3), min_size=1, max_size=5),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_config_parses_like_flags(self, reps, grid, eps, seed):
        flags = ["levy", "--kind", "fullrank_equicorr", "--p", "4", "--rho", "0.3",
                 "--reps", str(reps), "--grid", str(grid),
                 "--eps", ",".join(map(repr, eps)), "--seed", str(seed)]
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(pathlib.Path(tmp), {**DESIGN, "reps": reps, "grid": grid,
                                                   "eps": eps, "seed": seed})
            from_config = vars(parse_args(["levy", "--config", cfg]))
        from_flags = vars(parse_args(flags))
        from_config.pop("config")
        from_flags.pop("config")
        assert from_config == from_flags


class TestValueChecks:
    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0.0"])
    @pytest.mark.parametrize("command", ["levy", "bounds-compare"])
    def test_non_finite_eps(self, capsys, tmp_path, command, eps):
        code, _, err = run(capsys, command, "--kind", "fullrank_equicorr", "--p", "4",
                           "--rho", "0.3", "--reps", "100", f"--eps={eps}",
                           "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert one_error_line(err) and "epsilon" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("value", ["0", "-3", "2.5", "x"])
    @pytest.mark.parametrize("command,flag", [
        ("levy", "--threads"), ("levy", "--reps"), ("levy", "--grid"),
        ("bounds-compare", "--mc"), ("scaling", "--points"), ("bootstrap", "--breps"),
        ("selftest", "--threads"),
    ])
    def test_counts_must_be_positive(self, capsys, command, flag, value):
        code, _, err = run(capsys, command, flag, value)
        assert code == EXIT_CONFIG
        assert one_error_line(err) and "positive integer" in err

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64), str(2 ** 65)])
    @pytest.mark.parametrize("command", ["gen-design", "levy"])
    def test_seed_out_of_range(self, capsys, tmp_path, command, seed):
        code, _, err = run(capsys, command, "--kind", "homog_lowrank", "--p", "4", "--d", "2",
                           f"--seed={seed}", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert one_error_line(err) and "unsigned 64-bit" in err
        assert not list(tmp_path.iterdir())

    def test_largest_seed_accepted(self, capsys):
        code, out, _ = run(capsys, "gen-design", "--kind", "homog_lowrank", "--p", "4",
                           "--d", "2", "--seed", str(2 ** 64 - 1))
        assert code == EXIT_OK
        assert json.loads(out)["config"]["seed"] == 2 ** 64 - 1

    def test_large_thread_count_parses(self):
        # Parsing only: the sampler clamps the pool to the chunk count.
        args = parse_args(["levy", "--kind", "fullrank_equicorr", "--threads", "1000000000"])
        assert args.threads == 10 ** 9

    @pytest.mark.parametrize("command", ["bootstrap", "gen-design"])
    def test_no_threads_option(self, capsys, command):
        assert run(capsys, command, "--threads", "2")[0] == EXIT_CONFIG
