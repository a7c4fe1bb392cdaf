import csv
import json
import pathlib
import re
import tempfile
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
                        EXIT_SELFTEST_FAILED, _warning_printer, cmd_gen_design, main,
                        parse_args)

from conftest import run_python


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

    def test_scan_sees_the_atom(self, capsys, tmp_path):
        # exchangeable_overlap's gap has an atom at 0 of mass k/p = 1/6, the
        # lower bound its rows write.  At eps = 0.001 the 1000-point grid's
        # spacing, about 0.004, exceeds eps, so the scan doubles its
        # intervals until a center falls within eps of the atom, on every
        # seed, and says nothing on stderr.
        argv = ("--kind", "exchangeable_overlap", "--p", "120", "--k", "20", "--rho", "0.3")
        for seed in range(1, 6):
            out = tmp_path / f"s{seed}"
            code, _, err = run(capsys, "bounds-compare", *argv, "--reps", "20000", "--mc", "200",
                               "--eps", "0.001", "--bounds", "single_max", "--seed", str(seed),
                               "--out", str(out))
            assert code == EXIT_OK
            assert "warning:" not in err
            row, = csv.DictReader(open(next(out.glob("*.csv"))))
            assert float(row["levy_hat"]) >= float(row["lower_bound"]) - 4.0 * float(row["se"])
        # A smaller eps in the same run refines the grid, which never lowers
        # the row of a larger eps.
        argv += ("--reps", "5000", "--seed", "1")
        for d, eps in (("both", "0.01,0.001"), ("one", "0.01")):
            assert run(capsys, "levy", *argv, "--eps", eps, "--out", str(tmp_path / d))[0] == EXIT_OK
        rows = [[row for row in csv.DictReader(open(next((tmp_path / d).glob("*.csv"))))
                 if row["epsilon"] == "0.01"] for d in ("both", "one")]
        assert len(rows[0]) == len(rows[1]) == 1
        assert float(rows[0][0]["levy_hat"]) >= float(rows[1][0]["levy_hat"])

    def test_scan_grid_cap_exits_2(self, capsys, tmp_path):
        # A range of about 5 over eps = 1e-6 needs more than 2^17 intervals.
        code, _, err = run(capsys, "levy", "--kind", "fullrank_equicorr", "--p", "4", "--rho",
                           "0.3", "--reps", "200", "--eps", "1e-6,0.1", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert re.fullmatch(r"error: eps = 1e-06 needs over 131072 scan intervals on the "
                            r"sample's range \d\.\d+\n", err)
        assert not list(tmp_path.iterdir())


# The kinds that read each design option, by its flag.
READERS = {
    "--d": {"homog_lowrank", "homog_overlap", "heterog_condA", "table1"},
    "--k": {"homog_overlap", "exchangeable_overlap"},
    "--k0": {"k0_split"},
    "--rho": {"fullrank_equicorr", "exchangeable_overlap", "k0_split"},
    "--profile": {"heterog_violation"},
}


def option_help(text: str, flag: str) -> str:
    """The entry of flag in --help output, its wrapped lines joined."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"  {flag} "))
    end = next(i for i in range(start + 1, len(lines) + 1)
               if i == len(lines) or not lines[i].startswith("    "))
    return " ".join(lines[start:end])


class TestDesignOptions:
    def test_unread_option_exits_2_before_any_file(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, err = run(capsys, "levy", "--kind", "table1", "--p", "40", "--rho", "0.5",
                           "--out", str(out))
        assert code == EXIT_CONFIG
        assert one_error_line(err) and "does not read rho" in err
        assert not out.exists() or not list(out.iterdir())

    def test_unread_option_from_config(self, capsys, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"kind": "table1", "p": 40, "rho": 0.5})
        code, _, err = run(capsys, "levy", "--config", cfg, "--out", str(out))
        assert code == EXIT_CONFIG
        assert one_error_line(err) and "table1 does not read rho" in err
        assert not out.exists() or not list(out.iterdir())

    def test_key_of_no_option_still_ignored(self, capsys, tmp_path):
        # "mc" is an option of bounds-compare only, "study" of scaling only.
        cfg = write_config(tmp_path, {"kind": "table1", "p": 20, "mc": 7, "study": "k0_sweep"})
        code, out, _ = run(capsys, "gen-design", "--config", cfg)
        assert code == EXIT_OK
        assert json.loads(out)["design_id"] == "table1-p20-s0"

    @pytest.mark.parametrize("command", ["gen-design", "levy", "bounds-compare"])
    def test_help_names_the_kinds_that_read_each_option(self, capsys, command):
        code, text, _ = run(capsys, command, "--help")
        assert code == EXIT_OK
        for flag, kinds in READERS.items():
            entry = option_help(text, flag)
            named = {kind for kind in maxgap.KINDS if re.search(rf"\b{kind}\b", entry)}
            assert named == kinds, (flag, entry)


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
    RUNS = pytest.mark.parametrize("argv", [
        ["bounds-compare", "--kind", "fullrank_equicorr", "--p", "6", "--rho", "0.4",
         "--reps", "300", "--mc", "500", "--eps", "0.2,0.01,0.2",
         "--bounds", "homogeneous,baseline", "--seed", "5"],
        ["levy", "--kind", "homog_lowrank", "--p", "8", "--d", "2", "--reps", "300",
         "--eps", "0.2,0.05", "--seed", "6"],
        ["scaling", "--study", "k0_sweep", "--k0", "3", "--p-list", "5,8", "--reps", "300",
         "--eps", "0.2,0.05", "--seed", "7"],
    ], ids=["bounds-compare", "levy", "scaling"])

    @staticmethod
    def replay(capsys, tmp_path, argv, **old_keys) -> None:
        # The sidecar's config, with old_keys added, passed back through
        # --config replays the run: the same CSV, byte for byte.
        first, again = tmp_path / "first", tmp_path / "again"
        assert run(capsys, *argv, "--out", str(first))[0] == EXIT_OK
        (path,) = first.glob("*.csv")
        meta = json.loads((first / (path.name + ".meta.json")).read_text())
        cfg = write_config(tmp_path, {**meta["config"], **old_keys})
        assert run(capsys, argv[0], "--config", cfg, "--out", str(again))[0] == EXIT_OK
        assert (again / path.name).read_bytes() == path.read_bytes()

    @RUNS
    def test_config_replays_run(self, capsys, tmp_path, argv):
        self.replay(capsys, tmp_path, argv)

    @RUNS
    def test_older_sidecar_grid_is_ignored(self, capsys, tmp_path, argv):
        # Sidecars once recorded the scan grid, now fixed at 1000 points: a
        # config that still holds it replays the same bytes.
        self.replay(capsys, tmp_path, argv, grid=1000)

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
        out = run_python(f"""
            import sys
            from maxgap.cli import main
            out = {str(tmp_path)!r}
            assert main(["levy", "--kind", "table1", "--p", "40", "--reps", "500",
                         "--out", out]) == 0
            assert main(["bounds-compare", "--kind", "table1", "--p", "40", "--reps", "500",
                         "--mc", "200", "--out", out]) == 0
            print("numpy.ma" in sys.modules)
        """)
        assert out.splitlines()[-1] == "False"


# The studies that read each scaling option, by its flag, and the default its help shows.
STUDY_READERS = {
    "--p": ({"rho_sweep_fullrank", "rho_sweep_lowrank"}, "100"),
    "--d": ({"rho_sweep_lowrank"}, "None"),
    "--points": ({"rho_sweep_fullrank", "rho_sweep_lowrank"}, "100"),
    "--rho-min": ({"rho_sweep_fullrank"}, "0.9"),
    "--rho-max": ({"rho_sweep_fullrank"}, "0.99"),
    "--k0": ({"k0_sweep"}, "20"),
    "--p-list": ({"k0_sweep"}, "(25, 30, 40, 60, 80, 120)"),
}


class TestScalingCommand:
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unread_options_exit_2_before_any_file(self, capsys, tmp_path, source):
        out = tmp_path / "out"
        if source == "flag":
            argv = ["--study", "k0_sweep", "--p-list", "25,30", "--reps", "100", "--d", "5",
                    "--rho-min", "0.5", "--points", "7"]
        else:
            argv = ["--config", write_config(tmp_path, {
                "study": "k0_sweep", "p_list": [25, 30], "reps": 100, "d": 5, "rho_min": 0.5,
                "points": 7})]
        code, _, err = run(capsys, "scaling", *argv, "--out", str(out))
        assert code == EXIT_CONFIG
        assert one_error_line(err) and "error: k0_sweep does not read d, points, rho_min\n" in err
        assert not out.exists() or not list(out.iterdir())

    def test_help_names_the_studies_that_read_each_option(self, capsys):
        code, text, _ = run(capsys, "scaling", "--help")
        assert code == EXIT_OK
        for flag, (studies, default) in STUDY_READERS.items():
            entry = " ".join(option_help(text, flag).split())
            named = {study for study in ("rho_sweep_fullrank", "rho_sweep_lowrank", "k0_sweep")
                     if re.search(rf"\b{study}\b", entry)}
            assert named == studies, (flag, entry)
            assert entry.endswith(f"(default: {default})"), (flag, entry)

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

    def test_two_eps_rows_equal_the_one_eps_runs(self, capsys, tmp_path):
        # One row per point and eps, point-major, each point's rows in the
        # given eps order.  Both eps exceed the scan grid's spacing (the
        # sample's range over 999), so neither refines the grid and each
        # row equals its own one-eps run's.
        tables = {}
        for eps in ("0.2,0.05", "0.2", "0.05"):
            out = tmp_path / eps
            code, text, _ = run(capsys, "scaling", "--study", "k0_sweep", "--k0", "3",
                                "--p-list", "5,8", "--reps", "300", "--eps", eps,
                                "--out", str(out))
            assert code == EXIT_OK
            assert f"{2 * len(eps.split(','))} rows" in text
            tables[eps] = (out / "scaling_k0_sweep.csv").read_text().splitlines()
        both, wide, narrow = tables.values()
        assert both[0] == wide[0] == narrow[0]
        assert both[1::2] == wide[1:] and both[2::2] == narrow[1:]

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

    @pytest.mark.parametrize("how", ["flags", "config", "mixed"])
    def test_a_with_split_rejected(self, capsys, tmp_path, how):
        # Both options set block A: the run exits 2 naming both, before any work.
        data = self.write_csv(tmp_path)
        out = tmp_path / "out.json"
        argv = ["bootstrap", "--data", data, "--breps", "200", "--out", str(out)]
        config = tmp_path / "config.json"
        if how == "flags":
            argv += ["--a", "0,3", "--split", "2"]
        elif how == "config":
            config.write_text(json.dumps({"a": [0, 3], "split": 2}))
            argv += ["--config", str(config)]
        else:
            config.write_text(json.dumps({"split": 2}))
            argv += ["--config", str(config), "--a", "0,3"]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert "--a" in err and "--split" in err
        assert not out.exists()

    def test_a_index_outside_data_named(self, capsys, tmp_path):
        # Once reported as "index sets must cover all 2 coordinates".
        data = self.write_csv(tmp_path, p=2)
        code, _, err = run(capsys, "bootstrap", "--data", data, "--breps", "10", "--a", "5")
        assert code == EXIT_CONFIG
        assert err == "error: partition index 5 outside [0, 2)\n"

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

    def test_other_warnings_go_to_python_printer(self, capsys):
        # Only a maxgap warning becomes one stderr line; any other is handed,
        # arguments and all, to the printer the CLI replaced.
        shown = []
        showwarning = _warning_printer(lambda *args: shown.append(args))
        showwarning(UserWarning("not ours"), UserWarning, "x.py", 3)
        showwarning(SmallSampleWarning("ours"), SmallSampleWarning, "y.py", 4)
        assert [args[1:] for args in shown] == [(UserWarning, "x.py", 3, None, None)]
        assert str(shown[0][0]) == "not ours"
        assert capsys.readouterr().err == "warning: ours\n"

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
        ("levy", {"threads": "x"}),
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
    @given(reps=st.integers(1, 10 ** 9), threads=st.integers(1, 64),
           eps=st.lists(st.floats(1e-9, 1e3), min_size=1, max_size=5),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_config_parses_like_flags(self, reps, threads, eps, seed):
        flags = ["levy", "--kind", "fullrank_equicorr", "--p", "4", "--rho", "0.3",
                 "--reps", str(reps), "--threads", str(threads),
                 "--eps", ",".join(map(repr, eps)), "--seed", str(seed)]
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(pathlib.Path(tmp), {**DESIGN, "reps": reps, "threads": threads,
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
        ("levy", "--threads"), ("levy", "--reps"),
        ("bounds-compare", "--mc"), ("scaling", "--points"), ("bootstrap", "--breps"),
        ("selftest", "--threads"),
    ])
    def test_counts_must_be_positive(self, capsys, command, flag, value):
        code, _, err = run(capsys, command, flag, value)
        assert code == EXIT_CONFIG
        assert one_error_line(err) and "positive integer" in err

    @pytest.mark.parametrize("argv", [
        ["levy", "--kind", "fullrank_equicorr", "--p", "4", "--rho", "0.3"],
        ["bounds-compare", "--kind", "fullrank_equicorr", "--p", "4", "--rho", "0.3"],
        ["scaling", "--study", "k0_sweep", "--k0", "3", "--p-list", "5"],
    ], ids=["levy", "bounds-compare", "scaling"])
    def test_no_grid_option(self, capsys, tmp_path, argv):
        # The scan's grid follows eps; --grid is no option.
        code, _, err = run(capsys, *argv, "--reps", "100", "--grid", "50",
                           "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert one_error_line(err) and "--grid" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64), str(2 ** 65)])
    @pytest.mark.parametrize("command", ["gen-design", "levy"])
    def test_seed_out_of_range(self, capsys, tmp_path, command, seed):
        code, _, err = run(capsys, command, "--kind", "homog_lowrank", "--p", "4", "--d", "2",
                           f"--seed={seed}", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert one_error_line(err) and "unsigned 64-bit" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["levy", "--kind", "fullrank_equicorr", "--p", "4", "--rho", "0.3", "--seed", "abc"],
         "unsigned 64-bit"),
        (["levy", "--kind", "fullrank_equicorr", "--p", "4", "--rho", "0.3", "--eps", ","],
         "empty list"),
        (["scaling", "--study", "rho_sweep_fullrank", "--rho-min", "0.99", "--rho-max", "0.9"],
         "rho_min <= rho_max"),
    ], ids=["seed-text", "eps-empty", "rho-range"])
    def test_bad_value_exits_2_before_any_file(self, capsys, tmp_path, argv, message):
        code, _, err = run(capsys, *argv, "--reps", "100", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert one_error_line(err) and message in err
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
