import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxgap import (BadConfig, CovSpec, DataMatrix, DimensionMismatch,
                    ParseError, Partition, SmallSampleWarning, argmax_prob,
                    clt_rate, load_csv, multiplier_replicates, run_bootstrap,
                    run_bootstrap_demo, sample)
from maxgap import bootstrap
from maxgap.bootstrap import BETA_MEAN, BETA_VAR, MULTIPLIERS, _parse_rows
from maxgap.experiments import write_json
from maxgap.sampling import CHUNK, chunk_rng


class TestDataMatrix:
    def test_defaults(self):
        data = DataMatrix(np.zeros((3, 2)))
        assert data.n == 3 and data.p == 2
        assert np.array_equal(data.a, np.zeros(2))
        assert not data.xi.flags.writeable

    def test_validation(self):
        with pytest.raises(BadConfig):
            DataMatrix(np.zeros((1, 2)))
        with pytest.raises(BadConfig):
            DataMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(DimensionMismatch):
            DataMatrix(np.zeros((3, 2)), a=[1.0])
        with pytest.raises(BadConfig):
            DataMatrix(np.zeros((3, 2)), a=[np.inf, 0.0])


class TestDataMatrixOwnership:
    """The rows follow CovSpec's rule: a read-only float64 owner is held, anything else copied."""

    def test_read_only_owner_kept(self):
        xi = np.random.default_rng(4).standard_normal((5, 3))
        xi.flags.writeable = False
        assert DataMatrix(xi).xi is xi

    @pytest.mark.parametrize("form", ["writable", "view", "list", "float32"])
    def test_anything_else_copied(self, form):
        # A later write to the caller's input leaves the data unchanged.
        xi = np.random.default_rng(4).standard_normal((5, 3))
        base = np.zeros((6, 4))
        base[:5, :3] = xi
        given = {"writable": xi, "view": base[:5, :3], "list": xi.tolist(),
                 "float32": xi.astype(np.float32)}[form]
        if form in ("view", "float32"):
            given.flags.writeable = False  # read-only, yet not a float64 array owning its data
        want = np.array(given, dtype=float)
        data = DataMatrix(given)
        assert data.xi is not given and data.xi.tobytes() == want.tobytes()
        assert not data.xi.flags.writeable
        if form == "list":
            given[0][0] += 1.0
        else:
            given.flags.writeable = True
            given[0, 0] += 1.0
        assert data.xi.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text, parser", [("1,2\n3,4\n5,6\n", "loadtxt"),
                                              ("x,y\n1,2\n3,4\n", "_parse_rows")])
    def test_load_csv_hands_its_array_over(self, tmp_path, monkeypatch, text, parser):
        # The array the parser returns is the one the DataMatrix holds.
        module = bootstrap.np if parser == "loadtxt" else bootstrap
        parsed = []
        real = getattr(module, parser)

        def spy(*args, **kwargs):
            parsed.append(real(*args, **kwargs))
            return parsed[-1]
        monkeypatch.setattr(module, parser, spy)
        path = tmp_path / "data.csv"
        path.write_text(text)
        data = load_csv(str(path))
        assert data.xi is parsed[-1]
        assert not data.xi.flags.writeable


class TestReplicates:
    def test_constant_rows_reduce_to_shift(self):
        # Centering kills constant data, leaving exactly sqrt(n) * a.
        a = np.array([0.5, -1.0, 2.0])
        data = DataMatrix(np.ones((4, 3)), a=a)
        reps = multiplier_replicates(data, 10, seed=0)
        assert np.array_equal(reps, np.tile(2.0 * a, (10, 1)))

    def test_determinism_and_prefix(self):
        rng = np.random.default_rng(1)
        data = DataMatrix(rng.standard_normal((50, 3)))
        a = multiplier_replicates(data, 1300, seed=9)
        b = multiplier_replicates(data, 2000, seed=9)
        assert np.array_equal(a, b[:1300])

    def test_conditional_covariance(self):
        rng = np.random.default_rng(2)
        xi = rng.standard_normal((100, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]])
        data = DataMatrix(xi)
        centered = xi - xi.mean(axis=0)
        sig_hat = centered.T @ centered / data.n
        reps = multiplier_replicates(data, 100000, seed=3)
        got = reps.T @ reps / reps.shape[0]
        tol = 6.0 * np.sqrt((np.outer(np.diag(sig_hat), np.diag(sig_hat))
                             + sig_hat ** 2) / reps.shape[0])
        assert np.all(np.abs(got - sig_hat) <= tol)

    def test_beta_standardization(self):
        # The centering and scaling constants must standardize the raw draws.
        raw = chunk_rng(0, 0).beta(0.5, 1.5, size=10 ** 6)
        w = (raw - BETA_MEAN) / math.sqrt(BETA_VAR)
        assert w.mean() == pytest.approx(0.0, abs=0.005)
        assert w.var() == pytest.approx(1.0, abs=0.01)

    def test_beta_replicates_match_gaussian_variance(self):
        rng = np.random.default_rng(4)
        data = DataMatrix(rng.standard_normal((80, 1)))
        reps = multiplier_replicates(data, 200000, seed=5, multiplier="beta")
        centered = data.xi - data.xi.mean(axis=0)
        want_sd = float(np.sqrt((centered ** 2).sum() / data.n))
        assert reps.std() == pytest.approx(want_sd, abs=0.02)

    def test_validation(self):
        data = DataMatrix(np.zeros((3, 2)) + np.arange(2))
        with pytest.raises(BadConfig):
            multiplier_replicates(data, 0, seed=0)
        with pytest.raises(BadConfig):
            multiplier_replicates(data, 10, seed=0, multiplier="poisson")

    def test_non_integer_replicate_count_named(self):
        # Once a TypeError from deep inside the chunk loop.
        data = DataMatrix(np.zeros((3, 2)) + np.arange(2))
        with pytest.raises(BadConfig, match="b_reps must be an integer, got 10.0"):
            run_bootstrap(data, Partition.split(2, 1), 10.0, 1)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # Keyed as seed & (2^64 - 1), -1 would alias 2^64 - 1 and 2^64 alias 0.
        data = DataMatrix(np.zeros((3, 2)) + np.arange(2))
        with pytest.raises(BadConfig):
            multiplier_replicates(data, 10, seed=seed)
        with pytest.raises(BadConfig):
            run_bootstrap(data, Partition.split(2, 1), 10, seed=seed)


class TestArgmaxProb:
    def test_strict_inequality_at_ties(self):
        reps = np.array([[1.0, 1.0], [2.0, 1.0], [0.0, 1.0]])
        res = argmax_prob(reps, Partition.split(2, 1))
        assert res.prob_argmax_in_a == pytest.approx(1.0 / 3.0)
        assert np.array_equal(res.diffs, [0.0, 1.0, -1.0])
        assert res.quantiles[0.5] == 0.0

    def test_dominant_shift(self):
        rng = np.random.default_rng(6)
        data = DataMatrix(rng.standard_normal((200, 3)), a=[10.0, 0.0, 0.0])
        res = run_bootstrap(data, Partition.split(3, 1), b_reps=2000, seed=7)
        assert res.prob_argmax_in_a == 1.0

    def test_multiplier_agreement(self):
        rho = 0.5
        sig = np.full((6, 6), rho) + np.eye(6) * (1.0 - rho)
        data = DataMatrix(xi=sample(CovSpec.explicit(sig), 200, seed=8))
        part = Partition.split(6, 3)
        g = run_bootstrap(data, part, b_reps=20000, seed=9, multiplier="gaussian")
        b = run_bootstrap(data, part, b_reps=20000, seed=9, multiplier="beta")
        assert g.prob_argmax_in_a == pytest.approx(b.prob_argmax_in_a, abs=0.02)

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            argmax_prob(np.zeros(5), Partition.split(2, 1))
        with pytest.raises(DimensionMismatch):
            argmax_prob(np.zeros((5, 3)), Partition.split(2, 1))

    def test_json_roundtrip(self, tmp_path):
        # The demo's "bootstrap" dict: the result's values and the run's labels.
        data = DataMatrix(np.random.default_rng(4).standard_normal((30, 2)))
        part = Partition.split(2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallSampleWarning)
            d = run_bootstrap_demo(data, part, b_reps=50, seed=4, multiplier="beta")["bootstrap"]
        res = run_bootstrap(data, part, b_reps=50, seed=4, multiplier="beta")
        assert d["prob"] == res.prob_argmax_in_a
        assert (d["b_reps"], d["multiplier"], d["seed"]) == (50, "beta", 4)
        assert d["quantiles"] == {str(q): v for q, v in res.quantiles.items()}
        assert set(d["quantiles"]) == {"0.05", "0.25", "0.5", "0.75", "0.95"}
        path = str(tmp_path / "res.json")
        write_json(path, d)
        assert json.load(open(path)) == d


class TestStreamedBootstrap:
    @settings(max_examples=30, deadline=None)
    @given(data_seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 30), p=st.integers(2, 8),
           b_reps=st.sampled_from((1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)),
           multiplier=st.sampled_from(("gaussian", "beta")),
           seed=st.integers(0, 2 ** 64 - 1), split=st.integers(1, 7))
    def test_equals_batch_path(self, data_seed, n, p, b_reps, multiplier, seed, split):
        rng = np.random.default_rng(data_seed)
        data = DataMatrix(rng.standard_normal((n, p)), a=rng.standard_normal(p) * 0.1)
        order = rng.permutation(p)
        k = min(split, p - 1)
        part = Partition(tuple(order[:k]), tuple(order[k:]), p)
        streamed = run_bootstrap(data, part, b_reps, seed, multiplier=multiplier)
        batch = argmax_prob(multiplier_replicates(data, b_reps, seed, multiplier), part)
        assert streamed.diffs.tobytes() == batch.diffs.tobytes()
        assert streamed.prob_argmax_in_a == batch.prob_argmax_in_a
        assert streamed.quantiles == batch.quantiles

    @pytest.mark.parametrize("multiplier", MULTIPLIERS)
    def test_equals_chunk_by_chunk_reference(self, multiplier):
        # Three CHUNK-row chunks, each weighted from its own chunk_rng.
        rng = np.random.default_rng(12)
        data = DataMatrix(rng.standard_normal((20, 5)), a=rng.standard_normal(5) * 0.1)
        part = Partition((3, 0), (1, 2, 4), 5)
        b_reps, seed = 2 * CHUNK + 5, 13
        centered = data.xi - data.xi.mean(axis=0)
        diffs = []
        for k, lo in enumerate(range(0, b_reps, CHUNK)):
            shape = (min(lo + CHUNK, b_reps) - lo, data.n)
            gen = chunk_rng(seed, k)
            w = (gen.standard_normal(shape) if multiplier == "gaussian"
                 else (gen.beta(0.5, 1.5, size=shape) - BETA_MEAN) / math.sqrt(BETA_VAR))
            x = (w @ centered) * (1.0 / math.sqrt(data.n)) + math.sqrt(data.n) * data.a
            diffs.append(x[:, [0, 3]].max(axis=1) - x[:, [1, 2, 4]].max(axis=1))
        got = run_bootstrap(data, part, b_reps, seed, multiplier=multiplier)
        assert got.diffs.tobytes() == np.concatenate(diffs).tobytes()

    def test_partition_checked(self):
        data = DataMatrix(np.arange(6.0).reshape(3, 2) ** 2)
        with pytest.raises(DimensionMismatch):
            run_bootstrap(data, Partition.split(3, 1), b_reps=10, seed=0)


class TestCltRate:
    def test_frozen_value(self):
        with pytest.warns(SmallSampleWarning):
            got = clt_rate(emax_s=1.0, c_ab=1.0, b_n=1.0, n=1000, p=100)
        want = (math.log(100 * 1000) ** 3 / 1000) ** 0.25
        assert got == want
        assert got == pytest.approx(1.1115, abs=2e-4)

    def test_scaling(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r1 = clt_rate(emax_s=1.0, c_ab=1.0, b_n=1.0, n=10 ** 7, p=2)
            r2 = clt_rate(emax_s=3.0, c_ab=2.0, b_n=1.0, n=10 ** 7, p=2)
        assert r2 == pytest.approx(1.5 * r1, rel=1e-12)

    def test_no_warning_when_sample_is_large(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", SmallSampleWarning)
            clt_rate(emax_s=1.0, c_ab=1.0, b_n=1.0, n=10 ** 7, p=2)

    def test_validation(self):
        with pytest.raises(BadConfig):
            clt_rate(emax_s=1.0, c_ab=1.0, b_n=0.5, n=10, p=2)
        with pytest.raises(BadConfig):
            clt_rate(emax_s=1.0, c_ab=1.0, b_n=1.0, n=0, p=2)
        with pytest.raises(BadConfig):
            clt_rate(emax_s=1.0, c_ab=0.0, b_n=1.0, n=10, p=2)
        with pytest.raises(TypeError):  # keyword-only
            clt_rate(1.0, 1.0, 1.0, 10, 2)


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return str(path)

    def test_header_skipped(self, tmp_path):
        data = load_csv(self.write(tmp_path, "x,y\n1,2\n3,4\n"))
        assert np.array_equal(data.xi, [[1.0, 2.0], [3.0, 4.0]])

    def test_headerless(self, tmp_path):
        data = load_csv(self.write(tmp_path, "1,2\n3,4\n"))
        assert data.n == 2

    def test_blank_lines_skipped(self, tmp_path):
        data = load_csv(self.write(tmp_path, "1,2\n\n3,4\n"))
        assert data.n == 2

    def test_bad_cell_position(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_csv(self.write(tmp_path, "1,2\n3,oops\n"))
        assert err.value.row == 2
        assert err.value.col == 2

    def test_ragged_rows(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_csv(self.write(tmp_path, "1,2\n3\n"))
        assert err.value.row == 2

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(self.write(tmp_path, ""))

    def test_shift_passthrough(self, tmp_path):
        data = load_csv(self.write(tmp_path, "1,2\n3,4\n"), shift=[0.5, 0.0])
        assert np.array_equal(data.a, [0.5, 0.0])

    @pytest.mark.parametrize("text", [
        "x,y\n1,2\n3,4\n",
        "1,2\n\n3,4\n\n",
        '"1.5",2\n3,"-4e1"\n',
        "1,2\n3,4 # note\n",
        "#1,2\n3,4\n5,6\n",
        "1,2\n3\n",
        "1\n2.5\n-3\n",
        "x,y\n1,2\n3,nan\n",
        "1,2\n-inf,4\n",
    ], ids=["header", "blank", "quoted", "hash", "hash_first", "ragged", "one_column",
            "nan", "inf_headerless"])
    def test_matches_row_parser(self, tmp_path, text):
        # The whole-file parse agrees with the cell-by-cell reader: the same
        # floats, or a ParseError at the same row and column.
        path = self.write(tmp_path, text)

        def outcome(read):
            try:
                return read(path)
            except ParseError as err:
                return (err.row, err.col)

        got = outcome(lambda p: load_csv(p).xi)
        want = outcome(_parse_rows)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("raw, want", [
        (b"\xef\xbb\xbf1,2\n3,4\n5,6\n", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        (b"\xef\xbb\xbfx,y\n1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ], ids=["headerless", "header"])
    def test_byte_order_mark(self, tmp_path, raw, want):
        # The mark is not part of the first cell: a numeric first row stays
        # data, and with a header only the header row is skipped.
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        assert np.array_equal(load_csv(str(path)).xi, want)
        assert np.array_equal(_parse_rows(str(path)), want)

    @pytest.mark.parametrize("raw", [b"\xff\xfe1,2\n3,4\n", b"x,y\n1,2\n3,\xe94\n"])
    def test_not_utf8(self, tmp_path, raw):
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        with pytest.raises(ParseError):
            load_csv(str(path))
