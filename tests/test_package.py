"""The package's export list names what the package really provides, and what it imports;
and every bad value a caller passes raises a MaxgapError, whatever entry point takes it."""

import numpy as np
import pytest

import maxgap
import maxgap.experiments as experiments
from maxgap import (BoundReport, CovSpec, DataMatrix, DesignConfig, MaxgapError, Partition,
                    bound_report, gen_design, levy_curve, levy_hat, run_bounds_compare,
                    run_levy_experiment)
from conftest import run_python


def test_all_resolves_once():
    assert len(set(maxgap.__all__)) == len(maxgap.__all__)
    assert [name for name in maxgap.__all__ if not hasattr(maxgap, name)] == []


def test_star_import():
    namespace: dict = {}
    exec("from maxgap import *", namespace)
    assert set(maxgap.__all__) <= set(namespace)


def test_import_leaves_thread_pools_and_logging_out():
    # The sampler's helpers are plain threads: importing the package, and so
    # every CLI run's set-up, loads neither concurrent.futures nor logging.
    out = run_python("""
        import sys
        import maxgap
        print(sorted(m for m in ("concurrent.futures", "logging") if m in sys.modules))
    """)
    assert out.strip() == "[]"


CFG = DesignConfig(kind="fullrank_equicorr", p=4, rho=0.3)
SPEC, PART = gen_design(CFG)
SAMPLE = np.linspace(-1.0, 1.0, 50)
REPORT = BoundReport(*[0.5] * 6)

# Each bad value at its public entry point, called with an output directory.
BAD_CALLS = {
    "levy_hat-eps": lambda out: levy_hat(SAMPLE, "x"),
    "levy_hat-exact-eps": lambda out: levy_hat(SAMPLE, "x", exact=True),
    "levy_curve-eps": lambda out: levy_curve(SAMPLE, ["x"]),
    "ratio-eps": lambda out: REPORT.ratio("baseline", "x"),
    "ratio-name": lambda out: REPORT.ratio("sharpest", 0.05),
    "run_levy_experiment-eps": lambda out: run_levy_experiment(CFG, epsilons=["x"],
                                                               out_dir=out),
    "split-float-p": lambda out: Partition.split(4.0, 2),
    "split-str-p": lambda out: Partition.split("4", 2),
    "factor-gamma": lambda out: CovSpec.factor([["a"], ["b"]]),
    "factor-noise": lambda out: CovSpec.factor(np.ones((2, 1)), noise=["a", "b"]),
    "factor-mu": lambda out: CovSpec.factor(np.ones((2, 1)), mu=["a", "b"]),
    "explicit-sigma": lambda out: CovSpec.explicit([["a"]]),
    "explicit-mu": lambda out: CovSpec.explicit(np.eye(2), mu=[0.0, "b"]),
    "data-rows": lambda out: DataMatrix(xi=[["a", "b"], ["c", "d"]]),
    "data-shift": lambda out: DataMatrix(xi=np.eye(2), a=["a", "b"]),
    "gen_design-seed-negative": lambda out: gen_design(
        DesignConfig(kind="homog_lowrank", p=4, d=2, seed=-1)),
    "gen_design-seed-2^64": lambda out: gen_design(
        DesignConfig(kind="homog_lowrank", p=4, d=2, seed=2 ** 64)),
    "bound_report-unknown": lambda out: bound_report(SPEC, PART, which=["sharpest"]),
    "bound_report-none": lambda out: bound_report(SPEC, PART, which=[]),
    "run_bounds_compare-unknown": lambda out: run_bounds_compare(CFG, which=["sharpest"],
                                                                 out_dir=out),
    "run_bounds_compare-none": lambda out: run_bounds_compare(CFG, which=[], out_dir=out),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_value_raises_maxgap_error(call, tmp_path, monkeypatch):
    # The errors module's contract: a documented failure is a MaxgapError,
    # never a raw numpy or Python error; a driver raises it before it builds
    # a design or writes a file.
    built = []
    monkeypatch.setattr(experiments, "gen_design", built.append)
    with pytest.raises(MaxgapError):
        call(str(tmp_path))
    assert built == []
    assert list(tmp_path.iterdir()) == []
