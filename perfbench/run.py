"""maxgap benchmark: four CLI workloads, end-to-end costs and a layer trace.

Run from the root of a maxgap checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation of the CLI runs in a fresh interpreter (perfbench/child.py)
and its output is checked against a reference computed by perfbench/oracle.py
(or, for ``levy_highrep``, against a one-thread run).  Invocations repeat
until S seconds have passed, with at least three per run.

--trace 0 reports the end-to-end metrics, medians over the invocations:
  wall_s       wall time of maxgap.cli.main(argv)
  setup_s      interpreter start to the end of ``import maxgap``
  peak_rss_mb  peak resident set of the child process
--trace 1 alternates traced and untraced invocations and reports the
per-layer metrics of layertrace.PER_LAYER: self times are medians over the
traced invocations, work counts must repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
invocations that exited nonzero or failed their output check, so
fail_frac = failed / attempted.  Lines before it give the provenance and each
metric with its unit.  Scratch files live in .perfbench_tmp/ under the
checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import oracle  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 60    # about ten times the slowest healthy invocation
REL_TOL = 1e-9          # bound ratios: the Monte Carlo summation order may change
QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)
BOOTSTRAP_MC = 20000    # Monte Carlo size of the CLI's coupling-rate diagnostic


@dataclass
class Workload:
    argv: list[str]                        # CLI arguments; OUT stands for the output path
    check: Callable[[str], list[str]]      # output path -> problems found
    threads: int = 1                       # the sampler's --threads
    out_name: str = "out"                  # output directory, or file for bootstrap

    def env(self) -> dict:
        return child_env(self.threads)


# ----------------------------------------------------------- workloads
#
# Each workload keeps the shape of its full-size command in README.md; the
# repetition counts (--reps, --mc, --breps) are scaled so that one
# invocation takes a few seconds on a 2-core machine and a run holds at
# least three of them.  ``tiny`` shrinks every size for the smoke test.

def table1_ratio(seed: int, tmp: str, tiny: bool) -> Workload:
    """Criterion 3's table at p=2000: three large Monte Carlo passes (r = 2200)."""
    p, reps, mc = (40, 400, 300) if tiny else (2000, 2000, 1000)
    which = ("heterogeneous", "conditional", "baseline")
    argv = ["bounds-compare", "--kind", "table1", "--p", str(p), "--reps", str(reps),
            "--mc", str(mc), "--eps", "0.05", "--seed", str(seed),
            "--bounds", ",".join(which), "--out", "OUT"]
    model = oracle.Model(gamma=oracle.table1_factor(p, seed))
    ref = bounds_reference(model, reps, mc, seed, which, [0.05])

    def check(out: str) -> list[str]:
        rows, problems = check_bounds_csv(out, ref)
        if not problems and not tiny:
            # Criterion 3's brackets hold for the p=2000 design only.
            r = rows[0]
            emp, het, con, base = (float(r["ratio_" + c]) for c in
                                   ("empirical", "heterogeneous", "conditional", "baseline"))
            for name, v, lo, hi in (("empirical", emp, 1.3, 2.6), ("heterogeneous", het, 6, 16),
                                    ("conditional", con, 60, 160), ("baseline", base, 140, 260)):
                if not lo <= v <= hi:
                    problems.append(f"ratio_{name} {v} outside [{lo}, {hi}]")
            if not emp < het < con < base:
                problems.append("ratios not ordered empirical < heterogeneous < conditional < baseline")
        return problems

    return Workload(argv, check)


def equicorr_all_bounds(seed: int, tmp: str, tiny: bool) -> Workload:
    """Every bound applies; three epsilons repeat the same Monte Carlo requests."""
    p, reps, mc = (20, 400, 300) if tiny else (400, 5000, 3000)
    eps = [0.01, 0.05, 0.2]
    argv = ["bounds-compare", "--kind", "fullrank_equicorr", "--p", str(p), "--rho", "0.5",
            "--reps", str(reps), "--mc", str(mc), "--eps", ",".join(map(str, eps)),
            "--seed", str(seed), "--out", "OUT"]
    ref = bounds_reference(oracle.Model(sigma=oracle.equicorr(p, 0.5)), reps, mc, seed,
                           BOUND_NAMES, eps)

    def check(out: str) -> list[str]:
        rows, problems = check_bounds_csv(out, ref)
        for r in rows if not problems else ():
            floor = float(r["ratio_empirical"]) - 4.0 * float(r["se"]) / float(r["epsilon"])
            for name in BOUND_NAMES:
                if float(r["ratio_" + name]) < floor:
                    problems.append(f"eps={r['epsilon']}: ratio_{name} below empirical - 4 se")
        return problems

    return Workload(argv, check)


def levy_highrep(seed: int, tmp: str, tiny: bool) -> Workload:
    """Sampling and block maxima only: no expected-max Monte Carlo at all."""
    p, reps = (40, 3000) if tiny else (2000, 20000)
    argv = ["levy", "--kind", "homog_lowrank", "--p", str(p), "--reps", str(reps),
            "--eps", "0.01,0.05,0.2", "--seed", str(seed), "--out", "OUT"]
    # The reference is the same command on one thread: byte equality of the
    # CSV then also checks that the thread count never changes the numbers.
    ref_out = os.path.join(tmp, "reference")
    threads = min(2, nproc())
    done = invoke(argv + ["--threads", "1"], ref_out, tmp, False, child_env(threads))
    ref = csv_digest(ref_out) if done is not None and done["exit_code"] == 0 else None

    def check(out: str) -> list[str]:
        if ref is None:
            return ["the one-thread reference run failed"]
        got = csv_digest(out)
        return [] if got == ref else [f"CSV digest {got} differs from the one-thread run's"]

    return Workload(argv + ["--threads", str(threads)], check, threads)


def bootstrap_argmax(seed: int, tmp: str, tiny: bool) -> Workload:
    """Multiplier bootstrap on a generated n x p data file with a small shift."""
    n, p, breps = (60, 40, 2000) if tiny else (500, 1000, 20000)
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((n, p))
    shift = np.zeros(p)
    shift[:p // 2] = 0.01 * rng.standard_normal(p // 2)
    data_path, cfg_path = os.path.join(tmp, "data.csv"), os.path.join(tmp, "shift.json")
    with open(data_path, "w") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in xi.tolist())
    with open(cfg_path, "w") as fh:
        json.dump({"shift": shift.tolist()}, fh)
    ref = oracle.bootstrap(xi, shift, p // 2, breps, seed, QUANTILES, BOOTSTRAP_MC)
    argv = ["bootstrap", "--data", data_path, "--config", cfg_path, "--breps", str(breps),
            "--seed", str(seed), "--out", "OUT"]

    def check(out: str) -> list[str]:
        with open(out) as fh:
            got = json.load(fh)
        boot, problems = got["bootstrap"], []
        if boot["prob"] != ref["prob"]:
            problems.append(f"prob {boot['prob']} != reference {ref['prob']}")
        if boot["quantiles"] != ref["quantiles"]:
            problems.append("quantiles differ from the reference")
        if ref["clt_rate"] is None or not rel_close(got.get("clt_rate"), ref["clt_rate"]):
            problems.append(f"clt_rate {got.get('clt_rate')} != reference {ref['clt_rate']}")
        if not 0.2 < boot["prob"] < 0.8:
            problems.append(f"prob {boot['prob']} outside (0.2, 0.8)")
        return problems

    return Workload(argv, check, out_name="out.json")


WORKLOADS = {"table1_ratio": table1_ratio, "equicorr_all_bounds": equicorr_all_bounds,
             "levy_highrep": levy_highrep, "bootstrap_argmax": bootstrap_argmax}
BOUND_NAMES = tuple(layertrace.BOUND_FUNCS)
EXACT_COLUMNS = ("levy_hat", "se", "ratio_empirical")


def bounds_reference(model, reps, mc, seed, which, eps_list) -> list[dict]:
    half = model.p // 2
    a, b = np.arange(half), np.arange(half, model.p)
    diffs = oracle.max_diffs(model.factor, reps, seed, a, b)
    rows = []
    for eps, ratios in zip(eps_list, oracle.bound_ratios(model, a, b, mc, seed, which, eps_list)):
        value, se = oracle.scan(diffs, eps)
        rows.append({"levy_hat": value, "se": se, "ratio_empirical": value / eps,
                     **{"ratio_" + name: ratios.get(name) for name in BOUND_NAMES}})
    return rows


def check_bounds_csv(out: str, ref: list[dict]) -> tuple[list[dict], list[str]]:
    """Compare a bounds-compare CSV with the reference rows."""
    (path,) = glob.glob(os.path.join(out, "bounds_*.csv"))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(ref):
        return rows, [f"{len(rows)} rows, expected {len(ref)}"]
    problems = []
    for row, want in zip(rows, ref):
        for col, value in want.items():
            cell = row[col]
            if col in EXACT_COLUMNS:
                ok = float(cell) == value
            else:
                ok = cell == "" if value is None else cell != "" and rel_close(float(cell), value)
            if not ok:
                problems.append(f"eps={row['epsilon']}: {col} = {cell!r}, reference {value!r}")
        if row["inapplicable"]:
            problems.append(f"eps={row['epsilon']}: inapplicable {row['inapplicable']!r}")
    return rows, problems


def checked(wl: Workload, out: str) -> list[str]:
    """Problems with one invocation's output; unreadable output is one too."""
    try:
        return wl.check(out)
    except Exception as err:  # any malformed output counts as a failed invocation
        return [f"output unreadable: {err!r}"]


def rel_close(got, want: float) -> bool:
    return got is not None and abs(got - want) <= REL_TOL * abs(want)


def csv_digest(out: str) -> str | None:
    paths = glob.glob(os.path.join(out, "*.csv"))
    if len(paths) != 1:
        return None
    with open(paths[0], "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ------------------------------------------------------------ processes

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    """Child environment: the checkout's src/ on the path, and BLAS threads
    set so that sampler threads times BLAS threads is at most nproc."""
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(max(1, nproc() // threads))
    return env


def invoke(argv: list[str], out: str, tmp: str, trace: bool, env: dict) -> dict | None:
    """Run the CLI once in a fresh child; None if the child itself failed."""
    res_path = os.path.join(tmp, "child.json")
    argv = [out if a == "OUT" else a for a in argv]
    try:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), repr(time.monotonic()),
               res_path, "1" if trace else "0", "--", *argv]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"invocation timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(res_path):
        print(f"invocation failed ({proc.returncode}): {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    with open(res_path) as fh:
        result = json.load(fh)
    os.remove(res_path)
    return result


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    seed = seed % 2 ** 32
    scratch = os.path.join(os.getcwd(), ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        wl = WORKLOADS[workload](seed, tmp, tiny)
        print(json.dumps({"provenance": provenance(wl.env()), "workload": workload,
                          "seed": seed, "seconds": seconds, "trace": int(trace)}))
        invoke(["--help"], "", tmp, False, wl.env())     # warm the bytecode cache
        results, problems = [], []
        t_start, last = time.monotonic(), 0.0
        while True:
            n_traced = sum(r["traced"] for r in results)
            n_plain = len(results) - n_traced
            enough = (n_plain >= 1 and n_traced >= 2) if trace else n_plain >= MIN_INVOCATIONS
            # After a failure, stop as soon as the time is up, so that a hung
            # program still ends the run well within three minutes.
            if (enough or problems) and time.monotonic() - t_start + last > seconds:
                break
            traced = trace and n_traced <= n_plain
            out = os.path.join(tmp, wl.out_name)
            t0 = time.monotonic()
            res = invoke(wl.argv, out, tmp, traced, wl.env())
            last = time.monotonic() - t0
            found = (["child failed"] if res is None else
                     [f"exit code {res['exit_code']}"] if res["exit_code"] != 0 else
                     checked(wl, out))
            problems += [f"invocation {len(results)}: {p}" for p in found]
            results.append({"traced": traced, "ok": not found, **(res or {})})
            if os.path.isdir(out):
                shutil.rmtree(out)
            elif os.path.exists(out):
                os.remove(out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    failed = sum(not r["ok"] for r in results)
    timed = [r for r in results if "wall_s" in r]      # the child completed
    if trace:
        metrics, count_problems = per_layer(timed, failed / len(results))
        problems += count_problems
    else:
        metrics = {name: (statistics.median(r[name] for r in timed) if timed else math.nan, unit)
                   for name, unit in END_TO_END}
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {"correct": not problems and failed == 0, "attempted": len(results), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def per_layer(results: list[dict], fail_frac: float) -> tuple[dict, list[str]]:
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    problems, metrics = [], {}
    for name, unit in layertrace.PER_LAYER:
        if name == "trace.overhead_s":
            value = (statistics.median(r["wall_s"] for r in traced)
                     - statistics.median(r["wall_s"] for r in plain)) if traced and plain else math.nan
        elif name == "fail_frac":
            value = fail_frac
        elif not traced:
            value = math.nan
        elif name in layertrace.COUNT_METRICS:
            values = {r["layers"][name] for r in traced}
            if len(values) > 1:
                problems.append(f"{name} differs between traced invocations: {sorted(values)}")
            value = traced[0]["layers"][name]
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = (value, unit)
    return metrics, problems


# ------------------------------------------------------------ reporting

def provenance(env: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "maxgap", "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    return {"git_sha": sha, "src_sha256": src.hexdigest(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": nproc(),
            "thread_env": {k: v for k, v in env.items() if k.endswith("_NUM_THREADS")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "maxgap", "cli.py")):
        print("error: run from the root of a maxgap checkout (src/maxgap not found)",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"invocations: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
