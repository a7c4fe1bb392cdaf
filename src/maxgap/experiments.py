"""Batch experiment drivers: CSV/JSON emitters around the estimation core.

The sampling drivers (levy, bounds-compare, scaling) measure through
:func:`_measure`, in one stage order: check every argument, build the
design, run its covariance geometry (``rho_bar`` or the bound report), run
the sampler, then scan the sample once over the sorted distinct epsilons.

Every driver is deterministic given its seed.  CSV payloads carry no
timestamps; wall-clock metadata lives only in the .meta.json sidecar, so a
rerun with the same inputs is byte-identical on the CSV side.  The sidecar
records the run's parameters under the CLI option names, so its ``config``
passed back through ``--config`` replays a levy or bounds-compare run.
"""

from __future__ import annotations

import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .bootstrap import (CltRateInputs, DataMatrix, clt_rate, run_bootstrap)
from .bounds import ALL_BOUNDS, BoundReport, Inapplicable, McConfig, bound_report
from .cov import CovSpec, Partition, check_conditions, rho_bar
from .designs import DesignConfig, gen_design
from .errors import BadConfig, ConditionFails, IoError, MaxgapError
from .levy import (DEFAULT_GRID, LevyEstimate, check_epsilon, check_scan, expected_max_many,
                   levy_curve)
from .sampling import RNG_METHOD, check_run, sample_max_diff

DEFAULT_EPSILONS = (0.01, 0.02, 0.05, 0.1, 0.2)
K0_SWEEP_P = (25, 30, 40, 60, 80, 120)


def _fmt(x) -> str:
    """One CSV cell; floats at 17 significant digits so reruns match bitwise."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _versions() -> dict:
    """Package and numpy versions and the BLAS build numpy links."""
    from . import __version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas_name = None
    return {"maxgap": __version__, "numpy": np.__version__, "blas": blas_name}


def _write_text(path: str, text: str) -> None:
    """The one file writer: it makes the parent directories, and any OSError is an IoError."""
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise IoError(f"cannot write {path}: {err}") from err


def write_json(path: str | None, payload: dict) -> None:
    """Indented, key-sorted JSON with a trailing newline; None writes to stdout."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(path, text)


def write_csv(path: str, columns, rows, *, command: str, seed: int, config: dict,
              spec_hash: str | None = None) -> str:
    """Rows under a header line, plus the provenance sidecar ``path + ".meta.json"``.

    Outputs are bit-identical only under one BLAS build and BLAS thread
    count, so the sidecar records both (an unset thread variable is None).
    ``spec_hash`` is the sampled model's :attr:`CovSpec.content_hash`, None
    when the file covers several models; ``rng_method`` names the sampler's
    generator.
    """
    columns = tuple(columns)
    lines = [columns] + [[_fmt(row[c]) for c in columns] for row in rows]
    _write_text(path, "".join(",".join(cells) + "\n" for cells in lines))
    write_json(path + ".meta.json", {
        "command": command, "seed": seed, "config": config, "columns": columns,
        "n_rows": len(rows), "outputs": [os.path.basename(path)], "spec_hash": spec_hash,
        "rng_method": RNG_METHOD, "created": datetime.now(timezone.utc).isoformat(),
        "versions": _versions(),
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}})
    return path


def _measure(cfg: DesignConfig, epsilons, n_rep: int, seed: int, grid_points: int,
             n_threads: int, geometry) -> tuple[CovSpec, object, list[LevyEstimate]]:
    """The sampling drivers' one measurement: (spec, geometry(spec, part), estimates).

    epsilons is one half-width or a list of them; the estimates follow its
    order.  Every argument is checked before the design is built.  The
    geometry runs before the sampler: memory freed by the sampler threads
    stays in their allocator arenas, so work done afterwards would add to
    the peak.  One scan serves the sorted distinct epsilons.
    """
    eps = check_scan(epsilons if np.iterable(epsilons) else (epsilons,), grid_points)
    check_run(n_rep, seed, n_threads)
    spec, part = gen_design(cfg)
    geo = geometry(spec, part)
    diffs = sample_max_diff(spec, part, n_rep, seed, n_threads=n_threads)
    curve = {est.epsilon: est for est in levy_curve(diffs, sorted(set(eps)), grid_points)}
    return spec, geo, [curve[e] for e in eps]


def _run_config(cfg: DesignConfig, estimates, n_rep: int, grid_points: int, **extra) -> dict:
    """The sidecar's config: the design and run options under their CLI names."""
    return {**cfg.to_json_dict(), "reps": int(n_rep), "grid": int(grid_points),
            "eps": [est.epsilon for est in estimates], **extra}


def run_levy_experiment(cfg: DesignConfig, epsilons=DEFAULT_EPSILONS, n_rep: int = 2000,
                        grid_points: int = DEFAULT_GRID, seed: int | None = None,
                        out_dir: str = ".", n_threads: int = 1) -> tuple[str, list[dict]]:
    """Concentration-vs-epsilon table for one design, rows in ascending epsilon."""
    seed = cfg.seed if seed is None else int(seed)
    spec, rbar, estimates = _measure(cfg, epsilons, n_rep, seed, grid_points, n_threads,
                                     rho_bar)
    scale = math.sqrt(math.log(spec.p)) / float(np.mean(spec.sds))
    rows = [{
        "design_id": cfg.design_id(),
        "p": spec.p,
        "epsilon": est.epsilon,
        "norm_eps": est.epsilon * scale,
        "levy_hat": est.value,
        "se": est.se_hint,
        "n_rep": est.n_rep,
        "rho_bar": rbar,
    } for est in sorted(estimates, key=lambda est: est.epsilon)]
    path = os.path.join(out_dir, f"levy_{cfg.design_id()}.csv")
    write_csv(path, rows[0].keys(), rows, command="levy", seed=seed,
              config=_run_config(cfg, estimates, n_rep, grid_points),
              spec_hash=spec.content_hash)
    return path, rows


COMPARE_COLUMNS = ("design_id", "p", "epsilon", "levy_hat", "se", "ratio_empirical",
                   "ratio_homogeneous", "ratio_corr_threshold", "ratio_heterogeneous",
                   "ratio_conditional", "ratio_baseline", "ratio_single_max",
                   "lower_bound", "inapplicable")


def compare_row(cfg: DesignConfig, est: LevyEstimate, report: BoundReport,
                p: int) -> dict:
    """Flatten one bound report next to the matching empirical estimate.

    Bounds are reported as per-unit-epsilon ratios so rows at different
    epsilons are comparable; the additive omega term of the correlation
    threshold bound is folded into its ratio.
    """
    eps = est.epsilon
    row = {c: None for c in COMPARE_COLUMNS}
    row.update(design_id=cfg.design_id(), p=p, epsilon=eps, levy_hat=est.value,
               se=est.se_hint, ratio_empirical=est.value / eps)
    flagged = []
    for name in ALL_BOUNDS:
        value = report.ratio(name, eps)
        if isinstance(value, Inapplicable):
            flagged.append(f"{name}:{value.reason}")
        elif value is not None:
            row["ratio_" + name] = value
    if report.lower_exchangeable is not None:
        row["lower_bound"] = report.lower_exchangeable.value
    row["inapplicable"] = ";".join(flagged)
    return row


def run_bounds_compare(cfg: DesignConfig, epsilons=(0.05,), n_rep: int = 2000,
                       n_mc: int | None = None, grid_points: int = DEFAULT_GRID,
                       seed: int | None = None, out_dir: str = ".",
                       which=ALL_BOUNDS, n_threads: int = 1,
                       ) -> tuple[str, list[dict], BoundReport]:
    """Empirical concentration against every requested bound, one row per epsilon.

    The bounds are evaluated once, as rates; each row applies its epsilon.
    """
    seed = cfg.seed if seed is None else int(seed)
    mc = McConfig(n_mc=int(n_mc), seed=seed) if n_mc is not None else McConfig(seed=seed)
    overlap = cfg.overlap_k if cfg.kind == "exchangeable_overlap" else None
    spec, report, estimates = _measure(
        cfg, epsilons, n_rep, seed, grid_points, n_threads,
        lambda spec, part: bound_report(spec, part, mc=mc, which=which, overlap_k=overlap))
    rows = [compare_row(cfg, est, report, spec.p) for est in estimates]
    path = os.path.join(out_dir, f"bounds_{cfg.design_id()}.csv")
    write_csv(path, COMPARE_COLUMNS, rows, command="bounds-compare", seed=seed,
              config=_run_config(cfg, estimates, n_rep, grid_points, mc=mc.n_mc,
                                 bounds=list(which)),
              spec_hash=spec.content_hash)
    return path, rows, report


SCALING_KINDS = ("rho_sweep_fullrank", "rho_sweep_lowrank", "k0_sweep")


def run_scaling_study(kind: str, out_dir: str = ".", seed: int = 0,
                      p: int = 100, d: int | None = None, n_points: int = 100,
                      rho_min: float = 0.9, rho_max: float = 0.99,
                      n_rep: int = 500, epsilon: float = 0.05,
                      grid_points: int = DEFAULT_GRID, k0: int = 20,
                      p_list=K0_SWEEP_P, n_threads: int = 1) -> tuple[str, list[dict]]:
    """Scaling tables: concentration against the correlation gap or block size.

    rho_sweep_fullrank walks equicorrelated designs over [rho_min, rho_max];
    rho_sweep_lowrank redraws a low-rank factor per point so rho_bar moves on
    its own; k0_sweep grows the ambient dimension at a fixed split size.
    The rho tables carry the 1/sqrt(1-rho_bar) and 1/(1-rho_bar) regressors.
    Point i samples (and for rho_sweep_lowrank draws its design) with seed
    seed + i, wrapped mod 2^64 so every seed the sampler accepts runs through.
    """
    if kind not in SCALING_KINDS:
        raise BadConfig(f"unknown scaling kind {kind!r}; expected one of {SCALING_KINDS}")
    epsilon = check_epsilon(epsilon)
    n_sweep = len(p_list) if kind == "k0_sweep" else n_points
    if n_sweep < 1:
        raise BadConfig(f"{kind} needs at least one point, got {n_sweep}")
    seeds = [(seed + i) % 2 ** 64 for i in range(n_sweep)]
    if kind == "rho_sweep_fullrank":
        if not (-1.0 < rho_min <= rho_max < 1.0):
            raise BadConfig(f"need -1 < rho_min <= rho_max < 1, got [{rho_min}, {rho_max}]")
        cfgs = [DesignConfig(kind="fullrank_equicorr", p=p, rho=float(rho), seed=seed)
                for rho in np.linspace(rho_min, rho_max, n_points)]
    elif kind == "rho_sweep_lowrank":
        cfgs = [DesignConfig(kind="homog_lowrank", p=p, d=d, seed=s) for s in seeds]
    else:
        cfgs = [DesignConfig(kind="k0_split", p=int(pi), k0=k0, seed=seed) for pi in p_list]
    rows = [_scaling_row(kind, cfg, epsilon, n_rep, s, grid_points, n_threads)
            for cfg, s in zip(cfgs, seeds)]
    config = {"kind": kind, "p": p, "d": d, "n_points": n_points, "rho_min": rho_min,
              "rho_max": rho_max, "n_rep": n_rep, "epsilon": epsilon, "k0": k0,
              "p_list": list(p_list), "grid": grid_points}
    path = os.path.join(out_dir, f"scaling_{kind}.csv")
    write_csv(path, rows[0].keys(), rows, command="scaling", seed=seed, config=config)
    return path, rows


def _scaling_row(kind: str, cfg: DesignConfig, epsilon: float, n_rep: int, seed: int,
                 grid_points: int, n_threads: int) -> dict:
    spec, rbar, (est,) = _measure(cfg, epsilon, n_rep, seed, grid_points, n_threads, rho_bar)
    row = {
        "kind": kind,
        "design_id": cfg.design_id(),
        "p": spec.p,
        "k0": cfg.k0,
        "rho": cfg.rho,
        "rho_bar": rbar,
        "epsilon": epsilon,
        "levy_hat": est.value,
        "se": est.se_hint,
        "n_rep": est.n_rep,
        "inv_sqrt_gap": None,
        "inv_gap": None,
    }
    if rbar < 1.0:
        row["inv_sqrt_gap"] = 1.0 / math.sqrt(1.0 - rbar)
        row["inv_gap"] = 1.0 / (1.0 - rbar)
    return row


def run_bootstrap_demo(data: DataMatrix, part: Partition, b_reps: int = 2000,
                       seed: int = 0, multiplier: str = "gaussian",
                       out_path: str | None = None, n_mc: int = 20000) -> dict:
    """Argmax-probability bootstrap on observed rows, plus a rate diagnostic.

    The diagnostic plugs the sample covariance and a crude bounded-envelope
    estimate of b_n into the coupling-rate formula; it is omitted (with the
    reason recorded) when the variance conditions fail on the sample covariance.
    """
    result = run_bootstrap(data, part, b_reps=b_reps, seed=seed, multiplier=multiplier)
    payload = {"n": data.n, "p": data.p, "a_size": len(part.a_set),
               "bootstrap": result.to_json_dict()}
    payload.update(_clt_diagnostic(data, part, seed, n_mc))
    if out_path is not None:
        write_json(out_path, payload)
    return payload


def _clt_diagnostic(data: DataMatrix, part: Partition, seed: int, n_mc: int) -> dict:
    centered = data.xi - data.xi.mean(axis=0)
    sig_hat = (centered.T @ centered) / data.n
    sig_hat = (sig_hat + sig_hat.T) * 0.5
    try:
        spec_hat = CovSpec.explicit(sig_hat)
        rep = check_conditions(spec_hat, part)
        if not (rep.cond_a_holds or rep.cond_b_holds):
            raise ConditionFails("variance conditions fail on the sample covariance")
        subset = part.b_set if rep.s_set[0] == "B" else part.a_set
        emax_s, = expected_max_many(spec_hat, [subset], n_mc, seed)
        b_n = max(1.0, float(np.abs(centered).max()))
        inputs = CltRateInputs(b_n=b_n, b0=1.0, n=data.n, p=data.p,
                               c_ab=rep.c_ab, emax_s=emax_s)
        return {"clt_rate": clt_rate(inputs),
                "clt_inputs": {"b_n": b_n, "b0": 1.0, "c_ab": rep.c_ab,
                               "emax_s": emax_s, "s_set": rep.s_set[0]}}
    except MaxgapError as err:
        return {"clt_rate": None,
                "clt_skipped": getattr(err, "code", "error") or str(err)}
