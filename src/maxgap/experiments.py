"""Batch experiment drivers: CSV/JSON emitters around the estimation core.

The sampling drivers (levy, bounds-compare, scaling) check every argument
once, before their first design, then measure each design through
:func:`_measure`, in one stage order: build the design, run its covariance
geometry (``rho_bar`` or the bound report), run the sampler, then scan the
sample once over the caller's epsilons on one grid that the smallest eps
refines (:func:`levy.levy_curve`).

Every driver is deterministic given its seed.  CSV payloads carry no
timestamps; wall-clock metadata lives only in the .meta.json sidecar, so a
rerun with the same inputs is byte-identical on the CSV side.  The sidecar
records the run's parameters under the CLI option names, so its ``config``
passed back through ``--config`` replays a levy, bounds-compare or scaling
run.  A levy or bounds-compare run samples with its design's seed.  A
bounds-compare row takes ``lower_bound`` from the design's config, not the
report.  ``STUDIES`` maps each scaling study to its point designs and the
options it reads, the only ones its sidecar records.  ``run_bootstrap_demo``
returns its payload for ``write_json``.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .bootstrap import DataMatrix, check_replicates, clt_rate, run_bootstrap
from .bounds import ALL_BOUNDS, BoundReport, bound_report, lower_bound_exchangeable
from .cov import CovSpec, Partition, check_conditions, plain_count, plain_option, rho_bar
from .designs import DesignConfig, check_design, gen_design
from .errors import BadConfig, ConditionFails, IoError, MaxgapError
from .levy import (DEFAULT_MC, LevyEstimate, check_epsilon, check_scan, expected_max_many,
                   levy_curve)
from .sampling import RNG_METHOD, check_run, sample_max_diff

DEFAULT_EPSILONS = (0.01, 0.02, 0.05, 0.1, 0.2)
CLT_MC = 20000   # Monte Carlo size of the bootstrap's coupling-rate diagnostic


def _fmt(x) -> str:
    """One CSV cell; floats at 17 significant digits so reruns match bitwise."""
    if x is None:
        return ""
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


def _json_text(payload: dict) -> str:
    """The one JSON format: indented, key-sorted, with a trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _meta_text(meta: dict) -> str:
    """A sidecar in the one JSON format; a value JSON cannot hold is a BadConfig."""
    try:
        return _json_text(meta)
    except TypeError as err:
        raise BadConfig(f"run config is not JSON: {err}") from err


def write_json(path: str | None, payload: dict) -> None:
    """``payload`` in the one JSON format; None writes to stdout."""
    text = _json_text(payload)
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
    generator.  The sidecar is serialized first: a config value JSON cannot
    hold raises BadConfig and writes neither file.
    """
    columns = tuple(columns)
    meta = _meta_text({
        "command": command, "seed": seed, "config": config, "columns": columns,
        "n_rows": len(rows), "outputs": [os.path.basename(path)], "spec_hash": spec_hash,
        "rng_method": RNG_METHOD, "created": datetime.now(timezone.utc).isoformat(),
        "versions": _versions(),
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}})
    lines = [columns] + [[_fmt(row[c]) for c in columns] for row in rows]
    _write_text(path, "".join(",".join(cells) + "\n" for cells in lines))
    _write_text(path + ".meta.json", meta)
    return path


def _measure(cfg: DesignConfig, eps: list[float], n_rep: int, seed: int, n_threads: int,
             geometry) -> tuple[CovSpec, object, list[LevyEstimate]]:
    """The sampling drivers' one measurement: (spec, geometry(spec, part), estimates).

    The driver checks eps, a list of half-widths, and the run once, before
    its first design; the estimates follow eps's order.  The calling thread
    makes every sampler worker's block of normals and tile before any helper
    thread starts, so no large buffer lands in a helper's allocator arena: a
    helper allocates only its chunks' per-row maxima, a few KiB each.
    """
    spec, part = gen_design(cfg)
    geo = geometry(spec, part)
    diffs = sample_max_diff(spec, part, n_rep, seed, n_threads=n_threads)
    return spec, geo, levy_curve(diffs, eps)


def _run_config(cfg: DesignConfig, epsilons, n_rep: int, n_threads: int, **extra) -> dict:
    """The sidecar's config: the design and run options under their CLI names.

    The epsilons and the run (n_rep, the design's seed, n_threads) are
    checked and the config serialized here, so a bad value or one JSON
    cannot hold raises BadConfig before the design is built.
    """
    eps = check_scan(epsilons if np.iterable(epsilons) else (epsilons,))
    check_run(n_rep, cfg.seed, n_threads)
    config = {**cfg.to_json_dict(), "reps": int(n_rep), "eps": eps, **extra}
    _meta_text(config)
    return config


def run_levy_experiment(cfg: DesignConfig, epsilons=DEFAULT_EPSILONS, n_rep: int = 2000,
                        out_dir: str = ".", n_threads: int = 1) -> tuple[str, list[dict]]:
    """Concentration-vs-epsilon table for one design, rows in ascending epsilon."""
    config = _run_config(cfg, epsilons, n_rep, n_threads)
    spec, rbar, estimates = _measure(cfg, config["eps"], n_rep, cfg.seed, n_threads, rho_bar)
    scale = math.sqrt(math.log(spec.p)) / float(np.mean(spec.sds))
    rows = [{
        "design_id": cfg.design_id(),
        "p": spec.p,
        "epsilon": est.epsilon,
        "norm_eps": est.epsilon * scale,
        "levy_hat": est.value,
        "se": est.se_hint,
        "n_rep": n_rep,
        "rho_bar": rbar,
    } for est in sorted(estimates, key=lambda est: est.epsilon)]
    path = os.path.join(out_dir, f"levy_{cfg.design_id()}.csv")
    write_csv(path, rows[0].keys(), rows, command="levy", seed=cfg.seed, config=config,
              spec_hash=spec.content_hash)
    return path, rows


COMPARE_COLUMNS = ("design_id", "p", "epsilon", "levy_hat", "se", "ratio_empirical",
                   *("ratio_" + name for name in ALL_BOUNDS), "lower_bound", "inapplicable")


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
    flagged = report.inapplicable()
    for name in ALL_BOUNDS:
        if getattr(report, name) is not None and name not in flagged:
            row["ratio_" + name] = report.ratio(name, eps)
    if cfg.kind == "exchangeable_overlap":
        row["lower_bound"] = lower_bound_exchangeable(cfg.overlap_k, cfg.p)
    row["inapplicable"] = ";".join(f"{name}:{v.reason}" for name, v in flagged.items())
    return row


def run_bounds_compare(cfg: DesignConfig, epsilons=(0.05,), n_rep: int = 2000,
                       n_mc: int = DEFAULT_MC, out_dir: str = ".", which=ALL_BOUNDS,
                       n_threads: int = 1) -> tuple[str, list[dict], BoundReport]:
    """Empirical concentration against every requested bound, one row per epsilon.

    The bounds are evaluated once, as rates; each row applies its epsilon.
    """
    n_mc = plain_count("n_mc", n_mc)
    config = _run_config(cfg, epsilons, n_rep, n_threads, mc=n_mc, bounds=list(which))
    spec, report, estimates = _measure(
        cfg, config["eps"], n_rep, cfg.seed, n_threads,
        lambda spec, part: bound_report(spec, part, n_mc=n_mc, seed=cfg.seed, which=which))
    rows = [compare_row(cfg, est, report, spec.p) for est in estimates]
    path = os.path.join(out_dir, f"bounds_{cfg.design_id()}.csv")
    write_csv(path, COMPARE_COLUMNS, rows, command="bounds-compare", seed=cfg.seed,
              config=config, spec_hash=spec.content_hash)
    return path, rows, report


# Each scaling study option's default; a study reads only those STUDIES lists for it.
STUDY_OPTIONS = {"p": 100, "d": None, "points": 100, "rho_min": 0.9, "rho_max": 0.99,
                 "k0": 20, "p_list": (25, 30, 40, 60, 80, 120)}


def _plain(name: str, value):
    """A set study option as a plain Python value, or BadConfig naming it: a
    float for rho_min and rho_max, a list of ints for p_list, an int for the rest."""
    if name in ("rho_min", "rho_max"):
        return plain_option(name, value, float)
    if name != "p_list":
        return plain_option(name, value)
    try:
        return [operator.index(p) for p in value]
    except (TypeError, ValueError):
        raise BadConfig(f"p_list must be a list of integers, got {value!r}") from None


def _rho_sweep_fullrank(o: dict, seed: int) -> list[DesignConfig]:
    if not (-1.0 < o["rho_min"] <= o["rho_max"] < 1.0):
        raise BadConfig(f"need -1 < rho_min <= rho_max < 1, got [{o['rho_min']}, {o['rho_max']}]")
    return [DesignConfig(kind="fullrank_equicorr", p=o["p"], rho=float(rho), seed=seed)
            for rho in np.linspace(o["rho_min"], o["rho_max"], max(o["points"], 0))]


# Each study's point designs, from its options and seed, and the options it reads.
STUDIES = {
    "rho_sweep_fullrank": (_rho_sweep_fullrank, ("p", "points", "rho_min", "rho_max")),
    "rho_sweep_lowrank": (lambda o, seed: [
        DesignConfig(kind="homog_lowrank", p=o["p"], d=o["d"], seed=(seed + i) % 2 ** 64)
        for i in range(o["points"])], ("p", "d", "points")),
    "k0_sweep": (lambda o, seed: [DesignConfig(kind="k0_split", p=p, k0=o["k0"], seed=seed)
                                  for p in o["p_list"]], ("k0", "p_list")),
}


def run_scaling_study(kind: str, out_dir: str = ".", *, seed: int = 0, n_rep: int = 500,
                      epsilon: float = 0.05, n_threads: int = 1,
                      **options) -> tuple[str, list[dict]]:
    """Scaling tables: concentration against the correlation gap or block size.

    rho_sweep_fullrank walks equicorrelated designs over [rho_min, rho_max];
    rho_sweep_lowrank redraws a low-rank factor per point so rho_bar moves on
    its own; k0_sweep grows the ambient dimension at a fixed split size.
    The rho tables carry the 1/sqrt(1-rho_bar) and 1/(1-rho_bar) regressors.
    A set option (not None) the study does not read raises BadConfig.  Before
    the first point, the options read become plain values (:func:`_plain`)
    and the sidecar config is serialized, and every point's design is checked
    (:func:`check_design`, which builds nothing), so a non-integer dimension,
    a config JSON cannot hold or an option one point cannot build raises
    BadConfig before any sampling.  The seed
    must lie in [0, 2^64); point i samples (and for rho_sweep_lowrank draws
    its design) with seed seed + i, wrapped mod 2^64.
    """
    if kind not in STUDIES:
        raise BadConfig(f"unknown scaling kind {kind!r}; expected one of {tuple(STUDIES)}")
    points, reads = STUDIES[kind]
    unread = [name for name in {**STUDY_OPTIONS, **options}
              if options.get(name) is not None and name not in reads]
    if unread:
        raise BadConfig(f"{kind} does not read {', '.join(unread)}")
    opts = {k: STUDY_OPTIONS[k] if options.get(k) is None else _plain(k, options[k])
            for k in reads}
    epsilon = check_epsilon(epsilon)
    check_run(n_rep, seed, n_threads)
    cfgs = points(opts, seed)
    if not cfgs:
        size = opts["points"] if "points" in opts else len(opts["p_list"])
        raise BadConfig(f"{kind} needs at least one point, got {size}")
    config = {"study": kind, **opts, "reps": n_rep, "eps": [epsilon], "seed": seed}
    _meta_text(config)  # a config JSON cannot hold fails before the first point
    for cfg in cfgs:
        check_design(cfg)
    rows = [_scaling_row(kind, cfg, epsilon, n_rep, (seed + i) % 2 ** 64, n_threads)
            for i, cfg in enumerate(cfgs)]
    path = os.path.join(out_dir, f"scaling_{kind}.csv")
    write_csv(path, rows[0].keys(), rows, command="scaling", seed=seed, config=config)
    return path, rows


def _scaling_row(kind: str, cfg: DesignConfig, epsilon: float, n_rep: int, seed: int,
                 n_threads: int) -> dict:
    spec, rbar, (est,) = _measure(cfg, [epsilon], n_rep, seed, n_threads, rho_bar)
    return {
        "kind": kind,
        "design_id": cfg.design_id(),
        "p": spec.p,
        "k0": cfg.k0,
        "rho": cfg.rho,
        "rho_bar": rbar,
        "epsilon": epsilon,
        "levy_hat": est.value,
        "se": est.se_hint,
        "n_rep": n_rep,
        "inv_sqrt_gap": 1.0 / math.sqrt(1.0 - rbar) if rbar < 1.0 else None,
        "inv_gap": 1.0 / (1.0 - rbar) if rbar < 1.0 else None,
    }


def run_bootstrap_demo(data: DataMatrix, part: Partition, b_reps: int = 2000,
                       seed: int = 0, multiplier: str = "gaussian") -> dict:
    """Argmax-probability bootstrap on observed rows, plus a rate diagnostic, as a JSON payload.

    The diagnostic plugs the sample covariance and a crude bounded-envelope
    estimate of b_n into the coupling-rate formula, with a CLT_MC-draw
    expected maximum.  When the variance conditions fail on the sample
    covariance it is omitted: ``clt_skipped`` holds the error code and
    ``clt_skipped_detail`` its message.  The arguments are checked, then the
    diagnostic runs before the replicates, whose freed chunk buffers stay in
    the heap, so an eigendecomposition run after them would add to the peak.
    """
    part.check_dim(data.p)
    check_replicates(b_reps, seed, multiplier)
    clt = _clt_diagnostic(data, part, seed)
    result = run_bootstrap(data, part, b_reps=b_reps, seed=seed, multiplier=multiplier)
    quantiles = {str(q): v for q, v in result.quantiles.items()}
    return {"n": data.n, "p": data.p, "a_size": len(part.a_set),
            "bootstrap": {"prob": result.prob_argmax_in_a, "quantiles": quantiles,
                          "b_reps": b_reps, "multiplier": multiplier, "seed": seed}, **clt}


def _clt_diagnostic(data: DataMatrix, part: Partition, seed: int) -> dict:
    centered = data.xi - data.xi.mean(axis=0)
    b_n = max(1.0, float(np.abs(centered).max()))
    # A Gram product, exactly symmetric by maxgap.cov's rule, handed over read-only: the
    # spec holds Sigma-hat uncopied, and no centered rows stay beside its eigendecomposition.
    sig_hat = centered.T @ centered
    del centered
    sig_hat /= data.n
    sig_hat.flags.writeable = False
    try:
        spec_hat = CovSpec.explicit(sig_hat)
        rep = check_conditions(spec_hat, part)
        if not (rep.cond_a_holds or rep.cond_b_holds):
            raise ConditionFails("variance conditions fail on the sample covariance")
        subset = part.b_set if rep.s_set[0] == "B" else part.a_set
        emax_s, = expected_max_many(spec_hat, [subset], CLT_MC, seed)
        rate = clt_rate(emax_s=emax_s, c_ab=rep.c_ab, b_n=b_n, n=data.n, p=data.p)
        # b0, the fourth-moment constant of the suppressed prefactor, is reported only.
        return {"clt_rate": rate,
                "clt_inputs": {"b_n": b_n, "b0": 1.0, "c_ab": rep.c_ab,
                               "emax_s": emax_s, "s_set": rep.s_set[0]}}
    except MaxgapError as err:
        return {"clt_rate": None, "clt_skipped": err.code, "clt_skipped_detail": str(err)}
