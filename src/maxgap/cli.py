"""Command line front end.

Subcommands: gen-design, levy, bounds-compare, scaling, bootstrap, selftest.

argparse resolves every option in one pass: a flag wins over the
``--config`` file, which wins over the built-in default that ``--help``
lists.  Config keys are the option names (``a``, ``overlap_k``, ``rho_min``,
``p_list``, ...); keys that name no option of the subcommand are ignored and
``null`` leaves an option unset; a set design or study option that the kind
or study does not read exits 2.  Config values go through the flags'
converters: numbers or lists (comma-joined) for numeric options, strings
for names and paths, a list or a comma-joined string for ``bounds``.  A
converter reads only a value's type; the library's own rules check the value
(counts, seeds, bound names), for the CLI as for a Python caller.  Exit
codes: 0 success, 1 a selftest check failed, 2 bad configuration (including
a malformed flag or config value), 3 every requested bound inapplicable, 4
I/O failure (including a malformed or non-finite data cell).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import warnings

from .bounds import ALL_BOUNDS
from .cov import Partition
from .designs import DESIGNS, KINDS, VARIANCE_PROFILES, DesignConfig, gen_design
from .errors import BadConfig, IoError, MaxgapError, ParseError
from .bootstrap import MULTIPLIERS, check_replicates, load_csv
from .levy import DEFAULT_MC
from .sampling import check_run
from . import experiments

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_CONFIG = 2
EXIT_INAPPLICABLE = 3
EXIT_IO = 4

_DESIGN_KEYS = tuple(DesignConfig.__dataclass_fields__)


def _list_of(convert, name: str):
    """The converter of a comma-separated list of ``convert`` values, called ``name``."""
    def parse(text: str) -> list:
        try:
            values = [convert(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"expected comma-separated {name}: {err}")
        if not values:
            raise argparse.ArgumentTypeError("empty list")
        return values
    return parse


_float_list, _int_list = _list_of(float, "floats"), _list_of(int, "integers")
_name_list = _list_of(str.strip, "names")


def _add_common(sub: argparse.ArgumentParser, out: str | None = None) -> None:
    sub.add_argument("--config", metavar="PATH", help="JSON file of option values")
    sub.add_argument("--seed", type=int, default=0, help="master seed (unsigned 64-bit)")
    sub.add_argument("--out", default=out, help="output directory or file")


def _read_by(table: dict, actions) -> None:
    """Name in each option's help the ``table`` entries (name -> (_, reads)) that read it."""
    for action in actions:
        action.help += "; read by " + ", ".join(
            name for name, (_, reads) in table.items() if action.dest in reads)


def _add_design(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kind", choices=KINDS, help="design family (required)")
    sub.add_argument("--p", type=int, default=400, help="dimension")
    _read_by(DESIGNS, (
        sub.add_argument("--d", type=int, help="factor rank"),
        sub.add_argument("--k", type=int, dest="overlap_k", help="overlap size"),
        sub.add_argument("--k0", type=int, help="size of block A"),
        sub.add_argument("--rho", type=float, help="equicorrelation level"),
        sub.add_argument("--profile", choices=sorted(VARIANCE_PROFILES),
                         dest="variance_profile", help="sd profile")))


def _add_run(sub: argparse.ArgumentParser, reps: int, eps) -> None:
    sub.add_argument("--reps", type=int, default=reps, help="sample replications")
    sub.add_argument("--eps", type=_float_list, default=eps,
                     help="comma-separated epsilon list")
    sub.add_argument("--threads", type=int, default=1, help="sampling threads")


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise IoError(f"cannot read config {path}: {err}") from err
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise BadConfig(f"config {path} is not valid UTF-8 JSON: {err}") from err
    if not isinstance(obj, dict):
        raise BadConfig(f"config {path} must hold a JSON object")
    return obj


def _config_defaults(sub: argparse.ArgumentParser, cfg: dict) -> dict:
    """Config values of sub's options, as the text a flag would carry."""
    defaults = {}
    for action in sub._actions:
        value = cfg.get(action.dest)
        if value is None or action.dest in ("help", "config"):
            continue
        if isinstance(value, str) != (action.type is None) and action.type is not _name_list:
            expected = "a string" if action.type is None else "a number or a list"
            raise BadConfig(f"config key {action.dest!r} must be {expected}, got {value!r}")
        defaults[action.dest] = (",".join(map(str, value)) if isinstance(value, list)
                                 else str(value))
    return defaults


def _design_from(args) -> DesignConfig:
    if args.kind is None:
        raise BadConfig("a design kind is required (--kind or 'kind' in --config)")
    return DesignConfig(**{key: getattr(args, key) for key in _DESIGN_KEYS})


def cmd_gen_design(args) -> int:
    cfg = _design_from(args)
    spec, part = gen_design(cfg)
    payload = {
        "design_id": cfg.design_id(),
        "config": cfg.to_json_dict(),
        "spec": spec.to_json_dict(),
        "partition": part.to_json_dict(),
    }
    experiments.write_json(args.out, payload)
    if args.out is not None:
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_levy(args) -> int:
    path, rows = experiments.run_levy_experiment(
        _design_from(args), epsilons=args.eps, n_rep=args.reps, out_dir=args.out,
        n_threads=args.threads)
    for row in rows:
        print(f"eps={row['epsilon']:g} levy_hat={row['levy_hat']:.6f} se={row['se']:.6f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_bounds_compare(args) -> int:
    path, rows, report = experiments.run_bounds_compare(
        _design_from(args), epsilons=args.eps, n_rep=args.reps, n_mc=args.mc,
        out_dir=args.out, which=args.bounds, n_threads=args.threads)
    for row in rows:
        ratios = {c: row[c] for c in experiments.COMPARE_COLUMNS
                  if c.startswith("ratio_") and row[c] is not None}
        pretty = " ".join(f"{k[6:]}={v:.4g}" for k, v in ratios.items())
        print(f"eps={row['epsilon']:g} {pretty}")
    flagged = report.inapplicable()  # the CSV column keeps name:code, without the message
    if flagged:
        print("  inapplicable: " + "; ".join(f"{name}:{v.reason} ({v.detail})"
                                             for name, v in flagged.items()))
    print(f"wrote {path}")
    if flagged.keys() >= set(args.bounds):
        print("error: every requested bound is inapplicable for this design",
              file=sys.stderr)
        return EXIT_INAPPLICABLE
    return EXIT_OK


def cmd_scaling(args) -> int:
    if args.study is None:
        raise BadConfig("a study kind is required (--study or 'study' in --config)")
    options = {k: v for k, v in vars(args).items() if k in experiments.STUDY_OPTIONS}
    path, rows = experiments.run_scaling_study(
        args.study, out_dir=args.out, seed=args.seed, n_rep=args.reps, epsilons=args.eps,
        n_threads=args.threads, **options)
    print(f"{len(rows)} rows; wrote {path}")
    return EXIT_OK


def cmd_bootstrap(args) -> int:
    check_replicates(args.breps, args.seed, args.multiplier)
    if args.data is None:
        raise BadConfig("a data CSV is required (--data or 'data' in --config)")
    if args.a is not None and args.split is not None:
        raise BadConfig("--a and --split both set block A; give one of them")
    data = load_csv(args.data, shift=args.shift)
    if args.a is not None:
        a_set = tuple(sorted(args.a))
        in_a = set(a_set)
        b_set = tuple(i for i in range(data.p) if i not in in_a)
        part = Partition(a_set=a_set, b_set=b_set, p=data.p)
    else:
        part = Partition.split(data.p, data.p // 2 if args.split is None else args.split)
    payload = experiments.run_bootstrap_demo(
        data, part, b_reps=args.breps, seed=args.seed, multiplier=args.multiplier)
    experiments.write_json(args.out or None, payload)
    if args.out:
        print(f"wrote {args.out}")
        print(f"prob_argmax_in_A={payload['bootstrap']['prob']:.4f}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    seed, threads, reps = args.seed, args.threads, args.reps
    check_run(reps, seed, threads)
    rho, sd, eps_check = 0.3, 1.0, 0.05
    cfg = DesignConfig(kind="fullrank_equicorr", p=2, rho=rho, seed=seed)
    epsilons = (0.01, eps_check, 0.2)
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"selftest {label}: {'PASS' if ok else 'FAIL'}")
        failures += 0 if ok else 1

    def thread_pair(run, design: DesignConfig, tmp: str, **kwargs) -> tuple[list[dict], bool]:
        # The 1-thread rows of run, and whether its 1- and N-thread CSVs are byte-equal.
        runs = [run(design, epsilons, n_rep=reps, n_threads=n,
                    out_dir=os.path.join(tmp, f"{run.__name__}_{design.kind}_{k}"), **kwargs)
                for k, n in enumerate((1, threads))]
        with open(runs[0][0], "rb") as f1, open(runs[1][0], "rb") as f2:
            return runs[0][1], f1.read() == f2.read()

    # table1 is a factor plus per-coordinate noise: the noise sampler's path;
    # bounds-compare adds every bound's expected-max pass.
    table1 = DesignConfig(kind="table1", p=40, seed=seed)
    with tempfile.TemporaryDirectory(dir=args.out) as tmp:
        rows, same = thread_pair(experiments.run_levy_experiment, cfg, tmp)
        check(f"thread determinism (1 vs {threads} threads)", same)
        _, same = thread_pair(experiments.run_levy_experiment, table1, tmp)
        check(f"noise-factor thread determinism (table1, 1 vs {threads} threads)", same)
        _, same = thread_pair(experiments.run_bounds_compare, table1, tmp, n_mc=2000)
        check(f"bounds-compare thread determinism (table1, 1 vs {threads} threads)", same)
    row = next(r for r in rows if r["epsilon"] == eps_check)
    truth = math.erf(eps_check / (sd * math.sqrt(2.0 * (1.0 - rho))) / math.sqrt(2.0))
    se = max(row["se"], 1e-12)
    check("analytic two-coordinate design (6 SE)", abs(row["levy_hat"] - truth) <= 6.0 * se)
    return EXIT_OK if failures == 0 else EXIT_SELFTEST_FAILED


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="maxgap",
        description="Concentration experiments for the difference of two Gaussian maxima.")
    commands = parser.add_subparsers(dest="command", required=True)
    subs = {}

    def add(name: str, func, help: str) -> argparse.ArgumentParser:
        sp = commands.add_parser(name, help=help,
                                 formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sp.set_defaults(func=func)
        subs[name] = sp
        return sp

    sp = add("gen-design", cmd_gen_design, "materialize a design as JSON")
    _add_common(sp)
    _add_design(sp)

    sp = add("levy", cmd_levy, "concentration level across epsilons")
    _add_common(sp, out=".")
    _add_design(sp)
    _add_run(sp, reps=2000, eps=experiments.DEFAULT_EPSILONS)

    sp = add("bounds-compare", cmd_bounds_compare, "empirical level against the bounds")
    _add_common(sp, out=".")
    _add_design(sp)
    _add_run(sp, reps=2000, eps=(0.05,))
    sp.add_argument("--bounds", type=_name_list, default=ALL_BOUNDS,
                    help="comma-separated subset of bounds to evaluate")
    sp.add_argument("--mc", type=int, default=DEFAULT_MC,
                    help="Monte Carlo size for expected maxima")

    sp = add("scaling", cmd_scaling, "scaling studies over rho or block size")
    _add_common(sp, out=".")
    _add_run(sp, reps=500, eps=(0.05,))
    sp.add_argument("--study", choices=tuple(experiments.STUDIES), help="study kind (required)")
    study_options = (
        sp.add_argument("--p", type=int, help="dimension"),
        sp.add_argument("--d", type=int, help="factor rank"),
        sp.add_argument("--points", type=int, help="sweep points"),
        sp.add_argument("--rho-min", type=float, dest="rho_min", help="first rho"),
        sp.add_argument("--rho-max", type=float, dest="rho_max", help="last rho"),
        sp.add_argument("--k0", type=int, help="size of block A"),
        sp.add_argument("--p-list", type=_int_list, dest="p_list", help="dimensions"))
    _read_by(experiments.STUDIES, study_options)
    for action in study_options:
        # Unset unless given, so only the options the study reads reach it.
        action.default = argparse.SUPPRESS
        action.help += f" (default: {experiments.STUDY_OPTIONS[action.dest]})"

    sp = add("bootstrap", cmd_bootstrap, "multiplier bootstrap on an observed matrix")
    _add_common(sp)
    sp.add_argument("--data", help="CSV of observations, one row per unit (required)")
    sp.add_argument("--split", type=int,
                    help="block A is the first SPLIT coordinates (half when unset)")
    sp.add_argument("--a", type=_int_list, help="explicit comma-separated indices of block A")
    sp.add_argument("--breps", type=int, default=2000, help="bootstrap draws")
    sp.add_argument("--multiplier", choices=MULTIPLIERS, default="gaussian",
                    help="multiplier weight law")
    sp.add_argument("--shift", type=_float_list,
                    help="comma-separated location shift, one value per column")

    sp = add("selftest", cmd_selftest, "determinism and analytic sanity checks")
    _add_common(sp)
    sp.add_argument("--reps", type=int, default=20000, help="sample replications")
    sp.add_argument("--threads", type=int, default=8,
                    help="threads compared against one")

    return parser, subs


def parse_args(argv=None) -> argparse.Namespace:
    """Resolve every option: flags, then the --config file, then the defaults."""
    parser, subs = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        sub = subs[args.command]
        sub.set_defaults(**_config_defaults(sub, _load_config(args.config)))
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _warning_printer(warnings.showwarning)
        try:
            args = parse_args(argv)
            return args.func(args)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else EXIT_OK
        except (ParseError, IoError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_IO
        except MaxgapError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_CONFIG


def _warning_printer(show):
    """A ``warnings.showwarning`` that prints a maxgap warning as one stderr line.

    ``warning: <message>``, with no source location; any other warning goes
    to show, Python's own printer.
    """
    def showwarning(message, category, filename, lineno, file=None, line=None):
        if category.__module__.partition(".")[0] == __package__:
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, filename, lineno, file, line)

    return showwarning


if __name__ == "__main__":
    sys.exit(main())
