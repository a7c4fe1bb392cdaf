"""Outside-in tracing of maxgap's layers, and the per-layer metrics.

:class:`Tracer` wraps every public function of each layer module at every
module binding it has (``bounds`` imports ``expected_max_many`` by name, so
patching ``levy`` alone would miss those calls).  Each call records a span
(name, start, end, parent) in memory; work counts are computed from the
call's arguments and results, never measured, so they repeat exactly.
Nothing in ``src/`` is modified.  A generator function's span covers only
its creation: the work of its body lands in the self time of its consumer.

:func:`layer_metrics` turns one traced run's spans into the metrics listed
in ``PER_LAYER``.  Self time is a span's duration minus the part covered by
its children, minus the tracer's own bookkeeping inside it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import threading
import time
import types
from dataclasses import dataclass, field

LAYERS = ("cli", "experiments", "designs", "cov", "sampling", "levy", "bounds", "bootstrap")

BOUND_FUNCS = {"homogeneous": "bound_homogeneous", "corr_threshold": "bound_corr_threshold",
               "heterogeneous": "bound_heterogeneous", "conditional": "bound_conditional",
               "baseline": "bound_baseline_min_eig", "single_max": "bound_single_max"}

# (name, unit) of every per-layer metric, in report order; MB are 10^6 bytes.
PER_LAYER = (
    [("levy.expected_max_many." + m, u) for m, u in
     (("calls", "count"), ("self_s", "s"), ("draws", "count"), ("gflop", "GFLOP"),
      ("gflops", "GFLOP/s"), ("repeat_frac", "frac"))]
    + [("levy.scan.self_s", "s")]
    + [(f"bounds.{b}.total_s", "s") for b in BOUND_FUNCS]
    + [("bounds.bound_report.calls", "count"), ("bounds.bound_report.self_s", "s"),
       ("bounds.inapplicable", "count")]
    + [("cov.explicit_cov.calls", "count"), ("cov.explicit_cov.self_s", "s"),
       ("cov.explicit_cov.repeat_frac", "frac"), ("cov.sqrt_factor.calls", "count"),
       ("cov.sqrt_factor.self_s", "s")]
    + [(f"cov.{f}.self_s", "s") for f in ("residual_cov", "check_conditions",
                                          "min_eigenvalue", "rho_bar")]
    + [("sampling.sample.self_s", "s"), ("sampling.sample.gflop", "GFLOP"),
       ("sampling.sample.gflops", "GFLOP/s"), ("sampling.sample.batch_mb", "MB"),
       ("sampling.max_diff.self_s", "s"), ("sampling.max_diff.read_mb", "MB")]
    + [("bootstrap.load_csv.self_s", "s"), ("bootstrap.argmax_prob.self_s", "s"),
       ("bootstrap.multiplier_replicates.self_s", "s"),
       ("bootstrap.multiplier_replicates.gflop", "GFLOP"),
       ("bootstrap.multiplier_replicates.gflops", "GFLOP/s"),
       ("bootstrap.multiplier_replicates.replicates_mb", "MB")]
    + [("designs.gen_design.self_s", "s"), ("experiments.write_csv.self_s", "s"),
       ("experiments.driver.self_s", "s"), ("cli.main.self_s", "s"), ("cli.main.cpu_s", "s"),
       ("trace.overhead_s", "s"), ("fail_frac", "frac")]
)

# Metrics that are counts of work: identical in every traced run of one input.
COUNT_METRICS = tuple(n for n, u in PER_LAYER if u in ("count", "GFLOP", "MB")
                      or n.endswith("repeat_frac"))


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    overhead: float = 0.0          # tracer bookkeeping inside this span's interval
    info: dict = field(default_factory=dict)


def _spec_digest(spec) -> str:
    h = hashlib.sha1(spec.form.encode())
    for arr in (spec.gamma, spec.sigma, spec.mu):
        if arr is not None:
            h.update(arr.tobytes())
    return h.hexdigest()


class Tracer:
    """Records a span around every call into a public function of a layer."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()      # the sampler calls chunk_rng from its threads
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self._digests: dict[int, tuple[object, str]] = {}

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"maxgap.{layer}")
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for name, mod in list(sys.modules.items()):
            if name != "maxgap" and not name.startswith("maxgap."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def spec_digest(self, spec) -> str:
        """Content digest of a covariance spec, hashed once per spec object."""
        hit = self._digests.get(id(spec))
        if hit is None:
            hit = self._digests[id(spec)] = (spec, _spec_digest(spec))
        return hit[1]

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(name, parent)
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info.update(counter(tracer, idx, bound.arguments, result))
            if parent is not None:
                tracer.spans[parent].overhead += time.perf_counter() - span.end
            return result

        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def child_info(self, idx: int, name: str, key: str):
        """``info[key]`` of the first direct child span of ``idx`` named ``name``."""
        for span in self.spans[idx + 1:]:
            if span.parent == idx and span.name == name:
                return span.info[key]
        raise LookupError(f"span {self.spans[idx].name} has no child {name}")


# ------------------------------------------------------------ counters

def _factor_rank(tracer, idx, args, result):
    return {"r": int(result.shape[1])}


def _emax_counts(tracer, idx, args, result):
    r = tracer.child_info(idx, "sampling.sampling_factor", "r")
    subsets = [tuple(sorted({int(i) for i in s})) for s in args["subsets"]]
    cols = len(set().union(*subsets)) if subsets else 0
    n_mc, digest = int(args["n_mc"]), tracer.spec_digest(args["spec"])
    keys = [(digest, s, args["mode"], n_mc, int(args["seed"])) for s in subsets]
    return {"draws": n_mc * r, "gflop": 2.0 * n_mc * r * cols / 1e9, "requests": keys}


def _sample_counts(tracer, idx, args, result):
    r = tracer.child_info(idx, "sampling.sampling_factor", "r")
    n, p = int(args["n_rep"]), int(args["spec"].p)
    return {"gflop": 2.0 * n * r * p / 1e9, "batch_mb": n * p * 8 / 1e6}


def _max_diff_counts(tracer, idx, args, result):
    part = args["part"]
    cols = len(part.a_set) + len(part.b_set)
    return {"read_mb": int(args["batch"].n_rep) * cols * 8 / 1e6}


def _replicate_counts(tracer, idx, args, result):
    data, b = args["data"], int(args["b_reps"])
    return {"gflop": 2.0 * b * data.n * data.p / 1e9, "replicates_mb": b * data.p * 8 / 1e6}


def _explicit_cov_key(tracer, idx, args, result):
    return {"requests": [tracer.spec_digest(args["spec"])]}


def _inapplicable_count(tracer, idx, args, result):
    from maxgap.bounds import Inapplicable
    return {"inapplicable": sum(isinstance(v, Inapplicable) for v in vars(result).values())}


COUNTERS = {
    "sampling.sampling_factor": _factor_rank,
    "levy.expected_max_many": _emax_counts,
    "sampling.sample": _sample_counts,
    "sampling.max_diff": _max_diff_counts,
    "bootstrap.multiplier_replicates": _replicate_counts,
    "cov.explicit_cov": _explicit_cov_key,
    "bounds.bound_report": _inapplicable_count,
}


# ------------------------------------------------------------- metrics

def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the union of direct-child intervals, minus overhead."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for c in sorted(children.get(i, ()), key=lambda s: s.start):
            lo, hi = max(c.start, reach), min(c.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered - span.overhead)
    return out


def _repeat_frac(keys: list) -> float:
    seen: set = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys) if keys else 0.0


def layer_metrics(spans: list[Span], cpu_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric except ``trace.overhead_s`` and ``fail_frac``."""
    selfs = self_times(spans)

    def pick(pred):
        return [(s, t) for s, t in zip(spans, selfs) if pred(s.name)]

    def self_of(*names):
        return sum(t for _, t in pick(lambda n: n in names))

    def calls(name):
        return len(pick(lambda n: n == name))

    def info_sum(name, key):
        return sum(s.info[key] for s, _ in pick(lambda n: n == name))

    def keys(name):
        return [k for s, _ in pick(lambda n: n == name) for k in s.info["requests"]]

    def rate(work, secs):
        return work / secs if secs > 0 else 0.0

    m: dict[str, float] = {}
    em = "levy.expected_max_many"
    m[em + ".calls"] = calls(em)
    m[em + ".self_s"] = self_of(em)
    m[em + ".draws"] = info_sum(em, "draws")
    m[em + ".gflop"] = info_sum(em, "gflop")
    m[em + ".gflops"] = rate(m[em + ".gflop"], m[em + ".self_s"])
    m[em + ".repeat_frac"] = _repeat_frac(keys(em))
    m["levy.scan.self_s"] = self_of("levy.levy_hat", "levy.levy_hat_single", "levy.levy_curve")
    for bound, fn in BOUND_FUNCS.items():
        m[f"bounds.{bound}.total_s"] = sum(s.end - s.start for s, _ in
                                           pick(lambda n: n == "bounds." + fn))
    m["bounds.bound_report.calls"] = calls("bounds.bound_report")
    m["bounds.bound_report.self_s"] = self_of("bounds.bound_report")
    m["bounds.inapplicable"] = info_sum("bounds.bound_report", "inapplicable")
    m["cov.explicit_cov.calls"] = calls("cov.explicit_cov")
    m["cov.explicit_cov.self_s"] = self_of("cov.explicit_cov")
    m["cov.explicit_cov.repeat_frac"] = _repeat_frac(keys("cov.explicit_cov"))
    m["cov.sqrt_factor.calls"] = calls("cov.sqrt_factor")
    m["cov.sqrt_factor.self_s"] = self_of("cov.sqrt_factor")
    for f in ("residual_cov", "check_conditions", "min_eigenvalue", "rho_bar"):
        m[f"cov.{f}.self_s"] = self_of("cov." + f)
    m["sampling.sample.self_s"] = self_of("sampling.sample")
    m["sampling.sample.gflop"] = info_sum("sampling.sample", "gflop")
    m["sampling.sample.gflops"] = rate(m["sampling.sample.gflop"], m["sampling.sample.self_s"])
    m["sampling.sample.batch_mb"] = info_sum("sampling.sample", "batch_mb")
    m["sampling.max_diff.self_s"] = self_of("sampling.max_diff")
    m["sampling.max_diff.read_mb"] = info_sum("sampling.max_diff", "read_mb")
    mr = "bootstrap.multiplier_replicates"
    m["bootstrap.load_csv.self_s"] = self_of("bootstrap.load_csv")
    m["bootstrap.argmax_prob.self_s"] = self_of("bootstrap.argmax_prob")
    m[mr + ".self_s"] = self_of(mr)
    m[mr + ".gflop"] = info_sum(mr, "gflop")
    m[mr + ".gflops"] = rate(m[mr + ".gflop"], m[mr + ".self_s"])
    m[mr + ".replicates_mb"] = info_sum(mr, "replicates_mb")
    m["designs.gen_design.self_s"] = self_of("designs.gen_design")
    m["experiments.write_csv.self_s"] = self_of("experiments.write_csv")
    # The run_* drivers and the helpers they own (levy_sweep, compare_row).
    m["experiments.driver.self_s"] = sum(
        t for _, t in pick(lambda n: n.startswith("experiments.")
                           and n != "experiments.write_csv"))
    # main plus the cmd_* handler it dispatches to.
    m["cli.main.self_s"] = sum(t for _, t in pick(lambda n: n.startswith("cli.")))
    m["cli.main.cpu_s"] = cpu_s
    return m
