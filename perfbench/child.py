"""One maxgap CLI invocation in a fresh interpreter, with its costs.

Usage: child.py SPAWN_MONOTONIC RESULT_JSON TRACE(0|1) -- CLI ARGS...

SPAWN_MONOTONIC is the parent's ``time.monotonic()`` just before it started
this process; CLOCK_MONOTONIC is shared by all processes, so the set-up time
runs from that instant to the end of ``import maxgap``.  The CLI is called
in-process through ``maxgap.cli.main`` and its wall time, CPU time and the
process's peak RSS go to RESULT_JSON.  With TRACE=1 every layer call is
wrapped (see layertrace.py) and the spans and per-layer metrics are written
too.
"""

import json
import resource
import sys
import time


def main() -> int:
    spawn, out_path, trace = float(sys.argv[1]), sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    import maxgap  # noqa: F401  (set-up ends when the package is imported)
    setup_s = time.monotonic() - spawn
    result = {"setup_s": setup_s, **run_cli(argv, trace)}
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


def run_cli(argv: list, trace: bool) -> dict:
    import maxgap.cli

    tracer = None
    if trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    cpu0, t0 = time.process_time(), time.perf_counter()
    code = maxgap.cli.main(argv)
    wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
    result = {"exit_code": code, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        from layertrace import layer_metrics
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans, cpu_s)
        result["spans"] = [[s.name, s.start - t0, s.end - t0, s.parent]
                           for s in tracer.spans]
    return result


if __name__ == "__main__":
    sys.exit(main())
