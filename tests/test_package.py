"""The package's export list names what the package really provides, and what it imports."""

import maxgap
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
