"""Smoke test of the benchmark itself.

Run from the root of the checkout:  python3 -m pytest -q perfbench/test_smoke.py
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layertrace  # noqa: E402
import run  # noqa: E402
from layertrace import Span  # noqa: E402


def test_self_times_on_synthetic_tree():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9];
    # b carries 0.5 s of tracer bookkeeping.
    spans = [Span("root", None, 0.0, 10.0), Span("a", 0, 1.0, 4.0), Span("c", 1, 2.0, 3.0),
             Span("b", 0, 5.0, 9.0, overhead=0.5)]
    assert layertrace.self_times(spans) == [3.0, 2.0, 1.0, 3.5]


def test_self_times_clip_overlapping_children():
    # Children overlapping each other or the parent's end count once.
    spans = [Span("root", None, 0.0, 4.0), Span("x", 0, 1.0, 3.0), Span("y", 0, 2.0, 5.0)]
    assert layertrace.self_times(spans)[0] == 1.0


def test_per_layer_names_are_unique():
    names = [n for n, _ in layertrace.PER_LAYER]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_tiny(workload, trace, monkeypatch):
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    result = run.run(workload, seed=3, seconds=0, trace=trace, tiny=True)
    assert result["correct"], result
    assert result["failed"] == 0
    expected = layertrace.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [n for n, _ in expected]
    if trace:
        calls = result["metrics"]["levy.expected_max_many.calls"]["value"]
        assert (calls == 0) == (workload == "levy_highrep")
