"""Shared helpers for the test suite.

Hypothesis prints the reproduction blob of every falsifying example; the
example counts and the randomness stay at each test's settings.
"""

import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
from hypothesis import settings

import maxgap

settings.register_profile("blob", print_blob=True)
settings.load_profile("blob")

GRAIN = 2.0 ** -20


def phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def dyadic(values, grain: float = GRAIN) -> np.ndarray:
    """Snap values to a power-of-two lattice so later shifts stay exact."""
    return np.round(np.asarray(values, dtype=float) / grain) * grain


def footnote_factor() -> np.ndarray:
    """Rank-2 factor with unit variances whose B block is A rotated by 45 deg."""
    s = 1.0 / math.sqrt(2.0)
    return np.array([[1.0, 0.0], [0.0, 1.0], [s, -s], [s, s]])


def random_psd(rng: np.random.Generator, p: int, rank: int | None = None) -> np.ndarray:
    g = rng.standard_normal((p, rank or p))
    sig = g @ g.T
    sig += np.eye(p) * 1e-6
    return (sig + sig.T) * 0.5


def spy_calls(monkeypatch, module, names) -> list:
    """Wrap ``module.<name>`` for each name.

    Each call appends (name, shape of its first argument) to the returned list.
    """
    calls = []
    for name in names:
        real = getattr(module, name)

        def wrapper(*args, _real=real, _name=name, **kwargs):
            calls.append((_name, np.shape(args[0])))
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    return calls


def run_python(script: str, **env) -> str:
    """stdout of script run by a fresh interpreter on this maxgap, with env added.

    A fresh process is what a BLAS thread count (``OPENBLAS_NUM_THREADS``)
    takes effect in.
    """
    src = str(pathlib.Path(maxgap.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout
