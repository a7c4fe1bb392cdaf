"""Multiplier bootstrap for argmax block membership of an empirical maximum.

Given data rows xi_1..xi_n and a deterministic shift a, the observed process
is Y = n^(-1/2) sum_i (xi_i + a) (population mean taken as zero).  Bootstrap
replicates re-randomize the centered rows with iid multiplier weights:

    Xhat = n^(-1/2) sum_i [w_i (xi_i - xibar) + a]

with w either standard normal or a standardized Beta(1/2, 3/2) variable.
The probability that the argmax of Y falls inside block A is approximated by
the fraction of replicates with max over A strictly above max over B.

Replicates come in the sampler's fixed ``CHUNK``-row chunks, chunk k with
weights from the counter-based stream keyed by (seed, k), mapped by
:func:`maxgap.sampling._map_chunks` under its chunk contract once
:func:`check_replicates` has passed.  :func:`multiplier_replicates` is the
batch API and keeps the whole B x p matrix; :func:`run_bootstrap`, which
the CLI uses, reduces each chunk to its per-replicate M_A - M_B as it is
drawn, so it holds O(CHUNK * p) memory, and its result equals
``argmax_prob(multiplier_replicates(...), part)`` bit for bit.  For both, a
run of whole chunks is a prefix of any longer run with the same seed; a
partial last chunk is one matmul of another height, which BLAS may sum in
another order, so it agrees only to rounding.  A :class:`BootstrapResult`
holds values only (the per-replicate M_A - M_B, the share above zero and
its quantiles); the run's B, multiplier and seed stay with the caller.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cov import Partition, _readonly, _vector, plain_count
from .errors import (BadConfig, DimensionMismatch, ParseError,
                     SmallSampleWarning)
from .sampling import _map_chunks, check_seed

# Beta(1/2, 3/2) weight moments: mean a/(a+b), variance ab/((a+b)^2 (a+b+1)).
BETA_MEAN = 0.25
BETA_VAR = 1.0 / 16.0
MULTIPLIERS = ("gaussian", "beta")
DEFAULT_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class DataMatrix:
    """n x p observation rows plus the deterministic shift vector.

    The rows follow :class:`maxgap.cov.CovSpec`'s ownership rule: a
    read-only float64 array that owns its data is held as given
    (:func:`load_csv` hands its fresh array over so), anything else is
    copied; the shift follows the same rule.
    """

    xi: np.ndarray
    a: np.ndarray | None = None

    def __post_init__(self):
        xi = _readonly(self.xi, "data")
        if xi.ndim != 2 or xi.shape[0] < 2 or xi.shape[1] < 1:
            raise BadConfig(f"data must be n x p with n >= 2, got shape {xi.shape}")
        if not np.all(np.isfinite(xi)):
            raise BadConfig("data has non-finite entries")
        a = _vector(np.zeros(xi.shape[1]) if self.a is None else self.a, "shift")
        if a.shape != (xi.shape[1],):
            raise DimensionMismatch(f"shift has length {a.shape[0]}, expected {xi.shape[1]}")
        if not np.all(np.isfinite(a)):
            raise BadConfig("shift has non-finite entries")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return int(self.xi.shape[0])

    @property
    def p(self) -> int:
        return int(self.xi.shape[1])


@dataclass(frozen=True)
class BootstrapResult:
    """Per-replicate M_A - M_B, the share strictly above zero, and its quantiles."""

    diffs: np.ndarray
    prob_argmax_in_a: float
    quantiles: dict


def check_replicates(b_reps: int, seed: int, multiplier: str) -> None:
    """Check a bootstrap run's replicate count, seed and multiplier."""
    plain_count("b_reps", b_reps)
    if multiplier not in MULTIPLIERS:
        raise BadConfig(f"multiplier must be one of {MULTIPLIERS}, got {multiplier!r}")
    check_seed(seed)


def _replicates(data: DataMatrix, b_reps: int, seed: int, multiplier: str):
    """rows(rng, lo, hi): replicates lo..hi, with weights drawn from rng; checks at once."""
    check_replicates(b_reps, seed, multiplier)
    centered = data.xi - data.xi.mean(axis=0)
    shift = math.sqrt(data.n) * data.a
    inv_sqrt_n = 1.0 / math.sqrt(data.n)

    def rows(rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
        if multiplier == "gaussian":
            w = rng.standard_normal((hi - lo, data.n))
        else:
            w = (rng.beta(0.5, 1.5, size=(hi - lo, data.n)) - BETA_MEAN) / math.sqrt(BETA_VAR)
        x = w @ centered
        x *= inv_sqrt_n
        x += shift
        return x

    return rows


def multiplier_replicates(data: DataMatrix, b_reps: int, seed: int,
                          multiplier: str = "gaussian") -> np.ndarray:
    """B x p matrix of bootstrap replicates, deterministic per seed.

    The batch API; :func:`run_bootstrap` reduces the same chunks without
    keeping them.
    """
    rows = _replicates(data, b_reps, seed, multiplier)
    out = np.concatenate(_map_chunks(lambda: rows, seed, b_reps))
    out.flags.writeable = False
    return out


def _summarize(diffs: np.ndarray) -> BootstrapResult:
    """Share of M_A - M_B strictly above zero, and its ``DEFAULT_QUANTILES``."""
    diffs.flags.writeable = False
    prob = float(np.count_nonzero(diffs > 0.0)) / diffs.shape[0]
    qs = {float(q): float(np.quantile(diffs, q)) for q in DEFAULT_QUANTILES}
    return BootstrapResult(diffs=diffs, prob_argmax_in_a=prob, quantiles=qs)


def argmax_prob(replicates: np.ndarray, part: Partition) -> BootstrapResult:
    """Fraction of replicates whose block-A maximum strictly beats block B.

    Ties at exactly zero count as not greater.
    """
    replicates = np.asarray(replicates, dtype=float)
    if replicates.ndim != 2:
        raise DimensionMismatch(f"replicates must be B x p, got shape {replicates.shape}")
    part.check_dim(replicates.shape[1])
    a_sel, b_sel = part.blocks
    diffs = replicates[:, a_sel].max(axis=1) - replicates[:, b_sel].max(axis=1)
    return _summarize(diffs)


def run_bootstrap(data: DataMatrix, part: Partition, b_reps: int, seed: int,
                  multiplier: str = "gaussian") -> BootstrapResult:
    """Generate replicates and summarize them in one step, chunk by chunk.

    Equal, bit for bit, to ``argmax_prob(multiplier_replicates(...), part)``
    but holds one chunk of replicates at a time, never the B x p matrix.
    """
    part.check_dim(data.p)
    rows = _replicates(data, b_reps, seed, multiplier)
    a_sel, b_sel = part.blocks

    def diff(rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
        x = rows(rng, lo, hi)
        return x[:, a_sel].max(axis=1) - x[:, b_sel].max(axis=1)

    return _summarize(np.concatenate(_map_chunks(lambda: diff, seed, b_reps)))


def clt_rate(*, emax_s: float, c_ab: float, b_n: float, n: int, p: int) -> float:
    """Coupling rate emax_s / c_ab * (b_n^2 ln(pn)^3 / n)^(1/4), modulo constant.

    emax_s is the expected standardized maximum over the bound's block S,
    c_ab the separation margin of the target covariance, and b_n the
    envelope scale (at least 1).  Warns when b_n^2 ln(pn)^5 exceeds n: below
    that sample size the rate statement carries no information.
    """
    if not b_n >= 1.0:
        raise BadConfig(f"b_n must be at least 1, got {b_n}")
    if n < 1 or p < 1:
        raise BadConfig("n and p must be positive")
    if not c_ab > 0.0:
        raise BadConfig("c_ab must be positive")
    log_pn = math.log(p * n)
    if b_n ** 2 * log_pn ** 5 > n:
        warnings.warn(f"b_n^2 log^5(pn) = {b_n ** 2 * log_pn ** 5:.3g} exceeds n = {n}; "
                      "rate is vacuous at this sample size", SmallSampleWarning, stacklevel=2)
    return emax_s / c_ab * (b_n ** 2 * log_pn ** 3 / n) ** 0.25


def load_csv(path: str, shift=None) -> DataMatrix:
    """Read an n x p numeric UTF-8 CSV, header row and BOM optional, into a DataMatrix.

    One ``np.loadtxt`` call parses a plain numeric file.  A file it rejects
    (a header row, quoted cells, a bad or ragged row, no rows at all) or
    whose values are not all finite is read again by :func:`_parse_rows`,
    which accepts the header and quotes and names the row and column of a
    bad or non-finite cell.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt warns on a file with no rows
            xi = np.loadtxt(path, delimiter=",", ndmin=2, comments=None, encoding="utf-8-sig")
    except (ValueError, UserWarning):
        xi = None
    if xi is None or not np.all(np.isfinite(xi)):
        try:
            xi = _parse_rows(path)
        except UnicodeDecodeError as err:
            raise ParseError(f"{path} is not UTF-8 text: {err}") from None
    xi.flags.writeable = False  # fresh, so the DataMatrix holds it uncopied
    return DataMatrix(xi=xi, a=shift)


def _parse_rows(path: str) -> np.ndarray:
    """The finite rows of a CSV as floats, cell by cell, skipping blank lines and a header."""
    rows: list[list[float]] = []
    width: int | None = None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            parsed = []
            for colno, cell in enumerate(row, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    if lineno == 1 and not rows:
                        parsed = None  # header row
                        break
                    raise ParseError(f"could not parse {cell!r} as a number",
                                     row=lineno, col=colno) from None
            if parsed is None:
                continue
            for colno, value in enumerate(parsed, start=1):
                if not math.isfinite(value):
                    raise ParseError(f"non-finite value {row[colno - 1]!r}",
                                     row=lineno, col=colno)
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise ParseError(f"expected {width} columns, found {len(parsed)}", row=lineno)
            rows.append(parsed)
    if not rows:
        raise ParseError(f"no numeric rows in {path}")
    return np.asarray(rows, dtype=float)

