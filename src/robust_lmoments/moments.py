"""Sample and population trimmed/winsorized moments.

The sample side works on order statistics with floor-based trimming
counts; the population side integrates the composite H over the retained
probability window, with edge atoms in the winsorized case.
"""

from __future__ import annotations

import enum
import io
import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError, EmptyWindowError, SampleFormatError
from .models import CompositeH, DistributionModel, HTransform
from .quadrature import integrate

__all__ = [
    "Mode",
    "MomentSpec",
    "floor_count",
    "sorted_sample_moment",
    "sample_moment",
    "population_moment",
    "load_sample",
]

# Slack absorbing float artifacts like 10 * 0.1 != 1 in n*a.
_FLOOR_SLACK = 1e-12


class Mode(str, enum.Enum):
    MTM = "mtm"
    MWM = "mwm"


@dataclass(frozen=True)
class MomentSpec:
    """One coordinate of the estimator: transform + trimming proportions."""

    transform: HTransform
    a: float = 0.0
    b: float = 0.0
    mode: Mode = Mode.MTM

    def __post_init__(self):
        if not isinstance(self.transform, HTransform):
            raise DomainError(f"transform must be an HTransform, got {self.transform!r}")
        try:
            object.__setattr__(self, "mode", Mode(self.mode))
        except ValueError:
            raise DomainError(
                f"mode must be one of {[m.value for m in Mode]}, got {self.mode!r}"
            ) from None
        proportions = (self.a, self.b)
        if not all(isinstance(p, numbers.Real) and not math.isnan(p) for p in proportions):
            raise DomainError(
                f"proportions must be numbers, got a={self.a!r}, b={self.b!r}"
            )
        if self.a < 0 or self.b < 0:
            raise DomainError(f"proportions must be >= 0, got a={self.a}, b={self.b}")
        if self.a + self.b >= 1:
            raise DomainError(f"a+b must be < 1, got a={self.a}, b={self.b}")

    @property
    def b_bar(self) -> float:
        return 1.0 - self.b

    @property
    def retained(self) -> float:
        return 1.0 - self.a - self.b

    @property
    def edge_atoms(self) -> tuple[tuple[float, float], ...]:
        """Winsorizing's atoms (u, mass), mass a at a and b at 1-b, but no
        zero mass: its end, which may be unbounded, is never evaluated."""
        return tuple((u, w) for u, w in ((self.a, self.a), (self.b_bar, self.b)) if w > 0)


def floor_count(n: int, proportion: float) -> int:
    """Largest integer m with m <= n * proportion, stable against float
    representation of the product."""
    return int(math.floor(n * proportion + _FLOOR_SLACK))


def _window(n: int, spec: MomentSpec) -> tuple[int, int]:
    """Zero-based half-open slice [lo, hi) of retained order statistics."""
    lo = floor_count(n, spec.a)
    hi = n - floor_count(n, spec.b)
    if hi - lo < 1:
        raise EmptyWindowError(
            f"trimming (a={spec.a}, b={spec.b}) leaves no observations of n={n}"
        )
    return lo, hi


def _check_one_mode(specs: Sequence[MomentSpec]) -> None:
    """A moment vector has at least one coordinate, all in one mode."""
    if not specs:
        raise DomainError("at least one moment spec required")
    if any(s.mode is not specs[0].mode for s in specs):
        raise DomainError("all specs must share one mode")


def _window_moment(h: np.ndarray, lo: int, hi: int, n: int, mode: Mode) -> float:
    """The MTM or MWM moment given ``h``, the transformed order statistics
    lo .. hi-1 (zero-based) of an ascending sample of size n."""
    if mode is Mode.MTM:
        return float(h.sum() / (hi - lo))  # == h.mean(), without its overhead
    return float((lo * h[0] + h.sum() + (n - hi) * h[-1]) / n)


def sorted_sample_moment(xs: np.ndarray, spec: MomentSpec) -> float:
    """The spec's MTM or MWM moment of an ascending, finite sample; the
    caller validates and sorts."""
    n = xs.size
    lo, hi = _window(n, spec)
    return _window_moment(spec.transform.values(xs[lo:hi]), lo, hi, n, spec.mode)


def _ascending(values: Sequence[float]) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise DomainError(f"sample must be one-dimensional, got shape {x.shape}")
    if x.size < 1:
        raise EmptyWindowError("empty sample")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise DomainError(f"non-finite sample values at indices {bad.tolist()}")
    return np.sort(x)


def sample_moment(values: Sequence[float], spec: MomentSpec) -> float:
    return sorted_sample_moment(_ascending(values), spec)


def _composite(model: DistributionModel, spec: MomentSpec) -> CompositeH:
    """H = h(F^-1(u)) of the spec's transform under ``model``, which must
    be a ``DistributionModel``."""
    if not isinstance(model, DistributionModel):
        raise DomainError(
            f"model must be a DistributionModel, got {type(model).__name__}"
        )
    return CompositeH(model, spec.transform)


def population_moment(model: DistributionModel, spec: MomentSpec) -> float:
    """H's window integral, over the retained mass if trimmed, else plus the edge atoms."""
    ch = _composite(model, spec)
    total = integrate(ch.value, spec.a, spec.b_bar)
    if spec.mode is Mode.MTM:
        return total / spec.retained
    for u, mass in spec.edge_atoms:
        total += mass * ch.value(u)
    return total


def load_sample(path: str | Path) -> np.ndarray:
    """Read a single-column CSV or whitespace-delimited text file.

    Blank lines and '#' comment lines are skipped; the first CSV field,
    or else the first whitespace field, of every other line is the value.
    Anything that fails to parse as one finite number per row is rejected
    with its line number.

    The file is read once.  A plain file (one number per line, nothing
    but ASCII digits, '.', 'e'/'E', '+'/'-' and '\\n', no empty line) is
    parsed in one numpy pass; every other file, and any plain file that
    pass does not read as one finite value per line, goes through the
    line scan, which alone reports format errors.
    """
    path = Path(path)
    data = path.read_bytes()
    values = _parse_plain(data)
    if values is None:
        values = _scan_lines(path, data)
    return values


_PLAIN_BYTES = b"0123456789.eE+-\n"


def _parse_plain(data: bytes) -> np.ndarray | None:
    """The values of a plain file, or None when it is not plain or does
    not parse as exactly one finite number per line."""
    # Empty lines are refused up front: numpy reads a buffer of nothing
    # but newlines as [-1.0], which the count check alone would accept.
    if (
        not data
        or data.translate(None, _PLAIN_BYTES)
        or data.startswith(b"\n")
        or b"\n\n" in data
    ):
        return None
    lines = data.count(b"\n") + (not data.endswith(b"\n"))
    # Older numpy reports a partial read as a DeprecationWarning, newer as
    # a ValueError; either way the line scan takes over.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(data, dtype=float, sep="\n")
        except (ValueError, DeprecationWarning):
            return None
    if values.size != lines or not np.isfinite(values).all():
        return None
    return values


def _scan_lines(path: Path, data: bytes) -> np.ndarray:
    """The reference parser of ``load_sample``: one line at a time, with
    the universal newline handling of ``open(path)``; the text is UTF-8,
    after an optional byte-order mark."""
    values: list[float] = []
    bad: list[int] = []
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            token = line.split(",")[0].strip() if "," in line else line.split()[0]
            try:
                value = float(token)
            except ValueError:
                value = math.nan
            if math.isfinite(value):
                values.append(value)
            else:
                bad.append(lineno)
    if bad:
        raise SampleFormatError(
            f"{path}: non-numeric or non-finite rows at lines {bad}"
        )
    return np.asarray(values, dtype=float)
