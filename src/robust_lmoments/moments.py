"""Sample and population trimmed/winsorized moments.

The sample side works on order statistics with floor-based trimming
counts; the population side integrates the composite H over the retained
probability window, with edge atoms in the winsorized case.
"""

from __future__ import annotations

import enum
import functools
import io
import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DivergenceError, DomainError, EmptyWindowError, SampleFormatError
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

    @functools.cached_property
    def edge_atoms(self) -> tuple[tuple[float, float], ...]:
        """Winsorizing's atoms (u, mass), mass a at a and b at 1-b, but no
        zero mass: its end, which may be unbounded, is never evaluated.
        Built on the first read and kept, as the spec is immutable."""
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


def _window_moment(h: np.ndarray, lo: int, hi: int, n: int, mode: Mode):
    """The MTM or MWM moment given ``h``, the transformed order statistics
    lo .. hi-1 (zero-based) of an ascending sample of size n, along its
    last axis: a float for one sample, an array of one moment per row for a
    block of them.  Each row is summed on its own, so that its moment is
    bitwise that of the row alone.  Refused when a moment is not finite, as
    where the transform is infinite on the window; an edge of no mass at an
    infinite h (0 * inf) gives NaN without a warning.  A sum that overflows
    is refused the same way; callers take their moments inside one
    ``_moment_errstate``, so that the refusal alone reports it."""
    total = h.sum(axis=-1)
    if mode is Mode.MTM:
        moment = total / (hi - lo)  # == h.mean(-1), without its overhead
    else:
        with np.errstate(invalid="ignore"):
            moment = (lo * h[..., 0] + total + (n - hi) * h[..., -1]) / n
    if not np.isfinite(moment).all():
        raise DomainError(
            f"moment over order statistics {lo + 1} .. {hi} of n={n} is not "
            "finite: the transform is infinite or too large there"
        )
    return float(moment) if h.ndim == 1 else moment


def _moment_errstate():
    """The numpy error state to call ``_window_moment`` in, entered once
    around all of a caller's moments: numpy's overflow warning off, so that
    a sum that overflows is reported by the moment's refusal alone."""
    return np.errstate(over="ignore")


def sorted_sample_moment(xs: np.ndarray, spec: MomentSpec) -> float:
    """The spec's MTM or MWM moment of an ascending, finite sample; the
    caller validates and sorts."""
    n = xs.size
    lo, hi = _window(n, spec)
    with _moment_errstate():
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


def _close_window(spec: MomentSpec, model: DistributionModel, total, at):
    """``total``, a window integral or a row of them, over the retained mass
    if trimmed, else plus each edge atom's mass times its row of ``at``, the
    integrand on an array of points, refused unless that sum is finite."""
    if spec.mode is Mode.MTM:
        return total / spec.retained
    if spec.edge_atoms:
        t, mass = np.array(spec.edge_atoms).T
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            total = total + mass @ at(t)
        if not np.isfinite(total).all():
            raise DivergenceError(
                f"winsorized moment of {spec.transform} on [{spec.a}, "
                f"{spec.b_bar}] is not finite at {model}"
            )
    return total


def population_moment(model: DistributionModel, spec: MomentSpec) -> float:
    """H's window integral closed by ``_close_window``."""
    ch = _composite(model, spec)
    return float(_close_window(spec, model, integrate(ch.value, spec.a, spec.b_bar), ch.value))


def load_sample(path: str | Path) -> np.ndarray:
    """Read a single-column CSV or whitespace-delimited text file.

    Blank lines and '#' comment lines are skipped; the first CSV field,
    or else the first whitespace field, of every other line is the value.
    Anything that fails to parse as one finite number per row is rejected
    with its line number.

    The file is read once.  A plain file (one number per line, nothing
    but ASCII digits, '.', 'e'/'E', '+'/'-' and '\\n', no empty line) is
    parsed in numpy passes.  When every line is a plain decimal,
    ``[+-]digits[.digits]`` or ``[+-][digits].digits`` with 1 to 27 digits
    that fit an int64 (any 18 significant digits do) and no exponent, its
    values come from integer mantissas and are bitwise those of
    ``float()``; any other plain file takes numpy's float parse.  Every
    other file, and any plain file those passes do not read as one finite
    value per line, goes through the line scan, which alone reports
    format errors.
    """
    path = Path(path)
    data = path.read_bytes()
    values = _parse_plain(data)
    if values is None:
        values = _scan_lines(path, data)
    return values


_PLAIN_BYTES = b"0123456789.eE+-\n"

# The decimal path divides a line's digits, read as one integer m, by 10**k,
# k the digits after its dot.  10**k is an exact double for k <= 22 and an
# exact long double for k <= 27 when the long double has a 64-bit (x87
# extended) or 113-bit (IEEE quad) significand, where every int64 is exact
# too.
_MAX_DIGITS = 27
_EXACT_POW10 = 22
_POW10 = np.array([float(10**k) for k in range(_MAX_DIGITS + 1)])
_POW10_LONG = np.cumprod(np.array([1] + [10] * _MAX_DIGITS, dtype=np.longdouble))
_EXTENDED = np.finfo(np.longdouble).nmant in (63, 112)
_INT64 = np.iinfo(np.int64)
# The bytes of a file the decimal path reads at once.  Its temporaries are a
# few times a block, and a block of about 13,000 lines reads faster than
# one pass over a whole 100,000-line file.
_BLOCK = 1 << 18


def _parse_plain(data: bytes) -> np.ndarray | None:
    """The values of a plain file, or None when it is not plain or does
    not parse as exactly one finite number per line.  A file of plain
    decimals takes ``_parse_decimal``; any other plain file, and one
    that path declines, is read by numpy's float parser."""
    if not data or data.translate(None, _PLAIN_BYTES):
        return None
    values = _parse_decimal(data)
    if values is not None:
        return values
    # Empty lines are refused up front: numpy reads a buffer of nothing
    # but newlines as [-1.0], which the count check alone would accept.
    if data.startswith(b"\n") or b"\n\n" in data:
        return None
    lines = data.count(b"\n") + (not data.endswith(b"\n"))
    values = _fromstring(data, float)
    if values is None or values.size != lines or not np.isfinite(values).all():
        return None
    return values


def _fromstring(data: bytes, dtype) -> np.ndarray | None:
    """numpy's parse of newline-separated numbers, or None where it stops
    early: older numpy reports a partial read as a DeprecationWarning,
    newer as a ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromstring(data, dtype=dtype, sep="\n")
        except (ValueError, DeprecationWarning):
            return None


def _parse_decimal(data: bytes) -> np.ndarray | None:
    """The values of a file of plain decimals, bitwise those of ``float()``
    on each line, or None for any other file of the plain characters.  The
    file is read in blocks of whole lines, each the first line end past
    ``_BLOCK`` bytes, so that the temporaries of ``_decimal_block`` stay a
    few times one block's size however long the file is."""
    if b"e" in data or b"E" in data:
        return None
    blocks = []
    start = 0
    while start < len(data):
        stop = data.find(b"\n", start + _BLOCK) + 1 or len(data)
        block = _decimal_block(data[start:stop])
        if block is None:
            return None
        blocks.append(block)
        start = stop
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _decimal_block(data: bytes) -> np.ndarray | None:
    """The values of whole lines of plain decimals without an exponent,
    bitwise those of ``float()`` on each line, or None for any other lines.

    Every line must be ``[+-]digits[.digits]`` or ``[+-][digits].digits``
    with 1 to 27 digits, and its digits without the dot, m, must fit an
    int64 (at most 18 significant digits always do).  The value is
    m / 10**k, k the digits after the dot: one correctly rounded double
    division where |m| <= 2**53 and k <= 22 (Clinger's fast path), else a
    correctly rounded long-double quotient q rounded to a double.  That
    second rounding can differ from float()'s only where q lies exactly
    halfway between two doubles; those rows are read by float().  Without
    a long double of 64 or 113 significant bits, a file that needs the
    second form is declined.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if not data.endswith(b"\n"):
        ends = np.append(ends, buf.size)
    first = np.concatenate((buf[:1], buf[ends[:-1] + 1]))
    signed = (first == ord("-")) | (first == ord("+"))
    dots = np.flatnonzero(buf == ord("."))
    dotted = np.searchsorted(ends, dots)
    if np.any(dotted[1:] == dotted[:-1]):
        return None  # two dots in one line
    digits = np.diff(ends, prepend=-1) - 1 - signed
    digits[dotted] -= 1
    if digits.min() < 1 or digits.max() > _MAX_DIGITS:
        return None
    scale = np.zeros(ends.size, dtype=np.int8)
    scale[dotted] = ends[dotted] - dots - 1
    # A sign after a line's start makes numpy read one more number or stop
    # early, so the count check refuses it.
    mantissas = _fromstring(data.replace(b".", b""), np.int64)
    # numpy saturates an integer too long for an int64 (at its maximum;
    # C's strtoll takes the minimum for a negative one).
    if (
        mantissas is None
        or mantissas.size != ends.size
        or np.any((mantissas == _INT64.max) | (mantissas == _INT64.min))
    ):
        return None
    values = mantissas / _POW10[scale]
    wide = np.flatnonzero((scale > _EXACT_POW10) | (np.abs(mantissas) > 2**53))
    if wide.size:
        if not _EXTENDED:
            return None
        q = mantissas[wide].astype(np.longdouble) / _POW10_LONG[scale[wide]]
        d = q.astype(float)
        # q is a tie when it lies halfway between d and the next double n on
        # its side, that is when d + 2 (q - d) is n.  q - d is exact, and so
        # is a tie's off; d + 2 off is then exact, and otherwise rounds to d
        # or n, so that (d + 2 off) - d is not 2 off.
        off = (q - d).astype(float)
        for i in np.flatnonzero((off != 0) & ((d + 2 * off) - d == 2 * off)):
            row = wide[i]
            d[i] = float(data[ends[row - 1] + 1 if row else 0 : ends[row]])
        values[wide] = d
    zeros = np.flatnonzero(mantissas == 0)
    values[zeros[first[zeros] == ord("-")]] = -0.0
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
