"""Distribution families and h-transforms.

Everything downstream works with the composite function H(u) = h(F^-1(u))
on the unit interval and its derivative H'(u) = h'(F^-1(u)) * q(u), where
q(u) = d/du F^-1(u) is the quantile density.  Quantile densities are coded
analytically per family; finite differences are reserved for the tests.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .errors import DomainError, SingularityError, UnboundedQuantileError

__all__ = [
    "DistributionModel",
    "Uniform",
    "Exponential",
    "Pareto",
    "Lognormal",
    "Normal",
    "ModelTemplate",
    "HTransform",
    "Identity",
    "Power",
    "Log",
    "Shifted",
    "CompositeH",
    "parse_model",
    "parse_model_template",
    "parse_transform",
    "register_transform",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _least(x) -> float:
    """The least of a float or of an array of floats; NaN if it is empty."""
    return x if isinstance(x, float) else (float(x.min()) if x.size else math.nan)


def _check_unit(u, refused=None):
    """``u`` as a float, or as an array of floats if it is not one, once
    it lies in [0, 1], else a DomainError; then the error
    ``refused[end](end)`` for the first end (0 or 1) of the mapping
    ``refused`` that u reaches.  An array is checked through its least and
    greatest entries only, which lie strictly inside (0, 1) for quadrature
    nodes (a NaN propagates into both)."""
    if isinstance(u, float):
        if 0.0 < u < 1.0:
            return u
        ends = (u,)
    else:
        u = np.asarray(u, dtype=float)
        if not u.size:
            return u
        ends = (float(u.min()), float(u.max()))
        if 0.0 < ends[0] and ends[1] < 1.0:
            return u
    for x in ends:
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"probability must lie in [0, 1], got {x}")
    for end, error in (refused or {}).items():
        if end in ends:
            raise error(end)
    return u


class _FloatFunctions:
    """The elementary functions of the quantile and transform expressions
    for a float: ``math``'s, which return Python floats.  Each expression
    picks this set or ``_ArrayFunctions`` by ``isinstance(x, float)``."""

    log1p, exp = math.log1p, math.exp
    log = staticmethod(lambda x: math.log(x) if x else -math.inf)  # -inf at 0, as numpy's
    ndtri = staticmethod(lambda u: float(ndtri(u)))


class _ArrayFunctions:
    """The same functions for an array: numpy's, elementwise."""

    log1p, exp, ndtri = np.log1p, np.exp, ndtri
    log = staticmethod(np.errstate(divide="ignore")(np.log))  # log(0) = -inf, silently


def _check_finite(obj) -> None:
    """Refuse a NaN or infinite numeric field of a family or transform."""
    for f in fields(obj):
        if isinstance(v := getattr(obj, f.name), numbers.Real) and not math.isfinite(v):
            raise DomainError(f"{type(obj).__name__.lower()} {f.name} must be finite, got {v}")


_DIFFERENCE_STEP = 1e-6


def central_difference(f, template: "ModelTemplate", theta) -> np.ndarray:
    """d f(theta) / d theta_j for each free parameter j of ``template``,
    stacked on a new first axis: a central difference, one-sided where a
    step leaves the template's domain.  The step is 1e-6 |theta_j|, but
    1e-6 times the model's largest |parameter| (1e-6 if all are 0) where
    theta_j's bounds hold 0: a location may sit at or near 0 at any scale."""
    theta = np.asarray(theta, dtype=float)
    size = max(abs(p) for p in template.bind(theta).params) or 1.0
    columns = []
    for j, (lo, hi) in enumerate(template.free_bounds()):
        step = _DIFFERENCE_STEP * (size if lo < 0.0 < hi else abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += step
        dn[j] -= step
        up = up if template.admits(up) else theta
        dn = dn if template.admits(dn) else theta
        if np.array_equal(up, dn):
            raise DomainError(f"cannot difference parameter {j} inside its domain")
        columns.append((np.asarray(f(up)) - np.asarray(f(dn))) / (up[j] - dn[j]))
    return np.stack(columns)


class DistributionModel:
    """Base class for parametric families.

    Subclasses are immutable dataclasses exposing the quantile function
    as ``quantiles`` and its derivative as ``quantile_densities``, both
    elementwise.  ``quantiles`` takes a float or an array and answers in
    kind, with one expression whose functions come from ``math`` for a
    float and from numpy for an array (``_FloatFunctions`` or
    ``_ArrayFunctions``).  Their fields are the parameters, refused unless
    finite: ``params`` is the field values in declaration order and the
    field defaults are the family's default member.  ``param_bounds``
    gives open-domain limits per parameter used by the fitting line search.
    """

    family: str = "abstract"
    param_bounds: tuple[tuple[float, float], ...]
    __post_init__ = _check_finite

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The ends of [0, 1] at which the quantile is infinite, each with
        # the error that refuses it there.
        cls._infinite_ends = {
            end: lambda end: UnboundedQuantileError(
                f"{cls.family}: quantile at {end:g} is {'+' if end else '-'}infinity"
            )
            for end, bounded in ((0.0, cls.bounded_below), (1.0, cls.bounded_above))
            if not bounded
        }

    @property
    def params(self) -> tuple[float, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def moment_start(cls, x: np.ndarray) -> tuple[float, ...]:
        """Method-of-moments starting point for fitting the family to the
        sample ``x``; all ones for a family that defines none."""
        return (1.0,) * len(cls.param_bounds)

    def quantiles(self, u: float | np.ndarray) -> float | np.ndarray:
        """The quantile F^-1(u) of a float, or elementwise of an array,
        refused at an end of [0, 1] where it is infinite."""
        raise NotImplementedError

    def quantile_densities(self, u: np.ndarray) -> np.ndarray:
        """The quantile density q(u) = d quantiles(u) / du, elementwise."""
        raise NotImplementedError

    def quantile_grads(self, u: np.ndarray) -> np.ndarray:
        """d quantiles(u) / d params[j] for every parameter j, stacked
        into shape (len(params),) + u.shape.  Families without closed
        forms fall back to a central difference of ``quantiles`` in each
        parameter, one-sided where a step leaves the family's domain."""
        u = np.asarray(u, dtype=float)
        template = ModelTemplate.all_free(self)
        return central_difference(lambda p: template.bind(p).quantiles(u), template, self.params)

    # (lower bounded, upper bounded) support flags
    bounded_below: bool = False
    bounded_above: bool = False

    @classmethod
    def bounded_on(cls, a: float, b: float) -> bool:
        """The window [a, 1-b] leaves out every unbounded tail: a zero
        proportion only on a side where the quantile is finite."""
        return (a > 0.0 or cls.bounded_below) and (b > 0.0 or cls.bounded_above)

    def _singular(self, *ends: float) -> dict:
        """The refusal, for ``_check_unit``, of the ends at which the
        quantile density diverges."""
        return dict.fromkeys(
            ends,
            lambda end: SingularityError(f"{self.family} quantile density diverges at u={end:g}"),
        )

    def __str__(self) -> str:
        inner = ",".join(f"{p:g}" for p in self.params)
        return f"{self.family}({inner})"


@dataclass(frozen=True)
class Uniform(DistributionModel):
    lo: float = 0.0
    hi: float = 1.0

    family = "uniform"
    param_bounds = ((-math.inf, math.inf), (-math.inf, math.inf))
    bounded_below = True
    bounded_above = True

    def __post_init__(self):
        super().__post_init__()
        if not self.hi > self.lo:
            raise DomainError(f"uniform requires hi > lo, got ({self.lo}, {self.hi})")

    @classmethod
    def moment_start(cls, x: np.ndarray) -> tuple[float, ...]:
        span = x.max() - x.min()
        return (x.min() - 0.05 * span, x.max() + 0.05 * span)

    def quantiles(self, u):
        u = _check_unit(u, self._infinite_ends)
        return self.lo + (self.hi - self.lo) * u

    def quantile_grads(self, u: np.ndarray) -> np.ndarray:
        u = _check_unit(np.asarray(u, dtype=float), self._infinite_ends)
        return np.stack([1.0 - u, u])

    def quantile_densities(self, u: np.ndarray) -> np.ndarray:
        return np.full_like(_check_unit(np.asarray(u, dtype=float)), self.hi - self.lo)


@dataclass(frozen=True)
class Exponential(DistributionModel):
    scale: float = 1.0

    family = "exponential"
    param_bounds = ((0.0, math.inf),)
    bounded_below = True

    def __post_init__(self):
        super().__post_init__()
        if not self.scale > 0:
            raise DomainError(f"exponential scale must be > 0, got {self.scale}")

    @classmethod
    def moment_start(cls, x: np.ndarray) -> tuple[float, ...]:
        return (max(float(np.mean(x)), 1e-8),)

    def quantiles(self, u):
        u = _check_unit(u, self._infinite_ends)
        fn = _FloatFunctions if isinstance(u, float) else _ArrayFunctions
        return -self.scale * fn.log1p(-u)

    def quantile_grads(self, u: np.ndarray) -> np.ndarray:
        return (self.quantiles(np.asarray(u, dtype=float)) / self.scale)[None]

    def quantile_densities(self, u: np.ndarray) -> np.ndarray:
        u = _check_unit(np.asarray(u, dtype=float), self._singular(1.0))
        return self.scale / (1.0 - u)


@dataclass(frozen=True)
class Pareto(DistributionModel):
    """Classical Pareto: F(x) = 1 - (xm / x)^shape for x >= xm."""

    shape: float = 2.0
    xm: float = 1.0

    family = "pareto"
    param_bounds = ((0.0, math.inf), (0.0, math.inf))
    bounded_below = True

    def __post_init__(self):
        super().__post_init__()
        if not self.shape > 0 or not self.xm > 0:
            raise DomainError(
                f"pareto requires shape > 0 and xm > 0, got ({self.shape}, {self.xm})"
            )

    @classmethod
    def moment_start(cls, x: np.ndarray) -> tuple[float, ...]:
        positive = x[x > 0]
        if not positive.size:
            return cls().params
        xm = float(positive.min()) * 0.95
        excess = float(np.mean(np.log(positive))) - math.log(xm)
        return (1.0 / excess if excess > 1e-9 else 2.0, xm)

    def quantiles(self, u):
        u = _check_unit(u, self._infinite_ends)
        return self.xm * (1.0 - u) ** (-1.0 / self.shape)

    def quantile_grads(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        q = self.quantiles(u)
        return np.stack([q * np.log1p(-u) / self.shape ** 2, q / self.xm])

    def quantile_densities(self, u: np.ndarray) -> np.ndarray:
        u = _check_unit(np.asarray(u, dtype=float), self._singular(1.0))
        return (self.xm / self.shape) * (1.0 - u) ** (-1.0 / self.shape - 1.0)


@dataclass(frozen=True)
class Lognormal(DistributionModel):
    mu: float = 0.0
    sigma: float = 1.0

    family = "lognormal"
    param_bounds = ((-math.inf, math.inf), (0.0, math.inf))
    bounded_below = True

    def __post_init__(self):
        super().__post_init__()
        if not self.sigma > 0:
            raise DomainError(f"lognormal sigma must be > 0, got {self.sigma}")

    @classmethod
    def moment_start(cls, x: np.ndarray) -> tuple[float, ...]:
        positive = x[x > 0]
        if not positive.size:
            return cls().params
        logs = np.log(positive)
        return (float(np.mean(logs)), float(np.std(logs)) or 1.0)

    def quantiles(self, u):
        # ndtri(0) = -inf, so u = 0 maps to exp(-inf) = 0
        u = _check_unit(u, self._infinite_ends)
        fn = _FloatFunctions if isinstance(u, float) else _ArrayFunctions
        return fn.exp(self.mu + self.sigma * fn.ndtri(u))

    def quantile_grads(self, u: np.ndarray) -> np.ndarray:
        u = _check_unit(np.asarray(u, dtype=float), self._infinite_ends)
        z = ndtri(u)
        q = np.exp(self.mu + self.sigma * z)
        return np.stack([q, q * z])

    def quantile_densities(self, u: np.ndarray) -> np.ndarray:
        u = _check_unit(np.asarray(u, dtype=float), self._singular(0.0, 1.0))
        z = ndtri(u)
        phi = np.exp(-0.5 * z * z) / _SQRT_2PI
        return self.sigma * np.exp(self.mu + self.sigma * z) / phi


@dataclass(frozen=True)
class Normal(DistributionModel):
    mu: float = 0.0
    sigma: float = 1.0

    family = "normal"
    param_bounds = ((-math.inf, math.inf), (0.0, math.inf))

    def __post_init__(self):
        super().__post_init__()
        if not self.sigma > 0:
            raise DomainError(f"normal sigma must be > 0, got {self.sigma}")

    @classmethod
    def moment_start(cls, x: np.ndarray) -> tuple[float, ...]:
        return (float(np.mean(x)), float(np.std(x)) or 1.0)

    def quantiles(self, u):
        u = _check_unit(u, self._infinite_ends)
        fn = _FloatFunctions if isinstance(u, float) else _ArrayFunctions
        return self.mu + self.sigma * fn.ndtri(u)

    def quantile_grads(self, u: np.ndarray) -> np.ndarray:
        z = ndtri(_check_unit(np.asarray(u, dtype=float), self._infinite_ends))
        return np.stack([np.ones_like(z), z])

    def quantile_densities(self, u: np.ndarray) -> np.ndarray:
        u = _check_unit(np.asarray(u, dtype=float), self._singular(0.0, 1.0))
        z = ndtri(u)
        return self.sigma / (np.exp(-0.5 * z * z) / _SQRT_2PI)


_FAMILIES: dict[str, type[DistributionModel]] = {
    cls.family: cls for cls in (Uniform, Exponential, Pareto, Lognormal, Normal)
}

_SPEC_RE = re.compile(r"^\s*([a-zA-Z_]+)\s*\(\s*([^)]*)\s*\)\s*$")


def _parse_call(text: str) -> tuple[str, list[str]]:
    m = _SPEC_RE.match(text)
    if m is None:
        raise DomainError(f"malformed specification string: {text!r}")
    name = m.group(1).lower()
    args = [a.strip() for a in m.group(2).split(",")] if m.group(2).strip() else []
    return name, args


def _call_values(cls: type, text: str, args: list[str]) -> list[float | None]:
    """The finite numeric arguments of a parsed call, at most one per
    field of ``cls``; ``?`` (a free parameter) becomes None."""
    arity = len(fields(cls))
    if len(args) > arity:
        raise DomainError(
            f"{text!r} has {len(args)} parameters; {cls.__name__.lower()} "
            f"takes at most {arity}"
        )
    try:
        values = [None if a == "?" else float(a) for a in args]
    except ValueError as exc:
        raise DomainError(f"non-numeric parameter in {text!r}") from exc
    if any(v is not None and not math.isfinite(v) for v in values):
        raise DomainError(f"non-finite parameter in {text!r}")
    return values


def parse_model(text: str) -> DistributionModel:
    """Parse ``"family(p1,p2)"`` into a distribution, case-insensitive."""
    template = parse_model_template(text)
    if template.free_count:
        raise DomainError(f"non-numeric parameter in {text!r}")
    return template.cls(*template.values)


@dataclass(frozen=True)
class ModelTemplate:
    """A family with some parameters fixed and the rest free for fitting.

    ``values[i]`` is None for a free parameter.  ``bind`` fills the free
    slots from a flat vector in declaration order.
    """

    cls: type[DistributionModel]
    values: tuple[float | None, ...]

    @classmethod
    def all_free(cls, model: DistributionModel) -> "ModelTemplate":
        """The template of ``model``'s family with every parameter free."""
        return cls(type(model), (None,) * len(model.params))

    @property
    def free_count(self) -> int:
        return sum(v is None for v in self.values)

    @property
    def free_indices(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v is None)

    def free_bounds(self) -> tuple[tuple[float, float], ...]:
        return tuple(self.cls.param_bounds[i] for i in self.free_indices)

    def bind(self, theta) -> DistributionModel:
        theta = list(theta)
        if len(theta) != self.free_count:
            raise DomainError(
                f"expected {self.free_count} free parameters, got {len(theta)}"
            )
        free = iter(theta)
        return self.cls(*(next(free) if v is None else v for v in self.values))

    def admits(self, theta) -> bool:
        """Each free value inside its open bounds, then the family's own checks."""
        if not all(lo < v < hi for v, (lo, hi) in zip(theta, self.free_bounds())):
            return False
        try:
            self.bind(theta)
        except DomainError:
            return False
        return True


def parse_model_template(text: str) -> ModelTemplate:
    """Parse ``"family(p1,?)"`` where ``?`` marks a free parameter for the
    fit to solve for; ``"exponential(?)"`` frees the scale."""
    name, args = _parse_call(text)
    cls = _FAMILIES.get(name)
    if cls is None:
        raise DomainError(f"unknown family {name!r}; known: {sorted(_FAMILIES)}")
    return ModelTemplate(cls, tuple(_call_values(cls, text, args)))


class HTransform:
    """Base class for the per-coordinate transform h: ``values`` takes a
    float or an array and answers in kind, as ``quantiles`` does, and
    ``derivs`` gives h' elementwise over an array.

    Subclasses are immutable dataclasses whose fields are the transform's
    parameters, as in ``power(2)``."""

    kind: str = "abstract"
    __post_init__ = _check_finite

    def values(self, x: float | np.ndarray) -> float | np.ndarray:
        """h(x) of a float, or elementwise of an array."""
        raise NotImplementedError

    def derivs(self, x: np.ndarray) -> np.ndarray:
        """The derivative h'(x), elementwise; an array form only."""
        raise NotImplementedError

    def __str__(self) -> str:
        args = ",".join(f"{getattr(self, f.name):g}" for f in fields(self))
        return f"{self.kind}({args})" if args else self.kind


@dataclass(frozen=True)
class Identity(HTransform):
    kind = "identity"

    def values(self, x):
        return x if isinstance(x, float) else np.asarray(x, dtype=float)

    def derivs(self, x: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Power(HTransform):
    exponent: float = 2.0

    kind = "power"

    def __post_init__(self):
        super().__post_init__()
        if self.exponent < 1:
            raise DomainError(f"power exponent must be >= 1, got {self.exponent}")

    def _check_reals(self, x):
        """``x`` as a float, or as an array of floats if it is not one,
        refused if it holds a negative value and the exponent is not whole."""
        if isinstance(x, float):
            if x >= 0.0:
                return x
        else:
            x = np.asarray(x, dtype=float)
        if self.exponent != int(self.exponent) and (least := _least(x)) < 0:
            raise DomainError(f"power({self.exponent}) undefined for x={least} < 0")
        return x

    def values(self, x):
        return self._check_reals(x) ** self.exponent

    def derivs(self, x: np.ndarray) -> np.ndarray:
        return self.exponent * self._check_reals(np.asarray(x, dtype=float)) ** (self.exponent - 1.0)


@dataclass(frozen=True)
class Log(HTransform):
    kind = "log"

    def values(self, x):
        if isinstance(x, float):
            fn, least = _FloatFunctions, x
        else:
            fn, x = _ArrayFunctions, np.asarray(x, dtype=float)
            least = _least(x)
        if least < 0:
            raise DomainError(f"log transform undefined for x={least} < 0")
        return fn.log(x)

    def derivs(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.size and x.min() <= 0:
            raise DomainError(f"log derivative undefined for x={x.min()} <= 0")
        return 1.0 / x


@dataclass(frozen=True)
class Shifted(HTransform):
    offset: float = 0.0

    kind = "shifted"

    def values(self, x):
        return (x if isinstance(x, float) else np.asarray(x, dtype=float)) + self.offset

    def derivs(self, x: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class CustomTransform(HTransform):
    """Transform registered at runtime from paired scalar value/derivative
    callbacks: ``values`` calls the value callback on a float and maps it
    over an array, as ``derivs`` maps the derivative callback."""

    name: str
    value_fn: Callable[[float], float]
    deriv_fn: Callable[[float], float]

    kind = "custom"

    def values(self, x):
        if isinstance(x, float):
            return self.value_fn(x)
        return np.vectorize(self.value_fn, otypes=[float])(x)

    def derivs(self, x: np.ndarray) -> np.ndarray:
        return np.vectorize(self.deriv_fn, otypes=[float])(x)

    def __str__(self) -> str:
        return self.name


_CUSTOM_TRANSFORMS: dict[str, CustomTransform] = {}


def register_transform(
    name: str,
    value: Callable[[float], float],
    deriv: Callable[[float], float],
) -> CustomTransform:
    """Register a custom h-transform addressable by name in parse_transform;
    the name of a built-in transform, in any case, is refused."""
    if name.lower() in _TRANSFORMS:
        raise DomainError(f"transform name {name!r} is built in")
    t = CustomTransform(name.lower(), value, deriv)
    _CUSTOM_TRANSFORMS[t.name] = t
    return t


_TRANSFORMS: dict[str, type[HTransform]] = {
    cls.kind: cls for cls in (Identity, Power, Log, Shifted)
}


def parse_transform(text: str) -> HTransform:
    """Parse ``"identity"``, ``"power(2)"``, ``"log"``, ``"shifted(1.5)"``
    or a registered custom name; case-insensitive."""
    text = text.strip()
    lowered = text.lower()
    if lowered in _CUSTOM_TRANSFORMS:
        return _CUSTOM_TRANSFORMS[lowered]
    if "(" in lowered:
        name, args = _parse_call(lowered)
    else:
        name, args = lowered, None
    cls = _TRANSFORMS.get(name)
    # A bare name stands only for a transform without parameters.
    if cls is None or (args is None and fields(cls)):
        raise DomainError(f"unknown transform {text!r}")
    values = _call_values(cls, text, args or [])
    if None in values:
        raise DomainError(f"non-numeric parameter in {text!r}")
    return cls(*values)


@dataclass(frozen=True)
class CompositeH:
    """The composite H(u) = h(F^-1(u)) with chain-rule derivative.  The
    value takes a float or an array and answers in kind; the derivative
    is computed in array form, and a float comes back as a numpy scalar."""

    model: DistributionModel
    transform: HTransform

    def value(self, u: float | np.ndarray) -> float | np.ndarray:
        return self.transform.values(self.model.quantiles(u))

    def deriv(self, u: float | np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.transform.derivs(self.model.quantiles(u)) * self.model.quantile_densities(u)
