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


def _check_unit(u: float) -> None:
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {u}")


def _extremes_outside(u: np.ndarray) -> tuple[float, ...]:
    """The least and greatest entries of ``u``, or none if it is empty or
    both lie strictly inside (0, 1), as quadrature nodes do (a NaN
    propagates into both and is returned)."""
    if u.size:
        least, most = u.min(), u.max()
        if not (0.0 < least and most < 1.0):
            return float(least), float(most)
    return ()


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

    Subclasses are immutable dataclasses exposing the quantile function,
    as a scalar ``quantile`` and optionally an array ``quantiles``, and
    its derivative as an array ``quantile_densities``.  Their fields are
    the parameters, refused unless finite:
    ``params`` is the field values in declaration order and the field
    defaults are the family's default member.  ``param_bounds`` gives
    open-domain limits per parameter used by the fitting line search.
    """

    family: str = "abstract"
    param_bounds: tuple[tuple[float, float], ...]
    __post_init__ = _check_finite

    @property
    def params(self) -> tuple[float, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def moment_start(cls, x: np.ndarray) -> tuple[float, ...]:
        """Method-of-moments starting point for fitting the family to the
        sample ``x``; all ones for a family that defines none."""
        return (1.0,) * len(cls.param_bounds)

    def quantile(self, u: float) -> float:
        raise NotImplementedError

    def quantiles(self, u: np.ndarray) -> np.ndarray:
        """Array form of ``quantile``: same values, same domain errors.
        Families without a numpy expression fall back to this adapter."""
        return np.vectorize(self.quantile, otypes=[float])(u)

    def quantile_densities(self, u: np.ndarray) -> np.ndarray:
        """The quantile density q(u) = d quantiles(u) / du, elementwise;
        an array form only, with no fallback."""
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

    def _check_endpoint(self, u: float) -> None:
        _check_unit(u)
        if u == 0.0 and not self.bounded_below:
            raise UnboundedQuantileError(
                f"{self.family}: quantile at 0 is -infinity"
            )
        if u == 1.0 and not self.bounded_above:
            raise UnboundedQuantileError(
                f"{self.family}: quantile at 1 is +infinity"
            )

    def _check_endpoints(self, u: np.ndarray) -> np.ndarray:
        """``_check_endpoint`` over an array, through its extremes only."""
        u = np.asarray(u, dtype=float)
        for x in _extremes_outside(u):
            self._check_endpoint(x)
        return u

    def _check_density_domain(self, u: np.ndarray, singular=()) -> np.ndarray:
        """``_check_unit`` over an array, through its extremes only, then a
        SingularityError where u reaches an end in ``singular``, at which
        the quantile density diverges."""
        u = np.asarray(u, dtype=float)
        extremes = _extremes_outside(u)
        for x in extremes:
            _check_unit(x)
        for x in extremes:
            if x in singular:
                raise SingularityError(
                    f"{self.family} quantile density diverges at u={x:g}"
                )
        return u

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

    def quantile(self, u: float) -> float:
        self._check_endpoint(u)
        return self.lo + (self.hi - self.lo) * u

    def quantiles(self, u: np.ndarray) -> np.ndarray:
        u = self._check_endpoints(u)
        return self.lo + (self.hi - self.lo) * u

    def quantile_grads(self, u: np.ndarray) -> np.ndarray:
        u = self._check_endpoints(u)
        return np.stack([1.0 - u, u])

    def quantile_densities(self, u: np.ndarray) -> np.ndarray:
        return np.full_like(self._check_density_domain(u), self.hi - self.lo)


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

    def quantile(self, u: float) -> float:
        self._check_endpoint(u)
        return -self.scale * math.log1p(-u)

    def quantiles(self, u: np.ndarray) -> np.ndarray:
        u = self._check_endpoints(u)
        return -self.scale * np.log1p(-u)

    def quantile_grads(self, u: np.ndarray) -> np.ndarray:
        return (self.quantiles(u) / self.scale)[None]

    def quantile_densities(self, u: np.ndarray) -> np.ndarray:
        u = self._check_density_domain(u, (1.0,))
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

    def quantile(self, u: float) -> float:
        self._check_endpoint(u)
        return self.xm * (1.0 - u) ** (-1.0 / self.shape)

    def quantiles(self, u: np.ndarray) -> np.ndarray:
        u = self._check_endpoints(u)
        return self.xm * (1.0 - u) ** (-1.0 / self.shape)

    def quantile_grads(self, u: np.ndarray) -> np.ndarray:
        u = self._check_endpoints(u)
        q = self.xm * (1.0 - u) ** (-1.0 / self.shape)
        return np.stack([q * np.log1p(-u) / self.shape ** 2, q / self.xm])

    def quantile_densities(self, u: np.ndarray) -> np.ndarray:
        u = self._check_density_domain(u, (1.0,))
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

    def quantile(self, u: float) -> float:
        self._check_endpoint(u)
        if u == 0.0:
            return 0.0
        return math.exp(self.mu + self.sigma * float(ndtri(u)))

    def quantiles(self, u: np.ndarray) -> np.ndarray:
        # ndtri(0) = -inf, so u = 0 maps to exp(-inf) = 0 as in the scalar form
        u = self._check_endpoints(u)
        return np.exp(self.mu + self.sigma * ndtri(u))

    def quantile_grads(self, u: np.ndarray) -> np.ndarray:
        u = self._check_endpoints(u)
        z = ndtri(u)
        q = np.exp(self.mu + self.sigma * z)
        return np.stack([q, q * z])

    def quantile_densities(self, u: np.ndarray) -> np.ndarray:
        u = self._check_density_domain(u, (0.0, 1.0))
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

    def quantile(self, u: float) -> float:
        self._check_endpoint(u)
        return self.mu + self.sigma * float(ndtri(u))

    def quantiles(self, u: np.ndarray) -> np.ndarray:
        u = self._check_endpoints(u)
        return self.mu + self.sigma * ndtri(u)

    def quantile_grads(self, u: np.ndarray) -> np.ndarray:
        u = self._check_endpoints(u)
        z = ndtri(u)
        return np.stack([np.ones_like(z), z])

    def quantile_densities(self, u: np.ndarray) -> np.ndarray:
        u = self._check_density_domain(u, (0.0, 1.0))
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
    """Base class for the per-coordinate transform h with derivative, a
    scalar and an array ``value`` and an array ``derivs``.

    Subclasses are immutable dataclasses whose fields are the transform's
    parameters, as in ``power(2)``."""

    kind: str = "abstract"
    __post_init__ = _check_finite

    def value(self, x: float) -> float:
        raise NotImplementedError

    def values(self, x: np.ndarray) -> np.ndarray:
        """Array form of ``value``: same values, same domain errors.
        Custom transforms fall back to this adapter."""
        return np.vectorize(self.value, otypes=[float])(x)

    def derivs(self, x: np.ndarray) -> np.ndarray:
        """The derivative h'(x), elementwise; an array form only."""
        raise NotImplementedError

    def __str__(self) -> str:
        args = ",".join(f"{getattr(self, f.name):g}" for f in fields(self))
        return f"{self.kind}({args})" if args else self.kind


@dataclass(frozen=True)
class Identity(HTransform):
    kind = "identity"

    def value(self, x: float) -> float:
        return x

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)

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

    def value(self, x: float) -> float:
        if x < 0 and self.exponent != int(self.exponent):
            raise DomainError(f"power({self.exponent}) undefined for x={x} < 0")
        return x ** self.exponent

    def _check_reals(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.exponent != int(self.exponent) and x.size and x.min() < 0:
            raise DomainError(f"power({self.exponent}) undefined for x={x.min()} < 0")
        return x

    def values(self, x: np.ndarray) -> np.ndarray:
        return self._check_reals(x) ** self.exponent

    def derivs(self, x: np.ndarray) -> np.ndarray:
        return self.exponent * self._check_reals(x) ** (self.exponent - 1.0)


@dataclass(frozen=True)
class Log(HTransform):
    kind = "log"

    def value(self, x: float) -> float:
        if x <= 0:
            if x == 0:
                return -math.inf
            raise DomainError(f"log transform undefined for x={x} < 0")
        return math.log(x)

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.size and x.min() < 0:
            raise DomainError(f"log transform undefined for x={x.min()} < 0")
        with np.errstate(divide="ignore"):  # log(0) = -inf, as in value()
            return np.log(x)

    def derivs(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.size and x.min() <= 0:
            raise DomainError(f"log derivative undefined for x={x.min()} <= 0")
        return 1.0 / x


@dataclass(frozen=True)
class Shifted(HTransform):
    offset: float = 0.0

    kind = "shifted"

    def value(self, x: float) -> float:
        return x + self.offset

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) + self.offset

    def derivs(self, x: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class CustomTransform(HTransform):
    """Transform registered at runtime from paired scalar value/derivative
    callbacks; ``derivs`` maps the derivative callback over an array."""

    name: str
    value_fn: Callable[[float], float]
    deriv_fn: Callable[[float], float]

    kind = "custom"

    def value(self, x: float) -> float:
        return self.value_fn(x)

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
    """Register a custom h-transform addressable by name in parse_transform."""
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
    value takes a float or, elementwise, an ndarray; the derivative is
    computed in array form, and a float comes back as a numpy scalar."""

    model: DistributionModel
    transform: HTransform

    def value(self, u: float | np.ndarray) -> float | np.ndarray:
        if isinstance(u, np.ndarray):
            return self.transform.values(self.model.quantiles(u))
        return self.transform.value(self.model.quantile(u))

    def deriv(self, u: float | np.ndarray) -> np.ndarray:
        x = self.model.quantiles(u)
        return self.transform.derivs(x) * self.model.quantile_densities(u)
