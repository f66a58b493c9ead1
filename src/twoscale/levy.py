"""Characteristic exponents, their derivatives, and the composed log-mgf.

The model is a scalar Levy process ``A`` run on the random clock of an
increasing Levy process ``B``:

    C_n = A(psi_n * B(phi_n)),    phi_n * psi_n = n,

with ``phi_n = n**f`` and ``psi_n = n**(1-f)``.  Everything downstream
(twisting, asymptotics, oracles) consumes the two exponents

    alpha(t) = log E exp(t * A(1)),    beta(t) = log E exp(t * B(1))

through the :class:`CharExponent` interface, which serves the value and the
first three derivatives.  The composed log-mgf of ``C_n`` is

    gamma_n(t) = phi_n * beta(alpha(t) * psi_n).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from .errors import DomainError, OrderError, ParamError, UnsupportedSignError, require_finite

__all__ = [
    "CharExponent",
    "ModelPair",
    "PowerScaling",
    "lmgf",
    "mean_variance",
    "load_model",
]

_MAX_ORDER = 3


@dataclass(frozen=True)
class CharExponent:
    """A characteristic exponent with derivatives up to order 3.

    Attributes
    ----------
    kind:
        ``"poisson"``, ``"gamma"`` or ``"custom"``.
    domain_sup:
        Supremum of the set of arguments with a finite exponent.  Evaluation
        at or beyond it raises :class:`DomainError` (the bound is exclusive:
        the Gamma exponent diverges exactly there).
    lattice_span:
        Span ``d > 0`` if the marginals live on ``x0 + d*Z``, else ``0.0``.
    params:
        Raw construction parameters, kept for closed-form specialisations.
        They take part in equality but not in the hash (a dict is unhashable);
        equal exponents still hash equal.
    """

    kind: str
    domain_sup: float
    lattice_span: float
    params: Mapping[str, float] = field(default_factory=dict, hash=False)
    _derivs: Callable[[float, int], float] = field(repr=False, default=None)

    @classmethod
    def poisson(cls, rate: float, lattice_span: float = 1.0) -> "CharExponent":
        """Poisson process with the given rate: ``t -> rate * (exp(t) - 1)``."""
        if rate <= 0:
            raise ParamError(f"poisson rate must be positive, got {rate}")
        if lattice_span < 0:
            raise ParamError(f"lattice span must be >= 0, got {lattice_span}")

        def derivs(t: float, order: int) -> float:
            if order == 0:
                return rate * math.expm1(t)
            return rate * math.exp(t)

        return cls("poisson", math.inf, lattice_span, {"lam": rate}, derivs)

    @classmethod
    def gamma(cls, shape: float, rate: float) -> "CharExponent":
        """Gamma process: ``t -> shape * (log rate - log(rate - t))``, t < rate."""
        if shape <= 0 or rate <= 0:
            raise ParamError(f"gamma parameters must be positive, got shape={shape}, rate={rate}")

        def derivs(t: float, order: int) -> float:
            if order == 0:
                return shape * math.log(rate / (rate - t))
            return shape * math.factorial(order - 1) / (rate - t) ** order

        return cls("gamma", rate, 0.0, {"r": shape, "mu": rate}, derivs)

    @classmethod
    def custom(
        cls,
        derivs: Callable[[float, int], float],
        domain_sup: float = math.inf,
        lattice_span: float = 0.0,
    ) -> "CharExponent":
        """Wrap a user evaluator.

        ``derivs(t, order)`` must return the order-th derivative of the
        exponent for orders 0..3, analytically.  Finite-differencing user
        code would silently degrade the third-order coefficients, so it is
        refused by design.
        """
        if lattice_span < 0:
            raise ParamError(f"lattice span must be >= 0, got {lattice_span}")
        probe = derivs(0.0, 0)
        if probe != 0.0:
            raise ParamError(f"custom exponent must vanish at 0, got {probe}")
        return cls("custom", domain_sup, lattice_span, {}, derivs)

    def deriv(self, t: float, order: int = 0) -> float:
        """Order-th derivative of the exponent at ``t`` (order 0 is the value)."""
        if not isinstance(order, int) or order < 0 or order > _MAX_ORDER:
            raise OrderError(f"derivative order must be in 0..{_MAX_ORDER}, got {order}")
        if t >= self.domain_sup:
            raise DomainError(
                f"argument {t} is not below the domain supremum {self.domain_sup}"
            )
        return self._derivs(t, order)


@dataclass(frozen=True)
class ModelPair:
    """The pair (A, B) driving ``C_n = A(psi_n B(phi_n))``.

    ``B`` must be a subordinator; only its marginal increments matter here, so
    the check is on positivity of its mean.  The means ``a = alpha'(0)`` and
    ``b = beta'(0)`` are always recomputed from the exponents, never stored.

    A pair remembers ``theta*``, ``tau*`` and the f = 1 twist for the last
    ``u`` asked of it (they depend on the pair and ``u`` only), so its
    exponents must be pure functions.  The memo takes no part in equality,
    hashing or ``repr``.
    """

    A: CharExponent
    B: CharExponent
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.A.deriv(0.0, 0) != 0.0 or self.B.deriv(0.0, 0) != 0.0:
            raise ParamError("characteristic exponents must vanish at the origin")
        if self.b <= 0:
            raise ParamError(f"B must be an increasing subordinator: beta'(0) = {self.b} <= 0")
        if self.a <= 0:
            raise UnsupportedSignError(
                f"alpha'(0) = {self.a} <= 0 is not supported: the slow-regime tilting "
                "equation has no solution for a non-positive outer mean"
            )

    @property
    def a(self) -> float:
        """Mean of A(1)."""
        return self.A.deriv(0.0, 1)

    @property
    def b(self) -> float:
        """Mean of B(1)."""
        return self.B.deriv(0.0, 1)


@dataclass(frozen=True)
class PowerScaling:
    """Power-law timescales ``phi_n = n**f`` and ``psi_n = n**(1-f)``.

    ``f > 1`` is the fast regime (the inner clock averages out), ``0 < f < 1``
    the slow regime (the clock's fluctuations dominate), and ``f = 1`` the
    single-timescale case.
    """

    f: float

    def __post_init__(self) -> None:
        if not (self.f > 0) or not math.isfinite(self.f):
            raise ParamError(f"timescale exponent f must be positive and finite, got {self.f}")

    def phi(self, n: float) -> float:
        return self._power(n, self.f, "n ** f")

    def psi(self, n: float) -> float:
        return self._power(n, 1.0 - self.f, "n ** (1 - f)")

    def _power(self, n: float, p: float, label: str) -> float:
        if n <= 0:
            raise ParamError(f"{label} needs n > 0, got n = {n}, f = {self.f}")
        try:
            return n ** p
        except OverflowError:
            raise ParamError(f"{label} overflows at n = {n}, f = {self.f}") from None


def lmgf(model: ModelPair, scaling: PowerScaling, n: float, theta: float, order: int = 0) -> float:
    """Log-mgf of ``C_n`` at ``theta``, or its first or second theta-derivative.

    gamma_n(theta)   = phi_n * beta(alpha(theta) * psi_n)
    gamma_n'(theta)  = n * beta'(alpha(theta) psi_n) * alpha'(theta)
    gamma_n''(theta) = n * (psi_n beta''(.) alpha'(theta)^2 + beta'(.) alpha''(theta))

    Raises :class:`DomainError` when ``alpha(theta) * psi_n`` leaves the domain
    of B's exponent (the usual sign that a twist search overshot).
    """
    if order not in (0, 1, 2):
        raise OrderError(f"lmgf derivative order must be 0, 1 or 2, got {order}")
    require_finite(n=n, theta=theta)
    psi = scaling.psi(n)
    inner = model.A.deriv(theta, 0) * psi
    if inner >= model.B.domain_sup:
        raise DomainError(
            f"alpha(theta)*psi_n = {inner} is not below B's domain supremum "
            f"{model.B.domain_sup}"
        )
    if order == 0:
        return scaling.phi(n) * model.B.deriv(inner, 0)
    if order == 1:
        return n * model.B.deriv(inner, 1) * model.A.deriv(theta, 1)
    return n * (
        psi * model.B.deriv(inner, 2) * model.A.deriv(theta, 1) ** 2
        + model.B.deriv(inner, 1) * model.A.deriv(theta, 2)
    )


def mean_variance(model: ModelPair, scaling: PowerScaling, n: float) -> tuple[float, float]:
    """Mean and variance of ``C_n``.

    The variance splits into the two timescale contributions

        Var C_n = n psi_n sigma_minus^2 + n sigma_plus^2,

    with ``sigma_minus^2 = a^2 beta''(0)`` (clock fluctuations) and
    ``sigma_plus^2 = alpha''(0) b`` (outer-process fluctuations).
    """
    require_finite(n=n)
    a, b = model.a, model.b
    sigma_minus_sq = a * a * model.B.deriv(0.0, 2)
    sigma_plus_sq = model.A.deriv(0.0, 2) * b
    return n * a * b, n * scaling.psi(n) * sigma_minus_sq + n * sigma_plus_sq


def _exponent_from_spec(spec: Mapping, which: str) -> CharExponent:
    if not isinstance(spec, Mapping) or "kind" not in spec:
        raise ParamError(f"model entry {which!r} must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "poisson":
            extra = set(spec) - {"kind", "lambda", "d"}
            if extra:
                raise ParamError(f"unknown fields {sorted(extra)} for poisson entry {which!r}")
            return CharExponent.poisson(float(spec["lambda"]), float(spec.get("d", 1.0)))
        if kind == "gamma":
            extra = set(spec) - {"kind", "r", "mu"}
            if extra:
                raise ParamError(f"unknown fields {sorted(extra)} for gamma entry {which!r}")
            return CharExponent.gamma(float(spec["r"]), float(spec["mu"]))
    except KeyError as exc:
        raise ParamError(f"missing field {exc} in model entry {which!r}") from exc
    raise ParamError(f"unknown exponent kind {kind!r} in model entry {which!r}")


def load_model(source) -> tuple[ModelPair, PowerScaling]:
    """Load a model specification from a JSON file path, JSON text, or dict.

    Schema (field names fixed)::

        {"A": {"kind": "poisson", "lambda": 1.0, "d": 1.0},
         "B": {"kind": "gamma", "r": 1.0, "mu": 2.0},
         "f": 1.5}
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.exists():
            text = path.read_text()
        elif isinstance(source, str) and source.lstrip().startswith("{"):
            text = source
        else:
            raise ParamError(f"model file not found: {source}")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParamError(f"model spec is not valid JSON: {exc}") from exc
    elif isinstance(source, Mapping):
        data = source
    else:
        raise ParamError(f"unsupported model source type {type(source).__name__}")

    for key in ("A", "B", "f"):
        if key not in data:
            raise ParamError(f"model spec is missing required field {key!r}")
    model = ModelPair(_exponent_from_spec(data["A"], "A"), _exponent_from_spec(data["B"], "B"))
    return model, PowerScaling(float(data["f"]))
