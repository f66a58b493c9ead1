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
import numbers
import sys
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


def _order_error(order) -> OrderError:
    return OrderError(f"derivative order must be in 0..{_MAX_ORDER}, got {order}")


def _domain_error(t: float, sup: float) -> DomainError:
    return DomainError(f"argument {t} is not below the domain supremum {sup}")


def _order_or_inf(derivs: Callable[[float, int], float], t: float, order: int) -> float:
    """``derivs(t, order)``, or +inf where the user evaluator overflows."""
    try:
        return derivs(t, order)
    except OverflowError:
        return math.inf


def _custom_jet(derivs: Callable[[float, int], float], sup: float) -> Callable:
    """The jet of a user evaluator: ``derivs(t, 0..k)``, called in that order."""

    def jet(t: float, k: int) -> tuple[float, ...]:
        if t >= sup:
            raise _domain_error(t, sup)
        try:
            if k == 0:
                return (derivs(t, 0),)
            if k == 1:
                return derivs(t, 0), derivs(t, 1)
            if k == 2:
                return derivs(t, 0), derivs(t, 1), derivs(t, 2)
            if k == 3:
                return derivs(t, 0), derivs(t, 1), derivs(t, 2), derivs(t, 3)
        except OverflowError:  # some order is past the float range: read each on its own
            return tuple(_order_or_inf(derivs, t, j) for j in range(k + 1))
        raise _order_error(k)

    return jet


def _poisson_jet(lam: float) -> Callable:
    def jet(t: float, k: int) -> tuple[float, ...]:
        if t >= math.inf:
            raise _domain_error(t, math.inf)
        try:
            value, e = lam * math.expm1(t), lam * math.exp(t)
        except OverflowError:  # exp(t), and with it every order, is past the float range
            value = e = math.inf
        if k == 0:
            return (value,)
        if k == 1:
            return value, e
        if k == 2:
            return value, e, e
        if k == 3:
            return value, e, e, e
        raise _order_error(k)

    return jet


def _gamma_jet(r: float, mu: float) -> Callable:
    def jet(t: float, k: int) -> tuple[float, ...]:
        # Order j >= 1 is r * (j - 1)! / x**j with x = mu - t; +inf where x**j
        # underflows to 0, and divided by x j times where x**j overflows.
        if t >= mu:
            raise _domain_error(t, mu)
        x = mu - t
        value = r * math.log(mu / x)
        if k == 0:
            return (value,)
        if k == 1:
            return value, r / x
        try:
            x2 = x ** 2
            d2 = r / x2 if x2 else math.inf
        except OverflowError:  # x ** 2 is past the float range, not the order
            d2 = r / x / x
        if k == 2:
            return value, r / x, d2
        if k == 3:
            try:
                x3 = x ** 3
                d3 = r * 2 / x3 if x3 else math.inf
            except OverflowError:
                d3 = r * 2 / x / x / x
            return value, r / x, d2, d3
        raise _order_error(k)

    return jet


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
        the Gamma exponent diverges exactly there).  A built-in exponent
        derives it from ``params``; a custom one takes it as given.
    lattice_span:
        Span ``d > 0`` if the marginals live on ``x0 + d*Z``, else ``0.0``.
    params:
        The parameters that define a built-in exponent (``lam``; ``r`` and
        ``mu``; all positive and finite), from which its jet is built; ``{}``
        for a custom one.  They take part in equality but not in the hash (a
        dict is unhashable); equal exponents still hash equal.
    jet:
        ``jet(t, k)``, k in 0..3: ``(value, first, ..., k-th derivative)`` at
        ``t`` from one evaluation; :meth:`deriv` reads its last entry.  Raises
        :class:`DomainError` at or past ``domain_sup``; an order whose value
        lies past the float range reads +inf.
    """

    kind: str
    domain_sup: float
    lattice_span: float
    params: Mapping[str, float] = field(default_factory=dict, hash=False)
    # The user's ``derivs(t, order)`` of a custom exponent; None for a
    # built-in one, whose jet is built from ``params``.
    _derivs: Callable = field(repr=False, default=None)
    jet: Callable[[float, int], tuple[float, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kind, params, sup = self.kind, self.params, self.domain_sup
        try:
            if kind == "custom":
                jet = _custom_jet(self._derivs, sup)
            elif kind == "poisson":
                lam = params["lam"]
                if not 0 < lam < math.inf:
                    raise ParamError(f"poisson rate must be positive and finite, got {lam}")
                jet, sup = _poisson_jet(lam), math.inf
            elif kind == "gamma":
                r, mu = params["r"], params["mu"]
                if not (0 < r < math.inf and 0 < mu < math.inf):
                    raise ParamError(
                        f"gamma parameters must be positive and finite, got shape={r}, rate={mu}"
                    )
                jet, sup = _gamma_jet(r, mu), mu
            else:
                raise ParamError(f"unknown exponent kind {kind!r}")
        except KeyError as exc:
            raise ParamError(f"a {kind} exponent needs the parameter {exc}") from None
        if not 0 <= self.lattice_span < math.inf:
            raise ParamError(f"lattice span must be finite and >= 0, got {self.lattice_span}")
        if kind == "custom":  # the user evaluator itself: a domain_sup <= 0 fails in ModelPair
            probe = self._derivs(0.0, 0)
            if probe != 0.0:
                raise ParamError(f"custom exponent must vanish at 0, got {probe}")
        object.__setattr__(self, "domain_sup", sup)
        object.__setattr__(self, "jet", jet)

    @classmethod
    def poisson(cls, rate: float, lattice_span: float = 1.0) -> "CharExponent":
        """Poisson process with the given rate: ``t -> rate * (exp(t) - 1)``."""
        return cls("poisson", math.inf, lattice_span, {"lam": rate})

    @classmethod
    def gamma(cls, shape: float, rate: float) -> "CharExponent":
        """Gamma process: ``t -> shape * (log rate - log(rate - t))``, t < rate."""
        return cls("gamma", rate, 0.0, {"r": shape, "mu": rate})

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
        refused by design.  The jet calls ``derivs(t, 0)``, ..., ``derivs(t, k)``;
        an order whose call raises ``OverflowError`` reads +inf.
        """
        return cls("custom", domain_sup, lattice_span, {}, derivs)

    def deriv(self, t: float, order: int = 0) -> float:
        """Order-th derivative at ``t`` (order 0 is the value): ``jet(t, order)[order]``."""
        if not isinstance(order, int) or order < 0 or order > _MAX_ORDER:
            raise _order_error(order)
        return self.jet(t, order)[order]


@dataclass(frozen=True)
class ModelPair:
    """The pair (A, B) driving ``C_n = A(psi_n B(phi_n))``.

    ``B`` must be a subordinator; only its marginal increments matter here, so
    the check is on positivity of its mean.  The means ``a = alpha'(0)`` and
    ``b = beta'(0)`` are computed once, from the exponents, when the pair is
    built.

    A pair remembers each regime's leading ``(twist, rate, sigma)``, theta*
    and tau* among them, for the last ``u`` asked of it (they depend on the
    pair and ``u`` only), so its exponents must be pure functions.  The
    means and the memo take no part in equality, hashing or ``repr``.
    """

    A: CharExponent
    B: CharExponent
    a: float = field(init=False, repr=False, compare=False)
    b: float = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = self.A.jet(0.0, 1)[1]
        b = self.B.jet(0.0, 1)[1]
        object.__setattr__(self, "b", b)
        if b <= 0:
            raise ParamError(f"B must be an increasing subordinator: beta'(0) = {b} <= 0")
        object.__setattr__(self, "a", a)
        if a <= 0:
            raise UnsupportedSignError(
                f"alpha'(0) = {a} <= 0 is not supported: the slow-regime tilting "
                "equation has no solution for a non-positive outer mean"
            )


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


def _composed_jet(model: ModelPair, psi: float) -> Callable[[float], tuple[float, float, float]]:
    """gamma_n and its first two derivatives over ``(phi_n, n, n)``, as a function of theta.

    ``theta -> (beta(x), beta'(x) alpha'(theta), psi beta''(x) alpha'(theta)^2
    + beta'(x) alpha''(theta))`` with ``x = alpha(theta) psi``, from one jet of
    each exponent.  Every entry reads +inf where alpha does (B never sees an
    infinite argument), the last where ``alpha'(theta)^2`` does.
    """
    jA, jB = model.A.jet, model.B.jet

    def jet(theta: float) -> tuple[float, float, float]:
        a0, a1, a2 = jA(theta, 2)
        if a0 == math.inf:
            return math.inf, math.inf, math.inf
        b0, b1, b2 = jB(a0 * psi, 2)
        try:
            slope = psi * b2 * a1 ** 2 + b1 * a2
        except OverflowError:  # a1 ** 2
            slope = math.inf
        return b0, b1 * a1, slope

    return jet


def lmgf(model: ModelPair, scaling: PowerScaling, n: float, theta: float, order: int = 0) -> float:
    """Log-mgf of ``C_n`` at ``theta``, or its first or second theta-derivative.

    gamma_n(theta)   = phi_n * beta(alpha(theta) * psi_n)
    gamma_n'(theta)  = n * beta'(alpha(theta) psi_n) * alpha'(theta)
    gamma_n''(theta) = n * (psi_n beta''(.) alpha'(theta)^2 + beta'(.) alpha''(theta))

    Every order evaluates both exponents up to their second derivative.
    Raises :class:`DomainError` when ``alpha(theta) * psi_n`` leaves the domain
    of B's exponent (the usual sign that a twist search overshot).  Every order
    reads +inf where ``alpha(theta)`` lies past the float range, and an order
    reads +inf where a term of it does (B's value or derivatives, or
    ``alpha'(theta)^2``).
    """
    if order not in (0, 1, 2):
        raise OrderError(f"lmgf derivative order must be 0, 1 or 2, got {order}")
    require_finite(n=n, theta=theta)
    entry = _composed_jet(model, scaling.psi(n))(theta)[order]
    return entry * scaling.phi(n) if order == 0 else n * entry


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


def _number(spec: Mapping, key: str, where: str) -> float:
    """``spec[key]`` as a float; ParamError unless it is a finite number (not a string or a bool)."""
    if key not in spec:
        raise ParamError(f"missing field {key!r} in {where}")
    value = spec[key]
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ParamError(f"field {key!r} in {where} must be a finite number, got {value!r}")


def _exponent_from_spec(spec: Mapping, which: str) -> CharExponent:
    if not isinstance(spec, Mapping) or "kind" not in spec:
        raise ParamError(f"model entry {which!r} must be an object with a 'kind' field")
    kind, where = spec["kind"], f"model entry {which!r}"
    if kind == "poisson":
        extra = set(spec) - {"kind", "lambda", "d"}
        if extra:
            raise ParamError(f"unknown fields {sorted(extra)} for poisson entry {which!r}")
        lam = _number(spec, "lambda", where)
        return CharExponent.poisson(lam, _number(spec, "d", where) if "d" in spec else 1.0)
    if kind == "gamma":
        extra = set(spec) - {"kind", "r", "mu"}
        if extra:
            raise ParamError(f"unknown fields {sorted(extra)} for gamma entry {which!r}")
        return CharExponent.gamma(_number(spec, "r", where), _number(spec, "mu", where))
    raise ParamError(f"unknown exponent kind {kind!r} in model entry {which!r}")


def load_model(source) -> tuple[ModelPair, PowerScaling]:
    """Load a model specification from a JSON file (a path) or a mapping.

    Schema (field names fixed)::

        {"A": {"kind": "poisson", "lambda": 1.0, "d": 1.0},
         "B": {"kind": "gamma", "r": 1.0, "mu": 2.0},
         "f": 1.5}

    A file that is not UTF-8 JSON, a spec that is not an object and a field
    that is not a number raise :class:`ParamError`, as every bad spec does.
    """
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:  # missing, a directory, a name too long, not UTF-8
            raise ParamError(f"cannot read the model file {source}: {exc}") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParamError(f"model spec is not valid JSON: {exc}") from exc
    elif isinstance(source, Mapping):
        data = source
    else:
        raise ParamError(f"unsupported model source type {type(source).__name__}")
    if not isinstance(data, Mapping):
        raise ParamError(f"model spec must be a JSON object, got {type(data).__name__}")

    for key in ("A", "B", "f"):
        if key not in data:
            raise ParamError(f"model spec is missing required field {key!r}")
    model = ModelPair(_exponent_from_spec(data["A"], "A"), _exponent_from_spec(data["B"], "B"))
    return model, PowerScaling(_number(data, "f", "the model spec"))
