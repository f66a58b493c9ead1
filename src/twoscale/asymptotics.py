"""Regime classification and evaluation of the exact tail asymptotics.

For ``xi_n(u) = P(C_n >= u n)`` with power-law timescales the approximation is
``prefactor * exp(linear + sublinear terms)``:

* fast (f > 1):    prefactor ``1/(theta* sigma_plus sqrt(2 pi n))`` and
  exponent ``(b alpha(theta*) - theta* u) n + sum_{k=2}^{m+} vbar_k phi psi^k``;
* slow (0 < f < 1): prefactor ``1/(tau* sigma_minus sqrt(2 pi phi_n))`` and
  exponent ``(beta(a tau*) - tau* u) phi_n + sum_{k=1}^{m-} wbar_k phi psi^{-k}``;
* f = 1: the classical single-timescale formula.

When the relevant process is lattice with span d, ``1/theta*`` (fast) or
``1/tau*``-with-a-rescaling (slow) is replaced by ``d / (1 - exp(-theta d))``
evaluated at ``theta*`` resp. ``a tau*``.

Two evaluation modes exist.  Direct mode computes the exponent as
``gamma_n(theta_n) - theta_n u n`` from the solved twist, which equals the
full series with no truncation; it works for any model and is the default.
Series mode sums closed-form coefficients and exists for the built-in model
pairs, mainly to expose the term-by-term structure and the truncated-table
behaviour.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import models as worked
from .errors import LatticeError, OrderError, RegimeError, SeriesUnavailable, require_finite
from .levy import ModelPair, PowerScaling, lmgf
from .twist import (
    _solve_single_twist,
    _solved,
    fast_expansion,
    slow_expansion,
    solve_twist,
)

__all__ = [
    "RegimeInfo",
    "AsymptoticEstimate",
    "classify",
    "approx_fast",
    "approx_slow",
    "approx_single_timescale",
    "log_asymptote",
    "lattice_factor",
]

#: Tolerance for boundary exponents (liminf equal to a positive constant
#: counts as "staying away from zero", so boundary indices are included).
_BOUNDARY_EPS = 1e-9

_LOG_TINY = math.log(5e-324)
_LOG_HUGE = math.log(sys.float_info.max)


@dataclass(frozen=True)
class RegimeInfo:
    """Timescale regime plus the sublinear/Edgeworth term counts.

    ``m_plus``/``m_minus`` count the sublinear exponent terms retained by the
    fast/slow expansions (``m_minus`` is 0 under strong separation f < 1/2);
    ``k_plus``/``k_minus`` the analogous Edgeworth correction counts.
    """

    regime: str  # "fast" | "slow" | "single"
    m_plus: int | None = None
    m_minus: int | None = None
    k_plus: int | None = None
    k_minus: int | None = None


@dataclass(frozen=True)
class AsymptoticEstimate:
    """A fully evaluated tail approximation.

    ``log_value`` is authoritative; ``value`` is its exponential and reads 0.0
    when the probability underflows the float range, and ``inf`` when the log
    exceeds it (an approximation far outside its regime of validity).
    ``exponent_terms`` holds (label, value) pairs, the linear term first.
    """

    prefactor: float
    exponent_terms: tuple[tuple[str, float], ...]
    log_value: float
    value: float
    mode: str  # "direct" | "series"
    series_order: int | None
    lattice_adjusted: bool

    @property
    def exponent(self) -> float:
        return sum(v for _, v in self.exponent_terms)


def classify(scaling: PowerScaling) -> RegimeInfo:
    """Regime and term counts for power-law timescales.

    With ``phi psi^k = n^(f + k(1-f))``, a term survives in the limit iff its
    exponent is >= 0; boundary cases (exactly constant sequences) count.
    """
    f = scaling.f
    if f > 1:
        return RegimeInfo(
            regime="fast",
            m_plus=max(1, math.floor(f / (f - 1) + _BOUNDARY_EPS)),
            k_plus=math.floor(1.0 / (2.0 * (f - 1)) + _BOUNDARY_EPS),
        )
    if f < 1:
        return RegimeInfo(
            regime="slow",
            m_minus=math.floor(f / (1 - f) + _BOUNDARY_EPS),
            k_minus=math.floor(f / (2.0 * (1 - f)) + _BOUNDARY_EPS),
        )
    return RegimeInfo(regime="single")


def lattice_factor(theta: float, span: float) -> float:
    """``span / (1 - exp(-theta*span))``; tends to ``1/theta`` as span -> 0."""
    return span / -math.expm1(-theta * span)


def _assemble(prefactor, terms, mode, order, lattice) -> AsymptoticEstimate:
    log_value = math.log(prefactor) + sum(v for _, v in terms)
    if log_value > _LOG_HUGE:
        value = math.inf
    elif log_value > _LOG_TINY:
        value = math.exp(log_value)
    else:
        value = 0.0
    return AsymptoticEstimate(
        prefactor=prefactor,
        exponent_terms=tuple(terms),
        log_value=log_value,
        value=value,
        mode=mode,
        series_order=order,
        lattice_adjusted=lattice,
    )


def approx_fast(
    model: ModelPair,
    scaling: PowerScaling,
    n: float,
    u: float,
    mode: str = "direct",
    order: int | None = None,
    lattice: bool = False,
) -> AsymptoticEstimate:
    """Fast-regime (f > 1) tail approximation of P(C_n >= u n).

    ``lattice=True`` applies the lattice prefactor built from A's span.  In
    series mode the sublinear sum runs k = 2..M with M = ``order`` (default:
    the regime's own m_plus).
    """
    require_finite(n=n, u=u)
    info = classify(scaling)
    if info.regime != "fast":
        raise RegimeError(f"approx_fast requires f > 1, got f = {scaling.f}")
    exp0 = fast_expansion(model, u, order=0)
    theta_star = exp0.theta_star
    sigma_plus = math.sqrt(model.b * model.A.deriv(theta_star, 2))
    if lattice:
        d = model.A.lattice_span
        if d <= 0:
            raise LatticeError("lattice adjustment requested but A has lattice span 0")
        front = lattice_factor(theta_star, d)
    else:
        front = 1.0 / theta_star
    prefactor = front / (sigma_plus * math.sqrt(2.0 * math.pi * n))

    linear = (model.b * model.A.deriv(theta_star, 0) - theta_star * u) * n
    if mode == "direct":
        sol = solve_twist(model, scaling, n, u)
        delta = lmgf(model, scaling, n, sol.theta_n, 0) - sol.theta_n * u * n
        terms = [("linear", linear), ("sublinear_remainder", delta - linear)]
        return _assemble(prefactor, terms, "direct", None, lattice)
    if mode != "series":
        raise OrderError(f"mode must be 'direct' or 'series', got {mode!r}")
    wm = worked.WorkedModel.from_pair(model)
    if wm is None:
        raise SeriesUnavailable("series mode needs a built-in model pair")
    m = info.m_plus if order is None else order
    if m < 1:
        raise OrderError(f"series order must be >= 1, got {m}")
    terms = [("linear", linear)]
    if m >= 2:
        _, _, vbar = worked.fast_series_coeffs(wm, u, k_max=m)
        phi, psi = scaling.phi(n), scaling.psi(n)
        for k in range(2, m + 1):
            terms.append((f"k={k}", vbar[k - 2] * phi * psi**k))
    return _assemble(prefactor, terms, "series", m, lattice)


def approx_slow(
    model: ModelPair,
    scaling: PowerScaling,
    n: float,
    u: float,
    mode: str = "direct",
    order: int | None = None,
    lattice: bool = False,
) -> AsymptoticEstimate:
    """Slow-regime (0 < f < 1) tail approximation of P(C_n >= u n).

    Mirror of :func:`approx_fast` with (tau*, sigma_minus, phi_n) in place of
    (theta*, sigma_plus, n); the lattice span, when requested, is B's.  The
    series sum runs k = 1..M (M may be 0: empty sum).
    """
    require_finite(n=n, u=u)
    info = classify(scaling)
    if info.regime != "slow":
        raise RegimeError(f"approx_slow requires 0 < f < 1, got f = {scaling.f}")
    exp0 = slow_expansion(model, u, order=1)
    tau_star = exp0.tau_star
    a = model.a
    sigma_minus = a * math.sqrt(model.B.deriv(a * tau_star, 2))
    phi = scaling.phi(n)
    if lattice:
        d = model.B.lattice_span
        if d <= 0:
            raise LatticeError("lattice adjustment requested but B has lattice span 0")
        front = lattice_factor(a * tau_star, d) * a
    else:
        front = 1.0 / tau_star
    prefactor = front / (sigma_minus * math.sqrt(2.0 * math.pi * phi))

    linear = (model.B.deriv(a * tau_star, 0) - tau_star * u) * phi
    if mode == "direct":
        sol = solve_twist(model, scaling, n, u)
        delta = lmgf(model, scaling, n, sol.theta_n, 0) - sol.theta_n * u * n
        terms = [("linear", linear), ("sublinear_remainder", delta - linear)]
        return _assemble(prefactor, terms, "direct", None, lattice)
    if mode != "series":
        raise OrderError(f"mode must be 'direct' or 'series', got {mode!r}")
    wm = worked.WorkedModel.from_pair(model)
    if wm is None:
        raise SeriesUnavailable("series mode needs a built-in model pair")
    m = info.m_minus if order is None else order
    if m < 0:
        raise OrderError(f"series order must be >= 0, got {m}")
    terms = [("linear", linear)]
    if m >= 1:
        _, _, wbar = worked.slow_series_coeffs(wm, u, k_max=m)
        psi = scaling.psi(n)
        for k in range(1, m + 1):
            terms.append((f"k={k}", wbar[k - 1] * phi * psi ** (-k)))
    return _assemble(prefactor, terms, "series", m, lattice)


def approx_single_timescale(model: ModelPair, n: float, u: float) -> AsymptoticEstimate:
    """Tail approximation for phi_n = n (f = 1), where C_n is an n-fold sum.

    theta* solves ``beta'(alpha(theta)) alpha'(theta) = u`` and

        sigma_0^2 = beta''(alpha(t*)) alpha'(t*)^2 + beta'(alpha(t*)) alpha''(t*).
    """
    require_finite(n=n, u=u)
    sol = _solved(model, u, _solve_single_twist)
    theta0 = sol.theta_n
    inner = model.A.deriv(theta0, 0)
    sigma0 = math.sqrt(
        model.B.deriv(inner, 2) * model.A.deriv(theta0, 1) ** 2
        + model.B.deriv(inner, 1) * model.A.deriv(theta0, 2)
    )
    prefactor = 1.0 / (theta0 * sigma0 * math.sqrt(2.0 * math.pi * n))
    linear = (model.B.deriv(inner, 0) - theta0 * u) * n
    return _assemble(prefactor, [("linear", linear)], "direct", None, False)


def log_asymptote(
    model: ModelPair, scaling: PowerScaling, u: float
) -> tuple[float | None, float | None]:
    """Logarithmic decay rates ``(per n, per phi_n)``; the inapplicable slot is None.

    Fast regime: ``(1/n) log xi_n -> b alpha(theta*) - theta* u``.
    Slow regime: ``(1/phi_n) log xi_n -> beta(a tau*) - tau* u``.
    At f = 1 the per-n slot carries the single-timescale rate.
    """
    require_finite(u=u)
    info = classify(scaling)
    if info.regime == "fast":
        theta_star = fast_expansion(model, u, order=0).theta_star
        return (model.b * model.A.deriv(theta_star, 0) - theta_star * u, None)
    if info.regime == "slow":
        tau_star = slow_expansion(model, u, order=1).tau_star
        return (None, model.B.deriv(model.a * tau_star, 0) - tau_star * u)
    sol = _solved(model, u, _solve_single_twist)
    inner = model.A.deriv(sol.theta_n, 0)
    return (model.B.deriv(inner, 0) - sol.theta_n * u, None)
