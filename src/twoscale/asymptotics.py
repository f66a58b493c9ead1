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
from dataclasses import dataclass
from functools import lru_cache

from . import models as worked
from .errors import (
    LatticeError, OrderError, ParamError, RegimeError, SeriesUnavailable, _exp_of_log, require_finite,
)
from .levy import ModelPair, PowerScaling
from .twist import _leading, _require_query, solve_twist

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

    ``log_value`` is authoritative; ``value`` is ``_exp_of_log`` of it, which
    reads 0.0 when the probability underflows the float range, and ``inf`` when
    the log exceeds it (an approximation far outside its regime of validity).
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
    return _regime_info(scaling.f)


@lru_cache(maxsize=256)
def _regime_info(f: float) -> RegimeInfo:
    """:func:`classify` for one ``f``, built once per ``f`` (it is frozen)."""
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


def _assemble(front, spread, terms, mode, order, lattice) -> AsymptoticEstimate:
    """The estimate with prefactor ``front / spread``; ParamError where it or the log is not finite."""
    prefactor = front / spread if spread else math.inf
    if not 0.0 < prefactor < math.inf:  # 0.0 where sigma reads +inf, +inf where it reads 0.0
        raise ParamError(f"the prefactor {prefactor} lies past the float range")
    log_value = math.log(prefactor) + sum(v for _, v in terms)
    return AsymptoticEstimate(
        prefactor=prefactor,
        exponent_terms=tuple(terms),
        log_value=log_value,
        value=_exp_of_log(log_value),
        mode=mode,
        series_order=order,
        lattice_adjusted=lattice,
    )


def _approx(regime, model, scaling, n, u, mode, order, lattice) -> AsymptoticEstimate:
    """The body shared by :func:`approx_fast` and :func:`approx_slow`."""
    fast = regime == "fast"
    _require_query(n, u)
    info = classify(scaling)
    if info.regime != regime:
        requires = "f > 1" if fast else "0 < f < 1"
        raise RegimeError(f"approx_{regime} requires {requires}, got f = {scaling.f}")
    twist, rate, sigma = _leading(model, regime, u)
    clock = n if fast else scaling.phi(n)
    if lattice:
        process, unit = (model.A, 1.0) if fast else (model.B, model.a)
        if process.lattice_span <= 0:
            raise LatticeError(f"lattice adjustment requested but {'A' if fast else 'B'} has lattice span 0")
        front = lattice_factor(unit * twist, process.lattice_span) * unit
    else:
        front = 1.0 / twist
    spread = sigma * math.sqrt(2.0 * math.pi * clock)

    linear = rate * clock
    if mode == "direct":
        sol = solve_twist(model, scaling, n, u)
        delta = sol.log_mgf - sol.theta_n * u * n
        terms = [("linear", linear), ("sublinear_remainder", delta - linear)]
        return _assemble(front, spread, terms, "direct", None, lattice)
    if mode != "series":
        raise OrderError(f"mode must be 'direct' or 'series', got {mode!r}")
    if worked._builtin(model) is None:
        raise SeriesUnavailable("series mode needs a built-in model pair")
    m = (info.m_plus if fast else info.m_minus) if order is None else order
    k0 = 2 if fast else 1
    if not k0 - 1 <= m <= worked.K_MAX:
        raise OrderError(f"series order must lie in {k0 - 1}..{worked.K_MAX}, got {m}")
    terms = [("linear", linear)]
    if m >= k0:
        # Looked up at call time, so a wrapper installed on ``models`` sees the call.
        series = worked.fast_series_coeffs if fast else worked.slow_series_coeffs
        _, _, bar = series(model, u, k_max=m)
        phi, psi = scaling.phi(n), scaling.psi(n)
        for k in range(k0, m + 1):
            terms.append((f"k={k}", bar[k - k0] * phi * psi ** (k if fast else -k)))
    return _assemble(front, spread, terms, "series", m, lattice)


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
    return _approx("fast", model, scaling, n, u, mode, order, lattice)


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
    return _approx("slow", model, scaling, n, u, mode, order, lattice)


def approx_single_timescale(model: ModelPair, n: float, u: float) -> AsymptoticEstimate:
    """Tail approximation for phi_n = n (f = 1), where C_n is an n-fold sum.

    theta* solves ``beta'(alpha(theta)) alpha'(theta) = u`` and
    ``1/(theta* sigma_0 sqrt(2 pi n))`` is the prefactor.
    """
    _require_query(n, u)
    theta0, rate, sigma0 = _leading(model, "single", u)
    spread = theta0 * sigma0 * math.sqrt(2.0 * math.pi * n)
    return _assemble(1.0, spread, [("linear", rate * n)], "direct", None, False)


def log_asymptote(
    model: ModelPair, scaling: PowerScaling, u: float
) -> tuple[float | None, float | None]:
    """Logarithmic decay rates ``(per n, per phi_n)``; the inapplicable slot is None.

    Fast regime: ``(1/n) log xi_n -> b alpha(theta*) - theta* u``.
    Slow regime: ``(1/phi_n) log xi_n -> beta(a tau*) - tau* u``.
    At f = 1 the per-n slot carries the single-timescale rate.
    """
    require_finite(u=u)
    regime = classify(scaling).regime
    _, rate, _ = _leading(model, regime, u)
    return (None, rate) if regime == "slow" else (rate, None)
