"""Tilting-equation solver and the twisting-factor expansions.

The exponential change of measure is driven by the solution ``theta_n`` of

    beta'(alpha(theta) psi_n) * alpha'(theta) = u,

equivalently ``gamma_n'(theta_n) = u*n``.  The left-hand side is the
derivative of a convex function, hence increasing, so a bracketed Newton
iteration with bisection fallback always converges once the root is
straddled.

As the timescales separate, ``theta_n`` admits power expansions:

* fast regime: ``theta_n = theta_star + sum_k v_k psi_n^k`` where
  ``theta_star`` solves ``b alpha'(theta) = u``;
* slow regime: ``theta_n = sum_k w_k psi_n^{-k}`` where ``w_1 = tau_star``
  solves ``a beta'(a tau) = u``.

Coefficients up to order 2 are produced here for any model: ``v_1``/``v_2``
by implicit differentiation of the tilting equation, ``w_2`` by Richardson
extrapolation of the solved twist map (no general closed form exists).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import (
    NoSolutionError,
    NotRareError,
    OrderError,
    ParamError,
    require_finite,
)
from .levy import ModelPair, PowerScaling, lmgf

__all__ = [
    "TwistSolution",
    "FastExpansion",
    "SlowExpansion",
    "solve_twist",
    "fast_expansion",
    "slow_expansion",
    "direct_exponent",
]

#: Relative residual the twist solver must reach (it typically lands at ~1e-16).
RESIDUAL_TOL = 1e-10

_MAX_NEWTON = 200
_MAX_EXPAND = 400


@dataclass(frozen=True)
class TwistSolution:
    """Solution of the tilting equation at a concrete (n, u)."""

    theta_n: float
    residual: float
    iterations: int
    bracket: tuple[float, float]


@dataclass(frozen=True)
class FastExpansion:
    """Fast-regime expansion; ``v[0]`` is theta_star, ``v[k]`` the psi^k coefficient."""

    theta_star: float
    v: tuple[float, ...]
    truncation_order: int


@dataclass(frozen=True)
class SlowExpansion:
    """Slow-regime expansion; ``w[0]`` is ``w_1 = tau_star``, ``w[k-1]`` the psi^{-k} coefficient."""

    tau_star: float
    w: tuple[float, ...]
    truncation_order: int


def _solve_increasing(
    g_and_slope: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    scale: float,
) -> tuple[float, float, int]:
    """Root of an increasing function g with g(lo) < 0 < g(hi).

    ``g_and_slope(x)`` returns ``(g(x), g'(x))``.  Newton steps are clamped to
    the live bracket; any step that leaves it is replaced by bisection.
    Iterates to (near) machine precision; returns (root, |g(root)|, iterations),
    where a stop on bracket collapse reports the iterations actually made and
    the best iterate seen.
    """
    x = 0.5 * (lo + hi)
    gx, dg = g_and_slope(x)
    best_x, best_g = x, abs(gx)
    for it in range(1, _MAX_NEWTON + 1):
        if gx > 0:
            hi = x
        else:
            lo = x
        if dg > 0 and math.isfinite(dg):
            cand = x - gx / dg
        else:
            cand = math.nan
        if not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        step = abs(cand - x)
        x = cand
        gx, dg = g_and_slope(x)
        if abs(gx) < best_g:
            best_x, best_g = x, abs(gx)
        if abs(gx) <= 1e-14 * scale and step <= 1e-15 * max(abs(x), 1.0):
            return x, abs(gx), it
        if hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi))):
            break
    return best_x, best_g, it


def _solved(model: ModelPair, u: float, solve: Callable[[ModelPair, float], object]):
    """``solve(model, u)``, solved once per ``(model, u)``.

    theta*, tau* and the f = 1 twist depend on the pair and ``u`` only, while
    an n ladder at fixed ``u`` asks for them at every n.  ``model._memo`` keeps
    them for the last ``u`` asked of the pair: a new ``u`` replaces the slot,
    so every value in a slot was solved for that slot's ``u``.  A solve that
    raises is not remembered.
    """
    slot = model._memo.get(u)
    if slot is None:
        model._memo.clear()
        slot = model._memo[u] = {}
    value = slot.get(solve)
    if value is None:
        value = slot[solve] = solve(model, u)
    return value


def _theta_max(model: ModelPair, psi: float, start: float | None = None) -> float | None:
    """Largest theta keeping ``alpha(theta) * psi`` inside B's domain.

    Or None when two probes prove that clamping the twist's bracket
    ``start`` into ``[1e-12, 0.99] * theta_max`` leaves it alone, that is
    theta_max lies in ``[start / 0.99, 1e12 * start]``, sparing the ~50-step
    bisection.  alpha increases on [0, inf), so ``alpha(low) < sup_b / psi``
    puts theta_max at or above ``low`` (less the bisection's 1e-15
    tolerance), and ``alpha(high) >= sup_b / psi`` (or an overflow) below
    ``high``; the margins in ``low`` and ``high`` cover the tolerance.
    """
    jA = model.A.jet
    sup_a = model.A.domain_sup
    sup_b = model.B.domain_sup
    if math.isinf(sup_b):
        return sup_a
    target = sup_b / psi
    if start is not None:
        low, high = start / 0.98, 5e11 * start
        try:
            clear = low < sup_a and jA(low, 0)[0] < target
        except OverflowError:
            clear = False
        if clear and math.isfinite(sup_a):
            clear = high >= sup_a
        elif clear:
            try:
                clear = jA(high, 0)[0] >= target
            except OverflowError:
                pass
        if clear:
            return None
    # alpha is convex with alpha'(0) = a > 0, hence increasing on [0, inf).
    hi = 1.0
    if math.isfinite(sup_a):
        hi = sup_a
        if jA(hi * (1.0 - 1e-12), 0)[0] * psi <= sup_b:
            return sup_a
    else:
        for _ in range(_MAX_EXPAND):
            if jA(hi, 0)[0] >= target:
                break
            hi *= 2.0
        else:
            return math.inf
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if jA(mid if mid < sup_a else sup_a * (1 - 1e-15), 0)[0] < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(hi, 1.0):
            break
    return lo


def _twist_at_psi(model: ModelPair, psi: float, u: float) -> TwistSolution:
    """Core solve of ``beta'(alpha(theta) psi) alpha'(theta) = u`` on (0, theta_max)."""
    A, B, jA, jB = model.A, model.B, model.A.jet, model.B.jet

    def by_order(theta: float) -> tuple[float, float]:
        # One order at a time, where a jet overflowed.  The tilted mean blows
        # past the float range well before theta_max when psi is large; that
        # still brackets the root from above, so an overflow in alpha, alpha'
        # or beta' makes g infinite, and one in a second-order term the slope.
        try:
            inner = A.deriv(theta, 0) * psi
            b1 = B.deriv(inner, 1)
            a1 = A.deriv(theta, 1)
        except OverflowError:
            return math.inf, math.inf
        try:
            slope = psi * B.deriv(inner, 2) * a1 ** 2 + b1 * A.deriv(theta, 2)
        except OverflowError:
            slope = math.inf
        return b1 * a1 - u, slope

    def g_and_slope(theta: float) -> tuple[float, float]:
        # One jet of each exponent serves g and g'; the arithmetic is the
        # same, term by term, as one order at a time.
        try:
            a0, a1, a2 = jA(theta, 2)
            _, b1, b2 = jB(a0 * psi, 2)
            return b1 * a1 - u, psi * b2 * a1 ** 2 + b1 * a2
        except OverflowError:
            return by_order(theta)

    def g(theta: float) -> float:
        return g_and_slope(theta)[0]

    # Start at theta_star + 1 when it exists, kept inside the domain edge
    # theta_max, which is computed only when it may move the start or the
    # bracket has to grow towards it.
    try:
        start = _solved(model, u, _solve_theta_star) + 1.0
    except NoSolutionError:
        start = None
    theta_max = _theta_max(model, psi, start)
    if start is None:
        start = 0.5 * theta_max if math.isfinite(theta_max) else 1.0
    hi = start
    if theta_max is not None and math.isfinite(theta_max):
        hi = max(min(start, 0.99 * theta_max), 1e-12 * theta_max)

    ghi = g(hi)
    if ghi < 0 and theta_max is None:
        theta_max = _theta_max(model, psi)
    expansions = 0
    while ghi < 0:
        expansions += 1
        if expansions > _MAX_EXPAND:
            raise NoSolutionError(
                f"the tilted mean never reaches u = {u} on the admissible bracket"
            )
        if math.isfinite(theta_max):
            new_hi = theta_max - 0.5 * (theta_max - hi)
            if theta_max - new_hi <= math.ulp(theta_max) * 4:
                raise NoSolutionError(
                    f"the tilted mean stays below u = {u} up to the domain edge {theta_max}"
                )
        else:
            new_hi = hi * 2.0
            if new_hi > 1e100 or (expansions > 60 and g(new_hi) <= ghi + 1e-300):
                raise NoSolutionError(
                    f"the tilted mean is bounded below u = {u}; no twist exists"
                )
        hi = new_hi
        ghi = g(hi)

    # g(0+) = a*b - u < 0, so the lower bracket exists for admissible u.
    lo, hi = _bracket_below(g, hi, "the twist")
    root, gabs, iters = _solve_increasing(g_and_slope, lo, hi, scale=u)
    residual = gabs / u
    if residual > RESIDUAL_TOL:
        raise NoSolutionError(
            f"twist solver stalled at relative residual {residual:.3e} (> {RESIDUAL_TOL})"
        )
    return TwistSolution(theta_n=root, residual=residual, iterations=iters, bracket=(lo, hi))


def _solve_single_twist(model: ModelPair, u: float) -> TwistSolution:
    """The twist at psi = 1, the f = 1 (single-timescale) equation."""
    return _twist_at_psi(model, 1.0, u)


def solve_twist(model: ModelPair, scaling: PowerScaling, n: float, u: float) -> TwistSolution:
    """Solve ``gamma_n'(theta) = u*n`` for the twisting factor ``theta_n``.

    Requires the rare direction ``u > a*b`` and ``n >= 1``.  The reported
    residual is ``|gamma_n'(theta_n) - u n| / (u n)``.
    """
    _require_query(n, u)
    _require_rare(model, u)
    psi = scaling.psi(n)
    if psi == 1.0:
        return _solved(model, u, _solve_single_twist)
    return _twist_at_psi(model, psi, u)


def _require_query(n: float, u: float) -> None:
    """Finite ``u`` and a finite ``n >= 1``, as every approximant needs."""
    require_finite(n=n, u=u)
    if n < 1:
        raise ParamError(f"n must be >= 1, got {n}")


def _require_rare(model: ModelPair, u: float) -> None:
    ab = model.a * model.b
    if not u > ab:
        raise NotRareError(f"u = {u} must exceed a*b = {ab} for a rare upper tail")


def _bracket_below(g: Callable[[float], float], hi: float, what: str) -> tuple[float, float]:
    """``(lo, hi)`` with ``g(lo) <= 0``, halving down from ``lo = hi / 2``.

    Every probe above the root becomes the new ``hi``, tightening the bracket.
    """
    lo = 0.5 * hi
    while g(lo) > 0:
        hi = lo
        lo *= 0.5
        if lo < 5e-324:
            raise NoSolutionError(f"failed to bracket {what} from below")
    return lo, hi


def _solve_star(g: Callable, g_and_slope: Callable, sup: float, u: float, what: str) -> float:
    """Root of the increasing ``g`` on ``(0, sup)``, where ``g(0) = a*b - u``.

    ``g`` brackets the root; ``g_and_slope`` (``g`` and ``g'`` at one point)
    drives the Newton iteration.

    The upper bracket is the domain edge ``sup (1 - 1e-12)`` when ``sup`` is
    finite, else the first of 1, 2, 4, ... up to 1e100 where ``g > 0``.  The
    root must reach a relative residual of 1e-12.
    """
    if math.isfinite(sup):
        hi = sup * (1.0 - 1e-12)
        if g(hi) < 0:
            raise NoSolutionError(f"no {what}: its equation stays below u = {u} on the domain")
    else:
        hi = 1.0
        while not g(hi) > 0:
            hi *= 2.0
            if hi > 1e100:
                raise NoSolutionError(f"no {what}: its equation appears bounded below u = {u}")
    lo, hi = _bracket_below(g, hi, what)
    root, gabs, _ = _solve_increasing(g_and_slope, lo, hi, scale=u)
    if gabs / u > 1e-12:
        raise NoSolutionError(f"{what} solve stalled at residual {gabs / u:.3e}")
    return root


def _solve_theta_star(model: ModelPair, u: float) -> float:
    """Solve ``b alpha'(theta) = u`` on (0, A.domain_sup)."""
    jA, b = model.A.jet, model.b

    def g_and_slope(theta: float) -> tuple[float, float]:
        _, a1, a2 = jA(theta, 2)
        return b * a1 - u, b * a2

    return _solve_star(
        lambda theta: b * jA(theta, 1)[1] - u, g_and_slope, model.A.domain_sup, u, "theta_star"
    )


def _solve_tau_star(model: ModelPair, u: float) -> float:
    """Solve ``a beta'(a tau) = u`` on (0, B.domain_sup / a)."""
    jB, a = model.B.jet, model.a

    def g_and_slope(tau: float) -> tuple[float, float]:
        _, b1, b2 = jB(a * tau, 2)
        return a * b1 - u, a * a * b2

    return _solve_star(
        lambda tau: a * jB(a * tau, 1)[1] - u, g_and_slope, model.B.domain_sup / a, u, "tau_star"
    )


def fast_expansion(model: ModelPair, u: float, order: int = 2) -> FastExpansion:
    """Expansion coefficients of ``theta_n`` in powers of ``psi_n`` (fast regime).

    Implicit differentiation of the tilting equation at ``psi = 0`` gives

        v_1 = -(alpha alpha'/alpha'')(theta*) * beta''(0)/beta'(0)

    and, collecting the order-psi^2 terms,

        v_2 = -[ b alpha'''(t*) v1^2 / 2
                 + beta''(0) v1 (alpha(t*) alpha''(t*) + alpha'(t*)^2)
                 + beta'''(0) alpha(t*)^2 alpha'(t*) / 2 ] / (b alpha''(t*)).
    """
    if order not in (0, 1, 2):
        raise OrderError(f"fast expansion supports orders 0..2, got {order}")
    require_finite(u=u)
    _require_rare(model, u)
    theta_star = _solved(model, u, _solve_theta_star)
    coeffs = [theta_star]
    if order >= 1:
        ja, jb = model.A.jet(theta_star, order + 1), model.B.jet(0.0, order + 1)
        a0, a1, a2 = ja[:3]
        b1, b2 = model.b, jb[2]
        v1 = -(a0 * a1 / a2) * (b2 / b1)
        coeffs.append(v1)
        if order >= 2:
            a3, b3 = ja[3], jb[3]
            v2 = -(
                0.5 * b1 * a3 * v1 * v1
                + b2 * v1 * (a0 * a2 + a1 * a1)
                + 0.5 * b3 * a0 * a0 * a1
            ) / (b1 * a2)
            coeffs.append(v2)
    return FastExpansion(theta_star=theta_star, v=tuple(coeffs), truncation_order=order)


def slow_expansion(model: ModelPair, u: float, order: int = 2) -> SlowExpansion:
    """Expansion coefficients of ``theta_n`` in powers of ``1/psi_n`` (slow regime).

    ``w_1 = tau_star`` solves ``a beta'(a tau) = u``.  ``w_2`` has no printed
    general closed form; it is extracted by Richardson-extrapolated
    differentiation of the solved twist map ``x -> theta(psi = 1/x)`` at
    ``x -> 0`` using the nodes ``{h, h/2, h/4}``.
    """
    if order not in (1, 2):
        raise OrderError(f"slow expansion supports orders 1..2, got {order}")
    require_finite(u=u)
    _require_rare(model, u)
    tau_star = _solved(model, u, _solve_tau_star)
    coeffs = [tau_star]
    if order >= 2:
        def curved(x: float) -> float:
            theta = _twist_at_psi(model, 1.0 / x, u).theta_n
            return (theta - tau_star * x) / (x * x)

        # Step scaled to the expansion's own curvature: pilot w2 at x0 sets
        # the x-scale on which the tau* term dominates, h = 1e-3 of it.
        x0 = 1e-2
        w2_pilot = curved(x0)
        scale = abs(tau_star / w2_pilot) if w2_pilot != 0 else 1.0
        h = 1e-3 * min(max(scale, 1e-2), 10.0)
        g_h, g_h2, g_h4 = curved(h), curved(h / 2), curved(h / 4)
        r1, r2 = 2.0 * g_h2 - g_h, 2.0 * g_h4 - g_h2
        coeffs.append((4.0 * r2 - r1) / 3.0)
    return SlowExpansion(tau_star=tau_star, w=tuple(coeffs), truncation_order=order)


def direct_exponent(model: ModelPair, scaling: PowerScaling, n: float, u: float) -> float:
    """The exact tilted exponent ``gamma_n(theta_n) - theta_n u n``.

    This equals the full expansion of either regime including every sublinear
    term and the o(1) remainder, with no truncation error by construction.
    """
    sol = solve_twist(model, scaling, n, u)
    return lmgf(model, scaling, n, sol.theta_n, 0) - sol.theta_n * u * n
