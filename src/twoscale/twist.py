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
extrapolation of the solved twist map (a closed form exists; it is unused).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import NoSolutionError, NotRareError, OrderError, ParamError, require_finite
from .levy import CharExponent, ModelPair, PowerScaling, _composed_jet

__all__ = [
    "TwistSolution",
    "FastExpansion",
    "SlowExpansion",
    "solve_twist",
    "fast_expansion",
    "slow_expansion",
]

#: Relative residual the twist solver must reach (it typically lands at ~1e-16).
RESIDUAL_TOL = 1e-10

_MAX_NEWTON = 200
_MAX_EXPAND = 400
#: The least ``top`` whose grid step ``top 2**-50`` is a normal float.
_MIN_TOP = 2.0 ** -972


@dataclass(frozen=True)
class TwistSolution:
    """Solution of the tilting equation at a concrete (n, u), and ``gamma_n(theta_n)``."""

    theta_n: float
    residual: float
    iterations: int
    bracket: tuple[float, float]
    log_mgf: float


@dataclass(frozen=True)
class FastExpansion:
    """Fast-regime expansion; ``v[0]`` is theta_star, ``v[k]`` the psi^k coefficient, all finite."""

    theta_star: float
    v: tuple[float, ...]
    truncation_order: int

    def __post_init__(self) -> None:
        require_finite(**{f"v[{k}]": c for k, c in enumerate(self.v)})


@dataclass(frozen=True)
class SlowExpansion:
    """Slow-regime expansion; ``w[0]`` is ``w_1 = tau_star``, ``w[k-1]`` the psi^{-k} coefficient."""

    tau_star: float
    w: tuple[float, ...]
    truncation_order: int

    def __post_init__(self) -> None:
        require_finite(**{f"w[{k}]": c for k, c in enumerate(self.w)})


def _solve_increasing(
    jet: Callable[[float], tuple[float, float, float]],
    u: float,
    hi: float,
    edge: Callable[[], float],
    what: str,
    tol: float,
) -> tuple[float, float, int, tuple[float, float], float, float]:
    """Root of the increasing ``g(x) = F'(x) - u`` on ``(0, edge())``, bracketed from ``hi``.

    ``jet(x)`` returns ``(F(x), F'(x), F''(x))``.  While ``g(hi) < 0`` the
    upper end grows: halfway to a finite ``edge()``, else by doubling, until
    1e100 or, after 60 doublings, until ``g`` stops growing.  ``edge()`` is
    asked once, and only when the bracket has to grow.  The lower end is
    found by halving down from ``hi / 2``, each probe above the root
    becoming ``hi``.  Newton steps are clamped to the live bracket; any step
    that leaves it is replaced by bisection.  Returns (root, |g(root)| / u,
    iterations, bracket, F(root), F''(root)); a stop on bracket collapse
    reports the iterations made and the best iterate seen.  Raises
    NoSolutionError where either end cannot be found or the relative
    residual exceeds ``tol``.
    """
    g, top, grown = jet(hi)[1] - u, None, 0
    while g < 0:
        grown += 1
        if top is None:
            top = edge()
        if math.isfinite(top):
            hi = top - 0.5 * (top - hi)
            if top - hi <= math.ulp(top) * 4:
                raise NoSolutionError(
                    f"{what}: the equation stays below u = {u} up to the domain edge {top}")
            g = jet(hi)[1] - u
        else:
            hi, g_below = hi * 2.0, g
            if hi <= 1e100:
                g = jet(hi)[1] - u
            if hi > 1e100 or (grown > 60 and g <= g_below + 1e-300):
                raise NoSolutionError(f"{what}: the equation is bounded below u = {u}")
    lo = 0.5 * hi
    while jet(lo)[1] > u:
        hi = lo
        lo *= 0.5
        if lo < 5e-324:
            raise NoSolutionError(f"failed to bracket {what} from below")
    bracket = (lo, hi)
    x = 0.5 * (lo + hi)
    fx, gx, dg = jet(x)
    gx -= u
    best_x, best_g, best_f, best_d = x, abs(gx), fx, dg
    for it in range(1, _MAX_NEWTON + 1):
        if gx > 0:
            hi = x
        else:
            lo = x
        # An infinite slope steps to x itself, an end of the bracket: bisection.
        cand = x - gx / dg if dg > 0 else math.nan
        if not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        step = abs(cand - x)
        x = cand
        fx, gx, dg = jet(x)
        gx -= u
        converged = abs(gx) <= 1e-14 * u and step <= 1e-15 * max(abs(x), 1.0)
        if converged or abs(gx) < best_g:  # a converged iterate is returned as is
            best_x, best_g, best_f, best_d = x, abs(gx), fx, dg
        if converged or hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi))):
            break
    residual = best_g / u
    if residual > tol:
        raise NoSolutionError(f"{what} stalled at relative residual {residual:.3e} (> {tol})")
    return best_x, residual, it, bracket, best_f, best_d


def _solved(model: ModelPair, u: float, regime: str) -> tuple[float, float, float]:
    """A regime's leading ``(twist, rate, sigma)`` at a rare ``u``, read off its own root solve.

    fast: ``theta*``, ``b alpha(theta*) - theta* u``, sigma_plus; slow: ``tau*``,
    ``beta(a tau*) - tau* u``, sigma_minus (one jet of B); single: the f = 1
    twist ``t0``, ``beta(alpha(t0)) - t0 u`` and sigma_0, with
    ``sigma_0^2 = beta''(alpha(t0)) alpha'(t0)^2 + beta'(alpha(t0)) alpha''(t0)``.
    The rate, per unit of the regime's clock (n, phi_n, n), is not checked.
    An n ladder at fixed ``u`` asks for these at every n, so ``model._memo``
    keeps them for the last ``u`` asked of the pair; a new ``u`` replaces the
    slot.  A solve that raises is not remembered.
    """
    slot = model._memo.get(u)
    if slot is None:
        model._memo.clear()
        slot = model._memo[u] = {}
    triple = slot.get(regime)
    if triple is None:
        _require_rare(model, u)
        if regime == "fast":  # the star jet's slope is (b * 1.0) * alpha'', bitwise b * alpha''
            twist, value, slope = _solve_star(model.A, model.b, 1.0, u, "theta_star")
            value *= model.b
        elif regime == "slow":  # a sqrt(beta'') rounds unlike the star jet's sqrt(a^2 beta'')
            twist = _solve_star(model.B, model.a, model.a, u, "tau_star")[0]
            value, _, slope = model.B.jet(model.a * twist, 2)
        else:
            twist, *_, value, slope = _twist_at_psi(model, u)
        if slope < 0:
            raise ParamError(f"the {regime} curvature at the twist is {slope} < 0: not convex")
        sigma = math.sqrt(slope)
        triple = slot[regime] = twist, value - twist * u, model.a * sigma if regime == "slow" else sigma
    return triple


def _theta_max(model: ModelPair, psi: float, start: float | None = None) -> float | None:
    """Largest theta keeping ``alpha(theta) * psi`` inside B's domain.

    Or None when two probes prove that clamping the twist's bracket
    ``start`` into ``[1e-12, 0.99] * theta_max`` leaves it alone, that is
    theta_max lies in ``[start / 0.99, 1e12 * start]``, sparing the search
    for the edge.  alpha increases on [0, inf), so ``alpha(low) < sup_b / psi``
    puts theta_max at or above ``low`` (less one step of :func:`_grid_edge`'s
    grid), and ``alpha(high) >= sup_b / psi`` below ``high``; the margins in
    ``low`` and ``high`` cover that step.  Else the edge is read off the grid
    under ``top``: ``sup_a (1 - 1e-12)`` where A's domain is finite, else the
    first power of two >= 1 whose alpha reaches ``sup_b / psi``, which makes
    it bit for bit the edge a bisection of ``[0, top]`` returns.
    """
    jA = model.A.jet
    sup_a = model.A.domain_sup
    sup_b = model.B.domain_sup
    if math.isinf(sup_b):
        return sup_a
    target = sup_b / psi
    if start is not None:
        low, high = start / 0.98, 5e11 * start
        if low < sup_a and jA(low, 0)[0] < target and (
            high >= sup_a if math.isfinite(sup_a) else jA(high, 0)[0] >= target
        ):
            return None
    # alpha is convex with alpha'(0) = a > 0, hence increasing on [0, inf).
    if math.isfinite(sup_a):
        top = sup_a * (1.0 - 1e-12)
        if jA(top, 0)[0] * psi <= sup_b:
            return sup_a
    else:
        top = 1.0
        for _ in range(_MAX_EXPAND):
            if jA(top, 0)[0] >= target:
                break
            top *= 2.0
        else:
            return math.inf
    return _grid_edge(jA, model.a, target, top)


def _grid_edge(jA: Callable, a: float, target: float, top: float) -> float:
    """The largest ``j g`` with ``alpha(j g) < target``, ``g = top 2**-50``, or a half step above.

    ``j = 0`` and ``j = 2**50`` count as below and not below ``target``
    unevaluated; the midpoint of ``j g`` and ``(j + 1) g`` is returned where
    ``g > 1e-15 max((j + 1) g, 1)`` and alpha is below ``target`` there.  For a
    power of two ``top >= 1`` with ``alpha(top / 2) < target`` (if ``top >= 2``)
    that is bit for bit the edge a bisection of ``[0, top]`` to ``hi - lo <=
    1e-15 max(hi, 1)`` returns.  Newton from ``min(top, target / a)``, right of
    the root as alpha is convex with ``alpha(x) >= a x``, guesses ``j``; a
    galloping search brackets it from the guess, or from ``2**49`` where Newton
    leaves ``[0, top]``, and bisects on ``j``.  An end at ``j = 0`` puts the edge
    under ``g``; ``g`` halves until it brackets the edge in ``[g / 2, g)``, and
    the search runs again under it, on a step within ``2**-49`` of the edge.
    The halving stops at :data:`_MIN_TOP`: an edge under that top's grid reads
    0.0, and so does a target of 0.0, which no ``g`` brackets.
    """
    x = min(top, target / a)
    for _ in range(_MAX_NEWTON):
        a0, a1 = jA(x, 1)
        step = (a0 - target) / a1 if a1 > 0 else math.nan
        x -= step
        if not (0.0 <= x <= top and abs(step) > top * 2.0 ** -52):
            break
    g, size = top * 2.0 ** -50, 2 ** 50
    lo, hi = 0, size
    j, stride = (min(max(int(x / g), 1), size - 1), 1) if 0.0 <= x <= top else (size // 2, size)
    while hi - lo > 1:
        if jA(j * g, 0)[0] < target:
            lo, j = j, j + stride
        else:
            hi, j = j, j - stride
        stride *= 2
        if not lo < j < hi:  # bracketed: bisect
            j, stride = (lo + hi) // 2, hi - lo
    if lo == 0 and g > _MIN_TOP:  # the edge lies under the first grid point: search again under it
        while 0.5 * g > _MIN_TOP and jA(0.5 * g, 0)[0] >= target:
            g *= 0.5
        return _grid_edge(jA, a, target, g)
    lo, hi = lo * g, hi * g
    mid = 0.5 * (lo + hi)  # the 51st step
    return mid if hi - lo > 1e-15 * max(hi, 1.0) and jA(mid, 0)[0] < target else lo


def _twist_at_psi(model: ModelPair, u: float, psi: float = 1.0) -> tuple:
    """Core solve of ``beta'(alpha(theta) psi) alpha'(theta) = u`` on (0, theta_max).

    Returns ``(root, residual, iterations, bracket, gamma_n(root) / phi_n,
    gamma_n''(root) / n)``, none of which depends on n.  At psi = 1 it is the
    f = 1 (single-timescale) twist.
    """
    jet = _composed_jet(model, psi)  # [1] = gamma_n'/n, [2] its slope; +inf brackets the root
    # Start at theta_star + 1 when it exists, kept inside the domain edge
    # theta_max, which is computed only when it may move the start or the
    # bracket has to grow towards it.
    try:
        start = _solved(model, u, "fast")[0] + 1.0
    except NoSolutionError:
        start = None
    theta_max = _theta_max(model, psi, start)
    if start is None:
        start = 0.5 * theta_max if math.isfinite(theta_max) else 1.0
    if theta_max is not None and math.isfinite(theta_max):
        start = max(min(start, 0.99 * theta_max), 1e-12 * theta_max)
    # g(0+) = a*b - u < 0, so the lower bracket exists for admissible u.
    edge = (lambda: theta_max) if theta_max is not None else (lambda: _theta_max(model, psi))
    return _solve_increasing(jet, u, start, edge, "the twist", RESIDUAL_TOL)


def solve_twist(model: ModelPair, scaling: PowerScaling, n: float, u: float) -> TwistSolution:
    """Solve ``gamma_n'(theta) = u*n`` for the twisting factor ``theta_n``.

    Requires the rare direction ``u > a*b`` and ``n >= 1``.  The reported
    residual is ``|gamma_n'(theta_n) - u n| / (u n)``; ``log_mgf``, from the solver's
    last jet, reads +inf where only B's value overflows, which the root never needs.
    """
    _require_query(n, u)
    _require_rare(model, u)
    *root, value, _ = _twist_at_psi(model, u, scaling.psi(n))
    return TwistSolution(*root, value * scaling.phi(n))


def _require_query(n: float, u: float) -> None:
    """Finite ``u`` and a finite ``n >= 1``, as every approximant needs."""
    require_finite(n=n, u=u)
    if n < 1:
        raise ParamError(f"n must be >= 1, got {n}")


def _require_rare(model: ModelPair, u: float) -> None:
    ab = model.a * model.b
    if not u > ab:
        raise NotRareError(f"u = {u} must exceed a*b = {ab} for a rare upper tail")


def _solve_star(E: CharExponent, c: float, k: float, u: float, what: str) -> tuple[float, float, float]:
    """Root, ``E(k x)`` and slope ``c k E''(k x)`` of the increasing ``g(x) = c E'(k x) - u``.

    The root lies on ``(0, E.domain_sup / k)``; ``g(0) = a*b - u``.  Where
    ``E'`` lies past the float range its jet reads +inf, and so does ``g``;
    where only ``E''`` does, the slope.

    Where ``sup`` is finite, the one probe ``sup (1 - 1e-12)`` is both the
    start and the edge, so that point alone is tried (one closer to ``sup``
    could round ``k x`` onto E's domain edge); else the bracket doubles up
    from 1.  The root must reach a relative residual of 1e-12.
    """
    def jet(x: float) -> tuple[float, float, float]:
        e0, e1, e2 = E.jet(k * x, 2)
        return e0, c * e1, c * k * e2

    edge = E.domain_sup / k * (1.0 - 1e-12)
    hi = edge if math.isfinite(edge) else 1.0
    root, *_, value, slope = _solve_increasing(jet, u, hi, lambda: edge, what, 1e-12)
    return root, value, slope


def _leading(model: ModelPair, regime: str, u: float) -> tuple[float, float, float]:
    """:func:`_solved`'s ``(twist, rate, sigma)``; a rate past the float range raises ParamError."""
    twist, rate, sigma = _solved(model, u, regime)
    if not math.isfinite(rate):
        raise ParamError(f"the {regime}-regime rate {rate} at u = {u} lies past the float range")
    return twist, rate, sigma


def fast_expansion(model: ModelPair, u: float, order: int = 2) -> FastExpansion:
    """Expansion coefficients of ``theta_n`` in powers of ``psi_n`` (fast regime).

    Implicit differentiation of the tilting equation at ``psi = 0`` gives

        v_1 = -(alpha alpha'/alpha'')(theta*) * beta''(0)/beta'(0)

    and, collecting the order-psi^2 terms,

        v_2 = -[ b alpha'''(t*) v1^2 / 2
                 + beta''(0) v1 (alpha(t*) alpha''(t*) + alpha'(t*)^2)
                 + beta'''(0) alpha(t*)^2 alpha'(t*) / 2 ] / (b alpha''(t*)).

    Raises :class:`ParamError` where a coefficient is not finite.
    """
    if order not in (0, 1, 2):
        raise OrderError(f"fast expansion supports orders 0..2, got {order}")
    require_finite(u=u)
    _require_rare(model, u)
    theta_star = _solved(model, u, "fast")[0]
    coeffs = [theta_star]
    if order >= 1:
        ja, jb = model.A.jet(theta_star, order + 1), model.B.jet(0.0, order + 1)
        a0, a1, a2 = ja[:3]
        if a2 == 0.0:
            raise ParamError(f"alpha''(theta*) underflows to 0 at u = {u}; v_1 is not finite")
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
    ``x -> 0`` using the nodes ``{h, h/2, h/4}``.  Raises :class:`ParamError`
    where a coefficient is not finite.
    """
    if order not in (1, 2):
        raise OrderError(f"slow expansion supports orders 1..2, got {order}")
    require_finite(u=u)
    _require_rare(model, u)
    tau_star = _solved(model, u, "slow")[0]
    coeffs = [tau_star]
    if order >= 2:
        def curved(x: float) -> float:
            theta = _twist_at_psi(model, u, 1.0 / x)[0]
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
