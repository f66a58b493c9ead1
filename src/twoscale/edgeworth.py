"""Leading-order Edgeworth corrections for the tilted, standardized count.

Under the twisted measure the standardized variable (mean 0, variance -> 1)
admits a normal approximation with Hermite-polynomial corrections.  Only the
leading printed coefficients are implemented:

* the skewness term ``H_2(x) kappa / sqrt(scale)`` in both regimes, and
* on the weak-separation branches, one location term ``H_1(x) c_1 * rate``.

Coefficients of the higher location terms exist but have no printed form and
are deliberately not guessed; the branch classification is still exact.

:func:`diagnostic` compares the expansion with the exact CDF of the tilted
count, ``exact_law(...).tilt(theta_n).cdf``, the natural oracle (the Esscher
transform of a negative binomial is again negative binomial).  Comparisons
at its jump points should use a half-integer continuity correction; no
lattice correction is applied to the expansion itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .asymptotics import classify
from .errors import ParamError, RegimeError, _in_float_range, require_finite
from .levy import ModelPair, PowerScaling
from .oracle import NegBinLaw, _worked, exact_law
from .twist import _leading, _require_query, fast_expansion, slow_expansion, solve_twist

__all__ = [
    "EdgeworthExpansion",
    "EdgeworthDiagnostic",
    "hermite",
    "build_expansion",
    "tilted_cdf_approx",
    "standardization",
    "diagnostic",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


def hermite(k: int, x):
    """Probabilists' Hermite polynomial H_k, k <= 3: phi^(k)(x) = (-1)^k H_k(x) phi(x)."""
    if k == 0:
        return np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 1.0
    if k == 1:
        return x
    if k == 2:
        return x * x - 1.0
    if k == 3:
        return x * (x * x - 3.0)
    raise ParamError(f"hermite implemented for k <= 3, got {k}")


@dataclass(frozen=True)
class EdgeworthExpansion:
    """Correction coefficients and the branch they apply to.

    ``kappa`` multiplies ``phi(x) H_2(x) / sqrt(n)`` (fast) or
    ``.. / sqrt(phi_n)`` (slow).  ``c1`` is present only on the branches whose
    location term survives (``psi_n sqrt(n)`` bounded away from 0, resp.
    ``phi_n^{3/2}/n``).  Both are finite: :class:`ParamError` otherwise.
    """

    regime: str
    kappa: float
    c1: float | None
    applicable_branch: str

    def __post_init__(self) -> None:
        require_finite(kappa=self.kappa, c1=0.0 if self.c1 is None else self.c1)


@_in_float_range
def build_expansion(model: ModelPair, scaling: PowerScaling, u: float) -> EdgeworthExpansion:
    """Compute kappa and (on the weak-separation branch) c_1 for the regime of f."""
    require_finite(u=u)
    info = classify(scaling)
    if info.regime == "single":
        raise RegimeError("Edgeworth corrections are defined for f != 1")
    if info.regime == "fast":
        b = model.b
        a0, a1, a2, a3 = model.A.jet(fast_expansion(model, u, order=0).theta_star, 3)
        sigma_sq = b * a2
        kappa = (b * a3) / (6.0 * sigma_sq**1.5)
        # psi_n sqrt(n) = n^(3/2 - f) vanishes iff f > 3/2, i.e. k_plus = 0.
        if info.k_plus == 0:
            return EdgeworthExpansion("fast", kappa, None, "small_psi_sqrt_n")
        b2 = model.B.jet(0.0, 2)[2]
        gamma_circ = b2 * a1 ** 2 + b2 * a0 * a2 + b * a3 * fast_expansion(model, u, order=1).v[1]
        return EdgeworthExpansion("fast", kappa, gamma_circ / (2.0 * sigma_sq), "large_psi_sqrt_n")
    tau = slow_expansion(model, u, order=1).tau_star
    a = model.a
    _, b1, b2, b3 = model.B.jet(a * tau, 3)
    sigma_sq = a * a * b2
    kappa = (b3 * a**3) / (6.0 * sigma_sq**1.5)
    # phi_n^{3/2}/n = n^(3f/2 - 1) vanishes iff f < 2/3, i.e. k_minus = 0.
    if info.k_minus == 0:
        return EdgeworthExpansion("slow", kappa, None, "small_phi32_over_n")
    a2 = model.A.jet(0.0, 2)[2]
    gamma_circ = (
        b1 * a2
        + 2.0 * a * a2 * b2 * tau
        + 0.5 * a * a * a2 * b3 * tau * tau
        + a**3 * b3 * slow_expansion(model, u, order=2).w[1]
    )
    return EdgeworthExpansion("slow", kappa, gamma_circ / (2.0 * sigma_sq), "large_phi32_over_n")


def tilted_cdf_approx(model: ModelPair, scaling: PowerScaling, n: float, u: float, x):
    """Edgeworth CDF approximation for the tilted standardized count at x.

    Accepts scalar or array x.  Fast regime, strong separation:
    ``Phi(x) - phi(x) H_2(x) kappa / sqrt(n)``; weak separation subtracts
    additionally ``phi(x) H_1(x) c_1 psi_n``.  Slow regime analogously with
    ``sqrt(phi_n)`` and ``c_1 / psi_n``.
    """
    require_finite(n=n)
    expansion = build_expansion(model, scaling, u)
    fast = expansion.regime == "fast"
    xs = np.asarray(x, dtype=float)
    # Past |x| = 40 the density is 0.0 clipped or not; unclipped, x * x
    # overflows past ~1.3e154 and 0 * inf gives NaN.
    xc = np.clip(xs, -40.0, 40.0)
    dens = np.exp(-0.5 * xc * xc) / _SQRT2PI
    corr = hermite(2, xc) * (expansion.kappa / math.sqrt(n if fast else scaling.phi(n)))
    if expansion.c1 is not None:
        psi = scaling.psi(n)
        corr = corr + hermite(1, xc) * (expansion.c1 * psi if fast else expansion.c1 / psi)
    out = special.ndtr(xs) - dens * corr
    return float(out) if np.ndim(x) == 0 else out


def standardization(model: ModelPair, scaling: PowerScaling, n: float, u: float) -> tuple[float, float]:
    """(mean, scale) of the tilted count's standardization: mean u*n, scale by regime.

    A query that is not finite, or has ``n < 1``, raises ParamError.
    """
    _require_query(n, u)
    regime = classify(scaling).regime
    if regime == "single":
        raise RegimeError("standardization is defined for f != 1")
    if regime == "fast":
        # sigma_plus * sqrt(n) would round differently from the one square root.
        ts, _, _ = _leading(model, "fast", u)
        scale = math.sqrt(model.b * model.A.jet(ts, 2)[2] * n)
    else:
        _, _, sigma = _leading(model, "slow", u)
        scale = sigma * scaling.psi(n) * math.sqrt(scaling.phi(n))
    return u * n, scale


@dataclass(frozen=True)
class EdgeworthDiagnostic:
    """Approximation-vs-exact comparison rows (x, approx, exact) and their sup gap."""

    rows: tuple[tuple[float, float, float], ...]
    sup_gap: float


def diagnostic(
    model: ModelPair,
    scaling: PowerScaling,
    n: float,
    u: float,
    x_min: float = -6.0,
    x_max: float = 6.0,
    points: int | None = None,
) -> EdgeworthDiagnostic:
    """Compare the Edgeworth CDF with the exact tilted CDF on a standardized grid.

    For the lattice (poisson_gamma) variant the comparison runs over the
    count lattice inside [x_min, x_max], with the approximation evaluated at
    half-integer-corrected positions; the continuous (gamma_poisson) variant
    is compared pointwise.  ``points`` overrides the grid size (lattice
    variant: subsamples the lattice).
    """
    require_finite(x_min=x_min, x_max=x_max)
    if points is not None and points < 1:
        raise ParamError(f"points must be >= 1, got {points}")
    _worked(model, "the Edgeworth diagnostic")
    mean, scale = standardization(model, scaling, n, u)
    if not scale > 0:
        raise ParamError(f"the standardization scale {scale} at u = {u} is not positive")
    law = exact_law(model, scaling, n).tilt(solve_twist(model, scaling, n, u).theta_n)
    if isinstance(law, NegBinLaw):
        top = mean + x_max * scale
        if not math.isfinite(top):
            raise ParamError(f"x_max = {x_max} puts the grid's upper edge at {top}")
        start = int(math.floor(max(mean + x_min * scale, 0.0)))
        size = int(math.ceil(top)) + 1 - start
        if size < 1:
            raise ParamError(f"no count lies in the grid [x_min, x_max] = [{x_min}, {x_max}]")
        if points is not None and size > points:
            # The lattice subsampled without building it: count i of the
            # full grid is start + i.
            counts = float(start) + np.floor(np.linspace(0.0, float(size - 1), points))
        else:
            counts = np.arange(start, start + size, dtype=float)
        xs = (counts + 0.5 - mean) / scale
        exact = law.cdf(counts)
    else:
        xs = np.linspace(x_min, x_max, points if points is not None else 241)
        exact = law.cdf(mean + xs * scale)
    approx = tilted_cdf_approx(model, scaling, n, u, xs)
    gaps = np.abs(approx - exact)
    rows = tuple(
        (float(x), float(a), float(e)) for x, a, e in zip(xs, approx, exact)
    )
    return EdgeworthDiagnostic(rows=rows, sup_gap=float(np.max(gaps)))
