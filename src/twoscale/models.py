"""Closed forms for the two built-in model pairs.

Both worked models admit explicit twisting factors, expansion coefficients
to every order, and an exact marginal law:

* ``poisson_gamma``  -- A Poisson(lam), B Gamma(r, mu).  C_n is negative
  binomial with successes r*phi_n and success probability mu/(mu + lam psi_n).
* ``gamma_poisson``  -- A Gamma(r, mu), B Poisson(lam).  C_n is compound
  Poisson with rate phi_n*lam and Gamma(r psi_n, mu) jumps.

Each law carries its ``lmgf``, its Esscher ``tilt`` (a law of the same kind),
its ``cdf`` and its exact ``tail``; numpy, scipy and ``oracle`` load on first use.

Writing ``rho = lam*r/(mu*u)`` (rare direction: rho < 1), the fast/slow
coefficient ladders are generated either from the printed closed forms
(poisson_gamma) or by programmatic composition of the exponential series
with the geometric series for ``1/(1 + r psi)`` (gamma_poisson).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotRareError, ParamError, require_finite
from .levy import CharExponent, ModelPair, PowerScaling

__all__ = [
    "WorkedModel",
    "NegBinLaw",
    "CompoundPoissonGammaLaw",
    "fast_series_coeffs",
    "slow_series_coeffs",
    "exact_law",
]

#: Default coefficient count; series sums stop early once a term stops
#: affecting the total at relative 1e-15.
K_MAX_DEFAULT = 50


@dataclass(frozen=True)
class WorkedModel:
    variant: str  # "poisson_gamma" | "gamma_poisson"
    lam: float
    r: float
    mu: float

    @classmethod
    def poisson_gamma(cls, lam: float, r: float, mu: float) -> "WorkedModel":
        return cls("poisson_gamma", lam, r, mu)

    @classmethod
    def gamma_poisson(cls, r: float, mu: float, lam: float) -> "WorkedModel":
        return cls("gamma_poisson", lam, r, mu)

    @classmethod
    def from_pair(cls, model: ModelPair) -> "WorkedModel | None":
        """Recognise a built-in pair; None for anything custom."""
        ka, kb = model.A.kind, model.B.kind
        if ka == "poisson" and kb == "gamma":
            return cls("poisson_gamma", model.A.params["lam"], model.B.params["r"], model.B.params["mu"])
        if ka == "gamma" and kb == "poisson":
            return cls("gamma_poisson", model.B.params["lam"], model.A.params["r"], model.A.params["mu"])
        return None

    def to_pair(self) -> ModelPair:
        if self.variant == "poisson_gamma":
            return ModelPair(CharExponent.poisson(self.lam), CharExponent.gamma(self.r, self.mu))
        return ModelPair(CharExponent.gamma(self.r, self.mu), CharExponent.poisson(self.lam))

    def rho(self, u: float) -> float:
        return self.lam * self.r / (self.mu * u)

    def _require_rare(self, u: float) -> float:
        require_finite(u=u)
        rho = self.rho(u)
        if not rho < 1:
            raise NotRareError(f"rho = lam*r/(mu*u) = {rho} must be < 1")
        return rho


def _series_exp(t: list[float], k_max: int) -> list[float]:
    """Coefficients of exp(T(x)) for T(x) = sum_{j>=1} t[j] x^j, via e' = T' e."""
    e = [1.0] + [0.0] * k_max
    for k in range(1, k_max + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += j * t[j] * e[k - j]
        e[k] = acc / k
    return e


def fast_series_coeffs(model: WorkedModel, u: float, k_max: int = K_MAX_DEFAULT):
    """(theta_star, v, vbar): twist coefficients and exponent-term coefficients.

    ``v[k-1]`` is v_k for k = 1..k_max; ``vbar[k-2]`` is the coefficient of
    ``phi_n psi_n^k`` in the tilted exponent for k = 2..k_max.
    """
    if k_max < 1:
        raise ParamError(f"k_max must be >= 1, got {k_max}")
    rho = model._require_rare(u)
    lam, r, mu = model.lam, model.r, model.mu
    if model.variant == "poisson_gamma":
        theta_star = math.log(1.0 / rho)
        z1, z2 = lam / mu, u / r
        v = [(-1.0) ** (k + 1) / k * (z1**k - z2**k) for k in range(1, k_max + 1)]
    else:
        theta_star = mu * (1.0 - rho)
        ell = math.log(1.0 / rho)
        # theta_n = mu(1 - rho^(1/(1+r psi))) = mu(1 - rho*exp(ell*s(psi))),
        # s(psi) = sum_{j>=1} (-1)^{j+1} r^j psi^j.
        t = [0.0] + [(-1.0) ** (j + 1) * r**j * ell for j in range(1, k_max + 1)]
        e = _series_exp(t, k_max)
        v = [-mu * rho * e[k] for k in range(1, k_max + 1)]
    vbar = []
    for k in range(2, k_max + 1):
        if model.variant == "poisson_gamma":
            vbar.append(-(r * v[k - 1] + u * v[k - 2]))
        else:
            vbar.append(-u * (v[k - 1] / r + v[k - 2]))
    return theta_star, tuple(v), tuple(vbar)


def slow_series_coeffs(model: WorkedModel, u: float, k_max: int = K_MAX_DEFAULT):
    """(tau_star, w, wbar): slow-regime twins of :func:`fast_series_coeffs`.

    ``w[k-1]`` is w_k for k = 1..k_max; ``wbar[k-1]`` is the coefficient of
    ``phi_n psi_n^{-k}`` for k = 1..k_max (it consumes w_{k+1}, which is
    computed internally).
    """
    if k_max < 1:
        raise ParamError(f"k_max must be >= 1, got {k_max}")
    rho = model._require_rare(u)
    lam, r, mu = model.lam, model.r, model.mu
    kk = k_max + 1  # wbar_k needs w_{k+1}
    if model.variant == "poisson_gamma":
        zb1, zb2 = mu / lam, r / u
        w = [(-1.0) ** (k + 1) / k * (zb1**k - zb2**k) for k in range(1, kk + 1)]
        tau_star = w[0]
        wbar = [-(r * w[k - 1] + u * w[k]) for k in range(1, k_max + 1)]
    else:
        ell = math.log(1.0 / rho)
        tau_star = (mu / r) * ell
        # theta_n = mu(1 - exp(T(y))), y = 1/psi, T(y) = sum (-1)^j ell y^j / r^j.
        t = [0.0] + [(-1.0) ** j * ell / r**j for j in range(1, kk + 1)]
        e = _series_exp(t, kk)
        w = [-mu * e[k] for k in range(1, kk + 1)]
        wbar = [-u * (w[k - 1] / r + w[k]) for k in range(1, k_max + 1)]
    return tau_star, tuple(w[:k_max]), tuple(wbar)


@dataclass(frozen=True)
class NegBinLaw:
    """Negative binomial: pmf(x) = C(x+k-1, x) p^k (1-p)^x on x = 0, 1, ..."""

    successes: float
    p: float

    def lmgf(self, theta: float) -> float:
        q = 1.0 - self.p
        if theta >= -math.log(q):
            raise ParamError(f"negative binomial lmgf diverges at theta = {theta}")
        return self.successes * math.log(self.p / (1.0 - q * math.exp(theta)))

    def tilt(self, theta: float) -> "NegBinLaw":
        """Esscher transform: again negative binomial, with q scaled by exp(theta)."""
        return NegBinLaw(self.successes, 1.0 - (1.0 - self.p) * math.exp(theta))

    def cdf(self, x):
        """P(X <= x) at integer x (scalar or array); 0 below 0."""
        import numpy as np
        from scipy import special

        xs = np.asarray(x, dtype=float)
        below = special.betainc(self.successes, np.maximum(xs, 0.0) + 1.0, self.p)
        out = np.where(xs < 0, 0.0, below)
        return float(out) if np.ndim(x) == 0 else out

    def tail(self, threshold: float):
        """P(X >= threshold) from :func:`oracle.negbin_tail`, threshold rounded up to a count."""
        from .oracle import negbin_tail

        return negbin_tail(self.successes, self.p, math.ceil(threshold - 1e-9))


@dataclass(frozen=True)
class CompoundPoissonGammaLaw:
    """Poisson(rate)-many iid Gamma(jump_shape, jump_rate) jumps."""

    rate: float
    jump_shape: float
    jump_rate: float

    def lmgf(self, theta: float) -> float:
        if theta >= self.jump_rate:
            raise ParamError(f"compound Poisson lmgf diverges at theta = {theta}")
        return self.rate * ((self.jump_rate / (self.jump_rate - theta)) ** self.jump_shape - 1.0)

    def tilt(self, theta: float) -> "CompoundPoissonGammaLaw":
        """Esscher transform: the rate grows and the jumps' rate drops by theta."""
        rate = self.rate * (self.jump_rate / (self.jump_rate - theta)) ** self.jump_shape
        return CompoundPoissonGammaLaw(rate, self.jump_shape, self.jump_rate - theta)

    def cdf(self, x):
        """P(X <= x) (scalar or array), summing the Poisson mixture over +-12 sigma.

        The mass outside the window is far below any tolerance used here.
        """
        import numpy as np
        from scipy import special

        rate = self.rate
        j_lo = max(1, int(rate - 12.0 * math.sqrt(rate) - 60.0))
        j_hi = int(rate + 12.0 * math.sqrt(rate) + 60.0)
        if j_hi - j_lo > 2_000_000:
            raise ParamError(
                "the exact tilted compound mixture has too many relevant terms at "
                f"this scale (Poisson rate {rate:.3g}); use a smaller n"
            )
        ys = np.atleast_1d(np.asarray(x, dtype=float))
        js = np.arange(j_lo, j_hi + 1, dtype=float)
        weights = np.exp(-rate + js * math.log(rate) - special.gammaln(js + 1.0))
        atom = math.exp(-rate) if j_lo == 1 else 0.0
        out = np.empty_like(ys)
        for i, y in enumerate(ys):
            if y < 0:
                out[i] = 0.0
                continue
            lower = special.gammainc(js * self.jump_shape, self.jump_rate * y)
            out[i] = atom + float(weights @ lower)
        return float(out[0]) if np.ndim(x) == 0 else out

    def tail(self, threshold: float):
        """P(X >= threshold) from :func:`oracle.compound_poisson_gamma_tail`."""
        from .oracle import compound_poisson_gamma_tail

        return compound_poisson_gamma_tail(self.rate, self.jump_shape, self.jump_rate, threshold)


def exact_law(model: WorkedModel, scaling: PowerScaling, n: float):
    """The exact marginal law of C_n for a worked model."""
    require_finite(n=n)
    phi, psi = scaling.phi(n), scaling.psi(n)
    lam, r, mu = model.lam, model.r, model.mu
    if model.variant == "poisson_gamma":
        return NegBinLaw(successes=r * phi, p=mu / (mu + lam * psi))
    return CompoundPoissonGammaLaw(rate=phi * lam, jump_shape=r * psi, jump_rate=mu)
