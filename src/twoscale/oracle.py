"""Ground-truth tail probabilities: exact laws, exact summations and Monte Carlo.

Exact laws
----------
``exact_law`` gives the law of C_n for a built-in pair (negative binomial, or
compound Poisson-Gamma).  Each law owns its ``lmgf``, its Esscher ``tilt``
(refused where the lmgf diverges), its ``cdf`` and its exact ``tail`` below.

Exact oracles
-------------
``negbin_tail`` sums the negative-binomial pmf in log space (a numpy
log-sum-exp per block), outward from the in-range mode, with a rigorous
geometric bound on the discarded tail, so its *log* probabilities stay accurate
far below the float underflow; a pmf past the float range raises ParamError.
``compound_poisson_gamma_tail`` mixes regularized upper incomplete gamma tails
over a Poisson count, truncated when the remaining Poisson mass provably cannot matter.
Each, and the compound ``cdf`` over all its points, raises ParamError past ``_MAX_TERMS`` terms.

Monte Carlo
-----------
``is_tail`` samples under the exponentially twisted measure (the tilt that
centres the count at the threshold) and averages the likelihood ratio
``exp(gamma_n(theta_n) - theta_n * C)`` over the exceedance event; this keeps
the relative error bounded for arbitrarily rare events.  ``plain_mc_tail`` is
the same sampler at tilt 0, the naive estimator, intended only near the mean.
Both split the sample budget across ``workers`` independently seeded
substreams, run one after another, so a fixed (seed, workers) pair reproduces
bit-identical results; numpy's generators use exact (transformed-rejection)
Poisson sampling, no normal approximation.  A Poisson rate past numpy's limit
(about 9.2e18) raises ParamError.

scipy is imported where it is called: ``gammaln`` (Stirling errors below 16
counts, the compound ``cdf``), ``gammaincc``/``gammainc`` and ``betainc``.
Block reductions are numpy, so the Monte Carlo estimators load numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParamError, _exp_of_log, require_finite
from .levy import ModelPair, PowerScaling
from .models import _builtin
from .twist import solve_twist

__all__ = [
    "OracleResult",
    "RigorousBound",
    "StatisticalBound",
    "NegBinLaw",
    "CompoundPoissonGammaLaw",
    "exact_law",
    "negbin_tail",
    "compound_poisson_gamma_tail",
    "is_tail",
    "plain_mc_tail",
]

_BLOCK = 4096
#: The most terms one exact sum may take; past it the oracle raises ParamError.
_MAX_TERMS = 2_000_000
_NEGBIN_REL_BOUND = 1e-15
_COMPOUND_ABS_BOUND = 1e-14
#: numpy's largest Poisson rate, ``int64 max - 10 sqrt(int64 max)``; it raises
#: ValueError for any rate above this.
_POISSON_RATE_MAX = (2**63 - 1) - 10.0 * math.sqrt(2**63 - 1)

# --- uniformly accurate log-pmfs ------------------------------------------
# Naive gammaln differences lose ~|lgamma| * eps absolute accuracy, which is
# ~1e-12 once the arguments reach 1e4.  The Stirling-error / deviance split
# (the classical saddle-point pmf evaluation) keeps every pmf at ~1e-15
# relative error regardless of size, which the complementarity and rigorous
# bound contracts rely on.

_LOG_2PI = math.log(2.0 * math.pi)
#: A log weight below this makes ``exp`` return exactly 0.0 (it flushes below
#: about -745.13), with a margin for the rounding of the weight itself.
_LOG_NIL = -750.0


def _stirlerr(n: float | np.ndarray) -> np.ndarray:
    """log(n!) - (n log n - n + log(2 pi n)/2), for real n >= 1."""
    from scipy import special

    n = np.asarray(n, dtype=float)
    out = np.empty_like(n)
    small = n < 16.0
    if small.any():
        ns = n[small]
        out[small] = special.gammaln(ns + 1.0) - (ns * np.log(ns) - ns + 0.5 * np.log(2.0 * np.pi * ns))
    big = ~small
    if big.any():
        nb = n[big]
        with np.errstate(over="ignore"):  # past n ~ 1.3e154, 1 / inf = 0 is the limit wanted
            inv2 = 1.0 / np.square(nb)
        out[big] = (
            1.0 / 12.0
            - (1.0 / 360.0 - (1.0 / 1260.0 - (1.0 / 1680.0 - inv2 / 1188.0) * inv2) * inv2) * inv2
        ) / nb
    return out


def _bd0(x: float | np.ndarray, m: np.ndarray) -> np.ndarray:
    """Binomial deviance x log(x/m) + m - x for x > 0, evaluated without cancellation."""
    x, m = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(m, dtype=float))
    out = np.empty(x.shape)
    near = np.abs(x - m) < 0.1 * (x + m)
    far = ~near
    xf, mf = x[far], m[far]
    log_ratio = np.log(xf / mf)
    over = log_ratio == np.inf  # x / m overflowed at a subnormal m; log x - log m does not
    log_ratio[over] = np.log(xf[over]) - np.log(mf[over])
    out[far] = xf * log_ratio + mf - xf
    if near.any():
        xn, mn = x[near], m[near]
        v = (xn - mn) / (xn + mn)
        s = (xn - mn) * v
        ej = 2.0 * xn * v
        v2 = v * v
        for j in range(1, 1000):
            ej = ej * v2
            s_next = s + ej / (2 * j + 1)
            if np.all(s_next == s):
                break
            s = s_next
        out[near] = s
    return out


@dataclass(frozen=True)
class RigorousBound:
    """Absolute truncation bound; the true error is provably smaller."""

    bound: float


@dataclass(frozen=True)
class StatisticalBound:
    """Sampling standard error of a Monte Carlo estimate."""

    std_error: float
    samples: int
    seed: int


@dataclass(frozen=True)
class OracleResult:
    probability: float
    log_probability: float
    error: RigorousBound | StatisticalBound
    method: str


def _ceil_threshold(threshold: float) -> int:
    """Turn a threshold into a count: the one rule for every oracle and sampler.

    An integral threshold is its own count (ties included); any other is rounded
    up once float noise of at most ``min(1e-9 * max(1, |threshold|), 1/2)`` above
    an integer is absorbed.
    """
    t = float(threshold)
    if t.is_integer():
        return int(t)
    return int(math.ceil(t - min(1e-9 * max(1.0, abs(t)), 0.5)))


def _negbin_logpmf(x: np.ndarray, k: float, p: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    q = 1.0 - p
    out = np.empty_like(x)
    zero = x == 0.0
    out[zero] = k * math.log(p)
    xs = x[~zero]
    if xs.size:
        n = xs + k
        out[~zero] = (
            _stirlerr(n)
            - _stirlerr(k)
            - _stirlerr(xs)
            - _bd0(k, n * p)
            - _bd0(xs, n * q)
            + 0.5 * (np.log(n / (2.0 * math.pi * k * xs)))
            + np.log(k / n)
        )
    return out


def _negbin_block(total: float, lo: int, hi: int, k: float, p: float) -> tuple[float, np.ndarray]:
    """(logaddexp(total, log sum of pmf(x) for lo <= x < hi), those log pmfs)."""
    with np.errstate(all="ignore"):  # a log pmf that is not finite raises below
        lp = _negbin_logpmf(np.arange(lo, hi, dtype=float), k, p)
    if not np.isfinite(lp).all():
        raise ParamError(f"the negative binomial log pmf at count {lo:.6g} lies past the float range")
    # scipy's logsumexp step for step: the m maxima apart, then log1p(rest / m) + log(m) + top.
    top = lp.max()
    at_top = lp == top
    m = np.count_nonzero(at_top)
    rest = np.exp(np.where(at_top, -np.inf, lp) - top).sum()
    return np.logaddexp(total, np.log1p(rest / m) + np.log(m) + top), lp


def _require_terms(count: int) -> None:
    """ParamError once an exact sum has taken more than :data:`_MAX_TERMS` terms."""
    if count > _MAX_TERMS:
        raise ParamError(f"the exact sum reached {count} terms, past the cap of {_MAX_TERMS}")


def _negbin_upper_logsum(k: float, p: float, m0: int) -> tuple[float, float]:
    """(log sum_{x >= m0} pmf(x), log absolute truncation bound)."""
    total = -math.inf
    x0 = m0
    while True:
        _require_terms(x0 - m0)
        total, _ = _negbin_block(total, x0, x0 + _BLOCK, k, p)
        x0 += _BLOCK
        ratio = (1.0 - p) * (x0 + k) / (x0 + 1.0)
        if ratio < 1.0:
            log_rem = float(_negbin_logpmf(np.array([x0], dtype=float), k, p)[0])
            log_rem += math.log(ratio / (1.0 - ratio))
            if log_rem <= total + math.log(_NEGBIN_REL_BOUND):
                return float(total), log_rem


def _negbin_lower_logsum(k: float, p: float, m0: int) -> tuple[float, float]:
    """(log sum_{x < m0} pmf(x), log bound).  Descends from the in-range mode."""
    mode = (k - 1.0) * (1.0 - p) / p if k > 1 else 0.0
    peak = int(min(mode, m0 - 1))
    total = -math.inf
    # Upward from the peak: everything to m0 - 1 (pmf is decreasing there).
    for lo in range(peak, m0, _BLOCK):
        _require_terms(lo - peak)
        total, _ = _negbin_block(total, lo, min(lo + _BLOCK, m0), k, p)
    # Downward from the peak with early stop: at most x+1 remaining terms,
    # each below pmf(x), since the pmf increases toward the mode (none below 0).
    log_bound = -math.inf
    for hi in range(peak, 0, -_BLOCK):
        _require_terms(m0 - hi)  # m0 - peak summed upward, peak - hi downward
        lo = max(hi - _BLOCK, 0)
        total, lp = _negbin_block(total, lo, hi, k, p)
        log_bound = float(lp[0]) + math.log(lo) if lo else -math.inf
        if log_bound <= total + math.log(_NEGBIN_REL_BOUND):
            break
    return float(total), log_bound


def negbin_tail(successes: float, p: float, threshold: float) -> OracleResult:
    """P(X >= threshold) for X negative binomial (real ``successes`` allowed).

    Convention: pmf(x) = C(x + k - 1, x) p^k (1-p)^x, x = 0, 1, ... counts the
    arrivals; :func:`_ceil_threshold` makes the threshold a count (ties included).
    Below the mean the complementary sum is used, whose bound is the 1e-15
    rounding allowance once its downward walk reaches count 0; either way the
    truncation bound is rigorous and the log probability stays accurate deep
    under the float range; above the mean the probability is ``_exp_of_log``
    of that log.
    """
    require_finite(successes=successes, p=p, threshold=threshold)
    if not 0.0 < p < 1.0:
        raise ParamError(f"success probability must be in (0, 1), got {p}")
    if successes <= 0:
        raise ParamError(f"successes must be positive, got {successes}")
    if threshold < 0:
        raise ParamError(f"threshold must be >= 0, got {threshold}")
    m0 = _ceil_threshold(threshold)
    if m0 <= 0:
        return OracleResult(1.0, 0.0, RigorousBound(0.0), "negbin_exact")
    mean = successes * (1.0 - p) / p
    if m0 > mean:
        log_prob, log_bound = _negbin_upper_logsum(successes, p, m0)
        prob = _exp_of_log(log_prob)
        return OracleResult(prob, log_prob, RigorousBound(math.exp(log_bound)), "negbin_exact")
    log_lower, log_bound = _negbin_lower_logsum(successes, p, m0)
    prob = -math.expm1(log_lower)
    lower = math.exp(log_lower)
    log_prob = math.log1p(-lower) if lower < 1.0 else math.log(prob)
    return OracleResult(prob, log_prob, RigorousBound(math.exp(log_bound) + 1e-15), "negbin_exact")


def _poisson_logpmf(j, lam: float):
    """Log Poisson(lam) pmf at counts ``j >= 1`` (an array, or one float)."""
    js = np.atleast_1d(np.asarray(j, dtype=float))
    out = -_stirlerr(js) - _bd0(js, lam) - 0.5 * (_LOG_2PI + np.log(js))
    return out if np.ndim(j) else float(out[0])


def _first_live_block(lam: float) -> int:
    """``1 + k*_BLOCK``: the compound sum skips its first k blocks, whose weights are all 0.0.

    For 1 <= j <= lam, log pmf(j) <= -bd0(j, lam) = -lam h(j/lam) <= -(lam - j)**2 / (2 lam),
    as stirlerr and log(2 pi j) are positive and h(x) = x log x - x + 1 >=
    (1 - x)**2 / 2 on (0, 1].  So every count up to ``lam - sqrt(-2 _LOG_NIL lam)``
    has a log weight below ``_LOG_NIL``; k is the most whole blocks below it.
    """
    return 1 + _BLOCK * max(0, int((lam - math.sqrt(-2.0 * _LOG_NIL * lam)) // _BLOCK))


def compound_poisson_gamma_tail(
    poisson_rate: float, jump_shape: float, jump_rate: float, threshold: float
) -> OracleResult:
    """P(sum of Pois(rate)-many Gamma(jump_shape, jump_rate) jumps >= threshold).

    Conditioning on j >= 1 jumps leaves a Gamma(j*jump_shape, jump_rate) tail,
    evaluated as a regularized upper incomplete gamma; zero jumps contribute
    nothing for a positive threshold.  The Poisson sum starts below the count
    where the bound ``log pmf(j) <= -(lam - j)**2 / (2 lam)`` puts every weight
    under e**-750, and is truncated once its remaining mass (every term's
    weight) drops below 1e-14.
    """
    from scipy import special

    require_finite(
        poisson_rate=poisson_rate, jump_shape=jump_shape, jump_rate=jump_rate, threshold=threshold
    )
    if poisson_rate <= 0 or jump_shape <= 0 or jump_rate <= 0:
        raise ParamError(
            "poisson_rate, jump_shape and jump_rate must all be positive, got "
            f"{poisson_rate}, {jump_shape}, {jump_rate}"
        )
    if threshold < 0:
        raise ParamError(f"threshold must be >= 0, got {threshold}")
    if threshold == 0:
        return OracleResult(1.0, 0.0, RigorousBound(0.0), "compound_series")
    lam = poisson_rate
    total = 0.0
    j0 = start = _first_live_block(lam)
    while True:
        _require_terms(j0 - start)
        js = np.arange(j0, j0 + _BLOCK, dtype=float)
        tails = special.gammaincc(js * jump_shape, jump_rate * threshold)
        total += float(np.sum(np.exp(_poisson_logpmf(js, lam)) * tails))
        j0 += _BLOCK
        if j0 > lam:
            # Remaining Poisson mass: pmf(j0) geometric-dominated by lam/(j0+1).
            q = lam / (j0 + 1.0)
            log_rem = _poisson_logpmf(float(j0), lam) - math.log1p(-q)
            if log_rem <= math.log(_COMPOUND_ABS_BOUND):
                bound = math.exp(log_rem)
                break
    prob = min(total, 1.0)
    log_prob = math.log(prob) if prob > 0 else -math.inf
    return OracleResult(prob, log_prob, RigorousBound(bound), "compound_series")


@dataclass(frozen=True)
class NegBinLaw:
    """Negative binomial: pmf(x) = C(x+k-1, x) p^k (1-p)^x on x = 0, 1, ..."""

    successes: float
    p: float

    def _require_domain(self, theta: float) -> None:
        # p rounded to 1 leaves a point mass at 0, whose lmgf is finite everywhere.
        q = 1.0 - self.p
        if q > 0 and theta >= -math.log(q):
            raise ParamError(f"negative binomial lmgf diverges at theta = {theta}")

    def lmgf(self, theta: float) -> float:
        self._require_domain(theta)
        return self.successes * math.log(self.p / (1.0 - (1.0 - self.p) * math.exp(theta)))

    def tilt(self, theta: float) -> "NegBinLaw":
        """Esscher transform: again negative binomial, with q scaled by exp(theta)."""
        self._require_domain(theta)
        return NegBinLaw(self.successes, 1.0 - (1.0 - self.p) * math.exp(theta))

    def cdf(self, x):
        """P(X <= x) at integer x (scalar or array); 0 below 0."""
        from scipy import special

        xs = np.asarray(x, dtype=float)
        below = special.betainc(self.successes, np.maximum(xs, 0.0) + 1.0, self.p)
        out = np.where(xs < 0, 0.0, below)
        return float(out) if np.ndim(x) == 0 else out

    def tail(self, threshold: float):
        """P(X >= threshold) from :func:`negbin_tail`, which rounds the threshold to a count."""
        return negbin_tail(self.successes, self.p, threshold)


@dataclass(frozen=True)
class CompoundPoissonGammaLaw:
    """Poisson(rate)-many iid Gamma(jump_shape, jump_rate) jumps."""

    rate: float
    jump_shape: float
    jump_rate: float

    def _require_domain(self, theta: float) -> None:
        if theta >= self.jump_rate:
            raise ParamError(f"compound Poisson lmgf diverges at theta = {theta}")

    def lmgf(self, theta: float) -> float:
        self._require_domain(theta)
        return self.rate * ((self.jump_rate / (self.jump_rate - theta)) ** self.jump_shape - 1.0)

    def tilt(self, theta: float) -> "CompoundPoissonGammaLaw":
        """Esscher transform: the rate grows and the jumps' rate drops by theta."""
        self._require_domain(theta)
        rate = self.rate * (self.jump_rate / (self.jump_rate - theta)) ** self.jump_shape
        return CompoundPoissonGammaLaw(rate, self.jump_shape, self.jump_rate - theta)

    def cdf(self, x):
        """P(X <= x) (scalar or array), summing the Poisson mixture over +-12 sigma.

        The mass outside the window is far below any tolerance used here.  Each
        point sums the whole window; all of them together count against ``_MAX_TERMS``.
        """
        from scipy import special

        rate = self.rate
        j_lo = max(1, int(rate - 12.0 * math.sqrt(rate) - 60.0))
        j_hi = int(rate + 12.0 * math.sqrt(rate) + 60.0)
        ys = np.atleast_1d(np.asarray(x, dtype=float))
        _require_terms(len(ys) * (j_hi - j_lo))
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
        """P(X >= threshold) from :func:`compound_poisson_gamma_tail`."""
        return compound_poisson_gamma_tail(self.rate, self.jump_shape, self.jump_rate, threshold)


def _mc_tail(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    samples: int,
    seed: int,
    workers: int,
    method: str,
) -> OracleResult:
    """Mean and standard error of ``sampler`` over ``workers`` seeded substreams.

    The substreams run one after another and their sums are reduced in
    substream order, so a fixed (seed, workers) pair gives the same bits.
    """
    if samples < 2:
        raise ParamError(f"samples must be >= 2, got {samples}")
    if workers < 1:
        raise ParamError(f"workers must be >= 1, got {workers}")
    if seed < 0:
        raise ParamError(f"seed must be >= 0, got {seed}")
    base, rem = divmod(samples, workers)
    s = ss = 0.0
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(workers)):
        budget = base + (i < rem)
        if budget:
            vals = sampler(np.random.default_rng(stream), budget)
            s += float(vals.sum())
            ss += float(np.square(vals).sum())
    mean = s / samples
    var = max(ss - samples * mean * mean, 0.0) / (samples - 1)
    se = math.sqrt(var / samples)
    log_prob = math.log(mean) if mean > 0 else -math.inf
    return OracleResult(mean, log_prob, StatisticalBound(se, samples, seed), method)


def _worked(model: ModelPair | None, what: str) -> tuple[str, float, float, float]:
    """``(variant, lam, r, mu)`` of a built-in pair; ParamError naming ``what`` for any other, or None."""
    numbers = None if model is None else _builtin(model)
    if numbers is None:
        raise ParamError(f"{what} is implemented for the built-in model pairs only")
    return numbers


def exact_law(model: ModelPair | None, scaling: PowerScaling, n: float):
    """The exact marginal law of C_n for a built-in pair; any other pair (or None) raises ParamError."""
    variant, lam, r, mu = _worked(model, "the exact law")
    require_finite(n=n)
    phi, psi = scaling.phi(n), scaling.psi(n)
    if variant == "poisson_gamma":
        return NegBinLaw(successes=r * phi, p=mu / (mu + lam * psi))
    return CompoundPoissonGammaLaw(rate=phi * lam, jump_shape=r * psi, jump_rate=mu)


def _sampler(
    numbers: tuple, scaling: PowerScaling, n: float, u: float, theta: float, log_norm: float
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Draws of ``exp(log_norm - theta C) 1{C >= u n}`` with C under the theta tilt.

    ``numbers`` are the pair's, as :func:`_worked` reads them; ``log_norm`` is
    gamma_n(theta); ``theta = log_norm = 0`` is plain Monte Carlo, with every
    weight exactly 1; any other theta is :func:`solve_twist`'s root, which its
    jets kept inside both exponents' domains, so the tilted rates are positive.
    A threshold ``u n`` past the float range, or a Poisson rate past numpy's
    limit, raises ParamError.
    """
    thresh = u * n
    if not math.isfinite(thresh):
        raise ParamError(f"the threshold u n = {thresh} lies past the float range")
    phi, psi = scaling.phi(n), scaling.psi(n)
    variant, lam, r, mu = numbers
    if variant == "poisson_gamma":
        rate_tilt = mu - lam * math.expm1(theta) * psi
        jump = lam * math.exp(theta) * psi
        m0 = _ceil_threshold(thresh)

        def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
            rates = jump * rng.gamma(shape=r * phi, scale=1.0 / rate_tilt, size=m)
            _require_poisson_rate(rates.max())
            counts = rng.poisson(rates)
            return np.exp(log_norm - theta * counts) * (counts >= m0)

        return sampler
    count_rate = phi * lam * (mu / (mu - theta)) ** (r * psi)
    _require_poisson_rate(count_rate)

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        counts = rng.poisson(count_rate, size=m)
        totals = rng.gamma(shape=counts * r * psi, scale=1.0 / (mu - theta))
        return np.exp(log_norm - theta * totals) * (totals >= thresh)

    return sampler


def _require_poisson_rate(rate: float) -> None:
    if not rate <= _POISSON_RATE_MAX:
        raise ParamError(f"the Poisson rate {rate} lies past numpy's limit {_POISSON_RATE_MAX}")


def is_tail(
    model: ModelPair,
    scaling: PowerScaling,
    n: float,
    u: float,
    samples: int,
    seed: int,
    workers: int = 1,
) -> OracleResult:
    """Importance-sampling estimate of P(C_n >= u n) under the twisted measure.

    Requires a rare threshold (u > a*b) and one of the built-in model pairs
    (the twisted laws are known in closed form there).  Deterministic for a
    fixed (seed, workers) pair.
    """
    numbers = _worked(model, "twisted sampling")
    sol = solve_twist(model, scaling, n, u)
    sampler = _sampler(numbers, scaling, n, u, sol.theta_n, sol.log_mgf)
    return _mc_tail(sampler, samples, seed, workers, "importance_sampling")


def plain_mc_tail(
    model: ModelPair,
    scaling: PowerScaling,
    n: float,
    u: float,
    samples: int,
    seed: int,
    workers: int = 1,
) -> OracleResult:
    """Naive Monte Carlo estimate of P(C_n >= u n): the zero tilt of :func:`is_tail`.

    No rarity check: thresholds below the mean are legitimate here, and
    genuinely rare events simply produce zero hits.  Use :func:`is_tail` for
    the rare direction.
    """
    require_finite(n=n, u=u)
    sampler = _sampler(_worked(model, "plain MC sampling"), scaling, n, u, 0.0, 0.0)
    return _mc_tail(sampler, samples, seed, workers, "plain_mc")
