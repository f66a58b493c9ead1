"""Tail probabilities of overdispersed arrival counts.

An arrival rate resampled independently every slot produces a count over K
slots distributed as ``Pois(Lambda_1 + ... + Lambda_K)``.  With exponential
rates (mean ``1/mu_bar``) that count is negative binomial, so the target

    Pi(K, u_bar, mu_bar) = P(count >= u_bar)

has an exact value to compare approximations against:

* ``pi_pois``  -- ignore the rate randomness: Poisson(K/mu_bar) tail;
* ``pi_gamma`` -- ignore the Poisson sampling: Erlang(K, mu_bar) tail;
* ``pi_fast`` / ``pi_slow`` -- the two-timescale refinements, truncated at M
  exponent terms; with ``rho = K/(mu_bar*u_bar)`` and
  ``t_k^+ = mu_bar^-k - (u_bar/K)^k``, ``t_k^- = mu_bar^k - (K/u_bar)^k``:

  pi_fast = exp((1-rho+log rho) u_bar + sum_{k=2}^{M} (-1)^k (K t_k^+/k - u_bar t_{k-1}^+/(k-1)))
            / ((1-rho) sqrt(2 pi u_bar))
  pi_slow = exp((1-1/rho+log(1/rho)) K + sum_{k=1}^{M} (-1)^k (K t_k^-/k - u_bar t_{k+1}^-/(k+1)))
            / ((1/rho-1) sqrt(2 pi K))

* ``pi_hat_fast`` / ``pi_hat_slow`` -- the crude logarithmic asymptotics
  (the exponential factor alone).

The embedding scale n cancels from all of these; ``reproduce_tables`` builds
the two reference comparison tables.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from scipy import special

from .errors import NotRareError, ParamError, _exp_of_log, _in_float_range, require_finite
from .formatting import format_sig
from .models import K_MAX
from .oracle import OracleResult, _ceil_threshold, negbin_tail

__all__ = [
    "ArrivalQuery",
    "ApproxTable",
    "pi_exact",
    "pi_pois",
    "pi_gamma",
    "pi_fast",
    "pi_slow",
    "pi_hat_fast",
    "pi_hat_slow",
    "reproduce_tables",
]

_ADAPTIVE_TOL = 1e-12

#: Reference parameter triples (K, mu_bar, u_bar).  The second slow row uses
#: mu_bar = 0.005, which restores the common rho = 2/3 shared by every row.
TABLE1_PARAMS = (
    (100_000, 1000.0, 150.0),
    (50_000, 500.0, 150.0),
    (10_000, 100.0, 150.0),
    (5_000, 50.0, 150.0),
    (1_000, 10.0, 150.0),
)
TABLE2_PARAMS = (
    (100, 0.001, 150_000.0),
    (100, 0.005, 30_000.0),
    (100, 0.01, 15_000.0),
    (100, 0.05, 3_000.0),
    (100, 0.1, 1_500.0),
)


@dataclass(frozen=True)
class ArrivalQuery:
    """K resampling slots, count threshold u_bar, exponential rate mu_bar.

    Positivity is enforced here; the rare direction (``rho < 1``) only by the
    asymptotic approximations, since the exact and crude tails remain
    perfectly well defined on the other side.
    """

    K: int
    u_bar: float
    mu_bar: float

    def __post_init__(self) -> None:
        require_finite(K=self.K, u_bar=self.u_bar, mu_bar=self.mu_bar)
        if self.K <= 0 or int(self.K) != self.K:
            raise ParamError(f"K must be a positive integer, got {self.K}")
        if self.u_bar <= 0 or self.mu_bar <= 0:
            raise ParamError(
                f"u_bar and mu_bar must be positive, got {self.u_bar}, {self.mu_bar}"
            )

    @property
    def rho(self) -> float:
        return self.K / (self.mu_bar * self.u_bar)

    def _require_rare(self) -> float:
        if not self.rho < 1:
            raise NotRareError(f"rho = K/(mu_bar*u_bar) = {self.rho} must be < 1")
        if self.rho < sys.float_info.min:  # log(rho) and 1/rho would leave the float range
            raise ParamError(f"rho = K/(mu_bar*u_bar) = {self.rho} underflows")
        return self.rho


def pi_exact(q: ArrivalQuery) -> OracleResult:
    """Exact tail: the count is NegBin(K, mu_bar/(1+mu_bar)); ``negbin_tail`` rounds u_bar."""
    return negbin_tail(q.K, q.mu_bar / (1.0 + q.mu_bar), q.u_bar)


def pi_pois(q: ArrivalQuery) -> float:
    """Poisson(K E Lambda) tail from u_bar rounded as :func:`pi_exact` rounds it, ties included."""
    return float(special.gammainc(_ceil_threshold(q.u_bar), q.K / q.mu_bar))


def pi_gamma(q: ArrivalQuery) -> float:
    """Erlang(K, mu_bar) tail: regularized upper incomplete gamma Q(K, mu_bar*u_bar)."""
    return float(special.gammaincc(q.K, q.mu_bar * q.u_bar))


def _fast_term(q: ArrivalQuery, k: int) -> float:
    tk = q.mu_bar ** -k - (q.u_bar / q.K) ** k
    tk1 = q.mu_bar ** -(k - 1) - (q.u_bar / q.K) ** (k - 1)
    return (-1.0) ** k * (q.K * tk / k - q.u_bar * tk1 / (k - 1))


def _slow_term(q: ArrivalQuery, k: int) -> float:
    tk = q.mu_bar**k - (q.K / q.u_bar) ** k
    tk1 = q.mu_bar ** (k + 1) - (q.K / q.u_bar) ** (k + 1)
    return (-1.0) ** k * (q.K * tk / k - q.u_bar * tk1 / (k + 1))


def _sum_terms(q, term, first: int, M: int | None, linear: float) -> float:
    total = 0.0
    if M is None:
        # Adaptive truncation: stop once a term stops moving the exponent.
        # Growing terms, or a "correction" outweighing the linear term, mean
        # the ladder is being used outside its regime; truncate like an
        # asymptotic series, at the smallest term.
        prev = abs(linear)
        for k in range(first, K_MAX + 1):
            t = term(q, k)
            if abs(t) >= prev:
                break
            total += t
            prev = abs(t)
            if abs(t) < _ADAPTIVE_TOL:
                break
        return total
    for k in range(first, M + 1):
        total += term(q, k)
    return total


@_in_float_range
def pi_fast(q: ArrivalQuery, M: int | None = None) -> float:
    """Fast-regime refinement; the exponent sum runs k = 2..M (M = 1: empty).

    M = None selects adaptive truncation (cap K_MAX, stop below 1e-12).  The value is
    ``_exp_of_log`` of the log.  Raises ParamError where a term overflows or the exponent sums to NaN.
    """
    rho = q._require_rare()
    if M is not None and not 1 <= M <= K_MAX:
        raise ParamError(f"M must lie in 1..{K_MAX} for pi_fast, got {M}")
    linear = (1.0 - rho + math.log(rho)) * q.u_bar
    s = linear + _sum_terms(q, _fast_term, 2, M, linear)
    return _exp_of_log(s - math.log((1.0 - rho) * math.sqrt(2.0 * math.pi * q.u_bar)))


@_in_float_range
def pi_slow(q: ArrivalQuery, M: int | None = None) -> float:
    """Slow-regime refinement; the exponent sum runs k = 1..M (M = 0: empty), else as :func:`pi_fast`."""
    rho = q._require_rare()
    if M is not None and not 0 <= M <= K_MAX:
        raise ParamError(f"M must lie in 0..{K_MAX} for pi_slow, got {M}")
    linear = (1.0 - 1.0 / rho + math.log(1.0 / rho)) * q.K
    s = linear + _sum_terms(q, _slow_term, 1, M, linear)
    return _exp_of_log(s - math.log((1.0 / rho - 1.0) * math.sqrt(2.0 * math.pi * q.K)))


def pi_hat_fast(q: ArrivalQuery) -> float:
    """Crude fast-regime approximation: the exponential factor alone."""
    rho = q._require_rare()
    return math.exp((1.0 - rho + math.log(rho)) * q.u_bar)


def pi_hat_slow(q: ArrivalQuery) -> float:
    """Crude slow-regime approximation: the exponential factor alone."""
    rho = q._require_rare()
    return math.exp((1.0 - 1.0 / rho + math.log(1.0 / rho)) * q.K)


@dataclass(frozen=True)
class ApproxTable:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def to_csv(self, sig: int = 3) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            cells = [f"{v:g}" if i < 3 else format_sig(v, sig) for i, v in enumerate(row)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write_csv(self, path, sig: int = 3) -> None:
        Path(path).write_text(self.to_csv(sig))

    def write_json(self, path) -> None:
        payload = {"name": self.name, "columns": list(self.columns),
                   "rows": [list(r) for r in self.rows]}
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _row(params: tuple[int, float, float], crude, hat, refined, M: int) -> tuple[float, ...]:
    """One table row: the exact, crude and hat tails, then ``refined`` at M and M + 1."""
    K, mu_bar, u_bar = params
    q = ArrivalQuery(K, u_bar, mu_bar)
    return (
        float(K), mu_bar, u_bar,
        pi_exact(q).probability,
        crude(q),
        hat(q),
        refined(q, M=M),
        refined(q, M=M + 1),
    )


def reproduce_tables(workers: int = 1) -> tuple[ApproxTable, ApproxTable]:
    """Build the two reference comparison tables (fast and slow scenarios).

    The rows are computed one after another; ``workers`` must be >= 1 and
    changes nothing.
    """
    if workers < 1:
        raise ParamError(f"workers must be >= 1, got {workers}")
    head = ("K", "mu_bar", "u_bar", "pi_exact")
    t1 = ApproxTable(
        "fast_regime",
        head + ("pi_pois", "pi_hat_fast", "pi_fast_0", "pi_fast_1"),
        tuple(_row(p, pi_pois, pi_hat_fast, pi_fast, M=1) for p in TABLE1_PARAMS),
    )
    t2 = ApproxTable(
        "slow_regime",
        head + ("pi_gamma", "pi_hat_slow", "pi_slow_0", "pi_slow_1"),
        tuple(_row(p, pi_gamma, pi_hat_slow, pi_slow, M=0) for p in TABLE2_PARAMS),
    )
    return t1, t2
