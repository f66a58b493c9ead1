"""Exact tail of the variance-gamma pair by quadrature over its Gamma clock.

The vg pair is Brownian motion with drift ``d`` and variance ``v`` (A) on a
Gamma(r, mu) subordinator (B).  With ``T = psi_n G`` and
``G ~ Gamma(r phi_n, mu)``, A's value given the clock is N(d T, v T), so

    P(C_n >= x) = E[Phi((d T - x) / sqrt(v T))].

The expectation is taken over ``z = log(mu G / (r phi_n))``, whose log density
in Loader's form is ``0.5 log(k / 2 pi) - stirlerr(k) - k (expm1(z) - z)``
with ``k = r phi_n``; the naive ``k log mu - gammaln(k)`` cancels once k is
large.  Gauss-Legendre runs on the window where the log integrand lies within
80 nats of its peak, which a zoomed 401-point grid finds.  The difference
between 200 and 400 nodes is reported as an error estimate, not a bound.

Usage: ``vg_log_tail(d, v, r, mu, f, n, x)`` returns ``(log P, estimate)``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from twoscale.oracle import _stirlerr

#: The window keeps every point whose log integrand is within this of the peak.
WINDOW_NATS = 80.0
_GRID = 401
_ZOOMS = 60
_NODES = {m: np.polynomial.legendre.leggauss(m) for m in (200, 400)}


def _expm1_minus(z: np.ndarray) -> np.ndarray:
    """expm1(z) - z, by its series below |z| = 1e-3 where the difference cancels."""
    small = np.abs(z) < 1e-3
    zs = np.where(small, z, 0.0)
    series = zs * zs * (0.5 + zs * (1 / 6 + zs * (1 / 24 + zs * (1 / 120 + zs / 720))))
    return np.where(small, series, np.expm1(z) - z)


def _log_integrand(d, v, r, mu, f, n, x):
    """z -> log of the integrand: the log density of z plus log Phi((d T - x) / sqrt(v T))."""
    k = r * n ** f
    const = 0.5 * math.log(k / (2.0 * math.pi)) - float(_stirlerr(k))
    clock = n * r / mu  # psi_n * E[G], as psi_n phi_n = n

    def log_f(z):
        z = np.asarray(z, dtype=float)
        t = clock * np.exp(z)
        return const - k * _expm1_minus(z) + special.log_ndtr((d * t - x) / np.sqrt(v * t))

    return log_f


def _peak(log_f, lo: float, hi: float) -> float:
    """Argmax of a unimodal ``log_f`` on [lo, hi] by zooming a 401-point grid."""
    for _ in range(_ZOOMS):
        zs = np.linspace(lo, hi, _GRID)
        i = int(np.argmax(log_f(zs)))
        lo, hi = zs[max(i - 1, 0)], zs[min(i + 1, _GRID - 1)]
        if hi - lo <= 1e-15 * max(1.0, abs(zs[i])):
            break
    return float(zs[i])


def _edge(log_f, z0: float, floor: float, direction: float) -> float:
    """The point beyond ``z0`` (in ``direction``) where ``log_f`` falls to ``floor``."""
    inner, step = z0, 1e-12 * max(1.0, abs(z0))
    while log_f(z0 + direction * step) > floor:
        inner, step = z0 + direction * step, 2.0 * step
    outer = z0 + direction * step
    for _ in range(200):
        mid = 0.5 * (inner + outer)
        if mid in (inner, outer):
            break
        if log_f(mid) > floor:
            inner = mid
        else:
            outer = mid
    return outer


def _gauss_legendre(log_f, lo: float, hi: float, peak_log: float, nodes: int) -> float:
    s, w = _NODES[nodes]
    half = 0.5 * (hi - lo)
    values = log_f(lo + half * (s + 1.0)) - peak_log
    return peak_log + math.log(half * float(np.sum(w * np.exp(values))))


def _window(log_f) -> tuple[float, float, float]:
    z = _peak(log_f, -40.0, 40.0)
    floor = float(log_f(z)) - WINDOW_NATS
    return _edge(log_f, z, floor, -1.0), z, _edge(log_f, z, floor, 1.0)


def vg_window(d, v, r, mu, f, n, x) -> tuple[float, float, float]:
    """(lo, peak, hi) in z: the peak of the log integrand and its 80-nat window."""
    return _window(_log_integrand(d, v, r, mu, f, n, x))


def vg_log_tail(d, v, r, mu, f, n, x) -> tuple[float, float]:
    """(log P(C_n >= x), |log P at 400 nodes - log P at 200 nodes|)."""
    log_f = _log_integrand(d, v, r, mu, f, n, x)
    lo, z, hi = _window(log_f)
    peak_log = float(log_f(z))
    coarse = _gauss_legendre(log_f, lo, hi, peak_log, 200)
    fine = _gauss_legendre(log_f, lo, hi, peak_log, 400)
    return fine, abs(fine - coarse)
