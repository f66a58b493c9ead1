"""The quadrature oracle of the variance-gamma pair (tests/vg_oracle.py)."""

import math

import mpmath
import pytest

from vg_oracle import vg_log_tail, vg_window

#: vg(drift, var, r, mu) = vg(1, 1, 2, 3), with u/(ab) = 1.5: x = u n.
VG = (1.0, 1.0, 2.0, 3.0)
U = 1.5 * VG[0] * VG[2] / VG[3]


def _mp_log_tail(d, v, r, mu, f, n, x):
    """log P(C_n >= x) by 30-digit ``mpmath.quad`` of the Gamma density in its
    plain form, ``k log k + k z - k e^z - log Gamma(k)``, times Phi.

    The integrand is scaled by its value at the helper's peak, as quad's
    tolerance is absolute; the range is the helper's window widened by its
    own width on each side."""
    lo, z0, hi = vg_window(d, v, r, mu, f, n, x)
    w = hi - lo
    with mpmath.workdps(30):
        k = mpmath.mpf(r) * mpmath.mpf(n) ** mpmath.mpf(f)
        clock = mpmath.mpf(n) * r / mu
        const = k * mpmath.log(k) - mpmath.loggamma(k)

        def log_g(z):
            t = clock * mpmath.exp(z)
            return const + k * z - k * mpmath.exp(z) + mpmath.log(mpmath.ncdf((d * t - x) / mpmath.sqrt(v * t)))

        peak = log_g(mpmath.mpf(z0))
        val = mpmath.quad(lambda z: mpmath.exp(log_g(z) - peak), [lo - w, lo, z0, hi, hi + w])
        return float(peak + mpmath.log(val))


@pytest.mark.parametrize("params, f, n, ratio", [
    (VG, 0.5, 1e2, 1.5), (VG, 0.5, 1e4, 1.5), (VG, 1.0, 1e4, 1.5), (VG, 1.5, 1e2, 1.5),
    (VG, 1.5, 1e4, 1.5), (VG, 2.8, 1e4, 1.5),
    ((0.5, 2.0, 1.3, 0.7), 0.7, 1e3, 3.0), ((2.0, 0.3, 0.8, 1.9), 1.3, 500.0, 1.2),
])
def test_agrees_with_mpmath_quad(params, f, n, ratio):
    d, v, r, mu = params
    x = ratio * d * r / mu * n
    log_p, estimate = vg_log_tail(d, v, r, mu, f, n, x)
    want = _mp_log_tail(d, v, r, mu, f, n, x)
    assert abs(math.expm1(log_p - want)) <= 1e-10, (log_p, want)
    assert estimate <= 1e-10


@pytest.mark.parametrize("f", [0.5, 1.2, 1.5, 2.8])
@pytest.mark.parametrize("n", [1e4, 1e6, 1e8])
def test_node_counts_agree(f, n):
    # At n = 1e6, f = 2.8 the Gamma shape is ~1.3e17, where the naive
    # density's cancellation would cost hundreds of nats.
    log_p, estimate = vg_log_tail(*VG, f, n, U * n)
    assert math.isfinite(log_p) and log_p < 0
    assert estimate <= 1e-12 * max(1.0, abs(log_p)), (log_p, estimate)
