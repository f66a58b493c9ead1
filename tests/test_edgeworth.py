"""Edgeworth CDF corrections against the exact tilted law."""

import math
import warnings

import numpy as np
import pytest

from twoscale import (
    ParamError,
    PowerScaling,
    RegimeError,
    build_expansion,
    classify,
    diagnostic,
    exact_law,
    hermite,
    solve_twist,
    standardization,
    tilted_cdf_approx,
)
from conftest import count_derivs, gp_pair, pg_pair

SQRT2PI = math.sqrt(2.0 * math.pi)


def phi_pdf(x):
    return math.exp(-0.5 * x * x) / SQRT2PI


class TestHermite:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_derivative_identity(self, k):
        # phi^(k)(x) = (-1)^k H_k(x) phi(x), by central differences with a
        # step sized to the stencil order.
        h = {1: 1e-6, 2: 1e-4, 3: 1e-3}[k]
        for x in (-1.7, -0.3, 0.0, 0.9, 2.4):
            if k == 1:
                fd = (phi_pdf(x + h) - phi_pdf(x - h)) / (2 * h)
            elif k == 2:
                fd = (phi_pdf(x + h) - 2 * phi_pdf(x) + phi_pdf(x - h)) / h**2
            else:
                fd = (
                    -phi_pdf(x - 2 * h) + 2 * phi_pdf(x - h) - 2 * phi_pdf(x + h) + phi_pdf(x + 2 * h)
                ) / (2 * h**3)
            assert fd == pytest.approx((-1) ** k * hermite(k, x) * phi_pdf(x), abs=1e-6)

    def test_explicit_forms(self):
        xs = np.linspace(-3, 3, 7)
        assert np.allclose(hermite(1, xs), xs)
        assert np.allclose(hermite(2, xs), xs**2 - 1)

    def test_order_past_three_is_refused(self):
        with pytest.raises(ParamError, match="k <= 3, got 4"):
            hermite(4, 0.5)


class TestBranchSelection:
    def test_fast_branches(self, pg112):
        small = build_expansion(pg112, PowerScaling(2.5), 1.0)
        assert small.applicable_branch == "small_psi_sqrt_n" and small.c1 is None
        large = build_expansion(pg112, PowerScaling(1.2), 1.0)
        assert large.applicable_branch == "large_psi_sqrt_n" and large.c1 is not None
        boundary = build_expansion(pg112, PowerScaling(1.5), 1.0)
        assert boundary.applicable_branch == "large_psi_sqrt_n"

    def test_slow_branches(self, pg112):
        small = build_expansion(pg112, PowerScaling(0.5), 1.0)
        assert small.applicable_branch == "small_phi32_over_n" and small.c1 is None
        large = build_expansion(pg112, PowerScaling(0.8), 1.0)
        assert large.applicable_branch == "large_phi32_over_n" and large.c1 is not None
        boundary = build_expansion(pg112, PowerScaling(2.0 / 3.0), 1.0)
        assert boundary.applicable_branch == "large_phi32_over_n"

    @pytest.mark.parametrize("f", [1.5, 1.5 + 1e-12, 2.0 / 3.0, 2.0 / 3.0 - 1e-12])
    def test_boundary_tolerance_keeps_the_location_term(self, pg112, f):
        # classify() counts a term whose exponent is within 1e-9 of 0 as
        # surviving; the Edgeworth branch follows the same k_plus/k_minus.
        info = classify(PowerScaling(f))
        assert (info.k_plus or info.k_minus) == 1
        assert build_expansion(pg112, PowerScaling(f), 1.0).c1 is not None

    def test_single_timescale_rejected(self, pg112):
        with pytest.raises(RegimeError):
            build_expansion(pg112, PowerScaling(1.0), 1.0)
        with pytest.raises(RegimeError):
            tilted_cdf_approx(pg112, PowerScaling(1.0), 100.0, 1.0, 0.0)


class TestTiltedCdfApprox:
    def test_limits(self, pg112):
        s = PowerScaling(2.5)
        assert tilted_cdf_approx(pg112, s, 1e4, 1.0, 40.0) == pytest.approx(1.0, abs=1e-12)
        assert tilted_cdf_approx(pg112, s, 1e4, 1.0, -40.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("pair", [pg_pair(1.0, 1.0, 2.0), gp_pair(1.0, 2.0, 1.0)], ids=["pg", "gp"])
    @pytest.mark.parametrize("f", [2.5, 1.2, 0.5, 0.8])
    def test_beyond_float_square_limits_are_exact(self, pair, f):
        # x * x overflows here; the density term is 0 long before.
        vals = tilted_cdf_approx(pair, PowerScaling(f), 400.0, 1.0, np.array([1e200, -1e200]))
        assert vals.tolist() == [1.0, 0.0]
        assert tilted_cdf_approx(pair, PowerScaling(f), 400.0, 1.0, -math.inf) == 0.0

    def test_value_at_origin_small_branch(self, pg112):
        # H_2(0) = -1, so the x = 0 value is 1/2 + phi(0) kappa / sqrt(n).
        s, n, u = PowerScaling(2.5), 1e4, 1.0
        exp = build_expansion(pg112, s, u)
        got = tilted_cdf_approx(pg112, s, n, u, 0.0)
        assert got == pytest.approx(0.5 + phi_pdf(0.0) * exp.kappa / math.sqrt(n), rel=1e-12)

    def test_kappa_value_poisson_gamma(self):
        # For the counting model sigma_+^2 = u and alpha'''(t*) = lam/rho, so
        # kappa = b (lam/rho) / (6 u^{3/2}).
        lam, r, mu, u = 1.0, 1.0, 2.0, 1.0
        exp = build_expansion(pg_pair(lam, r, mu), PowerScaling(2.5), u)
        rho = lam * r / (mu * u)
        assert exp.kappa == pytest.approx((r / mu) * (lam / rho) / (6.0 * u**1.5), rel=1e-10)

    def test_bounded_excursion(self, pg112):
        for f, n in ((2.5, 100.0), (1.2, 400.0), (0.5, 400.0), (0.8, 900.0)):
            xs = np.linspace(-6, 6, 61)
            vals = tilted_cdf_approx(pg112, PowerScaling(f), n, 1.0, xs)
            assert np.all(vals >= -0.02) and np.all(vals <= 1.02)


def _tilted_law(model, s, n, u):
    return exact_law(model, s, n).tilt(solve_twist(model, s, n, u).theta_n)


class TestExactTiltedLaw:
    def test_tilted_negbin_is_centred(self, pg112):
        # The tilt is chosen to put the mean at u*n; check CDF crosses 1/2 nearby.
        s, n, u = PowerScaling(2.5), 400.0, 1.0
        mid = _tilted_law(pg112, s, n, u).cdf(u * n)
        assert 0.3 < mid < 0.7

    def test_monotone_cdf(self, pg112):
        s, n, u = PowerScaling(2.5), 400.0, 1.0
        counts = np.arange(300, 500)
        vals = _tilted_law(pg112, s, n, u).cdf(counts)
        assert np.all(np.diff(vals) >= 0)


class TestDiagnostic:
    def test_sup_gap_shrinks_with_n(self, pg112):
        s, u = PowerScaling(2.5), 1.0
        sups = []
        for n in (100.0, 1000.0):
            d = diagnostic(pg112, s, n, u)
            sups.append(math.sqrt(n) * d.sup_gap)
        assert sups[1] < sups[0]

    def test_gamma_poisson_diagnostic_is_continuous(self):
        m = gp_pair(1.0, 2.0, 1.0)
        d = diagnostic(m, PowerScaling(1.5), 200.0, 0.7, points=41)
        assert d.sup_gap < 0.05
        xs = [row[0] for row in d.rows]
        assert len(xs) == 41

    def test_sup_bound_from_kappa(self, pg112):
        # sup_x |approx - exact| is controlled by 2 kappa max|phi H_2| / sqrt(n)
        # once n is large; at n = 1e4 the measured gap sits far below it.
        s, n, u = PowerScaling(2.5), 1e4, 1.0
        exp = build_expansion(pg112, s, u)
        d = diagnostic(pg112, s, n, u)
        xs = np.linspace(-6, 6, 2001)
        max_phi_h2 = float(np.max(np.abs(np.exp(-xs**2 / 2) / SQRT2PI * (xs**2 - 1))))
        assert d.sup_gap <= 2.0 * abs(exp.kappa) * max_phi_h2 / math.sqrt(n)

    def test_zero_scale_refused_before_dividing(self):
        # A Gamma clock of rate 1e200 at u = 2e-200: sigma_minus = a
        # sqrt(beta''(a tau*)) underflows to 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParamError, match="scale 0.0"):
                diagnostic(pg_pair(1.0, 1.0, 1e200), PowerScaling(0.6), 100.0, 2e-200)


class TestNonFiniteInput:
    @pytest.mark.parametrize("kwargs", [
        {"n": math.nan}, {"n": math.inf}, {"u": math.nan}, {"u": math.inf},
        {"x_min": math.nan}, {"x_max": math.inf},
    ])
    @pytest.mark.parametrize("pair", [pg_pair(1.0, 1.0, 2.0), gp_pair(1.0, 2.0, 1.0)],
                             ids=["pg", "gp"])
    def test_diagnostic(self, pair, kwargs):
        args = {"n": 100.0, "u": 1.0, **kwargs}
        with pytest.raises(ParamError):
            diagnostic(pair, PowerScaling(1.5), **args)

    @pytest.mark.parametrize("f", [1.5, 0.5], ids=["fast", "slow"])
    @pytest.mark.parametrize("n", [-5.0, 0.0, 0.5])
    def test_standardization_needs_n_at_least_1(self, f, n):
        with pytest.raises(ParamError, match="n must be >= 1"):
            standardization(pg_pair(1.0, 1.0, 3.0), PowerScaling(f), n, 1.0)

    def test_standardization_needs_f_other_than_1(self):
        with pytest.raises(RegimeError, match="f != 1"):
            standardization(pg_pair(1.0, 1.0, 3.0), PowerScaling(1.0), 100.0, 1.0)

    def test_expansion_and_cdf(self, pg112):
        s = PowerScaling(1.5)
        with pytest.raises(ParamError):
            build_expansion(pg112, s, math.inf)
        with pytest.raises(ParamError):
            tilted_cdf_approx(pg112, s, math.nan, 1.0, 0.0)


# Exact diagnostic rows (x, approx, exact) and sup gaps, recorded before the
# exact tilted CDFs moved onto the law objects and standardization onto the
# shared leading-order quantities: pg(1, 1, 3) and gp(1, 2, 1), 5 points.
DIAGNOSTIC_GOLDEN = [
    (("pg", 2.5, 100.0, 0.5), (
        ((-6.010407640085652, -3.8001944262875e-09, 3.496274562246691e-14),
         (-3.0405591591021532, 0.0004187258534767228, 0.0005118070540772561),
         (0.07071067811865472, 0.5375187716794574, 0.5375166920260297),
         (3.0405591591021532, 0.998057332890802, 0.9979846863155204),
         (6.151828996322961, 0.9999999975194647, 0.9999999811377032)),
        9.308120060053332e-05)),
    (("pg", 0.6, 400.0, 0.5), (
        ((-5.988920014021073, -1.1450194523367947e-08, 8.332452388718392e-29),
         (-3.002002727431218, -0.0006086947158312531, 0.0004895953102177841),
         (0.015085440841362905, 0.5280484005871069, 0.527636160085442),
         (3.002002727431218, 0.9967092075571757, 0.9934045033325426),
         (6.0190908957037985, 0.9999999885803359, 0.9999958074752703)),
        0.003304704224633137)),
    (("gp", 1.5, 200.0, 0.7), (
        ((-6.0, -3.170546086749459e-09, 2.2680900973789497e-12),
         (-3.0, 0.0008261241878271493, 0.0008541485303073919),
         (0.0, 0.509403159725796, 0.5093053149491551),
         (3.0, 0.9975025211106944, 0.9972425324424175),
         (6.0, 0.9999999931458508, 0.9999999177171534)),
        0.0002599886682769226)),
    (("gp", 0.6, 400.0, 0.7), (
        ((-6.0, -3.977554060409711e-09, 4.2153586843894064e-13),
         (-3.0, 0.0005222577522707735, 0.0010857990528339713),
         (0.0, 0.5093127254620861, 0.5106880501785284),
         (3.0, 0.9978224616890106, 0.996231557212409),
         (6.0, 0.9999999940492706, 0.9999997671747312)),
        0.0015909044766015956)),
]


@pytest.mark.parametrize("key,want", DIAGNOSTIC_GOLDEN,
                         ids=["-".join(map(str, key)) for key, _ in DIAGNOSTIC_GOLDEN])
def test_diagnostic_bit_identical(key, want):
    kind, f, n, u = key
    model = pg_pair(1.0, 1.0, 3.0) if kind == "pg" else gp_pair(1.0, 2.0, 1.0)
    d = diagnostic(model, PowerScaling(f), n, u, points=5)
    assert (d.rows, d.sup_gap) == want


@pytest.mark.parametrize("n,points", [(100.0, 7), (400.0, 49), (1e4, 101), (1e6, 49), (400.0, 10**6)])
def test_subsampled_lattice_matches_the_full_grid(n, points):
    # The lattice is subsampled without being built; its counts are the
    # ones the full np.arange grid gave, bit for bit.
    model, scaling, u = pg_pair(1.0, 1.0, 3.0), PowerScaling(1.5), 1.0
    mean, scale = standardization(model, scaling, n, u)
    full = np.arange(max(math.floor(mean - 6.0 * scale), 0), math.ceil(mean + 6.0 * scale) + 1,
                     dtype=float)
    if full.size > points:
        full = full[np.linspace(0, full.size - 1, points).astype(int)]
    xs = [row[0] for row in diagnostic(model, scaling, n, u, points=points).rows]
    assert xs == [float(x) for x in (full + 0.5 - mean) / scale]


# (f, exponent evaluations, rows, sup_gap) of the diagnostic on a fresh
# Poisson(1)-on-Gamma(1, 3) pair at n = 400, u = 1, points = 5.  Both sit on
# a branch without the location term: the expansion no longer computes v_1
# (f = 2, 62 evaluations before) or w_2 (f = 0.5, 478 before, where w_2's
# Richardson extrapolation ran a pilot and three twist solves).  Reading the
# domain edge off its bisection grid, gamma_n(theta_n) off the solver's last
# jet and solving the leading constants once per (pair, u, regime) took them
# further, from 128 (f = 0.5) and 60 (f = 2).
DIAGNOSTIC_BUDGET = [
    (0.5, 82,
     ((-4.466545785055822, -2.225483634818902e-05, 3.594298199396388e-27),
      (-1.8503462513810727, 0.019121072713656744, 0.020080191261304135),
      (0.7658532822936766, 0.7872878490307731, 0.783201885242553),
      (3.382052815968426, 0.9986214152966745, 0.9973896441002592),
      (6.009432689530674, 0.9999999840430468, 0.9999950786239336)),
     0.004085963788220126),
    (2.0, 58,
     ((-6.024999999999997, -6.923609246329297e-10, 1.0260564788737282e-10),
      (-3.0249999999999986, 0.0009639840569484984, 0.0009865946561337822),
      (-0.024999999999999988, 0.4933488848830734, 0.49337576260216465),
      (2.9749999999999983, 0.9982226333579848, 0.9981919577738341),
      (6.024999999999997, 0.9999999976165429, 0.9999999956748623)),
     3.067558415070781e-05),
]


@pytest.mark.parametrize("f,budget,rows,sup_gap", DIAGNOSTIC_BUDGET)
def test_diagnostic_computes_only_what_its_branch_reads(monkeypatch, f, budget, rows, sup_gap):
    model = pg_pair(1.0, 1.0, 3.0)
    calls = count_derivs(monkeypatch, model)
    d = diagnostic(model, PowerScaling(f), 400.0, 1.0, points=5)
    assert calls[0] == budget
    assert (d.rows, d.sup_gap) == (rows, sup_gap)
