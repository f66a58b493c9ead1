"""Regime classification and the tail approximations of both regimes."""

import math
import sys

import pytest

from twoscale import (
    LatticeError,
    NotRareError,
    OrderError,
    ParamError,
    PowerScaling,
    RegimeError,
    SeriesUnavailable,
    approx_fast,
    approx_single_timescale,
    approx_slow,
    classify,
    lattice_factor,
    log_asymptote,
    negbin_tail,
)
from twoscale.asymptotics import _approx
from twoscale.levy import CharExponent, ModelPair, lmgf
from twoscale.models import K_MAX
from twoscale.oracle import exact_law
from twoscale.twist import solve_twist
from conftest import count_derivs, gp_pair, pg_pair, vg_pair


class TestClassify:
    @pytest.mark.parametrize(
        "f,regime,m_plus,m_minus",
        [
            (3.0, "fast", 1, None),
            (2.5, "fast", 1, None),
            (2.0, "fast", 2, None),  # boundary k included: phi psi^2 = 1
            (1.5, "fast", 3, None),
            (1.25, "fast", 5, None),
            (0.5, "slow", None, 1),
            (0.75, "slow", None, 3),
            (0.3, "slow", None, 0),  # strong separation: empty slow sum
            (1.0, "single", None, None),
        ],
    )
    def test_regimes_and_counts(self, f, regime, m_plus, m_minus):
        info = classify(PowerScaling(f))
        assert info.regime == regime
        assert info.m_plus == m_plus
        assert info.m_minus == m_minus

    @pytest.mark.parametrize(
        "f,k_plus,k_minus",
        [
            (1.5, 1, None),   # psi sqrt(n) constant: one location term
            (1.2, 2, None),
            (2.5, 0, None),   # strong separation: no location terms
            (2.0 / 3.0, None, 1),
            (0.8, None, 2),
            (0.5, None, 0),
        ],
    )
    def test_edgeworth_counts(self, f, k_plus, k_minus):
        info = classify(PowerScaling(f))
        assert info.k_plus == k_plus
        assert info.k_minus == k_minus

    def test_built_once_per_f(self):
        # RegimeInfo is frozen and depends on f only, so one instance serves.
        assert classify(PowerScaling(1.5)) is classify(PowerScaling(1.5))
        assert classify(PowerScaling(1.5)) is not classify(PowerScaling(0.5))


class TestLatticeFactor:
    def test_small_span_limit(self):
        theta = 0.01
        assert lattice_factor(theta, 1e-4) / (1.0 / theta) == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_span(self):
        # d / (1 - e^{-theta d}) grows with d for theta > 0
        vals = [lattice_factor(0.7, d) for d in (1e-3, 0.1, 0.5, 1.0)]
        assert vals == sorted(vals)


class TestApproxFast:
    def test_poisson_gamma_display_formula(self):
        # lattice case: value = exp((1 - rho + log rho) u n + sum) / ((1-rho) sqrt(2 pi u n))
        lam, r, mu, u, f, n = 1.0, 1.0, 3.0, 1.0, 2.5, 500.0
        m, s = pg_pair(lam, r, mu), PowerScaling(f)
        est = approx_fast(m, s, n, u, mode="series", lattice=True)
        rho = lam * r / (mu * u)
        expected = math.exp((1.0 - rho + math.log(rho)) * u * n) / (
            (1.0 - rho) * math.sqrt(2.0 * math.pi * u * n)
        )
        assert est.value == pytest.approx(expected, rel=1e-12)
        assert est.series_order == 1  # m_plus = 1 at f = 2.5: empty sum

    def test_gamma_poisson_display_formula(self):
        # non-lattice: (1/(1/rho - 1)) (2 pi lam r n)^{-1/2} exp((1 - 1/rho + log(1/rho)) lam r n + ...)
        r, mu, lam, u, f, n = 1.0, 2.0, 1.0, 1.0, 1.5, 256.0
        m, s = gp_pair(r, mu, lam), PowerScaling(f)
        est = approx_fast(m, s, n, u, mode="series", order=3, lattice=False)
        rho = lam * r / (mu * u)
        phi, psi = s.phi(n), s.psi(n)
        from twoscale import fast_series_coeffs

        _, _, vbar = fast_series_coeffs(gp_pair(r, mu, lam), u, k_max=3)
        exponent = (1.0 - 1.0 / rho + math.log(1.0 / rho)) * lam * r * n
        exponent += vbar[0] * phi * psi**2 + vbar[1] * phi * psi**3
        expected = math.exp(exponent) / ((1.0 / rho - 1.0) * math.sqrt(2.0 * math.pi * lam * r * n))
        assert est.value == pytest.approx(expected, rel=1e-12)

    def test_lattice_prefactor_converges_to_smooth(self):
        # At u close to a*b, theta* is small and d = 1e-4 is already deep in
        # the d -> 0 regime.
        lam, r, mu = 1.0, 1.0, 2.0
        u = 1.01 * lam * r / mu
        m_d = ModelPair(CharExponent.poisson(lam, lattice_span=1e-4), CharExponent.gamma(r, mu))
        s, n = PowerScaling(1.5), 100.0
        latt = approx_fast(m_d, s, n, u, lattice=True)
        smooth = approx_fast(m_d, s, n, u, lattice=False)
        assert abs(latt.prefactor / smooth.prefactor - 1.0) <= 1e-6

    def test_direct_matches_series_at_high_order(self):
        m, s = pg_pair(1.0, 1.0, 2.0), PowerScaling(1.5)
        direct = approx_fast(m, s, 1e4, 1.0, mode="direct", lattice=True)
        series = approx_fast(m, s, 1e4, 1.0, mode="series", order=4, lattice=True)
        assert abs(direct.log_value - series.log_value) <= 1e-3

    def test_series_error_monotone_in_order(self):
        m, s = pg_pair(1.0, 1.0, 2.0), PowerScaling(1.5)
        direct = approx_fast(m, s, 1e4, 1.0, mode="direct", lattice=True).log_value
        errs = [
            abs(approx_fast(m, s, 1e4, 1.0, mode="series", order=M, lattice=True).log_value - direct)
            for M in range(2, 7)
        ]
        assert all(errs[i + 1] <= errs[i] * (1 + 1e-9) for i in range(len(errs) - 1))

    @pytest.mark.parametrize("f", [1.0001, 0.9999])
    @pytest.mark.parametrize("pair", [pg_pair(1.0, 1.0, 2.0), gp_pair(1.0, 10.0, 1.0)])
    def test_series_order_is_bounded(self, f, pair):
        # near f = 1 the default order floor(f/|1-f|) passes 9000; an order past
        # K_MAX, default or given, is refused before any ladder is built
        fn = approx_fast if f > 1 else approx_slow
        s = PowerScaling(f)
        with pytest.raises(OrderError, match=r"\.\.50, got"):
            fn(pair, s, 1.0, 1.0, mode="series")
        with pytest.raises(OrderError, match=r"\.\.50, got"):
            fn(pair, s, 1.0, 1.0, mode="series", order=K_MAX + 1)
        assert math.isfinite(fn(pair, s, 1.0, 1.0, mode="series", order=K_MAX).log_value)

    def test_boundary_f2_constant_term(self):
        # At f = 2 the k = 2 term is the constant vbar_2; direct and series
        # then differ by o(1), shrinking with n.
        m, s = pg_pair(1.0, 1.0, 2.0), PowerScaling(2.0)
        diffs = []
        for n in (1e3, 1e6):
            d = approx_fast(m, s, n, 1.0, mode="direct", lattice=True).log_value
            se = approx_fast(m, s, n, 1.0, mode="series", lattice=True)
            assert se.series_order == 2
            diffs.append(abs(d - se.log_value))
        assert diffs[1] < diffs[0]
        assert diffs[1] < 1e-2

    def test_underflow_reports_log(self):
        m, s = pg_pair(1.0, 1.0, 2.0), PowerScaling(1.5)
        est = approx_fast(m, s, 1e4, 1.0, lattice=True)
        assert est.value == 0.0
        assert math.isfinite(est.log_value)
        assert est.exponent_terms[0][0] == "linear"
        assert est.exponent_terms[0][1] < 0

    def test_overflow_reports_inf(self):
        # Far outside its regime of validity (f ~ 3, n = 1e8) the direct
        # remainder dwarfs the linear term and the log exceeds the float range.
        m = pg_pair(0.500943, 2.543, 3.90569)
        est = approx_fast(m, PowerScaling(2.95107), 1e8, 1.44429, lattice=True)
        assert est.value == math.inf
        assert math.log(sys.float_info.max) < est.log_value < math.inf
        assert est.log_value == math.log(est.prefactor) + est.exponent

    def test_ratio_to_exact_fast(self):
        # light version of the theorem-restated check at n = 1e3
        lam, r, mu, u = 1.0, 1.0, 2.0, 1.0
        m, s = pg_pair(lam, r, mu), PowerScaling(1.5)
        n = 1e3
        law = exact_law(pg_pair(lam, r, mu), s, n)
        exact = negbin_tail(law.successes, law.p, u * n)
        est = approx_fast(m, s, n, u, mode="direct", lattice=True)
        assert math.exp(exact.log_probability - est.log_value) == pytest.approx(1.0, abs=0.05)

    def test_regime_and_lattice_errors(self):
        m = pg_pair(1.0, 1.0, 2.0)
        with pytest.raises(RegimeError):
            approx_fast(m, PowerScaling(0.5), 100.0, 1.0)
        with pytest.raises(LatticeError):
            approx_fast(gp_pair(1.0, 2.0, 1.0), PowerScaling(1.5), 100.0, 1.0, lattice=True)

    def test_unknown_mode_is_refused(self):
        with pytest.raises(OrderError, match="mode must be 'direct' or 'series', got 'bogus'"):
            approx_fast(pg_pair(1.0, 1.0, 2.0), PowerScaling(1.5), 100.0, 1.0, mode="bogus")

    def test_series_unavailable_for_custom(self):
        drift = CharExponent.custom(lambda t, o: 0.9 * t if o == 0 else (0.9 if o == 1 else 0.0))
        m = ModelPair(CharExponent.poisson(1.0), drift)
        with pytest.raises(SeriesUnavailable):
            approx_fast(m, PowerScaling(1.5), 100.0, 1.5, mode="series")


class TestApproxSlow:
    def test_poisson_gamma_display_formula(self):
        # non-lattice value = exp((1 - 1/rho + log(1/rho)) r phi + sum) / ((1/rho - 1) sqrt(2 pi r phi))
        lam, r, mu, u, f, n = 1.0, 1.0, 3.0, 1.0, 0.5, 400.0
        m, s = pg_pair(lam, r, mu), PowerScaling(f)
        est = approx_slow(m, s, n, u, mode="series", order=1, lattice=False)
        rho = lam * r / (mu * u)
        phi, psi = s.phi(n), s.psi(n)
        from twoscale import slow_series_coeffs

        _, _, wbar = slow_series_coeffs(pg_pair(lam, r, mu), u, k_max=1)
        exponent = (1.0 - 1.0 / rho + math.log(1.0 / rho)) * r * phi + wbar[0] * phi / psi
        expected = math.exp(exponent) / ((1.0 / rho - 1.0) * math.sqrt(2.0 * math.pi * r * phi))
        assert est.value == pytest.approx(expected, rel=1e-12)

    def test_gamma_poisson_lattice_prefactor(self):
        # B is the counting clock here; the lattice adjustment reads
        # d/(1 - e^{-a tau* d}) * a / (sigma_minus sqrt(2 pi phi)), with
        # sigma_minus^2 = a^2 beta''(a tau*) = r u / mu.
        r, mu, lam, u = 1.0, 2.0, 1.0, 1.0
        m, s = gp_pair(r, mu, lam), PowerScaling(0.5)
        n = 400.0
        est = approx_slow(m, s, n, u, mode="series", order=0, lattice=True)
        a = r / mu
        ell = math.log(mu * u / (lam * r))
        tau_star = (mu / r) * ell
        sigma_minus = math.sqrt(r * u / mu)
        pref = (
            lattice_factor(a * tau_star, 1.0)
            * a
            / (sigma_minus * math.sqrt(2.0 * math.pi * s.phi(n)))
        )
        assert est.prefactor == pytest.approx(pref, rel=1e-12)
        assert est.lattice_adjusted

    def test_lattice_prefactor_converges_to_smooth(self):
        r, mu, lam = 1.0, 2.0, 1.0
        u = 1.01 * (r / mu) * lam
        m = ModelPair(CharExponent.gamma(r, mu), CharExponent.poisson(lam, lattice_span=1e-4))
        s, n = PowerScaling(0.5), 100.0
        latt = approx_slow(m, s, n, u, lattice=True)
        smooth = approx_slow(m, s, n, u, lattice=False)
        assert abs(latt.prefactor / smooth.prefactor - 1.0) <= 1e-6

    def test_ratio_to_exact_slow(self):
        lam, r, mu, u = 1.0, 1.0, 2.0, 1.0
        m, s = pg_pair(lam, r, mu), PowerScaling(0.5)
        n = 1e3
        law = exact_law(pg_pair(lam, r, mu), s, n)
        exact = negbin_tail(law.successes, law.p, u * n)
        est = approx_slow(m, s, n, u, mode="direct", lattice=False)
        assert math.exp(exact.log_probability - est.log_value) == pytest.approx(1.0, abs=0.05)

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            approx_slow(pg_pair(1.0, 1.0, 2.0), PowerScaling(1.5), 100.0, 1.0)

    def test_empty_series_under_strong_separation(self):
        m, s = pg_pair(1.0, 1.0, 2.0), PowerScaling(0.3)
        est = approx_slow(m, s, 1000.0, 1.0, mode="series")
        assert est.series_order == 0
        assert len(est.exponent_terms) == 1


class TestSingleTimescale:
    def test_exponent_matches_direct_at_f1(self, pg113):
        n, u = 50.0, 1.0
        s1 = PowerScaling(1.0)
        est = approx_single_timescale(pg113, n, u)
        sol = solve_twist(pg113, s1, n, u)
        delta = sol.log_mgf - sol.theta_n * u * n
        assert est.exponent == pytest.approx(delta, abs=1e-9)

    def test_twist_residual_and_variance(self, pg113):
        s1 = PowerScaling(1.0)
        sol = solve_twist(pg113, s1, 50.0, 1.0)
        assert sol.residual <= 1e-10
        # sigma_0^2 > 0 whenever u > ab
        est = approx_single_timescale(pg113, 50.0, 1.0)
        assert est.prefactor > 0

    def test_close_to_exact(self, pg113):
        # f = 1 keeps the negative binomial law exact; sanity-check the value.
        n, u = 400.0, 1.0
        law = exact_law(pg_pair(1.0, 1.0, 3.0), PowerScaling(1.0), n)
        exact = negbin_tail(law.successes, law.p, u * n)
        est = approx_single_timescale(pg113, n, u)
        # the smooth prefactor differs from the lattice one by about theta*d/ ...;
        # only require the right order of magnitude here
        assert abs(exact.log_probability - est.log_value) < 1.0

    def test_lattice_form_tracks_negbin(self, pg113):
        # C_n is an n-fold lattice sum at f = 1, so A's span gives the
        # Bahadur-Rao prefactor; without it the log stays ~0.33 nats off.
        s1 = PowerScaling(1.0)
        gaps = []
        for n in (1e2, 1e3, 1e4, 1e5):
            law = exact_law(pg113, s1, n)
            exact = negbin_tail(law.successes, law.p, n).log_probability
            lattice = _approx("single", pg113, s1, n, 1.0, "direct", None, True)
            plain = approx_single_timescale(pg113, n, 1.0)
            assert lattice.lattice_adjusted and lattice.exponent_terms == plain.exponent_terms
            gap = abs(exact - lattice.log_value)
            assert gap <= 0.02
            assert gap < abs(exact - plain.log_value)
            gaps.append(gap)
        assert gaps == sorted(gaps, reverse=True)

    @pytest.mark.parametrize("lattice", [False, True])
    def test_series_is_the_linear_term_at_order_0(self, pg113, lattice):
        s1 = PowerScaling(1.0)
        direct = _approx("single", pg113, s1, 50.0, 1.0, "direct", None, lattice)
        for order in (None, 0):
            est = _approx("single", pg113, s1, 50.0, 1.0, "series", order, lattice)
            assert est.series_order == 0 and est.mode == "series"
            assert (est.prefactor, est.exponent_terms, est.log_value) == (
                direct.prefactor, direct.exponent_terms, direct.log_value)
        with pytest.raises(OrderError, match=r"0\.\.0, got 1"):
            _approx("single", pg113, s1, 50.0, 1.0, "series", 1, lattice)

    def test_lattice_needs_a_span_on_a(self):
        with pytest.raises(LatticeError, match="A has lattice span 0"):
            _approx("single", gp_pair(1.0, 2.0, 1.0), PowerScaling(1.0), 100.0, 1.0, "direct", None, True)

    def test_regime_error_off_f1(self, pg113):
        with pytest.raises(RegimeError):
            _approx("single", pg113, PowerScaling(1.5), 100.0, 1.0, "direct", None, False)


class TestDirectModeTakesNoOrder:
    """An ``order`` in direct mode raises OrderError before any solve, in every regime."""

    @pytest.mark.parametrize("regime,f", [("fast", 1.5), ("slow", 0.5), ("single", 1.0)])
    @pytest.mark.parametrize("order", [0, 3])
    def test_order_is_refused(self, monkeypatch, regime, f, order):
        model = pg_pair(1.0, 1.0, 3.0)
        calls = count_derivs(monkeypatch, model)
        with pytest.raises(OrderError, match=f"got order {order} in direct mode"):
            _approx(regime, model, PowerScaling(f), 400.0, 1.0, "direct", order, False)
        assert calls[0] == 0 and model._memo == {}

    @pytest.mark.parametrize("approx,f", [(approx_fast, 1.5), (approx_slow, 0.5)])
    def test_public_approximants(self, approx, f):
        with pytest.raises(OrderError, match="got order 3 in direct mode"):
            approx(pg_pair(1.0, 1.0, 3.0), PowerScaling(f), 400.0, 1.0, order=3)


class TestLogAsymptote:
    def test_poisson_gamma_fast_rate(self):
        lam, r, mu, u = 1.0, 1.0, 3.0, 1.0
        rate, slow = log_asymptote(pg_pair(lam, r, mu), PowerScaling(1.5), u)
        rho = lam * r / (mu * u)
        assert slow is None
        assert rate == pytest.approx((1.0 - rho + math.log(rho)) * u, rel=1e-10)

    def test_gamma_poisson_fast_rate(self):
        r, mu, lam, u = 1.0, 2.0, 1.0, 1.0
        rate, _ = log_asymptote(gp_pair(r, mu, lam), PowerScaling(2.0), u)
        rho = lam * r / (mu * u)
        assert rate == pytest.approx((1.0 - 1.0 / rho + math.log(1.0 / rho)) * lam * r, rel=1e-10)

    def test_slow_rate_slot(self):
        lam, r, mu, u = 1.0, 1.0, 3.0, 1.0
        fast, rate = log_asymptote(pg_pair(lam, r, mu), PowerScaling(0.5), u)
        assert fast is None
        rho = lam * r / (mu * u)
        assert rate == pytest.approx((1.0 - 1.0 / rho + math.log(1.0 / rho)) * r, rel=1e-10)

    @pytest.mark.parametrize("f", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("ratio", [1.1, 2.0, 5.0])
    def test_rate_strictly_negative(self, f, ratio):
        lam, r, mu = 1.0, 1.0, 3.0
        u = ratio * lam * r / mu
        rates = log_asymptote(pg_pair(lam, r, mu), PowerScaling(f), u)
        assert all(v < 0 for v in rates if v is not None)

    def test_fast_remainder_vanishes_under_strong_separation(self):
        # f > 2: the direct sublinear remainder is o(1) and already tiny at n = 1e4.
        m, s = pg_pair(1.0, 1.0, 2.0), PowerScaling(2.5)
        est = approx_fast(m, s, 1e4, 1.0, mode="direct", lattice=True)
        terms = dict(est.exponent_terms)
        assert abs(terms["sublinear_remainder"]) <= 1e-2


PAIRS = {
    "pg": lambda: pg_pair(1.0, 1.0, 3.0),
    "gp": lambda: gp_pair(1.0, 2.0, 1.0),
    "custom": lambda: vg_pair(1.0, 1.0, 1.0, 2.0),
}


def _ladder_point(model, f, n, u):
    """Everything an n ladder asks of one pair at (n, u)."""
    s = PowerScaling(f)
    if f == 1.0:
        out = [approx_single_timescale(model, n, u)]
    else:
        fn = approx_fast if f > 1 else approx_slow
        out = [fn(model, s, n, u)]
        if model.A.kind != "custom":
            out.append(fn(model, s, n, u, mode="series"))
    return out + [solve_twist(model, s, n, u), log_asymptote(model, s, u)]


class TestPairReuse:
    @pytest.mark.parametrize("kind", sorted(PAIRS))
    @pytest.mark.parametrize("f", [1.5, 0.6, 1.0])
    def test_reused_pair_matches_fresh_pairs(self, monkeypatch, kind, f):
        # One pair over an n ladder and then a second u gives exactly what a
        # fresh pair gives on every call, with fewer derivative evaluations.
        calls = count_derivs(monkeypatch)
        reused = PAIRS[kind]()
        ab = reused.a * reused.b
        spent = {"reused": 0, "fresh": 0}
        for u in (2.0 * ab, 3.0 * ab):
            for n in (10.0, 1e3, 1e5, 1e8):
                fresh = PAIRS[kind]()
                start = calls[0]
                got = _ladder_point(reused, f, n, u)
                spent["reused"] += calls[0] - start
                start = calls[0]
                want = _ladder_point(fresh, f, n, u)
                spent["fresh"] += calls[0] - start
                assert got == want
        assert spent["reused"] < spent["fresh"]


class TestNonFiniteInput:
    # n below 1 counts as bad input too: the prefactor's sqrt(2 pi n) must
    # not run before the check.
    @pytest.mark.parametrize("n,u", [
        (math.nan, 1.0), (math.inf, 1.0), (100.0, math.nan), (100.0, math.inf),
        (0.0, 1.0), (-3.0, 1.0), (0.5, 1.0),
    ])
    @pytest.mark.parametrize("entry", [
        lambda m, n, u: approx_fast(m, PowerScaling(1.5), n, u),
        lambda m, n, u: approx_fast(m, PowerScaling(1.5), n, u, mode="series"),
        lambda m, n, u: approx_slow(m, PowerScaling(0.6), n, u),
        lambda m, n, u: approx_slow(m, PowerScaling(0.6), n, u, mode="series"),
        lambda m, n, u: approx_single_timescale(m, n, u),
        lambda m, n, u: solve_twist(m, PowerScaling(1.5), n, u),
        lambda m, n, u: solve_twist(m, PowerScaling(1.0), n, u),
    ], ids=["fast", "fast-series", "slow", "slow-series", "single", "twist", "twist-f1"])
    def test_rejected_as_param_error(self, entry, n, u):
        with pytest.raises(ParamError):
            entry(pg_pair(1.0, 1.0, 3.0), n, u)

    @pytest.mark.parametrize("f", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("u", [math.nan, math.inf])
    def test_log_asymptote_rejects_non_finite_u(self, f, u):
        with pytest.raises(ParamError):
            log_asymptote(pg_pair(1.0, 1.0, 3.0), PowerScaling(f), u)

    @pytest.mark.parametrize("mode", ["direct", "series"])
    def test_overflowing_phi_rejected(self, mode):
        # n ** f overflows for f = 1.5 at n = 1e300: bad input, not a crash.
        with pytest.raises(ParamError):
            approx_fast(pg_pair(1.0, 2.0, 3.0), PowerScaling(1.5), 1e300, 1.0, mode=mode)


class TestNotRareAtF1:
    @pytest.mark.parametrize("entry", [
        lambda m, u: approx_single_timescale(m, 10.0, u),
        lambda m, u: log_asymptote(m, PowerScaling(1.0), u),
    ], ids=["single", "log_asymptote"])
    @pytest.mark.parametrize("u", [0.1, 1.0 / 3.0])
    def test_raises_not_rare_without_solving(self, monkeypatch, entry, u):
        # u <= a*b = 1/3: rejected up front, as in the fast and slow regimes,
        # instead of halving the lower bracket towards 5e-324.
        model = pg_pair(1.0, 1.0, 3.0)
        calls = count_derivs(monkeypatch, model)
        with pytest.raises(NotRareError):
            entry(model, u)
        assert calls[0] < 10


# Exact outputs of the approximants, recorded before the fast, slow and
# single-timescale paths were folded into one evaluator: (pair, f, mode,
# lattice) -> (prefactor, exponent_terms, log_value, value), n = 200 for
# fast/slow and n = 50 at f = 1, u = 2 a b; log_asymptote rows hold its pair.
GOLDEN = [
    (('pg', 1.5, 'direct', False),
     (0.04984426960984458,
      (('linear', -25.752957407992703), ('sublinear_remainder', 0.761757208001363)),
      -27.990051941834285, 6.983528236614571e-13)),
    (('pg', 1.5, 'direct', True),
     (0.06909882989426709,
      (('linear', -25.752957407992703), ('sublinear_remainder', 0.761757208001363)),
      -27.663417681856004, 9.681225815140314e-13)),
    (('pg', 1.5, 'series', False),
     (0.04984426960984458,
      (('linear', -25.752957407992703), ('k=2', 0.7856742013183862), ('k=3', -0.024691358024691384)),
      -27.99082630654195, 6.978122532076674e-13)),
    (('pg', 1.5, 'series', True),
     (0.06909882989426709,
      (('linear', -25.752957407992703), ('k=2', 0.7856742013183862), ('k=3', -0.024691358024691384)),
      -27.66419204656367, 9.673731917421547e-13)),
    (('pg', 0.6, 'direct', False),
     (0.0813956259098178,
      (('linear', -7.37136838131084), ('sublinear_remainder', 1.6661065909613795)),
      -8.213695533518544, 0.00027091768367073056)),
    (('pg', 0.6, 'series', False),
     (0.0813956259098178,
      (('linear', -7.37136838131084), ('k=1', 2.16404985886082)),
      -7.715752265619104, 0.00044575001586955634)),
    (('pg', 1.0, 'single', False),
     (0.11387938337939713,
      (('linear', -4.509610075814037),),
      -6.682225507053287, 0.0012529863373811816)),
    (('gp', 1.5, 'direct', False),
     (0.028209479177387763,
      (('linear', -61.37056388801094), ('sublinear_remainder', 3.2219283835278887)),
      -61.716732720961744, 1.5731261058601426e-27)),
    (('gp', 1.5, 'series', False),
     (0.028209479177387763,
      (('linear', -61.37056388801094), ('k=2', 3.3973158418307494), ('k=3', -0.18472239829427917)),
      -61.72606766095316, 1.5585093972547126e-27)),
    (('gp', 0.6, 'direct', False),
     (0.08303488877104073,
      (('linear', -9.279751917006942), ('sublinear_remainder', 1.20754037568428)),
      -10.560705954190055, 2.591455043391452e-05)),
    (('gp', 0.6, 'direct', True),
     (0.11511079807951113,
      (('linear', -9.279751917006942), ('sublinear_remainder', 1.20754037568428)),
      -10.234071694211774, 3.592519513749271e-05)),
    (('gp', 0.6, 'series', False),
     (0.08303488877104073,
      (('linear', -9.279751917006942), ('k=1', 1.386299035945252)),
      -10.381947293929084, 3.098686063140307e-05)),
    (('gp', 0.6, 'series', True),
     (0.11511079807951113,
      (('linear', -9.279751917006942), ('k=1', 1.386299035945252)),
      -10.055313033950803, 4.295691016212201e-05)),
    (('gp', 1.0, 'single', False),
     (0.08098941318115013,
      (('linear', -8.578643762690497),),
      -11.092080597009659, 1.5232479555167043e-05)),
    (('pg', 1.5, 'log_asymptote', None), (-0.12876478703996352, None)),
    (('pg', 0.6, 'log_asymptote', None), (None, -0.3068528194400547)),
    (('pg', 1.0, 'log_asymptote', None), (-0.09019220151628074, None)),
]


class TestGolden:
    @pytest.mark.parametrize("key,want", GOLDEN, ids=[
        "-".join(str(part) for part in key) for key, _ in GOLDEN
    ])
    def test_bit_identical(self, key, want):
        kind, f, mode, lattice = key
        model = pg_pair(1.0, 1.0, 3.0) if kind == "pg" else gp_pair(1.0, 2.0, 1.0)
        u = 2.0 * model.a * model.b
        if mode == "log_asymptote":
            assert log_asymptote(model, PowerScaling(f), u) == want
            return
        if mode == "single":
            est = approx_single_timescale(model, 50.0, u)
        else:
            fn = approx_fast if f > 1 else approx_slow
            est = fn(model, PowerScaling(f), 200.0, u, mode=mode, lattice=lattice)
        assert (est.prefactor, est.exponent_terms, est.log_value, est.value) == want
