"""Characteristic exponents, the composed log-mgf, and the moment split."""

import dataclasses
import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twoscale import (
    CharExponent,
    DomainError,
    ModelPair,
    OrderError,
    ParamError,
    PowerScaling,
    UnsupportedSignError,
    fast_expansion,
    lmgf,
    load_model,
    mean_variance,
    slow_expansion,
    solve_twist,
)
from conftest import MALFORMED_MODELS, count_derivs, gp_pair, malformed_model, pg_pair


class TestCharExponent:
    def test_exponent_vanishes_at_origin(self):
        assert CharExponent.poisson(1.0).deriv(0.0, 0) == 0.0
        assert CharExponent.gamma(1.0, 2.0).deriv(0.0, 0) == 0.0

    def test_gamma_value(self):
        # shape 1, rate 2 at theta = 1: log(2/(2-1)) = log 2
        assert CharExponent.gamma(1.0, 2.0).deriv(1.0, 0) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_poisson_mean(self):
        assert CharExponent.poisson(2.0).deriv(0.0, 1) == 2.0

    def test_domain_is_exclusive(self):
        g = CharExponent.gamma(1.0, 2.0)
        with pytest.raises(DomainError):
            g.deriv(2.0, 0)
        with pytest.raises(DomainError):
            g.deriv(2.5, 1)

    def test_order_cap(self):
        with pytest.raises(OrderError):
            CharExponent.poisson(1.0).deriv(0.5, 4)
        with pytest.raises(OrderError):
            CharExponent.poisson(1.0).deriv(0.5, -1)

    def test_custom_delegates(self):
        drift = CharExponent.custom(lambda t, o: 2.0 * t if o == 0 else (2.0 if o == 1 else 0.0))
        assert drift.deriv(3.0, 0) == 6.0
        assert drift.deriv(3.0, 1) == 2.0
        assert drift.deriv(3.0, 2) == 0.0

    def test_custom_must_vanish_at_zero(self):
        with pytest.raises(ParamError):
            CharExponent.custom(lambda t, o: t + 1.0)

    def test_bad_params(self):
        with pytest.raises(ParamError):
            CharExponent.poisson(0.0)
        with pytest.raises(ParamError):
            CharExponent.gamma(1.0, -2.0)

    @pytest.mark.parametrize("build, message", [
        (lambda: CharExponent.poisson(math.inf), "poisson rate must be positive and finite"),
        (lambda: CharExponent.gamma(math.inf, 2.0), "must be positive and finite, got shape=inf"),
        (lambda: CharExponent.gamma(1.0, math.inf), "must be positive and finite, got shape=1.0, rate=inf"),
        (lambda: CharExponent.poisson(1.0, lattice_span=math.nan), "lattice span must be finite"),
        (lambda: CharExponent.poisson(1.0, lattice_span=math.inf), "lattice span must be finite"),
    ], ids=["poisson-rate", "gamma-shape", "gamma-rate", "span-nan", "span-inf"])
    def test_infinite_params_are_refused_by_name(self, build, message):
        # They used to construct, and ModelPair then blamed the origin.
        with pytest.raises(ParamError, match=message):
            build()

    def test_custom_probe_runs_where_the_exponent_is_built(self):
        calls = []

        def derivs(t, o):
            calls.append((t, o))
            return t if o == 0 else (1.0 if o == 1 else 0.0)

        exponent = CharExponent("custom", math.inf, 0.0, {}, derivs)
        assert calls == [(0.0, 0)]
        with pytest.raises(ParamError, match="vanish at 0"):
            dataclasses.replace(exponent, _derivs=lambda t, o: t + 1.0)

    def test_custom_domain_at_the_origin_still_fails_in_the_pair(self):
        drift = CharExponent.custom(lambda t, o: t if o == 0 else (1.0 if o == 1 else 0.0), domain_sup=0.0)
        with pytest.raises(DomainError):
            ModelPair(drift, CharExponent.gamma(1.0, 2.0))

    def test_lattice_spans(self):
        assert CharExponent.poisson(1.0).lattice_span == 1.0
        assert CharExponent.poisson(1.0, lattice_span=0.5).lattice_span == 0.5
        assert CharExponent.gamma(1.0, 2.0).lattice_span == 0.0

    @pytest.mark.parametrize(
        "exponent,thetas",
        [
            (CharExponent.poisson(1.3), (-0.5, 0.0, 0.7, 2.0)),
            (CharExponent.gamma(0.7, 2.5), (-1.0, 0.0, 0.8, 1.9)),
        ],
    )
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_derivatives_match_finite_differences(self, exponent, thetas, order):
        # Central differences of the next-lower order, step tuned to the order.
        h = (1e-6, 1e-5, 1e-4)[order - 1]
        for t in thetas:
            hh = h * max(1.0, abs(t))
            if t + hh >= exponent.domain_sup:
                continue
            fd = (exponent.deriv(t + hh, order - 1) - exponent.deriv(t - hh, order - 1)) / (2 * hh)
            assert fd == pytest.approx(exponent.deriv(t, order), rel=1e-6)


def _drift_derivs(t, order):
    # Brownian motion with drift 0.8 and variance 1.7.
    return (0.8 * t + 0.85 * t * t, 0.8 + 1.7 * t, 1.7, 0.0)[order]


def _gamma_derivs(t, order):
    # A Gamma(1.3, 2.0) exponent written as user code.
    if order == 0:
        return 1.3 * math.log(2.0 / (2.0 - t))
    return 1.3 * math.factorial(order - 1) / (2.0 - t) ** order


# (exponent, strategy for t inside its domain)
JET_CASES = {
    "poisson": (CharExponent.poisson(1.3), st.floats(-700.0, 700.0)),
    "gamma": (CharExponent.gamma(0.7, 2.5),
              st.floats(-1e6, 2.5, exclude_max=True)),
    "custom-drift": (CharExponent.custom(_drift_derivs), st.floats(-1e6, 1e6)),
    "custom-gamma": (CharExponent.custom(_gamma_derivs, domain_sup=2.0),
                     st.floats(-1e6, 2.0, exclude_max=True)),
}


class TestJet:
    @pytest.mark.parametrize("kind", sorted(JET_CASES))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_jet_orders_equal_deriv(self, kind, data):
        exponent, ts = JET_CASES[kind]
        t = data.draw(ts)
        for k in range(4):
            jet = exponent.jet(t, k)
            assert len(jet) == k + 1
            for j in range(k + 1):
                assert jet[j] == exponent.deriv(t, j)

    @pytest.mark.parametrize("kind", sorted(JET_CASES))
    def test_domain_error_at_and_beyond_sup(self, kind):
        exponent, _ = JET_CASES[kind]
        sup = exponent.domain_sup
        for t in (sup, sup + 1.0, math.inf):
            for k in range(4):
                with pytest.raises(DomainError) as got:
                    exponent.jet(t, k)
                with pytest.raises(DomainError) as want:
                    exponent.deriv(t, k)
                assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("kind", sorted(JET_CASES))
    @pytest.mark.parametrize("k", [-1, 4])
    def test_order_cap(self, kind, k):
        with pytest.raises(OrderError):
            JET_CASES[kind][0].jet(0.5, k)

    def test_gamma_orders_match_the_factorial_form(self):
        # shape / x, shape / x**2 and shape * 2 / x**3 are bitwise the
        # general shape * (order - 1)! / (rate - t) ** order.
        for shape, rate in itertools.product((0.3, 1.0, 2.7, 1e3), (0.5, 2.0, 37.0)):
            g = CharExponent.gamma(shape, rate)
            ts = [rate - 10.0 ** e for e in range(-12, 7)] + [-1e3, -1.0, 0.0, 0.1 * rate]
            for t, order in itertools.product(ts, (1, 2, 3)):
                want = shape * math.factorial(order - 1) / (rate - t) ** order
                assert g.deriv(t, order) == want
                assert g.jet(t, 3)[order] == want

    def test_custom_jet_calls_orders_in_turn(self):
        seen = []

        def derivs(t, order):
            seen.append(order)
            return _drift_derivs(t, order)

        exponent = CharExponent.custom(derivs)
        seen.clear()
        exponent.jet(0.3, 3)
        exponent.deriv(0.3, 2)  # deriv reads the jet of its own order
        assert seen == [0, 1, 2, 3, 0, 1, 2]


class TestFloatEdge:
    """An order whose value lies past the float range reads +inf."""

    @given(
        kind=st.sampled_from(["poisson", "gamma"]),
        rate=st.floats(1e-300, 1e100),
        shape=st.floats(1e-3, 1e3),
        frac=st.floats(0.0, 1.0, exclude_max=True),
        t=st.floats(0.0, 1e308),
    )
    @settings(max_examples=300, deadline=None)
    def test_built_in_orders_are_positive_or_inf(self, kind, rate, shape, frac, t):
        # On [0, domain_sup): no OverflowError or ZeroDivisionError, and
        # every order >= 1 is positive or +inf.
        if kind == "poisson":
            exponent = CharExponent.poisson(rate)
        else:
            exponent, t = CharExponent.gamma(shape, rate), frac * rate
            assume(t < rate)
        jet = exponent.jet(t, 3)
        assert all(d > 0 for d in jet[1:])
        assert jet == tuple(exponent.deriv(t, j) for j in range(4))

    def test_poisson_overflow_reads_inf(self):
        assert CharExponent.poisson(2.0).jet(710.0, 3) == (math.inf,) * 4

    def test_gamma_underflowed_power_reads_inf(self):
        # x = 1e-120: x ** 3 underflows to 0 while x ** 2 does not.
        g = CharExponent.gamma(1.0, 1e-120)
        value, d1, d2, d3 = g.jet(0.0, 3)
        assert (value, d1, d2, d3) == (0.0, 1.0 / 1e-120, 1.0 / 1e-120 ** 2, math.inf)
        assert CharExponent.gamma(1.0, 1e-170).jet(0.0, 2)[2] == math.inf

    def test_gamma_overflowed_power_reads_the_order(self):
        # x = 1e200: x ** 2 and x ** 3 overflow; the orders underflow to 0.0.
        assert CharExponent.gamma(1.0, 1e200).jet(0.0, 3) == (0.0, 1e-200, 0.0, 0.0)
        assert CharExponent.gamma(1.0, 1e160).jet(0.0, 3)[2:] == (1.0 / 1e160 / 1e160, 0.0)

    def test_custom_overflow_reads_inf_order_by_order(self):
        seen = []

        def derivs(t, order):
            seen.append(order)
            if order == 1 and t > 1.0:
                raise OverflowError("order 1 overflows")
            return _drift_derivs(t, order)

        exponent = CharExponent.custom(derivs)
        assert exponent.jet(2.0, 3) == (_drift_derivs(2.0, 0), math.inf, 1.7, 0.0)
        seen.clear()
        assert exponent.deriv(2.0, 1) == math.inf
        assert seen == [0, 1, 0, 1]  # the jet to order 1, then each order on its own
        seen.clear()
        assert exponent.deriv(2.0, 2) == 1.7
        assert seen == [0, 1, 0, 1, 2]


class TestModelPair:
    def test_means_recomputed(self):
        m = pg_pair(1.4, 0.8, 2.1)
        assert m.a == pytest.approx(1.4, rel=1e-14)
        assert m.b == pytest.approx(0.8 / 2.1, rel=1e-14)

    def test_negative_outer_mean_rejected(self):
        neg = CharExponent.custom(lambda t, o: -t if o == 0 else (-1.0 if o == 1 else 0.0))
        with pytest.raises(UnsupportedSignError):
            ModelPair(neg, CharExponent.gamma(1.0, 2.0))

    def test_nonincreasing_clock_rejected(self):
        flat = CharExponent.custom(lambda t, o: 0.0)
        with pytest.raises(ParamError):
            ModelPair(CharExponent.poisson(1.0), flat)

    def test_stock_pairs_hash(self):
        pg, gp = pg_pair(1.0, 1.0, 3.0), gp_pair(1.0, 2.0, 1.0)
        assert len({pg, gp, pg}) == 2
        assert hash(ModelPair(pg.A, pg.B)) == hash(pg)
        assert ModelPair(pg.A, pg.B) == pg

    def test_hash_leaves_params_out_but_equality_keeps_them(self):
        A = CharExponent.poisson(1.0)
        other = dataclasses.replace(A, params={"lam": 2.0})
        assert hash(other) == hash(A)
        assert other != A

    def test_built_ins_compare_by_value(self):
        assert CharExponent.poisson(1.0) == CharExponent.poisson(1.0)
        assert CharExponent.gamma(1.0, 3.0) == CharExponent.gamma(1.0, 3.0)
        assert CharExponent.poisson(1.0) != CharExponent.poisson(2.0)
        one, two = pg_pair(1.0, 1.0, 3.0), pg_pair(1.0, 1.0, 3.0)
        assert one == two and hash(one) == hash(two)
        assert len({gp_pair(1.0, 2.0, 1.0), gp_pair(1.0, 2.0, 1.0)}) == 1

    def test_memo_stays_out_of_equality_and_hash(self):
        A, B = CharExponent.poisson(1.0), CharExponent.gamma(1.0, 3.0)
        used, unused = ModelPair(A, B), ModelPair(A, B)
        before = hash(used)
        fast_expansion(used, 1.0)
        slow_expansion(used, 1.0, order=1)
        solve_twist(used, PowerScaling(1.0), 50.0, 1.0)
        assert used == unused
        assert hash(used) == hash(unused) == before
        assert repr(used) == repr(unused)

    def test_means_are_computed_once(self, monkeypatch):
        m = pg_pair(1.4, 0.8, 2.1)
        calls = count_derivs(monkeypatch, m)
        assert (m.a, m.b) == (m.A.deriv(0.0, 1), m.B.deriv(0.0, 1))
        assert calls[0] == 2
        assert "a=" not in repr(m) and "b=" not in repr(m)
        assert dataclasses.replace(m).a == m.a


class TestBuiltInParams:
    """A built-in exponent is defined by its params: its jet is built from them."""

    def test_replaced_params_drive_the_jet(self):
        g = dataclasses.replace(
            CharExponent.gamma(1.0, 2.0), params={"r": 5.0, "mu": 7.0}, domain_sup=7.0
        )
        assert g.deriv(0.0, 1) == 5.0 / 7.0
        assert g.jet(0.0, 2) == (0.0, 5.0 / 7.0, 5.0 / 49.0)
        assert g == CharExponent.gamma(5.0, 7.0)
        p = dataclasses.replace(CharExponent.poisson(1.0), params={"lam": 2.5})
        assert p.deriv(0.0, 3) == 2.5

    def test_domain_sup_comes_from_params(self):
        g = dataclasses.replace(CharExponent.gamma(1.0, 2.0), params={"r": 5.0, "mu": 7.0})
        assert g.domain_sup == 7.0
        assert g == CharExponent.gamma(5.0, 7.0)
        p = dataclasses.replace(CharExponent.poisson(1.0), domain_sup=3.0)
        assert p.domain_sup == math.inf
        assert p == CharExponent.poisson(1.0)

    @pytest.mark.parametrize("make", [
        lambda: dataclasses.replace(CharExponent.gamma(1.0, 2.0), params={"r": 5.0}),
        lambda: dataclasses.replace(CharExponent.poisson(1.0), params={}),
        lambda: dataclasses.replace(CharExponent.poisson(1.0), kind="stable"),
        lambda: dataclasses.replace(CharExponent.poisson(1.0), params={"lam": -2.0}),
        lambda: dataclasses.replace(
            CharExponent.gamma(1.0, 2.0), params={"r": 0.0, "mu": 2.0}
        ),
        lambda: dataclasses.replace(CharExponent.poisson(1.0), lattice_span=-1.0),
        lambda: CharExponent.gamma(1.0, math.nan),
        lambda: CharExponent.poisson(math.nan),
    ])
    def test_inconsistent_definitions_rejected(self, make):
        with pytest.raises(ParamError):
            make()

    def test_only_custom_exponents_keep_an_evaluator(self):
        assert CharExponent.poisson(1.0)._derivs is None
        assert CharExponent.gamma(1.0, 2.0)._derivs is None
        assert CharExponent.custom(_drift_derivs)._derivs is _drift_derivs


class TestPowerScaling:
    def test_product_is_n_in_log_space(self):
        for f in (0.3, 0.5, 1.0, 1.5, 2.7):
            s = PowerScaling(f)
            for n in (2.0, 64.0, 1e4, 12345.678):
                assert math.log(s.phi(n)) + math.log(s.psi(n)) == pytest.approx(
                    math.log(n), abs=1e-12
                )

    def test_requires_positive_f(self):
        with pytest.raises(ParamError):
            PowerScaling(0.0)
        with pytest.raises(ParamError):
            PowerScaling(-1.5)

    @pytest.mark.parametrize("f,n,which", [
        (1.5, 0.0, "phi"), (1.5, 0.0, "psi"), (0.5, -1.0, "phi"), (0.5, -1.0, "psi"),
        (1.5, 1e300, "phi"), (3.0, 1e-300, "psi"),
    ])
    def test_bad_n_and_overflow_rejected(self, f, n, which):
        with pytest.raises(ParamError, match="f = "):
            getattr(PowerScaling(f), which)(n)


class TestLmgf:
    def test_zero_at_origin(self):
        m = pg_pair(1.0, 1.0, 2.0)
        assert lmgf(m, PowerScaling(1.5), 100.0, 0.0) == 0.0

    @pytest.mark.parametrize("lam,r,mu,f,n,theta", [
        (1.0, 1.0, 2.0, 1.5, 64.0, 0.4),
        (0.7, 1.3, 3.0, 0.5, 100.0, 0.1),
        (2.0, 0.5, 4.0, 2.0, 25.0, 0.9),
    ])
    def test_poisson_gamma_closed_form(self, lam, r, mu, f, n, theta):
        m, s = pg_pair(lam, r, mu), PowerScaling(f)
        psi = s.psi(n)
        expected = r * s.phi(n) * math.log(mu / (mu - lam * (math.exp(theta) - 1.0) * psi))
        assert lmgf(m, s, n, theta) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("r,mu,lam,f,n,theta", [
        (1.0, 2.0, 1.0, 1.5, 64.0, 0.8),
        (1.3, 3.0, 0.7, 0.5, 100.0, 1.5),
    ])
    def test_gamma_poisson_closed_form(self, r, mu, lam, f, n, theta):
        m, s = gp_pair(r, mu, lam), PowerScaling(f)
        psi = s.psi(n)
        expected = s.phi(n) * lam * ((mu / (mu - theta)) ** (r * psi) - 1.0)
        assert lmgf(m, s, n, theta) == pytest.approx(expected, rel=1e-13)

    def test_order_past_two_is_refused(self):
        with pytest.raises(OrderError, match="must be 0, 1 or 2, got 3"):
            lmgf(pg_pair(1.0, 1.0, 2.0), PowerScaling(1.5), 100.0, 0.1, order=3)

    def test_domain_error_signals_overshoot(self):
        m, s = pg_pair(1.0, 1.0, 2.0), PowerScaling(0.5)
        # alpha(theta)*psi >= mu at n = 100, psi = 10: lam(e^t - 1) >= 0.2
        with pytest.raises(DomainError):
            lmgf(m, s, 100.0, 1.0)

    def test_clock_value_past_the_float_range_reads_inf(self):
        # Gamma(1, 1) on a Poisson(1) clock at f = 0.5, n = 1e7: psi_n ~ 3162
        # puts the clock's exponent at alpha(0.5) psi_n ~ 2192, past exp's range.
        m, s = gp_pair(1.0, 1.0, 1.0), PowerScaling(0.5)
        assert lmgf(m, s, 1e7, 0.5) == math.inf
        assert lmgf(m, s, 1e7, 0.5, order=2) == math.inf

    def test_alpha_past_the_float_range_reads_inf_at_every_order(self):
        # alpha(800) = e^800 - 1 overflows; B's exponent is never evaluated there.
        m, s = pg_pair(1.0, 1.0, 2.0), PowerScaling(1.5)
        assert [lmgf(m, s, 100.0, 800.0, order) for order in (0, 1, 2)] == [math.inf] * 3

    def test_squared_slope_past_the_float_range_reads_inf(self):
        # alpha'(1e-187) = 40.5 / 1e-187: its square overflows, the lower orders do not.
        m, s = gp_pair(40.5, 2e-187, 1.6), PowerScaling(1.5)
        assert lmgf(m, s, 100.0, 1e-187, order=2) == math.inf
        assert math.isfinite(lmgf(m, s, 100.0, 1e-187, order=1))
        assert math.isfinite(lmgf(m, s, 100.0, 1e-187))

    def test_only_the_clock_value_overflows(self):
        # A Gamma(1, 3) clock as user code whose value alone overflows above
        # 0.1: gamma_n reads +inf, its derivatives stay those of the stock pair.
        def gamma(t, order):
            if order == 0:
                if t > 0.1:
                    raise OverflowError("value overflows")
                return math.log(3.0 / (3.0 - t))
            return math.factorial(order - 1) / (3.0 - t) ** order

        m = ModelPair(CharExponent.poisson(1.0), CharExponent.custom(gamma, domain_sup=3.0))
        # At theta = 1.2, alpha(theta) psi_n = (e^1.2 - 1) / 20 ~ 0.116.
        stock, s = pg_pair(1.0, 1.0, 3.0), PowerScaling(1.5)
        assert lmgf(m, s, 400.0, 1.2) == math.inf
        assert lmgf(stock, s, 400.0, 1.2) < math.inf
        for order in (1, 2):
            assert lmgf(m, s, 400.0, 1.2, order) == lmgf(stock, s, 400.0, 1.2, order)

    @given(
        theta=st.floats(-1.0, 1.2),
        h=st.floats(1e-3, 0.1),
        f=st.floats(0.3, 2.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_convex_in_theta(self, theta, h, f):
        m, s = pg_pair(1.0, 1.0, 3.0), PowerScaling(f)
        n = 50.0
        psi = s.psi(n)
        # keep the stencil inside B's domain
        if 1.0 * (math.exp(theta + h) - 1.0) * psi >= 3.0 * 0.98:
            return
        second = (
            lmgf(m, s, n, theta + h) - 2.0 * lmgf(m, s, n, theta) + lmgf(m, s, n, theta - h)
        ) / (h * h)
        assert second >= -1e-9

    def test_derivatives_match_lmgf_differences(self):
        m, s, n = pg_pair(1.3, 0.8, 2.5), PowerScaling(1.4), 30.0
        h = 1e-6
        d1 = (lmgf(m, s, n, h) - lmgf(m, s, n, -h)) / (2 * h)
        d2 = (lmgf(m, s, n, h) - 2 * lmgf(m, s, n, 0.0) + lmgf(m, s, n, -h)) / (h * h)
        assert d1 == pytest.approx(lmgf(m, s, n, 0.0, order=1), rel=1e-8)
        assert d2 == pytest.approx(lmgf(m, s, n, 0.0, order=2), rel=1e-4)


class TestNonFiniteInput:
    @pytest.mark.parametrize("call", [
        lambda m, s: lmgf(m, s, math.nan, 0.5),
        lambda m, s: lmgf(m, s, math.inf, 0.5),
        lambda m, s: lmgf(m, s, 100.0, math.nan),
        lambda m, s: mean_variance(m, s, math.inf),
        lambda m, s: mean_variance(m, s, math.nan),
    ], ids=["lmgf-n-nan", "lmgf-n-inf", "lmgf-theta-nan", "mean-variance-inf", "mean-variance-nan"])
    def test_rejected_as_param_error(self, call):
        with pytest.raises(ParamError):
            call(pg_pair(1.0, 1.0, 3.0), PowerScaling(1.5))


class TestMeanVariance:
    def test_worked_example(self):
        # lam=1, r=1, mu=2, f=2, n=100: mean = n*a*b = 50,
        # variance = n*psi*a^2 beta''(0) + n*alpha''(0) b = 0.25 + 50.
        m, s = pg_pair(1.0, 1.0, 2.0), PowerScaling(2.0)
        mean, var = mean_variance(m, s, 100.0)
        assert mean == pytest.approx(50.0, rel=1e-14)
        assert var == pytest.approx(50.25, rel=1e-14)

    def test_deterministic_clock_drops_slow_term(self):
        drift = CharExponent.custom(lambda t, o: 0.7 * t if o == 0 else (0.7 if o == 1 else 0.0))
        m, s = ModelPair(CharExponent.poisson(1.2), drift), PowerScaling(0.5)
        mean, var = mean_variance(m, s, 400.0)
        assert mean == pytest.approx(400.0 * 1.2 * 0.7, rel=1e-14)
        assert var == pytest.approx(400.0 * 1.2 * 0.7, rel=1e-14)  # n * alpha''(0) * b

    def test_matches_lmgf_derivatives(self):
        m, s, n = gp_pair(1.1, 2.4, 0.9), PowerScaling(0.7), 64.0
        mean, var = mean_variance(m, s, n)
        assert mean == pytest.approx(lmgf(m, s, n, 0.0, order=1), rel=1e-12)
        assert var == pytest.approx(lmgf(m, s, n, 0.0, order=2), rel=1e-12)


class TestLoadModel:
    def test_round_trip(self, tmp_path):
        spec = tmp_path / "pg.json"
        spec.write_text(
            '{"A": {"kind": "poisson", "lambda": 1.0, "d": 1.0},'
            ' "B": {"kind": "gamma", "r": 1.0, "mu": 2.0}, "f": 1.5}'
        )
        model, scaling = load_model(spec)
        assert model.A.kind == "poisson" and model.B.kind == "gamma"
        assert model.a == 1.0 and model.b == 0.5
        assert scaling.f == 1.5
        assert model.A.lattice_span == 1.0

    def test_dict_source(self):
        model, scaling = load_model(
            {"A": {"kind": "gamma", "r": 1.0, "mu": 2.0}, "B": {"kind": "poisson", "lambda": 1.0}, "f": 0.5}
        )
        assert model.A.kind == "gamma"
        assert scaling.f == 0.5

    def test_unknown_kind(self):
        with pytest.raises(ParamError):
            load_model({"A": {"kind": "cauchy"}, "B": {"kind": "gamma", "r": 1, "mu": 2}, "f": 1.0})

    def test_missing_field(self):
        with pytest.raises(ParamError):
            load_model({"A": {"kind": "poisson", "lambda": 1.0}, "f": 1.0})

    def test_bad_json_text(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParamError):
            load_model(bad)

    @pytest.mark.parametrize("case", MALFORMED_MODELS)
    def test_malformed_source(self, tmp_path, case):
        with pytest.raises(ParamError):
            load_model(malformed_model(tmp_path, case))

    def test_non_finite_field_is_named(self):
        spec = {"A": {"kind": "poisson", "lambda": math.inf},
                "B": {"kind": "gamma", "r": 1, "mu": 2}, "f": 1.5}
        with pytest.raises(ParamError, match="field 'lambda' in model entry 'A' must be a finite number"):
            load_model(spec)

    @pytest.mark.parametrize("A, match", [
        ({"kind": "poisson"}, "missing field 'lambda' in model entry 'A'"),
        ([1.0], "model entry 'A' must be an object with a 'kind' field"),
        ({"kind": "poisson", "lambda": 1.0, "r": 1.0}, r"unknown fields \['r'\] for poisson entry 'A'"),
        ({"kind": "gamma", "r": 1.0, "mu": 2.0, "d": 1.0}, r"unknown fields \['d'\] for gamma entry 'A'"),
    ], ids=["missing-parameter", "not-an-object", "unknown-poisson-field", "unknown-gamma-field"])
    def test_bad_entry_is_named(self, A, match):
        with pytest.raises(ParamError, match=match):
            load_model({"A": A, "B": {"kind": "gamma", "r": 1, "mu": 2}, "f": 1.5})

    def test_source_neither_path_nor_mapping(self):
        with pytest.raises(ParamError, match="unsupported model source type list"):
            load_model([("A", {"kind": "poisson", "lambda": 1.0})])

    def test_json_text_is_not_a_source(self):
        # a source string is a path, never spec text
        with pytest.raises(ParamError, match="cannot read the model file"):
            load_model('{"A": {"kind": "poisson", "lambda": 1}, "B": {"kind": "gamma", "r": 1, "mu": 2}, "f": 1}')
