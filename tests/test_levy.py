"""Characteristic exponents, the composed log-mgf, and the moment split."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
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
from conftest import gp_pair, pg_pair


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

    def test_domain_error_signals_overshoot(self):
        m, s = pg_pair(1.0, 1.0, 2.0), PowerScaling(0.5)
        # alpha(theta)*psi >= mu at n = 100, psi = 10: lam(e^t - 1) >= 0.2
        with pytest.raises(DomainError):
            lmgf(m, s, 100.0, 1.0)

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
