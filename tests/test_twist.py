"""Tilting-equation solver and the twisting-factor expansions."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoscale import (
    CharExponent,
    ModelPair,
    NoSolutionError,
    NotRareError,
    OrderError,
    ParamError,
    PowerScaling,
    UnsupportedSignError,
    fast_expansion,
    slow_expansion,
    solve_twist,
)
from twoscale import twist
from conftest import RARE_GRID, count_derivs, gp_pair, pg_pair


def pg_theta_n(lam, r, mu, u, psi):
    return math.log((mu * u + lam * psi * u) / (lam * r + lam * psi * u))


def gp_theta_n(r, mu, lam, u, psi):
    rho = lam * r / (mu * u)
    return mu * (1.0 - rho ** (1.0 / (1.0 + r * psi)))


class TestSolveTwist:
    def test_poisson_gamma_reference_point(self):
        m, s = pg_pair(1.0, 1.0, 3.0), PowerScaling(1.5)
        sol = solve_twist(m, s, 64.0, 1.0)
        assert sol.theta_n == pytest.approx(pg_theta_n(1.0, 1.0, 3.0, 1.0, s.psi(64.0)), abs=1e-10)
        assert sol.residual <= 1e-10

    def test_gamma_poisson_reference_point(self):
        m, s = gp_pair(1.0, 2.0, 1.0), PowerScaling(1.5)
        sol = solve_twist(m, s, 64.0, 1.0)
        assert sol.theta_n == pytest.approx(gp_theta_n(1.0, 2.0, 1.0, 1.0, s.psi(64.0)), abs=1e-10)

    @pytest.mark.parametrize("lam,r,mu,u", RARE_GRID)
    @pytest.mark.parametrize("f,n", [(1.5, 64.0), (0.5, 400.0)])
    def test_poisson_gamma_closed_form_grid(self, lam, r, mu, u, f, n):
        m, s = pg_pair(lam, r, mu), PowerScaling(f)
        sol = solve_twist(m, s, n, u)
        closed = pg_theta_n(lam, r, mu, u, s.psi(n))
        assert abs(sol.theta_n - closed) <= 1e-10 * max(1.0, abs(closed))

    @pytest.mark.parametrize("lam,r,mu,u", RARE_GRID)
    @pytest.mark.parametrize("f,n", [(1.5, 64.0), (0.5, 400.0)])
    def test_gamma_poisson_closed_form_grid(self, lam, r, mu, u, f, n):
        m, s = gp_pair(r, mu, lam), PowerScaling(f)
        sol = solve_twist(m, s, n, u)
        closed = gp_theta_n(r, mu, lam, u, s.psi(n))
        assert abs(sol.theta_n - closed) <= 1e-10 * max(1.0, abs(closed))

    @given(
        lam=st.floats(0.3, 2.0),
        r=st.floats(0.4, 1.8),
        mu=st.floats(1.2, 4.0),
        ratio=st.floats(1.05, 8.0),
        f=st.floats(0.3, 2.8),
        n=st.floats(4.0, 4096.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_residual_contract(self, lam, r, mu, ratio, f, n):
        m, s = pg_pair(lam, r, mu), PowerScaling(f)
        sol = solve_twist(m, s, n, ratio * lam * r / mu)
        assert sol.residual <= 1e-10
        assert sol.theta_n > 0
        assert sol.bracket[0] <= sol.theta_n <= sol.bracket[1]

    def test_reference_query_derivative_budget(self, monkeypatch):
        # Poisson(1) on Gamma(1, 3), f = 1.5, n = 400, u = 1 on a fresh pair:
        # one theta* solve, no domain-edge bisection, and alpha, alpha' and
        # beta'(alpha psi) evaluated once per Newton step.
        m = pg_pair(1.0, 1.0, 3.0)
        calls = count_derivs(monkeypatch, m)
        sol = solve_twist(m, PowerScaling(1.5), 400.0, 1.0)
        assert sol.iterations == 6
        assert calls[0] <= 90
        # One jet of each exponent per Newton step: 41 evaluations, where
        # one deriv call per order took 85.
        assert calls[0] <= 41

    # A Poisson(1) outer process on a Gamma(1, 3) clock, written as user
    # code that overflows in one order only: the solve keeps the path, bit
    # for bit, that it took when each order was evaluated on its own (the
    # value recorded then).
    def test_second_order_overflow_keeps_its_path(self):
        def poisson(t, order):
            if order == 2 and t > 1.5:
                raise OverflowError("order 2 overflows")
            return math.expm1(t) if order == 0 else math.exp(t)

        m = ModelPair(CharExponent.custom(poisson), CharExponent.gamma(1.0, 3.0))
        sol = solve_twist(m, PowerScaling(1.5), 400.0, 1.0)
        assert repr(sol) == (
            "TwistSolution(theta_n=1.066351426449889, residual=6.661338147750939e-16, "
            "iterations=10, bracket=(1.0493061443340554, 2.098612288668111))"
        )

    @pytest.mark.parametrize("cap", [0.05, 0.12, 0.3])
    def test_clock_value_overflow_keeps_its_path(self, cap):
        # beta itself is not needed by the twist; where only it overflows,
        # the solve is the one of the stock pair.
        def gamma(t, order):
            if order == 0:
                if t > cap:
                    raise OverflowError("value overflows")
                return math.log(3.0 / (3.0 - t))
            return math.factorial(order - 1) / (3.0 - t) ** order

        m = ModelPair(CharExponent.poisson(1.0), CharExponent.custom(gamma, domain_sup=3.0))
        sol = solve_twist(m, PowerScaling(1.5), 400.0, 1.0)
        assert sol == solve_twist(pg_pair(1.0, 1.0, 3.0), PowerScaling(1.5), 400.0, 1.0)
        assert sol.theta_n == 1.0663514264498883 and sol.iterations == 6

    def test_bracket_collapse_reports_iterations_made(self):
        # This solve ends on bracket collapse, not on the stop test; it used
        # to report the iteration cap (200).
        m = gp_pair(0.8610811198075052, 1.8862038491373836, 0.8609346512648166)
        sol = solve_twist(m, PowerScaling(0.24656056697571294), 1060.7920469975845,
                          1.274465278524265)
        assert sol.theta_n == 0.01340540770031168
        assert sol.iterations < 200

    def test_not_rare(self):
        m, s = pg_pair(1.0, 1.0, 2.0), PowerScaling(1.5)
        with pytest.raises(NotRareError):
            solve_twist(m, s, 100.0, 0.5)  # u == a*b
        with pytest.raises(NotRareError):
            solve_twist(m, s, 100.0, 0.1)

    def test_rejects_small_n(self):
        from twoscale import ParamError

        m, s = pg_pair(1.0, 1.0, 2.0), PowerScaling(1.5)
        with pytest.raises(ParamError):
            solve_twist(m, s, 0.5, 1.0)

    def test_bounded_derivative_has_no_solution(self):
        # alpha'(t) = 2 - exp(-t) is increasing, convex, bounded by 2;
        # with a unit-drift clock the tilted mean never reaches u = 3.
        bounded = CharExponent.custom(
            lambda t, o: {0: 2.0 * t + math.exp(-t) - 1.0, 1: 2.0 - math.exp(-t),
                          2: math.exp(-t), 3: -math.exp(-t)}[o]
        )
        drift = CharExponent.custom(lambda t, o: 1.0 * t if o == 0 else (1.0 if o == 1 else 0.0))
        m = ModelPair(bounded, drift)
        with pytest.raises(NoSolutionError):
            solve_twist(m, PowerScaling(1.5), 100.0, 3.0)

    def test_fast_limit_toward_theta_star(self):
        # |theta_n - theta*| <= 2 |v_1| psi_n once n is large (f > 1).
        m, s = pg_pair(1.0, 1.0, 3.0), PowerScaling(1.5)
        exp = fast_expansion(m, 1.0, order=1)
        for n in (1e4, 1e5):
            sol = solve_twist(m, s, n, 1.0)
            assert abs(sol.theta_n - exp.theta_star) <= 2.0 * abs(exp.v[1]) * s.psi(n)

    def test_slow_limit_toward_tau_star(self):
        # |theta_n psi_n - tau*| <= 2 |w_2| / psi_n once n is large (f < 1).
        m, s = pg_pair(1.0, 1.0, 3.0), PowerScaling(0.5)
        exp = slow_expansion(m, 1.0, order=2)
        for n in (1e4, 1e5):
            sol = solve_twist(m, s, n, 1.0)
            assert abs(sol.theta_n * s.psi(n) - exp.tau_star) <= 2.0 * abs(exp.w[1]) / s.psi(n)


def _mp_twist(alpha, dalpha, dbeta, psi, u, edge):
    """50-digit root of ``beta'(alpha(t) psi) alpha'(t) = u`` on (0, edge)."""
    with mpmath.workdps(50):
        psi, u = mpmath.mpf(psi), mpmath.mpf(u)
        return mpmath.findroot(
            lambda t: dbeta(alpha(t) * psi) * dalpha(t) - u,
            (mpmath.mpf(0), edge - mpmath.mpf("1e-40")),
            solver="anderson",
        )


def _gamma_alpha(r, mu):
    return lambda t: r * mpmath.log(mu / (mu - t)), lambda t: r / (mu - t)


class TestDomainEdge:
    """The twist's start and bracket near the domain edge theta_max, each
    checked against a 50-digit root of the tilting equation."""

    @pytest.fixture
    def theta_max_calls(self, monkeypatch):
        calls = []
        theta_max = twist._theta_max

        def recording(*args):
            calls.append(theta_max(*args))
            return calls[-1]

        monkeypatch.setattr(twist, "_theta_max", recording)
        return calls

    def _check(self, model, f, n, u, ref):
        sol = solve_twist(model, PowerScaling(f), n, u)
        assert abs(sol.theta_n - ref) <= 1e-10 * abs(ref)
        return sol

    def test_edge_at_the_outer_domain_supremum(self, theta_max_calls):
        # Gamma(1, 2) on Gamma(1.5, 3), f = 1.5, n = 400, u = 1: theta* + 1
        # = 2.5 lies past A's domain (t < 2), and alpha(t) psi stays inside
        # B's domain up to it, so theta_max is A's supremum.
        model = ModelPair(CharExponent.gamma(1.0, 2.0), CharExponent.gamma(1.5, 3.0))
        ref = _mp_twist(*_gamma_alpha(1, 2), lambda x: 1.5 / (3 - x), 0.05, 1.0, 2)
        sol = self._check(model, 1.5, 400.0, 1.0, ref)
        assert theta_max_calls == [2.0]
        assert sol.bracket[1] == 0.99 * 2.0

    def test_start_clear_of_a_finite_outer_supremum(self, theta_max_calls):
        # Gamma(1, 10) on Gamma(1.5, 3), f = 1.5, n = 400, u = 0.1: the start
        # theta* + 1 = 6 stands, since A's supremum 10 is below 5e11 * 6.
        model = ModelPair(CharExponent.gamma(1.0, 10.0), CharExponent.gamma(1.5, 3.0))
        ref = _mp_twist(*_gamma_alpha(1, 10), lambda x: 1.5 / (3 - x), 0.05, 0.1, 10)
        self._check(model, 1.5, 400.0, 0.1, ref)
        assert theta_max_calls == [None]

    def test_bracket_grows_towards_a_finite_edge(self, theta_max_calls):
        # Poisson(1) on Gamma(1, 3), f = 0.5, n = 100, u = 50: psi = 10, so
        # theta_max = log(1.3); the clamped start 0.99 theta_max is below the
        # root, and the bracket grows toward the edge.
        model = pg_pair(1.0, 1.0, 3.0)
        edge = mpmath.log(mpmath.mpf("1.3"))
        ref = _mp_twist(
            lambda t: mpmath.expm1(t), mpmath.exp, lambda x: 1 / (3 - x), 10, 50.0, edge
        )
        sol = self._check(model, 0.5, 100.0, 50.0, ref)
        assert theta_max_calls == [pytest.approx(math.log1p(0.3), rel=1e-14)]
        assert sol.bracket[1] > 0.99 * theta_max_calls[0]


class TestFastExpansion:
    @pytest.mark.parametrize("lam,r,mu,u", RARE_GRID)
    def test_poisson_gamma_closed_forms(self, lam, r, mu, u):
        m = pg_pair(lam, r, mu)
        exp = fast_expansion(m, u, order=2)
        rho = lam * r / (mu * u)
        z1, z2 = lam / mu, u / r
        assert exp.theta_star == pytest.approx(math.log(1.0 / rho), rel=1e-9)
        assert exp.v[0] == exp.theta_star
        assert exp.v[1] == pytest.approx(z1 - z2, rel=1e-9)
        assert exp.v[2] == pytest.approx(-(z1**2 - z2**2) / 2.0, rel=1e-9)

    @pytest.mark.parametrize("lam,r,mu,u", RARE_GRID)
    def test_gamma_poisson_closed_forms(self, lam, r, mu, u):
        m = gp_pair(r, mu, lam)
        exp = fast_expansion(m, u, order=2)
        rho = lam * r / (mu * u)
        ell = math.log(1.0 / rho)
        assert exp.theta_star == pytest.approx(mu * (1.0 - rho), rel=1e-9)
        assert exp.v[1] == pytest.approx(-mu * r * rho * ell, rel=1e-9)
        assert exp.v[2] == pytest.approx(mu * r**2 * rho * ell * (1.0 - ell / 2.0), rel=1e-9)

    def test_theta_star_residual(self):
        m = pg_pair(1.3, 0.8, 2.2)
        exp = fast_expansion(m, 1.0, order=0)
        b = m.b
        assert abs(b * m.A.deriv(exp.theta_star, 1) - 1.0) <= 1e-12

    def test_not_rare_and_order_cap(self):
        m = pg_pair(1.0, 1.0, 2.0)
        with pytest.raises(NotRareError):
            fast_expansion(m, 0.4)
        with pytest.raises(OrderError):
            fast_expansion(m, 1.0, order=3)


class TestSlowExpansion:
    @pytest.mark.parametrize("lam,r,mu,u", RARE_GRID)
    def test_poisson_gamma_closed_forms(self, lam, r, mu, u):
        m = pg_pair(lam, r, mu)
        exp = slow_expansion(m, u, order=2)
        rho = lam * r / (mu * u)
        zb1, zb2 = mu / lam, r / u
        assert exp.tau_star == pytest.approx((r / u) * (1.0 / rho - 1.0), rel=1e-9)
        assert exp.w[0] == exp.tau_star
        assert exp.w[1] == pytest.approx(-(zb1**2 - zb2**2) / 2.0, rel=1e-6)

    @pytest.mark.parametrize("lam,r,mu,u", RARE_GRID)
    def test_gamma_poisson_closed_forms(self, lam, r, mu, u):
        m = gp_pair(r, mu, lam)
        exp = slow_expansion(m, u, order=2)
        rho = lam * r / (mu * u)
        ell = math.log(1.0 / rho)
        assert exp.tau_star == pytest.approx((mu / r) * ell, rel=1e-9)
        assert exp.w[1] == pytest.approx(-(mu / r**2) * ell * (1.0 + ell / 2.0), rel=1e-6)

    def test_tau_star_residual(self):
        m = gp_pair(1.0, 2.0, 1.0)
        exp = slow_expansion(m, 1.0, order=1)
        a = m.a
        assert abs(a * m.B.deriv(a * exp.tau_star, 1) - 1.0) <= 1e-12

    def test_rejects_order_zero(self):
        with pytest.raises(OrderError):
            slow_expansion(pg_pair(1.0, 1.0, 2.0), 1.0, order=0)

    def test_not_rare(self):
        with pytest.raises(NotRareError):
            slow_expansion(pg_pair(1.0, 1.0, 2.0), 0.3)


@pytest.mark.parametrize("expansion", [fast_expansion, slow_expansion])
@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_expansions_reject_non_finite_u(expansion, u):
    with pytest.raises(ParamError):
        expansion(pg_pair(1.0, 1.0, 2.0), u, order=1)


class TestStarSolverLimits:
    """theta* may not exist when alpha' is bounded; both upper-bracket paths say so."""

    def test_bounded_slope_on_an_unbounded_domain(self):
        # alpha(t) = 2t - (1 - exp(-t)): alpha' rises from 1 towards 2.
        A = CharExponent.custom(lambda t, o: (
            2.0 * t + math.expm1(-t), 2.0 - math.exp(-t), math.exp(-t), -math.exp(-t))[o])
        model = ModelPair(A, CharExponent.gamma(1.0, 1.0))
        assert fast_expansion(model, 1.5, order=0).theta_star == pytest.approx(math.log(2.0))
        with pytest.raises(NoSolutionError):
            fast_expansion(model, 2.5, order=0)

    def test_slope_below_u_up_to_the_domain_edge(self):
        drift = CharExponent.custom(lambda t, o: (t, 1.0, 0.0, 0.0)[o], domain_sup=1.0)
        model = ModelPair(drift, CharExponent.gamma(1.0, 1.0))
        with pytest.raises(NoSolutionError):
            fast_expansion(model, 2.0, order=0)


class TestNonPositiveOuterMean:
    def test_rejected_at_construction(self):
        # The slow-regime fixed point needs a > 0; such models are refused
        # outright, which is where the unsupported-sign contract surfaces.
        neg = CharExponent.custom(
            lambda t, o: {0: -0.5 * t, 1: -0.5, 2: 0.0, 3: 0.0}[o]
        )
        with pytest.raises(UnsupportedSignError):
            ModelPair(neg, CharExponent.gamma(1.0, 2.0))
