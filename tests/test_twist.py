"""Tilting-equation solver and the twisting-factor expansions."""

import json
import math
import random
from dataclasses import replace

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
    TwoscaleError,
    UnsupportedSignError,
    approx_fast,
    approx_single_timescale,
    approx_slow,
    fast_expansion,
    lmgf,
    log_asymptote,
    slow_expansion,
    solve_twist,
)
from twoscale import twist
from conftest import RARE_GRID, count_derivs, gp_pair, pg_pair, vg_pair


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
        # one theta* solve, no domain-edge bisection, alpha, alpha' and
        # beta'(alpha psi) evaluated once per Newton step; gamma_n(theta_n)
        # is read from the solver's last jet.
        m = pg_pair(1.0, 1.0, 3.0)
        calls = count_derivs(monkeypatch, m)
        sol = solve_twist(m, PowerScaling(1.5), 400.0, 1.0)
        assert sol.iterations == 6
        # One jet of each exponent per Newton step: 41 evaluations, where
        # one deriv call per order took 85 (and 43 with a second jet at the
        # root for gamma_n(theta_n)).
        assert calls[0] == 41

    def test_direct_mode_derivative_budget(self, monkeypatch):
        # Direct mode reads gamma_n(theta_n) from the solve's record, and the
        # rate and the prefactor from the theta* solve's value and slope: the
        # solve's 41 evaluations and nothing more (42 with a jet of alpha at theta*).
        m = pg_pair(1.0, 1.0, 3.0)
        calls = count_derivs(monkeypatch, m)
        approx_fast(m, PowerScaling(1.5), 400.0, 1.0)
        assert calls[0] == 41

    def test_slow_regime_derivative_budget(self, monkeypatch):
        # Poisson(1) on Gamma(1, 3), f = 0.5, n = 400, u = 1 on a fresh pair:
        # theta* + 1 lies past the domain edge, so theta_max is needed; it is
        # read off its bisection grid (Newton and two or three probes) where
        # the ~50-step bisection made 101 evaluations in all.
        m = pg_pair(1.0, 1.0, 3.0)
        calls = count_derivs(monkeypatch, m)
        solve_twist(m, PowerScaling(0.5), 400.0, 1.0)
        assert calls[0] == 55

    def test_single_timescale_derivative_budget(self, monkeypatch):
        # f = 1 on a fresh pair: the theta* solve for the start and the f = 1
        # twist solve; the rate and sigma_0 are read off the twist solve's
        # last jet (87 with a second composed jet at the root).
        m = pg_pair(1.0, 1.0, 3.0)
        calls = count_derivs(monkeypatch, m)
        approx_single_timescale(m, 400.0, 1.0)
        assert calls[0] == 85

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
            "iterations=10, bracket=(1.0493061443340554, 2.098612288668111), "
            "log_mgf=258.0868977457718)"
        )

    @pytest.mark.parametrize("cap", [0.05, 0.12, 0.3])
    def test_clock_value_overflow_keeps_its_path(self, cap):
        # beta itself is not needed by the root; where only it overflows,
        # the root is the one of the stock pair, and gamma_n(theta_n) reads
        # +inf where beta overflows at alpha(theta_n) psi_n ~ 0.095.
        def gamma(t, order):
            if order == 0:
                if t > cap:
                    raise OverflowError("value overflows")
                return math.log(3.0 / (3.0 - t))
            return math.factorial(order - 1) / (3.0 - t) ** order

        m = ModelPair(CharExponent.poisson(1.0), CharExponent.custom(gamma, domain_sup=3.0))
        sol = solve_twist(m, PowerScaling(1.5), 400.0, 1.0)
        stock = solve_twist(pg_pair(1.0, 1.0, 3.0), PowerScaling(1.5), 400.0, 1.0)
        assert sol == (stock if cap > 0.1 else replace(stock, log_mgf=math.inf))
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
        """The values ``_theta_max`` returned, in order; ``.solves`` holds one
        ``[what, g(start), edge() asks]`` per ``_solve_increasing`` call."""
        class Calls(list):
            solves: list

        calls = Calls()
        calls.solves = []
        theta_max, solve = twist._theta_max, twist._solve_increasing

        def recording(*args):
            calls.append(theta_max(*args))
            return calls[-1]

        def solving(jet, u, hi, edge, what, tol):
            record = [what, jet(hi)[1] - u, 0]
            calls.solves.append(record)

            def asking():
                record[2] += 1
                return edge()

            return solve(jet, u, hi, asking, what, tol)

        monkeypatch.setattr(twist, "_theta_max", recording)
        monkeypatch.setattr(twist, "_solve_increasing", solving)
        return calls

    @staticmethod
    def _edge_asks(calls):
        """The twist's edge() asks; every solve asks once where g(start) < 0, else never."""
        assert all(asks == (g < 0) for _, g, asks in calls.solves)
        return [asks for what, _, asks in calls.solves if what == "the twist"]

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
        assert self._edge_asks(theta_max_calls) == [0]

    @pytest.mark.parametrize("n", [400.0, 1e4, 1e6])
    def test_edge_inside_a_finite_outer_domain(self, theta_max_calls, n):
        # Gamma(1, 2) on Gamma(1.5, 3), f = 0.5, u = 1: psi = sqrt(n), and
        # alpha(t) psi reaches B's supremum 3 at t = 2 (1 - e^(-3/psi)), inside
        # A's domain t < 2, so the edge is read off the grid under 2 (1 - 1e-12).
        model = ModelPair(CharExponent.gamma(1.0, 2.0), CharExponent.gamma(1.5, 3.0))
        psi = PowerScaling(0.5).psi(n)
        edge = 2 * -mpmath.expm1(-3 / mpmath.mpf(psi))
        ref = _mp_twist(*_gamma_alpha(1, 2), lambda x: 1.5 / (3 - x), psi, 1.0, edge)
        self._check(model, 0.5, n, 1.0, ref)
        assert theta_max_calls == [pytest.approx(float(edge), rel=1e-12, abs=0)]

    def test_start_clear_of_a_finite_outer_supremum(self, theta_max_calls):
        # Gamma(1, 10) on Gamma(1.5, 3), f = 1.5, n = 400, u = 0.1: the start
        # theta* + 1 = 6 stands, since A's supremum 10 is below 5e11 * 6.
        model = ModelPair(CharExponent.gamma(1.0, 10.0), CharExponent.gamma(1.5, 3.0))
        ref = _mp_twist(*_gamma_alpha(1, 10), lambda x: 1.5 / (3 - x), 0.05, 0.1, 10)
        self._check(model, 1.5, 400.0, 0.1, ref)
        assert theta_max_calls == [None]
        assert self._edge_asks(theta_max_calls) == [0]

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
        assert self._edge_asks(theta_max_calls) == [1]


def _bisected_edge(jA, sup_a, sup_b, psi):
    """The unbounded-domain bisection for theta_max that ``_grid_edge`` reads
    off its grid, kept verbatim as the witness of that shortcut."""
    target = sup_b / psi
    hi = 1.0
    for _ in range(twist._MAX_EXPAND):
        if jA(hi, 0)[0] >= target:
            break
        hi *= 2.0
    else:
        return math.inf
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if jA(mid if mid < sup_a else sup_a * (1 - 1e-15), 0)[0] < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(hi, 1.0):
            break
    return lo


def _top(model, target):
    """Where the bisection's doubling loop ends: the first power of two >= 1
    whose alpha reaches ``target``."""
    top = 1.0
    while model.A.jet(top, 0)[0] < target:
        top *= 2.0
    return top


def _drift_diffusion(t, order):
    """Brownian motion with drift 1 and variance 1, as user code."""
    return (t + 0.5 * t * t, 1.0 + t, 1.0, 0.0)[order]


def _mp_edge(model, psi):
    """The domain edge ``alpha^-1(sup_b / psi)`` at 50 digits, for a Poisson
    outer process or :func:`_drift_diffusion`."""
    with mpmath.workdps(50):
        target = mpmath.mpf(model.B.domain_sup) / mpmath.mpf(psi)
        if model.A.kind == "poisson":
            return mpmath.log1p(target / mpmath.mpf(model.A.params["lam"]))
        return 2 * target / (1 + mpmath.sqrt(1 + 2 * target))  # t + t^2 / 2 = target


def _below_the_grid(model, psi):
    """Where the bisection reads 0.0 the edge lies under its first grid point;
    the search runs again there and meets the 50-digit edge."""
    return pytest.approx(float(_mp_edge(model, psi)), rel=1e-12, abs=0.0)


class TestGridEdge:
    """``_theta_max`` on an unbounded outer domain equals its bisection bit
    for bit, and so does ``_grid_edge`` from its Newton guess over psi 1e-8..1e30,
    wherever the bisection does not read 0.0 (an edge under its grid ``top 2**-50``)."""

    PSIS = [10.0 ** (k / 40.0) for k in range(-320, 1201)]

    @pytest.mark.parametrize("model", [
        pg_pair(1.0, 1.0, 3.0),
        pg_pair(0.7, 1.3, 1.9),
        ModelPair(CharExponent.custom(_drift_diffusion), CharExponent.gamma(1.0, 2.0)),
    ], ids=["pg113", "pg", "drift-diffusion-gamma"])
    def test_equals_the_bisection(self, model):
        cases = set()  # (top >= 2, K), or "below" for an edge under the grid
        for psi in self.PSIS:
            calls = [0]

            def counted(t, k):
                calls[0] += 1
                return model.A.jet(t, k)

            target = model.B.domain_sup / psi
            want = _bisected_edge(counted, model.A.domain_sup, model.B.domain_sup, psi)
            top = _top(model, target)
            if want == 0.0:
                cases.add("below")
                want = _below_the_grid(model, psi)
            else:
                # The doubling loop makes log2(top) + 1 evaluations, the bisection K.
                cases.add((top >= 2.0, calls[0] - math.log2(top) - 1))
            assert twist._theta_max(model, psi) == want, psi
            assert twist._grid_edge(model.A.jet, model.a, target, top) == want, psi
        assert cases == {"below", (False, 50), (True, 50), (True, 51)}

    def test_random_pairs(self):
        rng = random.Random(1)
        for _ in range(300):
            lam, r, mu = (math.exp(rng.uniform(-3.0, 3.0)) for _ in range(3))
            model = pg_pair(lam, r, mu)
            psi = 10.0 ** rng.uniform(-8.0, 30.0)
            want = _bisected_edge(model.A.jet, math.inf, mu, psi) or _below_the_grid(model, psi)
            assert twist._theta_max(model, psi) == want, (lam, r, mu, psi)
            assert twist._grid_edge(model.A.jet, model.a, mu / psi, _top(model, mu / psi)) == want

    def test_alpha_past_the_float_range_falls_back_to_the_bisection(self):
        # psi = 1e-300: alpha(1024) = e^1024 - 1 reads +inf, so Newton from
        # top = 1024 has no step.
        model = pg_pair(1.0, 1.0, 3.0)
        want = _bisected_edge(model.A.jet, math.inf, 3.0, 1e-300)
        assert twist._grid_edge(model.A.jet, model.a, 3e300, _top(model, 3e300)) == want
        assert twist._theta_max(model, 1e-300) == want == pytest.approx(math.log(3e300))

    def test_an_edge_below_the_grid_is_searched_again(self, capsys):
        # theta_max ~ 3 / psi = 3e-16 at n = 1e32 lies below 2**-50, where the
        # first search ends at j = 0; it used to read 0.0 and the twist exit 2.
        from twoscale.cli import main

        model = pg_pair(1.0, 1.0, 3.0)
        for psi in (1e16, 1e20, 1e25, 1e30):
            assert twist._theta_max(model, psi) == _below_the_grid(model, psi), psi
        argv = ["approx", "--poisson-gamma", "1", "1", "3", "--f", "0.5", "--n", "1e32", "--u", "1"]
        assert main(argv) == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["log_value"])

    @pytest.mark.parametrize("target", [0.0, 5e-324, 1e-317, math.nan])
    def test_a_target_no_normal_grid_brackets_reads_zero(self, target):
        # No g brackets a target of 0.0 (alpha(0) = 0 is not below it), and a
        # subnormal edge lies under every normal grid: the halving stops.
        model = pg_pair(1.0, 1.0, 3.0)
        assert twist._grid_edge(model.A.jet, model.a, target, 1.0) == 0.0

    @pytest.mark.parametrize("n", ["1e300", "1e290"])
    def test_an_underflowing_target_exits_2(self, n, capsys):
        # sup_b / psi = 1e-30 / n**0.99 is 0.0 at n = 1e300 and subnormal at
        # n = 1e290; the edge reads 0.0 and the query ends with exit 2.
        from twoscale.cli import main

        with pytest.raises(NoSolutionError, match="domain edge 0.0"):
            twist.solve_twist(pg_pair(1.0, 1.0, 1e-30), PowerScaling(0.01), float(n), 2e30)
        argv = ["approx", "--poisson-gamma", "1", "1", "1e-30", "--f", "0.01", "--n", n, "--u", "2e30"]
        assert main(argv) == 2
        assert "domain edge 0.0" in capsys.readouterr().err

    def test_a_finite_domain_edge_below_the_grid_is_searched_again(self):
        # Gamma(1, 20) on Gamma(1, 40) at psi = 1e17: the edge lies below
        # sup_a 2**-50 ~ 1.8e-14, where the first search ends at j = 0.  The
        # Gamma value r log(mu / (mu - t)) rounds in steps this close to 0, so
        # the edge is checked against the float alpha: below the target there,
        # and not below it 2**-48 relative above.
        model = ModelPair(CharExponent.gamma(1.0, 20.0), CharExponent.gamma(1.0, 40.0))
        target = 40.0 / 1e17
        edge = twist._theta_max(model, 1e17)
        assert 0.0 < edge < 20.0 * 2.0 ** -50
        assert model.A.jet(edge, 0)[0] < target <= model.A.jet(edge * (1.0 + 2.0 ** -48), 0)[0]


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

    def test_coefficient_past_the_float_range_raises(self):
        # A Gamma clock of rate 1e-170: beta''(0) = r / mu ** 2 reads +inf.
        # With alpha'' +inf at theta* = log 2 as well, v_1 = -(alpha alpha' /
        # alpha'')(theta*) beta''(0) / b would be 0 * inf = nan; with the
        # stock Poisson, -inf.
        def poisson(t, order):
            if order == 2 and t > 0.5:
                raise OverflowError("order 2 overflows")
            return math.expm1(t) if order == 0 else math.exp(t)

        clock = CharExponent.gamma(1.0, 1e-170)
        capped = ModelPair(CharExponent.custom(poisson), clock)
        for model in (capped, ModelPair(CharExponent.poisson(1.0), clock)):
            u = 2.0 * model.a * model.b
            assert fast_expansion(model, u, order=0).theta_star == pytest.approx(math.log(2.0))
            with pytest.raises(ParamError, match=r"v\[1\] must be finite"):
                fast_expansion(model, u, order=1)

    def test_underflowed_curvature_raises_param_error(self):
        # Gamma(1, 1e200) on Poisson(1) at u = 2e-200: theta* = 5e199 and
        # alpha''(theta*) = 1 / (5e199)^2 underflows to 0.
        model = gp_pair(1.0, 1e200, 1.0)
        assert fast_expansion(model, 2e-200, order=0).theta_star == pytest.approx(5e199)
        with pytest.raises(ParamError, match="underflows"):
            fast_expansion(model, 2e-200, order=1)


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

    def test_slope_below_u_up_to_the_domain_edge(self, monkeypatch):
        drift = CharExponent.custom(lambda t, o: (t, 1.0, 0.0, 0.0)[o], domain_sup=1.0)
        model = ModelPair(drift, CharExponent.gamma(1.0, 1.0))
        calls = count_derivs(monkeypatch, model)
        with pytest.raises(NoSolutionError, match="up to the domain edge"):
            fast_expansion(model, 2.0, order=0)
        # sup (1 - 1e-12) is both the start and the edge: one probe, then the raise
        assert calls[0] == 1

    def test_doubling_gives_up_past_1e100(self):
        # alpha'(t) = 3 (1 - 1e-10 + 1e-13 log2(1 + t)) creeps up towards
        # u / b = 3 but reaches it only at t = 2**1000 - 1.  g grows by ~3e-13
        # per doubling, so the stall test never fires: the bracket doubles up
        # from 1 until 2**333 passes 1e100, 333 jets of A of orders 0..2.
        ln2 = math.log(2.0)
        orders = []

        def creeping(t, order):
            orders.append(order)
            return (
                3.0 * (1.0 - 1e-10) * t + 3e-13 / ln2 * ((1.0 + t) * math.log1p(t) - t),
                3.0 * (1.0 - 1e-10 + 1e-13 * math.log2(1.0 + t)),
                3e-13 / (ln2 * (1.0 + t)),
                -3e-13 / (ln2 * (1.0 + t) ** 2),
            )[order]

        model = ModelPair(CharExponent.custom(creeping), CharExponent.gamma(1.0, 3.0))
        orders.clear()
        with pytest.raises(NoSolutionError) as info:
            fast_expansion(model, 1.0, order=0)
        assert str(info.value) == "theta_star: the equation is bounded below u = 1.0"
        assert orders.count(0) == 333
        assert len(orders) == 999

    @pytest.mark.parametrize("u", [1e230, 1e300])
    def test_overflowing_probe_brackets_the_root(self, u):
        # theta* = log(3u) and tau* = 2 log(2u) put the Poisson exponent past
        # 512, so the doubling probes 1024, where exp overflows; that probe
        # reads as g = +inf and brackets the root.
        assert fast_expansion(pg_pair(1.0, 1.0, 3.0), u, order=0).theta_star == pytest.approx(
            math.log(3.0 * u), rel=1e-15)
        assert slow_expansion(gp_pair(1.0, 2.0, 1.0), u, order=1).tau_star == pytest.approx(
            2.0 * math.log(2.0 * u), rel=1e-15)

    def test_second_order_overflow_leaves_the_value(self):
        # Where only alpha'' overflows, g keeps its value and the slope
        # reads +inf, so Newton steps give way to bisection.
        def poisson(t, order):
            if order == 2 and t > 600.0:
                raise OverflowError("order 2 overflows")
            return math.expm1(t) if order == 0 else math.exp(t)

        model = ModelPair(CharExponent.custom(poisson), CharExponent.gamma(1.0, 3.0))
        theta_star = fast_expansion(model, 1e300, order=0).theta_star
        assert theta_star == pytest.approx(math.log(3e300), rel=1e-15)


_PAIRS = {
    "pg": lambda p, q, w: pg_pair(p, q, w),
    "gp": lambda p, q, w: gp_pair(p, q, w),
    "vg": lambda p, q, w: vg_pair(p, 1.0, q, w),
}


class TestTiltRecord:
    """``log_mgf`` is gamma_n(theta_n), the one lmgf evaluation of a query."""

    @pytest.mark.parametrize("kind", sorted(_PAIRS))
    @pytest.mark.parametrize("f,n", [(1.5, 400.0), (0.6, 300.0), (1.0, 50.0), (2.2, 1.0)])
    def test_log_mgf_is_gamma_n_at_the_root(self, kind, f, n):
        model, s = _PAIRS[kind](1.0, 2.0, 3.0), PowerScaling(f)
        sol = solve_twist(model, s, n, 2.0 * model.a * model.b)
        assert sol.log_mgf == lmgf(model, s, n, sol.theta_n)

    @pytest.mark.parametrize("kind", sorted(_PAIRS))
    def test_single_timescale_memo_holds_no_n(self, kind):
        # At f = 1 the root does not depend on n; gamma_n scales with n, so
        # each n reads its own.
        model, s = _PAIRS[kind](1.0, 2.0, 3.0), PowerScaling(1.0)
        u = 2.0 * model.a * model.b
        first, second = solve_twist(model, s, 50.0, u), solve_twist(model, s, 400.0, u)
        assert first.theta_n == second.theta_n
        assert first.log_mgf == lmgf(model, s, 50.0, first.theta_n)
        assert second.log_mgf == lmgf(model, s, 400.0, second.theta_n)
        assert second.log_mgf == pytest.approx(8.0 * first.log_mgf, rel=1e-14)

    @pytest.mark.parametrize("kind", sorted(_PAIRS))
    def test_single_timescale_twist_after_an_approximation(self, kind):
        # A pair that has run the f = 1 approximation at u gives the record a
        # fresh pair gives, and its twist is the one the leading triple holds.
        fresh, used, s = _PAIRS[kind](1.0, 2.0, 3.0), _PAIRS[kind](1.0, 2.0, 3.0), PowerScaling(1.0)
        u = 2.0 * fresh.a * fresh.b
        approx_single_timescale(used, 50.0, u)
        sol = solve_twist(fresh, s, 50.0, u)
        assert solve_twist(used, s, 50.0, u) == sol
        assert sol.theta_n == twist._leading(fresh, "single", u)[0]


class TestMemo:
    """A pair's memo maps each regime to its leading triple, for the last ``u`` asked."""

    def test_memo_holds_the_leading_triples_only(self):
        u, fast, slow = 1.0, pg_pair(1.0, 1.0, 3.0), pg_pair(1.0, 1.0, 3.0)
        approx_fast(fast, PowerScaling(1.5), 400.0, u)
        assert fast._memo == {u: {"fast": twist._leading(pg_pair(1.0, 1.0, 3.0), "fast", u)}}
        # The slow twist solve starts from theta*, so it leaves the fast triple too.
        approx_slow(slow, PowerScaling(0.5), 400.0, u)
        assert list(slow._memo) == [u] and set(slow._memo[u]) == {"slow", "fast"}
        assert slow._memo[u]["slow"] == twist._leading(pg_pair(1.0, 1.0, 3.0), "slow", u)
        assert slow._memo[u]["slow"][0] == slow_expansion(pg_pair(1.0, 1.0, 3.0), u, 1).tau_star

    def test_rate_is_checked_on_every_read(self):
        # pg(1, 1, 1) at u = 1e306 has theta*, whose fast rate reads -inf: the
        # triple is remembered, each rate read refuses it, and the twist solve,
        # which reads theta* alone, still finds no root.
        m, s, u = pg_pair(1.0, 1.0, 1.0), PowerScaling(1.5), 1e306
        for _ in range(2):
            with pytest.raises(ParamError, match="fast-regime rate -inf"):
                log_asymptote(m, s, u)
        assert twist._solved(m, u, "fast")[1] == -math.inf
        with pytest.raises(NoSolutionError, match="up to the domain edge"):
            solve_twist(m, s, 400.0, u)


class TestHugeThreshold:
    """Far in the tail the solve returns a record or raises a TwoscaleError."""

    @given(
        kind=st.sampled_from(sorted(_PAIRS)),
        p=st.floats(0.3, 3.0),
        q=st.floats(0.3, 3.0),
        w=st.floats(0.5, 4.0),
        log_ratio=st.floats(0.01, 300.0),
        log_psi=st.floats(-30.0, 30.0),
        extra=st.floats(0.5, 270.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_solution_or_twoscale_error(self, kind, p, q, w, log_ratio, log_psi, extra):
        # psi_n = n^(1 - f) = 10^log_psi with log10 n = |log_psi| + extra.
        model = _PAIRS[kind](p, q, w)
        log_n = abs(log_psi) + extra
        s = PowerScaling(1.0 - log_psi / log_n)
        u = model.a * model.b * 10.0 ** log_ratio
        try:
            sol = solve_twist(model, s, 10.0 ** log_n, u)
        except TwoscaleError:
            return
        assert sol.residual <= 1e-10
        assert sol.bracket[0] <= sol.theta_n <= sol.bracket[1]


class TestNonPositiveOuterMean:
    def test_rejected_at_construction(self):
        # The slow-regime fixed point needs a > 0; such models are refused
        # outright, which is where the unsupported-sign contract surfaces.
        neg = CharExponent.custom(
            lambda t, o: {0: -0.5 * t, 1: -0.5, 2: 0.0, 3: 0.0}[o]
        )
        with pytest.raises(UnsupportedSignError):
            ModelPair(neg, CharExponent.gamma(1.0, 2.0))
