"""Closed-form coefficient ladders and exact laws for the built-in pairs."""

import math

import numpy as np
import pytest

from twoscale import (
    CompoundPoissonGammaLaw,
    NegBinLaw,
    NotRareError,
    ParamError,
    PowerScaling,
    WorkedModel,
    exact_law,
    fast_expansion,
    fast_series_coeffs,
    lmgf,
    slow_expansion,
    slow_series_coeffs,
)
from conftest import RARE_GRID, gp_pair, pg_pair


class TestRecognition:
    def test_from_pair(self):
        assert WorkedModel.from_pair(pg_pair(1.0, 2.0, 3.0)).variant == "poisson_gamma"
        assert WorkedModel.from_pair(gp_pair(1.0, 2.0, 3.0)).variant == "gamma_poisson"

    def test_round_trip(self):
        wm = WorkedModel.poisson_gamma(1.3, 0.8, 2.5)
        pair = wm.to_pair()
        back = WorkedModel.from_pair(pair)
        assert back == wm

    def test_rho(self):
        wm = WorkedModel.poisson_gamma(1.0, 1.0, 3.0)
        assert wm.rho(1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_not_rare(self):
        wm = WorkedModel.poisson_gamma(1.0, 1.0, 2.0)
        with pytest.raises(NotRareError):
            fast_series_coeffs(wm, 0.5)
        with pytest.raises(NotRareError):
            slow_series_coeffs(wm, 0.4)


class TestFastCoefficients:
    @pytest.mark.parametrize("lam,r,mu,u", RARE_GRID)
    def test_match_generic_expansion(self, lam, r, mu, u):
        for wm, pair in (
            (WorkedModel.poisson_gamma(lam, r, mu), pg_pair(lam, r, mu)),
            (WorkedModel.gamma_poisson(r, mu, lam), gp_pair(r, mu, lam)),
        ):
            theta_star, v, _ = fast_series_coeffs(wm, u, k_max=2)
            generic = fast_expansion(pair, u, order=2)
            assert theta_star == pytest.approx(generic.theta_star, rel=1e-9)
            assert v[0] == pytest.approx(generic.v[1], rel=1e-9)
            assert v[1] == pytest.approx(generic.v[2], rel=1e-9)

    def test_poisson_gamma_first_coefficient(self):
        wm = WorkedModel.poisson_gamma(1.0, 1.0, 3.0)
        _, v, _ = fast_series_coeffs(wm, 1.0, k_max=1)
        z1, z2 = 1.0 / 3.0, 1.0
        assert v[0] == pytest.approx(z1 - z2, rel=1e-14)

    @pytest.mark.parametrize("lam,r,mu,u", RARE_GRID[:8])
    def test_linear_term_identity(self, lam, r, mu, u):
        # -r v_1 = (1 - rho) u = b alpha(theta*)
        wm = WorkedModel.poisson_gamma(lam, r, mu)
        rho = wm.rho(u)
        theta_star, v, _ = fast_series_coeffs(wm, u, k_max=1)
        b = r / mu
        assert -r * v[0] == pytest.approx((1.0 - rho) * u, rel=1e-12)
        assert -r * v[0] == pytest.approx(b * lam * (math.exp(theta_star) - 1.0), rel=1e-12)

    def test_gamma_poisson_printed_v2(self):
        wm = WorkedModel.gamma_poisson(1.0, 2.0, 1.0)
        _, v, _ = fast_series_coeffs(wm, 1.0, k_max=2)
        rho = 0.5
        ell = math.log(2.0)
        assert v[0] == pytest.approx(-2.0 * 1.0 * rho * ell, rel=1e-14)
        assert v[1] == pytest.approx(2.0 * rho * ell * (1.0 - ell / 2.0), rel=1e-14)

    def test_vbar_consistency_between_variants(self):
        # Same underlying recursion, two printed shapes: vbar = -(r v_k + u v_{k-1})
        # for the counting model, vbar = -u(v_k/r + v_{k-1}) for the jump model.
        wm = WorkedModel.poisson_gamma(1.0, 1.0, 3.0)
        _, v, vbar = fast_series_coeffs(wm, 1.0, k_max=5)
        for k in range(2, 6):
            assert vbar[k - 2] == pytest.approx(-(1.0 * v[k - 1] + 1.0 * v[k - 2]), rel=1e-13)

    def test_explicit_vbar_formula(self):
        # vbar_k = (-1)^k (r(z1^k - z2^k)/k - u(z1^{k-1} - z2^{k-1})/(k-1))
        lam, r, mu, u = 1.0, 1.3, 2.4, 1.1
        wm = WorkedModel.poisson_gamma(lam, r, mu)
        _, _, vbar = fast_series_coeffs(wm, u, k_max=6)
        z1, z2 = lam / mu, u / r
        for k in range(2, 7):
            expected = (-1.0) ** k * (
                r * (z1**k - z2**k) / k - u * (z1 ** (k - 1) - z2 ** (k - 1)) / (k - 1)
            )
            assert vbar[k - 2] == pytest.approx(expected, rel=1e-12)


class TestSlowCoefficients:
    @pytest.mark.parametrize("lam,r,mu,u", RARE_GRID)
    def test_match_generic_expansion(self, lam, r, mu, u):
        for wm, pair in (
            (WorkedModel.poisson_gamma(lam, r, mu), pg_pair(lam, r, mu)),
            (WorkedModel.gamma_poisson(r, mu, lam), gp_pair(r, mu, lam)),
        ):
            tau_star, w, _ = slow_series_coeffs(wm, u, k_max=2)
            generic = slow_expansion(pair, u, order=2)
            assert tau_star == pytest.approx(generic.tau_star, rel=1e-9)
            assert w[0] == pytest.approx(generic.w[0], rel=1e-9)
            assert w[1] == pytest.approx(generic.w[1], rel=1e-6)

    def test_poisson_gamma_tau_star_forms(self):
        lam, r, mu, u = 1.0, 1.0, 3.0, 1.0
        wm = WorkedModel.poisson_gamma(lam, r, mu)
        tau_star, w, _ = slow_series_coeffs(wm, u, k_max=3)
        rho = wm.rho(u)
        zb1, zb2 = mu / lam, r / u
        assert tau_star == pytest.approx((r / u) * (1.0 / rho - 1.0), rel=1e-14)
        assert tau_star == pytest.approx(zb1 - zb2, rel=1e-14)
        assert tau_star == pytest.approx(zb1 * (1.0 - rho), rel=1e-14)
        assert w[0] == tau_star

    def test_poisson_gamma_beta_identity(self):
        # beta(a tau*) = r log(1/rho)
        lam, r, mu, u = 0.8, 1.2, 2.6, 1.0
        wm = WorkedModel.poisson_gamma(lam, r, mu)
        tau_star, _, _ = slow_series_coeffs(wm, u, k_max=1)
        beta_val = r * math.log(mu / (mu - lam * tau_star))
        assert beta_val == pytest.approx(r * math.log(1.0 / wm.rho(u)), rel=1e-12)

    def test_gamma_poisson_printed_w2(self):
        wm = WorkedModel.gamma_poisson(1.0, 2.0, 1.0)
        tau_star, w, _ = slow_series_coeffs(wm, 1.0, k_max=2)
        ell = math.log(2.0)
        assert tau_star == pytest.approx(2.0 * ell, rel=1e-14)
        assert w[1] == pytest.approx(-2.0 * ell * (1.0 + ell / 2.0), rel=1e-14)

    def test_wbar_uses_next_coefficient(self):
        lam, r, mu, u = 1.0, 1.0, 3.0, 1.0
        wm = WorkedModel.poisson_gamma(lam, r, mu)
        _, w5, wbar4 = slow_series_coeffs(wm, u, k_max=5)
        zb1, zb2 = mu / lam, r / u
        w6 = ((-1.0) ** 7 / 6.0) * (zb1**6 - zb2**6)
        # wbar_5 = -(r w_5 + u w_6)
        assert wbar4[4] == pytest.approx(-(r * w5[4] + u * w6), rel=1e-12)


class TestExactLaw:
    def test_negbin_parameters(self):
        wm = WorkedModel.poisson_gamma(1.0, 1.0, 2.0)
        law = exact_law(wm, PowerScaling(1.0), 10.0)
        assert isinstance(law, NegBinLaw)
        assert law.successes == pytest.approx(10.0)
        assert law.p == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_negbin_lmgf_matches_composed(self):
        wm = WorkedModel.poisson_gamma(1.0, 1.0, 2.0)
        s, n = PowerScaling(1.0), 10.0
        law = exact_law(wm, s, n)
        pair = wm.to_pair()
        for theta in np.linspace(-1.0, 0.35, 12):
            assert law.lmgf(theta) == pytest.approx(lmgf(pair, s, n, theta), abs=1e-12)

    def test_compound_jump_shape(self):
        wm = WorkedModel.gamma_poisson(1.0, 2.0, 1.0)
        law = exact_law(wm, PowerScaling(0.5), 100.0)
        assert isinstance(law, CompoundPoissonGammaLaw)
        assert law.jump_shape == pytest.approx(10.0)  # r * psi = 1 * 100^0.5
        assert law.rate == pytest.approx(10.0)  # phi * lam
        assert law.jump_rate == pytest.approx(2.0)

    def test_compound_lmgf_matches_composed(self):
        wm = WorkedModel.gamma_poisson(1.2, 2.5, 0.8)
        s, n = PowerScaling(0.6), 50.0
        law = exact_law(wm, s, n)
        pair = wm.to_pair()
        for theta in np.linspace(-2.0, 1.8, 10):
            assert law.lmgf(theta) == pytest.approx(
                lmgf(pair, s, n, theta), rel=1e-12, abs=1e-12
            )

    @pytest.mark.parametrize("n", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_n_rejected(self, n):
        for wm in (WorkedModel.poisson_gamma(1.0, 1.0, 2.0), WorkedModel.gamma_poisson(1.0, 2.0, 1.0)):
            with pytest.raises(ParamError):
                exact_law(wm, PowerScaling(1.5), n)


LAWS = [
    NegBinLaw(successes=7.5, p=0.4),
    CompoundPoissonGammaLaw(rate=12.0, jump_shape=1.7, jump_rate=2.5),
]


@pytest.mark.parametrize("law", LAWS, ids=["negbin", "compound"])
class TestLawMethods:
    def test_tilt_is_esscher(self, law):
        # gamma_tilted(s) = gamma(t + s) - gamma(t): the tilt's defining identity
        for t in (-0.8, -0.1, 0.2):
            tilted = law.tilt(t)
            assert type(tilted) is type(law)
            for s in (-0.5, 0.05, 0.15):
                want = law.lmgf(t + s) - law.lmgf(t)
                assert tilted.lmgf(s) == pytest.approx(want, rel=1e-12)

    def test_tail_is_the_oracle(self, law):
        from twoscale import compound_poisson_gamma_tail, negbin_tail

        for x in (3.0, 17.2, 40.0):
            if isinstance(law, NegBinLaw):
                want = negbin_tail(law.successes, law.p, math.ceil(x - 1e-9))
            else:
                want = compound_poisson_gamma_tail(law.rate, law.jump_shape, law.jump_rate, x)
            assert law.tail(x) == want

    def test_cdf_complements_tail(self, law):
        # P(X <= x) + P(X > x) = 1; for the lattice law P(X > x) = P(X >= x + 1)
        step = 1.0 if isinstance(law, NegBinLaw) else 0.0
        for x in (2.0, 11.0, 30.0):
            assert law.cdf(x) + law.tail(x + step).probability == pytest.approx(1.0, abs=1e-12)

    def test_cdf_scalar_and_array(self, law):
        value = law.cdf(5.0)
        assert type(value) is float
        values = law.cdf(np.array([-1.0, 5.0, 9.0]))
        assert isinstance(values, np.ndarray) and values.shape == (3,)
        assert values[0] == 0.0 and values[1] == value
        assert np.all(np.diff(values) >= 0)


def test_negbin_cdf_matches_scipy():
    from scipy import stats

    law = NegBinLaw(successes=7.5, p=0.4)
    xs = np.arange(0.0, 60.0)
    assert law.cdf(xs) == pytest.approx(stats.nbinom.cdf(xs, 7.5, 0.4), rel=1e-12)


def test_compound_cdf_guard():
    law = CompoundPoissonGammaLaw(rate=1e13, jump_shape=1.0, jump_rate=1.0)
    with pytest.raises(ParamError, match="too many relevant terms"):
        law.cdf(1e13)


@pytest.mark.parametrize("coeffs", [fast_series_coeffs, slow_series_coeffs])
@pytest.mark.parametrize("wm", [
    WorkedModel.poisson_gamma(1.0, 1.0, 2.0), WorkedModel.gamma_poisson(1.0, 2.0, 1.0),
], ids=["pg", "gp"])
@pytest.mark.parametrize("u", [math.nan, math.inf])
def test_series_coeffs_reject_non_finite_u(coeffs, wm, u):
    with pytest.raises(ParamError):
        coeffs(wm, u)
