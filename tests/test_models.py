"""Closed-form coefficient ladders and exact laws for the built-in pairs."""

import math

import numpy as np
import pytest

from twoscale import (
    CharExponent,
    CompoundPoissonGammaLaw,
    ModelPair,
    NegBinLaw,
    NotRareError,
    ParamError,
    PowerScaling,
    SeriesUnavailable,
    WorkedModel,
    exact_law,
    fast_expansion,
    fast_series_coeffs,
    lmgf,
    slow_expansion,
    slow_series_coeffs,
)
from conftest import RARE_GRID, gp_pair, pg_pair


def _custom_pair() -> ModelPair:
    """Poisson(1) on a Gamma(1, 3) clock, with A given as a custom exponent."""
    poisson = CharExponent.custom(lambda t, k: math.expm1(t) if k == 0 else math.exp(t), lattice_span=1.0)
    return ModelPair(poisson, CharExponent.gamma(1.0, 3.0))


class TestRecognition:
    def test_from_pair(self):
        # from_pair hands a built-in pair back as it is
        for pair in (pg_pair(1.0, 2.0, 3.0), gp_pair(1.0, 2.0, 3.0)):
            assert WorkedModel.from_pair(pair) is pair
        assert WorkedModel.from_pair(_custom_pair()) is None

    def test_not_rare(self):
        pair = pg_pair(1.0, 1.0, 2.0)
        with pytest.raises(NotRareError):
            fast_series_coeffs(pair, 0.5)
        with pytest.raises(NotRareError):
            slow_series_coeffs(pair, 0.4)

    @pytest.mark.parametrize("coeffs", [fast_series_coeffs, slow_series_coeffs])
    def test_ladders_need_a_built_in_pair(self, coeffs):
        with pytest.raises(SeriesUnavailable, match="built-in model pairs only"):
            coeffs(_custom_pair(), 1.0)
        # the pair is recognised before the order is checked
        with pytest.raises(SeriesUnavailable):
            coeffs(_custom_pair(), 1.0, k_max=0)


class TestFastCoefficients:
    @pytest.mark.parametrize("lam,r,mu,u", RARE_GRID)
    def test_match_generic_expansion(self, lam, r, mu, u):
        for pair in (pg_pair(lam, r, mu), gp_pair(r, mu, lam)):
            theta_star, v, _ = fast_series_coeffs(pair, u, k_max=2)
            generic = fast_expansion(pair, u, order=2)
            assert theta_star == pytest.approx(generic.theta_star, rel=1e-9)
            assert v[0] == pytest.approx(generic.v[1], rel=1e-9)
            assert v[1] == pytest.approx(generic.v[2], rel=1e-9)

    def test_poisson_gamma_first_coefficient(self):
        pair = pg_pair(1.0, 1.0, 3.0)
        _, v, _ = fast_series_coeffs(pair, 1.0, k_max=1)
        z1, z2 = 1.0 / 3.0, 1.0
        assert v[0] == pytest.approx(z1 - z2, rel=1e-14)

    @pytest.mark.parametrize("lam,r,mu,u", RARE_GRID[:8])
    def test_linear_term_identity(self, lam, r, mu, u):
        # -r v_1 = (1 - rho) u = b alpha(theta*)
        rho = lam * r / (mu * u)
        theta_star, v, _ = fast_series_coeffs(pg_pair(lam, r, mu), u, k_max=1)
        b = r / mu
        assert -r * v[0] == pytest.approx((1.0 - rho) * u, rel=1e-12)
        assert -r * v[0] == pytest.approx(b * lam * (math.exp(theta_star) - 1.0), rel=1e-12)

    def test_gamma_poisson_printed_v2(self):
        pair = gp_pair(1.0, 2.0, 1.0)
        _, v, _ = fast_series_coeffs(pair, 1.0, k_max=2)
        rho = 0.5
        ell = math.log(2.0)
        assert v[0] == pytest.approx(-2.0 * 1.0 * rho * ell, rel=1e-14)
        assert v[1] == pytest.approx(2.0 * rho * ell * (1.0 - ell / 2.0), rel=1e-14)

    def test_vbar_consistency_between_variants(self):
        # Same underlying recursion, two printed shapes: vbar = -(r v_k + u v_{k-1})
        # for the counting model, vbar = -u(v_k/r + v_{k-1}) for the jump model.
        pair = pg_pair(1.0, 1.0, 3.0)
        _, v, vbar = fast_series_coeffs(pair, 1.0, k_max=5)
        for k in range(2, 6):
            assert vbar[k - 2] == pytest.approx(-(1.0 * v[k - 1] + 1.0 * v[k - 2]), rel=1e-13)

    def test_explicit_vbar_formula(self):
        # vbar_k = (-1)^k (r(z1^k - z2^k)/k - u(z1^{k-1} - z2^{k-1})/(k-1))
        lam, r, mu, u = 1.0, 1.3, 2.4, 1.1
        pair = pg_pair(lam, r, mu)
        _, _, vbar = fast_series_coeffs(pair, u, k_max=6)
        z1, z2 = lam / mu, u / r
        for k in range(2, 7):
            expected = (-1.0) ** k * (
                r * (z1**k - z2**k) / k - u * (z1 ** (k - 1) - z2 ** (k - 1)) / (k - 1)
            )
            assert vbar[k - 2] == pytest.approx(expected, rel=1e-12)


class TestSlowCoefficients:
    @pytest.mark.parametrize("lam,r,mu,u", RARE_GRID)
    def test_match_generic_expansion(self, lam, r, mu, u):
        for pair in (pg_pair(lam, r, mu), gp_pair(r, mu, lam)):
            tau_star, w, _ = slow_series_coeffs(pair, u, k_max=2)
            generic = slow_expansion(pair, u, order=2)
            assert tau_star == pytest.approx(generic.tau_star, rel=1e-9)
            assert w[0] == pytest.approx(generic.w[0], rel=1e-9)
            assert w[1] == pytest.approx(generic.w[1], rel=1e-6)

    def test_poisson_gamma_tau_star_forms(self):
        lam, r, mu, u = 1.0, 1.0, 3.0, 1.0
        tau_star, w, _ = slow_series_coeffs(pg_pair(lam, r, mu), u, k_max=3)
        rho = lam * r / (mu * u)
        zb1, zb2 = mu / lam, r / u
        assert tau_star == pytest.approx((r / u) * (1.0 / rho - 1.0), rel=1e-14)
        assert tau_star == pytest.approx(zb1 - zb2, rel=1e-14)
        assert tau_star == pytest.approx(zb1 * (1.0 - rho), rel=1e-14)
        assert w[0] == tau_star

    def test_poisson_gamma_beta_identity(self):
        # beta(a tau*) = r log(1/rho)
        lam, r, mu, u = 0.8, 1.2, 2.6, 1.0
        tau_star, _, _ = slow_series_coeffs(pg_pair(lam, r, mu), u, k_max=1)
        beta_val = r * math.log(mu / (mu - lam * tau_star))
        assert beta_val == pytest.approx(r * math.log(mu * u / (lam * r)), rel=1e-12)

    def test_gamma_poisson_printed_w2(self):
        pair = gp_pair(1.0, 2.0, 1.0)
        tau_star, w, _ = slow_series_coeffs(pair, 1.0, k_max=2)
        ell = math.log(2.0)
        assert tau_star == pytest.approx(2.0 * ell, rel=1e-14)
        assert w[1] == pytest.approx(-2.0 * ell * (1.0 + ell / 2.0), rel=1e-14)

    def test_wbar_uses_next_coefficient(self):
        lam, r, mu, u = 1.0, 1.0, 3.0, 1.0
        pair = pg_pair(lam, r, mu)
        _, w5, wbar4 = slow_series_coeffs(pair, u, k_max=5)
        zb1, zb2 = mu / lam, r / u
        w6 = ((-1.0) ** 7 / 6.0) * (zb1**6 - zb2**6)
        # wbar_5 = -(r w_5 + u w_6)
        assert wbar4[4] == pytest.approx(-(r * w5[4] + u * w6), rel=1e-12)


class TestExactLaw:
    def test_negbin_parameters(self):
        pair = pg_pair(1.0, 1.0, 2.0)
        law = exact_law(pair, PowerScaling(1.0), 10.0)
        assert isinstance(law, NegBinLaw)
        assert law.successes == pytest.approx(10.0)
        assert law.p == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_negbin_lmgf_matches_composed(self):
        pair = pg_pair(1.0, 1.0, 2.0)
        s, n = PowerScaling(1.0), 10.0
        law = exact_law(pair, s, n)
        for theta in np.linspace(-1.0, 0.35, 12):
            assert law.lmgf(theta) == pytest.approx(lmgf(pair, s, n, theta), abs=1e-12)

    def test_compound_jump_shape(self):
        pair = gp_pair(1.0, 2.0, 1.0)
        law = exact_law(pair, PowerScaling(0.5), 100.0)
        assert isinstance(law, CompoundPoissonGammaLaw)
        assert law.jump_shape == pytest.approx(10.0)  # r * psi = 1 * 100^0.5
        assert law.rate == pytest.approx(10.0)  # phi * lam
        assert law.jump_rate == pytest.approx(2.0)

    def test_compound_lmgf_matches_composed(self):
        pair = gp_pair(1.2, 2.5, 0.8)
        s, n = PowerScaling(0.6), 50.0
        law = exact_law(pair, s, n)
        for theta in np.linspace(-2.0, 1.8, 10):
            assert law.lmgf(theta) == pytest.approx(
                lmgf(pair, s, n, theta), rel=1e-12, abs=1e-12
            )

    @pytest.mark.parametrize("n", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_n_rejected(self, n):
        for pair in (pg_pair(1.0, 1.0, 2.0), gp_pair(1.0, 2.0, 1.0)):
            with pytest.raises(ParamError):
                exact_law(pair, PowerScaling(1.5), n)

    def test_custom_pair_has_no_exact_law(self):
        custom = _custom_pair()
        with pytest.raises(ParamError, match="built-in model pairs only"):
            exact_law(custom, PowerScaling(1.5), 100.0)
        # None, what WorkedModel.from_pair reads for a custom pair
        with pytest.raises(ParamError, match="built-in model pairs only"):
            exact_law(None, PowerScaling(1.5), 100.0)

    @pytest.mark.parametrize("m", [1e9, 4e9])
    def test_negbin_tail_keeps_ties_above_1e9(self, m):
        res = NegBinLaw(1.0, 0.5).tail(m)
        assert res.log_probability == pytest.approx(m * math.log(0.5), rel=1e-12)


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

    def test_tilt_refuses_what_lmgf_refuses(self, law):
        # past the edge the tilted law would have p <= 0 or a complex rate
        edge = -math.log(1.0 - law.p) if isinstance(law, NegBinLaw) else law.jump_rate
        for theta in (edge, 2.0 * edge):
            with pytest.raises(ParamError, match="diverges"):
                law.lmgf(theta)
            with pytest.raises(ParamError, match="diverges"):
                law.tilt(theta)

    def test_tail_is_the_oracle(self, law):
        from twoscale import compound_poisson_gamma_tail, negbin_tail

        for x in (3.0, 17.2, 40.0):
            if isinstance(law, NegBinLaw):
                want = negbin_tail(law.successes, law.p, x)
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


def test_negbin_point_mass_tilts_anywhere():
    # p rounded to 1 (a huge clock rate) leaves a point mass at 0: its lmgf is
    # 0 for every theta, and every tilt is the law itself
    law = NegBinLaw(successes=3.0, p=1.0)
    assert law.lmgf(0.5) == 0.0
    assert law.tilt(2.0) == law


def test_compound_cdf_guard():
    law = CompoundPoissonGammaLaw(rate=1e13, jump_shape=1.0, jump_rate=1.0)
    with pytest.raises(ParamError, match="too many relevant terms"):
        law.cdf(1e13)


@pytest.mark.parametrize("coeffs", [fast_series_coeffs, slow_series_coeffs])
@pytest.mark.parametrize("pair", [pg_pair(1.0, 1.0, 2.0), gp_pair(1.0, 2.0, 1.0)], ids=["pg", "gp"])
@pytest.mark.parametrize("u", [math.nan, math.inf])
def test_series_coeffs_reject_non_finite_u(coeffs, pair, u):
    with pytest.raises(ParamError):
        coeffs(pair, u)
