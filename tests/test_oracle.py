"""Exact oracles and the Monte Carlo estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from twoscale import (
    ParamError,
    PowerScaling,
    RigorousBound,
    StatisticalBound,
    compound_poisson_gamma_tail,
    is_tail,
    negbin_tail,
    plain_mc_tail,
)
from twoscale import oracle
from conftest import assert_displayed, gp_pair, pg_pair, run_python


class TestNegbinTail:
    def test_threshold_zero_is_one(self):
        res = negbin_tail(5.0, 0.4, 0.0)
        assert res.probability == 1.0 and res.log_probability == 0.0

    def test_small_case_against_direct_sum(self):
        k, p, m0 = 5.0, 0.5, 8
        brute = 0.0
        for x in range(m0, 400):
            brute += math.comb(x + 4, x) * p**5 * (1 - p) ** x
        res = negbin_tail(k, p, m0)
        assert res.probability == pytest.approx(brute, rel=1e-12)
        assert res.probability == pytest.approx(stats.nbinom.sf(m0 - 1, 5, p), rel=1e-12)

    @pytest.mark.parametrize("k,p,m0", [(5.0, 0.5, 8), (100.5, 0.2, 500), (3.2, 0.9, 2)])
    def test_matches_scipy_both_branches(self, k, p, m0):
        res = negbin_tail(k, p, m0)
        assert res.probability == pytest.approx(stats.nbinom.sf(m0 - 1, k, p), rel=1e-11)

    def test_complement_sums_to_one(self):
        # tail + complement CDF = 1, with the CDF from an independent route
        for k, p, m0 in ((50.0, 0.3, 100), (7.5, 0.6, 3), (1000.0, 0.9, 120)):
            tail = negbin_tail(k, p, m0).probability
            cdf = float(stats.nbinom.cdf(m0 - 1, k, p))
            assert tail + cdf == pytest.approx(1.0, abs=1e-13)

    def test_reference_mapping_value(self):
        # the flagship arrival-count case: successes 1e5, p = 1000/1001, threshold 150
        res = negbin_tail(100_000.0, 1000.0 / 1001.0, 150.0)
        assert_displayed(res.probability, 1.90e-6, "negbin flagship")
        assert isinstance(res.error, RigorousBound)
        assert res.error.bound <= 1e-15 * res.probability * 10

    def test_log_accuracy_below_underflow(self):
        # deep tail: probability underflows but the log stays usable
        res = negbin_tail(1e6, 2.0 / 2.01, 1e4)
        assert res.probability == 0.0
        assert -2000 < res.log_probability < -1700

    def test_threshold_past_1e154_is_silent(self):
        # n**2 overflows in the Stirling correction past n ~ 1.3e154; its
        # reciprocal reads 0, the limit wanted, with no RuntimeWarning.
        res = negbin_tail(1, 0.5, 1e160)
        assert res.probability == 0.0
        assert res.log_probability == pytest.approx(-1e160 * math.log(2.0), rel=1e-12)

    def test_lower_sum_spans_many_blocks(self):
        # Threshold 1000 below the mean 1e7 (sd ~4472): the complement sums
        # down from the peak through dozens of 4096-count blocks before its
        # bound stops it.  mpmath.betainc does not converge at this size, so
        # the reference is scipy's regularized incomplete beta.
        k, m0 = 1e7, 1e7 - 1000
        res = negbin_tail(k, 0.5, m0)
        assert res.probability == pytest.approx(special.betainc(m0, k, 0.5), rel=1e-12)
        assert res.error.bound <= 1e-14

    def test_ties_included(self):
        # integral threshold includes the atom at the threshold itself
        k, p = 5.0, 0.5
        with_tie = negbin_tail(k, p, 8.0).probability
        pmf8 = math.comb(12, 8) * p**5 * (1 - p) ** 8
        just_above = negbin_tail(k, p, 8.2).probability
        assert with_tie == pytest.approx(just_above + pmf8, rel=1e-12)

    def test_param_errors(self):
        with pytest.raises(ParamError):
            negbin_tail(5.0, 1.0, 3)
        with pytest.raises(ParamError):
            negbin_tail(5.0, 0.0, 3)
        with pytest.raises(ParamError):
            negbin_tail(-1.0, 0.5, 3)
        with pytest.raises(ParamError):
            negbin_tail(5.0, 0.5, -2)


def _old_ceil_threshold(threshold):
    """Verbatim copy of the rule before its half-count cap: wrong from 1e9 up."""
    return int(math.ceil(threshold - 1e-9 * max(1.0, abs(threshold))))


class TestCeilThreshold:
    """``_ceil_threshold`` is the one rule that turns a threshold into a count."""

    GRID = [
        base + off
        for base in (0.0, 1.0, 2.5, 150.0, 5e5, 1e7, 123456789.0, 4.9e8, -3.0, -2e8)
        for off in (0.0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-7, 0.1, 0.5, 0.9999999)
    ]

    def test_old_rule_below_5e8_on_a_grid(self):
        for t in self.GRID:
            assert abs(t) < 5e8
            assert oracle._ceil_threshold(t) == _old_ceil_threshold(t), t

    @settings(max_examples=500, deadline=None)
    @given(st.floats(min_value=-4.999999999e8, max_value=4.999999999e8))
    def test_old_rule_below_5e8(self, t):
        assert oracle._ceil_threshold(t) == _old_ceil_threshold(t)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(min_value=-(2**53), max_value=2**53))
    def test_integral_floats_are_their_own_count(self, m):
        assert oracle._ceil_threshold(float(m)) == m

    @pytest.mark.parametrize("m", [5e8, 1e9, 4e9, 2.0**40, 2.0**53])
    def test_ties_kept_above_1e9(self, m):
        assert oracle._ceil_threshold(m) == int(m)
        # the old rule drops 1e-9 m counts, so from 1e9 up it loses the tie
        assert (_old_ceil_threshold(m) < m) == (m >= 1e9)

    def test_absorbs_at_most_half_a_count(self):
        assert oracle._ceil_threshold(1e9 + 0.25) == 10**9
        assert oracle._ceil_threshold(1e9 + 0.75) == 10**9 + 1
        assert oracle._ceil_threshold(150.0 + 1e-8) == 150
        assert oracle._ceil_threshold(150.0 + 1e-6) == 151

    @pytest.mark.parametrize("m", [1e8, 1e9, 4e9])
    def test_geometric_tail_above_1e9(self, m):
        # successes 1: P(X >= m) = (1 - p)^m, so the log is m log(1 - p)
        want = m * math.log(0.5)
        assert negbin_tail(1.0, 0.5, m).log_probability == pytest.approx(want, rel=1e-12)


class TestCompoundPoissonGammaTail:
    def test_threshold_zero_is_one(self):
        assert compound_poisson_gamma_tail(2.0, 1.0, 1.0, 0.0).probability == 1.0

    def test_vanishing_rate_limit(self):
        res = compound_poisson_gamma_tail(1e-10, 1.0, 1.0, 3.0)
        assert res.probability <= 1e-10

    def test_small_case_against_quadrature(self):
        # P(total >= 3) with rate 2 and unit-exponential jumps, via numerical
        # integration of the conditional Erlang densities.
        lam, t = 2.0, 3.0
        brute = 0.0
        for j in range(1, 60):
            pmf = math.exp(-lam) * lam**j / math.factorial(j)
            dens = lambda y, j=j: y ** (j - 1) * math.exp(-y) / math.factorial(j - 1)
            lower, _ = integrate.quad(dens, 0.0, t)
            brute += pmf * (1.0 - lower)
        res = compound_poisson_gamma_tail(lam, 1.0, 1.0, t)
        assert res.probability == pytest.approx(brute, rel=1e-9)
        assert isinstance(res.error, RigorousBound)
        assert res.error.bound <= 1e-13

    def test_non_finite_arguments_rejected(self):
        # Run apart, under a timeout: an infinite rate used to loop forever.
        code = (
            "import itertools, math\n"
            "from twoscale import ParamError, compound_poisson_gamma_tail\n"
            "for i, bad in itertools.product(range(4), (math.inf, math.nan)):\n"
            "    args = [1.0, 1.0, 1.0, 3.0]\n"
            "    args[i] = bad\n"
            "    try:\n"
            "        res = compound_poisson_gamma_tail(*args)\n"
            "    except ParamError:\n"
            "        continue\n"
            "    raise SystemExit(f'{args} returned {res}')\n"
        )
        proc = run_python("-c", code, timeout=60.0)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("args", [
        (4097.0, 2.0, 1.0, 9000.0), (2e4, 1.0, 1.0, 2.1e4), (1e5, 0.5, 2.0, 2.4e4),
        (3e5, 1.0, 1.0, 2.9e5), (1e6, 1.0, 1.0, 1.2e6), (1e6, 3.0, 0.7, 4.0e6),
    ])
    def test_skipped_blocks_leave_the_sum_bit_identical(self, monkeypatch, args):
        # Leading blocks whose weights all underflow to 0.0 are skipped; the
        # sum from j = 1 gives the same bits.
        skipped = repr(compound_poisson_gamma_tail(*args))
        monkeypatch.setattr(oracle, "_first_live_block", lambda lam: 1)
        assert repr(compound_poisson_gamma_tail(*args)) == skipped

    @pytest.mark.parametrize("lam", [1.0, 4096.0, 8193.0, 1e5, 1e6])
    def test_skipped_weights_are_exactly_zero(self, lam):
        j0 = oracle._first_live_block(lam)
        assert (j0 - 1) % 4096 == 0 and j0 <= max(lam, 1.0)
        if lam >= 1e5:
            assert j0 > 1
            assert np.exp(oracle._poisson_logpmf(np.arange(1.0, j0), lam)).max() == 0.0

    def test_large_rate_starts_near_the_mode(self):
        # Summing 4096-count blocks from j = 1 up to a rate of 1e8 took
        # about 14 s; the skip leaves about 200 blocks around the mode.
        code = (
            "from twoscale import compound_poisson_gamma_tail\n"
            "print(repr(compound_poisson_gamma_tail(1e8, 1.0, 1.0, 0.99e8).probability))\n"
        )
        proc = run_python("-c", code, timeout=10.0)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0.9999999999999962"

    def test_param_errors(self):
        with pytest.raises(ParamError):
            compound_poisson_gamma_tail(0.0, 1.0, 1.0, 3.0)
        with pytest.raises(ParamError):
            compound_poisson_gamma_tail(2.0, -1.0, 1.0, 3.0)
        with pytest.raises(ParamError):
            compound_poisson_gamma_tail(2.0, 1.0, 1.0, -3.0)


class TestNonFiniteInput:
    @pytest.mark.parametrize("args", [
        (math.inf, 0.5, 3.0), (math.nan, 0.5, 3.0), (2.0, math.nan, 3.0),
        (2.0, 0.5, math.nan), (2.0, 0.5, math.inf),
    ])
    def test_negbin_tail(self, args):
        with pytest.raises(ParamError):
            negbin_tail(*args)

    @pytest.mark.parametrize("n,u", [
        (math.nan, 0.5), (math.inf, 0.5), (50.0, math.nan), (50.0, math.inf),
    ])
    @pytest.mark.parametrize("estimator", [plain_mc_tail, is_tail])
    def test_monte_carlo(self, pg113, estimator, n, u):
        with pytest.raises(ParamError):
            estimator(pg113, PowerScaling(1.5), n, u, samples=100, seed=1)

    @pytest.mark.parametrize("estimator", [plain_mc_tail, is_tail])
    def test_negative_seed(self, pg113, estimator):
        with pytest.raises(ParamError, match="seed must be >= 0"):
            estimator(pg113, PowerScaling(1.5), 400.0, 1.0, samples=100, seed=-1)


class TestImportanceSampling:
    def test_agrees_with_negbin_exact(self, pg113):
        s, n, u = PowerScaling(1.5), 400.0, 0.48
        res = is_tail(pg113, s, n, u, samples=60_000, seed=20240801)
        from twoscale.oracle import exact_law

        law = exact_law(pg113, s, n)
        exact = negbin_tail(law.successes, law.p, u * n).probability
        assert abs(res.probability - exact) <= 3.0 * res.error.std_error
        assert res.error.std_error / res.probability <= 0.05

    def test_agrees_in_deep_tail(self, pg113):
        # u = 1 puts the probability near 1e-75; the tilt keeps the relative
        # error small anyway.
        s, n, u = PowerScaling(1.5), 400.0, 1.0
        res = is_tail(pg113, s, n, u, samples=60_000, seed=7)
        from twoscale.oracle import exact_law

        law = exact_law(pg113, s, n)
        exact = math.exp(negbin_tail(law.successes, law.p, u * n).log_probability)
        assert abs(res.probability - exact) <= 3.0 * res.error.std_error
        assert res.error.std_error / res.probability <= 0.05

    def test_agrees_with_compound_exact(self, gp121):
        s, n, u = PowerScaling(1.5), 400.0, 0.62
        res = is_tail(gp121, s, n, u, samples=60_000, seed=20240802)
        exact = compound_poisson_gamma_tail(
            s.phi(n) * 1.0, 1.0 * s.psi(n), 2.0, u * n
        ).probability
        assert abs(res.probability - exact) <= 3.0 * res.error.std_error
        assert res.error.std_error / res.probability <= 0.05

    def test_seed_determinism(self, pg113):
        s = PowerScaling(1.5)
        a = is_tail(pg113, s, 400.0, 0.48, samples=5_000, seed=11)
        b = is_tail(pg113, s, 400.0, 0.48, samples=5_000, seed=11)
        assert a.probability == b.probability
        assert a.error.std_error == b.error.std_error

    def test_worker_split_reproducible(self, pg113):
        s = PowerScaling(1.5)
        a = is_tail(pg113, s, 400.0, 0.48, samples=9_001, seed=13, workers=3)
        b = is_tail(pg113, s, 400.0, 0.48, samples=9_001, seed=13, workers=3)
        assert a.probability == b.probability

    def test_unbiased_coverage(self, pg113):
        # exact value inside the 99% CI for the vast majority of seeds
        s, n, u = PowerScaling(1.5), 400.0, 0.48
        from twoscale.oracle import exact_law

        law = exact_law(pg113, s, n)
        exact = negbin_tail(law.successes, law.p, u * n).probability
        hits = 0
        for seed in range(30):
            res = is_tail(pg113, s, n, u, samples=20_000, seed=seed)
            if abs(res.probability - exact) <= 2.576 * res.error.std_error:
                hits += 1
        assert hits >= 27

    def test_requires_rare_u(self, pg113):
        from twoscale import NotRareError

        with pytest.raises(NotRareError):
            is_tail(pg113, PowerScaling(1.5), 400.0, 0.2, samples=100, seed=1)

    def test_custom_model_rejected(self):
        from twoscale import CharExponent, ModelPair

        drift = CharExponent.custom(lambda t, o: 0.9 * t if o == 0 else (0.9 if o == 1 else 0.0))
        m = ModelPair(CharExponent.poisson(1.0), drift)
        with pytest.raises(ParamError):
            is_tail(m, PowerScaling(1.5), 100.0, 1.5, samples=100, seed=1)


class TestPlainMc:
    def test_agrees_with_is_near_mean(self, pg113):
        s, n = PowerScaling(1.5), 50.0
        u = (1.0 / 3.0) * 1.01
        mc = plain_mc_tail(pg113, s, n, u, samples=40_000, seed=5)
        isr = is_tail(pg113, s, n, u, samples=40_000, seed=6)
        combined = math.hypot(mc.error.std_error, isr.error.std_error)
        assert abs(mc.probability - isr.probability) <= 3.0 * combined

    def test_estimates_in_unit_interval(self, pg113, gp121):
        s = PowerScaling(1.5)
        for m in (pg113, gp121):
            res = plain_mc_tail(m, s, 50.0, 0.4, samples=2_000, seed=3)
            assert 0.0 <= res.probability <= 1.0

    def test_below_mean_accepted(self, pg113):
        # u below a*b is legitimate for the naive estimator
        res = plain_mc_tail(pg113, PowerScaling(1.5), 50.0, 0.2, samples=4_000, seed=9)
        assert 0.5 <= res.probability <= 1.0

    def test_statistical_error_fields(self, pg113):
        res = plain_mc_tail(pg113, PowerScaling(1.5), 50.0, 0.4, samples=2_000, seed=21)
        assert isinstance(res.error, StatisticalBound)
        assert res.error.samples == 2_000 and res.error.seed == 21

    def test_threshold_past_float_range(self, pg113, gp121):
        # n and u are finite, their product is not
        for m in (pg113, gp121):
            with pytest.raises(ParamError, match="threshold u n = inf"):
                plain_mc_tail(m, PowerScaling(1.5), 1e200, 1e200, samples=10, seed=1)


class TestPoissonRateLimit:
    def test_limit_is_numpys(self):
        rng = np.random.default_rng(0)
        rng.poisson(oracle._POISSON_RATE_MAX)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(oracle._POISSON_RATE_MAX, math.inf))

    @pytest.mark.parametrize("estimator, pair, n, u", [
        (plain_mc_tail, gp_pair(1.0, 3.0, 1.0), 1e100, 1e-90),  # count rate 1e150
        (plain_mc_tail, pg_pair(1.0, 1.0, 3.0), 1e20, 1.0),  # jump * clock ~ 3e19
        (is_tail, pg_pair(1.0, 1.0, 3.0), 1e20, 5.0),
    ], ids=["mc-gp", "mc-pg", "is-pg"])
    def test_rate_past_the_limit(self, estimator, pair, n, u):
        with pytest.raises(ParamError, match="Poisson rate"):
            estimator(pair, PowerScaling(1.5), n, u, samples=10, seed=1)


# Exact (probability, std_error) of the Monte Carlo oracles, recorded before
# plain Monte Carlo became the zero tilt of the importance sampler and the
# substreams stopped running on a thread pool: pg(1, 1, 3) and gp(1, 2, 1),
# f = 1.5, 2001 samples, seed 17; is_tail at n = 400 (u = 0.48, 0.62),
# plain_mc_tail at n = 50 (u = 0.4, 0.55).
MC_GOLDEN = {
    ("is", "pg", 1): (1.4871333874014242e-06, 7.759694567344568e-08),
    ("is", "pg", 2): (1.3771573178491977e-06, 7.13542424925033e-08),
    ("is", "pg", 3): (1.2786838804140768e-06, 6.814865660830292e-08),
    ("is", "pg", 4): (1.342310080469161e-06, 6.984202968213409e-08),
    ("is", "gp", 1): (6.774558493610241e-06, 3.4034000949460516e-07),
    ("is", "gp", 2): (5.533021105543108e-06, 2.961554854290867e-07),
    ("is", "gp", 3): (5.734453724157915e-06, 3.0120141623862705e-07),
    ("is", "gp", 4): (6.54215686022809e-06, 3.2401340553293737e-07),
    ("mc", "pg", 1): (0.2463768115942029, 0.009635229065851977),
    ("mc", "pg", 2): (0.22938530734632684, 0.009401268215511085),
    ("mc", "pg", 3): (0.2303848075962019, 0.009415615965646192),
    ("mc", "pg", 4): (0.22988505747126436, 0.009408451461922356),
    ("mc", "gp", 1): (0.2273863068465767, 0.009372346939407738),
    ("mc", "gp", 2): (0.2478760619690155, 0.00965488269922914),
    ("mc", "gp", 3): (0.248375812093953, 0.009661399175601389),
    ("mc", "gp", 4): (0.23938030984507747, 0.00954141962979179),
}


class TestGolden:
    @pytest.mark.parametrize("key,want", MC_GOLDEN.items(),
                             ids=["-".join(map(str, key)) for key in MC_GOLDEN])
    def test_bit_identical(self, key, want):
        method, kind, workers = key
        model = pg_pair(1.0, 1.0, 3.0) if kind == "pg" else gp_pair(1.0, 2.0, 1.0)
        if method == "is":
            res = is_tail(model, PowerScaling(1.5), 400.0, 0.48 if kind == "pg" else 0.62,
                          2001, 17, workers=workers)
        else:
            res = plain_mc_tail(model, PowerScaling(1.5), 50.0, 0.4 if kind == "pg" else 0.55,
                                2001, 17, workers=workers)
        assert (res.probability, res.error.std_error) == want

    def test_more_substreams_than_samples(self):
        # 3 samples over 4 substreams: the last substream's budget is zero
        res = is_tail(pg_pair(1.0, 1.0, 3.0), PowerScaling(1.5), 400.0, 0.48, 3, 5, workers=4)
        assert (res.probability, res.error.std_error) == (4.903018355258304e-06, 4.854091878395567e-06)
        assert res.error.samples == 3

    def test_substreams_run_on_the_calling_thread(self, monkeypatch):
        import threading

        seen = []
        default_rng = np.random.default_rng

        def recording(seed):
            seen.append(threading.get_ident())
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording)
        is_tail(pg_pair(1.0, 1.0, 3.0), PowerScaling(1.5), 400.0, 0.48, 400, 1, workers=4)
        assert seen == [threading.get_ident()] * 4
