"""Exact oracles and the Monte Carlo estimators."""

import json
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from twoscale import (
    ArrivalQuery,
    ParamError,
    PowerScaling,
    RigorousBound,
    StatisticalBound,
    TwoscaleError,
    compound_poisson_gamma_tail,
    exact_law,
    is_tail,
    negbin_tail,
    pi_exact,
    plain_mc_tail,
    solve_twist,
)
from twoscale import oracle
from twoscale.overdispersion import TABLE1_PARAMS, TABLE2_PARAMS
from conftest import assert_displayed, gp_pair, log_uniform, pg_pair, run_python


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

    def test_pmf_past_the_float_range_raises(self):
        # 2 pi k x overflows in the log pmf, so every term of the block reads
        # log 0: that is no exact zero tail with a zero bound, but a ParamError.
        law = oracle.exact_law(pg_pair(1.0, 1.0, 3.0), PowerScaling(1.0001), 1e155)
        with pytest.raises(ParamError, match="float range"):
            law.tail(2e155)
        with pytest.raises(ParamError, match="float range"):
            pi_exact(ArrivalQuery(10**9, 1e300, 1.0))

    def test_pmf_past_the_float_range_exits_2(self):
        proc = run_python("-m", "twoscale.cli", "oracle", "--poisson-gamma", "1", "1", "3",
                          "--f", "1.0001", "--n", "1e155", "--u", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("ParamError:") and "float range" in proc.stderr

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


def _bisected_first_live_block(lam):
    """The bisection that ``_first_live_block``'s closed form replaced, kept
    verbatim as its reference: the largest whole-block start below lam whose
    top count has a computed log weight below ``_LOG_NIL``."""
    lo, hi = 0, int((lam - 1.0) // oracle._BLOCK)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if oracle._poisson_logpmf(float(mid * oracle._BLOCK), lam) < oracle._LOG_NIL:
            lo = mid
        else:
            hi = mid - 1
    return 1 + lo * oracle._BLOCK


RATE_GRID = [10.0 ** (k / 10) for k in range(121)]


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

    @pytest.mark.parametrize("args, start", [
        *((args, lambda lam: 1) for args in [
            (4097.0, 2.0, 1.0, 9000.0), (2e4, 1.0, 1.0, 2.1e4), (1e5, 0.5, 2.0, 2.4e4),
            (3e5, 1.0, 1.0, 2.9e5), (1e6, 1.0, 1.0, 1.2e6), (1e6, 3.0, 0.7, 4.0e6),
        ]),
        ((1e7, 1.0, 1.0, 1.001e7), _bisected_first_live_block),
        ((1e8, 1.0, 1.0, 1.0003e8), _bisected_first_live_block),
        ((1e8, 3.0, 0.7, 4.287e8), _bisected_first_live_block),
    ], ids=[f"args{i}" for i in range(9)])
    def test_skipped_blocks_leave_the_sum_bit_identical(self, monkeypatch, args, start):
        # Leading blocks whose weights all underflow to 0.0 are skipped; the
        # sum from j = 1 gives the same bits.  Past a rate of 1e6 that sum
        # would take thousands of zero blocks, so there the bisection's start
        # stands in for it.
        skipped = repr(compound_poisson_gamma_tail(*args))
        monkeypatch.setattr(oracle, "_first_live_block", start)
        assert repr(compound_poisson_gamma_tail(*args)) == skipped

    @pytest.mark.parametrize("lam", [1.0, 4096.0, 8193.0, 1e5, 1e6])
    def test_skipped_weights_are_exactly_zero(self, lam):
        j0 = oracle._first_live_block(lam)
        assert (j0 - 1) % 4096 == 0 and j0 <= max(lam, 1.0)
        if lam >= 1e5:
            assert j0 > 1
            assert np.exp(oracle._poisson_logpmf(np.arange(1.0, j0), lam)).max() == 0.0

    def test_closed_form_start_against_the_bisection(self):
        # Whole blocks, never later than the bisection's start, and at most
        # two blocks (8,192 zero weights) earlier up to a rate of 1e9.
        for lam in RATE_GRID:
            j0, ref = oracle._first_live_block(lam), _bisected_first_live_block(lam)
            assert j0 % 4096 == 1 and j0 <= ref, lam
            if lam <= 1e9:
                assert ref - j0 <= 2 * 4096, lam

    def test_last_skipped_weight_is_below_log_nil_at_50_digits(self):
        # The exact log pmf, -lam + j log(lam) - log(j!), with no use of
        # _stirlerr or _bd0.
        skipped = 0
        for lam in RATE_GRID:
            j = oracle._first_live_block(lam) - 1
            if j == 0:
                continue
            skipped += 1
            with mpmath.workdps(50):
                lam_mp = mpmath.mpf(lam)
                log_pmf = -lam_mp + j * mpmath.log(lam_mp) - mpmath.loggamma(j + 1)
                assert log_pmf <= -750, (lam, j, log_pmf)
        assert skipped >= 80

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


class TestTermCap:
    """Every exact sum stops past ``oracle._MAX_TERMS`` terms with a ParamError."""

    REACHED = "the exact sum reached 2002944 terms, past the cap of 2000000"

    @pytest.mark.parametrize("args", [(1.0, 1e-6, 2e6), (1e-300, 1e-30, 5.0), (1.0, 1e-7, 3e6)],
                             ids=["upper-geometric", "upper-tiny-k", "lower-from-0"])
    def test_negbin_walks_stop_at_the_cap(self, args):
        # The first upper walk ran ~5e7 counts (4.4 s), the second ~1e30 (no end
        # in 15 s); the lower walk sums 3e6 counts up from its mode at 0.
        with pytest.raises(ParamError, match=self.REACHED):
            negbin_tail(*args)

    def test_compound_tail_stops_at_the_cap(self):
        # A count mean of 1e10 puts ~3.9e6 terms within the sum's window.
        law = exact_law(gp_pair(1.0, 1.0, 1.0), PowerScaling(2.5), 1e4)
        with pytest.raises(ParamError, match=self.REACHED):
            law.tail(2e4)

    def test_compound_cdf_charges_every_point(self):
        # A window of 76,015 terms is under the cap, but 90 points sum 90 windows.
        law = oracle.CompoundPoissonGammaLaw(1e7, 1.0, 1.0)
        start = time.perf_counter()
        with pytest.raises(ParamError, match="reached 6841350 terms, past the cap"):
            law.cdf(np.linspace(0.9e7, 1.1e7, 90))
        assert time.perf_counter() - start < 1.0

    def test_compound_cdf_sums_a_window_just_under_the_cap(self):
        # The window is 1,999,999 terms: one point sums it, two pass the cap.
        rate = 6.9436e9
        law = oracle.CompoundPoissonGammaLaw(rate, 1.0, 1.0)
        with pytest.raises(ParamError, match="reached 3999998 terms"):
            law.cdf([1.1 * rate, 1.1 * rate])
        # The one point is the mixture sum, bit for bit.
        spread = 12.0 * math.sqrt(rate)
        js = np.arange(int(rate - spread - 60.0), int(rate + spread + 60.0) + 1, dtype=float)
        weights = np.exp(-rate + js * math.log(rate) - special.gammaln(js + 1.0))
        assert law.cdf(1.1 * rate) == float(weights @ special.gammainc(js, 1.1 * rate))


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

    @pytest.mark.parametrize("estimator,samples", [(is_tail, 1), (plain_mc_tail, 0)])
    def test_fewer_than_two_samples(self, pg113, estimator, samples):
        # one sample has no standard error
        with pytest.raises(ParamError, match=f"samples must be >= 2, got {samples}"):
            estimator(pg113, PowerScaling(1.5), 400.0, 1.0, samples=samples, seed=1)


#: Valid queries whose lower sum once raised: an infinite mode (OverflowError
#: from ``int``), and a lower log in (-5.6e-17, -1e-300), whose ``exp`` rounds
#: to 1.0 under ``log1p(-1.0)`` (ValueError).  (label, call, want log).
_ONCE_RAISED = [
    ("mode-inf", lambda: negbin_tail(1e300, 1e-10, 5.0), 0.0),
    ("mode-inf-pg", lambda: oracle.exact_law(pg_pair(1e160, 1.0, 1.0), PowerScaling(2.0), 1e150)
     .tail(1e-149 * 1e150), 0.0),
    ("mode-inf-pi", lambda: pi_exact(ArrivalQuery(10**10, 5.0, 1e-300)), 0.0),
    ("exp-rounds-to-1", lambda: negbin_tail(1e-19, 1e-20, 1.0), -39.919352048084924),
    ("exp-rounds-to-1-pg", lambda: oracle.exact_law(pg_pair(1e20, 1e-19, 1.0), PowerScaling(1.5), 1.0)
     .tail(1.0), -39.919352048084924),
]


class TestLowerSumAnswers:
    """Every valid ``negbin_tail`` query returns an honest log, or a TwoscaleError."""

    @pytest.mark.parametrize("call,want", [case[1:] for case in _ONCE_RAISED],
                             ids=[case[0] for case in _ONCE_RAISED])
    def test_once_raised(self, call, want):
        res = call()
        assert res.log_probability == want and res.error.bound == 1e-15

    def test_rounded_exp_reads_the_exact_log(self):
        # log(1 - p**k) at 50 digits: the complement is ~4.6e-18, so exp(log
        # lower) rounds to 1.0 and the log is taken of -expm1(log lower).
        with mpmath.workdps(50):
            want = float(mpmath.log(1 - mpmath.mpf(1e-20) ** mpmath.mpf(1e-19)))
        assert negbin_tail(1e-19, 1e-20, 1.0).log_probability == want

    @pytest.mark.parametrize("argv,key", [
        (["oracle", "--poisson-gamma", "1e160", "1", "1", "--f", "2", "--n", "1e150",
          "--u", "1e-149"], "log_probability"),
        (["overdispersion", "--K", "10000000000", "--u-bar", "5", "--mu-bar", "1e-300"], "pi_exact"),
        (["oracle", "--poisson-gamma", "1e20", "1e-19", "1", "--f", "1.5", "--n", "1", "--u", "1"],
         "log_probability"),
    ], ids=["mode-inf-pg", "mode-inf-pi", "exp-rounds-to-1-pg"])
    def test_once_raised_exits_0(self, argv, key):
        proc = run_python("-m", "twoscale.cli", *argv, timeout=20.0)
        assert proc.returncode == 0, proc.stderr
        assert math.isfinite(json.loads(proc.stdout)[key])

    def test_subnormal_p(self):
        # The mean is +inf, yet log P(X >= 5) is not 0; k / (n p) overflows in
        # the deviance.  n p is itself subnormal, which costs ~4e-10 relative.
        k, p = 1e-11, 1e-320
        with mpmath.workdps(60):
            kp, pp = mpmath.mpf(k), mpmath.mpf(p)
            below = sum(mpmath.rf(kp, x) / mpmath.factorial(x) * (1 - pp) ** x for x in range(5))
            want = mpmath.log(1 - pp**kp * below)
        got = negbin_tail(k, p, 5).log_probability
        assert abs(got - float(want)) <= 1e-8 * abs(float(want))

    @staticmethod
    def _check(call):
        try:
            res = call()
        except TwoscaleError:
            return
        assert 0.0 <= res.probability <= 1.0
        assert not math.isnan(res.log_probability) and res.log_probability <= 0.0

    @settings(max_examples=150, deadline=None)
    @given(k=log_uniform(1e-20, 1e3), p=log_uniform(1e-300, 1e-3), data=st.data())
    def test_skewed_lower_branch(self, k, p, data):
        mean = k * (1.0 - p) / p
        threshold = data.draw(st.integers(0, int(min(mean, 50.0))))
        self._check(lambda: negbin_tail(k, p, threshold))

    @settings(max_examples=150, deadline=None)
    @given(k=log_uniform(1e-3, 1e6), p=st.floats(1e-3, 0.98), means=st.floats(0.0, 5.0))
    def test_moderate_p(self, k, p, means):
        threshold = min(means * k * (1.0 - p) / p, 1e6)
        self._check(lambda: negbin_tail(k, p, threshold))

    @settings(max_examples=150, deadline=None)
    @given(k=log_uniform(1e100, 1e308), p=log_uniform(1e-300, 0.98), threshold=st.floats(0.0, 1e6))
    def test_huge_k(self, k, p, threshold):
        self._check(lambda: negbin_tail(k, p, threshold))

    @settings(max_examples=150, deadline=None)
    @example(K=10**10, mu_bar=1e-300, u_bar=5.0)
    @given(K=st.integers(1, 10**10), mu_bar=log_uniform(1e-300, 1e3), u_bar=log_uniform(1e-3, 1e6))
    def test_pi_exact(self, K, mu_bar, u_bar):
        self._check(lambda: pi_exact(ArrivalQuery(K, u_bar, mu_bar)))


class TestTwistInSamplerDomain:
    def test_root_keeps_the_tilted_rates_positive(self):
        # The sampler takes solve_twist's root unchecked: its jets evaluated
        # B at alpha(theta) psi < mu (pg) and A at theta < mu (gp), the float
        # tests behind the sampler's own rate expressions.  u runs up to 1e6
        # a*b, so some roots lie within 1e-5 of the edge, and psi up to 1e12.
        rng = np.random.default_rng(20261020)
        psis, gaps = [], []
        for _ in range(300):
            lam, r, mu = (10.0 ** rng.uniform(-3.0, 3.0, size=3)).tolist()
            f = float(rng.uniform(0.1, 0.95) if rng.random() < 0.7 else rng.uniform(1.05, 1.9))
            log10_psi = float(rng.uniform(0.0, 12.0) if f < 1 else rng.uniform(-6.0, 0.0))
            n = 10.0 ** (log10_psi / (1.0 - f))
            scaling = PowerScaling(f)
            psi = scaling.psi(n)
            for pair in (pg_pair(lam, r, mu), gp_pair(r, mu, lam)):
                u = 10.0 ** float(rng.uniform(0.05, 6.0)) * pair.a * pair.b
                try:
                    theta = solve_twist(pair, scaling, n, u).theta_n
                except TwoscaleError:
                    continue
                psis.append(psi)
                if pair.A.kind == "poisson":
                    gaps.append((mu - lam * math.expm1(theta) * psi) / mu)
                else:
                    gaps.append((mu - theta) / mu)
        assert len(gaps) >= 400 and min(gaps) > 0
        assert 1e11 < max(psis) <= 1e12 and min(gaps) < 1e-5


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

    def test_zero_workers_are_refused(self, pg113):
        with pytest.raises(ParamError, match="workers must be >= 1, got 0"):
            is_tail(pg113, PowerScaling(1.5), 400.0, 0.48, samples=100, seed=1, workers=0)

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


#: ``negbin_tail`` bit for bit: label, (k, p, threshold), (probability,
#: log_probability, bound), recorded while the blocks were still summed by
#: scipy's logsumexp.  The labels name the walk a case takes; the "seeded"
#: ones were drawn once (k in 0.05..2e5 and p in 1e-4..0.999 log-uniform, the
#: threshold in 0..3 means, every fourth floored) and written down.
NEGBIN_GOLDEN = [
    ("upper-blocks", (5.0, 0.001, 7500.0),
     (0.13164291631148095, -2.027662201464443, 5.013041469134339e-18)),
    ("upper-k-below-1", (0.3, 0.0001, 20000.0),
     (0.022024170648720767, -3.815614762864513, 2.169047488384746e-17)),
    ("upper-flagship", (100000.0, 0.999000999000999, 150.0),
     (1.9082638950956033e-06, -13.169316684703563, 0.0)),
    ("upper-deep", (1000000.0, 0.9950248756218907, 10000.0),
     (0.0, -1923.8857294039694, 0.0)),
    ("upper-k-2e5", (200000.0, 0.999, 500.0),
     (1.0435478248954041e-70, -161.1383302318617, 0.0)),
    ("upper-scipy", (100.5, 0.2, 500.0),
     (0.019368417101674168, -3.9441115239693163, 8.169639327067466e-308)),
    ("upper-past-1e154", (1.0, 0.5, 1e+160),
     (0.0, -6.931471805599454e+159, 0.0)),
    ("lower-one-block", (50.0, 0.3, 100.0),
     (0.8054481662277538, -0.21635642824600732, 1e-15)),
    ("lower-k-below-1-up-blocks", (0.5, 1e-05, 40000.0),
     (0.3710936684999898, -0.9913007725001258, 1e-15)),
    ("lower-up-and-down-to-0", (2.0, 1e-05, 180000.0),
     (0.462832721479434, -0.7703895828788417, 1e-15)),
    ("lower-down-early-stop", (1000000.0, 0.3, 2300000.0),
     (1.0, -1.7581943763883015e-33, 1e-15)),
    ("lower-down-stop-1e5", (100000.0, 0.5, 99000.0),
     (0.9875092477099333, -0.012569417481156525, 1.000000000000993e-15)),
    ("lower-down-stop-1e7", (10000000.0, 0.5, 9999000.0),
     (0.5884705401244066, -0.5302284127966534, 1.0620721912223058e-15)),
    ("lower-k-2e5", (200000.0, 0.999, 150.0),
     (0.9999076412737322, -9.236299159753353e-05, 1e-15)),
    ("upper-just-past-mean", (1000.0, 0.9, 120.0),
     (0.22272347957793623, -1.5018242788531637, 0.0)),
    ("lower-x0-only", (3.0, 0.5, 2.0),
     (0.6874999999999998, -0.37469344944141103, 1e-15)),
    ("lower-x0-block", (5.0, 0.5, 3.0),
     (0.7734375, -0.2569104137850272, 1e-15)),
    ("lower-k-below-1-x0", (0.3, 0.2, 1.0),
     (0.3829661372799903, -0.9598087081228336, 1e-15)),
    ("lower-k-0.05", (0.05, 0.01, 3.0),
     (0.14591633870696824, -1.9247218440689817, 1e-15)),
    ("upper-mean-below-1", (3.2, 0.9, 2.0),
     (0.057785113867279275, -2.851024082023157, 0.0)),
    ("integral-lower", (7.5, 0.6, 3.0),
     (0.8026778811872863, -0.21980178974029152, 1e-15)),
    ("integral-upper", (5.0, 0.5, 8.0),
     (0.19384765624999997, -1.6406827054722082, 0.0)),
    ("fraction", (5.0, 0.5, 8.2),
     (0.13342285156250036, -2.0142318591027477, 0.0)),
    ("noise-absorbed", (5.0, 0.5, 8.0000000001),
     (0.19384765624999997, -1.6406827054722082, 0.0)),
    ("zero", (5.0, 0.4, 0.0),
     (1.0, 0.0, 0.0)),
    ("zero-k-1", (1.0, 0.5, 0.0),
     (1.0, 0.0, 0.0)),
    ("seeded-0", (155.251, 0.0220157, 17448.2),
     (2.7309881474866976e-42, -95.70391040325799, 7.067916829530643e-68)),
    ("seeded-1", (42842.6, 0.337569, 91982.7),
     (3.4002613592825285e-54, -123.11574272263351, 4.465175080151958e-119)),
    ("seeded-2", (91890.7, 0.00496723, 16908200.0),
     (1.0, -7.767607460693317e-142, 1e-15)),
    ("seeded-3", (0.210418, 0.0111299, 8.68338),
     (0.34323442143759825, -1.0693416208334963, 1e-15)),
    ("seeded-4", (3.23184, 0.0276743, 264.472),
     (0.027366600511163984, -3.5984319685700363, 1.2328143658857183e-49)),
    ("seeded-5", (4656.77, 0.000221603, 3859410.0),
     (1.0, -0.0, 1e-15)),
    ("seeded-6", (2.42062, 0.0161288, 371.0),
     (0.030334615090088994, -3.495465806308925, 9.903707396574792e-30)),
    ("seeded-7", (9631.39, 0.542743, 14333.0),
     (0.0, -959.7184025516838, 0.0)),
    ("seeded-8", (798.791, 0.0014713, 510433.0),
     (0.9527399238591208, -0.048413315133873557, 1.0359350198230549e-15)),
    ("seeded-9", (1.14556, 0.0138319, 148.792),
     (0.15718037084062006, -1.850361274209698, 4.0150533711806777e-26)),
    ("seeded-10", (304.243, 0.00369621, 104289.0),
     (5.979069827899763e-06, -12.027245549274403, 5.774295648042337e-23)),
    ("seeded-11", (2.18385, 0.182137, 17.0937),
     (0.1384180095794071, -1.9774771172455166, 0.0)),
    ("seeded-12", (4384.38, 0.176269, 17262.2),
     (1.0, -1.2174443806877195e-23, 1e-15)),
    ("seeded-13", (0.296215, 0.00135347, 594.839),
     (0.11120726560876136, -2.196359561091817, 4.2144456606541763e-17)),
    ("seeded-14", (8423.79, 0.00418495, 4669830.0),
     (0.0, -4069.2454644624386, 0.0)),
    ("seeded-15", (9.05033, 0.289224, 6.02288),
     (0.9886106808030123, -0.01145467419939027, 1e-15)),
]

#: ``pi_exact`` at the ten rows of ``reproduce_tables`` (Table 1, then Table 2),
#: (probability, log_probability, bound), recorded as above.
TABLE_PI_EXACT_GOLDEN = [
    (1.9082638950956033e-06, -13.169316684703563, 0.0),
    (1.9325684687213844e-06, -13.156660626984971, 0.0),
    (2.136286025267696e-06, -13.05644173887053, 0.0),
    (2.415301908559957e-06, -12.933686264776862, 0.0),
    (5.891139947870456e-06, -12.042061039490559, 0.0),
    (5.977870019114554e-06, -12.027446237544911, 5.717028335574392e-21),
    (6.195071962185294e-06, -11.991756426778675, 6.313124842507043e-23),
    (6.475466078363626e-06, -11.947489971754736, 7.606513922486646e-23),
    (9.105655387116434e-06, -11.606614866362973, 2.817090330058098e-56),
    (1.3523267539228267e-05, -11.211098834654239, 5.904854481999547e-120),
]


class TestNegbinBits:
    """The block step keeps ``negbin_tail``'s bits, and scipy's logsumexp stays its reference."""

    @pytest.mark.parametrize("args,want", [case[1:] for case in NEGBIN_GOLDEN],
                             ids=[case[0] for case in NEGBIN_GOLDEN])
    def test_negbin_tail(self, args, want):
        res = negbin_tail(*args)
        assert isinstance(res.error, RigorousBound) and res.method == "negbin_exact"
        assert repr((res.probability, res.log_probability, res.error.bound)) == repr(want)

    def test_table_rows(self):
        got = []
        for K, mu_bar, u_bar in TABLE1_PARAMS + TABLE2_PARAMS:
            res = pi_exact(ArrivalQuery(K, u_bar, mu_bar))
            got.append((res.probability, res.log_probability, res.error.bound))
        assert repr(got) == repr(TABLE_PI_EXACT_GOLDEN)

    @pytest.mark.parametrize("ties", [1, 2, 5])
    @pytest.mark.parametrize("spread", [1e-3, 1.0, 1e2, 1e4])
    @pytest.mark.parametrize("size", [1, 2, 4095, 4096])
    def test_block_sum_is_scipys_logsumexp(self, monkeypatch, size, spread, ties):
        # Synthetic finite blocks stand in for the log pmf: the step's sum and
        # its logaddexp onto a running total match scipy's to the last bit.
        rng = np.random.default_rng([size, round(math.log10(spread)) + 3, ties])
        for _ in range(10):
            lp = rng.uniform(-800.0, 50.0) - spread * rng.random(size)
            lp[rng.choice(size, min(ties, size), replace=False)] = lp.max()
            total = -math.inf if rng.random() < 0.5 else rng.uniform(-900.0, 60.0)
            monkeypatch.setattr(oracle, "_negbin_logpmf", lambda x, k, p: lp)
            got, block = oracle._negbin_block(total, 0, size, 1.0, 0.5)
            assert block is lp
            want = np.logaddexp(total, special.logsumexp(lp))
            assert float(got).hex() == float(want).hex()
