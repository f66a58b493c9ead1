"""Arrival-count approximations and the reference comparison tables."""

import json
import math
import random
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoscale import (
    ArrivalQuery,
    CharExponent,
    ModelPair,
    NotRareError,
    ParamError,
    PowerScaling,
    TwoscaleError,
    approx_fast,
    approx_slow,
    log_asymptote,
    pi_exact,
    pi_fast,
    pi_gamma,
    pi_hat_fast,
    pi_hat_slow,
    pi_pois,
    negbin_tail,
    pi_slow,
    reproduce_tables,
)
from twoscale.models import K_MAX
from twoscale.overdispersion import TABLE1_PARAMS, TABLE2_PARAMS, format_sig
from conftest import assert_displayed


class TestArrivalQuery:
    def test_rho(self):
        q = ArrivalQuery(100_000, 150.0, 1000.0)
        assert q.rho == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_positivity_validated(self):
        with pytest.raises(ParamError):
            ArrivalQuery(0, 10.0, 1.0)
        with pytest.raises(ParamError):
            ArrivalQuery(10, -1.0, 1.0)
        with pytest.raises(ParamError):
            ArrivalQuery(10, 1.0, 0.0)

    @pytest.mark.parametrize("args", [
        (math.nan, 10.0, 1.0), (10, math.nan, 1.0), (10, math.inf, 1.0), (10, 10.0, math.nan),
    ])
    def test_non_finite_rejected(self, args):
        with pytest.raises(ParamError):
            ArrivalQuery(*args)

    def test_non_rare_queries_still_have_exact_values(self):
        # the crude tails remain defined when rho >= 1; only the asymptotic
        # refinements refuse
        q = ArrivalQuery(10_000, 150.0, 1.0)  # rho = 66.7
        assert 0.0 <= pi_pois(q) <= 1.0
        assert 0.0 <= pi_gamma(q) <= 1.0
        with pytest.raises(NotRareError):
            pi_fast(q)
        with pytest.raises(NotRareError):
            pi_hat_slow(q)


class TestPointValues:
    def test_exact_values(self):
        assert_displayed(pi_exact(ArrivalQuery(100_000, 150.0, 1000.0)).probability, 1.90e-6)
        assert_displayed(pi_exact(ArrivalQuery(100, 150_000.0, 0.001)).probability, 5.98e-6)
        assert_displayed(pi_exact(ArrivalQuery(1_000, 150.0, 10.0)).probability, 5.89e-6)

    def test_pois_and_gamma_columns(self):
        assert_displayed(pi_pois(ArrivalQuery(100_000, 150.0, 1000.0)), 1.88e-6)
        # the Erlang column is constant in rho and K; it displays as 5.92e-6
        assert_displayed(pi_gamma(ArrivalQuery(100, 150_000.0, 0.001)), 5.92e-6)

    def test_fast_refinements(self):
        q = ArrivalQuery(100_000, 150.0, 1000.0)
        assert_displayed(pi_fast(q, M=1), 1.95e-6)
        assert_displayed(pi_fast(q, M=2), 1.97e-6)
        assert_displayed(pi_hat_fast(q), 2.00e-5)

    def test_slow_refinements(self):
        q = ArrivalQuery(100, 150_000.0, 0.001)
        assert_displayed(pi_slow(q, M=0), 6.26e-6)
        assert_displayed(pi_slow(q, M=1), 6.31e-6)
        assert_displayed(pi_hat_slow(q), 7.84e-5)

    def test_text_refinement_claims(self):
        # two terms beyond the empty sum reach 5.90e-6 on the hardest fast row
        assert_displayed(pi_fast(ArrivalQuery(1_000, 150.0, 10.0), M=3), 5.90e-6)
        assert_displayed(pi_slow(ArrivalQuery(100, 1_500.0, 0.1), M=2), 1.34e-5)

    def test_hat_factorization(self):
        q = ArrivalQuery(100_000, 150.0, 1000.0)
        rho = q.rho
        assert pi_fast(q, M=1) == pytest.approx(
            pi_hat_fast(q) / ((1.0 - rho) * math.sqrt(2.0 * math.pi * q.u_bar)), rel=1e-14
        )

    def test_pois_tends_to_one(self):
        assert pi_pois(ArrivalQuery(100_000, 150.0, 10.0)) == pytest.approx(1.0, abs=1e-12)


class TestThresholdCount:
    """pi_exact and pi_pois turn u_bar into a count by the oracles' one rule."""

    @pytest.mark.parametrize("fn", [pi_exact, pi_pois], ids=["exact", "pois"])
    def test_noise_above_an_integer_is_absorbed(self, fn):
        def value(u_bar):
            out = fn(ArrivalQuery(1_000, u_bar, 10.0))
            return getattr(out, "probability", out)

        assert value(150.0 + 1e-8) == value(150.0)
        assert value(150.0 + 1e-6) == value(151.0) < value(150.0)

    def test_exact_is_negbin_tail_at_u_bar(self):
        q = ArrivalQuery(1_000, 150.0 + 1e-8, 10.0)
        assert pi_exact(q) == negbin_tail(1_000, 10.0 / 11.0, q.u_bar)


class TestTruncationBehaviour:
    def test_adaptive_matches_large_M(self):
        # each refinement ladder converges in its own timescale direction
        q_fast = ArrivalQuery(1_000, 150.0, 10.0)
        assert pi_fast(q_fast) == pytest.approx(pi_fast(q_fast, M=40), rel=1e-11)
        q_slow = ArrivalQuery(100, 1_500.0, 0.1)
        assert pi_slow(q_slow) == pytest.approx(pi_slow(q_slow, M=40), rel=1e-11)

    def test_adaptive_truncates_diverging_ladder(self):
        # applying the fast ladder to strongly slow parameters must not blow
        # up in adaptive mode: it truncates at the smallest term
        q = ArrivalQuery(100, 150_000.0, 0.001)
        assert math.isfinite(pi_fast(q))

    def test_monotone_refinement_on_weakly_separated_rows(self):
        for K, mu_bar, u_bar in TABLE1_PARAMS[2:]:
            q = ArrivalQuery(K, u_bar, mu_bar)
            exact = pi_exact(q).probability
            errs = [abs(pi_fast(q, M=M) - exact) for M in (1, 2, 4)]
            assert errs[2] < errs[1] < errs[0]

    def test_m_validation(self):
        q = ArrivalQuery(1_000, 150.0, 10.0)
        with pytest.raises(ParamError):
            pi_fast(q, M=0)
        with pytest.raises(ParamError):
            pi_slow(q, M=-1)
        # an order past K_MAX is refused at once rather than summed term by term
        assert math.isfinite(pi_fast(q, M=K_MAX)) and math.isfinite(pi_slow(q, M=K_MAX))
        with pytest.raises(ParamError, match="1..50"):
            pi_fast(q, M=K_MAX + 1)
        with pytest.raises(ParamError, match="0..50"):
            pi_slow(q, M=10_000_000)

    def test_all_outputs_in_unit_interval(self):
        # every column of each table, plus the adaptive variants
        for K, mu_bar, u_bar in TABLE1_PARAMS:
            q = ArrivalQuery(K, u_bar, mu_bar)
            vals = [pi_exact(q).probability, pi_pois(q), pi_hat_fast(q),
                    pi_fast(q, M=1), pi_fast(q, M=2), pi_fast(q)]
            assert all(0.0 < v < 1.0 for v in vals)
        for K, mu_bar, u_bar in TABLE2_PARAMS:
            q = ArrivalQuery(K, u_bar, mu_bar)
            vals = [pi_exact(q).probability, pi_gamma(q), pi_hat_slow(q),
                    pi_slow(q, M=0), pi_slow(q, M=1), pi_slow(q)]
            assert all(0.0 < v < 1.0 for v in vals)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# Each of these exited 1 from the CLI or returned NaN in-process: (u_bar/K)**45
# overflows; mu_bar**41 in pi_slow overflows; the adaptive pi_fast overflows,
# and pi_exact warned from the Stirling correction; mu_bar * u_bar overflows,
# so rho reads 0.0; terms of both signs overflow and sum to NaN (twice).
_FLOAT_RANGE_CASES = (
    (1, 1e7, 1.0),
    (1_000_000, 1.0, 1e10),
    (1, 1e160, 1.0),
    (1, 1e294, 1e15),
    (16, 2.786173984806647e266, 900106541.0249811),
    (354656, 1.0986525118686742e56, 1.9224899846005004e181),
)


class TestFloatRange:
    def test_underflowing_rho_is_refused(self):
        q = ArrivalQuery(1, 1e294, 1e15)
        assert q.rho == 0.0
        for fn in (pi_hat_fast, pi_hat_slow, pi_fast, pi_slow):
            with pytest.raises(ParamError, match="underflows"):
                fn(q)

    @pytest.mark.parametrize("fn, case, M", [
        (pi_fast, 0, 45), (pi_slow, 1, 40), (pi_fast, 2, None), (pi_slow, 4, 30), (pi_fast, 5, 6),
    ])
    def test_sum_past_the_float_range_is_refused(self, fn, case, M):
        with pytest.raises(ParamError, match="float range"):
            fn(ArrivalQuery(*_FLOAT_RANGE_CASES[case]), M=M)

    def test_a_log_below_the_float_maximum_reads_finite(self):
        # Two terms of pi_fast at K = 1, u_bar = 41.67 put its log at ~709.5:
        # past 709 but below log(sys.float_info.max) ~ 709.78, so exp is finite.
        # At u_bar = 41.7 the log passes that maximum, and the value reads inf.
        assert 1e308 < pi_fast(ArrivalQuery(1, 41.67, 1.0), M=2) < math.inf
        assert pi_fast(ArrivalQuery(1, 41.7, 1.0), M=2) == math.inf

    @settings(max_examples=200, deadline=None)
    @given(
        K=_log_uniform(1.0, 1e6).map(int),
        u_bar=_log_uniform(1e-3, 1e300),
        mu_bar=_log_uniform(1e-3, 1e300),
    )
    @example(*_FLOAT_RANGE_CASES[0])
    @example(*_FLOAT_RANGE_CASES[1])
    @example(*_FLOAT_RANGE_CASES[2])
    @example(*_FLOAT_RANGE_CASES[3])
    @example(*_FLOAT_RANGE_CASES[4])
    @example(*_FLOAT_RANGE_CASES[5])
    def test_each_pi_is_a_number_or_a_twoscale_error(self, K, u_bar, mu_bar):
        q = ArrivalQuery(K, u_bar, mu_bar)
        calls = [pi_pois, pi_gamma, pi_hat_fast, pi_hat_slow, pi_fast, pi_slow]
        calls += [lambda q, M=M: pi_fast(q, M=M) for M in range(1, K_MAX + 1)]
        calls += [lambda q, M=M: pi_slow(q, M=M) for M in range(0, K_MAX + 1)]
        # Below the mean the exact sum's work grows with u_bar.
        if u_bar > K / mu_bar:
            calls.append(lambda q: pi_exact(q).log_probability)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                try:
                    value = call(q)
                except TwoscaleError:
                    continue
                assert isinstance(value, float) and not math.isnan(value), (call, q, value)


class TestScaleInvariance:
    @pytest.mark.parametrize("n", [10.0, 100.0, 1000.0])
    def test_fast_formula_matches_engine(self, n):
        # embed the query at an arbitrary scale n and evaluate the asymptotics
        # engine in series mode; the result must not depend on n.
        K, mu_bar, u_bar = 100_000, 1000.0, 150.0
        q = ArrivalQuery(K, u_bar, mu_bar)
        f = math.log(K) / math.log(n)
        u = u_bar / n
        mu = mu_bar * n ** (1.0 - f)
        model = ModelPair(CharExponent.poisson(1.0), CharExponent.gamma(1.0, mu))
        for M in (1, 2, 3):
            est = approx_fast(model, PowerScaling(f), n, u, mode="series", order=M, lattice=True)
            assert est.value == pytest.approx(pi_fast(q, M=M), rel=1e-10)

    @pytest.mark.parametrize("n", [1000.0, 20000.0, 100000.0])
    def test_slow_formula_matches_engine(self, n):
        # the slow embedding needs f = log K / log n < 1, i.e. n > K
        K, mu_bar, u_bar = 100, 0.1, 1500.0
        q = ArrivalQuery(K, u_bar, mu_bar)
        f = math.log(K) / math.log(n)
        u = u_bar / n
        mu = mu_bar * n ** (1.0 - f)
        model = ModelPair(CharExponent.poisson(1.0), CharExponent.gamma(1.0, mu))
        for M in (0, 1, 2):
            est = approx_slow(model, PowerScaling(f), n, u, mode="series", order=M, lattice=False)
            assert est.value == pytest.approx(pi_slow(q, M=M), rel=1e-10)


def _embedding_queries(regime: str) -> list[ArrivalQuery]:
    """The ten table rows, then 20 seeded queries where ``regime``'s series converges."""
    rows = [ArrivalQuery(K, u_bar, mu_bar) for K, mu_bar, u_bar in TABLE1_PARAMS + TABLE2_PARAMS]
    rng = random.Random(21)
    for _ in range(20):
        rho = rng.uniform(0.3, 0.9)
        if regime == "fast":  # 1/mu_bar and u_bar/K small, as in table 1
            K, u_bar = round(10 ** rng.uniform(3, 5)), 10 ** rng.uniform(1.5, 2.7)
            rows.append(ArrivalQuery(K, u_bar, K / (rho * u_bar)))
        else:  # mu_bar and K/u_bar small, as in table 2
            K, mu_bar = round(10 ** rng.uniform(1.3, 2.7)), 10 ** rng.uniform(-3, -1)
            rows.append(ArrivalQuery(K, K / (rho * mu_bar), mu_bar))
    return rows


class TestEmbedding:
    """The paper's application is the general code on pg(1, 1, mu_bar psi).

    With phi_n = K, n = K^(1/f) and u = u_bar / n, the Gamma clock scaled by
    psi_n is Gamma(K, mu_bar), so each formula of this module is an
    ``asymptotics`` call at any f of its regime.
    """

    @staticmethod
    def _embed(q, f):
        scaling = PowerScaling(f)
        n = q.K ** (1.0 / f)
        model = ModelPair(CharExponent.poisson(1.0), CharExponent.gamma(1.0, q.mu_bar * scaling.psi(n)))
        return model, scaling, n, q.u_bar / n

    @staticmethod
    def _same_log(value, log_value):
        # A value past the normal floats (0, subnormal or inf; a series used far
        # outside its regime) has lost its log's digits: there the general
        # path's log must lie past the same end of the range.
        if value < sys.float_info.min:
            assert log_value < math.log(sys.float_info.min) + 1e-9
        elif value == math.inf:
            assert log_value > math.log(sys.float_info.max)
        else:
            assert log_value == pytest.approx(math.log(value), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("q", _embedding_queries("fast"), ids=repr)
    @pytest.mark.parametrize("f", [1.5, 2.0, 3.0])
    def test_fast(self, q, f):
        model, scaling, n, u = self._embed(q, f)
        for M in range(1, 7):
            est = approx_fast(model, scaling, n, u, mode="series", order=M, lattice=True)
            self._same_log(pi_fast(q, M), est.log_value)
        self._same_log(pi_hat_fast(q), log_asymptote(model, scaling, u)[0] * n)

    @pytest.mark.parametrize("q", _embedding_queries("slow"), ids=repr)
    @pytest.mark.parametrize("f", [0.3, 0.5, 0.7])
    def test_slow(self, q, f):
        model, scaling, n, u = self._embed(q, f)
        for M in range(0, 7):
            self._same_log(pi_slow(q, M), approx_slow(model, scaling, n, u, mode="series", order=M).log_value)
        self._same_log(pi_hat_slow(q), log_asymptote(model, scaling, u)[1] * scaling.phi(n))


class TestTables:
    def test_shapes_and_params(self):
        t1, t2 = reproduce_tables()
        assert len(t1.rows) == 5 and len(t2.rows) == 5
        assert t1.columns[3:] == ("pi_exact", "pi_pois", "pi_hat_fast", "pi_fast_0", "pi_fast_1")
        assert t2.columns[3:] == ("pi_exact", "pi_gamma", "pi_hat_slow", "pi_slow_0", "pi_slow_1")
        # second slow row carries the corrected rate parameter
        assert t2.rows[1][1] == pytest.approx(0.005)

    def test_constant_columns_in_table1(self):
        t1, _ = reproduce_tables()
        for idx in (4, 5, 6):  # pi_pois, pi_hat_fast, pi_fast_0 depend only on rho, u_bar
            col = [row[idx] for row in t1.rows]
            assert max(col) - min(col) <= 1e-15 * max(col)

    def test_workers_validated(self):
        with pytest.raises(ParamError):
            reproduce_tables(workers=0)

    def test_workers_do_not_change_rows(self):
        t1a, t2a = reproduce_tables(workers=1)
        t1b, t2b = reproduce_tables(workers=3)
        assert t1a == t1b and t2a == t2b

    def test_csv_and_json_deterministic(self, tmp_path):
        t1, _ = reproduce_tables()
        c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
        t1.write_csv(c1)
        t1.write_csv(c2)
        assert c1.read_bytes() == c2.read_bytes()
        j1 = tmp_path / "a.json"
        t1.write_json(j1)
        payload = json.loads(j1.read_text())
        assert payload["columns"][0] == "K"
        assert len(payload["rows"]) == 5

    def test_csv_formats_three_significant_digits(self, tmp_path):
        t1, _ = reproduce_tables()
        text = t1.to_csv(sig=3)
        assert "1.95e-06" in text  # pi_fast_0 column
        assert "2.00e-05" in text  # pi_hat_fast column


class TestFormatting:
    def test_format_sig(self):
        assert format_sig(1.9082e-6, 3) == "1.91e-06"
        assert format_sig(0.0) == "0"
        assert format_sig(123.456, 4) == "1.235e+02"

    @pytest.mark.parametrize("sig", [0, -1])
    def test_sig_below_one_is_a_param_error(self, sig):
        with pytest.raises(ParamError, match="sig must be >= 1"):
            format_sig(1.5, sig)
        with pytest.raises(ParamError):
            format_sig(0.0, sig)
        t1, _ = reproduce_tables()
        with pytest.raises(ParamError):
            t1.to_csv(sig=sig)
