"""Command-line interface: output contracts, exit codes, determinism."""

import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twoscale import (
    PowerScaling,
    TwoscaleError,
    approx_fast,
    approx_single_timescale,
    approx_slow,
    classify,
)
from twoscale import cli
from twoscale.asymptotics import _approx
from twoscale.cli import main
from conftest import MALFORMED_MODELS, gp_pair, log_uniform, malformed_model, pg_pair, run_python


@pytest.fixture(autouse=True)
def _blas_threads_restored(monkeypatch):
    # main() sets OPENBLAS_NUM_THREADS for its process; each test here puts
    # this process's value back afterwards.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


@pytest.fixture
def pg_json(tmp_path):
    path = tmp_path / "pg.json"
    path.write_text(
        '{"A": {"kind": "poisson", "lambda": 1.0, "d": 1.0},'
        ' "B": {"kind": "gamma", "r": 1.0, "mu": 2.0}, "f": 1.5}'
    )
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestApprox:
    def test_direct_json(self, capsys, pg_json):
        code, out, err = run(
            capsys, ["approx", "--model", pg_json, "--n", "10000", "--u", "1", "--mode", "direct"]
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["regime"] == "fast"
        assert payload["mode"] == "direct"
        assert payload["lattice_adjusted"] is True  # Poisson outer process
        assert payload["value"] == 0.0  # deep tail underflows; log stays finite
        assert payload["log_value"] < -1900

    def test_model_file_takes_f_from_the_command_line(self, capsys, tmp_path):
        spec = tmp_path / "pg.json"
        spec.write_text('{"A": {"kind": "poisson", "lambda": 1.0},'
                        ' "B": {"kind": "gamma", "r": 1.0, "mu": 3.0}, "f": 1.5}')
        query = ["--n", "400", "--u", "1"]
        outs = [
            run(capsys, ["approx", *source, *query])
            for source in (["--model", str(spec), "--f", "0.6"],
                           ["--poisson-gamma", "1", "1", "3", "--f", "0.6"],
                           ["--model", str(spec)])
        ]
        assert [code for code, _, _ in outs] == [0, 0, 0]
        overridden, inline, own = (out for _, out, _ in outs)
        assert overridden == inline != own

    def test_not_rare_exits_2(self, capsys, pg_json):
        code, out, err = run(capsys, ["approx", "--model", pg_json, "--n", "10000", "--u", "0.1"])
        assert code == 2
        assert "NotRareError" in err

    def test_series_term_listing(self, capsys, pg_json):
        code, out, _ = run(
            capsys,
            ["approx", "--model", pg_json, "--n", "10000", "--u", "1",
             "--mode", "series", "--M", "3"],
        )
        assert code == 0
        payload = json.loads(out)
        labels = [t[0] for t in payload["exponent_terms"]]
        assert labels == ["linear", "k=2", "k=3"]

    def test_inline_model_requires_f(self, capsys):
        code, _, err = run(
            capsys, ["approx", "--poisson-gamma", "1", "1", "2", "--n", "100", "--u", "1"]
        )
        assert code == 2
        assert "ParamError" in err

    def test_single_timescale_route(self, capsys):
        code, out, _ = run(
            capsys,
            ["approx", "--poisson-gamma", "1", "1", "3", "--f", "1", "--n", "50", "--u", "1"],
        )
        assert code == 0
        assert json.loads(out)["regime"] == "single"

    @pytest.mark.parametrize("n", ["nan", "inf", "0", "-3"])
    @pytest.mark.parametrize("f", ["1.5", "0.6", "1"])
    def test_non_finite_n_exits_2(self, capsys, f, n):
        code, out, err = run(
            capsys, ["approx", "--poisson-gamma", "1", "1", "3", "--f", f, "--n", n, "--u", "1"]
        )
        assert code == 2
        assert out == ""
        assert "ParamError" in err

    def test_single_not_rare_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            ["approx", "--poisson-gamma", "1", "1", "3", "--f", "1", "--n", "10", "--u", "0.1"],
        )
        assert code == 2
        assert out == ""
        assert "NotRareError" in err

    # theta* (tau* for the Gamma outer process) puts the Poisson exponent
    # near 690, so the doubling search for its upper bracket reaches a point
    # where that exponent overflows.  The overflow reads as g = +inf, and
    # the twist then finds no root in floats.
    @pytest.mark.parametrize("pair", [
        ["--poisson-gamma", "1", "1", "3", "--f", "1.5"],
        ["--gamma-poisson", "1", "2", "1", "--f", "0.6"],
        ["--poisson-gamma", "1", "1", "3", "--f", "1.0"],
    ], ids=["pg-fast", "gp-slow", "pg-single"])
    def test_huge_u_exits_2(self, capsys, pair):
        code, out, err = run(capsys, ["approx", *pair, "--n", "400", "--u", "1e300"])
        assert code == 2
        assert out == ""
        assert "NoSolutionError" in err

    # A rate of 1e-170 puts the Gamma exponent's x ** 2 = (mu - t) ** 2 below
    # the float range, and with it its second derivative: that order reads
    # +inf, and the query ends in a result or a TwoscaleError, not a bare
    # ZeroDivisionError or OverflowError.
    @pytest.mark.parametrize("argv", [
        ["--poisson-gamma", "1", "1", "1e-170", "--f", "1.5"],
        ["--poisson-gamma", "1", "1", "1e-170", "--f", "0.5"],
        ["--gamma-poisson", "1", "1e-170", "1", "--f", "1.5"],
        ["--poisson-gamma", "1", "1", "1e-170", "--f", "1.5", "--mode", "series"],
    ], ids=["pg-fast", "pg-slow", "gp-fast", "pg-fast-series"])
    def test_tiny_rate_exits_0_or_2(self, capsys, argv):
        code, out, err = run(capsys, ["approx", *argv, "--n", "100", "--u", "2e170"])
        assert code in (0, 2), err
        assert "InternalError" not in err
        if code == 0:
            assert math.isfinite(json.loads(out)["log_value"])

    # A Gamma clock of rate 1e200: (rate - t) ** 2 overflows while the
    # derivative it divides into underflows to 0.
    @pytest.mark.parametrize("argv", [
        ["approx", "--f", "1.2"],
        ["approx", "--f", "0.6"],
        ["approx", "--f", "1.0"],
        ["edgeworth", "--f", "1.2"],
        ["edgeworth", "--f", "0.6"],
    ], ids=["approx-fast", "approx-slow", "approx-single", "edgeworth-fast", "edgeworth-slow"])
    def test_huge_rate_exits_0_or_2(self, capsys, argv):
        code, _, err = run(
            capsys, [*argv, "--poisson-gamma", "1", "1", "1e200", "--n", "100", "--u", "2e-200"]
        )
        assert code in (0, 2), err
        assert "InternalError" not in err

    def test_series_terms_summing_to_nan_exit_2(self, capsys):
        # Series terms k = 1..5 alternate +inf and -inf.
        code, out, err = run(capsys, [
            "approx", "--gamma-poisson", "0.2155035111055345", "0.0030290654082589445",
            "0.10516250246000786", "--f", "0.843190901733804", "--n", "12709090.104544785",
            "--u", "4.199552369615465e+299", "--mode", "series",
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("ParamError")

    def test_missing_required_flag_exits_2(self, pg_json, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["approx", "--model", pg_json, "--n", "100"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("f", ["1.5", "0.5", "1"])
    @pytest.mark.parametrize("mode", [[], ["--mode", "direct"]], ids=["default", "direct"])
    def test_order_without_series_mode_exits_2(self, capsys, f, mode):
        # --M is a series order, which direct mode has no use for
        argv = ["approx", "--poisson-gamma", "1", "1", "3", "--f", f, "--n", "400", "--u", "1"]
        code, out, err = run(capsys, [*argv, *mode, "--M", "3"])
        assert code == 2 and out == ""
        assert err.startswith("OrderError: a series order needs mode 'series'")

    def test_slow_regime_lattice_auto_off(self, capsys):
        # slow regime keys the lattice factor off B; a Gamma clock has none
        code, out, _ = run(
            capsys,
            ["approx", "--poisson-gamma", "1", "1", "2", "--f", "0.5", "--n", "400", "--u", "1"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "slow"
        assert payload["lattice_adjusted"] is False


class TestLatticeAuto:
    """``--lattice auto`` is ``_approx``'s rule: A's span when fast, B's when slow, off at f = 1."""

    RULE = {("pg", "fast"): True, ("pg", "slow"): False, ("pg", "single"): False,
            ("gp", "fast"): False, ("gp", "slow"): True, ("gp", "single"): False}
    F = {"fast": 1.5, "slow": 0.6, "single": 1.0}

    @pytest.mark.parametrize("kind,regime", sorted(RULE))
    def test_cli_prints_the_rule(self, capsys, kind, regime):
        gp = kind == "gp"
        params = (1.0, 2.0, 1.0) if gp else (1.0, 1.0, 3.0)
        model = (gp_pair if gp else pg_pair)(*params)
        scaling = PowerScaling(self.F[regime])
        want = _approx(regime, model, scaling, 400.0, 1.0, "direct", None, self.RULE[kind, regime])
        code, out, err = run(capsys, ["approx", *_model_argv(gp, params, self.F[regime]),
                                      "--n", "400", "--u", "1", "--lattice", "auto"])
        assert code == 0, err
        assert out == json.dumps(cli._estimate_payload(want, regime), indent=2, sort_keys=True) + "\n"
        assert json.loads(out)["lattice_adjusted"] is self.RULE[kind, regime]

    @pytest.mark.parametrize("kind,regime", sorted(RULE))
    @pytest.mark.parametrize("mode", ["direct", "series"])
    def test_none_resolves_to_a_bool(self, kind, regime, mode):
        model = gp_pair(1.0, 2.0, 1.0) if kind == "gp" else pg_pair(1.0, 1.0, 3.0)
        est = _approx(regime, model, PowerScaling(self.F[regime]), 400.0, 1.0, mode, None, None)
        assert est.lattice_adjusted is self.RULE[kind, regime]


class TestSingleTimescaleFlags:
    """At f = 1, --lattice on and --mode series act or exit 2; --lattice auto stays off."""

    PG = ["approx", "--poisson-gamma", "1", "1", "3", "--f", "1", "--n", "100", "--u", "1"]

    def test_defaults_unchanged(self, capsys):
        code, out, err = run(capsys, self.PG)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["lattice_adjusted"] is False and payload["mode"] == "direct"
        assert payload["series_order"] is None and len(payload["exponent_terms"]) == 1

    def test_series_is_order_0_with_the_direct_terms(self, capsys):
        _, direct, _ = run(capsys, self.PG)
        code, out, err = run(capsys, self.PG + ["--mode", "series"])
        assert code == 0, err
        payload = json.loads(out)
        assert payload["mode"] == "series" and payload["series_order"] == 0
        assert payload["exponent_terms"] == json.loads(direct)["exponent_terms"]

    def test_series_order_1_exits_2(self, capsys):
        code, out, err = run(capsys, self.PG + ["--mode", "series", "--M", "1"])
        assert code == 2 and out == ""
        assert err.startswith("OrderError")

    def test_lattice_on_series(self, capsys):
        code, out, err = run(capsys, self.PG + ["--lattice", "on", "--mode", "series"])
        assert code == 0, err
        payload = json.loads(out)
        assert payload["lattice_adjusted"] is True and payload["mode"] == "series"
        assert payload["regime"] == "single"

    def test_lattice_on_gamma_outer_exits_2(self, capsys):
        code, out, err = run(capsys, ["approx", "--gamma-poisson", "1", "2", "1", "--f", "1", "--n", "100",
                                      "--u", "1", "--lattice", "on"])
        assert code == 2 and out == ""
        assert err.startswith("LatticeError")


def _model_argv(gp: bool, params, f: float) -> list[str]:
    return ["--gamma-poisson" if gp else "--poisson-gamma", *map(repr, params), "--f", repr(f)]


@settings(max_examples=150, deadline=None)
@given(
    gp=st.booleans(),
    params=st.tuples(*[log_uniform(1e-3, 1e3)] * 3),
    # Near f = 1 series mode's default order passes K_MAX, which it refuses.
    f=st.one_of(st.just(1.0), st.floats(0.05, 4.0)),
    n=log_uniform(1.0, 1e12),
    u=log_uniform(1e-4, 1e4),
    lattice=st.booleans(),
    mode=st.sampled_from(["direct", "series"]),
)
def test_approx_is_finite_or_a_twoscale_error(gp, params, f, n, u, lattice, mode):
    # every approximant returns a finite log_value or raises TwoscaleError,
    # and the CLI exits 0 or 2, never 1
    model = (gp_pair if gp else pg_pair)(*params)
    scaling = PowerScaling(f)
    regime = classify(scaling).regime
    if regime == "single":
        calls = [lambda: approx_single_timescale(model, n, u)]
        calls += [lambda m=m: _approx("single", model, scaling, n, u, m, None, lattice) for m in ("direct", "series")]
    else:
        fn = approx_fast if regime == "fast" else approx_slow
        calls = [
            lambda m=m: fn(model, scaling, n, u, mode=m, lattice=lattice) for m in ("direct", "series")
        ]
    for call in calls:
        try:
            est = call()
        except TwoscaleError:
            continue
        assert math.isfinite(est.log_value), est
    argv = ["approx", *_model_argv(gp, params, f), "--n", repr(n), "--u", repr(u), "--mode", mode,
            "--lattice", "on" if lattice else "off"]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code == 0:
        assert math.isfinite(json.loads(out.getvalue())["log_value"]), argv


def _count_mean(gp: bool, params, f: float, n: float) -> float:
    """Mean ``lam phi_n`` of a gamma_poisson pair's jump count, 0 for poisson_gamma.

    The exact compound tail sums O(sqrt(mean)) terms: ~0.2 s at 1e9.
    """
    return params[2] * n**f if gp else 0.0


def _tilted_count_mean(gp: bool, params, f: float, n: float, u: float) -> float:
    """Bound ``u n mu / (r psi_n)`` on the jump count's mean under the tilt, 0 for poisson_gamma.

    The tilted sum has mean ``u n`` and its jumps ``r psi_n / (mu - theta_n)``, theta_n > 0.
    The Edgeworth diagnostic's exact CDF sums O(sqrt(mean)) terms per point.
    """
    return u * n * params[1] / (params[0] * n ** (1.0 - f)) if gp else 0.0


def _exit_code(argv) -> int:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    return code


_MODEL = dict(
    gp=st.booleans(),
    params=st.tuples(*[log_uniform(1e-3, 1e3)] * 3),
    u=log_uniform(1e-4, 1e4),
)
# --sig below 1 and a negative --seed are bad input: exit 2.
_OUTPUT = dict(fmt=st.sampled_from(["json", "text", "csv"]), sig=st.integers(-2, 12))


@settings(max_examples=60, deadline=None)
@given(
    **_MODEL, **_OUTPUT,
    f=st.one_of(st.just(1.0), st.floats(0.05, 4.0)),
    n=log_uniform(1.0, 1e5),
    method=st.sampled_from(["exact", "is", "mc"]),
    samples=st.integers(0, 2_000),
    seed=st.integers(-5, 2**32),
    workers=st.integers(0, 3),
)
def test_oracle_exits_0_or_2(gp, params, f, u, fmt, sig, n, method, samples, seed, workers):
    assume(method != "exact" or _count_mean(gp, params, f, n) <= 1e9)
    # The Monte Carlo flags go to is and mc only: exact refuses them.
    sampling = [] if method == "exact" else ["--samples", str(samples), "--seed", str(seed),
                                             "--workers", str(workers)]
    _exit_code(["oracle", *_model_argv(gp, params, f), "--n", repr(n), "--u", repr(u),
                "--method", method, *sampling, "--format", fmt, "--sig", str(sig)])


# f = 1 is a RegimeError here, so it is not drawn on purpose.
@settings(max_examples=40, deadline=None)
@given(**_MODEL, **_OUTPUT, f=st.floats(0.05, 4.0), n=log_uniform(1.0, 1e5), points=st.integers(-1, 100))
def test_edgeworth_exits_0_or_2(gp, params, f, u, fmt, sig, n, points):
    assume(_tilted_count_mean(gp, params, f, n, u) <= 1e6)
    _exit_code(["edgeworth", *_model_argv(gp, params, f), "--n", repr(n), "--u", repr(u),
                "--points", str(points), "--format", fmt, "--sig", str(sig)])


@settings(max_examples=60, deadline=None)
@given(
    **_OUTPUT,
    K=log_uniform(1.0, 1e6).map(int),
    u_bar=log_uniform(1e-2, 1e7),
    mu_bar=log_uniform(1e-3, 1e4),
    M_fast=st.none() | st.integers(-2, 60),
    M_slow=st.none() | st.integers(-2, 60),
)
# Each exited 1: (u_bar/K)**45 overflows, so does mu_bar**41, and so does the
# adaptive pi_fast; mu_bar * u_bar overflows, so rho reads 0.0.
@example(fmt="json", sig=6, K=1, u_bar=1e7, mu_bar=1.0, M_fast=45, M_slow=None)
@example(fmt="json", sig=6, K=1_000_000, u_bar=1.0, mu_bar=1e10, M_fast=None, M_slow=40)
@example(fmt="json", sig=6, K=1, u_bar=1e160, mu_bar=1.0, M_fast=None, M_slow=None)
@example(fmt="json", sig=6, K=1, u_bar=1e294, mu_bar=1e15, M_fast=None, M_slow=None)
def test_overdispersion_exits_0_or_2(fmt, sig, K, u_bar, mu_bar, M_fast, M_slow):
    argv = ["overdispersion", "--K", str(K), "--u-bar", repr(u_bar), "--mu-bar", repr(mu_bar),
            "--format", fmt, "--sig", str(sig)]
    for flag, M in (("--M-fast", M_fast), ("--M-slow", M_slow)):
        if M is not None:
            argv += [flag, str(M)]
    _exit_code(argv)


@settings(max_examples=10, deadline=None)
@given(sig=st.integers(-2, 12))
def test_tables_exits_0_or_2(tmp_path_factory, sig):
    out_dir = tmp_path_factory.mktemp("tables")
    assert _exit_code(["tables", "--sig", str(sig), "--out-dir", str(out_dir)]) == (0 if sig >= 1 else 2)


class TestOracle:
    def test_exact_negbin(self, capsys, pg_json):
        code, out, _ = run(
            capsys, ["oracle", "--model", pg_json, "--n", "400", "--u", "0.48", "--method", "exact"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "negbin_exact"
        assert 0 < payload["probability"] < 1
        assert "rigorous_bound" in payload

    def test_is_requires_seed(self, capsys, pg_json):
        code, _, err = run(
            capsys,
            ["oracle", "--model", pg_json, "--n", "400", "--u", "0.7",
             "--method", "is", "--samples", "1000"],
        )
        assert code == 2
        assert "ParamError" in err

    def test_is_requires_samples(self, capsys, pg_json):
        code, _, err = run(
            capsys,
            ["oracle", "--model", pg_json, "--n", "400", "--u", "0.7", "--method", "is", "--seed", "7"],
        )
        assert code == 2
        assert "ParamError: --samples is required for method 'is'" in err

    @pytest.mark.parametrize("method,samples", [("is", "1"), ("mc", "0")])
    def test_fewer_than_two_samples_exits_2(self, capsys, pg_json, method, samples):
        code, out, err = run(
            capsys,
            ["oracle", "--model", pg_json, "--n", "400", "--u", "0.7",
             "--method", method, "--samples", samples, "--seed", "1"],
        )
        assert code == 2 and out == ""
        assert err.startswith(f"ParamError: samples must be >= 2, got {samples}")

    def test_is_reports_statistics(self, capsys, pg_json):
        code, out, _ = run(
            capsys,
            ["oracle", "--model", pg_json, "--n", "400", "--u", "0.7",
             "--method", "is", "--samples", "2000", "--seed", "7"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "importance_sampling"
        assert payload["samples"] == 2000 and payload["seed"] == 7
        assert payload["std_error"] > 0
        assert payload["estimate"] == payload["probability"]

    def test_seed_determinism_byte_identical(self, tmp_path, capsys, pg_json):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            code, _, _ = run(
                capsys,
                ["oracle", "--model", pg_json, "--n", "400", "--u", "0.7", "--method", "is",
                 "--samples", "2000", "--seed", "42", "--out", str(out)],
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    # stdout of `oracle --method exact`, recorded before the exact oracle was
    # reached through the law's own tail
    EXACT_STDOUT = {
        "pg": '{\n  "log_probability": -13.527412823683777,\n  "method": "negbin_exact",\n'
              '  "probability": 1.3338876643040859e-06,\n  "rigorous_bound": 0.0\n}\n',
        "gp": '{\n  "log_probability": -12.02676001956109,\n  "method": "compound_series",\n'
              '  "probability": 5.981973548823535e-06,\n  "rigorous_bound": 0.0\n}\n',
    }

    @pytest.mark.parametrize("kind", ["pg", "gp"])
    def test_exact_stdout_bit_identical(self, capsys, kind):
        model = (["--poisson-gamma", "1", "1", "3", "--u", "0.48"] if kind == "pg"
                 else ["--gamma-poisson", "1", "2", "1", "--u", "0.62"])
        code, out, _ = run(capsys, ["oracle", *model, "--f", "1.5", "--n", "400"])
        assert code == 0
        assert out == self.EXACT_STDOUT[kind]

    def test_exact_counts_the_sampled_event(self, capsys, pg113):
        # u n = 500000.00001 lies within float noise of the count 500000: the
        # exact oracle and is_tail's indicator both count from there
        from twoscale import PowerScaling, exact_law, negbin_tail

        u, n = 0.50000000001, 1e6
        code, out, _ = run(capsys, ["oracle", "--poisson-gamma", "1", "1", "3", "--f", "1.5",
                                    "--n", "1e6", "--u", "0.50000000001"])
        law = exact_law(pg113, PowerScaling(1.5), n)
        want = negbin_tail(law.successes, law.p, u * n).log_probability
        assert code == 0 and json.loads(out)["log_probability"] == want
        assert want == negbin_tail(law.successes, law.p, 500000).log_probability

    # stdout of `oracle --method is` and `--method mc`, recorded before the
    # payload took the bound's fields from the record itself and --workers
    # defaulted to None (the is case passes no --workers: it reads 1)
    MONTE_CARLO_STDOUT = {
        "is": '{\n  "estimate": 1.9880706170981774e-75,\n  "log_probability": -172.00671734527077,\n'
              '  "method": "importance_sampling",\n  "probability": 1.9880706170981774e-75,\n'
              '  "samples": 2000,\n  "seed": 7,\n  "std_error": 2.189814664269276e-76\n}\n',
        "mc": '{\n  "estimate": 0.001,\n  "log_probability": -6.907755278982137,\n  "method": "plain_mc",\n'
              '  "probability": 0.001,\n  "samples": 2000,\n  "seed": 7,\n'
              '  "std_error": 0.0007069298939339521\n}\n',
    }

    @pytest.mark.parametrize("method", ["is", "mc"])
    def test_monte_carlo_stdout_bit_identical(self, capsys, method):
        query = (["--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "400", "--u", "1"] if method == "is"
                 else ["--gamma-poisson", "1", "2", "1", "--f", "0.6", "--n", "300", "--u", "0.8", "--workers", "2"])
        code, out, err = run(capsys, ["oracle", *query, "--method", method, "--samples", "2000", "--seed", "7"])
        assert code == 0, err
        assert out == self.MONTE_CARLO_STDOUT[method]

    @pytest.mark.parametrize("flag,value", [("samples", "5"), ("seed", "1"), ("workers", "3")])
    def test_exact_refuses_monte_carlo_flags(self, capsys, flag, value):
        # each flag was dropped, and the exact tail printed with exit 0
        code, out, err = run(capsys, ["oracle", "--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "400",
                                      "--u", "1", f"--{flag}", value])
        assert code == 2 and out == ""
        assert err == f"ParamError: --{flag} applies to methods 'is' and 'mc', not 'exact'\n"

    def test_threads_env_is_not_read(self, capsys, pg_json, monkeypatch):
        argv = ["oracle", "--model", pg_json, "--n", "400", "--u", "0.7",
                "--method", "is", "--samples", "2001", "--seed", "9"]
        _, plain, _ = run(capsys, argv)
        monkeypatch.setenv("TAILSCALE_THREADS", "zero")
        code, out, _ = run(capsys, argv)
        assert code == 0 and out == plain


class TestTables:
    def test_writes_csv_and_sidecars(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["tables", "--out-dir", str(tmp_path)])
        assert code == 0
        t1 = (tmp_path / "table1.csv").read_text().strip().splitlines()
        assert len(t1) == 6  # header + 5 rows
        sidecar = json.loads((tmp_path / "table1.json").read_text())
        assert len(sidecar["rows"]) == 5
        t2 = (tmp_path / "table2.csv").read_text().strip().splitlines()
        assert len(t2) == 6
        assert "1.95e-06" in t1[1]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for d in (d1, d2):
            assert run(capsys, ["tables", "--out-dir", str(d)])[0] == 0
        for stem in ("table1.csv", "table1.json", "table2.csv", "table2.json"):
            assert (d1 / stem).read_bytes() == (d2 / stem).read_bytes()

    def test_workers_flag_is_gone(self, tmp_path, capsys):
        # The rows are computed one after another; the library keeps its
        # ``workers`` parameter, the command takes no such flag.
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--out-dir", str(tmp_path), "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestEdgeworth:
    def test_sup_gap_small_at_scale(self, capsys, tmp_path):
        spec = tmp_path / "m.json"
        spec.write_text(
            '{"A": {"kind": "poisson", "lambda": 1.0}, "B": {"kind": "gamma", "r": 1.0, "mu": 2.0}, "f": 2.5}'
        )
        code, out, _ = run(
            capsys,
            ["edgeworth", "--model", str(spec), "--n", "10000", "--u", "1", "--points", "101"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sup_gap"] is not None
        assert payload["sup_gap"] < 0.05
        assert all("exact" in row for row in payload["rows"])

    def test_csv_output(self, capsys, tmp_path):
        spec = tmp_path / "m.json"
        spec.write_text(
            '{"A": {"kind": "gamma", "r": 1.0, "mu": 2.0}, "B": {"kind": "poisson", "lambda": 1.0}, "f": 1.5}'
        )
        code, out, _ = run(
            capsys,
            ["edgeworth", "--model", str(spec), "--n", "200", "--u", "0.7",
             "--points", "11", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,approx,exact,gap"
        assert len(lines) == 12

    EDGE = ["edgeworth", "--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "400", "--u", "100"]

    def test_lower_edge_beyond_float_range_clamps_at_zero(self, capsys):
        # x_min * scale overflows to -inf; the lattice starts at count 0.
        code, out, err = run(capsys, self.EDGE + ["--x-min=-1e308"])
        assert code == 0, err
        rows = json.loads(out)["rows"]
        assert len(rows) == 49
        code, out, _ = run(capsys, self.EDGE + ["--x-min=-1e300", "--points", "49"])
        assert code == 0
        assert json.loads(out)["rows"][0]["x"] == rows[0]["x"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        EDGE,
        ["edgeworth", "--gamma-poisson", "1", "2", "1", "--f", "0.6", "--n", "300", "--u", "1.5"],
    ], ids=["lattice", "continuous"])
    def test_upper_edge_far_beyond_the_density_stays_finite(self, capsys, argv):
        # Past |x| ~ 1.3e154, x * x overflows; the rows must still be numbers.
        code, out, err = run(capsys, argv + ["--x-max=1e300"])
        assert code == 0, err
        payload = json.loads(out)
        assert math.isfinite(payload["sup_gap"])
        assert all(math.isfinite(v) for row in payload["rows"] for v in row.values())
        assert payload["rows"][-1]["approx"] == 1.0

    def test_compound_diagnostic_past_the_cap_exits_2(self, capsys):
        # Each of the 90 points sums the tilted law's whole Poisson window of
        # 108,865 terms; this ran for ~14 s and exited 0.
        code, out, err = run(capsys, [
            "edgeworth", "--gamma-poisson", "8.393457483889447", "0.8040984332050694",
            "0.0767200686150629", "--f", "0.978741272765523", "--n", "64566.66928367825",
            "--u", "9407.564527101838", "--points", "90"])
        assert code == 2 and out == ""
        assert err.startswith("ParamError: the exact sum reached 9797850 terms, past the cap of 2000000")

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        # The compound law's CDF takes a dot product of ~1e5 weights here,
        # which OpenBLAS splits across its threads, moving the last bits.
        argv = ["-m", "twoscale.cli", "edgeworth", "--gamma-poisson", "1", "1", "1", "--f", "1.5",
                "--n", "1e5", "--u", "2", "--points", "3"]
        unset = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        outs = set()
        for env in (unset, {**unset, "OPENBLAS_NUM_THREADS": "2"},
                    {**unset, "OPENBLAS_NUM_THREADS": "1"}):
            proc = run_python(*argv, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1

    @pytest.mark.parametrize("edges", [
        ["--x-max=1e308"], ["--x-max=-1e308"], ["--x-min=3", "--x-max=-3"], ["--points", "0"],
    ], ids=["upper-inf", "upper-minus-inf", "empty-grid", "no-points"])
    def test_bad_grid_exits_2(self, capsys, edges):
        code, out, err = run(capsys, self.EDGE + edges)
        assert code == 2, err
        assert out == ""
        assert "ParamError" in err


class TestOverdispersion:
    def test_full_payload(self, capsys):
        code, out, _ = run(
            capsys, ["overdispersion", "--K", "100000", "--u-bar", "150", "--mu-bar", "1000"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rho"] == pytest.approx(2.0 / 3.0)
        for key in ("pi_exact", "pi_pois", "pi_gamma", "pi_hat_fast", "pi_fast", "pi_slow"):
            assert key in payload

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys,
            ["overdispersion", "--K", "1000", "--u-bar", "150", "--mu-bar", "10",
             "--format", "text", "--sig", "3"],
        )
        assert code == 0
        assert "pi_exact: 5.89e-06" in out

    def test_bad_query_exits_2(self, capsys):
        code, _, err = run(capsys, ["overdispersion", "--K", "0", "--u-bar", "1", "--mu-bar", "1"])
        assert code == 2 and "ParamError" in err

    @pytest.mark.parametrize("flag", ["--M-fast", "--M-slow"])
    def test_refinement_order_when_not_rare_exits_2(self, capsys, flag):
        # rho = 2: the refinements do not apply, and the order was dropped with exit 0
        code, out, err = run(capsys, ["overdispersion", "--K", "100", "--u-bar", "50", "--mu-bar", "1", flag, "3"])
        assert code == 2 and out == ""
        assert err.startswith("NotRareError: rho = K/(mu_bar*u_bar) = 2.0 must be < 1")

    def test_subnormal_mu_bar(self, capsys):
        # n p is subnormal, so the deviance's k / (n p) overflowed and the pmf read log 0.
        code, out, err = run(capsys, ["overdispersion", "--K", "3", "--u-bar", "5", "--mu-bar", "1e-320"])
        assert code == 0, err
        assert json.loads(out)["pi_exact"] == 1.0

    def test_exact_sum_past_the_cap_exits_2(self, capsys):
        # The count's mean is 1e300, so the lower walk would sum all 1e9 counts
        # below u_bar up from the mode at 0: it did not finish within 20 s.
        code, out, err = run(capsys, ["overdispersion", "--K", "1", "--u-bar", "1e9", "--mu-bar", "1e-300"])
        assert code == 2 and out == ""
        assert err.startswith("ParamError: the exact sum reached 2002944 terms, past the cap of 2000000")


class TestErrorSurface:
    def test_malformed_model_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, ["approx", "--model", str(bad), "--n", "10", "--u", "1"])
        assert code == 2 and "ParamError" in err

    def test_unknown_kind(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"A": {"kind": "weird"}, "B": {"kind": "gamma", "r": 1, "mu": 2}, "f": 1.5}')
        code, _, err = run(capsys, ["approx", "--model", str(bad), "--n", "10", "--u", "1"])
        assert code == 2 and "ParamError" in err

    @pytest.mark.parametrize("command", [["oracle", "--method", "exact"], ["edgeworth"]])
    def test_pair_that_is_not_built_in(self, capsys, tmp_path, command):
        # Poisson on Poisson has no exact law: exit 2 with a ParamError
        path = tmp_path / "pp.json"
        path.write_text('{"A": {"kind": "poisson", "lambda": 1.0},'
                        ' "B": {"kind": "poisson", "lambda": 2.0}, "f": 1.5}')
        code, out, err = run(capsys, [*command, "--model", str(path), "--n", "100", "--u", "3"])
        assert code == 2 and out == "" and "ParamError" in err

    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, ["approx", "--model", "/nonexistent.json", "--n", "10", "--u", "1"])
        assert code == 2 and "ParamError" in err

    @pytest.mark.parametrize("argv,path", [
        (["approx", "--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "400", "--u", "1",
          "--out", "no/such/dir/x.json"], "no/such/dir/x.json"),
        (["approx", "--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "400", "--u", "1",
          "--out", "."], "."),
        (["tables", "--out-dir", "F"], "F"),
        (["tables", "--out-dir", "F/sub"], "F/sub"),
    ], ids=["out-in-a-missing-directory", "out-is-a-directory", "out-dir-is-a-file",
            "out-dir-through-a-file"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, monkeypatch, argv, path):
        # these raised FileNotFoundError, IsADirectoryError, FileExistsError
        # and NotADirectoryError through the CLI, exit 1
        monkeypatch.chdir(tmp_path)
        (tmp_path / "F").write_text("a regular file\n")
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", err
        assert err.startswith("ParamError: cannot write") and f" {path}: " in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["F"]

    @pytest.mark.parametrize("case", MALFORMED_MODELS)
    def test_malformed_model_source(self, capsys, tmp_path, case):
        argv = ["approx", "--model", malformed_model(tmp_path, case), "--n", "100", "--u", "1"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err.startswith("ParamError")

    @pytest.mark.parametrize("pair", [["--poisson-gamma", "1", "1", "3"], ["--gamma-poisson", "1", "3", "1"]])
    def test_mc_threshold_past_float_range(self, capsys, pair):
        # u n = 1e400 overflows to inf; the sampler refuses it rather than
        # rounding it to a count (pg) or counting no hits (gp)
        argv = ["oracle", *pair, "--f", "1.5", "--n", "1e200", "--u", "1e200",
                "--method", "mc", "--samples", "10", "--seed", "1"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err.startswith("ParamError")

    @pytest.mark.parametrize("query", [
        ["--gamma-poisson", "1", "3", "1", "--n", "1e100", "--u", "1e-90", "--method", "mc"],
        ["--poisson-gamma", "1", "1", "3", "--n", "1e20", "--u", "1", "--method", "mc"],
        ["--poisson-gamma", "1", "1", "3", "--n", "1e20", "--u", "5", "--method", "is"],
    ], ids=["mc-gp", "mc-pg", "is-pg"])
    def test_poisson_rate_past_numpy_limit(self, capsys, query):
        argv = ["oracle", *query, "--f", "1.5", "--samples", "10", "--seed", "1"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err.startswith("ParamError: the Poisson rate")

    def test_internal_failure_exits_1(self, capsys, monkeypatch):
        # an exception that is no TwoscaleError is a bug: exit 1, named as such
        def failing(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_approx", failing)
        code, out, err = run(capsys, ["approx", "--poisson-gamma", "1", "1", "3", "--f", "1.5",
                                      "--n", "400", "--u", "1"])
        assert code == 1 and out == ""
        assert err.startswith("InternalError: RuntimeError: boom")


class TestBoundedInput:
    @pytest.mark.parametrize("argv", [
        ["approx", "--gamma-poisson", "1", "10", "1", "--f", "0.9999", "--n", "1", "--u", "1",
         "--mode", "series"],
        ["approx", "--poisson-gamma", "1", "2", "3", "--f", "1.5", "--n", "100", "--u", "1",
         "--mode", "series", "--M", "100000"],
        ["overdispersion", "--K", "1000", "--u-bar", "150", "--mu-bar", "10", "--M-fast", "10000000"],
        ["overdispersion", "--K", "1000", "--u-bar", "150", "--mu-bar", "10", "--M-slow", "51"],
    ], ids=["approx-default-order-near-f-1", "approx-explicit-order", "pi-fast-order", "pi-slow-order"])
    def test_series_order_past_k_max_exits_2(self, capsys, argv):
        # these summed millions of terms, or an O(m^2) ladder, before exiting 0
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", err
        assert err.startswith(("OrderError", "ParamError"))

    @pytest.mark.parametrize("sig", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["approx", "--poisson-gamma", "1", "2", "3", "--f", "1.5", "--n", "100", "--u", "1",
         "--format", "text"],
        ["oracle", "--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "400", "--u", "1",
         "--format", "text"],
        ["edgeworth", "--gamma-poisson", "1", "1", "1", "--f", "1.5", "--n", "1000", "--u", "2",
         "--points", "3", "--format", "text"],
        ["overdispersion", "--K", "1000", "--u-bar", "150", "--mu-bar", "10", "--format", "text"],
    ], ids=["approx", "oracle", "edgeworth", "overdispersion"])
    def test_sig_below_one_exits_2(self, capsys, argv, sig):
        code, out, err = run(capsys, argv + ["--sig", sig])
        assert code == 2 and out == "", err
        assert err.startswith("ParamError: sig must be >= 1")

    def test_tables_sig_below_one_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, ["tables", "--sig", "0", "--out-dir", str(tmp_path)])
        assert code == 2 and out == "", err
        assert err.startswith("ParamError: sig must be >= 1")

    @pytest.mark.parametrize("method", ["is", "mc"])
    def test_negative_seed_exits_2(self, capsys, method):
        argv = ["oracle", "--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "400", "--u", "1",
                "--method", method, "--samples", "100", "--seed", "-1"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", err
        assert err.startswith("ParamError: seed must be >= 0")


class TestNonFiniteInput:
    @pytest.mark.parametrize("flag, position, named", [
        ("--poisson-gamma", 0, "poisson rate must be positive and finite, got inf"),
        ("--poisson-gamma", 1, "got shape=inf, rate=3.0"),
        ("--poisson-gamma", 2, "got shape=1.0, rate=inf"),
        ("--gamma-poisson", 0, "got shape=inf, rate=1.0"),
        ("--gamma-poisson", 1, "got shape=1.0, rate=inf"),
        ("--gamma-poisson", 2, "poisson rate must be positive and finite, got inf"),
    ])
    def test_infinite_exponent_parameter_is_named(self, capsys, flag, position, named):
        params = ["1", "1", "3"]
        params[position] = "inf"
        code, out, err = run(capsys, ["approx", flag, *params, "--f", "1.5", "--n", "100", "--u", "1"])
        assert code == 2 and out == ""
        assert err.startswith("ParamError: ") and named in err

    @pytest.mark.parametrize("argv", [
        ["oracle", "--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "nan", "--u", "1"],
        ["oracle", "--gamma-poisson", "1", "3", "1", "--f", "1.5", "--n", "100", "--u", "nan"],
        ["oracle", "--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "100", "--u", "inf"],
        ["oracle", "--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "inf", "--u", "1",
         "--method", "mc", "--samples", "100", "--seed", "1"],
        ["edgeworth", "--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "nan", "--u", "1"],
        ["edgeworth", "--gamma-poisson", "1", "3", "1", "--f", "1.5", "--n", "100", "--u", "inf"],
        ["overdispersion", "--K", "10", "--u-bar", "nan", "--mu-bar", "1"],
        ["overdispersion", "--K", "10", "--u-bar", "20", "--mu-bar", "inf"],
        ["approx", "--poisson-gamma", "1", "2", "3", "--f", "1.5", "--n", "0.5", "--u", "1",
         "--mode", "series"],
        ["approx", "--poisson-gamma", "1", "2", "3", "--f", "1.5", "--n", "1e300", "--u", "1"],
        ["approx", "--poisson-gamma", "1", "2", "3", "--f", "1.5", "--n", "1e300", "--u", "1",
         "--mode", "series"],
        ["oracle", "--poisson-gamma", "1", "2", "3", "--f", "1.5", "--n", "0", "--u", "1"],
        ["edgeworth", "--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "-5", "--u", "1"],
    ], ids=["oracle-n", "oracle-u-nan", "oracle-u-inf", "mc-n", "edgeworth-n", "edgeworth-u",
            "overdispersion-u-bar", "overdispersion-mu-bar", "approx-series-n-below-1",
            "approx-phi-overflow", "approx-series-phi-overflow", "oracle-n-zero",
            "edgeworth-n-negative"])
    def test_non_finite_input_exits_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2, err
        assert out == ""
        assert "ParamError" in err
