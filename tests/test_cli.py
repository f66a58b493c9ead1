"""Command-line interface: output contracts, exit codes, determinism."""

import json

import pytest

from twoscale.cli import main


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

    def test_missing_required_flag_exits_2(self, pg_json, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["approx", "--model", pg_json, "--n", "100"])
        assert exc.value.code == 2

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

    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, ["approx", "--model", "/nonexistent.json", "--n", "10", "--u", "1"])
        assert code == 2 and "ParamError" in err


class TestNonFiniteInput:
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
    ], ids=["oracle-n", "oracle-u-nan", "oracle-u-inf", "mc-n", "edgeworth-n", "edgeworth-u",
            "overdispersion-u-bar", "overdispersion-mu-bar", "approx-series-n-below-1",
            "approx-phi-overflow", "approx-series-phi-overflow", "oracle-n-zero"])
    def test_non_finite_input_exits_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2, err
        assert out == ""
        assert "ParamError" in err
