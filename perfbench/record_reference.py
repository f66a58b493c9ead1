"""Generate the benchmark's query pools and record the library's outputs.

Run from the repository root, at the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/record_reference.py

It rewrites ``perfbench/data/<workload>.json.gz``.  Re-record only when an
output change is intended; run.py counts any other change as a failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Items per stratum.  validate-scatter and cli-cold hold at least twice what
#: a run uses at the recording commit, so no item repeats within a run;
#: approx-ladder holds about half, so a run revisits its configs (README).
LADDER_PER_STRATUM = 600
SCATTER_PER_STRATUM = 900
CLI_PER_STRATUM = {"approx-inline": 24, "approx-model": 24}
CLI_PER_STRATUM_DEFAULT = 10


def _logu(rng: random.Random, lo: float, hi: float) -> float:
    return _round(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _round(x: float) -> float:
    return float(f"{x:.6g}")


def _spec(rng: random.Random, kind: str) -> dict:
    if kind == "pg":
        return {"kind": "pg", "lam": _logu(rng, 0.3, 3), "r": _logu(rng, 0.5, 3), "mu": _logu(rng, 0.5, 5)}
    if kind == "gp":
        return {"kind": "gp", "r": _logu(rng, 0.5, 3), "mu": _logu(rng, 0.5, 5), "lam": _logu(rng, 0.3, 3)}
    return {"kind": "vg", "drift": _round(rng.uniform(0.2, 2.0)), "var": _logu(rng, 0.2, 3),
            "r": _logu(rng, 0.5, 3), "mu": _logu(rng, 0.5, 5)}


def _f(rng: random.Random, regime: str) -> float:
    if regime == "fast":
        return _round(rng.uniform(1.2, 3.0))
    if regime == "slow":
        return _round(rng.uniform(0.2, 0.9))
    return 1.0


def _rare_u(rng: random.Random, spec: dict) -> float:
    return _round(_logu(rng, 1.1, 5.0) * wl.mean_product(spec))


def _n_cap(spec: dict, f: float, n: float, rate_cap: float) -> float:
    """Keep the compound oracle's Poisson rate phi_n*lam under rate_cap."""
    if spec["kind"] != "gp":
        return n
    return _round(max(10.0, min(n, (rate_cap / spec["lam"]) ** (1.0 / f))))


# --- outcome recording -------------------------------------------------------------


def _compact(outputs: list) -> list:
    """Round log and linear values to 12 significant digits: far inside the
    1e-9 check, and it keeps the stored pools small."""
    return [[kind, float(f"{v:.12g}") if kind in ("log", "lin") else v] for kind, v in outputs]


def _record(ts, fn):
    try:
        return fn()
    except ts.TwoscaleError as exc:
        return {"raises": type(exc).__name__}
    except Exception as exc:  # noqa: BLE001 - a seed defect, reported below
        print(f"warning: {type(exc).__name__}: {exc}", file=sys.stderr)
        return {"crash": type(exc).__name__}


def build_ladder(ts, rng: random.Random) -> dict:
    strata = {}
    for name in wl.LADDER_PATTERN:
        kind, regime = name.split("-")
        items = []
        for _ in range(LADDER_PER_STRATUM):
            spec = _spec(rng, kind)
            item = {"model": spec, "f": _f(rng, regime), "u": _rare_u(rng, spec)}
            model = wl.build_model(ts, spec)
            scaling = ts.PowerScaling(item["f"])
            item["expect"] = [
                _record(ts, lambda: _compact([["log", wl.ladder_call(ts, model, scaling, item, op, n)]])[0])
                for op, n in wl.ladder_calls(item)
            ]
            items.append(item)
        strata[name] = items
    return {"strata": strata}


def build_scatter(ts, rng: random.Random) -> dict:
    strata = {}
    for name in wl.SCATTER_PATTERN:
        if name in strata:
            continue
        extra_kind, kind = name.split("-")
        items = []
        for _ in range(SCATTER_PER_STRATUM):
            spec = _spec(rng, kind)
            if extra_kind == "edge":
                regime = rng.choice(("fast", "slow"))
            else:
                regime = rng.choices(("fast", "slow", "single"), (2, 2, 1))[0]
            f = _f(rng, regime)
            u = _rare_u(rng, spec)
            if extra_kind == "edge":
                n = _n_cap(spec, f, _logu(rng, 1e2, 1e4), 1e4)
            else:
                n = _n_cap(spec, f, _logu(rng, 10, 1e5), 2e4)
            near_mean = rng.random() < 0.25
            t_ratio = _round(rng.uniform(0.85, 1.0)) if near_mean else u / wl.mean_product(spec)
            item = {"model": spec, "f": f, "n": n, "u": u, "t_ratio": t_ratio,
                    "seed": rng.randrange(2**31), "extra": None}
            if extra_kind == "mc":
                item["extra"] = {"kind": "mc", "ratio": _round(rng.uniform(0.9, 1.1))}
            elif extra_kind == "edge":
                item["extra"] = {"kind": "edge"}
            elif extra_kind == "pi":
                K = int(_logu(rng, 10, 1e4))
                mu_bar = max(_logu(rng, 1e-3, 1e2), _round(K / 1e5))
                rho = rng.uniform(0.3, 0.95)
                item["extra"] = {"kind": "pi", "K": K, "mu_bar": mu_bar, "u_bar": _round(K / (mu_bar * rho))}
            item["expect"] = {
                str(w): _record(ts, lambda w=w: {"out": _compact(wl.scatter_query(ts, item, w))}) for w in (1, 2)
            }
            items.append(item)
        strata[name] = items
    tables = {str(w): _compact(wl.tables_outputs(ts, w)) for w in (1, 2)}
    return {"strata": strata, "tables": tables}


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def _model_args(spec: dict) -> list:
    if spec["kind"] == "pg":
        return ["--poisson-gamma", _fmt(spec["lam"]), _fmt(spec["r"]), _fmt(spec["mu"])]
    return ["--gamma-poisson", _fmt(spec["r"]), _fmt(spec["mu"]), _fmt(spec["lam"])]


def _model_file(spec: dict, f: float) -> str:
    if spec["kind"] == "pg":
        a = {"kind": "poisson", "lambda": spec["lam"]}
        b = {"kind": "gamma", "r": spec["r"], "mu": spec["mu"]}
    else:
        a = {"kind": "gamma", "r": spec["r"], "mu": spec["mu"]}
        b = {"kind": "poisson", "lambda": spec["lam"]}
    return json.dumps({"A": a, "B": b, "f": f}, indent=2) + "\n"


def _cli_item(rng: random.Random, name: str, k: int) -> dict:
    spec = _spec(rng, rng.choice(("pg", "gp")))
    regime = rng.choices(("fast", "slow", "single"), (2, 2, 1))[0]
    f = _f(rng, regime)
    u = _rare_u(rng, spec)
    item = {"kind": name}
    if name in ("approx-inline", "approx-model", "bad-u", "bad-n"):
        n = _logu(rng, 10, 1e6)
        if name == "bad-u":
            u = _round(rng.uniform(0.3, 1.0) * wl.mean_product(spec))
        if name == "approx-model":
            fname = f"model_{k}.json"
            argv = ["approx", "--model", fname]
            item["inputs"] = {fname: _model_file(spec, f)}
        else:
            argv = ["approx"] + _model_args(spec) + ["--f", _fmt(f)]
        n_arg = rng.choice(("nan", "inf")) if name == "bad-n" else _fmt(n)
        argv += ["--n", n_arg, "--u", _fmt(u)]
        if regime != "single" and rng.random() < 0.3:
            argv += ["--mode", "series"]
        if rng.random() < 0.3:
            argv += ["--format", "text"]
    elif name in ("oracle-exact", "oracle-is"):
        n = _n_cap(spec, f, _logu(rng, 10, 1e5), 2e4)
        if name == "oracle-exact" and rng.random() < 0.25:
            u = _round(rng.uniform(0.85, 1.0) * wl.mean_product(spec))
        argv = ["oracle"] + _model_args(spec) + ["--f", _fmt(f), "--n", _fmt(n), "--u", _fmt(u)]
        if name == "oracle-is":
            argv += ["--method", "is", "--samples", str(wl.CLI_IS_SAMPLES),
                     "--seed", str(rng.randrange(2**31)), "--workers", rng.choice(("1", "2"))]
    elif name == "overdispersion":
        K = int(_logu(rng, 10, 1e4))
        mu_bar = max(_logu(rng, 1e-3, 1e2), _round(K / 1e5))
        rho = rng.uniform(0.3, 0.95) if rng.random() < 0.9 else rng.uniform(1.05, 2.0)
        argv = ["overdispersion", "--K", str(K), "--u-bar", _fmt(_round(K / (mu_bar * rho))),
                "--mu-bar", _fmt(mu_bar)]
    elif name == "edgeworth":
        f = _f(rng, rng.choice(("fast", "slow")))
        n = _n_cap(spec, f, _logu(rng, 1e2, 1e4), 1e4)
        argv = ["edgeworth"] + _model_args(spec) + ["--f", _fmt(f), "--n", _fmt(n), "--u", _fmt(u),
                                                    "--points", "25"]
    else:  # tables
        argv = ["tables", "--out-dir", "tables_out", "--sig", str(rng.choice((2, 3, 4, 5)))]
        item["files"] = [f"tables_out/table{i}.{ext}" for i in (1, 2) for ext in ("csv", "json")]
    item["argv"] = argv
    return item


def _run_cli(item: dict, work: Path, env: dict) -> dict:
    wl.write_cli_inputs(item, work)
    proc = subprocess.run([sys.executable, "-m", "twoscale.cli", *item["argv"]], cwd=work, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
    out = {"exit": proc.returncode, "stdout": wl.sha256(proc.stdout)}
    if item.get("files"):
        out["files"] = {name: wl.sha256((work / name).read_bytes()) for name in item["files"]}
    return out


def build_cli(rng: random.Random) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("TAILSCALE_THREADS", None)
    strata = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in wl.CLI_PATTERN:
            if name in strata:
                continue
            items = []
            for k in range(CLI_PER_STRATUM.get(name, CLI_PER_STRATUM_DEFAULT)):
                item = _cli_item(rng, name, k)
                seen = _run_cli(item, work, env)
                item.pop("files", None)
                if name.startswith("bad-"):
                    # Invalid input must exit 2 with nothing on stdout.  Where
                    # the recording commit does otherwise (non-finite --n exits
                    # 1), its outcome is kept so a run can tell that known
                    # defect from a new failure.
                    item["expect"] = {"exit": 2, "stdout": wl.sha256(b"")}
                    if seen != item["expect"]:
                        item["known_defect"] = seen
                else:
                    item["expect"] = seen
                items.append(item)
            strata[name] = items
    return {"strata": strata}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, action="append")
    args = parser.parse_args()
    import twoscale as ts

    for workload in args.workload or wl.WORKLOADS:
        rng = random.Random(f"{wl.POOL_SEED}:{workload}")
        if workload == "approx-ladder":
            pool = build_ladder(ts, rng)
        elif workload == "validate-scatter":
            pool = build_scatter(ts, rng)
        else:
            pool = build_cli(rng)
        wl.save_pool(workload, pool)
        print(f"{workload}: {sum(len(v) for v in pool['strata'].values())} items")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
