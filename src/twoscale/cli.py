"""Command-line front end.

Commands
--------
approx          tail approximation for a model at (n, u), direct or series mode
oracle          exact / importance-sampling / plain Monte Carlo tail values
tables          write the two reference comparison tables (CSV + JSON sidecar)
edgeworth       tilted-CDF approximation vs the exact tilted law on an x grid
overdispersion  all arrival-count approximations for one (K, u_bar, mu_bar)

A model comes from ``--model`` (a JSON spec file) or inline, as a built-in pair:
``--poisson-gamma LAM R MU`` or ``--gamma-poisson R MU LAM``.  Only ``oracle``
takes ``--workers``, the Monte Carlo substream count.

Every command emits machine-readable output (JSON by default); identical
configuration and seed produce byte-identical files, whatever the machine's
core count.  Exit codes: 0 success, 2 invalid input (the error class name goes
to stderr), 1 internal failure.

Each command imports the modules it uses, so ``approx`` never loads numpy or
scipy, and the Monte Carlo methods of ``oracle`` load numpy only; the exact
oracle, ``tables``, ``edgeworth`` and ``overdispersion`` load both.  The
process runs BLAS on one thread: ``main`` sets ``OPENBLAS_NUM_THREADS=1``
before numpy loads, so no idle worker threads spin and no dot product is split
by the core count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import asymptotics
from .errors import ParamError, TwoscaleError, require_finite
from .formatting import format_sig
from .levy import CharExponent, ModelPair, PowerScaling, load_model
from .models import exact_law

__all__ = ["main"]


def _add_model_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", metavar="PATH", help="model spec JSON file")
    src.add_argument(
        "--poisson-gamma",
        nargs=3,
        type=float,
        metavar=("LAM", "R", "MU"),
        help="inline Poisson(LAM) outer process on a Gamma(R, MU) clock",
    )
    src.add_argument(
        "--gamma-poisson",
        nargs=3,
        type=float,
        metavar=("R", "MU", "LAM"),
        help="inline Gamma(R, MU) outer process on a Poisson(LAM) clock",
    )
    p.add_argument("--f", type=float, default=None,
                   help="timescale exponent (required with inline parameters)")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--u", type=float, required=True)


def _resolve_model(args) -> tuple[ModelPair, PowerScaling]:
    if args.model is not None:
        model, scaling = load_model(args.model)
        if args.f is not None:
            scaling = PowerScaling(args.f)
        return model, scaling
    if args.f is None:
        raise ParamError("--f is required when the model is given inline")
    if args.poisson_gamma is not None:
        lam, r, mu = args.poisson_gamma
        return ModelPair(CharExponent.poisson(lam), CharExponent.gamma(r, mu)), PowerScaling(args.f)
    r, mu, lam = args.gamma_poisson
    return ModelPair(CharExponent.gamma(r, mu), CharExponent.poisson(lam)), PowerScaling(args.f)


def _emit(args, payload: dict, csv_text: str | None = None) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        if csv_text is None:
            raise ParamError("csv output is not available for this command")
        text = csv_text
    else:
        lines = []
        for key in sorted(payload):
            val = payload[key]
            if isinstance(val, float):
                val = format_sig(val, args.sig)
            lines.append(f"{key}: {val}")
        text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _estimate_payload(est, regime: str) -> dict:
    terms = [list(term) for term in est.exponent_terms]  # text output prints lists as JSON does
    return {**dataclasses.asdict(est), "regime": regime, "exponent_terms": terms}


def _cmd_approx(args) -> int:
    model, scaling = _resolve_model(args)
    regime = asymptotics.classify(scaling).regime
    if regime == "single":
        est = asymptotics.approx_single_timescale(model, args.n, args.u)
    else:
        if args.lattice == "on":
            lattice = True
        elif args.lattice == "off":
            lattice = False
        else:
            span = model.A.lattice_span if regime == "fast" else model.B.lattice_span
            lattice = span > 0
        fn = asymptotics.approx_fast if regime == "fast" else asymptotics.approx_slow
        est = fn(model, scaling, args.n, args.u, mode=args.mode, order=args.M, lattice=lattice)
    _emit(args, _estimate_payload(est, regime))
    return 0


def _cmd_oracle(args) -> int:
    model, scaling = _resolve_model(args)
    require_finite(n=args.n, u=args.u)
    from .oracle import StatisticalBound, is_tail, plain_mc_tail

    if args.method == "exact":
        res = exact_law(model, scaling, args.n).tail(args.u * args.n)
    else:
        if args.seed is None:
            raise ParamError(f"--seed is required for method {args.method!r}")
        if args.samples is None:
            raise ParamError(f"--samples is required for method {args.method!r}")
        fn = is_tail if args.method == "is" else plain_mc_tail
        res = fn(model, scaling, args.n, args.u, args.samples, args.seed, workers=args.workers)
    payload = {
        "probability": res.probability,
        "log_probability": res.log_probability,
        "method": res.method,
    }
    if isinstance(res.error, StatisticalBound):
        payload.update(
            {
                "estimate": res.probability,
                "std_error": res.error.std_error,
                "samples": res.error.samples,
                "seed": res.error.seed,
            }
        )
    else:
        payload["rigorous_bound"] = res.error.bound
    _emit(args, payload)
    return 0


def _cmd_tables(args) -> int:
    from . import overdispersion

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t1, t2 = overdispersion.reproduce_tables()
    written = []
    for table, stem in ((t1, "table1"), (t2, "table2")):
        csv_path = out_dir / f"{stem}.csv"
        json_path = out_dir / f"{stem}.json"
        table.write_csv(csv_path, sig=args.sig)
        table.write_json(json_path)
        written += [str(csv_path), str(json_path)]
    sys.stdout.write("\n".join(written) + "\n")
    return 0


def _cmd_edgeworth(args) -> int:
    from . import edgeworth

    model, scaling = _resolve_model(args)
    diag = edgeworth.diagnostic(
        model, scaling, args.n, args.u, x_min=args.x_min, x_max=args.x_max, points=args.points
    )
    rows = [{"x": x, "approx": a, "exact": e, "gap": abs(a - e)} for x, a, e in diag.rows]
    payload = {"rows": rows, "sup_gap": diag.sup_gap}
    cols = ("x", "approx", "exact", "gap")
    body = [",".join(cols)]
    for row in rows:
        body.append(",".join(format_sig(row[c], 9) for c in cols))
    _emit(args, payload, csv_text="\n".join(body) + "\n")
    return 0


def _cmd_overdispersion(args) -> int:
    from . import overdispersion

    q = overdispersion.ArrivalQuery(args.K, args.u_bar, args.mu_bar)
    payload = {
        "K": args.K,
        "u_bar": args.u_bar,
        "mu_bar": args.mu_bar,
        "rho": q.rho,
        "pi_exact": overdispersion.pi_exact(q).probability,
        "pi_pois": overdispersion.pi_pois(q),
        "pi_gamma": overdispersion.pi_gamma(q),
    }
    if q.rho < 1:
        payload.update(
            {
                "pi_hat_fast": overdispersion.pi_hat_fast(q),
                "pi_hat_slow": overdispersion.pi_hat_slow(q),
                "pi_fast": overdispersion.pi_fast(q, M=args.M_fast),
                "pi_slow": overdispersion.pi_slow(q, M=args.M_slow),
            }
        )
    _emit(args, payload)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoscale",
        description="tail asymptotics for two-timescale subordinated Levy models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_output(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
        p.add_argument("--sig", type=int, default=3, help="significant digits for text/csv output")

    p = sub.add_parser("approx", help="evaluate the tail approximation")
    _add_model_args(p)
    p.add_argument("--mode", choices=("direct", "series"), default="direct")
    p.add_argument("--M", type=int, default=None, help="series truncation order")
    p.add_argument("--lattice", choices=("auto", "on", "off"), default="auto")
    common_output(p)
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("oracle", help="exact or Monte Carlo tail probability")
    _add_model_args(p)
    p.add_argument("--method", choices=("exact", "is", "mc"), default="exact")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1, help="Monte Carlo substream count")
    common_output(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("tables", help="write the reference comparison tables")
    p.add_argument("--out-dir", default=".", metavar="DIR")
    p.add_argument("--sig", type=int, default=3)
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("edgeworth", help="tilted-CDF approximation vs the exact tilted law")
    _add_model_args(p)
    p.add_argument("--x-min", type=float, default=-6.0)
    p.add_argument("--x-max", type=float, default=6.0)
    p.add_argument("--points", type=int, default=49)
    common_output(p)
    p.set_defaults(fn=_cmd_edgeworth)

    p = sub.add_parser("overdispersion", help="arrival-count approximations for one query")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--u-bar", type=float, required=True)
    p.add_argument("--mu-bar", type=float, required=True)
    p.add_argument("--M-fast", type=int, default=None)
    p.add_argument("--M-slow", type=int, default=None)
    common_output(p)
    p.set_defaults(fn=_cmd_overdispersion)

    return parser


def main(argv=None) -> int:
    # Assigned, not defaulted: the byte-identical contract needs one thread
    # whatever the caller set.  A caller that has loaded numpy already keeps
    # its BLAS threads.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TwoscaleError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"InternalError: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
