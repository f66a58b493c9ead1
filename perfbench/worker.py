"""One workload process: set-up, then a timed or a traced closed loop.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH=src``; prints
one JSON object on stdout.  Modes:

* ``probe``: set up and stop; reports ``setup_s``.
* ``timed``: set up, then run queries one after another for ``--seconds``.
* ``trace``: run a fixed prefix of the query order untraced, then the same
  prefix traced, then the reference query traced.

``setup_s`` is measured from ``--t0`` (run.py's monotonic clock just
before it started this interpreter) to the end of the warm-up pass, minus the
time spent loading and ordering the query pool.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import sys
import time
from array import array
from pathlib import Path

import workloads as wl

#: Pool items in a traced run (configs, queries, CLI calls): a fixed prefix of
#: the run order, so that counts repeat exactly for a given seed.
TRACE_ITEMS = {"approx-ladder": 270, "validate-scatter": 200, "cli-cold": 40}


def judge(outcome, expect) -> str:
    """"ok", "fail", or "known" (a recorded seed crash, reproduced as recorded).

    ``outcome``/``expect`` are {"out": [...]}, {"raises": name} or
    {"crash": name}.  A seed crash (any exception other than TwoscaleError)
    is expected to become a value or a TwoscaleError; reproducing it counts
    as a known failure, anything else that crashes as a new one.
    """
    if "crash" in expect:
        if "crash" not in outcome:
            return "ok"
        return "known" if outcome["crash"] == expect["crash"] else "fail"
    if "raises" in expect:
        return "ok" if outcome.get("raises") == expect["raises"] else "fail"
    if "out" in outcome and wl.outputs_match(outcome["out"], expect["out"]):
        return "ok"
    return "fail"


def attempt(ts, fn) -> dict:
    try:
        return {"out": fn()}
    except ts.TwoscaleError as exc:
        return {"raises": type(exc).__name__}
    except Exception as exc:  # noqa: BLE001 - a failed operation, counted
        return {"crash": type(exc).__name__}


# --- queries ------------------------------------------------------------------------
#
# Each workload turns its run order into a stream of (thunk, expectation,
# tally key).  A thunk runs one query; the loop times the thunk's library
# call, not the check of its output.


def ladder_queries(ts, pool, order):
    """One query per library call; the ModelPair is built inside the first
    call of its config."""
    for _, name, index, item in order:
        slots = len(pool["strata"][name]) * wl.LADDER_SLOTS
        state = {}
        for k, ((op, n), expect) in enumerate(zip(wl.ladder_calls(item), item["expect"])):
            def call(item=item, state=state, op=op, n=n, first=k == 0):
                if first:
                    state["model"] = wl.build_model(ts, item["model"])
                    state["scaling"] = ts.PowerScaling(item["f"])
                return [["log", wl.ladder_call(ts, state["model"], state["scaling"], item, op, n)]]

            # A ladder expectation is one [kind, value] pair or an outcome dict.
            expect = {"out": [expect]} if isinstance(expect, list) else expect
            yield call, ("lib", expect), (name, index * wl.LADDER_SLOTS + k, slots)


def scatter_queries(ts, pool, order, workers):
    tables_expect = pool["tables"][str(workers)]
    for pos, name, index, item in order:
        with_tables = pos % wl.TABLES_EVERY == 0

        def call(item=item, with_tables=with_tables):
            out = wl.scatter_query(ts, item, workers)
            if with_tables:
                out = out + wl.tables_outputs(ts, workers)
            return out

        expect = item["expect"][str(workers)]
        if with_tables and "out" in expect:
            expect = {"out": expect["out"] + tables_expect}
        yield call, ("lib", expect), (name, 2 * index + with_tables, 2 * len(pool["strata"][name]))


def cli_queries(ts, pool, order):
    import twoscale.cli  # noqa: F401 - makes ts.cli available

    for _, name, index, item in order:
        def call(item=item):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ts.cli.main(list(item["argv"]))
            return code, out.getvalue().encode("utf-8")

        yield call, ("cli", item), (name, index, len(pool["strata"][name]))


def run_query(ts, call, kind_expect, work: Path):
    """(seconds spent in the library, verdict)."""
    kind, expect = kind_expect
    if kind == "cli":
        t = time.perf_counter()
        code, stdout = call()
        dt = time.perf_counter() - t
        return dt, wl.cli_verdict(code, stdout, wl.read_cli_files(expect, work), expect)
    t = time.perf_counter()
    outcome = attempt(ts, call)
    dt = time.perf_counter() - t
    return dt, judge(outcome, expect)


def queries_for(ts, workload, pool, order, work, workers):
    if workload == "approx-ladder":
        return ladder_queries(ts, pool, order)
    if workload == "validate-scatter":
        return scatter_queries(ts, pool, order, workers)
    return cli_queries(ts, pool, order)


# --- set-up ---------------------------------------------------------------------------


def warm_up(ts, workload: str, workers: int) -> None:
    if workload == "approx-ladder":
        for item in wl.WARMUP_LADDER:
            model = wl.build_model(ts, item["model"])
            scaling = ts.PowerScaling(item["f"])
            for op, n in wl.ladder_calls(item):
                wl.ladder_call(ts, model, scaling, item, op, n)
    elif workload == "validate-scatter":
        for item in wl.WARMUP_SCATTER:
            wl.scatter_query(ts, item, workers)
        wl.tables_outputs(ts, workers)
    else:
        import twoscale.cli

        with contextlib.redirect_stdout(io.StringIO()):
            twoscale.cli.main(list(wl.WARMUP_CLI_ARGV))


# --- modes ----------------------------------------------------------------------------------


def timed(ts, workload, pool, order, work, workers, seconds) -> dict:
    lat = array("d")
    tally = wl.Tally()
    queries = queries_for(ts, workload, pool, order, work, workers)
    least = wl.min_calls(workload, pool)
    cpu0 = time.process_time()
    start = time.perf_counter()
    deadline = start + seconds
    for call, expect, key in queries:
        dt, verdict = run_query(ts, call, expect, work)
        lat.append(dt)
        tally.add(verdict, key)
        if time.perf_counter() >= deadline and tally.calls >= least:
            break
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    # Peak RSS before the analysis below, whose copies grow with throughput.
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        **tally.as_dict(),
        "wrapped": order.wrapped,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": rss_kb,
        **wl.latency_summary(lat, workload),
    }


def traced(ts, workload, pool, order, work, workers, spans_path) -> dict:
    from spans import Tracer, layer_metrics

    # Materialize the prefix so both passes run the same queries.
    prefix = list(itertools.islice(iter(order), TRACE_ITEMS[workload]))
    tally = wl.Tally()

    def run_pass(tracer=None):
        count = 0
        lib_s = 0.0
        start = time.perf_counter()
        for call, expect, key in queries_for(ts, workload, pool, iter(prefix), work, workers):
            if tracer is not None:
                tracer.qid = count
            dt, verdict = run_query(ts, call, expect, work)
            lib_s += dt
            tally.add(verdict, key)
            count += 1
        return count, time.perf_counter() - start, lib_s

    queries, untraced_wall, untraced_lib = run_pass()
    tracer = Tracer(ts)
    tracer.install()
    try:
        traced_queries, traced_wall, _ = run_pass(tracer)
        derivs = tracer.derivs
        metrics = layer_metrics(tracer.spans, traced_queries, derivs)
        # The reference query, as its own query after the workload's.
        ref = wl.REFERENCE_QUERY
        tracer.qid = traced_queries
        mark = len(tracer.spans)
        model = wl.build_model(ts, ref["model"])
        ts.solve_twist(model, ts.PowerScaling(ref["f"]), ref["n"], ref["u"])
    finally:
        tracer.uninstall()
    ref_metrics = layer_metrics(tracer.spans[mark:], 1, 0)
    metrics["levy.ref_deriv_calls_per_solve"] = ref_metrics["levy.deriv_calls_per_solve"]
    metrics["twist.ref_newton_iters_per_solve"] = ref_metrics["twist.newton_iters_per_solve"]
    metrics["cli.main_ms"] = untraced_lib / queries * 1e3 if workload == "cli-cold" else 0.0
    metrics["trace.untraced_queries_per_s"] = queries / untraced_wall
    metrics["trace.traced_queries_per_s"] = traced_queries / traced_wall
    metrics["trace.overhead_ratio"] = (queries / untraced_wall) / (traced_queries / traced_wall)
    tracer.write(spans_path)
    return {**tally.as_dict(), "queries": queries, "spans": len(tracer.spans), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark workload process")
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--mode", choices=("probe", "timed", "trace"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()
    workers = wl.SCATTER_WORKERS

    input_s = 0.0
    pool = order = None
    if args.mode != "probe":
        t = time.monotonic()
        pool = wl.load_pool(args.workload)
        order = wl.RunOrder(args.workload, pool["strata"], args.seed)
        if args.workload == "cli-cold":
            for items in pool["strata"].values():
                for item in items:
                    wl.write_cli_inputs(item, args.work)
        input_s = time.monotonic() - t
    if args.workload == "cli-cold":
        os.chdir(args.work)

    import twoscale as ts

    warm_up(ts, args.workload, workers)
    setup_s = time.monotonic() - args.t0 - input_s
    result = {"setup_s": setup_s, "workers": workers}
    if args.mode == "timed":
        result.update(timed(ts, args.workload, pool, order, args.work, workers, args.seconds))
    elif args.mode == "trace":
        result.update(traced(ts, args.workload, pool, order, args.work, workers, args.spans))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
