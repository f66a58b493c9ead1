"""twoscale benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload approx-ladder --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

#: Fresh interpreters whose set-up time is measured per run; the median is
#: reported as setup_s.
SETUP_SAMPLES = 5
#: Runs of `python -c pass` and of the -X importtime import probe in a traced run.
INTERPRETER_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0

WORK = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_spans"


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# --- processes -----------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("TAILSCALE_THREADS", None)
    return env


def spawn(argv, cwd: Path, env: dict, timeout: float = CHILD_TIMEOUT_S):
    """Run a child to completion: (exit code, stdout, stderr, rusage, wall seconds).

    The child's stdout and stderr go to files in the work directory, and it is
    reaped with wait4 to read its own peak RSS and CPU time.
    """
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage, wall


def run_worker(env, workload, mode, seed=0, seconds=0.0, spans=None):
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--mode", mode,
            "--seed", str(seed), "--seconds", repr(float(seconds)), "--work", str(WORK)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    t0 = time.monotonic()
    code, out, err, _, _ = spawn(argv + ["--t0", repr(t0)], ROOT, env)
    if code != 0:
        raise BenchError(f"worker {workload}/{mode} exited {code}:\n{err.decode(errors='replace')}")
    return json.loads(out.decode().strip().splitlines()[-1])


def setup_samples(env, workload, first=None) -> list:
    samples = [first] if first is not None else []
    while len(samples) < SETUP_SAMPLES:
        samples.append(run_worker(env, workload, "probe")["setup_s"])
    return samples


# --- end-to-end runs ---------------------------------------------------------------------


def timed_in_process(env, workload, seed, seconds) -> dict:
    res = run_worker(env, workload, "timed", seed, seconds)
    return {**res, "setup": setup_samples(env, workload, res["setup_s"])}


def timed_cli(env, seed, seconds) -> dict:
    """Closed loop of `python -m twoscale.cli` processes, one at a time."""
    setup = setup_samples(env, "cli-cold")
    pool = wl.load_pool("cli-cold")
    for items in pool["strata"].values():
        for item in items:
            wl.write_cli_inputs(item, WORK)
    lat = []
    cpu = 0.0
    rss = 0
    tally = wl.Tally()
    start = time.perf_counter()
    deadline = start + seconds
    least = wl.min_calls("cli-cold", pool)
    order = wl.RunOrder("cli-cold", pool["strata"], seed)
    for _, name, index, item in order:
        argv = [sys.executable, "-m", "twoscale.cli", *item["argv"]]
        code, stdout, _, usage, wall = spawn(argv, WORK, env)
        lat.append(wall)
        cpu += usage.ru_utime + usage.ru_stime
        rss = max(rss, usage.ru_maxrss)
        verdict = wl.cli_verdict(code, stdout, wl.read_cli_files(item, WORK), item)
        tally.add(verdict, (name, index, len(pool["strata"][name])))
        if time.perf_counter() >= deadline and tally.calls >= least:
            break
    wall = time.perf_counter() - start
    return {
        **tally.as_dict(),
        "wrapped": order.wrapped,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": rss,
        "setup": setup,
        **wl.latency_summary(lat, "cli-cold"),
    }


def end_to_end(env, workload, seed, seconds):
    if workload == "cli-cold":
        r = timed_cli(env, seed, seconds)
    else:
        r = timed_in_process(env, workload, seed, seconds)
    n = r["calls"]
    metrics = {
        "queries_per_s": n / r["wall_s"],
        "latency_p50_ms": r["p50_s"] * 1e3,
        "latency_tail_ms": r["tail_s"] * 1e3,
        "cpu_ms_per_query": r["cpu_s"] / n * 1e3,
        "setup_s": statistics.median(r["setup"]),
        "peak_rss_mb": r["peak_rss_kb"] / 1024.0,
    }
    notes = {
        "latency_tail_ms": f"p{wl.TAIL_PERCENTILE[workload]:g}, {r['tail_beyond']} of {n} samples beyond",
        "setup_s": f"median of {len(r['setup'])} fresh interpreters",
        "cpu_ms_per_query": "children's CPU" if workload == "cli-cold" else "process CPU, all threads",
        "peak_rss_mb": "max over children" if workload == "cli-cold" else "workload process, end of timed phase",
        "pool": f"{r['wrapped']} strata used up and restarted",
    }
    units = declared_units("end_to_end")
    return r, {k: (metrics[k], units[k]) for k in units}, notes


# --- traced run ------------------------------------------------------------------------------


def _importtime_ms(stderr: str, package: str, self_only: bool = False) -> float:
    """Import time of ``package``, in ms, from ``-X importtime`` output.

    The cumulative time of its outermost entries, or with ``self_only`` the
    sum of its modules' self times (which does not overlap another package's).
    """
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2)), int(m.group(1))))
    if self_only:
        return sum(r[3] for r in rows if r[1] == package or r[1].startswith(package + ".")) / 1e3
    total = 0
    stack = []
    # Entries are printed after their children; read them back to front so
    # each entry is seen before its children.
    for depth, name, cumulative, _ in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not any(n == package or n.startswith(package + ".") for _, n in stack):
            total += cumulative
        stack.append((depth, name))
    return total / 1e3


def cli_probes(env) -> dict:
    interp = []
    for _ in range(INTERPRETER_SAMPLES):
        *_, wall = spawn([sys.executable, "-c", "pass"], WORK, env)
        interp.append(wall)
    imp, scipy_ms, numpy_ms, modules = [], [], [], []
    probe = "import sys, twoscale; print(len(sys.modules)); import twoscale.cli"
    for _ in range(IMPORT_SAMPLES):
        code, out, err, _, _ = spawn([sys.executable, "-X", "importtime", "-c", probe], WORK, env)
        if code != 0:
            raise BenchError(f"import probe exited {code}:\n{err.decode(errors='replace')}")
        text = err.decode()
        imp.append(_importtime_ms(text, "twoscale"))
        scipy_ms.append(_importtime_ms(text, "scipy", self_only=True))
        numpy_ms.append(_importtime_ms(text, "numpy", self_only=True))
        modules.append(int(out.decode().split()[0]))
    return {
        "cli.interpreter_ms": statistics.median(interp) * 1e3,
        "cli.import_ms": statistics.median(imp),
        "cli.import_scipy_ms": statistics.median(scipy_ms),
        "cli.import_numpy_ms": statistics.median(numpy_ms),
        "cli.import_modules": statistics.median(modules),
    }


def per_layer(env, workload, seed):
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"{workload}-seed{seed}.jsonl.gz"
    res = run_worker(env, workload, "trace", seed, spans=spans)
    metrics = res["metrics"]
    metrics.update(cli_probes(env))
    units = declared_units("per_layer")
    notes = {"spans": f"{res['spans']} spans over {res['queries']} queries written to {spans.relative_to(ROOT)}"}
    return res, {k: (metrics[k], units[k]) for k in units}, notes


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them (and in its order)."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# --- environment ------------------------------------------------------------------------------


def loadavg() -> float:
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


# --- main ---------------------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="twoscale benchmark")
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "twoscale" / "__init__.py").is_file():
        print(f"error: no twoscale sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not wl.pool_path(args.workload).is_file():
        print(f"error: missing query pool {wl.pool_path(args.workload)}", file=sys.stderr)
        return 2

    env_record = environment()
    env_record["load_start"] = loadavg()
    env_record["load_flag"] = env_record["load_start"] > (env_record["nproc"] or 1)
    env = child_env()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        # Compile the package's bytecode before anything is timed.
        code, _, err, _, _ = spawn([sys.executable, "-c", "import twoscale.cli"], ROOT, env)
        if code != 0:
            raise BenchError(f"import twoscale.cli exited {code}:\n{err.decode(errors='replace')}")
        if args.trace:
            tally, metrics, notes = per_layer(env, args.workload, args.seed)
        else:
            tally, metrics, notes = end_to_end(env, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    env_record["load_end"] = loadavg()

    attempted, failed, known = tally["attempted"], tally["failed"], tally["known"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"  {name:<38} {value:>14.6g} {unit:<6}" + (f"  ({note})" if note else ""))
    print(f"  {'failed_frac':<38} {failed / max(attempted, 1):>14.6g} {'':<6}  "
          f"({failed} of {attempted} distinct operations failed; {known} are known seed defects; "
          f"{tally['calls']} calls)")
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name}: {note}")
    if env_record["load_flag"]:
        print(f"  warning: run started at load {env_record['load_start']} > nproc {env_record['nproc']}")
    print("env " + json.dumps(env_record, sort_keys=True))
    result = {
        # Correct unless an operation failed other than by reproducing a
        # failure recorded at the reference commit (see README).
        "correct": failed == known and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
