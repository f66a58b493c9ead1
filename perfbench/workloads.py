"""Workload definitions shared by run.py, the worker and the recorder.

Every workload draws its queries from a fixed pool stored under ``data/``.
The pool was generated once from ``POOL_SEED`` and holds, next to each input,
the output the library gave at the commit that recorded it
(``record_reference.py``).  A run's ``--seed`` picks which pool items run and
in which order: each stratum of the pool is shuffled with the seed, and the
run walks a fixed stratum pattern, so the mix of query kinds is the same in
every run while the items differ from seed to seed.

This module imports only the standard library; the library under test is
passed in as ``ts`` by the caller, after it has imported it.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import random
import statistics
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"
POOL_SEED = 180102999

WORKLOADS = ("approx-ladder", "validate-scatter", "cli-cold")

#: Percentile reported as ``latency_tail_ms``: the highest of 50, 75, 90,
#: 99, 99.9 that keeps at least ten samples beyond it in a run at the
#: recording commit (see README).
TAIL_PERCENTILE = {"approx-ladder": 99.9, "validate-scatter": 99.0, "cli-cold": 75.0}

# approx-ladder: half-decade n ladder from 1e1 to 1e8, series mode at three
# of its points for the built-in pairs, log_asymptote once per config.
LADDER = tuple(10.0 ** (k / 2) for k in range(2, 17))
SERIES_N = (1e2, 1e4, 1e6)
LADDER_PATTERN = tuple(f"{k}-{r}" for k in ("pg", "gp", "vg") for r in ("fast", "slow", "single"))

# validate-scatter: every query runs approximation + exact oracle + is_tail;
# the stratum adds plain MC, the Edgeworth diagnostic or the pi_* family.
IS_SAMPLES = 20_000
MC_SAMPLES = 20_000
EDGE_POINTS = 49
#: reproduce_tables runs with every TABLES_EVERY-th query, which is always a
#: base-pg query (position 0 of the pattern).
TABLES_EVERY = 20
#: Worker threads of is_tail, plain_mc_tail and reproduce_tables.  One: on a
#: shared two-core machine two threads made the run-to-run spread of the
#: timings exceed their bounds (see README).
SCATTER_WORKERS = 1
SCATTER_PATTERN = (
    "base-pg", "base-gp", "mc-pg", "pi-pg", "base-pg",
    "base-gp", "mc-gp", "pi-gp", "edge-pg", "edge-gp",
)

# cli-cold: one `python -m twoscale.cli` process per query.
CLI_PATTERN = (
    "approx-inline", "approx-model", "oracle-exact", "approx-inline", "approx-model",
    "oracle-is", "approx-inline", "approx-model", "overdispersion", "bad-u",
    "approx-inline", "approx-model", "oracle-exact", "approx-inline", "approx-model",
    "oracle-is", "edgeworth", "overdispersion", "tables", "bad-n",
)
CLI_IS_SAMPLES = 2_000

#: Relative tolerance on log values, the acceptance suite's
#: expansion-consistency tolerance.
REL_TOL = 1e-9
_LOG_TINY = math.log(5e-324)

PATTERNS = {
    "approx-ladder": LADDER_PATTERN,
    "validate-scatter": SCATTER_PATTERN,
    "cli-cold": CLI_PATTERN,
}


# --- pools and run order ---------------------------------------------------


def pool_path(workload: str) -> Path:
    return DATA_DIR / f"{workload}.json.gz"


def load_pool(workload: str) -> dict:
    with gzip.open(pool_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_pool(workload: str, pool: dict) -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    text = json.dumps(pool, separators=(",", ":"), sort_keys=True)
    with gzip.GzipFile(pool_path(workload), "wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))


class RunOrder:
    """Endless stream of (position, stratum, index, item) for a run.

    Position p takes the next item of stratum ``pattern[p % len(pattern)]``;
    each stratum is shuffled by the seed.  ``wrapped`` counts how often a
    stratum was used up and restarted, which happens only when a run needs
    more items than the pool holds.
    """

    def __init__(self, workload: str, strata: dict, seed: int) -> None:
        rng = random.Random(f"{workload}:{seed}")
        self.perms = {}
        for name in sorted(strata):
            perm = list(range(len(strata[name])))
            rng.shuffle(perm)
            self.perms[name] = perm
        self.strata = strata
        self.pattern = PATTERNS[workload]
        self.wrapped = 0

    def __iter__(self):
        cursor = {name: 0 for name in self.strata}
        p = 0
        while True:
            name = self.pattern[p % len(self.pattern)]
            perm = self.perms[name]
            c = cursor[name]
            if c == len(perm):
                c = 0
                self.wrapped += 1
            cursor[name] = c + 1
            yield p, name, perm[c], self.strata[name][perm[c]]
            p += 1


# --- models -----------------------------------------------------------------


def mean_product(spec: dict) -> float:
    """a*b, the mean of C_n / n."""
    if spec["kind"] == "pg":
        return spec["lam"] * spec["r"] / spec["mu"]
    if spec["kind"] == "gp":
        return spec["r"] / spec["mu"] * spec["lam"]
    return spec["drift"] * spec["r"] / spec["mu"]


def _brownian_with_drift(drift: float, var: float):
    def derivs(t: float, order: int) -> float:
        if order == 0:
            return drift * t + 0.5 * var * t * t
        if order == 1:
            return drift + var * t
        if order == 2:
            return var
        return 0.0

    return derivs


def _gamma_subordinator(shape: float, rate: float):
    def derivs(t: float, order: int) -> float:
        if order == 0:
            return shape * math.log(rate / (rate - t))
        return shape * math.factorial(order - 1) / (rate - t) ** order

    return derivs


def build_model(ts, spec: dict):
    """ModelPair for a spec: pg/gp are the built-ins, vg the custom
    variance-gamma pair (Brownian motion with drift on a Gamma clock)."""
    kind = spec["kind"]
    ce = ts.CharExponent
    if kind == "pg":
        return ts.ModelPair(ce.poisson(spec["lam"]), ce.gamma(spec["r"], spec["mu"]))
    if kind == "gp":
        return ts.ModelPair(ce.gamma(spec["r"], spec["mu"]), ce.poisson(spec["lam"]))
    return ts.ModelPair(
        ce.custom(_brownian_with_drift(spec["drift"], spec["var"])),
        ce.custom(_gamma_subordinator(spec["r"], spec["mu"]), domain_sup=spec["mu"]),
    )


def regime_of(f: float) -> str:
    return "fast" if f > 1 else ("slow" if f < 1 else "single")


def uses_lattice(spec: dict, regime: str) -> bool:
    """The CLI's automatic rule: lattice prefactor when the regime's process
    (A when fast, B when slow) is Poisson."""
    return (spec["kind"], regime) in (("pg", "fast"), ("gp", "slow"))


# --- output checks -----------------------------------------------------------


def log_matches(value: float, ref: float) -> bool:
    """Log values at REL_TOL relative (absolute below |ref| = 1).

    A reference of -inf is the seed's underflow of a probability that is
    below the float range; a finite value under log(5e-324) is accepted
    there too, so a log-space fix of that defect does not count as a failure.
    """
    if math.isnan(ref):
        return math.isnan(value)
    if ref == -math.inf:
        return value == -math.inf or value < _LOG_TINY
    if not math.isfinite(ref):
        return value == ref
    return abs(value - ref) <= REL_TOL * max(abs(ref), 1.0)


def value_matches(value: float, ref: float) -> bool:
    """Linear-scale values (probabilities) at REL_TOL relative; 0, inf, nan exact."""
    if math.isnan(ref):
        return math.isnan(value)
    if ref == 0.0 or not math.isfinite(ref):
        return value == ref
    return abs(value - ref) <= REL_TOL * abs(ref)


def outputs_match(got: list, expect: list) -> bool:
    """``got``/``expect`` are lists of [kind, value] with kind "log", "lin" or "eq"."""
    if len(got) != len(expect):
        return False
    for (kg, vg), (ke, ve) in zip(got, expect):
        if kg != ke:
            return False
        if ke == "log":
            ok = log_matches(vg, ve)
        elif ke == "lin":
            ok = value_matches(vg, ve)
        else:
            ok = vg == ve
        if not ok:
            return False
    return True


class Tally:
    """Operations attempted and failed in a run, each counted once.

    A run may repeat an operation (``approx-ladder`` starts its pool again
    when one pass takes less than ``--seconds``), so every distinct operation keeps its worst verdict and counts as
    one attempt and at most one failure.  The counts then depend on which
    operations ran, not on how many repeats the run had time for.  ``calls``
    counts every call, repeats included.

    ``add`` takes the verdict and a key ``(stratum, slot, slots)``: the
    operation's slot among the ``slots`` operations of its stratum.
    """

    _CODE = {"ok": 1, "known": 2, "fail": 3}

    def __init__(self) -> None:
        self.calls = self.attempted = self.failed = self.known = 0
        self._worst = {}  # stratum -> one verdict code per slot, 0 = not run

    def add(self, verdict: str, key) -> None:
        stratum, slot, slots = key
        worst = self._worst.get(stratum)
        if worst is None:
            worst = self._worst[stratum] = bytearray(slots)
        self.calls += 1
        old, new = worst[slot], self._CODE[verdict]
        if new <= old:
            return
        worst[slot] = new
        self.attempted += old == 0
        self.failed += old < 2 <= new
        self.known += (new == 2) - (old == 2)

    def as_dict(self) -> dict:
        return {"calls": self.calls, "attempted": self.attempted, "failed": self.failed, "known": self.known}


def min_calls(workload: str, pool: dict) -> int:
    """Calls a timed run makes at least, even past ``--seconds``.

    approx-ladder makes every call of its pool once, so that ``attempted``
    and ``failed`` are the pool's whatever the machine's speed.  The others
    make enough calls to keep ten samples beyond their tail percentile.
    """
    if workload == "approx-ladder":
        return pool_operations(pool)
    return math.ceil(10 / (1 - TAIL_PERCENTILE[workload] / 100.0))


def latency_summary(latencies, workload: str) -> dict:
    """Median, the workload's tail percentile (nearest rank) and the number
    of samples beyond it; latencies in seconds."""
    ordered = sorted(latencies)
    rank = max(math.ceil(TAIL_PERCENTILE[workload] / 100.0 * len(ordered)), 1)
    return {"p50_s": statistics.median(ordered), "tail_s": ordered[rank - 1],
            "tail_beyond": len(ordered) - rank}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- approx-ladder -------------------------------------------------------------


#: Tally slots per config: at most one per call of ``ladder_calls``.
LADDER_SLOTS = len(LADDER) + len(SERIES_N) + 1


def ladder_calls(item: dict) -> list:
    """(op, n) pairs of one config: direct over the ladder, then series, then
    log_asymptote."""
    regime = regime_of(item["f"])
    calls = [("direct", n) for n in LADDER]
    if item["model"]["kind"] != "vg" and regime != "single":
        calls += [("series", n) for n in SERIES_N]
    calls.append(("log_asymptote", None))
    return calls


def pool_operations(pool: dict) -> int:
    """Operations in an approx-ladder pool: the calls of all its configs."""
    return sum(len(item["expect"]) for items in pool["strata"].values() for item in items)


def ladder_call(ts, model, scaling, item: dict, op: str, n):
    regime = regime_of(item["f"])
    u = item["u"]
    if op == "log_asymptote":
        per_n, per_phi = ts.log_asymptote(model, scaling, u)
        return per_n if per_n is not None else per_phi
    if regime == "single":
        return ts.approx_single_timescale(model, n, u).log_value
    fn = ts.approx_fast if regime == "fast" else ts.approx_slow
    lattice = uses_lattice(item["model"], regime)
    return fn(model, scaling, n, u, mode=op, lattice=lattice).log_value


# --- validate-scatter ----------------------------------------------------------


def scatter_query(ts, item: dict, workers: int) -> list:
    """One oracle cross-validation query; returns [kind, value] outputs."""
    spec, f, n, u = item["model"], item["f"], item["n"], item["u"]
    model = build_model(ts, spec)
    scaling = ts.PowerScaling(f)
    regime = regime_of(f)
    out = []
    if regime == "single":
        est = ts.approx_single_timescale(model, n, u)
    else:
        fn = ts.approx_fast if regime == "fast" else ts.approx_slow
        est = fn(model, scaling, n, u, lattice=uses_lattice(spec, regime))
    out.append(["log", est.log_value])

    wm = ts.WorkedModel.from_pair(model)
    law = ts.exact_law(wm, scaling, n)
    threshold = item["t_ratio"] * mean_product(spec) * n
    if spec["kind"] == "pg":
        res = ts.negbin_tail(law.successes, law.p, math.ceil(threshold - 1e-9))
    else:
        res = ts.compound_poisson_gamma_tail(law.rate, law.jump_shape, law.jump_rate, threshold)
    out.append(["log", res.log_probability])

    res = ts.is_tail(model, scaling, n, u, IS_SAMPLES, item["seed"], workers=workers)
    out += [["eq", res.probability], ["eq", res.error.std_error]]

    extra = item.get("extra")
    if extra is None:
        return out
    if extra["kind"] == "mc":
        u_mc = extra["ratio"] * mean_product(spec)
        res = ts.plain_mc_tail(model, scaling, n, u_mc, MC_SAMPLES, item["seed"] + 1, workers=workers)
        out += [["eq", res.probability], ["eq", res.error.std_error]]
    elif extra["kind"] == "edge":
        diag = ts.diagnostic(model, scaling, n, u, points=EDGE_POINTS)
        out += [["lin", diag.sup_gap], ["eq", len(diag.rows)]]
    else:
        q = ts.ArrivalQuery(extra["K"], extra["u_bar"], extra["mu_bar"])
        out.append(["log", ts.pi_exact(q).log_probability])
        out += [["lin", fn(q)] for fn in (
            ts.pi_pois, ts.pi_gamma, ts.pi_fast, ts.pi_slow, ts.pi_hat_fast, ts.pi_hat_slow
        )]
    return out


def tables_outputs(ts, workers: int) -> list:
    t1, t2 = ts.reproduce_tables(workers=workers)
    return [["lin", v] for table in (t1, t2) for row in table.rows for v in row]


# --- cli-cold ----------------------------------------------------------------------


def cli_outcome_matches(code: int, stdout: bytes, files: dict, expect: dict) -> bool:
    if code != expect["exit"] or sha256(stdout) != expect["stdout"]:
        return False
    return all(files.get(name) == digest for name, digest in expect.get("files", {}).items())


def cli_verdict(code: int, stdout: bytes, files: dict, item: dict) -> str:
    """"ok"; "known" when the call reproduces the seed defect recorded for
    it; else "fail"."""
    if cli_outcome_matches(code, stdout, files, item["expect"]):
        return "ok"
    known = item.get("known_defect")
    if known and cli_outcome_matches(code, stdout, files, known):
        return "known"
    return "fail"


def write_cli_inputs(item: dict, work: Path) -> None:
    for name, text in item.get("inputs", {}).items():
        (work / name).write_text(text)


def read_cli_files(item: dict, work: Path) -> dict:
    out = {}
    for name in item["expect"].get("files", {}):
        path = work / name
        out[name] = sha256(path.read_bytes()) if path.exists() else None
    return out


# --- warm-up inputs (fixed, seed-independent) --------------------------------

#: The reference query: Poisson(1) on Gamma(1, 3), f = 1.5, n = 400, u = 1.0.
REFERENCE_QUERY = {"model": {"kind": "pg", "lam": 1.0, "r": 1.0, "mu": 3.0}, "f": 1.5, "n": 400.0, "u": 1.0}

WARMUP_LADDER = (
    {"model": {"kind": "pg", "lam": 1.0, "r": 1.0, "mu": 3.0}, "f": 1.5, "u": 1.0},
    {"model": {"kind": "gp", "r": 1.0, "mu": 2.0, "lam": 1.0}, "f": 0.6, "u": 1.5},
    {"model": {"kind": "vg", "drift": 1.0, "var": 1.0, "r": 1.0, "mu": 2.0}, "f": 1.0, "u": 1.5},
)

WARMUP_SCATTER = (
    {"model": {"kind": "pg", "lam": 1.0, "r": 1.0, "mu": 3.0}, "f": 1.5, "n": 400.0, "u": 1.0,
     "t_ratio": 3.0, "seed": 1, "extra": {"kind": "mc", "ratio": 1.0}},
    {"model": {"kind": "gp", "r": 1.0, "mu": 2.0, "lam": 1.0}, "f": 0.6, "n": 300.0, "u": 1.5,
     "t_ratio": 0.95, "seed": 2, "extra": {"kind": "edge"}},
    {"model": {"kind": "pg", "lam": 1.0, "r": 1.0, "mu": 3.0}, "f": 1.0, "n": 100.0, "u": 1.0,
     "t_ratio": 3.0, "seed": 3, "extra": {"kind": "pi", "K": 1000, "u_bar": 150.0, "mu_bar": 10.0}},
)

WARMUP_CLI_ARGV = ("approx", "--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "400", "--u", "1.0")
