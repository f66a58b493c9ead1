"""Relation ratchet: twins that the law of ``C_n`` makes equal.

Scale relations hold exactly in the maths, so each twin must answer as its
partner does, to rounding (metamorphic testing; Chen, Cheung & Yiu 1998):

* pg: under a Poisson outer process the law depends on ``lam / mu`` alone, so
  pg(lam, r, mu) at u is pg(c lam, r, c mu) at u;
* gp: ``c A`` is Gamma(r, mu / c), so Gamma(r, mu) on Poisson(lam) at u is
  Gamma(r, mu / c) on Poisson(lam) at c u;
* vg time (Brownian motion with drift d and variance v on a Gamma(r, mu)
  clock, as custom exponents): vg(d, v, r, mu) at u is vg(c d, c v, r, c mu)
  at u, since the clock runs c times slower and the motion c times faster;
* vg space: ``c A`` is the motion with drift c d and variance c^2 v, so
  vg(d, v, r, mu) at u is vg(c d, c^2 v, r, mu) at c u.

A fixed, seeded grid draws twins in 24 approximation strata: (pg, gp, vg
time, vg space) x (fast, slow, f = 1) x (n <= 1e6, n > 1e6), with params in
10^+-0.5, u / (ab) in [1.2, 3], n in [1e1, 1e8] and c in 10^+-1.  Each twin
compares ``log_value`` in direct mode, in series mode (pg and gp, fast and
slow only) and ``log_asymptote``.  Six more strata put the exact oracle,
``exact_law(...).tail(u n)``, under the pg and gp relations: (pg, gp) x
(fast, slow, f = 1), n in [1e1, 1e4] (10^2.5 for gp-fast, whose compound sum
grows with the count mean ``lam n^f``).  The measure is
``|a - b| / max(|a|, 1)``; twins that read an infinite log must read it
alike (the compound tail underflows to -inf deep in the tail).  Each
stratum's largest measure must stay within its ceiling in
``relation_ceilings.json``, set by the witness ratchet's rule
(``conftest.ceiling``).  A change may lower a ceiling, never raise one;
``check_witness_ceilings.py`` enforces that against a base commit.

The vg relations do see the Gamma value's rounding in
``r log(mu / (mu - t))`` unless c is a power of two: then ``c mu`` and
``c t`` scale exactly and the ratio keeps its bits, but any other c rounds
``c mu`` and the root on their own.  vg time, fast, n > 1e6 reads ~2e-3
today; with c drawn as powers of two the same stratum reads exactly 0.

Run this file as a script to write the ceilings file: a new stratum gets its
current error, and an existing one keeps the lower of its ceiling and that.
"""

import json
import math
import random
from pathlib import Path

import pytest

from twoscale import (
    PowerScaling, TwoscaleError, approx_fast, approx_single_timescale, approx_slow, exact_law, log_asymptote,
)
from conftest import gp_pair, pg_pair, vg_pair, write_ceilings

CEILINGS = Path(__file__).with_name("relation_ceilings.json")
SEED = 20
TWINS = {"pg": 160, "gp": 160, "vg-time": 60, "vg-space": 60, "exact": 40}  #: per stratum
F_RANGES = {"fast": (1.1, 2.9), "slow": (0.1, 0.9), "single": (1.0, 1.0)}
LOG10_N = {"n-le-1e6": (1.0, 6.0), "n-gt-1e6": (6.0, 8.0)}


def _strata() -> dict:
    """Each stratum's definition, keyed by id."""
    strata = {
        f"{pair}-{regime}-{band}": {"pair": pair, "regime": regime, "log10_n": list(LOG10_N[band]),
                                    "twins": TWINS[pair], "seed": SEED}
        for pair in ("pg", "gp", "vg-time", "vg-space") for regime in F_RANGES for band in LOG10_N
    }
    for pair in ("pg", "gp"):
        for regime in F_RANGES:
            top = 2.5 if (pair, regime) == ("gp", "fast") else 4.0
            strata[f"{pair}-{regime}-exact"] = {"pair": pair, "regime": regime, "log10_n": [1.0, top],
                                                "twins": TWINS["exact"], "seed": SEED, "oracle": "exact"}
    return strata


def _twins(stratum: dict) -> list:
    """The stratum's twins: two (model, f, n, u) queries each, equal in law."""
    rng = random.Random(json.dumps(stratum, sort_keys=True))  # a str seed is hashed the same on every run
    pair = stratum["pair"]
    twins = []
    for _ in range(stratum["twins"]):
        params = [10.0 ** rng.uniform(-0.5, 0.5) for _ in range(4 if pair.startswith("vg") else 3)]
        f = rng.uniform(*F_RANGES[stratum["regime"]])
        n = 10.0 ** rng.uniform(*stratum["log10_n"])
        c = 10.0 ** rng.uniform(-1.0, 1.0)
        if pair == "pg":  # lam, r, mu
            x, y, z = params
            u = x * y / z * rng.uniform(1.2, 3.0)
            twins.append(((pg_pair(x, y, z), f, n, u), (pg_pair(c * x, y, c * z), f, n, u)))
        elif pair == "gp":  # r, mu, lam
            x, y, z = params
            u = x / y * z * rng.uniform(1.2, 3.0)
            twins.append(((gp_pair(x, y, z), f, n, u), (gp_pair(x, y / c, z), f, n, c * u)))
        else:  # d, v, r, mu
            d, v, r, mu = params
            u = d * r / mu * rng.uniform(1.2, 3.0)
            twin = ((vg_pair(c * d, c * v, r, c * mu), f, n, u) if pair == "vg-time"
                    else (vg_pair(c * d, c * c * v, r, mu), f, n, c * u))
            twins.append(((vg_pair(d, v, r, mu), f, n, u), twin))
    return twins


def _outputs(model, f: float, n: float, u: float, oracle: bool) -> list | str:
    """The exact tail's log (``oracle``), or direct ``log_value``, series ``log_value``
    (pg and gp, fast and slow) and the log-asymptotic rate; or the name of the
    TwoscaleError the query raises."""
    scaling = PowerScaling(f)
    try:
        if oracle:
            return [exact_law(model, scaling, n).tail(u * n).log_probability]
        if f == 1.0:
            values = [approx_single_timescale(model, n, u).log_value]
        else:
            approx = approx_fast if f > 1.0 else approx_slow
            modes = ("direct",) if model.A.kind == "custom" else ("direct", "series")
            values = [approx(model, scaling, n, u, mode=mode).log_value for mode in modes]
        per_n, per_phi = log_asymptote(model, scaling, u)
    except TwoscaleError as exc:
        return type(exc).__name__
    return values + [per_phi if per_n is None else per_n]


def _error(stratum: dict) -> float:
    """The largest ``|a - b| / max(|a|, 1)`` over the stratum's twins and outputs.

    Twins that raise must raise alike: two gp-slow twins with n > 1e6 stall
    in the twist solve today, both of them.  Twins that read an infinite log
    must read the same one.
    """
    oracle = stratum.get("oracle") == "exact"
    worst = 0.0
    for query, twin in _twins(stratum):
        mine, theirs = _outputs(*query, oracle), _outputs(*twin, oracle)
        if isinstance(mine, str) or isinstance(theirs, str):
            assert mine == theirs, f"twins at (f, n, u) {query[1:]} and {twin[1:]} read {mine} and {theirs}"
            continue
        for a, b in zip(mine, theirs):
            if math.isinf(a) or math.isinf(b):
                assert a == b, f"twins at (f, n, u) {query[1:]} and {twin[1:]} read {a} and {b}"
                continue
            worst = max(worst, abs(a - b) / max(abs(a), 1.0))
    return worst


STRATA = _strata()
CEILED = json.loads(CEILINGS.read_text()) if CEILINGS.exists() else {}


def test_the_file_holds_the_strata():
    assert {k: {f: v for f, v in s.items() if f != "ceiling"} for k, s in CEILED.items()} == STRATA


@pytest.mark.parametrize("key", sorted(STRATA))
def test_twins_within_ceiling(key):
    assert _error(STRATA[key]) <= CEILED[key]["ceiling"]


if __name__ == "__main__":
    write_ceilings(CEILINGS, STRATA, _error, CEILED)
