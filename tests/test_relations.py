"""Relation ratchet: pg and gp twins that the law of ``C_n`` makes equal.

Two scale relations hold exactly in the maths, so each twin must answer as
its partner does, to rounding (metamorphic testing; Chen, Cheung & Yiu 1998):

* pg: under a Poisson outer process the law depends on ``lam / mu`` alone, so
  pg(lam, r, mu) at u is pg(c lam, r, c mu) at u;
* gp: ``c A`` is Gamma(r, mu / c), so Gamma(r, mu) on Poisson(lam) at u is
  Gamma(r, mu / c) on Poisson(lam) at c u.

A fixed, seeded grid draws twins in 12 strata: (pg, gp) x (fast, slow, f = 1)
x (n <= 1e6, n > 1e6), with params in 10^+-0.5, u / (ab) in [1.2, 3], n in
[1e1, 1e8] and c in 10^+-1.  Each twin compares ``log_value`` in direct mode,
in series mode (fast and slow only) and ``log_asymptote``; the measure is
``|a - b| / max(|a|, 1)``.  Each stratum's largest measure must stay within
its ceiling in ``relation_ceilings.json``, set by the witness ratchet's rule
(``conftest.ceiling``).  A change may lower a ceiling, never raise one;
``check_witness_ceilings.py`` enforces that against a base commit.

Left for later slices: the vg relations (which cannot see the Gamma value's
rounding, since ``mu / (mu - t)`` does not change under them) and the exact
oracles.

Run this file as a script to write the ceilings file: a new stratum gets its
current error, and an existing one keeps the lower of its ceiling and that.
"""

import json
import random
from pathlib import Path

import pytest

from twoscale import (
    PowerScaling, TwoscaleError, approx_fast, approx_single_timescale, approx_slow, log_asymptote,
)
from conftest import gp_pair, pg_pair, write_ceilings

CEILINGS = Path(__file__).with_name("relation_ceilings.json")
SEED = 20
TWINS = 160  #: per stratum
F_RANGES = {"fast": (1.1, 2.9), "slow": (0.1, 0.9), "single": (1.0, 1.0)}
LOG10_N = {"n-le-1e6": (1.0, 6.0), "n-gt-1e6": (6.0, 8.0)}


def _strata() -> dict:
    """Each stratum's definition, keyed by id."""
    return {
        f"{pair}-{regime}-{band}": {"pair": pair, "regime": regime, "log10_n": list(LOG10_N[band]),
                                    "twins": TWINS, "seed": SEED}
        for pair in ("pg", "gp") for regime in F_RANGES for band in LOG10_N
    }


def _twins(stratum: dict) -> list:
    """The stratum's twins: two (model, f, n, u) queries each, equal in law."""
    rng = random.Random(json.dumps(stratum, sort_keys=True))  # a str seed is hashed the same on every run
    twins = []
    for _ in range(stratum["twins"]):
        x, y, z = (10.0 ** rng.uniform(-0.5, 0.5) for _ in range(3))
        f = rng.uniform(*F_RANGES[stratum["regime"]])
        n = 10.0 ** rng.uniform(*stratum["log10_n"])
        c = 10.0 ** rng.uniform(-1.0, 1.0)
        if stratum["pair"] == "pg":  # x, y, z = lam, r, mu
            u = x * y / z * rng.uniform(1.2, 3.0)
            twins.append(((pg_pair(x, y, z), f, n, u), (pg_pair(c * x, y, c * z), f, n, u)))
        else:  # x, y, z = r, mu, lam
            u = x / y * z * rng.uniform(1.2, 3.0)
            twins.append(((gp_pair(x, y, z), f, n, u), (gp_pair(x, y / c, z), f, n, c * u)))
    return twins


def _outputs(model, f: float, n: float, u: float) -> list | str:
    """Direct ``log_value``, series ``log_value`` (fast and slow) and the log-asymptotic rate,
    or the name of the TwoscaleError the query raises."""
    scaling = PowerScaling(f)
    try:
        if f == 1.0:
            values = [approx_single_timescale(model, n, u).log_value]
        else:
            approx = approx_fast if f > 1.0 else approx_slow
            values = [approx(model, scaling, n, u, mode=mode).log_value for mode in ("direct", "series")]
        per_n, per_phi = log_asymptote(model, scaling, u)
    except TwoscaleError as exc:
        return type(exc).__name__
    return values + [per_phi if per_n is None else per_n]


def _error(stratum: dict) -> float:
    """The largest ``|a - b| / max(|a|, 1)`` over the stratum's twins and outputs.

    Twins that raise must raise alike: two gp-slow twins with n > 1e6 stall
    in the twist solve today, both of them.
    """
    worst = 0.0
    for query, twin in _twins(stratum):
        mine, theirs = _outputs(*query), _outputs(*twin)
        if isinstance(mine, str) or isinstance(theirs, str):
            assert mine == theirs, f"twins at (f, n, u) {query[1:]} and {twin[1:]} read {mine} and {theirs}"
            continue
        worst = max(worst, *(abs(a - b) / max(abs(a), 1.0) for a, b in zip(mine, theirs)))
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
