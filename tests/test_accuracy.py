"""Accuracy ratchet: the direct ``log_value`` against the exact tail, for pg, gp and vg.

A fixed, seeded grid draws 10 queries in each stratum of (pg, gp, vg) x
(fast, slow, f = 1): params in [0.3, 3], u / (ab) in [1.2, 3] and n in
[1e1, 1e4] (10^2.5 for gp-fast, whose compound sum grows with the count mean
``lam n^f``).  Each query is the direct approximation under the CLI's lattice
rule, ``_approx(..., lattice=None)``: A's span when fast, B's when slow, off
at f = 1.  Its exact side is ``exact_law(...).tail(u n)`` for pg and gp and
:func:`vg_oracle.vg_log_tail` for vg (Brownian motion with drift on a Gamma
clock, as custom exponents).  The measure is ``|log_value - log P(C_n >= u n)|``
in nats, and each point's must stay within its ceiling in
``accuracy_ceilings.json``, set by the witness ratchet's rule
(``conftest.ceiling``).  A change may lower a ceiling, never raise one;
``check_witness_ceilings.py`` enforces that against a base commit.

The compound tail sums in linear space, so a gp tail below the float range
reads -inf (ROADMAP item 17).  Such a point is skipped, and its ceiling is
Infinity: no bound yet, which any finite ceiling lowers.

Run this file as a script to write the ceilings file: a new point gets its
current error, and an existing point keeps the lower of its ceiling and that.
"""

import json
import math
import random
from pathlib import Path

import pytest

from twoscale import PowerScaling, exact_law
from twoscale.asymptotics import _approx
from conftest import gp_pair, pg_pair, vg_pair, write_ceilings
from vg_oracle import vg_log_tail

CEILINGS = Path(__file__).with_name("accuracy_ceilings.json")
F_RANGES = {"fast": (1.1, 2.9), "slow": (0.1, 0.9), "single": (1.0, 1.0)}
PAIRS = {"pg": pg_pair, "gp": gp_pair, "vg": vg_pair}


def _grid() -> dict:
    """The queries, keyed by id: 10 per (pair, regime), drawn from one seed."""
    rng = random.Random(19)
    grid = {}
    for pair in PAIRS:
        for regime, f_range in F_RANGES.items():
            top = 2.5 if (pair, regime) == ("gp", "fast") else 4.0
            for i in range(10):
                params = [10.0 ** rng.uniform(math.log10(0.3), math.log10(3.0)) for _ in range(4 if pair == "vg" else 3)]
                f = rng.uniform(*f_range)
                n = 10.0 ** rng.uniform(1.0, top)
                # a b: pg lam r / mu; gp (r / mu) lam; vg d r / mu
                x, y, z = params[0], params[-2], params[-1]
                mean = x * y / z if pair != "gp" else x / y * z
                u = mean * rng.uniform(1.2, 3.0)
                grid[f"{pair}-{regime}-{i:02d}"] = {"pair": pair, "params": params, "f": f, "n": n, "u": u}
    return grid


def _logs(q: dict) -> tuple[float, float]:
    """(``log_value``, exact log P(C_n >= u n)) of a query."""
    model, scaling = PAIRS[q["pair"]](*q["params"]), PowerScaling(q["f"])
    f, n, u = q["f"], q["n"], q["u"]
    regime = "fast" if f > 1.0 else ("slow" if f < 1.0 else "single")
    approx = _approx(regime, model, scaling, n, u, "direct", None, None).log_value
    if q["pair"] == "vg":
        return approx, vg_log_tail(*q["params"], f, n, u * n)[0]
    return approx, exact_law(model, scaling, n).tail(u * n).log_probability


def _error(q: dict) -> float:
    """``|log_value - exact log P|`` in nats: +inf where the exact tail reads -inf."""
    approx, exact = _logs(q)
    return abs(approx - exact)


GRID = _grid()
POINTS = json.loads(CEILINGS.read_text()) if CEILINGS.exists() else {}


def test_the_file_holds_the_grid():
    assert {k: {f: v for f, v in p.items() if f != "ceiling"} for k, p in POINTS.items()} == GRID


@pytest.mark.parametrize("key", sorted(GRID))
def test_log_value_within_ceiling(key):
    approx, exact = _logs(GRID[key])
    if exact == -math.inf:
        pytest.skip("the exact tail underflows to -inf (ROADMAP item 17)")
    assert abs(approx - exact) <= POINTS[key]["ceiling"]


if __name__ == "__main__":
    write_ceilings(CEILINGS, GRID, _error, POINTS)
