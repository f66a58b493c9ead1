"""Witness ratchet: the direct exponent of ~200 pg/gp queries against 50-digit witnesses.

Each point of a fixed, seeded grid (fast, slow and f = 1; n from 1e1 to 1e8;
u / (ab) from 1.2 to 3) is an ``approx_*`` query on a Poisson-on-Gamma (pg) or
Gamma-on-Poisson (gp) pair.  Its witness is ``gamma_n(theta_n) - theta_n u n``
in 50-digit ``mpmath``, at the closed-form twist of each pair.  The relative
error of the reported ``est.exponent`` must stay within the point's ceiling in
``witness_ceilings.json``: the error measured when the point was added,
rounded up to two significant digits and floored at 1e-14
(``conftest.ceiling``), so that libm's last bits cannot fail the test.  A
change may lower a ceiling, never raise one; ``check_witness_ceilings.py``
enforces that against a base commit.

Run this file as a script to write the ceilings file: a new point gets its
current error, and an existing point keeps the lower of its ceiling and that.
"""

import json
import random
from pathlib import Path

import mpmath
import pytest

from twoscale import PowerScaling, approx_fast, approx_single_timescale, approx_slow
from conftest import gp_pair, pg_pair, write_ceilings

CEILINGS = Path(__file__).with_name("witness_ceilings.json")


def _grid() -> dict:
    """The queries, keyed by id: 33 per (pair, regime), drawn from one seed."""
    rng = random.Random(13)
    grid = {}
    for pair in ("pg", "gp"):
        for regime, f_range in (("fast", (1.1, 2.9)), ("slow", (0.1, 0.9)), ("single", (1.0, 1.0))):
            for i in range(33):
                params = [10.0 ** rng.uniform(-0.7, 0.7) for _ in range(3)]
                f = rng.uniform(*f_range)
                n = 10.0 ** rng.uniform(1.0, 8.0)
                x, y, z = params  # pg: a b = lam r / mu; gp: a b = (r / mu) lam
                u = (x * y / z if pair == "pg" else x / y * z) * rng.uniform(1.2, 3.0)
                grid[f"{pair}-{regime}-{i:02d}"] = {"pair": pair, "params": params, "f": f, "n": n, "u": u}
    return grid


def _estimate(q: dict) -> float:
    model = (pg_pair if q["pair"] == "pg" else gp_pair)(*q["params"])
    f, n, u = q["f"], q["n"], q["u"]
    if f == 1.0:
        return approx_single_timescale(model, n, u).exponent
    approx = approx_fast if f > 1.0 else approx_slow
    return approx(model, PowerScaling(f), n, u).exponent


def _witness(q: dict) -> mpmath.mpf:
    """``gamma_n(theta_n) - theta_n u n`` at the closed-form twist, at mpmath's working precision."""
    f, n, u = (mpmath.mpf(q[k]) for k in ("f", "n", "u"))
    phi, psi = n ** f, n ** (1 - f)
    if q["pair"] == "pg":
        lam, r, mu = (mpmath.mpf(p) for p in q["params"])
        theta = mpmath.log1p((mu * u - lam * r) / (lam * r + lam * psi * u))
        gamma = phi * r * mpmath.log(mu / (mu - psi * lam * mpmath.expm1(theta)))
    else:
        r, mu, lam = (mpmath.mpf(p) for p in q["params"])
        rho = lam * r / (mu * u)
        theta = -mu * mpmath.expm1(mpmath.log(rho) / (1 + r * psi))
        gamma = phi * lam * mpmath.expm1(psi * r * mpmath.log(mu / (mu - theta)))
    return gamma - theta * u * n


def _rel_error(q: dict) -> float:
    """Relative error of ``est.exponent`` against the witness at 50 digits."""
    with mpmath.workdps(50):
        w = _witness(q)
        return float(abs(mpmath.mpf(_estimate(q)) - w) / abs(w))


GRID = _grid()
POINTS = json.loads(CEILINGS.read_text()) if CEILINGS.exists() else {}


def test_the_file_holds_the_grid():
    assert {k: {f: v for f, v in p.items() if f != "ceiling"} for k, p in POINTS.items()} == GRID


@pytest.mark.parametrize("key", sorted(GRID))
def test_error_within_ceiling(key):
    assert _rel_error(GRID[key]) <= POINTS[key]["ceiling"]


if __name__ == "__main__":
    write_ceilings(CEILINGS, GRID, _rel_error, POINTS)
