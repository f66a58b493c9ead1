"""Shared builders and comparison helpers."""

import json
import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import strategies as st

from twoscale import CharExponent, ModelPair


def pg_pair(lam: float, r: float, mu: float) -> ModelPair:
    """Poisson(lam) outer process on a Gamma(r, mu) clock."""
    return ModelPair(CharExponent.poisson(lam), CharExponent.gamma(r, mu))


def gp_pair(r: float, mu: float, lam: float) -> ModelPair:
    """Gamma(r, mu) outer process on a Poisson(lam) clock."""
    return ModelPair(CharExponent.gamma(r, mu), CharExponent.poisson(lam))


def vg_pair(drift: float, var: float, r: float, mu: float) -> ModelPair:
    """Brownian motion with drift on a Gamma(r, mu) clock, both as user code (custom exponents)."""
    def bm(t, order):
        return (drift * t + 0.5 * var * t * t, drift + var * t, var, 0.0)[order]

    def gamma(t, order):
        if order == 0:
            return r * math.log(mu / (mu - t))
        return r * math.factorial(order - 1) / (mu - t) ** order

    return ModelPair(CharExponent.custom(bm), CharExponent.custom(gamma, domain_sup=mu))


def rare_grid():
    """24 parameter sets (lam, r, mu, u) with u/(a*b) spanning [1.1, 5]."""
    sets = []
    for lam, r, mu, ratio in product((0.6, 1.0, 1.7), (0.5, 1.3), (1.8, 3.2), (1.1, 5.0)):
        sets.append((lam, r, mu, ratio * lam * r / mu))
    return sets


RARE_GRID = rare_grid()


def log_uniform(lo: float, hi: float):
    """Hypothesis floats between ``lo`` and ``hi``, uniform in their log10."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*argv: str, timeout: float = 60.0, env=None) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh interpreter with ``src/`` on its path.

    The child's environment is ``env`` (this process's by default) with
    ``src/`` put first on ``PYTHONPATH``.  A run that outlives ``timeout``
    seconds is killed and fails the test with ``subprocess.TimeoutExpired``.
    """
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def count_derivs(monkeypatch, *models) -> list:
    """Count every exponent evaluation from now on; read ``calls[0]``.

    One evaluation is one ``deriv`` or one ``jet`` call, on the exponents of
    ``models`` and on every exponent built from now on.  ``deriv`` reads the
    jet, so the jet alone is wrapped and a ``deriv`` counts once.
    """
    calls = [0]

    def counted(fn):
        def counting(*args):
            calls[0] += 1
            return fn(*args)

        return counting

    def instrument(exponent):
        monkeypatch.setitem(vars(exponent), "jet", counted(exponent.jet))

    post_init = CharExponent.__post_init__

    def counting_post_init(self):
        post_init(self)
        instrument(self)

    monkeypatch.setattr(CharExponent, "__post_init__", counting_post_init)
    for model in models:
        instrument(model.A)
        instrument(model.B)
    return calls


_SPEC = '{"A": {"kind": "poisson", "lambda": %s}, "B": {"kind": "gamma", "r": 1, "mu": 2}, "f": %s}'

#: Model sources that ``load_model`` refuses with ParamError (the CLI exits 2
#: on each): file bytes, or None where ``malformed_model`` builds the path.
MALFORMED_MODELS = {
    "name-too-long": None,
    "directory": None,
    "not-utf8": b'\xff\xfe{"f": 1.5}',
    "lambda-abc": (_SPEC % ('"abc"', "1.5")).encode(),
    "lambda-null": (_SPEC % ("null", "1.5")).encode(),
    "f-x": (_SPEC % ("1", '"x"')).encode(),
    "lambda-list": (_SPEC % ("[1.0]", "1.5")).encode(),
    # float() reads a numeric string and a bool, and json reads Infinity.
    "f-string-number": (_SPEC % ("1", '"1.5"')).encode(),
    "d-true": (_SPEC % ('1, "d": true', "1.5")).encode(),
    "lambda-infinity": (_SPEC % ("Infinity", "1.5")).encode(),
    "mu-past-float": (_SPEC % ("1", "1.5")).replace('"mu": 2', '"mu": 1' + "0" * 400).encode(),
    "not-an-object": b"5",
}


def malformed_model(tmp_path: Path, case: str) -> str:
    """The path of the ``MALFORMED_MODELS`` source named ``case``, under ``tmp_path``."""
    if case == "name-too-long":
        return str(tmp_path / ("m" * 300 + ".json"))
    if case == "directory":
        return str(tmp_path)
    path = tmp_path / "model.json"
    path.write_bytes(MALFORMED_MODELS[case])
    return str(path)


#: The least ceiling of a ratchet, so that libm's last bits cannot fail it.
FLOOR = 1e-14


def ceiling(err: float) -> float:
    """A ratchet's ceiling for ``err``: rounded up to two significant digits, and at least :data:`FLOOR`.

    An infinite ``err`` (a point with no finite reference yet) keeps the ceiling +inf.
    """
    if not err > FLOOR:
        return FLOOR
    if err == math.inf:
        return err
    e = math.floor(math.log10(err)) - 1
    m = math.ceil(err / 10.0 ** e)
    while float(f"{m}e{e}") < err:
        m += 1
    return float(f"{m}e{e}")


def write_ceilings(path: Path, entries: dict, error, old: dict) -> None:
    """Write a ratchet file: each entry of ``entries`` with the ceiling of
    ``error(entry)``, or with its ceiling in ``old`` where that is lower."""
    lines = []
    for key, entry in entries.items():
        top = ceiling(error(entry))
        if key in old:
            top = min(top, old[key]["ceiling"])
        lines.append(f"  {json.dumps(key)}: {json.dumps({**entry, 'ceiling': top})}")
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(entries)} ceilings to {path}")


def matches_displayed(computed: float, displayed: float) -> bool:
    """Agreement with a 3-significant-digit reference value.

    Tolerates one unit in the third significant digit, which covers both
    round-half and truncate conventions in the reference display.
    """
    if displayed == 0:
        return computed == 0
    ulp = 10.0 ** (math.floor(math.log10(abs(displayed))) - 2)
    return abs(computed - displayed) <= 1.0000001 * ulp


def assert_displayed(computed: float, displayed: float, label: str = "") -> None:
    assert matches_displayed(computed, displayed), (
        f"{label}: computed {computed:.6e} does not display as {displayed:.3e}"
    )


@pytest.fixture
def pg113():
    return pg_pair(1.0, 1.0, 3.0)


@pytest.fixture
def pg112():
    return pg_pair(1.0, 1.0, 2.0)


@pytest.fixture
def gp121():
    return gp_pair(1.0, 2.0, 1.0)
