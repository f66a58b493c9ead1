"""Shared builders and comparison helpers."""

import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from twoscale import CharExponent, ModelPair


def pg_pair(lam: float, r: float, mu: float) -> ModelPair:
    """Poisson(lam) outer process on a Gamma(r, mu) clock."""
    return ModelPair(CharExponent.poisson(lam), CharExponent.gamma(r, mu))


def gp_pair(r: float, mu: float, lam: float) -> ModelPair:
    """Gamma(r, mu) outer process on a Poisson(lam) clock."""
    return ModelPair(CharExponent.gamma(r, mu), CharExponent.poisson(lam))


def rare_grid():
    """24 parameter sets (lam, r, mu, u) with u/(a*b) spanning [1.1, 5]."""
    sets = []
    for lam, r, mu, ratio in product((0.6, 1.0, 1.7), (0.5, 1.3), (1.8, 3.2), (1.1, 5.0)):
        sets.append((lam, r, mu, ratio * lam * r / mu))
    return sets


RARE_GRID = rare_grid()

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*argv: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh interpreter with ``src/`` on its path.

    A run that outlives ``timeout`` seconds is killed and fails the test with
    ``subprocess.TimeoutExpired``.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


def count_derivs(monkeypatch, *models) -> list:
    """Count every exponent evaluation from now on; read ``calls[0]``.

    One evaluation is one ``deriv`` or one ``jet`` call, on the exponents of
    ``models`` and on every exponent built from now on.  Both calls end in
    an exponent's own evaluators (its ``jet``, or a custom exponent's
    ``derivs`` for ``deriv``), so those are wrapped: a ``deriv`` that reads
    a built-in jet counts once.
    """
    calls = [0]

    def counted(fn):
        def counting(*args):
            calls[0] += 1
            return fn(*args)

        return counting

    def instrument(exponent):
        state = vars(exponent)
        for name in ("jet", "_derivs"):
            monkeypatch.setitem(state, name, counted(state[name]))

    post_init = CharExponent.__post_init__

    def counting_post_init(self):
        post_init(self)
        instrument(self)

    monkeypatch.setattr(CharExponent, "__post_init__", counting_post_init)
    for model in models:
        instrument(model.A)
        instrument(model.B)
    return calls


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
