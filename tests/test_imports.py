"""The package namespace and the CLI load numpy and scipy only where used.

Each check runs in a fresh interpreter: this test process has numpy loaded
already.
"""

import os

import pytest

from conftest import run_python

NO_NUMPY = (
    "import sys\n"
    "heavy = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))\n"
    "assert not heavy, heavy\n"
)


def test_core_api_runs_without_numpy():
    code = (
        "import twoscale as ts\n"
        "m = ts.ModelPair(ts.CharExponent.poisson(1.0), ts.CharExponent.gamma(1.0, 3.0))\n"
        "s = ts.PowerScaling(1.5)\n"
        "ts.approx_fast(m, s, 400.0, 1.0)\n"
        "ts.approx_fast(m, s, 400.0, 1.0, mode='series')\n"
        "ts.log_asymptote(m, s, 1.0)\n"
    ) + NO_NUMPY
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["approx", "--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "400", "--u", "1"], 0),
        (["approx", "--gamma-poisson", "1", "2", "1", "--f", "0.5", "--n", "400", "--u", "1",
          "--format", "text"], 0),
        (["approx", "--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "400", "--u", "0.2"], 2),
        (["approx", "--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "nan", "--u", "1"], 2),
        (["oracle", "--poisson-gamma", "1", "1", "3", "--f", "1.5", "--n", "nan", "--u", "1"], 2),
    ],
    ids=["json", "text", "not-rare", "nan-n", "oracle-nan-n"],
)
def test_cli_approx_never_imports_numpy(argv, exit_code):
    proc = run_python("-X", "importtime", "-m", "twoscale.cli", *argv)
    assert proc.returncode == exit_code, proc.stderr
    assert (proc.stdout != "") == (exit_code == 0)
    imported = _imported(proc.stderr)
    assert "twoscale.asymptotics" in imported
    assert not [m for m in imported if m.split(".")[0] in ("numpy", "scipy")]


@pytest.mark.parametrize("method", ["is", "mc"])
def test_cli_monte_carlo_loads_numpy_alone(method):
    proc = run_python("-X", "importtime", "-m", "twoscale.cli", "oracle", "--poisson-gamma", "1",
                      "1", "3", "--f", "1.5", "--n", "400", "--u", "1", "--method", method,
                      "--samples", "2000", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    tops = {m.split(".")[0] for m in _imported(proc.stderr)}
    assert "numpy" in tops and "scipy" not in tops


def test_cli_runs_blas_on_one_thread():
    # The caller's value is overwritten, not kept.
    code = (
        "import os\n"
        "from twoscale.cli import main\n"
        "assert main(['approx', '--poisson-gamma', '1', '1', '3', '--f', '1.5',"
        " '--n', '400', '--u', '1']) == 0\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '1', os.environ['OPENBLAS_NUM_THREADS']\n"
    )
    proc = run_python("-c", code, env={**os.environ, "OPENBLAS_NUM_THREADS": "4"})
    assert proc.returncode == 0, proc.stderr


def _imported(importtime_stderr: str) -> list:
    """The modules named by ``python -X importtime`` output."""
    return [
        line.rsplit("|", 1)[1].strip()
        for line in importtime_stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]


def test_every_public_name_resolves():
    code = (
        "import twoscale\n"
        + NO_NUMPY
        + "missing = [n for n in twoscale.__all__ if getattr(twoscale, n, None) is None]\n"
        "assert not missing, missing\n"
        "assert 'numpy' in sys.modules and 'scipy' in sys.modules\n"
        "assert twoscale.negbin_tail is twoscale.oracle.negbin_tail\n"
        "assert 'negbin_tail' in vars(twoscale)\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "module, name",
    [("oracle", "negbin_tail"), ("edgeworth", "diagnostic"), ("overdispersion", "pi_exact")],
)
def test_heavy_modules_resolve_as_attributes(module, name):
    code = (
        "import twoscale\n"
        + NO_NUMPY
        + f"mod = twoscale.{module}\n"
        f"assert mod.__name__ == 'twoscale.{module}'\n"
        f"assert callable(mod.{name})\n"
        "assert 'numpy' in sys.modules\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_dir_lists_every_public_name():
    code = (
        "import twoscale\n"
        "missing = (set(twoscale.__all__) | {'oracle', 'edgeworth', 'overdispersion'})"
        " - set(dir(twoscale))\n"
        "assert not missing, missing\n"
    ) + NO_NUMPY
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_star_import_binds_every_name():
    code = (
        "import twoscale\n"
        "ns = {}\n"
        "exec('from twoscale import *', ns)\n"
        "missing = set(twoscale.__all__) - set(ns)\n"
        "assert not missing, missing\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_unknown_attribute_raises():
    code = (
        "import twoscale\n"
        "try:\n"
        "    twoscale.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "assert not hasattr(twoscale, 'format_sig')\n"
    ) + NO_NUMPY
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_name_lists_agree_with_the_modules():
    # The lazy table is the one hand-written name list; it must match the
    # __all__ of the modules it stands in for.
    code = (
        "import importlib, twoscale\n"
        "for module in sorted(set(twoscale._LAZY.values())):\n"
        "    names = [n for n, m in twoscale._LAZY.items() if m == module]\n"
        "    mod = importlib.import_module(f'twoscale.{module}')\n"
        "    assert sorted(names) == sorted(mod.__all__), (module, set(names) ^ set(mod.__all__))\n"
        "assert len(twoscale.__all__) == len(set(twoscale.__all__))\n"
        "from twoscale.overdispersion import format_sig\n"
        "assert format_sig(0.0) == '0'\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
