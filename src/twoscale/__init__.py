"""Exact tail asymptotics for two-timescale subordinated Levy models.

The library evaluates P(A(psi_n B(phi_n)) >= u n) for a Levy process A run on
the clock of a subordinator B, with power-law timescales phi_n = n**f and
psi_n = n**(1-f).  It provides the tilting-equation solver and twisting
expansions, the fast/slow/single-timescale tail approximations (lattice and
non-lattice), Edgeworth diagnostics for the tilted law, exact and Monte Carlo
oracles, and the overdispersed-arrival application with its reference tables.
"""

from importlib import import_module as _import_module

from .asymptotics import *
from .errors import *
from .levy import *
from .models import *
from .twist import *

# The modules above are pure Python.  The three below need numpy and scipy,
# which take most of the package's import time, so their names are resolved
# on first use (PEP 562) and then cached in this module's globals.
_LAZY = {
    name: module
    for module, names in (
        ("edgeworth", (
            "EdgeworthDiagnostic", "EdgeworthExpansion", "build_expansion", "diagnostic",
            "hermite", "standardization", "tilted_cdf_approx", "tilted_negbin_cdf",
        )),
        ("oracle", (
            "OracleResult", "RigorousBound", "StatisticalBound", "compound_poisson_gamma_tail",
            "is_tail", "negbin_tail", "plain_mc_tail",
        )),
        ("overdispersion", (
            "ApproxTable", "ArrivalQuery", "pi_exact", "pi_fast", "pi_gamma", "pi_hat_fast",
            "pi_hat_slow", "pi_pois", "pi_slow", "reproduce_tables",
        )),
    )
    for name in names
}


_LAZY_MODULES = frozenset(_LAZY.values())


def __getattr__(name: str):
    # Importing a submodule binds it as an attribute of this package.
    if name in _LAZY_MODULES:
        return _import_module(f".{name}", __name__)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY) | _LAZY_MODULES)


__version__ = "0.1.0"

# The public names are those of each module's ``__all__``; the lazy table
# stands in for the modules that would import numpy if their list were read.
__all__ = [
    *asymptotics.__all__,
    *errors.__all__,
    *levy.__all__,
    *models.__all__,
    *twist.__all__,
    *_LAZY,
]
