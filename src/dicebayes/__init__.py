"""Posterior distributions for die throws conditional on an observed average.

Given that N throws of a die averaged a pips, what plausibility should be
assigned to each face for one of those throws ("old") or for a further,
exchangeable throw ("new")? This package answers that question exactly for the
fair-throw and Johnson (Dirichlet) exchangeable models, numerically for the
multiplicity model, and in the large-N limit via slice integrals (Johnson by
Fourier inversion, multiplicity on a lattice, each with an error bound) and
constrained entropy maximization (Shannon, Burg, and minimum divergence from a
base distribution).

Importing the package loads nothing else: each public name imports its submodule
on first access (PEP 562). The domain types, the reference tables and the CLI's
parser need no numpy, so `dicebayes --help` and usage errors load none; numpy
loads with the first computation. Nothing loads scipy: ln Gamma and ln c! come
from `engine`, the roots from a port of Brent's method in `maxent`.

Modules: `router` routes a `Query` to the closed forms (`exact_models`), the
multiplicity lattices and the large-N slices (`multiplicity_model`) or the
max-ent families (`maxent`); the closed forms and the lattices share one
engine (`engine`); `simplex_integration` is the Monte Carlo reference.
"""

import importlib

# each public name, by the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "core": "Average BudgetExhausted ContradictoryData DegenerateWeights Distribution Exact "
            "FairThrow Johnson LargeN MaxEnt Multiplicity PosteriorResult Query NEW OLD "
            "shannon_entropy",
    "exact_models": "fair_posterior generalized_johnson_posterior johnson_posterior",
    "maxent": "MaxentSolution maxent_burg maxent_shannon min_kl",
    "multiplicity_model": "generalized_multiplicity_posterior johnson_large_n "
                          "multiplicity_large_n multiplicity_posterior",
    "router": "posterior",
    "reference": "ReferenceCell ReferenceRow ReferenceTable load_reference_tables",
    "simplex_integration": "sample_simplex_uniform",
}.items() for name in names.split()}
_SUBMODULES = ("combinatorics", "core", "engine", "exact_models", "maxent",
               "multiplicity_model", "reference", "simplex_integration")

__all__ = sorted([*_EXPORTS, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
