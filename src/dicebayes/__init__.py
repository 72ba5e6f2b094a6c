"""Posterior distributions for die throws conditional on an observed average.

Given that N throws of a die averaged a pips, what plausibility should be
assigned to each face for one of those throws ("old") or for a further,
exchangeable throw ("new")? This package answers that question exactly for the
fair-throw and Johnson (Dirichlet) exchangeable models, numerically for the
multiplicity model, and in the large-N limit via slice integrals (Johnson by
Fourier inversion, multiplicity on a lattice, each with an error bound) and
constrained entropy maximization (Shannon, Burg, and minimum divergence from a
base distribution).

Importing the package loads numpy only: scipy (about 0.5 s of imports) is
imported inside the functions that use it, on their first call.
"""

from .core import (Average, BudgetExhausted, ContradictoryData, DegenerateWeights,
                   Distribution, Exact, FairThrow, Johnson, LargeN,
                   Multiplicity, PosteriorResult, Query, NEG_INFINITY, POS_INFINITY,
                   NEW, OLD, burg_entropy, kl_divergence, shannon_entropy)
from .exact_models import fair_posterior, generalized_johnson_posterior, johnson_posterior
from .maxent import MaxentSolution, maxent_burg, maxent_shannon, min_kl
from .simplex_integration import sample_simplex_uniform
from .multiplicity_model import (generalized_multiplicity_posterior,
                                 johnson_large_n, multiplicity_large_n,
                                 multiplicity_posterior)
from .posterior import posterior
from .reference import ReferenceCell, ReferenceRow, ReferenceTable, load_reference_tables

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
