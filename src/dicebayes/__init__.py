"""Posterior distributions for die throws conditional on an observed average.

Given that N throws of a die averaged a pips, what plausibility should be
assigned to each face for one of those throws ("old") or for a further,
exchangeable throw ("new")? This package answers that question exactly for the
fair-throw and Johnson (Dirichlet) exchangeable models, numerically for the
multiplicity model, and in the large-N limit via hyperplane integrals and
constrained entropy maximization (Shannon, Burg, and minimum divergence from a
base distribution).
"""

from .core import (Average, BudgetExhausted, ContradictoryData,
                   DegeneratePolytope, DegenerateWeights, Distribution, Exact,
                   FairThrow, FrequencyVector, Johnson, LargeN, Multiplicity,
                   PosteriorResult, Query, NEG_INFINITY, POS_INFINITY,
                   NEW, OLD, burg_entropy, kl_divergence, shannon_entropy)
from .combinatorics import (ConstraintSet, count_sequences,
                            enumerate_constrained_frequencies,
                            log_gamma_factorial, log_multinomial,
                            multinomial_exact)
from .exact_models import (conditional_old_given_frequency, fair_posterior,
                           generalized_johnson_posterior, johnson_posterior)
from .maxent import MaxentSolution, maxent_burg, maxent_shannon, min_kl
from .simplex_integration import (ConstraintPolytope, QuadratureEstimate,
                                  build_constraint_polytope,
                                  dirichlet_beta_integral, integrate_polytope,
                                  integrate_simplex, sample_polytope_uniform,
                                  sample_simplex_uniform)
from .multiplicity_model import (LargeNQuery, asymptotic_dispatch,
                                 generalized_multiplicity_posterior,
                                 johnson_large_n, multiplicity_large_n,
                                 multiplicity_posterior)
from .reference import ReferenceCell, ReferenceRow, ReferenceTable, load_reference_tables

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
