"""One entry point for every posterior query: `posterior(Query(...))`.

The regime (finite or large N), the model and its parameter decide the route:

- finite N: the closed forms (fair, Johnson, base-weighted Johnson) or the
  multiplicity lattice (with or without a base); a parameter marked large
  (math.inf) makes the model collapse to fair throwing from its base at that N;
- large N, finite parameter: the Johnson slice mean by Fourier inversion or
  the multiplicity slice mean on a lattice, old and new throws alike;
- large N, max-ent model: the maximizer of Shannon's entropy (the least
  divergence from the base) or of Burg's (sum m_v ln f_v).

The other large-N limits are asked again as max-ent models: fair throwing,
or a parameter dominating N, is Shannon's from the base for an old throw (the
base for a new one); N dominating K is Burg's and N dominating L Shannon's.
"""
from __future__ import annotations

import math

from .core import (Distribution, Exact, FairThrow, Johnson, MaxEnt, PosteriorResult, Query,
                   ANALYTIC_LIMIT, NEW)
from .exact_models import fair_posterior, generalized_johnson_posterior, johnson_posterior
from .maxent import maxent_burg, maxent_shannon, min_kl
from .multiplicity_model import (generalized_multiplicity_posterior, johnson_large_n,
                                 multiplicity_large_n, multiplicity_posterior)


def _limit(dist: Distribution) -> PosteriorResult:
    return PosteriorResult.from_distribution(dist, ANALYTIC_LIMIT)


def _fair_limit(query: Query) -> PosteriorResult:
    base = getattr(query.model, "base", None)
    if query.throw == NEW:
        return _limit(base or Distribution.uniform())
    return posterior(Query(query.regime, query.average, query.throw, MaxEnt("shannon", base)))


def posterior(query: Query) -> PosteriorResult:
    """The posterior of one face for an old or new throw.

    No route samples: the lattices and the Fourier inversion size themselves
    from the query and their own error targets, so the same query always
    gives the same answer.
    """
    model, a, throw = query.model, query.average, query.throw
    if isinstance(model, MaxEnt):
        if isinstance(query.regime, Exact):
            raise ValueError("a max-ent distribution is a large-N limit; ask it at LargeN()")
        if model.entropy == "burg":
            return _limit(maxent_burg(a, model.base).distribution)
        fit = maxent_shannon(a) if model.base is None else min_kl(a, model.base)
        return _limit(fit.distribution)
    if isinstance(model, FairThrow):
        if isinstance(query.regime, Exact):
            return fair_posterior(query.regime.n, a, throw)
        return _fair_limit(query)
    johnson = isinstance(model, Johnson)
    param = model.concentration if johnson else model.scale

    if isinstance(query.regime, Exact):
        n = query.regime.n
        if math.isinf(param):
            # parameter >> N: the model collapses to fair throwing at this N
            return _limit(fair_posterior(n, a, throw, model.base).distribution)
        if johnson:
            if model.base is None:
                return johnson_posterior(n, a, param, throw)
            return generalized_johnson_posterior(n, a, param, model.base, throw)
        if model.base is None:
            return multiplicity_posterior(n, a, param, throw, method="deterministic")
        return generalized_multiplicity_posterior(n, a, param, model.base, throw,
                                                  method="deterministic")

    if not math.isinf(param):
        large_n = johnson_large_n if johnson else multiplicity_large_n
        return large_n(a, param, model.base)
    ratio_large = query.regime.n_over_param_large
    if ratio_large is None:
        raise ValueError("with both N and the parameter large, say which "
                         "ratio dominates (n_over_param_large)")
    if not ratio_large:
        return _fair_limit(query)
    return posterior(Query(query.regime, a, throw,
                           MaxEnt("burg" if johnson else "shannon", model.base)))
