"""One entry point for every posterior query: `posterior(Query(...))`.

The regime (finite or large N), the model and its parameter decide the route:

- finite N: the closed forms (fair, Johnson, base-weighted Johnson), the
  multiplicity lattice (symmetric model) or the multiplicity Monte Carlo
  (base-weighted model); a parameter marked large (math.inf) makes the model
  collapse to fair throwing at that N;
- large N, finite parameter: the Johnson slice mean by Fourier inversion or
  the multiplicity slice mean on a lattice, old and new throws alike;
- large N, fair model or parameter dominating N: the Shannon maximizer for an
  old throw, the uniform distribution for a new one;
- large N dominating the parameter: the Burg maximizer (Johnson) or the
  distribution of least divergence from the base (multiplicity; Shannon for
  the uniform base).
"""
from __future__ import annotations

import math
from typing import Optional

from .core import (Distribution, Exact, FairThrow, Johnson, PosteriorResult, Query,
                   ANALYTIC_LIMIT, NEW)
from .exact_models import fair_posterior, generalized_johnson_posterior, johnson_posterior
from .maxent import maxent_burg, maxent_shannon, min_kl
from .multiplicity_model import (generalized_multiplicity_posterior, johnson_large_n,
                                 multiplicity_large_n, multiplicity_posterior)
from .simplex_integration import DEFAULT_SEED


def _limit(dist: Distribution) -> PosteriorResult:
    return PosteriorResult.from_distribution(dist, ANALYTIC_LIMIT)


def _fair_limit(query: Query) -> PosteriorResult:
    if query.throw == NEW:
        return _limit(Distribution.uniform())
    return _limit(maxent_shannon(query.average).distribution)


def posterior(query: Query, *, budget: Optional[int] = None,
              seed: int = DEFAULT_SEED) -> PosteriorResult:
    """The posterior of one face for an old or new throw.

    `budget` (None keeps the default) and `seed` set the Monte Carlo samples
    and streams of the base-weighted finite-N multiplicity model, the only
    Monte Carlo route. The lattices and the Fourier inversion size themselves
    from the query and their own error targets.
    """
    model, a, throw = query.model, query.average, query.throw
    numeric = {} if budget is None else {"budget": budget}
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
            return _limit(fair_posterior(n, a, throw).distribution)
        if johnson:
            if model.base is None:
                return johnson_posterior(n, a, param, throw)
            return generalized_johnson_posterior(n, a, param, model.base, throw)
        if model.base is None:
            return multiplicity_posterior(n, a, param, throw, method="deterministic")
        return generalized_multiplicity_posterior(n, a, param, model.base, throw,
                                                  seed=seed, **numeric)

    if not math.isinf(param):
        large_n = johnson_large_n if johnson else multiplicity_large_n
        return large_n(a, param, model.base)
    ratio_large = query.regime.n_over_param_large
    if ratio_large is None:
        raise ValueError("with both N and the parameter large, say which "
                         "ratio dominates (n_over_param_large)")
    if not ratio_large:
        return _fair_limit(query)
    if johnson:
        if model.base is not None:
            raise ValueError("no analytic limit is implemented for the "
                             "base-relative Johnson model at N >> K")
        return _limit(maxent_burg(a).distribution)
    base = model.base if model.base is not None else Distribution.uniform()
    return _limit(min_kl(a, base).distribution)
