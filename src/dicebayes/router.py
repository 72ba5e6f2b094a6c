"""One entry point for every posterior query: `posterior(Query(...))`.

The regime (finite or large N), the model and its parameter decide the route:

- finite N: the closed forms (fair, Johnson, base-weighted Johnson) or the
  multiplicity lattice (with or without a base); a parameter marked large
  (math.inf) makes the model collapse to fair throwing from its base at that N;
- finite N, multiplicity at a large scale L: the Johnson closed form at
  pseudo-counts L m_v (m the base, uniform without one), from which the
  multiplicity posterior differs by O((N/L)^2), wherever its bound
  _SCALE_C (N / (L min m))^2 + _SCALE_FLOOR per face is within the lattice's
  target, from L of about 141 N / min m on; the bound is measured, not
  derived, and the method says so (JOHNSON_LIMIT);
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
from typing import Optional

from .core import (Average, Distribution, Exact, FairThrow, Johnson, MaxEnt, PosteriorResult,
                   Query, ANALYTIC_LIMIT, JOHNSON_LIMIT, NEW, N_FACES)
from .exact_models import fair_posterior, generalized_johnson_posterior, johnson_posterior
from .maxent import maxent_burg, maxent_shannon, min_kl
from .multiplicity_model import (_LATTICE_TOL, generalized_multiplicity_posterior,
                                 johnson_large_n, multiplicity_large_n, multiplicity_posterior)

# The Johnson stand-in's bound per face. |difference| (L min m / N)^2 was at most
# 0.046 without a base and 0.020 with the bases (1..6)/21 and (20,1,1,1,1,1)/25,
# against the lattice over N up to 60, L from 1e2 to 1e6 and both throws, and
# from the difference's (N/L)^2 term up to N = 100; the floor covers the closed
# form's roundoff (at most 1.1e-15 against exact fractions up to N = 30).
_SCALE_C = 0.2
_SCALE_FLOOR = 1e-14


def _limit(dist: Distribution) -> PosteriorResult:
    return PosteriorResult.from_distribution(dist, ANALYTIC_LIMIT)


def _fair_limit(query: Query) -> PosteriorResult:
    base = getattr(query.model, "base", None)
    if query.throw == NEW:
        return _limit(base or Distribution.uniform())
    return posterior(Query(query.regime, query.average, query.throw, MaxEnt("shannon", base)))


def _multiplicity_as_johnson(n: int, a: Average, scale: float, base: Optional[Distribution],
                             throw: str) -> Optional[PosteriorResult]:
    """The Johnson closed form at pseudo-counts L m, where its bound is within
    the lattice's target, else None. A refusal of the closed form (a face too
    wide, or pseudo-counts past the double range) is passed on: the lattice
    cannot answer those questions either, as it stops near N = 150 and at
    L = 2.9e9."""
    min_m = min((base or Distribution.uniform()).probs)
    bound = _SCALE_C * (n / (scale * min_m)) ** 2 + _SCALE_FLOOR
    if n < 1 or not bound <= _LATTICE_TOL:
        return None
    try:
        johnson = (johnson_posterior(n, a, scale / N_FACES, throw) if base is None
                   else generalized_johnson_posterior(n, a, scale, base, throw))
    except ValueError as exc:
        raise ValueError(f"multiplicity scale {scale:g} is answered by the Johnson closed "
                         f"form at pseudo-counts L m, which refuses it: {exc}") from None
    return PosteriorResult.from_distribution(johnson.distribution, JOHNSON_LIMIT,
                                             error_bound=(bound,) * N_FACES)


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
        stand_in = _multiplicity_as_johnson(n, a, param, model.base, throw)
        if stand_in is not None:
            return stand_in
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
