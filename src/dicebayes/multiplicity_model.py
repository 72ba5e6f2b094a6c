"""Multiplicity-model posteriors and the large-N hyperplane posteriors.

The finite-N multiplicity model has no closed form: posteriors are ratios of
integrals over the whole simplex. The sum over average-compatible frequency
vectors is collapsed with a generating-polynomial identity: with
S(p, z) = sum_l p_l z^l and s = a*N,

    sum_nv multinomial(nv) prod_l p_l^{N_l}          = [z^s] S^N
    sum_nv multinomial(nv) (N_i/N) prod_l p_l^{N_l}  = p_i [z^s'] S^(N-1),  s' = s - i

so each sample point needs only the six coefficients s-6 .. s-1 of S^(N-1).
The kernel builds S^(N-1) one factor at a time but keeps, after k factors,
only the degrees max(k, s-6 - 6r) .. min(6k, s-1 - r) (r = N-1-k factors
left) that can still reach those six. It runs on row blocks of a few thousand
points with faces on the leading axis, so its coefficient rows stay in cache.
The per-point data depends only on (N, s), so it is cached and shared across
L values and across old/new queries; the log-weights of the latest L are
cached beside it, shared by the old and new throw.

In the large-N regime both old-throw and new-throw posteriors reduce to the
same mean over the average slice of the simplex, weighted by the model's
density; johnson_large_n and multiplicity_large_n share one code path, a
deterministic adaptive quadrature over the slice.
"""
from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .core import (Average, DegeneratePolytope, DegenerateWeights, Distribution,
                   PosteriorResult, ANALYTIC_LIMIT, DETERMINISTIC_QUAD, MONTE_CARLO,
                   OLD, N_FACES)
from .combinatorics import _pip_total
from .simplex_integration import (DEFAULT_SEED, _MC_BATCH, _MCAccumulator,
                                  build_constraint_polytope, make_rng,
                                  posterior_mean_polytope, posterior_mean_simplex,
                                  sample_simplex_uniform)


# --- finite-N kernel -------------------------------------------------------

# Points per block in the kernel: a block's few dozen coefficient rows then fit
# in cache, where whole 200k-point batches spill to memory.
_ROW_BLOCK = 2048


def _power_window(pt: np.ndarray, m: int, lo: int, hi: int) -> np.ndarray:
    """Coefficients lo..hi of (sum_l p_l z^l)^m, one row per degree.

    `pt` holds the points with faces on the leading axis. After k factors only
    the degrees from which lo..hi can still be reached by the remaining m - k
    factors are kept; each step adds the six shifted products in face order.
    """
    if m == 0:
        return np.ones((1, pt.shape[1]))
    cur, c_lo = pt, 1
    for k in range(2, m + 1):
        r = m - k
        n_lo, n_hi = max(k, lo - 6 * r), min(6 * k, hi - r)
        c_hi = c_lo + cur.shape[0] - 1
        nxt = np.zeros((n_hi - n_lo + 1, pt.shape[1]))
        for v in range(1, 7):
            d0, d1 = max(n_lo, c_lo + v), min(n_hi, c_hi + v)
            if d0 <= d1:
                shifted = cur[d0 - v - c_lo:d1 - v - c_lo + 1]
                nxt[d0 - n_lo:d1 - n_lo + 1] += shifted * pt[v - 1]
        cur, c_lo = nxt, n_lo
    return cur[lo - c_lo:hi - c_lo + 1]


def _finite_kernel(points: np.ndarray, n: int, s: int):
    """Per-point constraint-sum data: log denominator and old-throw fractions.

    Returns (log_a, old_probs) with log_a = ln sum_nv multinomial prod p^N_l
    and old_probs_i = the multiplicity-weighted mean of N_i/N at fixed p.
    """
    m = n - 1
    lo, hi = max(m, s - 6), min(6 * m, s - 1)     # the degrees of S^m read below
    rows = points.shape[0]
    terms = np.zeros((rows, N_FACES))
    # S^0 = 1 and S^1 = S need no products: one pass over the batch, no copy
    block = rows if m <= 1 else _ROW_BLOCK
    for start in range(0, rows, block):
        pt = points[start:start + block].T
        if m > 1:
            pt = np.ascontiguousarray(pt)
        q = _power_window(pt, m, lo, hi)
        for d in range(lo, hi + 1):
            terms[start:start + block, s - d - 1] = pt[s - d - 1] * q[d - lo]
    a = terms.sum(axis=1)
    with np.errstate(divide="ignore"):
        log_a = np.log(a)
    old = np.zeros_like(terms)
    pos = a > 0.0
    old[pos] = terms[pos] / a[pos, None]
    return log_a, old


class _KernelBatches:
    """Per-batch kernel data for one (N, s, seed, budget), plus the log-weights
    of the latest (scale, base), which the old and new throw of one cell share."""

    def __init__(self, batches):
        self.batches = batches          # (points, log_a, old_probs) triples
        self._weights_key = None
        self._weights = None

    def log_weights(self, scale: float, base: Optional[Distribution]):
        if self._weights_key != (scale, base):
            self._weights = [log_a + _multiplicity_log_density(pts, scale, base)
                             for pts, log_a, _ in self.batches]
            self._weights_key = (scale, base)
        return self._weights


_KERNEL_CACHE: dict = {}


def _kernel_batches(n: int, s: int, seed: int, budget: int) -> _KernelBatches:
    """Cached kernel batches for one (N, s, seed, budget).

    Only the most recent key is kept: the arrays are large and reuse happens
    when consecutive queries vary L or the throw kind at fixed data.
    """
    key = (n, s, seed, int(budget))
    if key not in _KERNEL_CACHE:
        _KERNEL_CACHE.clear()
        batches = []
        remaining = int(budget)
        stream = 0
        while remaining > 0:
            nb = min(_MC_BATCH, remaining)
            pts = sample_simplex_uniform(make_rng(seed, stream), nb)
            log_a, old = _finite_kernel(pts, n, s)
            batches.append((pts, log_a, old))
            remaining -= nb
            stream += 1
        _KERNEL_CACHE[key] = _KernelBatches(batches)
    return _KERNEL_CACHE[key]


def _multiplicity_log_density(points: np.ndarray, scale: float,
                              base: Optional[Distribution]) -> np.ndarray:
    """log of the multiplicity prior density up to its normalization constant."""
    lw = -gammaln(scale * points + 1.0).sum(axis=1)
    if base is not None:
        lw = lw + scale * (points @ np.log(np.asarray(base.probs)))
    return lw


# Below this Kish effective sample size the Monte Carlo ratio and its stderr
# rest on a handful of samples and are not reported as trustworthy.
_MIN_ESS = 100


def _finite_posterior(n: int, a: Average, scale: float,
                      base: Optional[Distribution], throw: str,
                      budget: int, seed: int, method: str) -> PosteriorResult:
    if not (scale >= 1 and math.isfinite(scale)):
        raise ValueError("multiplicity scale must be a finite real >= 1")
    s = _pip_total(n, a)

    if method == "mc":
        kernel = _kernel_batches(n, s, seed, budget)
        acc = _MCAccumulator(N_FACES)
        for (pts, _, old), logw in zip(kernel.batches, kernel.log_weights(scale, base)):
            acc.add(logw, old if throw == OLD else pts)
        probs, stderr, ess = acc.ratio()
        if ess < _MIN_ESS:
            warnings.warn(f"Monte Carlo weights are degenerate: effective sample size "
                          f"{ess:.1f} of {acc.n} samples", DegenerateWeights)
        return PosteriorResult.from_distribution(
            Distribution.from_weights(probs), MONTE_CARLO, mc_stderr=stderr)

    if method == "deterministic":
        def fn(pts):
            log_a, old = _finite_kernel(pts, n, s)
            logw = log_a + _multiplicity_log_density(pts, scale, base)
            return logw, (old if throw == OLD else pts)

        probs, _, _ = posterior_mean_simplex(fn, budget=budget, method="deterministic")
        return PosteriorResult.from_distribution(
            Distribution.from_weights(probs), DETERMINISTIC_QUAD)

    raise ValueError(f"unknown method {method!r}")


def multiplicity_posterior(n: int, a: Average, scale: float, throw: str,
                           budget: int = 2_000_000, seed: int = DEFAULT_SEED,
                           method: str = "mc") -> PosteriorResult:
    """Posterior for an old or new throw under the symmetric multiplicity model."""
    return _finite_posterior(n, a, scale, None, throw, budget, seed, method)


def generalized_multiplicity_posterior(n: int, a: Average, scale: float,
                                       base: Distribution, throw: str,
                                       budget: int = 2_000_000,
                                       seed: int = DEFAULT_SEED,
                                       method: str = "mc") -> PosteriorResult:
    """Multiplicity model tilted toward a strictly positive base distribution."""
    if any(p <= 0 for p in base):
        raise ValueError("base distribution must be strictly positive")
    return _finite_posterior(n, a, scale, base, throw, budget, seed, method)


# --- large-N hyperplane posteriors ----------------------------------------

# Convergence target for the slice quadratures, in absolute probability units
# on the ratio estimate.  The indicator is conservative by 1-2 orders of
# magnitude once the adaptive refinement has resolved the peak, but stopping
# before that point leaves real errors near the indicator's scale, so the
# target must sit well below the printed 0.1 pp resolution.
_LARGE_N_ATOL = 5e-3


def _large_n_mean(a: Average, log_density, budget: int) -> PosteriorResult:
    """Mean of f over the average slice, weighted by exp(log_density(f))."""
    try:
        poly = build_constraint_polytope(a)
    except DegeneratePolytope as deg:
        return PosteriorResult.from_distribution(deg.vertex, ANALYTIC_LIMIT)

    def fn(pts):
        return log_density(pts), pts

    probs, _, _ = posterior_mean_polytope(poly, fn, budget=budget, method="deterministic",
                                          atol=_LARGE_N_ATOL)
    return PosteriorResult.from_distribution(
        Distribution.from_weights(np.maximum(probs, 0.0)), DETERMINISTIC_QUAD)


def johnson_large_n(a: Average, concentration: float,
                    base: Optional[Distribution] = None,
                    budget: int = 1_000_000) -> PosteriorResult:
    """Large-N Johnson posterior (old and new coincide): density prod f^(K m_l - 1)."""
    if not (concentration > 0 and math.isfinite(concentration)):
        raise ValueError("concentration must be a finite positive real")
    expo = concentration * (np.asarray(base.probs) if base is not None
                            else np.ones(N_FACES)) - 1.0

    def log_density(pts):
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = expo * np.log(pts)
        terms[:, expo == 0.0] = 0.0      # f^0 = 1 even at f = 0
        return terms.sum(axis=1)

    return _large_n_mean(a, log_density, budget)


def multiplicity_large_n(a: Average, scale: float,
                         base: Optional[Distribution] = None,
                         budget: int = 1_000_000) -> PosteriorResult:
    """Large-N multiplicity posterior: density 1 / prod Gamma(L f_l + 1)."""
    if not (scale >= 1 and math.isfinite(scale)):
        raise ValueError("multiplicity scale must be a finite real >= 1")

    def log_density(pts):
        return _multiplicity_log_density(pts, scale, base)

    return _large_n_mean(a, log_density, budget)
