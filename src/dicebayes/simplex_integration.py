"""The Monte Carlo reference: the finite-N multiplicity model over the simplex,
with counter-based RNG streams.

Points are uniform with respect to the flat measure. Integrands are evaluated
in log domain; -inf values contribute exactly zero weight. Every result is a
weighted mean over the simplex, so overall measure scales cancel. This is
method="mc" of the multiplicity model functions, the reference the lattice is
checked against; no route of `posterior()` samples.

The sum over frequency vectors collapses by a generating-polynomial identity:
with S(p, z) = sum_l p_l z^l,

    sum_nv multinomial(nv) prod_l p_l^{N_l}          = [z^s] S^N
    sum_nv multinomial(nv) (N_i/N) prod_l p_l^{N_l}  = p_i [z^s'] S^(N-1),  s' = s - i

so each sample point needs only the six coefficients s-6 .. s-1 of S^(N-1).
The kernel builds S^(N-1) one factor at a time but keeps, after k factors,
only the degrees max(k, s-6 - 6r) .. min(6k, s-1 - r) (r = N-1-k factors
left) that can still reach those six. It runs on row blocks of a few thousand
points with faces on the leading axis, so its coefficient rows stay in cache.
The per-point data depends only on (N, s), so it is cached and shared across
L values and across old/new queries; the log-weights of the latest L are
cached beside it, shared by the old and new throw. The prior density's
ln Gamma is engine._log_gamma.
"""
from __future__ import annotations

import math
import warnings
from typing import Optional, Tuple

import numpy as np

from .core import (DegenerateWeights, Distribution, PosteriorResult, MONTE_CARLO, OLD,
                   N_FACES)
from .engine import _log_gamma

DEFAULT_SEED = 0
_MC_BATCH = 200_000


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; distinct streams from one seed never overlap."""
    key = ((stream & 0xFFFFFFFFFFFFFFFF) << 64) | (seed & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=key))


def sample_simplex_uniform(rng: np.random.Generator, count: int) -> np.ndarray:
    """I.i.d. points uniform on the simplex, by normalized exponential spacings."""
    if count < 1:
        raise ValueError("count must be >= 1")
    e = rng.standard_exponential((count, N_FACES))
    return e / e.sum(axis=1, keepdims=True)


class _MCAccumulator:
    """Streaming sums of w, w^2, x*w, x*w^2, x^2*w^2 with a floating log shift."""

    def __init__(self, ncols: int):
        self.shift = None
        self.n = 0
        self.s_w = 0.0
        self.s_w2 = 0.0
        self.s_xw = np.zeros(ncols)
        self.s_xw2 = np.zeros(ncols)
        self.s_x2w2 = np.zeros(ncols)

    def add(self, logw: np.ndarray, x: np.ndarray):
        finite = np.isfinite(logw)
        self.n += logw.size
        if not np.any(finite):
            return
        m = float(logw[finite].max())
        if self.shift is None:
            self.shift = m
        elif m > self.shift:
            r = math.exp(self.shift - m)
            self.s_w *= r
            self.s_xw *= r
            self.s_w2 *= r * r
            self.s_xw2 *= r * r
            self.s_x2w2 *= r * r
            self.shift = m
        w = np.zeros_like(logw)
        w[finite] = np.exp(logw[finite] - self.shift)
        w2 = w * w
        self.s_w += float(w.sum())
        self.s_w2 += float(w2.sum())
        self.s_xw += w @ x
        self.s_xw2 += w2 @ x
        self.s_x2w2 += w2 @ (x * x)

    def ratio(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """Ratio estimate, its delta-method stderr and the Kish effective
        sample size (sum w)^2 / sum w^2."""
        if self.shift is None or self.s_w <= 0.0:
            raise ValueError("integrand vanished on every sample")
        r = self.s_xw / self.s_w
        var = np.maximum(self.s_x2w2 - 2.0 * r * self.s_xw2 + r * r * self.s_w2, 0.0)
        return r, np.sqrt(var) / self.s_w, self.s_w * self.s_w / self.s_w2


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
        for stream, start in enumerate(range(0, key[3], _MC_BATCH)):
            pts = sample_simplex_uniform(make_rng(seed, stream), min(_MC_BATCH, key[3] - start))
            batches.append((pts, *_finite_kernel(pts, n, s)))
        _KERNEL_CACHE[key] = _KernelBatches(batches)
    return _KERNEL_CACHE[key]


def _multiplicity_log_density(points: np.ndarray, scale: float,
                              base: Optional[Distribution]) -> np.ndarray:
    """log of the multiplicity prior density up to its normalization constant."""
    lw = -_log_gamma(scale * points + 1.0).sum(axis=1)
    if base is not None:
        lw = lw + scale * (points @ np.log(np.asarray(base.probs)))
    return lw


# Below this Kish effective sample size the Monte Carlo ratio and its stderr
# rest on a handful of samples and are not reported as trustworthy.
_MIN_ESS = 100


def _multiplicity_mc(n: int, s: int, scale: float, base: Optional[Distribution], throw: str,
                     budget: int, seed: int) -> PosteriorResult:
    """The multiplicity posterior of n throws with pip sum s, from `budget` points of
    the streams of `seed`; warns DegenerateWeights below _MIN_ESS."""
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
