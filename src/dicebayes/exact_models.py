"""Closed-form posteriors for the fair-throw and (generalized) Johnson models.

Both are means over the count vectors c of N throws with pip sum s, weighted
by prod_v 1/c_v! (fair) or prod_v (alpha_v)_c / c_v! (Johnson, pseudo-counts
alpha). On the constraints sum c = N and sum (v - 1) c = s - N, the engine's
pairing (the large-N slice lattice's, without end weights) gives E[c] without
listing the vectors. The old throw is E[c] / N, the Johnson new throw
(E[c] + alpha) / (N + sum alpha); a process keeps E[c] for the other throw
and for the other rows of a table that ask the same weights. The Johnson
pseudo-count checks live here, and the large-N Johnson slice uses them too.
"""
from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from .core import (_check_base, Average, Distribution, PosteriorResult, CLOSED_FORM, OLD,
                   NEW, N_FACES)
from .combinatorics import _pip_total
from .engine import _MAX_SLICE_GRID, _log_factorials, _pair_means, _scaled
from .maxent import _brentq, maxent_shannon, min_kl

# Faces scaled to their own maxima may underflow on the constraints once their log
# weights span this many nats in all; they are then tilted to the saddle point first.
_TILT_NATS = 600.0
_OFFSETS = np.arange(N_FACES)      # v - 1, the pip offset of face v


def _closed_form(n: int, a: Average, table: np.ndarray, saddle) -> np.ndarray:
    """E[c] over the count vectors c of n throws averaging a, each weighted by
    prod_v exp(table[c_v, v]), read-only. Where the weights span more than
    _TILT_NATS, face v is first multiplied by z_v^c, ln z_v = saddle(s)[v - 1] =
    t0 + t1 (v - 1): every vector on the constraints gains exp(t0 N + t1 (s - N)),
    so no mean moves, and each face then peaks near its share of the constraints."""
    s = _pip_total(n, a)
    # the feasible counts: the other faces hold the rest at 1 to 6 pips each
    hi = [n if v * n == s else (6 * n - s) // (6 - v) if v * n < s else (s - n) // (v - 1)
          for v in range(1, N_FACES + 1)]
    lo = [max(0, 2 * n - s), 0, 0, 0, 0, max(0, s - 5 * n)]
    cols = [table[lo[v]:hi[v] + 1, v] for v in range(N_FACES)]
    # the weights are monotone in c, so a face spans the gap between its ends
    if sum(abs(col[-1] - col[0]) for col in cols) > _TILT_NATS:
        x = saddle(s)
        cols = [col + x[v] * np.arange(lo[v], hi[v] + 1) for v, col in enumerate(cols)]
    faces = [(lo[v] + first, vals) for v, (first, vals, _) in enumerate(map(_scaled, cols))]
    if max(vals.size for _, vals in faces) > _MAX_SLICE_GRID + 1:
        raise ValueError(f"{n} throws averaging {a} leave a face more than {_MAX_SLICE_GRID + 1} "
                         f"counts to sum over; ask for the many-throw limit (--large-n)")
    means = np.maximum(_pair_means(faces, n, s - n), 0.0)
    means[np.asarray(hi) == 0] = 0.0
    means.flags.writeable = False
    return means


def _result(probs: np.ndarray) -> PosteriorResult:
    return PosteriorResult.from_distribution(Distribution.from_weights(probs), CLOSED_FORM)


# E[c] is kept per (N, a) and model, up to _COUNTS_KEPT of each: a table asks
# for the fair E[c] in its fair row and in both of its `large` rows, and for
# each Johnson E[c] once per throw, old E[c] / N and new (E[c] + alpha) / (N + sum alpha).
_COUNTS_KEPT = 256


@functools.lru_cache(maxsize=_COUNTS_KEPT)
def _fair_counts(n: int, a: Average, base: Optional[Distribution]) -> np.ndarray:
    """E[c] under the weights prod_v m_v^c_v / c_v!, read-only."""
    log_m = np.zeros(N_FACES) if base is None else np.log(base.probs)

    def saddle(s):
        # Poisson faces (m z)^c / c! peak at m z = N f, f_v ~ m_v exp(lam v)
        # the distribution of least divergence from m (Shannon's without a base)
        lam = (maxent_shannon(a) if base is None else min_kl(a, base)).lam
        return math.log(n) - np.logaddexp.reduce(log_m + lam * _OFFSETS) + lam * _OFFSETS

    table = -_log_factorials(n)[:, None]
    # without a base every face reads the same column, so none is copied
    table = (np.broadcast_to(table, (n + 1, N_FACES)) if base is None
             else np.arange(n + 1)[:, None] * log_m + table)
    return _closed_form(n, a, table, saddle)


def fair_posterior(n: int, a: Average, throw: str,
                   base: Optional[Distribution] = None) -> PosteriorResult:
    """Fair-throw model, i.i.d. throws from the base m (uniform without one):
    the mean of c / N under the weights prod_v m_v^c_v / c_v! for old throws,
    m for new."""
    _check_base(base)
    if throw == NEW:
        _pip_total(n, a)    # contradictory data has no new throw either
        return PosteriorResult.from_distribution(base or Distribution.uniform(), CLOSED_FORM)
    return _result(_fair_counts(n, a, base) / n)


def _johnson_saddle(n: int, s: int, alpha: np.ndarray) -> np.ndarray:
    """ln z_v = t0 + t1 (v - 1) at which the negative binomial faces
    (alpha_v)_c z^c / c!, of mean alpha_v / (1/z_v - 1), hold n counts and
    s - n pip offsets in all (n < s < 6n): t0 given t1, then t1."""
    def t0_at(t1):
        # all faces together hold under n at the lower end, the top face alone 2n at the upper
        top, a_top = (5.0 * t1, alpha[-1]) if t1 > 0 else (0.0, alpha[0])
        return _brentq(lambda t0: alpha @ (1.0 / np.expm1(-t0 - t1 * _OFFSETS)) - n,
                       math.log(n / (2.0 * alpha.sum() + n)) - top,
                       math.log(2.0 * n / (a_top + 2.0 * n)) - top, xtol=1e-9)

    def offset(t1):
        return (alpha * _OFFSETS) @ (1.0 / np.expm1(-t0_at(t1) - t1 * _OFFSETS)) - (s - n)

    # at |t1| = b all faces but the extreme one hold under one pip offset
    b = math.log1p(6.0 * float(alpha.sum())) + 2.0
    # 1 / expm1 is inf at a face's pole and 0 past the double range: a count
    # above or below any n, as the brackets' ends want it
    with np.errstate(over="ignore", divide="ignore"):
        t1 = _brentq(offset, -b, b, xtol=1e-9)
        return t0_at(t1) + t1 * _OFFSETS


def _check_concentration(concentration: float):
    if not (concentration > 0 and math.isfinite(concentration)):
        raise ValueError("concentration must be a finite positive real")
    if math.isinf(N_FACES * concentration):
        raise ValueError(f"concentration {concentration:g} is too large: its pseudo-counts "
                         f"overflow")


def _pseudo_counts(concentration: float, base: Optional[Distribution]) -> np.ndarray:
    """K m_v per face, K per face without a base, for a checked K."""
    _check_concentration(concentration)
    return concentration * (np.ones(N_FACES) if base is None else np.asarray(base.probs))


@functools.lru_cache(maxsize=_COUNTS_KEPT)
def _johnson_counts(n: int, a: Average, concentration: float,
                    base: Optional[Distribution]) -> np.ndarray:
    """E[c] under the weights prod Gamma(c_v + pseudo_v) / c_v!, pseudo-counts
    K m_v (K without a base), read-only.

    The table holds ln[(pseudo)_c / c!] for c = 0..n, the weight up to the
    constant factor Gamma(pseudo), as a running sum of ln(pseudo + j) - ln(j + 1)
    over j < c. It keeps its dependence on c at any pseudo-count, where
    gammaln(c + pseudo) alone would drown it in gammaln(pseudo).
    """
    pseudo = _pseudo_counts(concentration, base)
    j = np.arange(n)[:, None]
    table = np.concatenate([np.zeros((1, N_FACES)),
                            np.cumsum(np.log(pseudo + j) - np.log1p(j), axis=0)])

    def saddle(s):
        # its brackets need pseudo-counts that n does not round away and whose
        # sum, six times over, does not overflow
        k = f"concentration {concentration:g}"
        if n + 2.0 * float(pseudo.sum()) == n:
            raise ValueError(f"{k} is too small for the closed form at N = {n}: its "
                             f"pseudo-counts vanish beside N")
        if math.isinf(6.0 * float(pseudo.sum())):
            raise ValueError(f"{k} is too large for the closed form at N = {n}: its saddle "
                             f"point overflows (--param large is the limit)")
        return _johnson_saddle(n, s, pseudo)

    return _closed_form(n, a, table, saddle)


def _johnson_result(n: int, a: Average, concentration: float,
                    base: Optional[Distribution], throw: str) -> PosteriorResult:
    """The old throw E[c] / N, the new throw (E[c] + pseudo) / (N + sum pseudo)."""
    means = _johnson_counts(n, a, concentration, base)
    if throw == OLD:
        return _result(means / n)
    pseudo = _pseudo_counts(concentration, base)
    return _result((means + pseudo) / (n + np.sum(pseudo)))


def johnson_posterior(n: int, a: Average, concentration: float, throw: str) -> PosteriorResult:
    """Symmetric Johnson (Dirichlet) model, pseudo-count `concentration` per face."""
    return _johnson_result(n, a, concentration, None, throw)


def generalized_johnson_posterior(n: int, a: Average, concentration: float,
                                  base: Distribution, throw: str) -> PosteriorResult:
    """Johnson model with per-face pseudo-counts concentration * base_i.

    n = 0 is accepted and returns the prior predictive (= base for a new throw).
    """
    _check_concentration(concentration)
    _check_base(base)
    if n == 0:
        if throw == OLD:
            raise ValueError("with no data there is no old throw to ask about")
        return PosteriorResult.from_distribution(base, CLOSED_FORM)
    return _johnson_result(n, a, concentration, base, throw)
