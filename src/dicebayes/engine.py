"""The engine that the closed forms and the lattices share.

Every model weighs the count vectors (or grid points) c of the six faces by a
product of per-face weights, on sum c = M and sum (v - 1) c = T. `_pair_means`
sums over them without listing them, each face a sequence `_scaled` from its
logs; the lattices refine their grids by `_richardson`. ln c! and ln Gamma come
from numpy and the standard library, with one Stirling series.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import BudgetExhausted, N_FACES

# Below this a log value's exp underflows out of the normal doubles.
_LOG_TINY = math.log(np.finfo(float).tiny)
_LOG_HALF = math.log(0.5)      # the end weight of the trapezoid rule
# The largest face the pairing takes (the slice lattice's finest grid); its
# arrays then reach tens of megabytes.
_MAX_SLICE_GRID = 1024
# Elements of the faces 1-3 array paired per block: the table grids pair in one
# block, and a large grid's pairing arrays stay within a few megabytes each.
_PAIR_BLOCK = 1 << 18
# Roundoff floor of the finite lattice's bound, per face: where the second
# Richardson level reads 0 or a few 1e-12, the answer can still be off by about 2e-11.
_LATTICE_FLOOR = 1e-10


# Stirling's series, ln Gamma(y) = (y - 1/2) ln y - y + ln(2 pi) / 2 + sum_k B_2k y^(1 - 2k)
# / (2k (2k - 1)): its coefficients for k = 7 down to 1. From y = 8 on, the first
# term left out is below 1e-15.
_STIRLING = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
_GAMMA_BLOCK = 1 << 14      # elements per block: the temporaries stay in cache


def _log_gamma(x) -> np.ndarray:
    """ln Gamma(x) for x >= 1, elementwise, within 2e-14 plus 4 units in the last
    place of scipy's gammaln. Below 8 it is ln Gamma(x + 8) - ln prod_{k<8} (x + k),
    from 8 on Stirling's series alone, so the product never overflows."""
    x = np.asarray(x, dtype=float)
    flat, out = x.ravel(), np.empty(x.size)
    for i in range(0, x.size, _GAMMA_BLOCK):
        xs = flat[i:i + _GAMMA_BLOCK]
        small = xs < 8.0
        y = xs + 8.0 * small
        r = 1.0 / y
        r2 = r * r
        series = _STIRLING[0] * r2
        for c in _STIRLING[1:-1]:
            series += c
            series *= r2
        series += _STIRLING[-1]
        # prod_{k<8} (x + k) = q (q + 6) (q + 10) (q + 12) with q = x (x + 7), taken
        # at min(x, 8) so that it stays finite where it is not used
        q = np.minimum(xs, 8.0)
        q *= q + 7.0
        out[i:i + _GAMMA_BLOCK] = ((y - 0.5) * np.log(y) - y + (series * r + _HALF_LOG_2PI)
                                   - small * np.log(q * (q + 6.0) * (q + 10.0) * (q + 12.0)))
    return out.reshape(x.shape)


# ln c! below 1024 from math.lgamma; above, from _log_gamma's Stirling series
_LOG_FACTORIALS = np.array([math.lgamma(c + 1.0) for c in range(1024)])


def _log_factorials(n: int) -> np.ndarray:
    """ln c! for c = 0..n, within 3 units in the last place of scipy's gammaln(c + 1)."""
    if n < _LOG_FACTORIALS.size:
        return _LOG_FACTORIALS[:n + 1]
    return np.concatenate([_LOG_FACTORIALS,
                           _log_gamma(np.arange(_LOG_FACTORIALS.size + 1.0, n + 2.0))])


def _scaled(logv: np.ndarray):
    """A face sequence from its logs, as (first index kept, values scaled to a
    maximum of 1, log scale): only the entries whose exp does not underflow."""
    top = float(logv.max())
    keep = np.flatnonzero(logv - top > _LOG_TINY)
    return int(keep[0]), np.exp(logv[keep[0]:keep[-1] + 1] - top), top


def _richardson(probs_at, grid: int, tol: float, max_grid: int, romberg: bool = False):
    """Richardson extrapolation of a lattice posterior whose error falls as M^-2.

    R(2M) = P(2M) + (P(2M) - P(M)) / 3 removes the leading term. Its bound is
    2 |P(2M) - P(M)| / 3 (the slice lattice). With `romberg` (the finite
    lattice, where R's error falls as M^-4) it is |R(2M) - R(M)|, a second
    Richardson level about 15 times R(2M)'s error, plus _LATTICE_FLOOR, and
    the first bound needs three grids. M doubles from `grid` until the bound
    is within `tol` on every face, or the next grid would pass `max_grid`
    (warns BudgetExhausted). Returns (R, bound).
    """
    coarse, previous = probs_at(grid), None
    while True:
        grid *= 2
        fine = probs_at(grid)
        extrapolate = fine + (fine - coarse) / 3.0
        if not romberg:
            # where the error falls faster than M^-2 (weights that vanish at the
            # faces) R overshoots by up to |P(2M) - P(M)| / 3, so the bound counts
            # that term twice: the correction itself, and P(2M)'s own error
            bound = 2 * np.abs(fine - coarse) / 3.0
        elif previous is not None:
            bound = np.abs(extrapolate - previous) + _LATTICE_FLOOR
        else:
            bound = np.full(N_FACES, math.inf)      # one extrapolate: refine once more
        if bound.max() <= tol or 2 * grid > max_grid:
            break
        coarse, previous = fine, extrapolate
    if bound.max() > tol:
        warnings.warn(f"lattice stopped at {grid} points per face with Richardson "
                      f"error bound {bound.max():.2e}", BudgetExhausted)
    return np.maximum(extrapolate, 0.0), bound


def _slice_half(fp, fq, fr):
    """The three faces of one half, with pip offsets 0, 1, 2, convolved into
    H[u, s] = sum_j w_p[u + j] w_r[j] w_q[s - 2 j] over u = j_p - j_r and
    s = j_q + 2 j_r, as one matrix product; also H with face r weighted by j_r.

    Each face is (first index, values). Returns (H, weighted H, first u, first s).
    """
    (lp, wp), (lq, wq), (lr, wr) = fp, fq, fr
    k = wr.size
    padded = np.concatenate([np.zeros(k - 1), wp, np.zeros(k - 1)])
    hankel = as_strided(padded, (wp.size + k - 1, k), padded.strides * 2)  # wp[row + j - k + 1]
    jr = lr + np.arange(k)
    left = np.concatenate([hankel * wr, hankel * (wr * jr)])
    cols = wq.size + 2 * (k - 1)
    right = np.zeros((k, cols))
    right.ravel()[np.add.outer(np.arange(k) * (cols + 2), np.arange(wq.size))] = wq
    both = left @ right
    rows = hankel.shape[0]
    return both[:rows], both[rows:], lp - lr - k + 1, lq + 2 * lr


def _pair_means(faces, grid: int, target: int) -> np.ndarray:
    """The mean of each face's index j over the index vectors with sum j = grid
    and sum (v - 1) j = target, weighted by the product of the six faces'
    (first index, values). Faces 1-3 and 4-6 are convolved into two 2-D arrays
    over (u, s) (see _slice_half); pairing them at the two constraints gives
    the normalizer and, weighted by u and s, the means of j_1 - j_3 and
    j_2 + 2 j_3; the constraints turn those into the means of j_4 - j_6 and
    j_5 + 2 j_6. With the face-3 and face-6 weighted arrays they give all six.
    """
    low, low_r, u_low, s_low = _slice_half(*faces[:3])
    high, high_r, u_high, s_high = _slice_half(*faces[3:])

    # faces 4-6 complete (u, s) of faces 1-3 at (4M - T - 4u - 3s, T - 3M + 3u + 2s),
    # M = grid and T = target: the sums of j and of (v - 1) j over the six faces;
    # rows of faces 1-3 are paired in blocks, so the pairing arrays stay small
    u = u_low + np.arange(low.shape[0])
    s = s_low + np.arange(low.shape[1])
    total = j3 = j6 = u_sum = 0.0
    s_sums = np.zeros(low.shape[1])
    step = max(1, _PAIR_BLOCK // low.shape[1])
    for r in range(0, low.shape[0], step):
        lb, lb_r, ub = low[r:r + step], low_r[r:r + step], u[r:r + step]
        row = (4 * grid - target - u_high - 4 * ub)[:, None] - 3 * s
        col = (target - 3 * grid - s_high + 3 * ub)[:, None] + 2 * s
        held = (row >= 0) & (row < high.shape[0]) & (col >= 0) & (col < high.shape[1])
        flat = row[held] * high.shape[1] + col[held]
        pair, pair_r = np.zeros_like(lb), np.zeros_like(lb)
        pair[held] = high.ravel()[flat]
        pair_r[held] = high_r.ravel()[flat]
        w = lb * pair
        total += w.sum()
        j3 += (lb_r * pair).sum()
        j6 += (lb * pair_r).sum()
        u_sum += w.sum(axis=1) @ ub
        s_sums += w.sum(axis=0)

    j3, j6 = j3 / total, j6 / total
    u_mean, s_mean = u_sum / total, s_sums @ s / total
    u_high_mean = 4 * grid - target - 4 * u_mean - 3 * s_mean
    s_high_mean = target - 3 * grid + 3 * u_mean + 2 * s_mean
    return np.array([u_mean + j3, s_mean - 2 * j3, j3,
                     u_high_mean + j6, s_high_mean - 2 * j6, j6])
