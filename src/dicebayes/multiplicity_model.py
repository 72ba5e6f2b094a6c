"""Multiplicity-model posteriors and the large-N slice posteriors.

The finite-N multiplicity model has no closed form: posteriors are ratios of
integrals over the whole simplex. With h_k(p) = m_v^(L p) p^k / Gamma(L p + 1)
on face v (m the base, uniform by default), a sum over the count vectors nv
of N throws with pip sum s = a*N,

    old throw:  P_i ~ sum_nv multinomial(nv) (N_i/N) I(nv)
    new throw:  P_i ~ sum_nv multinomial(nv) I(nv + e_i)
    I(k) = int_simplex prod_l h_{k_l}(p_l) dp

`posterior()` answers it on a lattice (method="deterministic"): on the grid
p = j/M, I(k) is entry M of the convolution of the six per-face sequences
h_{k_l}(j/M), with weight 1/2 at j = 0 and j = M. Without a base I(k)
depends only on the sorted counts, so it is computed once per count
partition; with one, once per count vector. Each face is tilted by
exp(L psi(L/6 + 1) p), which centres it near p = m_v (the tilts multiply to
a constant on the simplex), scaled by its maximum and trimmed to the entries
whose exp does not underflow, so large L neither overflows nor costs more.
The error falls as M^-2: the result is the Richardson extrapolation of M and
2M, their difference / 3 its error bound, and M doubles from a size set by
L / min m until that bound is within 1e-5. A lattice is kept across queries,
one per (L, M, base), so queries at the same L reuse its face sequences and
partial convolutions; past 16 MB of those the kept lattices are dropped at the
end of a query. A kept lattice returns the numbers a new one would, bit for bit.

Monte Carlo (method="mc", the default of the model functions) is the
reference the lattice is checked against. It samples the simplex uniformly
and collapses the sum over frequency vectors with a generating-polynomial
identity: with S(p, z) = sum_l p_l z^l,

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

In the large-N regime old and new throws have the same posterior: the mean
over the slice sum_v v f_v = a of the simplex, weighted by the model's
density, with a per-face error bound. The Johnson slice is a ratio of
saddle-tilted Fourier integrals (quad's error estimates bound it); the
multiplicity slice is a Richardson-extrapolated lattice sum, as at finite N.
"""
from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import (Average, BudgetExhausted, DegenerateWeights, Distribution,
                   PosteriorResult, ANALYTIC_LIMIT, DETERMINISTIC_QUAD, FACE_VALUES,
                   MONTE_CARLO, OLD, N_FACES)
from .combinatorics import _constrained_counts, _pip_total
from .maxent import min_kl
from .simplex_integration import (DEFAULT_SEED, _MC_BATCH, _MCAccumulator, make_rng,
                                  sample_simplex_uniform)


# --- finite-N Monte Carlo kernel ------------------------------------------

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
    from scipy.special import gammaln      # scipy loads on first use; see __init__
    lw = -gammaln(scale * points + 1.0).sum(axis=1)
    if base is not None:
        lw = lw + scale * (points @ np.log(np.asarray(base.probs)))
    return lw


# --- finite-N lattice -------------------------------------------------------

# Richardson target of the lattice, absolute probability per face (0.001 pp).
_LATTICE_TOL = 1e-5
# Grid sizes: the first grid resolves the narrowest per-face peak, (L / m_v)^(-1/2)
# wide, with at least 8 points; the doubling stops at _MAX_GRID.
_MIN_GRID = 500
_MAX_GRID = 2 ** 20
# Below this a log value's exp underflows out of the normal doubles.
_LOG_TINY = math.log(np.finfo(float).tiny)
_LOG_HALF = math.log(0.5)      # the end weight of the trapezoid rule


def _scaled(logv: np.ndarray):
    """A face sequence from its logs, as (first index kept, values scaled to a
    maximum of 1, log scale): only the entries whose exp does not underflow."""
    top = float(logv.max())
    keep = np.flatnonzero(logv - top > _LOG_TINY)
    return int(keep[0]), np.exp(logv[keep[0]:keep[-1] + 1] - top), top


class _Lattice:
    """Simplex integrals I(k) = int prod_v h_{k_v}(p_v) dp on the grid p = j/M,
    h_k(p) = m_v^(L p) p^k / Gamma(L p + 1) on face v, each up to one factor
    common to every k.

    I(k) is entry M of the convolution of the six per-face sequences
    h_{k_v}(j/M), j = 0..M, with weight 1/2 at j = 0 and j = M. Each face is
    tilted by exp(L psi(L/6 + 1) p), which moves the peak of 1/Gamma(L p + 1)
    to p = 1/6, and the base enters as (6 m_v)^(L p), which is 1 for the
    uniform base; on the simplex both multiply to a constant. Every sequence
    is kept as (first index, values scaled to a maximum of 1, log scale); a
    face keeps the entries whose exp does not underflow. I(k) is one dot
    product of the convolutions of faces 1-3 and faces 4-6, which are built
    from cached prefixes. Without a base the faces are exchangeable: all six
    share one sequence, and I(k) depends only on the sorted counts.

    Lattices are shared across queries through _lattice, by (L, M, base), so
    the prefixes of every earlier query stay cached; `nbytes` counts their
    bytes, and past _LATTICE_CACHE_BYTES (16 MB) they are dropped.
    """

    def __init__(self, scale: float, grid: int, base: Optional[Distribution] = None):
        from scipy.special import digamma, gammaln
        self.grid = grid
        self.symmetric = base is None
        p = np.arange(grid + 1) / grid
        with np.errstate(divide="ignore"):
            self._log_p = np.log(p)
        log_h0 = scale * digamma(scale / 6 + 1) * p - gammaln(scale * p + 1)
        log_h0[[0, grid]] += _LOG_HALF
        # one row per distinct face sequence, and the row of each face
        if self.symmetric:
            self._log_h0, self._rows = log_h0[None, :], (0,) * N_FACES
        else:
            log_m = np.log(N_FACES * np.asarray(base.probs))
            self._log_h0, self._rows = log_h0 + scale * np.outer(log_m, p), range(N_FACES)
        self._products: dict = {}
        self.nbytes = 0         # of the products held in _products

    def _product(self, faces: tuple):
        """The convolution of the (row, count) faces, entries past M dropped."""
        if faces in self._products:
            return self._products[faces]
        if len(faces) == 1:
            (row, k), = faces
            log_h0 = self._log_h0[row]
            lo, vals, log_s = _scaled(log_h0 + k * self._log_p if k else log_h0)
        else:
            lo_a, a, log_a = self._product(faces[:-1])
            lo_b, b, log_b = self._product(faces[-1:])
            lo, log_s = lo_a + lo_b, log_a + log_b
            # entries past M cannot reach entry M of the full convolution
            vals = np.convolve(a, b)[:max(self.grid - lo + 1, 0)] if a.size else a
            top = float(vals.max()) if vals.size else 0.0
            if top > 0.0:
                vals, log_s = vals / top, log_s + math.log(top)
        self._products[faces] = (lo, vals, log_s)
        self.nbytes += vals.nbytes
        return self._products[faces]

    def log_integral(self, key: tuple) -> float:
        """ln I(key) for the counts of faces 1-6 (sorted in decreasing order
        when the lattice is symmetric)."""
        faces = tuple(zip(self._rows, key))
        lo_a, a, log_a = self._product(faces[:3])
        lo_b, b, log_b = self._product(faces[3:])
        # sum over j of a[j] b[M - j], on the indices both sequences hold
        j0 = max(lo_a, self.grid - lo_b - b.size + 1)
        j1 = min(lo_a + a.size, self.grid - lo_b + 1)
        if j0 >= j1:
            return -math.inf
        total = float(a[j0 - lo_a:j1 - lo_a]
                      @ b[self.grid - j1 - lo_b + 1:self.grid - j0 - lo_b + 1][::-1])
        return math.log(total) + log_a + log_b if total > 0.0 else -math.inf


# Lattices kept across queries, by (L, M, base): the tables ask for many (N, a)
# cells at few L, and each cell's grids need the same face sequences and prefix
# convolutions. A base lattice never stands in for the symmetric one, even for
# the uniform base. The name ends in _CACHE so that perfbench empties it before
# each round: a user's fresh process starts with it empty too.
_LATTICE_CACHE: dict = {}
# Past this many bytes of products the cache is emptied after the query, so one
# large lattice (large N, or a base at large L) is not kept for the whole process.
_LATTICE_CACHE_BYTES = 1 << 24


def _lattice(scale: float, grid: int, base: Optional[Distribution]) -> _Lattice:
    key = (scale, grid, base)
    if key not in _LATTICE_CACHE:
        _LATTICE_CACHE[key] = _Lattice(scale, grid, base)
    return _LATTICE_CACHE[key]


def _lattice_probs(counts: np.ndarray, n: int, throw: str, lattice: _Lattice) -> np.ndarray:
    """Posterior on one grid: a sum over the count vectors n of
    multinomial(n) I(n) n_i / N (old throw) or multinomial(n) I(n + e_i) (new)."""
    from scipy.special import gammaln
    log_mult = -gammaln(counts + 1.0).sum(axis=1)      # ln N! is common to all
    keys = counts if throw == OLD else counts[:, None, :] + np.eye(N_FACES, dtype=counts.dtype)
    keys = keys.reshape(-1, N_FACES)
    if lattice.symmetric:
        keys = -np.sort(-keys, axis=1)
    # one integer per key, in base n + 2 since no count exceeds n + 1
    codes = keys @ (n + 2) ** np.arange(N_FACES, dtype=np.int64)
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    log_i = np.array([lattice.log_integral(tuple(key)) for key in keys[first].tolist()])
    log_w = log_i[inverse].reshape(counts.shape[0], -1) + log_mult[:, None]
    w = np.exp(log_w - log_w.max())
    probs = (w[:, 0] @ counts) / n if throw == OLD else w.sum(axis=0)
    return probs / probs.sum()


def _richardson(probs_at, grid: int, tol: float, max_grid: int, terms: int = 1):
    """Richardson extrapolation of a lattice posterior whose error falls as M^-2.

    P(2M) + (P(2M) - P(M)) / 3 removes the leading term and |P(2M) - P(M)| / 3
    bounds what is left; the bound is `terms` times that. M doubles from
    `grid` until the bound is within `tol` on every face, or the next grid
    would pass `max_grid` (warns BudgetExhausted). Returns (probs, bound).
    """
    coarse = probs_at(grid)
    while True:
        grid *= 2
        fine = probs_at(grid)
        bound = terms * np.abs(fine - coarse) / 3.0
        if bound.max() <= tol or 2 * grid > max_grid:
            break
        coarse = fine
    if bound.max() > tol:
        warnings.warn(f"lattice stopped at {grid} points per face with Richardson "
                      f"error bound {bound.max():.2e}", BudgetExhausted)
    return np.maximum(fine + (fine - coarse) / 3.0, 0.0), bound


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
        # the first grid resolves the narrowest per-face peak, (L / m_v)^(-1/2) wide
        spread = N_FACES * scale if base is None else scale / min(base.probs)
        grid = max(_MIN_GRID, 1 << math.ceil(math.log2(8.0 * math.sqrt(spread))))
        if 2 * grid > _MAX_GRID:
            with_base = "" if base is None else " with this base"
            raise ValueError(f"multiplicity scale {scale:g}{with_base} needs a lattice finer "
                             f"than {_MAX_GRID} points per face; ask for the parameter-large "
                             f"limit instead (--param large)")
        counts = _constrained_counts(n, s)
        try:
            probs, bound = _richardson(
                lambda m: _lattice_probs(counts, n, throw, _lattice(scale, m, base)),
                grid, _LATTICE_TOL, _MAX_GRID)
        finally:
            if sum(lat.nbytes for lat in _LATTICE_CACHE.values()) > _LATTICE_CACHE_BYTES:
                _LATTICE_CACHE.clear()
        return PosteriorResult.from_distribution(
            Distribution.from_weights(probs), DETERMINISTIC_QUAD, error_bound=bound)

    raise ValueError(f"unknown method {method!r}")


def multiplicity_posterior(n: int, a: Average, scale: float, throw: str,
                           budget: int = 2_000_000, seed: int = DEFAULT_SEED,
                           method: str = "mc") -> PosteriorResult:
    """Posterior for an old or new throw under the symmetric multiplicity model.

    method="mc" samples `budget` points from the streams of `seed`;
    method="deterministic" is the lattice, which sizes its own grid and
    ignores both.
    """
    return _finite_posterior(n, a, scale, None, throw, budget, seed, method)


def generalized_multiplicity_posterior(n: int, a: Average, scale: float,
                                       base: Distribution, throw: str,
                                       budget: int = 2_000_000,
                                       seed: int = DEFAULT_SEED,
                                       method: str = "mc") -> PosteriorResult:
    """Multiplicity model tilted toward a strictly positive base distribution.

    method="mc" samples `budget` points from the streams of `seed`;
    method="deterministic" is the lattice, as for the symmetric model.
    """
    if any(p <= 0 for p in base):
        raise ValueError("base distribution must be strictly positive")
    return _finite_posterior(n, a, scale, base, throw, budget, seed, method)


# --- large-N slice posteriors -----------------------------------------------

# Error target of a slice posterior, absolute probability per face (0.05 pp,
# half a printed digit); a larger bound warns BudgetExhausted.
_SLICE_TOL = 5e-4
# Slice lattice sizes: the first grid is a multiple of the average's
# denominator, at least _MIN_SLICE_GRID, with a point in the narrowest feature
# of the weights and of the slice; the doubling stops at _MAX_SLICE_GRID,
# where the arrays reach tens of megabytes.
_MIN_SLICE_GRID = 60
_MAX_SLICE_GRID = 1024
# Elements of the faces 1-3 array paired per block: the table grids pair in one
# block, and a large grid's pairing arrays stay within a few megabytes each.
_PAIR_BLOCK = 1 << 18


def _vertex(face: int) -> PosteriorResult:
    return PosteriorResult.from_distribution(Distribution.vertex(face), ANALYTIC_LIMIT)


def _johnson_fourier(a: float, alpha: np.ndarray):
    """Mean of f ~ Dirichlet(alpha) on the slice sum v f_v = a, by Fourier inversion.

    With G_v ~ Gamma(alpha_v) independent and c_v = v - a, the slice mean is
    N_i / sum N with N_i = E[G_i delta(sum c_v G_v)], and
    N_i = alpha_i int_0^inf Re[phi(t) / (1 - i t c_i)] dt,
    phi(t) = prod_v (1 - i t c_v)^-alpha_v. The integral is first tilted to
    its saddle point: theta solves sum alpha_v c_v / (1 + theta c_v) = 0 with
    every 1 + theta c_v > 0; c_v becomes c_v / (1 + theta c_v), N_i gains the
    factor 1 / (1 + theta c_i), and t is scaled by the tilted standard
    deviation. Without the tilt the terms cancel and the sum is ruined.
    Returns (probs, per-face error bound from quad's error estimates).
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    c = np.asarray(FACE_VALUES, dtype=float) - a
    # the tilt only conditions the integral, so any root inside the bracket will do
    lo, hi = -1.0 / c[-1], -1.0 / c[0]
    theta = brentq(lambda th: float(np.sum(alpha * c / (1.0 + th * c))),
                   lo * (1.0 - 1e-14), hi * (1.0 - 1e-14))
    tilt = 1.0 + theta * c
    ct = c / tilt
    ct /= math.sqrt(float(alpha @ ct ** 2))

    def phi(t):
        return np.exp(-(alpha @ np.log1p(-1j * t * ct)))

    values, errors = np.empty(N_FACES), np.empty(N_FACES)
    for i in range(N_FACES):
        # full_output keeps quad from warning; its error estimate is the bound
        values[i], errors[i] = quad(lambda t: (phi(t) / (1.0 - 1j * t * ct[i])).real,
                                    0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200,
                                    full_output=1)[:2]
    scale = alpha / tilt
    num, err = scale * values, scale * errors
    total = num.sum()
    probs = np.maximum(num / total, 0.0)
    return probs, (err + probs * err.sum()) / total


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


def _slice_probs(a: Average, log_weight, grid: int) -> np.ndarray:
    """The slice mean on the grid f = j/M with sum j = M and sum v j = a M.

    Each face keeps j up to M times its largest value on the slice, with
    weight 1/2 at j = 0 and j = M, and _pair_means sums over the slice.
    """
    av = a.value
    faces = []
    for v in FACE_VALUES:
        top = 1 if v == av else (6 - av) / (6 - v) if v < av else (av - 1) / (v - 1)
        j = np.arange(math.floor(top * grid) + 1)
        logv = log_weight(v - 1, j / grid)
        logv[0] += _LOG_HALF
        if j[-1] == grid:
            logv[-1] += _LOG_HALF
        faces.append(_scaled(logv)[:2])
    return _pair_means(faces, grid, int((av - 1) * grid)) / grid


def _slice_lattice(a: Average, log_weight, width: float):
    """Mean over the slice of prod_v exp(log_weight(v, f_v)) (v 0-based), and
    its per-face error bound; `width` is the weights' narrowest feature in f."""
    den = a.value.denominator
    extent = float(min(a.value - 1, 6 - a.value)) / 5.0    # the slice's narrowest face range
    grid = den * math.ceil(_MIN_SLICE_GRID / den)
    while grid * min(width, extent) < 1.0:
        grid *= 2
    if 2 * grid > _MAX_SLICE_GRID:
        raise ValueError(f"the slice at average {a} needs a lattice of {2 * grid} points "
                         f"per face (a multiple of the average's denominator that resolves "
                         f"the weights), more than {_MAX_SLICE_GRID}; for a large model "
                         f"parameter ask for its limit (--param large --n-over-param large)")
    # Where the error falls faster than M^-2 (weights that vanish at the faces)
    # the extrapolation overshoots by up to |P(2M) - P(M)| / 3, so the bound
    # counts that term twice: the correction itself, and P(2M)'s own error.
    return _richardson(lambda m: _slice_probs(a, log_weight, m), grid,
                       _SLICE_TOL, _MAX_SLICE_GRID, terms=2)


def _slice_result(probs: np.ndarray, bound: np.ndarray) -> PosteriorResult:
    return PosteriorResult.from_distribution(Distribution.from_weights(probs),
                                             DETERMINISTIC_QUAD, error_bound=bound)


def _check_concentration(concentration: float):
    if not (concentration > 0 and math.isfinite(concentration)):
        raise ValueError("concentration must be a finite positive real")


def johnson_large_n(a: Average, concentration: float,
                    base: Optional[Distribution] = None,
                    budget: int = 1_000_000) -> PosteriorResult:
    """Large-N Johnson posterior (old and new coincide): the mean over the slice
    of the Dirichlet(K m) density prod f^(K m_v - 1), m uniform without a base.

    Computed by Fourier inversion (see _johnson_fourier), which sets its own
    accuracy: `budget` is accepted and ignored. When a is a face value v and
    the other faces' concentrations sum to at most 1, the slice density cannot
    be integrated at the vertex e_v, and the posterior is that vertex.
    """
    _check_concentration(concentration)
    alpha = concentration * (np.asarray(base.probs) if base is not None
                             else np.ones(N_FACES))
    av = a.value
    if av.denominator == 1:
        face = av.numerator
        rest = float(np.delete(alpha, face - 1).sum())
        if face in (1, 6) or rest <= 1.0 + 1e-12:   # at most 1, up to rounding
            return _vertex(face)
    probs, bound = _johnson_fourier(float(av), alpha)
    if bound.max() > _SLICE_TOL:
        warnings.warn(f"Fourier inversion error bound {bound.max():.2e}", BudgetExhausted)
    return _slice_result(probs, bound)


def multiplicity_large_n(a: Average, scale: float,
                         base: Optional[Distribution] = None,
                         budget: int = 1_000_000) -> PosteriorResult:
    """Large-N multiplicity posterior: the mean over the slice of the density
    prod m_v^(L f_v) / Gamma(L f_v + 1), m uniform without a base.

    Computed on the slice lattice (see _slice_lattice), which sizes its own
    grid: `budget` is accepted and ignored. Each face is tilted by
    (L f*_v)^(L f_v), f* the distribution of least divergence from the base
    at mean a, which centres it near f*_v; on the slice the tilts multiply to
    a constant times the base factor. An L whose peaks the largest grid
    cannot resolve raises ValueError.
    """
    if not (scale >= 1 and math.isfinite(scale)):
        raise ValueError("multiplicity scale must be a finite real >= 1")
    from scipy.special import gammaln

    if a.value in (1, 6):
        return _vertex(int(a.value))
    target = np.asarray(min_kl(a, base or Distribution.uniform()).distribution.probs)
    log_tilt = np.log(scale * target)

    def log_weight(v, p):
        return scale * p * log_tilt[v] - gammaln(scale * p + 1.0)

    # a face peaks (L f*)^(1/2) / L wide, or decays within 1 / L of f = 0
    width = float(np.min(np.maximum(np.sqrt(scale * target), 1.0))) / scale
    return _slice_result(*_slice_lattice(a, log_weight, width))
