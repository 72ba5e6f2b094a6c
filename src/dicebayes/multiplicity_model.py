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
exp(L ln(L/6 + 1/2) p), which centres it near p = m_v (the tilts multiply to
a constant on the simplex), scaled by its maximum and trimmed to the entries
whose exp does not underflow, so large L neither overflows nor costs more.
The error is a series in M^-2; the Richardson extrapolate R(M) = P(M) +
(P(M) - P(M/2)) / 3 removes its first term, so R's error falls as M^-4. The
result is R on the finest of three grids g, 2g and 4g, and its bound is
|R(4g) - R(2g)|, a second Richardson level about 15 times R(4g)'s error, plus
a roundoff floor of 1e-10. g puts 2 points in the narrowest per-face peak,
(L / min m)^(-1/2) wide, and is at least 64; the grids double until the bound
is within 1e-5. A query builds its keys and multinomials once, for all its
grids. A lattice is kept across queries, one per (L, M, base), so queries at
the same L reuse its face sequences and partial convolutions; past 16 MB of
those the kept lattices are dropped at the end of a query. A kept lattice
returns the numbers a new one would, bit for bit.

Monte Carlo (method="mc", the default of the model functions) is the
reference the lattice is checked against; it lives in simplex_integration.

In the large-N regime old and new throws have the same posterior: the mean
over the slice sum_v v f_v = a of the simplex, weighted by the model's
density, with a per-face error bound. The Johnson slice is a ratio of
saddle-tilted Fourier integrals, all six on the nodes of one exp-sinh rule
(the change of its last step halving bounds it); the multiplicity slice is a
Richardson-extrapolated lattice sum, as at finite N, paired by the engine
shared with the closed forms (engine._pair_means).
"""
from __future__ import annotations

import functools
import math
import warnings
from typing import Optional

import numpy as np

from .core import (_check_base, Average, BudgetExhausted, Distribution, PosteriorResult,
                   ANALYTIC_LIMIT, DETERMINISTIC_QUAD, FACE_VALUES, OLD, N_FACES)
from .combinatorics import _constrained_counts, _pip_total
from .engine import (_LOG_HALF, _MAX_SLICE_GRID, _log_factorials, _log_gamma, _pair_means,
                     _richardson, _scaled)
from .exact_models import _pseudo_counts
from .maxent import burg_tilt, min_kl
from .simplex_integration import DEFAULT_SEED, _multiplicity_mc


# --- finite-N lattice -------------------------------------------------------

# Error target of the lattice, absolute probability per face (0.001 pp).
_LATTICE_TOL = 1e-5
# Grid sizes: the first grid puts 2 points in the narrowest per-face peak,
# (L / m_v)^(-1/2) wide, with at least _MIN_GRID points; the doubling stops at
# _MAX_GRID.
_MIN_GRID = 64
_MAX_GRID = 2 ** 20


class _Lattice:
    """Simplex integrals I(k) = int prod_v h_{k_v}(p_v) dp on the grid p = j/M,
    h_k(p) = m_v^(L p) p^k / Gamma(L p + 1) on face v, each up to one factor
    common to every k.

    I(k) is entry M of the convolution of the six per-face sequences
    h_{k_v}(j/M), j = 0..M, with weight 1/2 at j = 0 and j = M. Each face is
    tilted by exp(L ln(L/6 + 1/2) p), which moves the peak of 1/Gamma(L p + 1)
    near p = 1/6 (psi(L/6 + 1) would put it there exactly), and the base
    enters as (6 m_v)^(L p), which is 1 for the uniform base; on the simplex
    both multiply to a constant, so neither moves the result. Every sequence
    is kept as (first index, values scaled to a maximum of 1, log scale); a
    face keeps the entries whose exp does not underflow. I(k) is one dot
    product of the convolutions of faces 1-3 and faces 4-6, which are built
    from cached prefixes. Without a base the faces are exchangeable: all six
    share one sequence, and I(k) depends only on the sorted counts.

    A query asks one lattice per grid, g, 2g, 4g and on while it refines, for
    the integrals of its distinct keys (see _LatticeSum). Lattices are shared
    across queries through _lattice, by (L, M, base), so the prefixes of every
    earlier query stay cached; `nbytes` counts their bytes, and past
    _LATTICE_CACHE_BYTES (16 MB) they are dropped.
    """

    def __init__(self, scale: float, grid: int, base: Optional[Distribution] = None):
        self.grid = grid
        self.symmetric = base is None
        p = np.arange(grid + 1) / grid
        with np.errstate(divide="ignore"):
            self._log_p = np.log(p)
        log_h0 = scale * math.log(scale / 6 + 0.5) * p - _log_gamma(scale * p + 1)
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


class _LatticeSum:
    """The sum over the count vectors n of one query, prepared once for all its
    grids: multinomial(n) I(n) n_i / N (old throw) or multinomial(n) I(n + e_i)
    (new). The keys of I (sorted for a symmetric lattice), their distinct
    values and the log multinomials do not depend on the grid."""

    def __init__(self, counts: np.ndarray, n: int, throw: str, symmetric: bool):
        self.counts, self.n, self.throw = counts, n, throw
        self.log_mult = -_log_factorials(n)[counts].sum(axis=1)     # ln N! is common to all
        keys = counts if throw == OLD else counts[:, None, :] + np.eye(N_FACES, dtype=counts.dtype)
        keys = keys.reshape(-1, N_FACES)
        if symmetric:
            keys = -np.sort(-keys, axis=1)
        # one integer per key, in base n + 2 since no count exceeds n + 1
        codes = keys @ (n + 2) ** np.arange(N_FACES, dtype=np.int64)
        _, first, self.inverse = np.unique(codes, return_index=True, return_inverse=True)
        self.keys = [tuple(key) for key in keys[first].tolist()]

    def probs(self, lattice: _Lattice) -> np.ndarray:
        """The posterior on one grid."""
        log_i = np.array([lattice.log_integral(key) for key in self.keys])
        log_w = log_i[self.inverse].reshape(self.counts.shape[0], -1) + self.log_mult[:, None]
        w = np.exp(log_w - log_w.max())
        probs = (w[:, 0] @ self.counts) / self.n if self.throw == OLD else w.sum(axis=0)
        return probs / probs.sum()


def _finite_posterior(n: int, a: Average, scale: float,
                      base: Optional[Distribution], throw: str,
                      budget: int, seed: int, method: str) -> PosteriorResult:
    if not (scale >= 1 and math.isfinite(scale)):
        raise ValueError("multiplicity scale must be a finite real >= 1")
    s = _pip_total(n, a)

    if method == "mc":
        return _multiplicity_mc(n, s, scale, base, throw, budget, seed)

    if method == "deterministic":
        # the first grid resolves the narrowest per-face peak, (L / m_v)^(-1/2) wide
        spread = N_FACES * scale if base is None else scale / min(base.probs)
        grid = max(_MIN_GRID, 1 << math.ceil(math.log2(2.0 * math.sqrt(spread))))
        if 4 * grid > _MAX_GRID:
            with_base = "" if base is None else " with this base"
            raise ValueError(f"multiplicity scale {scale:g}{with_base} needs a lattice finer "
                             f"than {_MAX_GRID} points per face; ask for the parameter-large "
                             f"limit instead (--param large)")
        lattice_sum = _LatticeSum(_constrained_counts(n, s), n, throw, base is None)
        try:
            probs, bound = _richardson(lambda m: lattice_sum.probs(_lattice(scale, m, base)),
                                       grid, _LATTICE_TOL, _MAX_GRID, romberg=True)
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
    _check_base(base)
    return _finite_posterior(n, a, scale, base, throw, budget, seed, method)


# --- large-N slice posteriors -----------------------------------------------

# Error target of a slice posterior, absolute probability per face (0.05 pp,
# half a printed digit); a larger bound warns BudgetExhausted.
_SLICE_TOL = 5e-4
# Slice lattice sizes: the first grid is a multiple of the average's
# denominator, at least _MIN_SLICE_GRID, with a point in the narrowest feature
# of the weights and of the slice; the doubling stops at _MAX_SLICE_GRID.
_MIN_SLICE_GRID = 60


# Exp-sinh rule of the Fourier slice (Takahasi & Mori 1974): nodes x = x_lo + k h,
# t = exp(pi/2 sinh x). The step halves from _DE_STEP, reusing the nodes, until
# every face changes by at most _DE_TOL of the numerators' sum, or down to
# _DE_MIN_STEP. The nodes run from ln t = _DE_LOG_CUT to where the rest of the
# slowest tail is below e^_DE_LOG_CUT, but at most to x = _DE_X_MAX (ln t =
# 1.8e17, 5 600 nodes at the finest step): a tail slower than that is left out
# and counted in the bound. _DE_FLOOR, absolute per face, is the roundoff.
_DE_STEP = 0.125
_DE_MIN_STEP = 2.0 ** -7
_DE_TOL = 1e-13
_DE_LOG_CUT = -40.0
_DE_X_MAX = 40.0
_DE_FLOOR = 1e-15
# Up to |t c_v| = _DE_SERIES on every face, arg phi is the sum of alpha_v
# (arctan x - x) at x = t c_v, from the series x^3 (-1/3 + x^2/5 - ...) with these
# coefficients, highest first: the terms linear in t, whose sum is 0 at the
# saddle, are left out, where with a large alpha they would cancel to noise.
_DE_SERIES = 0.25
_ATAN_SERIES = [(-1) ** k / (2 * k + 1) for k in range(13, 0, -1)]


def _vertex(face: int) -> PosteriorResult:
    return PosteriorResult.from_distribution(Distribution.vertex(face), ANALYTIC_LIMIT)


def _johnson_fourier(a: float, alpha: np.ndarray):
    """Mean of f ~ Dirichlet(alpha) on the slice sum v f_v = a, by Fourier inversion.

    With G_v ~ Gamma(alpha_v) independent and c_v = v - a, the slice mean is
    N_i / sum N with N_i = E[G_i delta(sum c_v G_v)], and
    N_i = alpha_i int_0^inf Re[phi(t) / (1 - i t c_i)] dt,
    phi(t) = prod_v (1 - i t c_v)^-alpha_v. The integral is first tilted to
    its saddle point: theta solves sum alpha_v c_v / (1 + theta c_v) = 0 with
    every 1 + theta c_v > 0 (the Burg multiplier, see burg_tilt); c_v becomes
    c_v / (1 + theta c_v), N_i gains the factor 1 / (1 + theta c_i), and t is
    scaled by the tilted standard deviation. Without the tilt the terms cancel
    and the sum is ruined.

    The six integrals share the nodes of one exp-sinh rule, and phi is taken
    once per node, in log space and from real functions: ln|phi| = -1/2
    sum alpha_v ln(1 + (t c_v)^2) and arg phi = sum alpha_v arctan(t c_v), so
    neither t nor phi overflows and a large alpha loses no digits to complex
    rounding. Past |t c_i| = 1 the quarter turn of arctan(t c_i) and the ln t
    of |t / (1 - i t c_i)| are taken out exactly, so that a slow tail keeps its
    digits. Face i's integrand is at most min(1, C_i t^-p_i), p_i the sum of
    the alpha_v with c_v != 0, plus 1 if c_i != 0, as (1 + x^2)^(-1/2) <= 1/|x|;
    that sets the last node. At a = v, p_v is only the other faces' sum, which
    can be just above 1, and the nodes then reach far.
    Returns (probs, per-face error bound: the change of the last halving, what
    the two ends leave out, and the roundoff floor).
    """
    c = np.asarray(FACE_VALUES, dtype=float) - a
    total_alpha = float(alpha.sum())
    weights = alpha / total_alpha          # the tilt and the ratios need only these
    tilt = 1.0 + burg_tilt(a, weights) * c
    ct = c / tilt
    ct /= math.sqrt(total_alpha) * math.sqrt(float(weights @ ct ** 2))
    live = ct != 0
    log_c = np.full(N_FACES, -np.inf)
    log_c[live] = np.log(np.abs(ct[live]))
    sign = np.sign(ct)

    # beyond ln t = u face i leaves out C_i e^(-(p_i - 1) u) / (p_i - 1), with
    # ln C_i = -sum alpha_v ln|c_v| - [c_i != 0] ln|c_i|; log_t_cut is the u
    # where that is e^_DE_LOG_CUT, divided through so that no alpha overflows
    power = alpha[live].sum() + (live - 1.0)                 # p_i - 1
    with np.errstate(over="ignore"):
        log_t_cut = -(weights[live] @ log_c[live]) * (total_alpha / power) - (
            np.where(live, log_c, 0.0) + np.log(power) + _DE_LOG_CUT) / power
        log_t_hi = min(max(float(log_t_cut.max()), 0.0), (math.pi / 2) * math.sinh(_DE_X_MAX))
        cut_hi = np.exp(power * (log_t_cut - log_t_hi) + _DE_LOG_CUT)
    x_lo = math.asinh(_DE_LOG_CUT / (math.pi / 2))
    x_hi = math.asinh(log_t_hi / (math.pi / 2))
    log_t_series = math.log(_DE_SERIES) - float(log_c.max())

    def integrand(x):
        """The six integrands, times dt/dx, summed over the nodes x (ascending)."""
        log_t = (math.pi / 2) * np.sinh(x)
        u = log_t[:, None] + log_c                            # ln |t c_v|
        far = u > 0.0
        # the huge-alpha sums below may overflow, but only where |phi| is 0
        with np.errstate(over="ignore", invalid="ignore"):
            # t c_v, or 1 / (t c_v) where |t c_v| > 1
            s = sign * np.exp(-np.abs(u))
            rest = 0.5 * np.log1p(s * s)
            half_log1p = np.maximum(u, 0.0) + rest            # 1/2 ln(1 + (t c_v)^2)
            # ln t - 1/2 ln(1 + (t c_i)^2), with ln t cancelled where t c_i > 1
            log_face = np.where(far, -log_c, log_t[:, None]) - rest
            # arctan(t c_v) = r_v, or sign_v pi/2 + r_v where |t c_v| > 1
            r = np.arctan(s)
            r[far] *= -1.0
            arg = (r + (math.pi / 2) * sign * far) @ alpha
            near = np.searchsorted(log_t, log_t_series, side="right")
            square = s[:near] ** 2
            series = np.zeros_like(square)
            for coef in _ATAN_SERIES:
                series = series * square + coef
            arg[:near] = (s[:near] * square * series) @ alpha
            log_mag = np.log((math.pi / 2) * np.cosh(x)) - half_log1p @ alpha
            mag = np.exp(log_mag[:, None] + log_face)
            # cos(arg + sign pi/2 + r) = -sign sin(arg + r): a cosine near 0 keeps its digits
            y = arg[:, None] + r
            wave = np.where(far, -sign * np.sin(y), np.cos(y))
            return np.where(mag > 0, mag * wave, 0.0).sum(axis=0)

    scale = weights / tilt
    step = _DE_STEP
    count = math.ceil((x_hi - x_lo) / step)
    sums = integrand(x_lo + step * np.arange(count + 1))
    values = step * sums
    while True:
        step /= 2
        sums += integrand(x_lo + step * np.arange(1, 2 * count, 2))
        count *= 2
        change = np.abs(step * sums - values)
        values = step * sums
        num = scale * values
        total = num.sum()
        if not (np.max(scale * change) > _DE_TOL * total) or step <= _DE_MIN_STEP:
            break
    err = scale * (change + math.exp(_DE_LOG_CUT) + cut_hi)
    probs = np.maximum(num / total, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (err + probs * err.sum()) / total + _DE_FLOOR
    # never negative or nan: a bound that cannot be computed is inf
    return probs, np.where((bound >= 0) & (total > 0), bound, np.inf)


def _slice_probs(a: Average, log_weights, grid: int) -> np.ndarray:
    """The slice mean on the grid f = j/M with sum j = M and sum v j = a M.

    Each face keeps j up to M times its largest value on the slice, with
    weight 1/2 at j = 0 and j = M, and _pair_means sums over the slice.
    """
    av = a.value
    log_w = log_weights(np.arange(grid + 1) / grid)
    faces = []
    for v in FACE_VALUES:
        top = 1 if v == av else (6 - av) / (6 - v) if v < av else (av - 1) / (v - 1)
        logv = log_w[v - 1, :math.floor(top * grid) + 1]
        logv[0] += _LOG_HALF
        if logv.size == grid + 1:
            logv[-1] += _LOG_HALF
        faces.append(_scaled(logv)[:2])
    return _pair_means(faces, grid, int((av - 1) * grid)) / grid


def _slice_lattice(a: Average, log_weights, width: float):
    """Mean over the slice of prod_v exp(log_weights(f)[v - 1, f_v]), and its
    per-face error bound. `log_weights` takes a grid's points f once and gives
    each face's log weight at them; `width` is the weights' narrowest feature in f."""
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
    return _richardson(lambda m: _slice_probs(a, log_weights, m), grid,
                       _SLICE_TOL, _MAX_SLICE_GRID)


def _slice_result(probs: np.ndarray, bound: np.ndarray) -> PosteriorResult:
    return PosteriorResult.from_distribution(Distribution.from_weights(probs),
                                             DETERMINISTIC_QUAD, error_bound=bound)


@functools.lru_cache(maxsize=64)
def _slice_log_gamma(scale: float, grid: int) -> np.ndarray:
    """ln Gamma(L f + 1) on the grid f = j/M, read-only. It depends on neither the
    face nor the average, so queries at one L share it: the table averages all
    start from M = 60."""
    log_gamma = _log_gamma(scale * (np.arange(grid + 1) / grid) + 1.0)
    log_gamma.flags.writeable = False
    return log_gamma


def johnson_large_n(a: Average, concentration: float,
                    base: Optional[Distribution] = None,
                    budget: int = 1_000_000) -> PosteriorResult:
    """Large-N Johnson posterior (old and new coincide): the mean over the slice
    of the Dirichlet(K m) density prod f^(K m_v - 1), m uniform without a base.

    Computed by Fourier inversion (see _johnson_fourier), which sets its own
    accuracy: `budget` is accepted and ignored. When a is a face value v and
    the other faces' concentrations sum to at most 1, the slice density cannot
    be integrated at the vertex e_v, and the posterior is that vertex. A
    concentration whose pseudo-counts would overflow (above about 3e307)
    raises ValueError.
    """
    _check_base(base)
    alpha = _pseudo_counts(concentration, base)
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
    _check_base(base)
    if not (scale >= 1 and math.isfinite(scale)):
        raise ValueError("multiplicity scale must be a finite real >= 1")
    if a.value in (1, 6):
        return _vertex(int(a.value))
    target = np.asarray(min_kl(a, base or Distribution.uniform()).distribution.probs)
    log_tilt = np.log(scale * target)

    def log_weights(p):
        return np.outer(log_tilt, scale * p) - _slice_log_gamma(scale, p.size - 1)

    # a face peaks (L f*)^(1/2) / L wide, or decays within 1 / L of f = 0
    width = float(np.min(np.maximum(np.sqrt(scale * target), 1.0))) / scale
    return _slice_result(*_slice_lattice(a, log_weights, width))
