"""Measure-correct integration over the probability simplex and its average slice.

Two independent integrators are provided: plain Monte Carlo (uniform w.r.t. the
flat measure, counter-based RNG streams) and a deterministic adaptive scheme
built on Grundmann-Moller symmetric quadrature rules with longest-edge
bisection. All integrands are evaluated in log domain; -inf values contribute
exactly zero weight. The measure is always normalized to unit total volume, so
every result is a mean over the domain and overall measure scales cancel.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.spatial import Delaunay
from scipy.special import gammaln

from .core import (Average, BudgetExhausted, DegeneratePolytope, Distribution,
                   FACE_VALUES, N_FACES)

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


def dirichlet_beta_integral(b) -> float:
    """log of int prod p_l^(b_l - 1) dp over the simplex (Lebesgue measure).

    Value is prod Gamma(b_l) / Gamma(sum b_l); with b = 1 this is the
    5-simplex volume 1/120, consistent with uniform Monte Carlo moments.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (N_FACES,) or np.any(b <= 0.0):
        raise ValueError("need 6 strictly positive exponents")
    return float(np.sum(gammaln(b)) - gammaln(np.sum(b)))


@dataclass(frozen=True)
class QuadratureEstimate:
    value: float
    stderr: float
    evaluations: int
    error_indicator: float = 0.0
    converged: bool = True


@dataclass(frozen=True)
class ConstraintPolytope:
    """Slice of the simplex at a fixed average, triangulated for integration."""

    average: Average
    vertices: tuple              # tuples of Fractions, each summing to 1
    simplices: tuple             # vertex-index 5-tuples
    relative_volumes: tuple      # one per simplex, summing to 1
    total_volume: float          # absolute 4-d volume in an orthonormal chart

    def vertex_array(self) -> np.ndarray:
        return np.asarray([[float(x) for x in v] for v in self.vertices])


def build_constraint_polytope(a: Average) -> ConstraintPolytope:
    """Vertices of the hyperplane slice v.f = a, with a Delaunay triangulation.

    Each vertex is the exact rational intersection of the hyperplane with an
    edge (i, j) of the simplex, or a simplex vertex whose value equals a.
    """
    av = a.value
    if av == 1 or av == 6:
        raise DegeneratePolytope(Distribution.vertex(int(av)))
    vertices = []
    for i in FACE_VALUES:
        if av == i:
            vertices.append(tuple(Fraction(1) if k == i else Fraction(0)
                                  for k in FACE_VALUES))
    for i, j in combinations(FACE_VALUES, 2):
        if i < av < j:
            fi = Fraction(j - av, j - i)
            fj = Fraction(av - i, j - i)
            vertices.append(tuple(fi if k == i else fj if k == j else Fraction(0)
                                  for k in FACE_VALUES))
    vertices.sort()
    varr = np.asarray([[float(x) for x in v] for v in vertices])

    # orthonormal chart of the 4-d affine hull, then Delaunay (valid for any
    # convex polytope; equivalent to a fan when the polytope is a simplex)
    center = varr.mean(axis=0)
    _, sv, vt = np.linalg.svd(varr - center)
    basis = vt[:4]
    chart = (varr - center) @ basis.T
    if len(vertices) == 5:
        simplices = [tuple(range(5))]
    else:
        simplices = [tuple(sorted(s)) for s in Delaunay(chart).simplices]
        simplices.sort()

    volumes = []
    for s in simplices:
        edges = chart[list(s[1:])] - chart[s[0]]
        volumes.append(abs(np.linalg.det(edges)) / 24.0)
    total = float(sum(volumes))
    rel = tuple(v / total for v in volumes)
    return ConstraintPolytope(a, tuple(vertices), tuple(simplices), rel, total)


def sample_polytope_uniform(poly: ConstraintPolytope, rng: np.random.Generator,
                            count: int) -> np.ndarray:
    """Uniform points on the slice: pick a triangulation simplex by volume,
    then a barycentrically uniform point inside it."""
    varr = poly.vertex_array()
    idx = rng.choice(len(poly.simplices), size=count, p=np.asarray(poly.relative_volumes))
    bary = rng.standard_exponential((count, 5))
    bary /= bary.sum(axis=1, keepdims=True)
    simp = np.asarray(poly.simplices)[idx]          # (count, 5)
    pts = np.einsum("nk,nkd->nd", bary, varr[simp])
    return pts


# --- Monte Carlo ratio / integral machinery -------------------------------

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
        self.s_w += float(w.sum())
        self.s_w2 += float((w * w).sum())
        xw = x * w[:, None]
        self.s_xw += xw.sum(axis=0)
        self.s_xw2 += (xw * w[:, None]).sum(axis=0)
        self.s_x2w2 += (xw * xw).sum(axis=0)

    def ratio(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """Ratio estimate, its delta-method stderr and the Kish effective
        sample size (sum w)^2 / sum w^2."""
        if self.shift is None or self.s_w <= 0.0:
            raise ValueError("integrand vanished on every sample")
        r = self.s_xw / self.s_w
        var = np.maximum(self.s_x2w2 - 2.0 * r * self.s_xw2 + r * r * self.s_w2, 0.0)
        return r, np.sqrt(var) / self.s_w, self.s_w * self.s_w / self.s_w2

    def mean(self) -> Tuple[float, float]:
        """Plain mean of w over samples (normalized-measure integral) and its stderr."""
        if self.shift is None:
            return 0.0, 0.0
        scale = math.exp(self.shift)
        mean = self.s_w / self.n
        var = max(self.s_w2 / self.n - mean * mean, 0.0)
        return scale * mean, scale * math.sqrt(var / self.n)


def _mc_run(sampler, fn, budget: int, seed: int, ncols: int) -> _MCAccumulator:
    acc = _MCAccumulator(ncols)
    stream = 0
    remaining = int(budget)
    while remaining > 0:
        nb = min(_MC_BATCH, remaining)
        pts = sampler(make_rng(seed, stream), nb)
        logw, x = fn(pts)
        acc.add(np.asarray(logw, dtype=float), np.asarray(x, dtype=float))
        remaining -= nb
        stream += 1
    return acc


# --- deterministic machinery ----------------------------------------------

def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


_GM_CACHE = {}


def _gm_rule(dim: int, s: int) -> Tuple[np.ndarray, np.ndarray]:
    """Grundmann-Moller rule of degree 2s+1 on a dim-simplex.

    Returns barycentric nodes and weights normalized so they sum to 1 (i.e.
    the rule approximates the *average* of the integrand over the simplex).
    """
    key = (dim, s)
    if key in _GM_CACHE:
        return _GM_CACHE[key]
    d = 2 * s + 1
    nodes, weights = [], []
    for i in range(s + 1):
        denom = d + dim - 2 * i
        w = ((-1) ** i) * 2.0 ** (-2 * s) * denom ** d / (
            math.factorial(i) * math.factorial(d + dim - i))
        for beta in _compositions(s - i, dim + 1):
            nodes.append([(2 * b + 1) / denom for b in beta])
            weights.append(w)
    nodes = np.asarray(nodes)
    weights = np.asarray(weights)
    weights = weights / weights.sum()  # exact total is 1/dim!; normalize to average
    _GM_CACHE[key] = (nodes, weights)
    return nodes, weights


# Cells as (vertices (cells, m, 6), volume fractions (cells,)).
_Cells = Tuple[np.ndarray, np.ndarray]


def _bisect(verts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Halve a cell across its longest edge (the first one, on ties)."""
    m = verts.shape[0]
    best, bi, bj = -1.0, 0, 1
    for i in range(m):
        for j in range(i + 1, m):
            d = float(np.sum((verts[i] - verts[j]) ** 2))
            if d > best:
                best, bi, bj = d, i, j
    mid = 0.5 * (verts[bi] + verts[bj])
    va = verts.copy()
    va[bi] = mid
    vb = verts.copy()
    vb[bj] = mid
    return va, vb


class _DetState:
    """Adaptive subdivision state shared by ratio and single-integral paths.

    The cells are parallel arrays: vertices, volume fractions, the high- and
    low-degree rule values of (w, x*w), and the error indicator that orders
    refinement.
    """

    def __init__(self, roots: _Cells, dim: int, fn, ncols: int):
        self.fn = fn
        self.ncols = ncols
        self.shift = None
        self.evaluations = 0
        self.nodes_hi, self.w_hi = _gm_rule(dim, 2)
        self.nodes_lo, self.w_lo = _gm_rule(dim, 1)
        verts, frac = roots
        self.verts, self.frac = verts[:0], frac[:0]     # empty; _add appends the roots
        self.hi = np.zeros((0, 1 + ncols))
        self.lo = np.zeros((0, 1 + ncols))
        self.err = np.zeros(0)
        self._add(verts, frac)

    def _add(self, verts: np.ndarray, frac: np.ndarray):
        """Evaluate the rules on new cells and append them."""
        nhi = self.nodes_hi.shape[0]
        nlo = self.nodes_lo.shape[0]
        pts = np.concatenate(
            [np.concatenate([self.nodes_hi @ v, self.nodes_lo @ v]) for v in verts])
        logw, x = self.fn(pts)
        logw = np.asarray(logw, dtype=float)
        x = np.asarray(x, dtype=float)
        self.evaluations += pts.shape[0]
        finite = np.isfinite(logw)
        if np.any(finite):
            m = float(logw[finite].max())
            if self.shift is None:
                self.shift = m
            elif m > self.shift + 200.0:
                r = math.exp(self.shift - m)
                self.hi *= r
                self.lo *= r
                self.shift = m
        shift = self.shift if self.shift is not None else 0.0
        w = np.where(np.isfinite(logw), np.exp(np.minimum(logw - shift, 700.0)), 0.0)
        cols = np.concatenate([w[:, None], x * w[:, None]], axis=1)  # (pts, 1+ncols)
        per = nhi + nlo
        hi = np.empty((len(frac), 1 + self.ncols))
        lo = np.empty_like(hi)
        for k in range(len(frac)):
            block = cols[k * per:(k + 1) * per]
            hi[k] = self.w_hi @ block[:nhi]
            lo[k] = self.w_lo @ block[nhi:]
        self.verts = np.concatenate([self.verts, verts])
        self.frac = np.concatenate([self.frac, frac])
        self.hi = np.concatenate([self.hi, hi])
        self.lo = np.concatenate([self.lo, lo])
        self.err = np.concatenate([self.err, np.abs(hi - lo).max(axis=1) * frac])

    def totals(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.frac @ self.hi, self.frac @ np.abs(self.hi - self.lo)

    def refine_wave(self, max_cells: int = 32):
        """Bisect the cells with the largest error indicators (earlier cells
        first on ties); the rest keep their order, the children go last."""
        order = np.argsort(-self.err, kind="stable")
        wave, rest = order[:max_cells], order[max_cells:]
        children = np.stack([half for i in wave for half in _bisect(self.verts[i])])
        frac = np.repeat(self.frac[wave] / 2.0, 2)
        self.verts = self.verts[rest]
        self.frac = self.frac[rest]
        self.hi = self.hi[rest]
        self.lo = self.lo[rest]
        self.err = self.err[rest]
        self._add(children, frac)


def _simplex_roots() -> _Cells:
    return np.eye(N_FACES)[None], np.ones(1)


def _polytope_roots(poly: ConstraintPolytope) -> _Cells:
    varr = poly.vertex_array()
    return (np.stack([varr[list(s)] for s in poly.simplices]),
            np.asarray(poly.relative_volumes, dtype=float))


def _det_ratio(roots: _Cells, dim: int, fn, budget: int,
               atol: float) -> Tuple[np.ndarray, np.ndarray, int, bool]:
    state = _DetState(roots, dim, fn, N_FACES)
    while True:
        tot, err = state.totals()
        den = tot[0]
        if den > 0.0:
            ratio = tot[1:] / den
            rerr = (err[1:] + np.abs(ratio) * err[0]) / den
            if float(rerr.max()) <= atol:
                return ratio, rerr, state.evaluations, True
        if state.evaluations >= budget:
            break
        state.refine_wave()
    tot, err = state.totals()
    den = tot[0]
    ratio = tot[1:] / den
    rerr = (err[1:] + np.abs(ratio) * err[0]) / den
    warnings.warn("deterministic quadrature stopped at its evaluation budget "
                  f"with error indicator {float(rerr.max()):.2e}", BudgetExhausted)
    return ratio, rerr, state.evaluations, False


def _det_integral(roots: _Cells, dim: int, log_integrand, budget: int,
                  rel_tol: Optional[float]) -> QuadratureEstimate:
    def fn(pts):
        return log_integrand(pts), np.zeros((pts.shape[0], 0))

    state = _DetState(roots, dim, fn, 0)
    target = rel_tol if rel_tol is not None else 1e-9
    converged = False
    while True:
        tot, err = state.totals()
        if tot[0] != 0.0 and err[0] <= target * abs(tot[0]):
            converged = True
            break
        if state.evaluations >= budget:
            break
        state.refine_wave()
    tot, err = state.totals()
    scale = math.exp(state.shift) if state.shift is not None else 1.0
    if not converged and rel_tol is not None:
        warnings.warn("deterministic quadrature stopped at its evaluation budget",
                      BudgetExhausted)
    return QuadratureEstimate(scale * float(tot[0]), 0.0, state.evaluations,
                              error_indicator=scale * float(err[0]),
                              converged=converged)


# --- public integration entry points --------------------------------------

def integrate_simplex(log_integrand: Callable[[np.ndarray], np.ndarray],
                      budget: int = 200_000, seed: int = DEFAULT_SEED,
                      method: str = "mc",
                      rel_tol: Optional[float] = None) -> QuadratureEstimate:
    """Mean of exp(log_integrand) over the simplex w.r.t. the unit-volume flat
    measure. `log_integrand` maps an (n, 6) array of points to (n,) log values."""
    if method == "mc":
        def fn(pts):
            return log_integrand(pts), np.zeros((pts.shape[0], 0))

        acc = _mc_run(sample_simplex_uniform, fn, budget, seed, 0)
        value, stderr = acc.mean()
        converged = rel_tol is None or (value != 0.0 and stderr <= rel_tol * abs(value))
        if not converged:
            warnings.warn("Monte Carlo stopped at its sample budget", BudgetExhausted)
        return QuadratureEstimate(value, stderr, acc.n, converged=converged)
    if method == "deterministic":
        return _det_integral(_simplex_roots(), 5, log_integrand, budget, rel_tol)
    raise ValueError(f"unknown method {method!r}")


def integrate_polytope(poly: ConstraintPolytope,
                       log_integrand: Callable[[np.ndarray], np.ndarray],
                       budget: int = 200_000, seed: int = DEFAULT_SEED,
                       method: str = "mc",
                       rel_tol: Optional[float] = None) -> QuadratureEstimate:
    """Same contract as integrate_simplex, over the average-constraint slice."""
    if method == "mc":
        def fn(pts):
            return log_integrand(pts), np.zeros((pts.shape[0], 0))

        def sampler(rng, count):
            return sample_polytope_uniform(poly, rng, count)

        acc = _mc_run(sampler, fn, budget, seed, 0)
        value, stderr = acc.mean()
        converged = rel_tol is None or (value != 0.0 and stderr <= rel_tol * abs(value))
        if not converged:
            warnings.warn("Monte Carlo stopped at its sample budget", BudgetExhausted)
        return QuadratureEstimate(value, stderr, acc.n, converged=converged)
    if method == "deterministic":
        return _det_integral(_polytope_roots(poly), 4, log_integrand, budget, rel_tol)
    raise ValueError(f"unknown method {method!r}")


def posterior_mean_simplex(fn, budget: int = 2_000_000, seed: int = DEFAULT_SEED,
                           method: str = "mc", atol: float = 1e-4):
    """Ratio estimator int x_i w / int w over the simplex.

    `fn(points)` returns (log-weights (n,), per-face values (n, 6)); numerator
    and denominator always share the same sample points / quadrature nodes.
    Returns (probs (6,), error (6,), evaluations).
    """
    if method == "mc":
        acc = _mc_run(sample_simplex_uniform, fn, budget, seed, N_FACES)
        r, se, _ = acc.ratio()
        return r, se, acc.n
    if method == "deterministic":
        r, se, evals, _ = _det_ratio(_simplex_roots(), 5, fn, budget, atol)
        return r, se, evals
    raise ValueError(f"unknown method {method!r}")


def posterior_mean_polytope(poly: ConstraintPolytope, fn, budget: int = 2_000_000,
                            seed: int = DEFAULT_SEED, method: str = "mc",
                            atol: float = 1e-4):
    """Ratio estimator over the average-constraint slice; see posterior_mean_simplex."""
    if method == "mc":
        def sampler(rng, count):
            return sample_polytope_uniform(poly, rng, count)

        acc = _mc_run(sampler, fn, budget, seed, N_FACES)
        r, se, _ = acc.ratio()
        return r, se, acc.n
    if method == "deterministic":
        r, se, evals, _ = _det_ratio(_polytope_roots(poly), 4, fn, budget, atol)
        return r, se, evals
    raise ValueError(f"unknown method {method!r}")
