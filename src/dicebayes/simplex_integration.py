"""Monte Carlo over the probability simplex, with counter-based RNG streams.

Points are uniform with respect to the flat measure. Integrands are evaluated
in log domain; -inf values contribute exactly zero weight. Every result is a
weighted mean over the simplex, so overall measure scales cancel. The
multiplicity model's finite-N kernel draws its points here; the large-N slice
posteriors are computed deterministically in multiplicity_model.
"""
from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .core import N_FACES

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


def _mc_run(sampler, fn, budget: int, seed: int) -> _MCAccumulator:
    acc = _MCAccumulator(N_FACES)
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


def posterior_mean_simplex(fn, budget: int = 2_000_000, seed: int = DEFAULT_SEED):
    """Monte Carlo ratio estimator int x_i w / int w over the simplex.

    `fn(points)` returns (log-weights (n,), per-face values (n, 6)); numerator
    and denominator share the same sample points. Returns (probs (6,),
    stderr (6,), evaluations).
    """
    acc = _mc_run(sample_simplex_uniform, fn, budget, seed)
    r, se, _ = acc.ratio()
    return r, se, acc.n
