"""Monte Carlo over the probability simplex, with counter-based RNG streams.

Points are uniform with respect to the flat measure. Integrands are evaluated
in log domain; -inf values contribute exactly zero weight. Every result is a
weighted mean over the simplex, so overall measure scales cancel. The Monte
Carlo reference of the finite-N multiplicity model (method="mc") draws its
points here; no route of `posterior()` samples.
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
