"""Constrained entropy maximizers over the mean-constraint slice of the simplex."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (Average, Distribution, NEG_INFINITY, Entropy,
                   FACE_VALUES, shannon_entropy, burg_entropy, kl_divergence)

_FACES = np.asarray(FACE_VALUES, dtype=float)
_LAMBDA_BRACKET = 60.0  # beyond this the solution is numerically a vertex
_RESIDUAL_TOL = 1e-13


@dataclass(frozen=True)
class MaxentSolution:
    distribution: Distribution
    lam: object            # mean-constraint multiplier; +-infinity sentinel at vertices
    mu: Optional[float]    # normalization multiplier (Burg only)
    functional_value: Entropy
    residuals: tuple       # (normalization defect, mean defect)
    degenerate: bool = False


def _vertex_solution(face: int, functional_value: Entropy, lam) -> MaxentSolution:
    dist = Distribution.vertex(face)
    return MaxentSolution(dist, lam, None, functional_value, (0.0, 0.0), degenerate=True)


def _exponential_family(lam: float, base: np.ndarray) -> np.ndarray:
    logits = np.log(base) + lam * _FACES
    logits -= logits.max()
    w = np.exp(logits)
    return w / w.sum()


def _solve_tilt(a: float, base: np.ndarray) -> float:
    """Root of mean(lambda) = a; the mean is strictly increasing in lambda."""
    from scipy.optimize import brentq      # scipy loads on first use; see __init__

    def mean_defect(lam: float) -> float:
        return float(_FACES @ _exponential_family(lam, base)) - a

    return brentq(mean_defect, -_LAMBDA_BRACKET, _LAMBDA_BRACKET,
                  xtol=1e-15, rtol=8.882e-16, maxiter=200)


def _tilted_solution(a: Average, base: np.ndarray) -> tuple:
    av = float(a)
    if av <= 1.0 + 1e-15 and av >= 1.0:
        return None, 1
    if av >= 6.0 - 1e-15:
        return None, 6
    lam = _solve_tilt(av, base)
    probs = _exponential_family(lam, base)
    return (lam, probs), None


def maxent_shannon(a: Average) -> MaxentSolution:
    """Distribution f_i ~ exp(lambda * i) maximizing Shannon entropy at mean a."""
    if a.value * 2 == 7:  # symmetric case: lambda = 0, uniform, exactly
        dist = Distribution.uniform()
        return MaxentSolution(dist, 0.0, None, shannon_entropy(dist), (0.0, 0.0))
    solved, vertex = _tilted_solution(a, np.ones(6) / 6.0)
    if vertex is not None:
        lam = NEG_INFINITY if vertex == 1 else _pos_inf()
        return _vertex_solution(vertex, 0.0, lam)
    lam, probs = solved
    dist = Distribution.from_weights(probs)
    residuals = (abs(sum(dist.probs) - 1.0), abs(dist.mean_value() - float(a)))
    return MaxentSolution(dist, lam, None, shannon_entropy(dist), residuals)


def _pos_inf():
    from .core import POS_INFINITY
    return POS_INFINITY


def maxent_burg(a: Average) -> MaxentSolution:
    """Distribution f_i = 1/(mu + lambda*i) maximizing Burg entropy at mean a.

    Solved by nested 1-D root finding: for each lambda, mu is the unique root of
    sum 1/(mu + lambda*i) = 1 on the domain where every term is positive; the
    outer root matches the mean. Endpoints come back as degenerate vertex limits.
    """
    from scipy.optimize import brentq
    av = float(a)
    if av <= 1.0:
        return _vertex_solution(1, NEG_INFINITY, _pos_inf())
    if av >= 6.0:
        return _vertex_solution(6, NEG_INFINITY, NEG_INFINITY)
    if a.value * 2 == 7:  # symmetric case: lambda = 0, mu = 6, uniform, exactly
        dist = Distribution.uniform()
        return MaxentSolution(dist, 0.0, 6.0, burg_entropy(dist), (0.0, 0.0))

    def mu_for(lam: float) -> float:
        # positivity mu + lam*i > 0 for i = 1..6
        mu_min = max(-lam * v for v in FACE_VALUES)

        def norm_defect(mu: float) -> float:
            return float(np.sum(1.0 / (mu + lam * _FACES))) - 1.0

        lo = mu_min + 1e-14 * max(1.0, abs(mu_min))
        hi = max(mu_min, 0.0) + 6.0
        while norm_defect(hi) > 0.0:
            hi = mu_min + 2.0 * (hi - mu_min)
        while norm_defect(lo) < 0.0:  # guard against the clipped lower endpoint
            lo = mu_min + 0.5 * (lo - mu_min)
        return brentq(norm_defect, lo, hi, xtol=1e-15, rtol=8.882e-16, maxiter=200)

    def mean_defect(lam: float) -> float:
        mu = mu_for(lam)
        f = 1.0 / (mu + lam * _FACES)
        return float(_FACES @ f) - av

    # the mean is decreasing in lambda (large positive lambda pushes weight to
    # low faces); bracket by expanding around 0
    lo, hi = -1.0, 1.0
    while mean_defect(lo) < 0.0:
        lo *= 2.0
    while mean_defect(hi) > 0.0:
        hi *= 2.0
    lam = brentq(mean_defect, lo, hi, xtol=1e-15, rtol=8.882e-16, maxiter=200)
    mu = mu_for(lam)
    dist = Distribution.from_weights(1.0 / (mu + lam * _FACES))
    residuals = (abs(float(np.sum(1.0 / (mu + lam * _FACES))) - 1.0),
                 abs(dist.mean_value() - av))
    return MaxentSolution(dist, lam, mu, burg_entropy(dist), residuals)


def min_kl(a: Average, base: Distribution) -> MaxentSolution:
    """Distribution f_i ~ m_i exp(lambda*i) minimizing D(f, m) at mean a."""
    if any(p <= 0 for p in base):
        raise ValueError("base distribution must be strictly positive")
    solved, vertex = _tilted_solution(a, np.asarray(base.probs))
    if vertex is not None:
        lam = NEG_INFINITY if vertex == 1 else _pos_inf()
        dist = Distribution.vertex(vertex)
        return MaxentSolution(dist, lam, None, kl_divergence(dist, base),
                              (0.0, 0.0), degenerate=True)
    lam, probs = solved
    dist = Distribution.from_weights(probs)
    residuals = (abs(sum(dist.probs) - 1.0), abs(dist.mean_value() - float(a)))
    return MaxentSolution(dist, lam, None, kl_divergence(dist, base), residuals)
