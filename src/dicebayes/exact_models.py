"""Closed-form posteriors for the fair-throw and (generalized) Johnson models."""
from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .core import (Average, Distribution, FrequencyVector, PosteriorResult,
                   CLOSED_FORM, OLD, NEW, N_FACES)
from .combinatorics import _pip_total, enumerate_constrained_frequencies


def conditional_old_given_frequency(nv: FrequencyVector, face: int) -> float:
    """P(an old throw shows `face` | frequencies) = N_face / N."""
    if nv.total < 1:
        raise ValueError("frequency vector must cover at least one throw")
    if not 1 <= face <= 6:
        raise ValueError(f"face must be 1..6, got {face}")
    return nv[face - 1] / nv.total


def _weighted_posterior(log_weights: np.ndarray, per_member_probs: np.ndarray) -> Distribution:
    """Normalized weighted mean of per-member 6-vectors, combined in log domain."""
    w = np.exp(log_weights - log_weights.max())
    return Distribution.from_weights(w @ per_member_probs / w.sum())


def _members(n: int, a: Average) -> np.ndarray:
    """(members, 6) counts of the frequency vectors realizing average a."""
    _pip_total(n, a)
    return enumerate_constrained_frequencies(n, a).counts


def fair_posterior(n: int, a: Average, throw: str) -> PosteriorResult:
    """Fair-throw model: multiplicity-weighted mean for old throws, uniform for new."""
    counts = _members(n, a)
    if throw == NEW:
        return PosteriorResult.from_distribution(Distribution.uniform(), CLOSED_FORM)
    # ln N! is common to every member and cancels in the normalization;
    # ln c! is tabulated over c = 0..n and gathered per member and face
    lw = -gammaln(np.arange(n + 1) + 1.0)[counts].sum(axis=1)
    return PosteriorResult.from_distribution(_weighted_posterior(lw, counts / n), CLOSED_FORM)


def _johnson_result(counts: np.ndarray, n: int, pseudo, throw: str) -> PosteriorResult:
    """Common path: per-face pseudo-counts `pseudo` (length 6), weights
    prod Gamma(N_l + pseudo_l) / N_l!."""
    pseudo = np.asarray(pseudo, dtype=float)
    c = np.arange(n + 1)
    table = gammaln(c[:, None] + pseudo) - gammaln(c + 1.0)[:, None]  # (n+1, 6)
    lw = table[counts, np.arange(N_FACES)].sum(axis=1)
    if throw == OLD:
        probs = counts / n
    else:
        probs = (counts + pseudo) / (n + pseudo.sum())
    return PosteriorResult.from_distribution(_weighted_posterior(lw, probs), CLOSED_FORM)


def johnson_posterior(n: int, a: Average, concentration: float, throw: str) -> PosteriorResult:
    """Symmetric Johnson (Dirichlet) model, pseudo-count `concentration` per face."""
    if not concentration > 0:
        raise ValueError("concentration must be > 0")
    return _johnson_result(_members(n, a), n, (concentration,) * N_FACES, throw)


def generalized_johnson_posterior(n: int, a: Average, concentration: float,
                                  base: Distribution, throw: str) -> PosteriorResult:
    """Johnson model with per-face pseudo-counts concentration * base_i.

    n = 0 is accepted and returns the prior predictive (= base for a new throw).
    """
    if not concentration > 0:
        raise ValueError("concentration must be > 0")
    if any(p <= 0 for p in base):
        raise ValueError("base distribution must be strictly positive")
    if n == 0:
        if throw == OLD:
            raise ValueError("with no data there is no old throw to ask about")
        return PosteriorResult.from_distribution(base, CLOSED_FORM)
    pseudo = tuple(concentration * p for p in base)
    return _johnson_result(_members(n, a), n, pseudo, throw)
