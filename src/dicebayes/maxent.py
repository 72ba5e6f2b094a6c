"""Maximum-entropy and minimum-divergence distributions at a given mean.

Each is a one-parameter family with the normalization built in, and one
bracketed root of a monotone function fixes the mean:

- Shannon and least divergence from a base m: f_v ~ m_v exp(lam v), whose
  mean rises with lam;
- Burg, max sum_v m_v ln f_v (m uniform for the plain Burg entropy): the
  Lagrange conditions m_v / f_v = mu + lam v with mu + lam a = 1 give
  f_v = m_v / (1 + lam (v - a)). These sum to 1, and then average a, exactly
  when sum_v m_v (v - a) / (1 + lam (v - a)) = 0 (see burg_tilt).

An average within rounding of 1 or 6 gives the vertex, whose lam is None.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import _check_base, Average, Distribution, FACE_VALUES

_FACES = np.asarray(FACE_VALUES, dtype=float)
_LAMBDA_BRACKET = 60.0  # beyond this the solution is numerically a vertex


@dataclass(frozen=True)
class MaxentSolution:
    distribution: Distribution
    lam: Optional[float]   # the family's multiplier; None at a vertex


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float = 4 * 2.0 ** -52,
            maxiter: int = 100) -> float:
    """The root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4), step for step
    as scipy.optimize.brentq takes it, so the same double. ValueError where f has
    one sign at both ends or is nan, RuntimeError after maxiter steps."""
    def call(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"the function value at x={x} is nan")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = False           # else bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:    # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:               # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"no convergence after {maxiter} steps, value is {xcur}")


def _root(fn, lo: float, hi: float) -> float:
    return _brentq(fn, lo, hi, xtol=1e-15, rtol=8.882e-16, maxiter=200)


def _solve(a: Average, base: Optional[Distribution], family) -> MaxentSolution:
    """The vertex at an average within rounding of 1 or 6, the uniform
    distribution exactly at 7/2 without a base, else the (lam, weights) of
    family(a, m), m uniform without a base."""
    _check_base(base)
    av = float(a)
    if av <= 1.0 + 1e-15 or av >= 6.0 - 1e-15:
        return MaxentSolution(Distribution.vertex(1 if av < 3.5 else 6), None)
    if base is None and a.value * 2 == 7:
        return MaxentSolution(Distribution.uniform(), 0.0)
    lam, weights = family(av, np.asarray((base or Distribution.uniform()).probs))
    return MaxentSolution(Distribution.from_weights(weights), lam)


def _exponential_family(lam: float, base: np.ndarray) -> np.ndarray:
    logits = np.log(base) + lam * _FACES
    logits -= logits.max()
    w = np.exp(logits)
    return w / w.sum()


def _tilted(a: float, m: np.ndarray) -> tuple:
    lam = _root(lambda lam: float(_FACES @ _exponential_family(lam, m)) - a,
                -_LAMBDA_BRACKET, _LAMBDA_BRACKET)
    return lam, _exponential_family(lam, m)


def maxent_shannon(a: Average) -> MaxentSolution:
    """Distribution f_v ~ exp(lam v) maximizing Shannon entropy at mean a."""
    return _solve(a, None, _tilted)


def min_kl(a: Average, base: Distribution) -> MaxentSolution:
    """Distribution f_v ~ m_v exp(lam v) minimizing D(f, m) at mean a."""
    return _solve(a, base, _tilted)


def burg_tilt(a: float, weights: np.ndarray) -> float:
    """The lam with sum_v w_v (v - a) / (1 + lam (v - a)) = 0, 1 < a < 6.

    The sum falls from +inf to -inf on (-1 / (6 - a), 1 / (a - 1)), where every
    1 + lam (v - a) > 0, so the root is unique. With w = m it is the Burg
    multiplier (see the module docstring); scaling w does not move it.
    """
    c = _FACES - a
    return _root(lambda lam: float(np.sum(weights * c / (1.0 + lam * c))),
                 (1.0 - 1e-14) / -c[-1], (1.0 - 1e-14) / -c[0])


def _burg(a: float, m: np.ndarray) -> tuple:
    lam = burg_tilt(a, m)
    return lam, m / (1.0 + lam * (_FACES - a))


def maxent_burg(a: Average, base: Optional[Distribution] = None) -> MaxentSolution:
    """Distribution f_v = m_v / (1 + lam (v - a)) maximizing sum_v m_v ln f_v at
    mean a: the Burg entropy sum_v ln f_v without a base, the large-N limit of
    the Johnson model with pseudo-counts K m once N >> K."""
    return _solve(a, base, _burg)
