"""Exact enumeration of average-constrained frequency vectors and multinomial weights."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Average, ContradictoryData, FrequencyVector, FACE_VALUES, N_FACES


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """All frequency vectors with the given total whose pip sum equals target_sum.

    `counts` holds them as a (members, 6) int64 array, one row per vector in
    lexicographic order; iterating yields FrequencyVectors.
    """

    n: int
    target_sum: int
    counts: np.ndarray

    def __len__(self) -> int:
        return self.counts.shape[0]

    def __iter__(self):
        return (FrequencyVector(tuple(row)) for row in self.counts.tolist())

    def is_empty(self) -> bool:
        return len(self) == 0


def _pip_total(n: int, a: Average) -> int:
    """The pip sum a*n of n throws averaging a.

    Every integer in [n, 6n] is the pip sum of some n throws, so the data are
    contradictory exactly when a*n is not an integer in that range.
    """
    if n < 1:
        raise ValueError("need at least one throw")
    target = Fraction(a.value) * n
    if target.denominator != 1 or not n <= target <= 6 * n:
        raise ContradictoryData(f"no frequency vector realizes average {a} over {n} throws")
    return target.numerator


def _constrained_counts(n: int, s: int) -> np.ndarray:
    """(members, 6) counts with total n and pip sum s, n <= s <= 6n, in
    lexicographic order.

    Faces 1..5 are expanded one at a time: each partial row with n_rest throws
    and s_rest pips left repeats once per count c of face v that leaves the
    later faces (values v+1..6) a reachable remainder,
    (v+1)*n_rest - s_rest <= c <= (6*n_rest - s_rest) // (6 - v); that range is
    never empty. The count of face 6 is then forced.
    """
    cols = []
    n_rest = np.array([n], dtype=np.int64)
    s_rest = np.array([s], dtype=np.int64)
    for v in FACE_VALUES[:-1]:
        lo = np.maximum((v + 1) * n_rest - s_rest, 0)
        width = (6 * n_rest - s_rest) // (6 - v) - lo + 1
        parent = np.repeat(np.arange(lo.size), width)
        first = np.cumsum(width) - width  # index of each parent's first child
        c = lo[parent] + np.arange(parent.size) - first[parent]
        cols = [col[parent] for col in cols] + [c]
        n_rest = n_rest[parent] - c
        s_rest = s_rest[parent] - v * c
    cols.append(n_rest)
    return np.stack(cols, axis=1)


def enumerate_constrained_frequencies(n: int, a: Average) -> ConstraintSet:
    """Frequency vectors of n throws with average a, in lexicographic count order.

    Returns an empty set (target_sum -1) when a*n is not an integer; callers
    decide whether empty means contradictory data.
    """
    try:
        s = _pip_total(n, a)
    except ContradictoryData:
        return ConstraintSet(n, -1, np.zeros((0, N_FACES), dtype=np.int64))
    return ConstraintSet(n, s, _constrained_counts(n, s))


def log_gamma_factorial(x: float) -> float:
    """ln Gamma(x + 1), the real-argument factorial in log domain."""
    if x < 0:
        raise ValueError(f"factorial argument must be >= 0, got {x}")
    return math.lgamma(x + 1.0)


def log_multinomial(nv: FrequencyVector) -> float:
    """ln( N! / prod N_i! )."""
    return log_gamma_factorial(nv.total) - sum(log_gamma_factorial(c) for c in nv)


def multinomial_exact(nv: FrequencyVector) -> int:
    """Integer multinomial coefficient, used as an exact oracle."""
    out = math.factorial(nv.total)
    for c in nv:
        out //= math.factorial(c)
    return out


def count_sequences(n: int, s: int) -> int:
    """Number of ordered n-tuples over {1..6} summing to s, by exact big-int DP."""
    if n < 1:
        raise ValueError("need at least one throw")
    if not n <= s <= 6 * n:
        return 0
    ways = [1]  # ways[t] = sequences of throws so far summing to t (offset by min sum)
    for throws in range(1, n + 1):
        new = [0] * (5 * throws + 1)
        for t, w in enumerate(ways):
            if w:
                for v in range(6):
                    new[t + v] += w
        ways = new
    idx = s - n
    return ways[idx] if 0 <= idx < len(ways) else 0
