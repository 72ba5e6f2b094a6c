"""The count vectors of N throws with an observed average.

`_pip_total` turns the average into the pip sum, or refuses it as
contradictory; `_constrained_counts` lists the count vectors with that total
and pip sum, one row each, for the finite-N multiplicity lattice. The closed
forms sum over the same vectors without listing them (see exact_models).
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .core import Average, ContradictoryData, FACE_VALUES


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
