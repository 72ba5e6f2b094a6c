"""Independent brute-force and exact-rational oracles for the tests.

The posterior oracles return tuples of `fractions.Fraction` so that no
floating point enters until the final comparison against the production code
paths; the counting oracles return exact integers. Two independent
fair-throw oracles are provided (a dynamic program over throws, and a literal
loop over all 6^N sequences) to guard against a shared bug.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Tuple

from dicebayes import (Average, ContradictoryData, FrequencyVector, NEW, OLD,
                       enumerate_constrained_frequencies)
from dicebayes.core import N_FACES

_UNIFORM = (Fraction(1, 6),) * N_FACES


@dataclass(frozen=True)
class SequenceCensus:
    """Counts of ordered outcome sequences of n throws, broken down by pip sum
    and by the face shown on the first throw."""

    n: int
    sum_counts: Dict[int, int]
    first_face: Dict[int, Tuple[int, ...]]

    def total(self) -> int:
        return sum(self.sum_counts.values())


def sequence_census(n: int) -> SequenceCensus:
    """Exhaustive census by dynamic programming over the remaining throws."""
    if n < 1:
        raise ValueError("need at least one throw")
    # rest[t] = number of (n-1)-throw sequences with pip sum t
    rest = {0: 1}
    for _ in range(n - 1):
        new: Dict[int, int] = {}
        for t, w in rest.items():
            for v in range(1, 7):
                new[t + v] = new.get(t + v, 0) + w
        rest = new
    first_face = {}
    sum_counts = {}
    for s in range(n, 6 * n + 1):
        faces = tuple(rest.get(s - f, 0) for f in range(1, 7))
        total = sum(faces)
        if total:
            first_face[s] = faces
            sum_counts[s] = total
    return SequenceCensus(n, sum_counts, first_face)


def _target_sum(n: int, a: Average) -> int:
    s = a.value * n
    if s.denominator != 1:
        raise ContradictoryData(f"average {a} is unreachable in {n} throws")
    return s.numerator


def brute_force_fair(n: int, a: Average, throw: str) -> Tuple[Fraction, ...]:
    """Fair-throw posterior by exhaustive sequence counting (exact rationals)."""
    if n > 8:
        raise ValueError("brute force is limited to n <= 8")
    s = _target_sum(n, a)
    census = sequence_census(n)
    if s not in census.sum_counts:
        raise ContradictoryData(f"no sequence of {n} throws sums to {s}")
    if throw == NEW:
        return _UNIFORM
    total = census.sum_counts[s]
    return tuple(Fraction(c, total) for c in census.first_face[s])


def brute_force_fair_literal(n: int, a: Average, throw: str) -> Tuple[Fraction, ...]:
    """Same as brute_force_fair via a literal loop over all 6^n sequences."""
    if n > 6:
        raise ValueError("the literal loop is limited to n <= 6")
    s = _target_sum(n, a)
    faces = [0] * N_FACES
    total = 0
    for seq in product(range(1, 7), repeat=n):
        if sum(seq) == s:
            total += 1
            faces[seq[0] - 1] += 1
    if total == 0:
        raise ContradictoryData(f"no sequence of {n} throws sums to {s}")
    if throw == NEW:
        return _UNIFORM
    return tuple(Fraction(c, total) for c in faces)


def _rising_factorial(k: int, c: int) -> int:
    """k (k+1) ... (k+c-1), the exact weight ratio Gamma(c+k)/Gamma(k)."""
    out = 1
    for j in range(c):
        out *= k + j
    return out


def exact_johnson(n: int, a: Average, k: int, throw: str) -> Tuple[Fraction, ...]:
    """Johnson-model posterior with integer concentration, in exact rationals.

    Member weights are prod_l Gamma(N_l + k) / N_l!, evaluated as exact
    integers via rising factorials (the Gamma(k)^6 factor cancels).
    """
    if not (isinstance(k, int) and k > 0):
        raise ValueError("the exact oracle needs a positive integer concentration")
    cs = enumerate_constrained_frequencies(n, a)
    if cs.is_empty():
        raise ContradictoryData(f"no frequency vector realizes average {a} over {n} throws")

    num = [Fraction(0)] * N_FACES
    den = Fraction(0)
    for nv in cs:
        w = Fraction(1)
        for c in nv:
            w *= Fraction(_rising_factorial(k, c), math.factorial(c))
        den += w
        for i, c in enumerate(nv):
            if throw == OLD:
                num[i] += w * Fraction(c, n)
            else:
                num[i] += w * Fraction(c + k, n + 6 * k)
    return tuple(x / den for x in num)


def multinomial_exact(nv: FrequencyVector) -> int:
    """Integer multinomial coefficient N! / prod N_i!."""
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
