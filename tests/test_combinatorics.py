"""Exact enumeration of the frequency vectors, against the counting oracles."""
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dicebayes import Average, shannon_entropy
from dicebayes.core import FACE_VALUES
from oracle import (FrequencyVector, count_sequences, enumerate_constrained_frequencies,
                    multinomial_exact)


def members(n, a):
    return {tuple(nv) for nv in enumerate_constrained_frequencies(n, Average(Fraction(a)))}


class TestEnumeration:
    def test_two_throws_average_five_halves(self):
        # (1,4) and (2,3); no pair of equal faces averages 5/2
        assert members(2, Fraction(5, 2)) == {
            (1, 0, 0, 1, 0, 0), (0, 1, 1, 0, 0, 0)}

    def test_two_throws_average_five(self):
        assert members(2, 5) == {(0, 0, 0, 1, 0, 1), (0, 0, 0, 0, 2, 0)}

    def test_one_throw_average_seven_halves_is_empty(self):
        assert members(1, Fraction(7, 2)) == set()

    def test_non_integer_total_is_empty(self):
        assert members(3, Fraction(10, 3) + Fraction(1, 7)) == set()

    def test_members_are_sorted_and_distinct(self):
        cs = enumerate_constrained_frequencies(12, Average(Fraction(7, 2)))
        seen = [tuple(nv) for nv in cs]
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen))

    def test_member_invariants(self):
        cs = enumerate_constrained_frequencies(7, Average(Fraction(24, 7)))
        assert not cs.is_empty()
        for nv in cs:
            assert nv.total == 7
            assert nv.pip_sum() == 24


class TestCountsArray:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_brute_force_filter(self, n):
        # itertools.product runs in lexicographic order, so the filtered
        # tuples are already in the enumerator's order
        by_sum = {}
        for counts in itertools.product(range(n + 1), repeat=6):
            if sum(counts) == n:
                s = sum(v * c for v, c in zip(FACE_VALUES, counts))
                by_sum.setdefault(s, []).append(counts)
        for s in range(n, 6 * n + 1):
            cs = enumerate_constrained_frequencies(n, Average(Fraction(s, n)))
            assert cs.counts.dtype == np.int64
            assert np.array_equal(cs.counts, np.array(by_sum[s]).reshape(-1, 6))

    @pytest.mark.parametrize("n", [1, 2, 7, 12, 20])
    def test_rows_increase_and_satisfy_constraints(self, n):
        for s in range(n, 6 * n + 1):
            cs = enumerate_constrained_frequencies(n, Average(Fraction(s, n)))
            c = cs.counts
            assert len(cs) == c.shape[0] >= 1
            assert np.all(c.sum(axis=1) == n)
            assert np.all(c @ np.array(FACE_VALUES) == s)
            assert np.all(c >= 0)
            # strictly increasing: the first column where neighbours differ grows
            step = np.diff(c, axis=0)
            first = np.argmax(step != 0, axis=1)
            assert np.all(step[np.arange(step.shape[0]), first] > 0)

    def test_empty_set_has_no_rows(self):
        cs = enumerate_constrained_frequencies(3, Average(Fraction(7, 2)))
        assert cs.is_empty()
        assert cs.counts.shape == (0, 6)
        assert list(cs) == []


class TestMultinomial:
    def test_three_of_a_kind_splits(self):
        assert multinomial_exact(FrequencyVector((0, 0, 0, 2, 1, 0))) == 3

    def test_single_face(self):
        assert multinomial_exact(FrequencyVector((0, 9, 0, 0, 0, 0))) == 1

    def test_twelve_throws_two_each(self):
        assert multinomial_exact(FrequencyVector((2, 2, 2, 2, 2, 2))) == 7_484_400


class TestCountSequences:
    def test_four_throws_sum_fourteen(self):
        assert count_sequences(4, 14) == 146

    def test_out_of_range(self):
        assert count_sequences(1, 7) == 0

    def test_two_dice_classic(self):
        assert count_sequences(2, 7) == 6

    def test_totals_are_powers_of_six(self):
        for n in range(1, 9):
            assert sum(count_sequences(n, s) for s in range(n, 6 * n + 1)) == 6 ** n


class TestProperties:
    """Randomized property suites (>= 1000 cases each)."""

    def test_partition_identity(self):
        # sum of multinomial coefficients over the constraint set equals the
        # exact count of ordered sequences with that pip sum
        rng = random.Random(1234)
        for _ in range(1000):
            n = rng.randint(1, 8)
            s = rng.randint(n, 6 * n)
            cs = enumerate_constrained_frequencies(n, Average(Fraction(s, n)))
            assert sum(multinomial_exact(nv) for nv in cs) == count_sequences(n, s)

    def test_multiplicity_factor_sandwich(self):
        # n H(nv/n) - 6 ln(n+1) <= ln multinomial <= n H(nv/n)
        rng = random.Random(99)
        checked = 0
        while checked < 1000:
            n = rng.randint(1, 12)
            s = rng.randint(n, 6 * n)
            for nv in enumerate_constrained_frequencies(n, Average(Fraction(s, n))):
                h = shannon_entropy([c / n for c in nv])
                lm = math.log(multinomial_exact(nv))
                assert lm <= n * h + 1e-9
                assert lm >= n * h - 6 * math.log(n + 1) - 1e-9
                checked += 1

    def test_face_reversal_bijection(self):
        rng = random.Random(7)
        for _ in range(1000):
            n = rng.randint(1, 8)
            s = rng.randint(n, 6 * n)
            fwd = {tuple(nv) for nv in
                   enumerate_constrained_frequencies(n, Average(Fraction(s, n)))}
            rev = {tuple(nv.reversed()) for nv in
                   enumerate_constrained_frequencies(n, Average(Fraction(7 * n - s, n)))}
            assert fwd == rev
