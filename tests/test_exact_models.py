"""Closed-form fair-throw and Johnson posteriors against exact-rational oracles."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dicebayes import (Average, ContradictoryData, Distribution, NEW, OLD,
                       fair_posterior, generalized_johnson_posterior, johnson_posterior)
from oracle import (brute_force_fair, brute_force_fair_literal, count_sequences,
                    exact_johnson)


def assert_close(result, expected, tol=1e-12):
    for got, want in zip(result.distribution, expected):
        assert got == pytest.approx(float(want), abs=tol)


class TestFairPosterior:
    def test_two_throws_average_five(self):
        # the equally likely ordered outcomes are (4,6), (5,5), (6,4)
        res = fair_posterior(2, Average(Fraction(5)), OLD)
        assert_close(res, (0, 0, 0, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
        assert res.entropy_nats == pytest.approx(math.log(3), rel=1e-12)

    def test_new_throw_is_uniform(self):
        res = fair_posterior(2, Average(Fraction(5)), NEW)
        assert res.distribution == Distribution.uniform()

    def test_four_throws_sum_fourteen_anchor(self):
        # 146 ordered four-throw outcomes sum to 14; face-3 share is 27/146
        # and face-1 share is 21/146
        res = fair_posterior(4, Average(Fraction(14, 4)), OLD)
        assert res.distribution.probs[2] == pytest.approx(27 / 146, abs=1e-12)
        assert res.distribution.probs[0] == pytest.approx(21 / 146, abs=1e-12)

    def test_contradictory_average(self):
        with pytest.raises(ContradictoryData):
            fair_posterior(1, Average(Fraction(7, 2)), OLD)
        with pytest.raises(ContradictoryData):
            fair_posterior(3, Average(Fraction(7, 2)), NEW)

    @pytest.mark.parametrize("throw", [OLD, NEW])
    def test_matches_both_brute_force_oracles(self, throw):
        for n in range(1, 7):
            for s in range(n, 6 * n + 1):
                a = Average(Fraction(s, n))
                res = fair_posterior(n, a, throw)
                assert_close(res, brute_force_fair(n, a, throw))
                assert_close(res, brute_force_fair_literal(n, a, throw))


class TestJohnsonPosterior:
    @pytest.mark.parametrize("n", [1, 2, 6, 12])
    # the large concentrations check that the weights keep their dependence
    # on the counts when ln Gamma(K) dwarfs it
    @pytest.mark.parametrize("k", [1, 5, 50, 10**6, 10**10, 10**14])
    @pytest.mark.parametrize("throw", [OLD, NEW])
    def test_matches_exact_oracle(self, n, k, throw):
        for a in (Fraction(6), Fraction(5), Fraction(7, 2)):
            if (a * n).denominator != 1:
                continue
            res = johnson_posterior(n, Average(a), float(k), throw)
            expected = exact_johnson(n, Average(a), k, throw)
            for got, want in zip(res.distribution, expected):
                assert got == pytest.approx(float(want), rel=1e-12, abs=1e-15)

    def test_one_throw_average_six_new(self):
        # with concentration 1 the predictive counts are (1,1,1,1,1,2)/7
        res = johnson_posterior(1, Average(Fraction(6)), 1.0, NEW)
        assert_close(res, [Fraction(1, 7)] * 5 + [Fraction(2, 7)])

    def test_large_concentration_approaches_fair(self):
        a = Average(Fraction(5))
        fair = np.asarray(fair_posterior(2, a, OLD).distribution.probs)
        prev = math.inf
        for k in (1.0, 10.0, 100.0, 1000.0):
            cur = np.max(np.abs(
                np.asarray(johnson_posterior(2, a, k, OLD).distribution.probs) - fair))
            assert cur < prev
            prev = cur
        assert prev < 1e-3

    def test_generalized_with_uniform_base_matches_symmetric(self):
        a = Average(Fraction(5))
        base = Distribution.uniform()
        for throw in (OLD, NEW):
            sym = johnson_posterior(6, a, 5.0, throw)
            gen = generalized_johnson_posterior(6, a, 30.0, base, throw)
            assert_close(gen, sym.distribution.probs, tol=1e-10)

    @pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan, 0.0])
    def test_concentration_must_be_finite_and_positive(self, k):
        a = Average(Fraction(5))
        with pytest.raises(ValueError):
            johnson_posterior(2, a, k, OLD)
        with pytest.raises(ValueError):
            generalized_johnson_posterior(2, a, k, Distribution.uniform(), NEW)

    def test_generalized_no_data_returns_base_predictive(self):
        base = Distribution.from_weights((1, 2, 3, 4, 5, 6))
        res = generalized_johnson_posterior(0, Average(Fraction(5)), 2.0, base, NEW)
        assert_close(res, base.probs, tol=1e-12)


def throws_and_pip_sum(min_n, max_n):
    """(n, s) with n throws in [min_n, max_n] and a pip sum s they can reach."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(n, 6 * n)))


class TestAgainstExactCounts:
    @given(throws_and_pip_sum(2, 60))
    def test_fair_old_is_a_ratio_of_sequence_counts(self, case):
        # the fair old-throw share of face i is the fraction of the equally
        # likely ordered outcomes with pip sum s whose first throw shows i
        n, s = case
        res = fair_posterior(n, Average(Fraction(s, n)), OLD)
        total = count_sequences(n, s)
        for i, got in enumerate(res.distribution, start=1):
            assert got == pytest.approx(count_sequences(n - 1, s - i) / total,
                                        rel=0, abs=1e-12)

    @given(throws_and_pip_sum(1, 10), st.integers(1, 60), st.sampled_from((OLD, NEW)))
    def test_johnson_integer_concentration_matches_oracle(self, case, k, throw):
        n, s = case
        a = Average(Fraction(s, n))
        res = johnson_posterior(n, a, float(k), throw)
        for got, want in zip(res.distribution, exact_johnson(n, a, k, throw)):
            assert got == pytest.approx(float(want), rel=1e-12, abs=1e-15)


class TestFaceReversalSymmetry:
    def test_randomized(self):
        rng = random.Random(2024)
        cases = 0
        while cases < 1000:
            n = rng.randint(1, 10)
            s = rng.randint(n, 6 * n)
            a = Average(Fraction(s, n))
            throw = rng.choice((OLD, NEW))
            kind = rng.choice(("fair", "johnson"))
            if kind == "fair":
                fwd = fair_posterior(n, a, throw)
                rev = fair_posterior(n, a.reversed(), throw)
            else:
                k = rng.choice((1.0, 5.0, 50.0, 0.25))
                fwd = johnson_posterior(n, a, k, throw)
                rev = johnson_posterior(n, a.reversed(), k, throw)
            for got, want in zip(fwd.distribution, rev.distribution.reversed()):
                assert got == pytest.approx(want, abs=1e-12)
            cases += 1
