"""Closed-form fair-throw and Johnson posteriors against exact-rational oracles."""
import functools
import math
import random
import time
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gammaln

from dicebayes import (Average, ContradictoryData, Distribution, NEW, OLD,
                       fair_posterior, generalized_johnson_posterior, johnson_large_n,
                       johnson_posterior, maxent_shannon)
from dicebayes import engine, exact_models
from dicebayes.cli import main
from oracle import (brute_force_fair, brute_force_fair_literal, count_sequences,
                    enumerated_posterior, exact_johnson, reversed_average,
                    reversed_distribution)


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

    def test_base_matches_weighted_sequence_counts(self):
        # i.i.d. throws from m: each sequence weighs the product of its faces' m
        m = [Fraction(v, 21) for v in range(1, 7)]
        base = Distribution.from_weights(m)
        for n in range(1, 5):
            by_sum = {}
            for seq in product(range(1, 7), repeat=n):
                first = by_sum.setdefault(sum(seq), [Fraction(0)] * 6)
                first[seq[0] - 1] += math.prod(m[v - 1] for v in seq)
            for s, first in by_sum.items():
                a = Average(Fraction(s, n))
                assert_close(fair_posterior(n, a, OLD, base), [w / sum(first) for w in first])
                assert fair_posterior(n, a, NEW, base).distribution == base

    def test_log_factorials_agree_with_scipy_gammaln(self, monkeypatch):
        # ln c! comes from math.lgamma below 1024 and from the engine's Stirling
        # series above; the posterior barely moves with scipy's gammaln in its
        # place, up to N = 1000 anywhere and up to N = 10^6 at the averages near
        # a face that the closed form answers there, with and without a base
        def gammaln_table(n):
            return gammaln(np.arange(n + 1) + 1.0)

        for n in (0, 1023, 1024, 10 ** 6):
            want = gammaln_table(n)
            assert np.all(np.abs(engine._log_factorials(n) - want)
                          <= 3 * np.spacing(np.maximum(want, 1.0)))
        rng = random.Random(41)
        cases = [(1000, Fraction(7, 2)), (1000, Fraction(5)), (997, Fraction(1002, 997))]
        for _ in range(30):
            n = round(math.exp(rng.uniform(0.0, math.log(1000))))
            cases.append((n, Fraction(rng.randint(n, 6 * n), n)))
        for n in (1500, 20000, 10 ** 6):
            for k in (1, 10, 150):
                cases += [(n, Fraction(n + k, n)), (n, Fraction(6 * n - k, n))]
        queries = [(n, Average(a), base) for n, a in cases
                   for base in (None, Distribution.from_weights(
                       [rng.uniform(0.05, 1.0) for _ in range(6)]))]
        got = [fair_posterior(n, a, OLD, base).distribution.probs for n, a, base in queries]
        monkeypatch.setattr(exact_models, "_log_factorials", gammaln_table)
        # a fresh cache of E[c], so that nothing computed before the patch is reused
        monkeypatch.setattr(exact_models, "_fair_counts", functools.lru_cache(
            exact_models._fair_counts.__wrapped__))
        want = [fair_posterior(n, a, OLD, base).distribution.probs for n, a, base in queries]
        assert np.abs(np.subtract(got, want)).max() <= 1e-14

    @pytest.mark.parametrize("n, a", [(3, Fraction(5)), (12, Fraction(7, 2)), (300, Fraction(5))])
    def test_base_is_the_large_concentration_johnson_limit(self, n, a):
        # n = 300 spans more than 600 nats, so the faces are tilted first; the
        # Johnson new throw (E[c] + K m) / (n + K) is m to within n / K
        base, k = Distribution.from_weights(range(1, 7)), 1e14
        for throw in (OLD, NEW):
            fair = fair_posterior(n, Average(a), throw, base).distribution.probs
            johnson = generalized_johnson_posterior(n, Average(a), k, base, throw)
            assert np.abs(np.subtract(fair, johnson.distribution.probs)).max() <= 1e-12 + n / k


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

    @pytest.mark.parametrize("n", [1, 12, 100, 1000])
    @pytest.mark.parametrize("with_base", [False, True], ids=["symmetric", "base"])
    def test_extreme_concentrations_answer_or_say_why_not(self, n, with_base):
        # each K either answers, next to K = 1e-10 or to fair throwing from the
        # base, or is refused with a message naming K; the saddle point of the
        # tilted faces has no bracket once K m_v vanishes beside N, and
        # overflows above about 5e306 (3e307 with a base)
        a = Average(Fraction(5))
        base = Distribution.from_weights((1, 2, 3, 4, 5, 6)) if with_base else None

        def johnson(k, throw):
            if base is None:
                return johnson_posterior(n, a, k, throw).distribution.probs
            return generalized_johnson_posterior(n, a, k, base, throw).distribution.probs

        outcomes = set()
        for throw in (OLD, NEW):
            small = johnson(1e-10, throw)
            for k in (1e-300, 1e-100, 1e-45, 1e-40, 1e307, 1e308):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        probs = johnson(k, throw)
                    except ValueError as exc:
                        side = "small" if k < 1 else "large"
                        assert f"concentration {k:g} is too {side}" in str(exc)
                        outcomes.add(f"refused {side}")
                    else:
                        limit = small if k < 1 else fair_posterior(
                            n, a, throw, base).distribution.probs
                        assert np.abs(np.subtract(probs, limit)).max() <= 1e-9
                        outcomes.add("answered")
                assert [w.message for w in caught] == []
        assert outcomes == {"answered", "refused small", "refused large"}

    def test_generalized_no_data_returns_base_predictive(self):
        base = Distribution.from_weights((1, 2, 3, 4, 5, 6))
        res = generalized_johnson_posterior(0, Average(Fraction(5)), 2.0, base, NEW)
        assert_close(res, base.probs, tol=1e-12)


def throws_and_pip_sum(min_n, max_n):
    """(n, s) with n throws in [min_n, max_n] and a pip sum s they can reach."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(n, 6 * n)))


class TestExpectedCountsKept:
    """E[c] is kept per (N, a) and weights: the throws and the table rows that
    ask the same weights share one pairing, and sharing moves no bit."""

    def test_reproduce_pairs_each_weighting_once(self, monkeypatch, capsys):
        pairings = []
        pair = exact_models._pair_means
        monkeypatch.setattr(exact_models, "_pair_means",
                            lambda *args: pairings.append(args[1:]) or pair(*args))
        for name in ("_fair_counts", "_johnson_counts"):       # empty, as in a new process
            monkeypatch.setattr(exact_models, name, functools.lru_cache(
                getattr(exact_models, name).__wrapped__))
        assert main(["reproduce", "--format", "json"]) == 0
        kept = capsys.readouterr().out
        assert len(pairings) == 44
        for name in ("_fair_counts", "_johnson_counts"):
            monkeypatch.setattr(exact_models, name, getattr(exact_models, name).__wrapped__)
        pairings.clear()
        assert main(["reproduce", "--format", "json"]) == 0
        assert len(pairings) == 99 and capsys.readouterr().out == kept

    def test_kept_counts_are_read_only(self):
        a = Average(Fraction(5))
        for counts in (exact_models._fair_counts(12, a, None),
                       exact_models._johnson_counts(12, a, 5.0, None)):
            with pytest.raises(ValueError):
                counts[0] = 1.0


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
                rev = fair_posterior(n, reversed_average(a), throw)
            else:
                k = rng.choice((1.0, 5.0, 50.0, 0.25))
                fwd = johnson_posterior(n, a, k, throw)
                rev = johnson_posterior(n, reversed_average(a), k, throw)
            for got, want in zip(fwd.distribution, reversed_distribution(rev.distribution)):
                assert got == pytest.approx(want, abs=1e-12)
            cases += 1


class TestPairingAgainstEnumeration:
    """The closed forms pair two three-face halves at the two constraints; the
    oracle lists every frequency vector and takes the weighted mean."""

    def test_every_average_up_to_twenty_throws(self):
        worst = 0.0
        for n in range(1, 21):
            for s in range(n, 6 * n + 1):
                a = Average(Fraction(s, n))
                got = fair_posterior(n, a, OLD).distribution.probs
                worst = max(worst, np.abs(got - enumerated_posterior(n, a, OLD)).max())
                for k in (0.5, 1.0, 5.0, 50.0):
                    for throw in (OLD, NEW):
                        got = johnson_posterior(n, a, k, throw).distribution.probs
                        want = enumerated_posterior(n, a, throw, (k,) * 6)
                        worst = max(worst, np.abs(got - want).max())
        assert worst <= 1e-13

    def test_random_bases(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 20)
            a = Average(Fraction(rng.randint(n, 6 * n), n))
            k = rng.choice((0.5, 1.0, 5.0, 50.0))
            base = Distribution.from_weights([rng.uniform(0.05, 1.0) for _ in range(6)])
            for throw in (OLD, NEW):
                got = generalized_johnson_posterior(n, a, k, base, throw).distribution.probs
                want = enumerated_posterior(n, a, throw, [k * m for m in base])
                assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("n", [300, 1000])
    def test_vertex_averages_at_many_throws(self, n):
        # one count vector: every throw shows the face; no tilt is needed
        for face in (1, 6):
            a = Average(Fraction(face))
            assert fair_posterior(n, a, OLD).distribution == Distribution.vertex(face)
            res = johnson_posterior(n, a, 2.0, NEW)
            expected = [(2.0 + n * (v == face)) / (n + 12.0) for v in range(1, 7)]
            assert np.abs(np.asarray(res.distribution.probs) - expected).max() <= 1e-14

    @pytest.mark.parametrize("a, tol", [(Fraction(7, 2), 1e-6), (Fraction(5), 5e-4)])
    @pytest.mark.parametrize("k", [2.5, 5.0])
    def test_richardson_in_n_reaches_the_large_n_slice(self, a, tol, k):
        # the old-throw posterior approaches the slice mean as 1/N, so
        # 2 P(960) - P(480) checks the Fourier slice at a non-integer K, where
        # the B-spline oracle cannot go
        coarse, fine = (np.asarray(johnson_posterior(n, Average(a), k, OLD).distribution.probs)
                        for n in (480, 960))
        slice_mean = np.asarray(johnson_large_n(Average(a), k).distribution.probs)
        assert np.abs(2 * fine - coarse - slice_mean).max() <= tol

    def test_fair_approaches_shannon_as_one_over_n(self):
        a = Average(Fraction(5))
        shannon = np.asarray(maxent_shannon(a).distribution.probs)
        for n in (120, 240, 480, 960):
            dev = np.abs(np.asarray(fair_posterior(n, a, OLD).distribution.probs) - shannon)
            assert n * dev.max() == pytest.approx(0.161, abs=0.002)

    def test_too_many_counts_per_face_refused_at_once(self, capsys):
        start = time.perf_counter()
        code = main(["eval", "--n", "4000", "--avg", "7/2", "--model", "johnson",
                     "--param", "5", "--throw", "old"])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "--large-n" in capsys.readouterr().err
        res = johnson_posterior(1000, Average(Fraction(7, 2)), 5.0, OLD)
        assert abs(sum(res.distribution.probs) - 1.0) <= 1e-12
