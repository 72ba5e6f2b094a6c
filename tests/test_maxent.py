"""Maximum-entropy and minimum-divergence solvers with optimality certificates."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from dicebayes import (Average, Distribution, maxent_burg, maxent_shannon, min_kl,
                       shannon_entropy)
from dicebayes import exact_models, maxent
from dicebayes.exact_models import _johnson_saddle
from dicebayes.maxent import _brentq
from oracle import (burg_entropy, kl_divergence, mean_value, reversed_average,
                    reversed_distribution)

FACES = np.arange(1.0, 7.0)


def rand_average(rng, lo=1.0, hi=6.0):
    return Average(Fraction(rng.randint(round(lo * 64), round(hi * 64)), 64))


def perturb_on_constraints(rng, probs, scale=1e-3):
    """A random perturbation keeping normalization and the mean, supported on
    the strictly positive faces."""
    p = np.asarray(probs)
    d = rng.standard_normal(6)
    # project out the all-ones and face-value directions (orthogonalized so
    # both the sum and the mean are preserved exactly)
    b1 = np.ones(6) / math.sqrt(6.0)
    b2 = FACES - (FACES @ b1) * b1
    b2 /= np.linalg.norm(b2)
    for b in (b1, b2):
        d -= (d @ b) * b
    d *= scale / max(np.abs(d).max(), 1e-300)
    return p + d


class TestShannon:
    def test_anchor_average_five(self):
        sol = maxent_shannon(Average(Fraction(5)))
        expected = (0.021, 0.039, 0.072, 0.136, 0.255, 0.478)
        for got, want in zip(sol.distribution, expected):
            assert got == pytest.approx(want, abs=5e-4)
        assert shannon_entropy(sol.distribution) == pytest.approx(1.367, abs=1e-3)

    def test_average_seven_halves_is_exactly_uniform(self):
        sol = maxent_shannon(Average(Fraction(7, 2)))
        assert sol.distribution == Distribution.uniform()

    def test_vertex_averages(self):
        assert maxent_shannon(Average(Fraction(6))).distribution == Distribution.vertex(6)
        assert maxent_shannon(Average(Fraction(1))).distribution == Distribution.vertex(1)

    def test_mean_constraint(self):
        for a in (Fraction(3, 2), Fraction(2), Fraction(9, 2), Fraction(11, 2)):
            sol = maxent_shannon(Average(a))
            assert mean_value(sol.distribution) == pytest.approx(float(a), abs=1e-10)


class TestBurg:
    def test_anchor_average_five(self):
        sol = maxent_burg(Average(Fraction(5)))
        expected = (0.044, 0.053, 0.069, 0.098, 0.167, 0.570)
        for got, want in zip(sol.distribution, expected):
            assert got == pytest.approx(want, abs=5e-4)

    def test_average_seven_halves_is_uniform(self):
        sol = maxent_burg(Average(Fraction(7, 2)))
        for p in sol.distribution:
            assert p == pytest.approx(1 / 6, abs=1e-12)

    def test_vertex_averages(self):
        assert maxent_burg(Average(Fraction(6))).distribution == Distribution.vertex(6)
        assert maxent_burg(Average(Fraction(1))).distribution == Distribution.vertex(1)
        # an average within rounding of a face is that vertex, without a multiplier
        near = maxent_burg(Average(Fraction(10**17 + 1, 10**17)))
        assert near.distribution == Distribution.vertex(1) and near.lam is None

    def test_mean_constraint(self):
        for base in (None, Distribution.from_weights((5, 1, 2, 4, 1, 3))):
            m = np.full(6, 1 / 6) if base is None else np.asarray(base.probs)
            for a in (Fraction(65, 64), Fraction(3, 2), Fraction(13, 4), Fraction(9, 2),
                      Fraction(23, 4), Fraction(383, 64)):
                sol = maxent_burg(Average(a), base)
                assert mean_value(sol.distribution) == pytest.approx(float(a), abs=1e-10)
                # f_v = m_v / (1 + lam (v - a))
                want = m / (1.0 + sol.lam * (FACES - float(a)))
                assert np.abs(np.asarray(sol.distribution.probs) - want).max() <= 1e-12

    def test_uniform_base_recovers_burg(self):
        for a in (Fraction(5), Fraction(2), Fraction(7, 2), Fraction(65, 64)):
            weighted = maxent_burg(Average(a), Distribution.uniform()).distribution
            plain = maxent_burg(Average(a)).distribution
            assert np.abs(np.subtract(weighted.probs, plain.probs)).max() <= 1e-12


class TestMinKl:
    def test_uniform_base_recovers_shannon(self):
        for a in (Fraction(5), Fraction(2), Fraction(7, 2)):
            kl = min_kl(Average(a), Distribution.uniform())
            sh = maxent_shannon(Average(a))
            for got, want in zip(kl.distribution, sh.distribution):
                assert got == pytest.approx(want, abs=1e-10)

    def test_base_with_matching_mean_is_fixed_point(self):
        base = Distribution.from_weights((1, 2, 3, 3, 2, 1))
        a = Average(Fraction(mean_value(base)).limit_denominator(10**6))
        sol = min_kl(Average(Fraction(7, 2)), base)
        # base mean is exactly 7/2 by symmetry, so the projection is the base
        assert float(a) == pytest.approx(3.5)
        for got, want in zip(sol.distribution, base.probs):
            assert got == pytest.approx(want, abs=1e-10)


class TestOptimalityCertificates:
    """Feasible perturbations never improve the objective (>= 1000 cases each)."""

    def test_shannon(self):
        rng = np.random.default_rng(11)
        pyrng = random.Random(11)
        for _ in range(1000):
            a = rand_average(pyrng, 1.1, 5.9)
            p = np.asarray(maxent_shannon(a).distribution.probs)
            q = perturb_on_constraints(rng, p)
            if (q <= 0).any():
                continue
            assert shannon_entropy(q / q.sum()) <= shannon_entropy(p) + 1e-12

    def test_burg(self):
        rng = np.random.default_rng(12)
        pyrng = random.Random(12)
        for _ in range(1000):
            a = rand_average(pyrng, 1.1, 5.9)
            p = np.asarray(maxent_burg(a).distribution.probs)
            q = perturb_on_constraints(rng, p)
            if (q <= 0).any():
                continue
            assert burg_entropy(q / q.sum()) <= burg_entropy(p) + 1e-10

    def test_min_kl(self):
        rng = np.random.default_rng(13)
        pyrng = random.Random(13)
        base = Distribution.from_weights((5, 1, 2, 4, 1, 3))
        for _ in range(1000):
            a = rand_average(pyrng, 1.1, 5.9)
            p = np.asarray(min_kl(a, base).distribution.probs)
            q = perturb_on_constraints(rng, p)
            if (q <= 0).any():
                continue
            assert kl_divergence(q / q.sum(), base.probs) >= \
                kl_divergence(p, base.probs) - 1e-12

    def test_weighted_burg(self):
        # the maximizer of sum m_v ln f_v on the constraints, for random bases m
        rng = np.random.default_rng(14)
        pyrng = random.Random(14)
        for _ in range(1000):
            a = rand_average(pyrng, 1.1, 5.9)
            base = Distribution.from_weights(rng.uniform(0.05, 1.0, 6))
            m = np.asarray(base.probs)
            p = np.asarray(maxent_burg(a, base).distribution.probs)
            q = perturb_on_constraints(rng, p)
            if (q <= 0).any():
                continue
            assert m @ np.log(q / q.sum()) <= m @ np.log(p) + 1e-10


class TestReversalSymmetry:
    def test_randomized(self):
        pyrng = random.Random(21)
        for _ in range(1000):
            a = rand_average(pyrng)
            solver = pyrng.choice((maxent_shannon, maxent_burg))
            fwd = solver(a).distribution
            rev = reversed_distribution(solver(reversed_average(a)).distribution)
            for got, want in zip(fwd, rev):
                assert got == pytest.approx(want, abs=1e-9)


class TestBrentPort:
    """The in-house Brent root finder returns scipy.optimize.brentq's double."""

    @pytest.fixture
    def compared(self, monkeypatch):
        """Route every root of maxent and of the Johnson saddle through both
        finders, asserting the same double."""
        calls = []

        def both(f, xa, xb, **kw):
            root = _brentq(f, xa, xb, **kw)
            assert root == brentq(f, xa, xb, **kw), (xa, xb, kw)
            calls.append(root)
            return root

        monkeypatch.setattr(maxent, "_brentq", both)
        monkeypatch.setattr(exact_models, "_brentq", both)
        return calls

    def test_maxent_roots(self, compared):
        rng = random.Random(31)
        for _ in range(150):
            a = Average(Fraction(rng.randint(101, 599), 100))
            base = Distribution.from_weights([rng.uniform(0.05, 1.0) for _ in range(6)])
            maxent_shannon(a)
            min_kl(a, base)
            maxent_burg(a)
            maxent_burg(a, base)
        assert len(compared) == 600

    def test_johnson_saddle_roots(self, compared):
        rng = random.Random(32)
        for _ in range(12):
            n = rng.randint(100, 1000)
            s = rng.randint(n + 1, 6 * n - 1)
            alpha = rng.choice((0.05, 1.0, 50.0)) * np.asarray(
                Distribution.from_weights([rng.uniform(0.05, 1.0) for _ in range(6)]).probs)
            _johnson_saddle(n, s, alpha)
        assert len(compared) > 12 * 10   # t1's root, and t0's at each t1 it tries

    def test_generic_monotone_functions(self):
        rng = random.Random(33)
        for _ in range(300):
            c = rng.uniform(-3.0, 3.0)
            f = rng.choice((lambda x: x ** 3 - c ** 3, lambda x: math.tanh(x - c),
                            lambda x: math.expm1(x) - math.expm1(c), lambda x: c - x))
            lo, hi = c - rng.uniform(0.01, 5.0), c + rng.uniform(0.01, 5.0)
            xtol = rng.choice((1e-15, 1e-12, 1e-9, 1e-3))
            maxiter = rng.choice((100, 200))
            assert _brentq(f, lo, hi, xtol, maxiter=maxiter) == \
                brentq(f, lo, hi, xtol=xtol, maxiter=maxiter)

    def test_root_at_an_endpoint(self):
        assert _brentq(lambda x: x - 1.0, 1.0, 2.0, 1e-12) == 1.0
        assert _brentq(lambda x: x - 2.0, 1.0, 2.0, 1e-12) == 2.0
        assert brentq(lambda x: x - 2.0, 1.0, 2.0) == 2.0

    def test_refusals(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
        with pytest.raises(ValueError, match="nan"):
            _brentq(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0, 1e-12)
        with pytest.raises(RuntimeError, match="after 3 steps"):
            _brentq(lambda x: x ** 3 - 0.027, 0.0, 10.0, 1e-15, maxiter=3)
