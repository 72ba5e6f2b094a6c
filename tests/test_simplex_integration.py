"""Simplex/polytope sampling, quadrature, and ratio estimators."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

from dicebayes import (Average, BudgetExhausted, DegeneratePolytope,
                       build_constraint_polytope, dirichlet_beta_integral,
                       integrate_polytope, integrate_simplex,
                       sample_polytope_uniform, sample_simplex_uniform)
from dicebayes.simplex_integration import (_MCAccumulator, make_rng,
                                           posterior_mean_polytope,
                                           posterior_mean_simplex)


class TestSampling:
    def test_simplex_samples_are_valid(self):
        pts = sample_simplex_uniform(make_rng(0), 10_000)
        assert pts.shape == (10_000, 6)
        assert (pts >= 0).all()
        np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)

    def test_simplex_moments_match_dirichlet(self):
        # uniform on the simplex = Dirichlet(1,..,1): E[p_i] = 1/6,
        # E[p_i^2] = 2/(6*7)
        pts = sample_simplex_uniform(make_rng(3), 400_000)
        np.testing.assert_allclose(pts.mean(axis=0), 1 / 6, atol=2e-3)
        np.testing.assert_allclose((pts ** 2).mean(axis=0), 2 / 42, atol=2e-3)

    def test_polytope_samples_satisfy_constraints(self):
        poly = build_constraint_polytope(Average(Fraction(5)))
        pts = sample_polytope_uniform(poly, make_rng(1), 50_000)
        assert (pts >= -1e-12).all()
        np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-9)
        values = pts @ np.arange(1.0, 7.0)
        np.testing.assert_allclose(values, 5.0, atol=1e-9)

    def test_degenerate_polytope(self):
        for a, face in ((Fraction(1), 1), (Fraction(6), 6)):
            with pytest.raises(DegeneratePolytope) as exc:
                build_constraint_polytope(Average(a))
            assert exc.value.vertex.probs[face - 1] == 1.0

    def test_mirror_polytopes_have_equal_volume(self):
        v2 = build_constraint_polytope(Average(Fraction(2))).total_volume
        v5 = build_constraint_polytope(Average(Fraction(5))).total_volume
        assert v2 == pytest.approx(v5, rel=1e-9)


class TestDirichletBetaIntegral:
    def test_flat_case(self):
        # the canonical flat density integrates to 1/5! relative to the
        # Lebesgue measure used here
        assert dirichlet_beta_integral(np.ones(6)) == pytest.approx(-math.log(120))

    def test_against_gammaln(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            b = rng.uniform(0.2, 8.0, size=6)
            expected = gammaln(b).sum() - gammaln(b.sum())
            assert dirichlet_beta_integral(b) == pytest.approx(expected, rel=1e-12)


class TestIntegrators:
    def test_mc_matches_dirichlet_normalizer(self):
        b = np.array([2.0, 1.0, 3.0, 1.0, 2.0, 1.0])

        def fn(pts):
            with np.errstate(divide="ignore"):
                return ((b - 1.0) * np.log(pts)).sum(axis=1)

        est = integrate_simplex(fn, budget=400_000, seed=2)
        expected = math.exp(dirichlet_beta_integral(b) + math.log(120))
        assert est.value == pytest.approx(expected, rel=5e-3)
        assert est.stderr < 0.01 * expected

    def test_deterministic_matches_dirichlet_normalizer(self):
        b = np.array([2.0, 1.0, 3.0, 1.0, 2.0, 1.0])

        def fn(pts):
            with np.errstate(divide="ignore"):
                return ((b - 1.0) * np.log(pts)).sum(axis=1)

        est = integrate_simplex(fn, budget=200_000, seed=0, method="deterministic")
        expected = math.exp(dirichlet_beta_integral(b) + math.log(120))
        assert est.value == pytest.approx(expected, rel=1e-4)

    def test_polytope_constant_integrates_to_volume_fraction(self):
        poly = build_constraint_polytope(Average(Fraction(4)))
        est = integrate_polytope(poly, lambda pts: np.zeros(len(pts)),
                                 budget=10_000, seed=0, method="deterministic")
        assert est.value == pytest.approx(1.0, rel=1e-9)

    def test_budget_exhausted_is_a_warning_with_result(self):
        # a sharply peaked integrand cannot converge on a tiny budget
        def fn(pts):
            return -2000.0 * ((pts - 1 / 6.0) ** 2).sum(axis=1), pts

        with pytest.warns(BudgetExhausted):
            probs, err, est = posterior_mean_simplex(fn, budget=3_000, seed=0,
                                                     method="deterministic",
                                                     atol=1e-12)
        assert np.all(np.isfinite(probs))


class TestRatioEstimators:
    @staticmethod
    def weighted(shift):
        def fn(pts):
            return -8.0 * pts[:, 5] + shift, pts
        return fn

    def test_normalization_offset_invariance(self):
        # adding any constant to the log-weight leaves the ratio unchanged
        base, _, _ = posterior_mean_simplex(self.weighted(0.0), budget=100_000, seed=4)
        for shift in (-500.0, -3.0, 2.0, 300.0, 700.0):
            shifted, _, _ = posterior_mean_simplex(self.weighted(shift),
                                                   budget=100_000, seed=4)
            np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-13)

    def test_normalization_offset_invariance_randomized(self):
        rng = np.random.default_rng(17)
        base, _, _ = posterior_mean_simplex(self.weighted(0.0), budget=20_000, seed=9)
        for _ in range(1000):
            shift = rng.uniform(-600, 600)
            shifted, _, _ = posterior_mean_simplex(self.weighted(shift),
                                                   budget=20_000, seed=9)
            np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-13)

    def test_seed_determinism(self):
        a, sa, _ = posterior_mean_simplex(self.weighted(0.0), budget=50_000, seed=7)
        b, sb, _ = posterior_mean_simplex(self.weighted(0.0), budget=50_000, seed=7)
        c, _, _ = posterior_mean_simplex(self.weighted(0.0), budget=50_000, seed=8)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(sa, sb)
        assert not np.array_equal(a, c)

    def test_mc_and_deterministic_agree(self):
        poly = build_constraint_polytope(Average(Fraction(5)))

        def fn(pts):
            with np.errstate(divide="ignore"):
                return np.log(pts).sum(axis=1), pts

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BudgetExhausted)
            mc, err, _ = posterior_mean_polytope(poly, fn, budget=1_000_000, seed=0)
            det, _, _ = posterior_mean_polytope(poly, fn, budget=200_000,
                                                method="deterministic", atol=1e-3)
        assert np.all(np.abs(mc - det) <= np.maximum(4 * err, 5e-4))

    def test_stderr_shrinks_with_budget(self):
        _, small, _ = posterior_mean_simplex(self.weighted(0.0), budget=20_000, seed=1)
        _, large, _ = posterior_mean_simplex(self.weighted(0.0), budget=1_280_000, seed=1)
        assert large.max() < small.max() / 4

    def test_effective_sample_size(self):
        # equal weights keep every sample; one dominant weight keeps about one
        x = np.zeros((1000, 6))
        acc = _MCAccumulator(6)
        acc.add(np.full(1000, -3.0), x)
        assert acc.ratio()[2] == pytest.approx(1000.0)
        acc = _MCAccumulator(6)
        acc.add(np.concatenate([[0.0], np.full(999, -50.0)]), x)
        assert acc.ratio()[2] == pytest.approx(1.0, abs=1e-12)
