"""Simplex and slice sampling, and the Monte Carlo ratio estimators.

The slice sampler and the simplex ratio estimator live in tests/oracle.py, as
Monte Carlo cross-checks of the deterministic posteriors.
"""
from fractions import Fraction

import numpy as np
import pytest

from dicebayes import Average, johnson_large_n, sample_simplex_uniform
from dicebayes.simplex_integration import _MCAccumulator, make_rng
from oracle import (build_constraint_polytope, posterior_mean_simplex,
                    sample_polytope_uniform, slice_mean_mc)


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
        for a in (Fraction(1), Fraction(6)):
            with pytest.raises(ValueError, match="single point"):
                build_constraint_polytope(Average(a))

    def test_mirror_polytopes_have_equal_volume(self):
        v2 = build_constraint_polytope(Average(Fraction(2))).total_volume
        v5 = build_constraint_polytope(Average(Fraction(5))).total_volume
        assert v2 == pytest.approx(v5, rel=1e-9)


class TestIntegrators:
    # Under the weight prod p^(b - 1) the simplex mean of p_i is a ratio of two
    # Dirichlet normalizers, B(b + e_i) / B(b) = b_i / sum(b).
    B = np.array([2.0, 1.0, 3.0, 1.0, 2.0, 1.0])

    @classmethod
    def dirichlet(cls, pts):
        with np.errstate(divide="ignore"):
            return ((cls.B - 1.0) * np.log(pts)).sum(axis=1), pts

    def test_mc_matches_dirichlet_normalizer(self):
        probs, stderr, evaluations = posterior_mean_simplex(self.dirichlet,
                                                            budget=400_000, seed=2)
        expected = self.B / self.B.sum()
        assert evaluations == 400_000
        assert np.all(np.abs(probs - expected) <= 4 * stderr)
        assert np.all(stderr < 0.01 * expected)

    def test_polytope_constant_integrates_to_volume_fraction(self):
        # a constant weight gives each triangulation simplex its volume
        # fraction, so the mean point is the volume-weighted mean of their
        # centroids; the Johnson slice at K = 1 has that constant weight
        poly = build_constraint_polytope(Average(Fraction(4)))
        verts = poly.vertex_array()
        centroid = sum(frac * verts[list(simplex)].mean(axis=0)
                       for frac, simplex in zip(poly.relative_volumes, poly.simplices))
        probs = johnson_large_n(Average(Fraction(4)), 1.0).distribution.probs
        np.testing.assert_allclose(probs, centroid, rtol=0, atol=1e-12)


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
        # the slice density prod f is the Johnson model at K = 2
        def log_density(pts):
            with np.errstate(divide="ignore"):
                return np.log(pts).sum(axis=1)

        mc, err = slice_mean_mc(Average(Fraction(5)), log_density, 1_000_000, 0)
        det = johnson_large_n(Average(Fraction(5)), 2.0).distribution.probs
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
