"""Multiplicity-model posteriors, large-N slice integrals, and the routing of
`posterior()`."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from numpy.polynomial import polynomial

from dicebayes import (Average, BudgetExhausted, ContradictoryData,
                       DegenerateWeights, Distribution, Exact, FairThrow, Johnson,
                       LargeN, Multiplicity, Query, NEW, OLD, fair_posterior,
                       generalized_johnson_posterior,
                       generalized_multiplicity_posterior, johnson_large_n,
                       johnson_posterior, maxent_burg, maxent_shannon, min_kl,
                       multiplicity_large_n, multiplicity_posterior, posterior)
from dicebayes.cli import main
from dicebayes.multiplicity_model import _ROW_BLOCK, _finite_kernel
from dicebayes.simplex_integration import make_rng, sample_simplex_uniform

A5 = Average(Fraction(5))
A35 = Average(Fraction(7, 2))


def max_dev(dist, other):
    return max(abs(p - q) for p, q in zip(dist, other))


def reference_kernel(p, n, s):
    """(a, old_probs) for one point from the full power polynomial."""
    q = polynomial.polypow(np.concatenate([[0.0], p]), n - 1)
    terms = np.array([p[i - 1] * q[s - i] if 0 <= s - i < len(q) else 0.0
                      for i in range(1, 7)])
    return terms.sum(), terms / terms.sum()


class TestFiniteKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
    def test_matches_full_power_polynomial(self, n):
        pts = sample_simplex_uniform(make_rng(7), 40)
        for s in range(n, 6 * n + 1):
            log_a, old = _finite_kernel(pts, n, s)
            for p, la, o in zip(pts, log_a, old):
                a_ref, old_ref = reference_kernel(p, n, s)
                # an absolute tolerance on ln(a) is a relative one on a
                assert la == pytest.approx(math.log(a_ref), rel=0, abs=1e-12)
                np.testing.assert_allclose(o, old_ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, s", [(2, 7), (6, 30), (12, 42)])
    def test_row_blocks_do_not_change_values(self, n, s):
        pts = sample_simplex_uniform(make_rng(11), _ROW_BLOCK + 1)
        log_a, old = _finite_kernel(pts, n, s)
        rows = [_finite_kernel(pts[i:i + 1], n, s) for i in range(pts.shape[0])]
        assert np.array_equal(log_a, np.concatenate([r[0] for r in rows]))
        assert np.array_equal(old, np.concatenate([r[1] for r in rows]))


class TestFinitePosterior:
    def test_contradictory_average(self):
        with pytest.raises(ContradictoryData):
            multiplicity_posterior(1, A35, 1.0, OLD)

    def test_single_member_new_reduces_to_weighted_mean(self):
        # with a = 6 the only frequency vector is all sixes; the old-throw
        # posterior is the face-6 vertex regardless of the scale parameter
        res = multiplicity_posterior(2, Average(Fraction(6)), 5.0, OLD,
                                     budget=200_000)
        assert res.distribution.probs[5] == pytest.approx(1.0, abs=1e-12)

    def test_scale_sandwich_approaches_fair(self):
        # as the scale parameter grows the model pinches onto the uniform
        # distribution and the posterior approaches the fair-throw one
        fair = fair_posterior(2, A5, OLD).distribution
        devs = []
        # at L=500 the weights concentrate near the uniform point: 400k samples
        # leave an effective sample size of about 19, 2M clear the ESS check
        budgets = {1.0: 400_000, 5.0: 400_000, 50.0: 400_000, 500.0: 2_000_000}
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateWeights)
            for scale, budget in budgets.items():
                res = multiplicity_posterior(2, A5, scale, OLD, budget=budget)
                devs.append(max_dev(res.distribution, fair))
        assert devs == sorted(devs, reverse=True)
        assert devs[-1] < 0.01

    def test_mc_matches_deterministic(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BudgetExhausted)
            for throw in (OLD, NEW):
                mc = multiplicity_posterior(2, A5, 1.0, throw, budget=1_000_000)
                det = multiplicity_posterior(2, A5, 1.0, throw,
                                             method="deterministic", budget=300_000)
                tol = np.maximum(4 * np.asarray(mc.mc_stderr), 5e-4)
                gap = np.abs(np.asarray(mc.distribution.probs)
                             - np.asarray(det.distribution.probs))
                assert np.all(gap <= tol)

    def test_seed_determinism(self):
        one = multiplicity_posterior(2, A5, 1.0, OLD, budget=200_000, seed=42)
        two = multiplicity_posterior(2, A5, 1.0, OLD, budget=200_000, seed=42)
        other = multiplicity_posterior(2, A5, 1.0, OLD, budget=200_000, seed=43)
        assert one.distribution.probs == two.distribution.probs
        assert one.distribution.probs != other.distribution.probs

    def test_generalized_with_uniform_base_matches_plain(self):
        base = Distribution.uniform()
        plain = multiplicity_posterior(2, A5, 3.0, NEW, budget=400_000)
        gen = generalized_multiplicity_posterior(2, A5, 3.0, base, NEW,
                                                 budget=400_000)
        assert max_dev(plain.distribution, gen.distribution) < 2e-3

    def test_collapsed_weights_warn(self):
        # at L = 1e6 the importance weights sit on about one sample
        with pytest.warns(DegenerateWeights):
            assert main(["eval", "--n", "2", "--avg", "5", "--model", "multiplicity",
                         "--param", "1000000", "--throw", "old"]) == 0

    def test_table_cell_weights_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateWeights)
            multiplicity_posterior(12, A5, 50.0, OLD, budget=400_000)

    def test_face_reversal_symmetry(self):
        fwd = multiplicity_posterior(2, A5, 1.0, OLD, budget=400_000)
        rev = multiplicity_posterior(2, A5.reversed(), 1.0, OLD, budget=400_000)
        assert max_dev(fwd.distribution,
                       rev.distribution.reversed()) < 4 * max(fwd.mc_stderr) + 1e-4


class TestLargeN:
    def test_johnson_flat_density_anchor(self):
        # concentration 1 makes the slice density flat; the posterior is the
        # centroid of the constraint polytope
        res = johnson_large_n(A5, 1.0)
        expected = (0.040, 0.050, 0.067, 0.100, 0.200, 0.543)
        assert max_dev(res.distribution, expected) < 1e-3

    def test_johnson_large_concentration_approaches_burg(self):
        res = johnson_large_n(A5, 50.0)
        burg = maxent_burg(A5).distribution
        assert max_dev(res.distribution, burg) < 3e-3

    def test_multiplicity_large_scale_approaches_shannon(self):
        res = multiplicity_large_n(A5, 50.0)
        shannon = maxent_shannon(A5).distribution
        assert max_dev(res.distribution, shannon) < 3e-3

    def test_degenerate_average_returns_vertex(self):
        res = multiplicity_large_n(Average(Fraction(6)), 5.0)
        assert res.distribution == Distribution.vertex(6)

    def test_face_reversal_symmetry(self):
        fwd = multiplicity_large_n(A5, 5.0)
        rev = multiplicity_large_n(A5.reversed(), 5.0)
        assert max_dev(fwd.distribution, rev.distribution.reversed()) < 5e-4


class TestAsymptoticDispatch:
    def test_finite_n_infinite_param_behaves_like_fair(self):
        res = posterior(Query(Exact(2), A5, OLD, Johnson(math.inf)))
        fair = fair_posterior(2, A5, OLD)
        assert max_dev(res.distribution, fair.distribution) < 1e-12

    def test_large_n_fair_old_is_shannon_maxent(self):
        res = posterior(Query(LargeN(), A5, OLD, FairThrow()))
        assert max_dev(res.distribution, maxent_shannon(A5).distribution) < 1e-10

    def test_large_n_fair_new_is_uniform(self):
        res = posterior(Query(LargeN(), A5, NEW, FairThrow()))
        assert res.distribution == Distribution.uniform()

    def test_param_dominating_n_behaves_like_fair_large_n(self):
        for throw, expected in ((OLD, maxent_shannon(A5).distribution),
                                (NEW, Distribution.uniform())):
            res = posterior(Query(LargeN(False), A5, throw, Multiplicity(math.inf)))
            assert max_dev(res.distribution, expected) < 1e-10

    def test_n_dominating_johnson_is_burg_maxent(self):
        res = posterior(Query(LargeN(True), A5, OLD, Johnson(math.inf)))
        assert max_dev(res.distribution, maxent_burg(A5).distribution) < 1e-10

    def test_n_dominating_multiplicity_is_min_divergence(self):
        base = Distribution.from_weights((1, 1, 2, 2, 3, 3))
        res = posterior(Query(LargeN(True), A5, NEW, Multiplicity(math.inf, base)))
        assert max_dev(res.distribution, min_kl(A5, base).distribution) < 1e-10

    def test_unspecified_ratio_is_an_error(self):
        with pytest.raises(ValueError):
            posterior(Query(LargeN(None), A5, OLD, Johnson(math.inf)))

    def test_base_relative_johnson_limit_unsupported(self):
        base = Distribution.from_weights((1, 1, 2, 2, 3, 3))
        with pytest.raises(ValueError):
            posterior(Query(LargeN(True), A5, OLD, Johnson(math.inf, base)))


BASE = Distribution.from_weights((1, 2, 3, 4, 5, 6))


class TestPosteriorRoutes:
    """Each route of `posterior()` returns exactly what the function it routes to
    returns when called directly."""

    @staticmethod
    def assert_same(routed, direct):
        assert routed.distribution == direct.distribution
        assert routed.method == direct.method
        assert routed.mc_stderr == direct.mc_stderr

    @pytest.mark.parametrize("throw", [OLD, NEW])
    def test_finite_n_fair(self, throw):
        self.assert_same(posterior(Query(Exact(6), A5, throw, FairThrow())),
                         fair_posterior(6, A5, throw))

    @pytest.mark.parametrize("throw", [OLD, NEW])
    def test_finite_n_johnson(self, throw):
        self.assert_same(posterior(Query(Exact(6), A5, throw, Johnson(0.5))),
                         johnson_posterior(6, A5, 0.5, throw))

    @pytest.mark.parametrize("throw", [OLD, NEW])
    def test_finite_n_multiplicity(self, throw):
        self.assert_same(
            posterior(Query(Exact(6), A5, throw, Multiplicity(5.0)), budget=20_000, seed=3),
            multiplicity_posterior(6, A5, 5.0, throw, budget=20_000, seed=3))

    def test_finite_n_base_weighted(self):
        self.assert_same(posterior(Query(Exact(6), A5, NEW, Johnson(2.0, BASE))),
                         generalized_johnson_posterior(6, A5, 2.0, BASE, NEW))
        self.assert_same(
            posterior(Query(Exact(6), A5, OLD, Multiplicity(5.0, BASE)), budget=20_000, seed=3),
            generalized_multiplicity_posterior(6, A5, 5.0, BASE, OLD, budget=20_000, seed=3))

    def test_no_data_base_weighted_johnson_is_the_base(self):
        res = posterior(Query(Exact(0), A5, NEW, Johnson(2.0, BASE)))
        assert res.distribution == BASE
        with pytest.raises(ValueError):
            posterior(Query(Exact(0), A5, NEW, Johnson(2.0)))

    @pytest.mark.parametrize("model", [Johnson(math.inf), Multiplicity(math.inf)])
    def test_finite_n_parameter_large_is_fair(self, model):
        res = posterior(Query(Exact(6), A5, OLD, model))
        assert res.distribution == fair_posterior(6, A5, OLD).distribution
        assert res.method == "analytic-limit"

    def test_large_n_fair(self):
        old = posterior(Query(LargeN(), A5, OLD, FairThrow()))
        assert old.distribution == maxent_shannon(A5).distribution
        assert posterior(Query(LargeN(), A5, NEW, FairThrow())).distribution == \
            Distribution.uniform()

    def test_large_n_finite_parameter(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BudgetExhausted)
            for throw in (OLD, NEW):
                self.assert_same(
                    posterior(Query(LargeN(), A5, throw, Johnson(5.0)), budget=3_000),
                    johnson_large_n(A5, 5.0, budget=3_000))
                self.assert_same(
                    posterior(Query(LargeN(), A5, throw, Multiplicity(5.0, BASE)),
                              budget=3_000),
                    multiplicity_large_n(A5, 5.0, BASE, budget=3_000))

    def test_large_n_ratio_small_is_fair_limit(self):
        for model in (Johnson(math.inf), Multiplicity(math.inf)):
            old = posterior(Query(LargeN(False), A5, OLD, model))
            new = posterior(Query(LargeN(False), A5, NEW, model))
            assert old.distribution == maxent_shannon(A5).distribution
            assert new.distribution == Distribution.uniform()

    def test_large_n_ratio_large_is_maxent(self):
        johnson = posterior(Query(LargeN(True), A5, OLD, Johnson(math.inf)))
        assert johnson.distribution == maxent_burg(A5).distribution
        mult = posterior(Query(LargeN(True), A5, OLD, Multiplicity(math.inf)))
        assert mult.distribution == min_kl(A5, Distribution.uniform()).distribution

    @pytest.mark.parametrize("model", [Johnson(math.inf), Multiplicity(math.inf)])
    def test_large_n_ratio_missing_is_an_error(self, model):
        with pytest.raises(ValueError):
            posterior(Query(LargeN(), A5, NEW, model))
