"""Multiplicity-model posteriors, large-N slice integrals, and the routing of
`posterior()`."""
import json
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from numpy.polynomial import polynomial
from scipy.special import gammaln

from dicebayes import (Average, BudgetExhausted, ContradictoryData,
                       DegenerateWeights, Distribution, Exact, FairThrow, Johnson,
                       LargeN, Multiplicity, Query, NEW, OLD, fair_posterior,
                       generalized_johnson_posterior,
                       generalized_multiplicity_posterior, johnson_large_n,
                       johnson_posterior, maxent_burg, maxent_shannon, min_kl,
                       multiplicity_large_n, multiplicity_posterior, posterior)
from dicebayes.cli import main
from dicebayes.combinatorics import _constrained_counts
from dicebayes import multiplicity_model
from dicebayes.multiplicity_model import (_LATTICE_TOL, _ROW_BLOCK, _SLICE_TOL, _Lattice,
                                          _finite_kernel, _lattice_probs, _slice_lattice)
from dicebayes.simplex_integration import make_rng, sample_simplex_uniform
from oracle import bspline_slice_mean, slice_mean_mc

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
        # Monte Carlo against the lattice
        for throw in (OLD, NEW):
            mc = multiplicity_posterior(2, A5, 1.0, throw, budget=1_000_000)
            det = multiplicity_posterior(2, A5, 1.0, throw, method="deterministic")
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

    def test_collapsed_weights_warn(self, capsys):
        # at L = 1e6 the importance weights sit on about one sample
        with pytest.warns(DegenerateWeights):
            multiplicity_posterior(2, A5, 1e6, OLD)
        # the routed answer comes from the lattice, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--n", "2", "--avg", "5", "--model", "multiplicity",
                         "--param", "1000000", "--throw", "old", "--format", "json"]) == 0
        probs = json.loads(capsys.readouterr().out)["probs"]
        assert 100 * np.asarray(probs[3:]) == pytest.approx([33.3333, 33.3335, 33.3333],
                                                           rel=0, abs=1e-3)

    def test_table_cell_weights_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateWeights)
            multiplicity_posterior(12, A5, 50.0, OLD, budget=400_000)

    def test_face_reversal_symmetry(self):
        fwd = multiplicity_posterior(2, A5, 1.0, OLD, budget=400_000)
        rev = multiplicity_posterior(2, A5.reversed(), 1.0, OLD, budget=400_000)
        assert max_dev(fwd.distribution,
                       rev.distribution.reversed()) < 4 * max(fwd.mc_stderr) + 1e-4


# (n, a) of the paper's finite-N tables that some n throws realize
TABLE_DATA = [(n, a) for n in (1, 2, 6, 12) for a in ("6", "5", "7/2")
              if (n, a) != (1, "7/2")]


def lattice(n, a, scale, throw):
    return multiplicity_posterior(n, Average.parse(a), scale, throw, method="deterministic")


class TestLattice:
    @pytest.mark.parametrize("n, a", TABLE_DATA)
    def test_old_throw_mean_is_the_average(self, n, a):
        for scale in (1.0, 5.0, 50.0):
            res = lattice(n, a, scale, OLD)
            assert res.distribution.mean_value() == pytest.approx(float(Fraction(a)),
                                                                  rel=0, abs=1e-12)
            assert max(res.error_bound) <= _LATTICE_TOL

    @pytest.mark.parametrize("n, a", TABLE_DATA)
    def test_face_reversal(self, n, a):
        for throw in (OLD, NEW):
            fwd = lattice(n, a, 5.0, throw)
            rev = lattice(n, str(7 - Fraction(a)), 5.0, throw)
            assert max_dev(fwd.distribution, rev.distribution.reversed()) < 1e-12

    def test_error_falls_as_grid_squared(self):
        counts = _constrained_counts(6, 30)
        for throw in (OLD, NEW):
            p = [_lattice_probs(counts, 6, throw, _Lattice(1.0, grid))
                 for grid in (500, 1000, 2000)]
            first, second = p[0] - p[1], p[1] - p[2]
            face = np.argmax(np.abs(second))
            assert 3 <= first[face] / second[face] <= 5

    @pytest.mark.parametrize("scale, faces_4_to_6", [
        (1.0, [25.195, 49.609, 25.195]),        # the misprinted n2-a5 cell
        (1e4, [33.327, 33.347, 33.327])])
    def test_converged_values(self, scale, faces_4_to_6):
        res = lattice(2, "5", scale, OLD)
        assert 100 * np.asarray(res.distribution.probs[3:]) == pytest.approx(
            faces_4_to_6, rel=0, abs=1e-3)

    @pytest.mark.parametrize("n", [2, 12])
    @pytest.mark.parametrize("scale", [1e3, 1e4, 1e6])
    def test_large_scale_approaches_fair(self, n, scale):
        for throw in (OLD, NEW):
            fair = fair_posterior(n, A5, throw).distribution
            assert max_dev(lattice(n, "5", scale, throw).distribution, fair) <= n / scale

    def test_scale_beyond_the_grid_is_refused(self, capsys):
        start = time.perf_counter()
        assert main(["eval", "--n", "2", "--avg", "5", "--model", "multiplicity",
                     "--param", "1e12", "--throw", "old"]) == 3
        assert time.perf_counter() - start < 1.0
        assert "--param large" in capsys.readouterr().err


BASE = Distribution.from_weights((1, 2, 3, 4, 5, 6))


class TestBaseLattice:
    """The lattice with a base: one sequence per face, integrals keyed by the
    ordered counts."""

    @pytest.mark.parametrize("n, a", TABLE_DATA)
    def test_uniform_base_is_the_symmetric_lattice(self, n, a):
        avg = Average.parse(a)
        for scale in (1.0, 5.0, 50.0):
            for throw in (OLD, NEW):
                based = generalized_multiplicity_posterior(
                    n, avg, scale, Distribution.uniform(), throw, method="deterministic")
                plain = lattice(n, a, scale, throw)
                assert max_dev(based.distribution, plain.distribution) <= 1e-12

    @pytest.mark.parametrize("n, a, scale, throw", [
        (2, "5", 5.0, OLD), (6, "5", 5.0, OLD), (6, "5", 5.0, NEW),
        (12, "7/2", 50.0, OLD), (12, "7/2", 50.0, NEW)])
    def test_matches_monte_carlo(self, n, a, scale, throw):
        avg = Average.parse(a)
        det = generalized_multiplicity_posterior(n, avg, scale, BASE, throw,
                                                 method="deterministic")
        assert max(det.error_bound) <= _LATTICE_TOL
        mc = generalized_multiplicity_posterior(n, avg, scale, BASE, throw,
                                                budget=1_000_000)
        gap = np.abs(np.asarray(det.distribution.probs) - np.asarray(mc.distribution.probs))
        assert np.all(gap <= np.maximum(4 * np.asarray(mc.mc_stderr), 5e-4))

    @pytest.mark.parametrize("n", [2, 12])
    @pytest.mark.parametrize("scale", [1e3, 1e4, 1e6])
    def test_large_scale_approaches_the_base_weighted_fair_model(self, n, scale):
        # as L grows the prior pins p to the base: Johnson at K = 1e14 is that limit
        for throw in (OLD, NEW):
            res = generalized_multiplicity_posterior(n, A5, scale, BASE, throw,
                                                     method="deterministic")
            limit = generalized_johnson_posterior(n, A5, 1e14, BASE, throw)
            assert max_dev(res.distribution, limit.distribution) <= n / scale

    def test_narrow_base_beyond_the_grid_is_refused(self):
        # the first grid grows as (L / min m)^(1/2)
        with pytest.raises(ValueError, match="with this base"):
            generalized_multiplicity_posterior(
                2, A5, 1e9, Distribution.from_weights((1, 1, 1, 1, 1, 1000)), OLD,
                method="deterministic")


class TestLatticeCache:
    """Lattices are shared across queries by (L, M, base); sharing moves no bit."""

    def test_warm_cache_matches_a_cold_one(self):
        cache = multiplicity_model._LATTICE_CACHE
        cells = [(n, a, scale, throw) for n, a in TABLE_DATA
                 for scale in (1.0, 5.0, 50.0) for throw in (OLD, NEW)]
        cache.clear()
        warm = [lattice(*cell) for cell in cells]
        assert len(cache) == 6              # three L, each on grids 500 and 1000
        for cell, res in zip(cells, warm):
            cache.clear()
            cold = lattice(*cell)
            assert np.array_equal(res.distribution.probs, cold.distribution.probs)
            assert np.array_equal(res.error_bound, cold.error_bound)

    def test_uniform_base_has_its_own_lattice(self):
        cache = multiplicity_model._LATTICE_CACHE
        cache.clear()
        lattice(2, "5", 5.0, OLD)
        generalized_multiplicity_posterior(2, A5, 5.0, Distribution.uniform(), OLD,
                                           method="deterministic")
        plain = {grid: lat for (_, grid, base), lat in cache.items() if base is None}
        based = {grid: lat for (_, grid, base), lat in cache.items() if base is not None}
        assert plain and plain.keys() == based.keys()
        for grid, lat in plain.items():
            assert lat.symmetric and not based[grid].symmetric

    def test_past_the_cap_the_cache_is_emptied(self, monkeypatch):
        monkeypatch.setattr(multiplicity_model, "_LATTICE_CACHE_BYTES", 8)
        first = lattice(6, "7/2", 5.0, NEW)
        assert not multiplicity_model._LATTICE_CACHE
        again = lattice(6, "7/2", 5.0, NEW)
        assert np.array_equal(first.distribution.probs, again.distribution.probs)
        assert np.array_equal(first.error_bound, again.error_bound)

    def test_cap_holds_when_the_query_raises(self, monkeypatch):
        monkeypatch.setattr(multiplicity_model, "_LATTICE_CACHE_BYTES", 8)
        monkeypatch.setattr(multiplicity_model, "_LATTICE_TOL", 0.0)
        monkeypatch.setattr(multiplicity_model, "_MAX_GRID", 1000)   # stop at 500 and 1000
        with warnings.catch_warnings():
            warnings.simplefilter("error", BudgetExhausted)
            with pytest.raises(BudgetExhausted):
                lattice(2, "5", 5.0, OLD)
        assert not multiplicity_model._LATTICE_CACHE


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
        res = johnson_large_n(Average(Fraction(1)), 5.0)
        assert res.distribution == Distribution.vertex(1)
        assert res.method == "analytic-limit"

    def test_face_reversal_symmetry(self):
        fwd = multiplicity_large_n(A5, 5.0)
        rev = multiplicity_large_n(A5.reversed(), 5.0)
        assert max_dev(fwd.distribution, rev.distribution.reversed()) < 5e-4


# (a, K) of the printed large-N Johnson cells, and one k/10 pair
SLICE_CELLS = [(a, k) for a in ("5", "7/2") for k in (1, 5, 50)] + [
    (a, k) for a in ("23/10", "47/10") for k in (1, 5)]


class TestJohnsonSlice:
    @pytest.mark.parametrize("a, k", SLICE_CELLS)
    def test_matches_the_bspline_oracle(self, a, k):
        res = johnson_large_n(Average.parse(a), float(k))
        exact = bspline_slice_mean(Average.parse(a), (k,) * 6)
        assert max_dev(res.distribution, [float(x) for x in exact]) <= 1e-10
        assert res.method == "deterministic-quad"
        assert max(res.error_bound) <= 1e-10

    @pytest.mark.parametrize("face", [2, 3, 4, 5])
    def test_face_value_identity(self, face):
        # observed, not derived: at a = v the posterior of face v is
        # alpha_v / (A - 1), also for K < 1 and with a base
        rng = np.random.default_rng(face)
        for base in (None, Distribution.from_weights(rng.uniform(0.2, 1.0, 6))):
            m = np.ones(6) if base is None else np.asarray(base.probs)
            for k in (0.3, 0.5, 1.0, 5.0, 50.0, 1e3, 1e6):
                alpha = k * m
                if alpha.sum() - alpha[face - 1] <= 1.0:
                    continue
                res = johnson_large_n(Average(Fraction(face)), k, base)
                assert res.distribution[face - 1] == pytest.approx(
                    alpha[face - 1] / (alpha.sum() - 1.0), rel=0, abs=1e-12)

    @pytest.mark.parametrize("k, base", [(0.2, None), (0.1, None),
                                         (2.0, Distribution.from_weights((1, 1, 1, 1, 8, 1)))])
    def test_non_integrable_vertex_is_the_limit(self, k, base):
        # the other faces' concentrations sum to at most 1: the slice density
        # cannot be integrated at e_5, and the posterior is that vertex
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = johnson_large_n(A5, k, base)
        assert res.distribution == Distribution.vertex(5)
        assert res.method == "analytic-limit"

    @pytest.mark.parametrize("k", [1, 5])
    def test_slice_lattice_with_johnson_weights(self, k):
        # the multiplicity engine fed f^(K-1) lies within its own bound of the oracle
        for a in ("5", "7/2"):
            def log_weight(v, p):
                with np.errstate(divide="ignore"):
                    return (k - 1) * np.log(p) if k > 1 else np.zeros_like(p)

            probs, bound = _slice_lattice(Average.parse(a), log_weight, 1.0)
            exact = np.array([float(x) for x in bspline_slice_mean(Average.parse(a), (k,) * 6)])
            assert np.all(np.abs(probs - exact) <= bound)


class TestMultiplicitySlice:
    @pytest.mark.parametrize("a", ["5", "7/2"])
    @pytest.mark.parametrize("scale", [1.0, 5.0, 50.0])
    def test_matches_slice_monte_carlo(self, a, scale):
        avg = Average.parse(a)
        res = multiplicity_large_n(avg, scale)
        assert res.method == "deterministic-quad" and max(res.error_bound) <= _SLICE_TOL
        mc, stderr = slice_mean_mc(
            avg, lambda pts: -gammaln(scale * pts + 1.0).sum(axis=1), 400_000, 5)
        assert np.all(np.abs(np.asarray(res.distribution.probs) - mc) <= 4 * stderr)

    @pytest.mark.parametrize("a, scale", [("5", 1.0), ("23/10", 5.0), ("59/10", 1.0),
                                          ("7/2", 500.0)])
    def test_error_bound_holds_against_a_finer_lattice(self, a, scale, monkeypatch):
        avg = Average.parse(a)
        res = multiplicity_large_n(avg, scale)
        # the same slice refined to a ten times tighter target
        monkeypatch.setattr(multiplicity_model, "_SLICE_TOL", max(res.error_bound) / 10)
        monkeypatch.setattr(multiplicity_model, "_MAX_SLICE_GRID", 4096)
        finer = multiplicity_large_n(avg, scale)
        assert np.all(np.abs(np.asarray(res.distribution.probs)
                             - np.asarray(finer.distribution.probs))
                      <= np.asarray(res.error_bound))

    def test_base_weighted(self):
        # the uniform base is the symmetric model; another base agrees with
        # slice Monte Carlo of the density prod m^(L f) / Gamma(L f + 1)
        plain = multiplicity_large_n(A5, 5.0)
        uniform = multiplicity_large_n(A5, 5.0, Distribution.uniform())
        assert max_dev(plain.distribution, uniform.distribution) < 1e-12
        base = Distribution.from_weights((1, 1, 1, 1, 1, 3))
        res = multiplicity_large_n(A5, 5.0, base)
        log_m = np.log(base.probs)
        mc, stderr = slice_mean_mc(
            A5, lambda pts: 5.0 * pts @ log_m - gammaln(5.0 * pts + 1.0).sum(axis=1),
            400_000, 6)
        assert np.all(np.abs(np.asarray(res.distribution.probs) - mc) <= 4 * stderr)

    @pytest.mark.parametrize("scale", ["10000", "1000000"])
    def test_large_scale_is_refused_at_once(self, scale, capsys):
        start = time.perf_counter()
        code = main(["eval", "--large-n", "--avg", "5", "--model", "multiplicity",
                     "--param", scale, "--throw", "old", "--format", "json"])
        assert time.perf_counter() - start < 5.0
        assert code == 3
        assert "--param large --n-over-param large" in capsys.readouterr().err

    def test_stop_at_the_cap_warns(self, monkeypatch):
        monkeypatch.setattr(multiplicity_model, "_MAX_SLICE_GRID", 120)
        with pytest.warns(BudgetExhausted):
            res = multiplicity_large_n(A5, 1.0)
        assert max(res.error_bound) > _SLICE_TOL

    def test_pairing_in_blocks_bounds_memory(self, monkeypatch):
        # at a = 2, L = 2000 the lattice reaches 960 points per face; pairing
        # the whole faces 1-3 array at once traced about 140 MB, in blocks 55 MB
        avg = Average(Fraction(2))
        tracemalloc.start()
        try:
            blocks = multiplicity_large_n(avg, 2000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80e6
        monkeypatch.setattr(multiplicity_model, "_PAIR_BLOCK", 1 << 40)
        whole = multiplicity_large_n(avg, 2000.0)
        assert max_dev(blocks.distribution, whole.distribution) <= 1e-15
        assert np.all(np.abs(np.asarray(blocks.error_bound)
                             - np.asarray(whole.error_bound)) <= 1e-15)


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


class TestPosteriorRoutes:
    """Each route of `posterior()` returns exactly what the function it routes to
    returns when called directly."""

    @staticmethod
    def assert_same(routed, direct):
        assert routed.distribution == direct.distribution
        assert routed.method == direct.method
        assert routed.mc_stderr == direct.mc_stderr
        assert routed.error_bound == direct.error_bound

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
            posterior(Query(Exact(6), A5, throw, Multiplicity(5.0))),
            multiplicity_posterior(6, A5, 5.0, throw, method="deterministic"))

    def test_finite_n_base_weighted(self):
        self.assert_same(posterior(Query(Exact(6), A5, NEW, Johnson(2.0, BASE))),
                         generalized_johnson_posterior(6, A5, 2.0, BASE, NEW))
        self.assert_same(
            posterior(Query(Exact(6), A5, OLD, Multiplicity(5.0, BASE))),
            generalized_multiplicity_posterior(6, A5, 5.0, BASE, OLD, method="deterministic"))

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
        for throw in (OLD, NEW):
            self.assert_same(posterior(Query(LargeN(), A5, throw, Johnson(5.0))),
                             johnson_large_n(A5, 5.0))
            self.assert_same(posterior(Query(LargeN(), A5, throw, Multiplicity(5.0, BASE))),
                             multiplicity_large_n(A5, 5.0, BASE))

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
