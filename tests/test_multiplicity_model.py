"""Multiplicity-model posteriors, large-N slice integrals, and the routing of
`posterior()`."""
import functools
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
                       LargeN, MaxEnt, Multiplicity, Query, NEW, OLD, fair_posterior,
                       generalized_johnson_posterior,
                       generalized_multiplicity_posterior, johnson_large_n,
                       johnson_posterior, maxent_burg, maxent_shannon, min_kl,
                       multiplicity_large_n, multiplicity_posterior, posterior)
from dicebayes.cli import main
from dicebayes.maxent import burg_tilt
from dicebayes.combinatorics import _constrained_counts
from dicebayes import engine, multiplicity_model, router
from dicebayes.core import JOHNSON_LIMIT, N_FACES
from dicebayes.multiplicity_model import (_LATTICE_TOL, _SLICE_TOL, _Lattice, _LatticeSum,
                                          _slice_lattice)
from dicebayes.reference import load_reference_tables
from dicebayes.simplex_integration import (_ROW_BLOCK, _finite_kernel, make_rng,
                                           sample_simplex_uniform)
from oracle import (bspline_slice_mean, mean_value, reversed_average, reversed_distribution,
                    slice_mean_mc)

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
        # the routed answer comes from the Johnson closed form at pseudo-counts
        # L / 6 (TestJohnsonStandIn), without a warning
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
        rev = multiplicity_posterior(2, reversed_average(A5), 1.0, OLD, budget=400_000)
        assert max_dev(fwd.distribution,
                       reversed_distribution(rev.distribution)) < 4 * max(fwd.mc_stderr) + 1e-4


# (n, a) of the paper's finite-N tables that some n throws realize
TABLE_DATA = [(n, a) for n in (1, 2, 6, 12) for a in ("6", "5", "7/2")
              if (n, a) != (1, "7/2")]


BASE = Distribution.from_weights((1, 2, 3, 4, 5, 6))
SKEWED = Distribution.from_weights((20, 1, 1, 1, 1, 1))


def lattice(n, a, scale, throw):
    return multiplicity_posterior(n, Average.parse(a), scale, throw, method="deterministic")


class TestLattice:
    @pytest.mark.parametrize("n, a", TABLE_DATA)
    def test_old_throw_mean_is_the_average(self, n, a):
        for scale in (1.0, 5.0, 50.0):
            res = lattice(n, a, scale, OLD)
            assert mean_value(res.distribution) == pytest.approx(float(Fraction(a)),
                                                                 rel=0, abs=1e-12)
            assert max(res.error_bound) <= _LATTICE_TOL

    @pytest.mark.parametrize("n, a", TABLE_DATA)
    def test_face_reversal(self, n, a):
        for throw in (OLD, NEW):
            fwd = lattice(n, a, 5.0, throw)
            rev = lattice(n, str(7 - Fraction(a)), 5.0, throw)
            assert max_dev(fwd.distribution, reversed_distribution(rev.distribution)) < 1e-12

    def test_error_falls_as_grid_squared(self):
        counts = _constrained_counts(6, 30)
        for throw in (OLD, NEW):
            lattice_sum = _LatticeSum(counts, 6, throw, True)
            p = [lattice_sum.probs(_Lattice(1.0, grid)) for grid in (500, 1000, 2000)]
            first, second = p[0] - p[1], p[1] - p[2]
            face = np.argmax(np.abs(second))
            assert 3 <= first[face] / second[face] <= 5

    def test_extrapolate_error_falls_as_grid_to_the_fourth(self):
        # the Richardson extrapolate removes the M^-2 term; what is left falls
        # as M^-4, which the second level of the bound rests on
        counts = _constrained_counts(6, 30)
        for throw in (OLD, NEW):
            lattice_sum = _LatticeSum(counts, 6, throw, True)
            p = [lattice_sum.probs(_Lattice(1.0, grid)) for grid in (64, 128, 256, 512)]
            r = [fine + (fine - coarse) / 3.0 for coarse, fine in zip(p, p[1:])]
            first, second = r[0] - r[1], r[1] - r[2]
            face = np.argmax(np.abs(second))
            assert 12 <= first[face] / second[face] <= 20

    @pytest.mark.parametrize("base, scale, n, a, throw", [
        (None, 1.0, 12, "5", NEW), (BASE, 1.0, 12, "5", OLD), (BASE, 1.0, 10, "23/10", OLD),
        (None, 50.0, 6, "7/2", NEW), (None, 50.0, 10, "23/10", OLD), (BASE, 50.0, 2, "5", NEW),
        (BASE, 50.0, 6, "5", OLD), (None, 1e3, 2, "5", OLD), (BASE, 1e3, 2, "5", OLD),
        (None, 1e6, 2, "5", NEW), (None, 1e6, 1, "5", OLD)])
    def test_error_bound_holds_against_a_finer_lattice(self, base, scale, n, a, throw,
                                                       monkeypatch):
        avg = Average.parse(a)

        def answer():
            if base is None:
                return multiplicity_posterior(n, avg, scale, throw, method="deterministic")
            return generalized_multiplicity_posterior(n, avg, scale, base, throw,
                                                      method="deterministic")

        grids = []                          # the grids each answer asks for
        real = multiplicity_model._lattice
        monkeypatch.setattr(multiplicity_model, "_lattice",
                            lambda *key: grids.append(key[1]) or real(*key))
        res = answer()
        # the reference: three grids from 16 times the first, stopped at its first bound
        first = grids[0]
        grids.clear()
        monkeypatch.setattr(multiplicity_model, "_MIN_GRID", 16 * first)
        monkeypatch.setattr(multiplicity_model, "_LATTICE_TOL", 1.0)
        finer = answer()
        assert grids == [16 * first, 32 * first, 64 * first]
        assert np.all(np.abs(np.asarray(res.distribution.probs)
                             - np.asarray(finer.distribution.probs))
                      <= np.asarray(res.error_bound))

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
        # the lattice refuses L = 1e12 before it allocates; posterior answers
        # it from the Johnson closed form (TestJohnsonStandIn), which refuses
        # what neither can size: a saddle point past the double range, or a
        # face wider than the pairing takes
        with pytest.raises(ValueError, match="--param large"):
            lattice(2, "5", 1e12, OLD)
        for argv, limit in [(["--n", "2", "--avg", "5", "--param", "1e308"], "--param large"),
                            (["--n", "2000", "--avg", "7/2", "--param", "1e12"], "--large-n")]:
            start = time.perf_counter()
            assert main(["eval", *argv, "--model", "multiplicity", "--throw", "old"]) == 3
            assert time.perf_counter() - start < 1.0
            assert limit in capsys.readouterr().err


class TestJohnsonStandIn:
    """Finite-N multiplicity at a large scale L: `posterior` answers from the
    Johnson closed form at pseudo-counts L m wherever its bound,
    0.2 (N / (L min m))^2 + 1e-14 per face, is within the lattice's target."""

    @staticmethod
    def refuse_the_lattice(monkeypatch):
        def refuse(*key):
            raise AssertionError(f"the lattice was asked for {key}")
        monkeypatch.setattr(multiplicity_model, "_lattice", refuse)

    @pytest.mark.parametrize("n, scale, pseudo", [
        (2, "1000000", 1e6 / 6),        # the query stream's large-L question
        (12, "3e9", 5e8)])              # past the lattice's largest grid
    def test_large_scale_takes_the_closed_form(self, n, scale, pseudo, monkeypatch, capsys):
        self.refuse_the_lattice(monkeypatch)
        assert main(["eval", "--n", str(n), "--avg", "5", "--model", "multiplicity",
                     "--param", scale, "--throw", "old", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == JOHNSON_LIMIT
        assert max(payload["error_bound"]) <= _LATTICE_TOL
        assert payload["probs"] == list(johnson_posterior(n, A5, pseudo, OLD).distribution)

    def test_base_is_the_generalized_closed_form(self, monkeypatch):
        self.refuse_the_lattice(monkeypatch)
        for throw in (OLD, NEW):
            res = posterior(Query(Exact(12), A5, throw, Multiplicity(1e6, BASE)))
            johnson = generalized_johnson_posterior(12, A5, 1e6, BASE, throw)
            assert res.distribution == johnson.distribution
            assert res.error_bound == (0.2 * (12 / (1e6 / 21)) ** 2 + 1e-14,) * N_FACES

    def test_table_cells_stay_on_the_lattice(self, monkeypatch, capsys):
        # the tables' L <= 50 would give bounds of 3e-3 and more
        asked, taken = [], []
        stand_in = router._multiplicity_as_johnson

        def spy(*args):
            res = stand_in(*args)
            (asked if res is None else taken).append(args)
            return res

        monkeypatch.setattr(router, "_multiplicity_as_johnson", spy)
        assert main(["reproduce", "--format", "json"]) == 0
        assert JOHNSON_LIMIT not in capsys.readouterr().out
        assert len(asked) == 66 and taken == []    # 33 rows, old and new throws

    @pytest.mark.parametrize("base", [None, BASE, SKEWED], ids=["none", "1..6", "20,1,..."])
    @pytest.mark.parametrize("n", [1, 2, 12, 30])
    def test_bound_holds_against_the_lattice(self, n, base, monkeypatch):
        # near the vertices, where the difference is largest, at every L of
        # the sweep: the target is lifted so that the route answers where its
        # bound is loose too
        monkeypatch.setattr(router, "_LATTICE_TOL", math.inf)
        for a in (Fraction(1), 1 + Fraction(1, n), 6 - Fraction(1, n), Fraction(6)):
            avg = Average(a)
            for scale in (1e3, 1e4, 1e6):
                for throw in (OLD, NEW):
                    res = posterior(Query(Exact(n), avg, throw, Multiplicity(scale, base)))
                    assert res.method == JOHNSON_LIMIT
                    ref = multiplicity_model._finite_posterior(n, avg, scale, base, throw,
                                                               0, 0, "deterministic")
                    gap = np.abs(np.subtract(res.distribution.probs, ref.distribution.probs))
                    assert np.all(gap <= np.add(res.error_bound, ref.error_bound))


class TestAgainstScipyGammaln:
    def test_table_cells_move_within_their_bounds(self, monkeypatch):
        # ln Gamma and ln c! come from the engine; with scipy's gammaln in their
        # place every lattice and slice cell of the tables moves by less than its
        # error bound
        questions = []
        for table in load_reference_tables().values():
            for row in table.rows:
                if row.model != "multiplicity" or row.param.startswith("large"):
                    continue
                if table.n is None:
                    questions.append((multiplicity_large_n, table.average, float(row.param)))
                elif row.old.probs is not None:
                    questions += [(multiplicity_posterior, table.n, table.average,
                                   float(row.param), throw, 0, 0, "deterministic")
                                  for throw in (OLD, NEW)]
        got = [call(*args) for call, *args in questions]
        # fresh caches, so that nothing computed before the patch is reused
        monkeypatch.setattr(multiplicity_model, "_LATTICE_CACHE", {})
        monkeypatch.setattr(multiplicity_model, "_slice_log_gamma", functools.lru_cache(
            multiplicity_model._slice_log_gamma.__wrapped__))
        monkeypatch.setattr(multiplicity_model, "_log_gamma", gammaln)
        monkeypatch.setattr(multiplicity_model, "_log_factorials",
                            lambda n: gammaln(np.arange(n + 1) + 1.0))
        want = [call(*args) for call, *args in questions]
        assert len(questions) == 3 * 3 + 11 * 3 * 2
        for res, ref in zip(got, want):
            # the large-N vertex at a = 6 is exact and has no bound
            bound = np.zeros(N_FACES) if res.error_bound is None else res.error_bound
            assert np.all(np.abs(np.subtract(res.distribution.probs, ref.distribution.probs))
                          <= bound)


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
        assert len(cache) == 9              # three L, each on grids 64, 128 and 256
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
        monkeypatch.setattr(multiplicity_model, "_MAX_GRID", 1000)   # stop at 64 ... 512
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

    @pytest.mark.parametrize("k", [1e4, 1e6])
    @pytest.mark.parametrize("a", [Fraction(5), Fraction(7, 2), Fraction(23, 10)])
    def test_base_johnson_large_concentration_approaches_weighted_burg(self, a, k):
        # the slice density prod f^(K m_v - 1) peaks at the maximizer of sum m_v ln f_v
        res = johnson_large_n(Average(a), k, BASE)
        assert max_dev(res.distribution, maxent_burg(Average(a), BASE).distribution) <= 1 / k

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
        rev = multiplicity_large_n(reversed_average(A5), 5.0)
        assert max_dev(fwd.distribution, reversed_distribution(rev.distribution)) < 5e-4


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

    @pytest.mark.parametrize("alpha", [(1, 2, 3, 4, 5, 6), (2, 2, 1, 1, 3, 5)])
    @pytest.mark.parametrize("a", ["5", "7/2", "23/10"])
    def test_base_weighted_matches_the_bspline_oracle(self, a, alpha):
        res = johnson_large_n(Average.parse(a), float(sum(alpha)),
                              Distribution.from_weights(alpha))
        exact = bspline_slice_mean(Average.parse(a), alpha)
        assert max_dev(res.distribution, [float(x) for x in exact]) <= 1e-10
        assert max(res.error_bound) <= 1e-10

    @pytest.mark.parametrize("face", [2, 3, 4, 5])
    def test_face_value_identity(self, face):
        # observed, not derived: at a = v the posterior of face v is
        # alpha_v / (A - 1), also for K < 1 and with a base; the other faces'
        # sum of 1.002 to 1.1 makes face v's integrand fall as t^-1.002 to t^-1.1
        rng = np.random.default_rng(face)
        for base in (None, Distribution.from_weights(rng.uniform(0.2, 1.0, 6))):
            m = np.ones(6) if base is None else np.asarray(base.probs)
            slow = tuple(rest / (m.sum() - m[face - 1]) for rest in (1.002, 1.02, 1.1))
            for k in (0.3, 0.5, 1.0, 5.0, 50.0, 1e3, 1e6) + slow:
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

    @pytest.mark.parametrize("k", [1e10, 1e14, 1e20])
    @pytest.mark.parametrize("a", ["5", "7/2", "23/10"])
    def test_large_concentration_is_burg_without_warning(self, a, k):
        # the slice density peaks at the Burg solution, within 1 / K of it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = johnson_large_n(Average.parse(a), k)
        burg = maxent_burg(Average.parse(a)).distribution
        assert max(res.error_bound) <= 1e-10
        assert all(abs(p - q) <= e + 1 / k
                   for p, q, e in zip(res.distribution, burg, res.error_bound))

    @pytest.mark.parametrize("base", [None, BASE])
    @pytest.mark.parametrize("a", ["5", "7/2", "23/10"])
    def test_concentration_near_overflow_is_burg(self, a, base):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = johnson_large_n(Average.parse(a), 1e300, base)
        assert all(0 <= e <= 1e-10 for e in res.error_bound)
        assert max_dev(res.distribution, maxent_burg(Average.parse(a), base).distribution) <= 1e-14
        with pytest.raises(ValueError, match="too large"):
            johnson_large_n(Average.parse(a), 1e308, base)

    @pytest.mark.parametrize("base", [None, BASE])
    @pytest.mark.parametrize("a", ["23/10", "51/10"])
    def test_small_concentration_is_continuous(self, a, base):
        # the integrands fall as t^-(1 + 6K) and nearly all of each integral is
        # in that tail; the posterior moves by O(K), so K = 1e-12 and 1e-13 agree
        # within their bounds
        res = [johnson_large_n(Average.parse(a), k, base) for k in (1e-12, 1e-13)]
        assert all(max(r.error_bound) <= 1e-10 for r in res)
        assert all(abs(p - q) <= e + f + 1e-11 for p, q, e, f in zip(
            res[0].distribution, res[1].distribution, res[0].error_bound, res[1].error_bound))

    def test_a_bound_that_is_not_finite_warns(self):
        # at K = 1e-300 the integrand falls as t^-(1 + 6e-300): the nodes stop
        # long before its tail does, and what they leave out overflows
        with pytest.warns(BudgetExhausted, match="inf"):
            res = johnson_large_n(A35, 1e-300)
        assert all(e == math.inf for e in res.error_bound)

    def test_matches_scipy_quad(self):
        # scipy's adaptive quad on each face, on the same real-form integrand;
        # the saddle tilt is shared, since every valid tilt gives the same integrals
        from scipy.integrate import quad

        rng = np.random.default_rng(20)
        checked = 0
        for _ in range(150):
            a = Fraction(int(rng.integers(21, 120)), 20)
            k = float(10 ** rng.uniform(math.log10(0.05), 6))
            base = (None if rng.random() < 0.4
                    else Distribution.from_weights(rng.uniform(0.1, 1.0, 6)))
            res = johnson_large_n(Average(a), k, base)
            if res.method != "deterministic-quad":
                continue                                     # a vertex
            alpha = k * (np.ones(6) if base is None else np.asarray(base.probs))
            c = np.arange(1.0, 7.0) - float(a)
            tilt = 1.0 + burg_tilt(float(a), alpha / alpha.sum()) * c
            ct = c / tilt / math.sqrt(alpha @ (c / tilt) ** 2)
            terms = list(zip(alpha.tolist(), ct.tolist()))

            def integrand(t, ci):
                log_mag = arg = 0.0
                for w, cv in terms:
                    log_mag += w * math.log1p((t * cv) ** 2)
                    arg += w * math.atan(t * cv)
                return (math.exp(-0.5 * (log_mag + math.log1p((t * ci) ** 2)))
                        * math.cos(arg + math.atan(t * ci)))

            num = alpha / tilt * [quad(integrand, 0.0, math.inf, args=(ci,), epsabs=0.0,
                                       epsrel=1e-12, limit=200, full_output=1)[0]
                                  for ci in ct.tolist()]
            dev = np.abs(np.asarray(res.distribution.probs) - num / num.sum())
            assert np.all(dev <= np.maximum(1e-12, res.error_bound)), (a, k, base)
            checked += 1
        assert checked >= 140

    @pytest.mark.parametrize("k", [1, 5])
    def test_slice_lattice_with_johnson_weights(self, k):
        # the multiplicity engine fed f^(K-1) lies within its own bound of the oracle
        for a in ("5", "7/2"):
            def log_weights(p):
                with np.errstate(divide="ignore"):
                    return np.tile((k - 1) * np.log(p) if k > 1 else np.zeros_like(p),
                                   (N_FACES, 1))

            probs, bound = _slice_lattice(Average.parse(a), log_weights, 1.0)
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
        monkeypatch.setattr(engine, "_PAIR_BLOCK", 1 << 40)
        whole = multiplicity_large_n(avg, 2000.0)
        assert max_dev(blocks.distribution, whole.distribution) <= 1e-15
        assert np.all(np.abs(np.asarray(blocks.error_bound)
                             - np.asarray(whole.error_bound)) <= 1e-15)


class TestSliceRoots:
    """The max-ent root that tilts a slice depends on the average and the base
    alone: a process solves it once, and keeping it moves no bit."""

    AVERAGES = [Average(Fraction(t)) for t in ("5", "7/2", "23/10", "47/10")]

    def slices(self):
        return [large_n(a, param) for a in self.AVERAGES
                for large_n in (johnson_large_n, multiplicity_large_n) for param in (1.0, 5.0)]

    def test_each_root_is_solved_once(self, monkeypatch):
        solved = []
        monkeypatch.setattr(multiplicity_model, "min_kl",
                            lambda a, base: solved.append(a) or min_kl(a, base))
        monkeypatch.setattr(multiplicity_model, "burg_tilt",
                            lambda a, weights: solved.append(a) or burg_tilt(a, weights))
        for name in ("_burg_root", "_least_divergence"):       # empty, as in a new process
            monkeypatch.setattr(multiplicity_model, name, functools.lru_cache(
                getattr(multiplicity_model, name).__wrapped__))
        kept = self.slices()
        assert len(solved) == 8 and len(set(solved)) == 8
        for name in ("_burg_root", "_least_divergence"):
            monkeypatch.setattr(multiplicity_model, name,
                                getattr(multiplicity_model, name).__wrapped__)
        solved.clear()
        fresh = self.slices()
        assert len(solved) == 16
        for k, f in zip(kept, fresh):
            assert k.distribution == f.distribution and k.error_bound == f.error_bound


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

    def test_n_dominating_base_johnson_is_weighted_burg(self):
        base = Distribution.from_weights((1, 1, 2, 2, 3, 3))
        for throw in (OLD, NEW):
            res = posterior(Query(LargeN(True), A5, throw, Johnson(math.inf, base)))
            assert res.distribution == maxent_burg(A5, base).distribution


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
        assert mult.distribution == maxent_shannon(A5).distribution

    @pytest.mark.parametrize("a", [A5, A35, Average(Fraction(13, 4))])
    @pytest.mark.parametrize("throw", [OLD, NEW])
    def test_maxent_models(self, a, throw):
        for model, direct in ((MaxEnt("shannon"), maxent_shannon(a)),
                              (MaxEnt("shannon", BASE), min_kl(a, BASE)),
                              (MaxEnt("burg"), maxent_burg(a)),
                              (MaxEnt("burg", BASE), maxent_burg(a, BASE))):
            for regime in (LargeN(), LargeN(False), LargeN(True)):
                res = posterior(Query(regime, a, throw, model))
                assert res.distribution == direct.distribution
                assert res.method == "analytic-limit"

    @pytest.mark.parametrize("n", [0, 1, 12])
    def test_maxent_models_are_large_n_only(self, n):
        for model in (MaxEnt("shannon"), MaxEnt("burg", BASE)):
            with pytest.raises(ValueError, match="large-N"):
                posterior(Query(Exact(n), A5, OLD, model))

    def test_maxent_model_checks_its_arguments(self):
        with pytest.raises(ValueError, match="shannon"):
            MaxEnt("renyi")
        with pytest.raises(ValueError, match="positive"):
            MaxEnt("burg", Distribution.vertex(6))
        # the large-N slices refuse such a base too, also where a vertex would answer
        zero = Distribution((0, .2, .2, .2, .2, .2))
        for call in (lambda: johnson_large_n(A5, 5.0, zero),
                     lambda: multiplicity_large_n(Average(6), 5.0, zero)):
            with pytest.raises(ValueError, match="strictly positive"):
                call()

    @pytest.mark.parametrize("a", [A5, A35])
    def test_without_a_base_every_shannon_limit_is_one_distribution(self, a):
        # fair throwing, a parameter dominating N and N dominating L are all
        # Shannon's maximizer, the uniform distribution itself at 7/2
        shannon = maxent_shannon(a).distribution
        for regime, model in ((LargeN(), FairThrow()), (LargeN(False), Johnson(math.inf)),
                              (LargeN(False), Multiplicity(math.inf)),
                              (LargeN(True), Multiplicity(math.inf))):
            assert posterior(Query(regime, a, OLD, model)).distribution == shannon
        if a == A35:
            assert shannon == Distribution.uniform()

    @pytest.mark.parametrize("regime", [Exact(3), LargeN(False), LargeN(True)],
                             ids=["n3", "param-dominates", "n-dominates"])
    @pytest.mark.parametrize("model", [Johnson, Multiplicity])
    @pytest.mark.parametrize("throw", [OLD, NEW])
    def test_parameter_large_keeps_the_base(self, regime, model, throw):
        routed = posterior(Query(regime, A5, throw, model(math.inf, BASE))).distribution
        if isinstance(regime, Exact):
            direct = fair_posterior(3, A5, throw, BASE).distribution
        elif regime.n_over_param_large and model is Johnson:
            direct = maxent_burg(A5, BASE).distribution
        elif regime.n_over_param_large or throw == OLD:
            direct = min_kl(A5, BASE).distribution
        else:
            direct = BASE
        assert routed == direct
        assert routed != posterior(Query(regime, A5, throw, model(math.inf))).distribution

    @pytest.mark.parametrize("model", [Johnson(math.inf), Multiplicity(math.inf)])
    def test_large_n_ratio_missing_is_an_error(self, model):
        with pytest.raises(ValueError):
            posterior(Query(LargeN(), A5, NEW, model))
