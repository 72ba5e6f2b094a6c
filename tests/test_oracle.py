"""Self-consistency of the exact-rational test oracles."""
from fractions import Fraction

import pytest

from dicebayes import Average, ContradictoryData, NEW, OLD
from oracle import (brute_force_fair, brute_force_fair_literal, bspline_slice_mean,
                    build_constraint_polytope, exact_johnson, sequence_census)


class TestSequenceCensus:
    def test_totals_are_powers_of_six(self):
        for n in range(1, 8):
            assert sequence_census(n).total() == 6 ** n

    def test_first_face_counts_sum_to_sum_counts(self):
        census = sequence_census(5)
        for s, total in census.sum_counts.items():
            assert sum(census.first_face[s]) == total

    def test_four_throws_sum_fourteen(self):
        census = sequence_census(4)
        assert census.sum_counts[14] == 146
        assert census.first_face[14][0] == 21  # face 1
        assert census.first_face[14][2] == 27  # face 3


class TestFairOracles:
    def test_dp_and_literal_agree_everywhere(self):
        for n in range(1, 6):
            for s in range(n, 6 * n + 1):
                a = Average(Fraction(s, n))
                for throw in (OLD, NEW):
                    assert brute_force_fair(n, a, throw) == \
                        brute_force_fair_literal(n, a, throw)

    def test_contradictory(self):
        with pytest.raises(ContradictoryData):
            brute_force_fair(1, Average(Fraction(7, 2)), OLD)

    def test_probabilities_are_exact_rationals(self):
        probs = brute_force_fair(4, Average(Fraction(14, 4)), OLD)
        assert sum(probs) == 1
        assert probs[0] == Fraction(21, 146)
        assert probs[2] == Fraction(27, 146)


class TestJohnsonOracle:
    def test_rows_sum_to_one(self):
        for k in (1, 5, 50):
            for throw in (OLD, NEW):
                probs = exact_johnson(6, Average(Fraction(5)), k, throw)
                assert sum(probs) == 1

    def test_single_throw_new_counts(self):
        probs = exact_johnson(1, Average(Fraction(6)), 1, NEW)
        assert probs == tuple([Fraction(1, 7)] * 5 + [Fraction(2, 7)])

    def test_non_integer_concentration_rejected(self):
        with pytest.raises(ValueError):
            exact_johnson(2, Average(Fraction(5)), 1.5, OLD)


class TestBsplineSliceMean:
    @pytest.mark.parametrize("a", ["2", "7/2", "23/10", "5"])
    def test_a_distribution_with_mean_a(self, a):
        avg = Average.parse(a)
        probs = bspline_slice_mean(avg, (1, 2, 3, 1, 2, 4))
        assert sum(probs) == 1 and all(p > 0 for p in probs)
        assert sum(v * p for v, p in enumerate(probs, 1)) == avg.value

    def test_flat_slice_is_the_polytope_centroid(self):
        # K = 1 makes the slice density constant: its mean is the volume-weighted
        # mean of the triangulation's simplex centroids
        avg = Average(Fraction(4))
        poly = build_constraint_polytope(avg)
        verts = poly.vertex_array()
        centroid = sum(frac * verts[list(simplex)].mean(axis=0)
                       for frac, simplex in zip(poly.relative_volumes, poly.simplices))
        exact = bspline_slice_mean(avg, (1,) * 6)
        assert max(abs(float(x) - c) for x, c in zip(exact, centroid)) < 1e-12

    def test_non_integer_concentration_rejected(self):
        with pytest.raises(ValueError):
            bspline_slice_mean(Average(Fraction(5)), (1, 1, 1, 1, 1, 0.5))
