"""Domain types: distributions, averages, frequency vectors, entropies."""
import math
from fractions import Fraction

import pytest

from dicebayes import (Average, Distribution, burg_entropy, kl_divergence,
                       shannon_entropy, NEG_INFINITY, POS_INFINITY)
from oracle import FrequencyVector


class TestDistribution:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Distribution((0.5, 0.5, 0.5, 0, 0, 0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # every comparison with nan is false: nan passes a test for p < 0
        with pytest.raises(ValueError):
            Distribution((bad,) * 6)
        with pytest.raises(ValueError):
            Distribution((bad, 1.0, 0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            Distribution((bad, 0.5, 0.5, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="weights must be finite"):
            Distribution.from_weights((bad, 1, 1, 1, 1, 1))

    def test_from_weights(self):
        d = Distribution.from_weights((1, 1, 2, 0, 0, 0))
        assert d.probs == (0.25, 0.25, 0.5, 0.0, 0.0, 0.0)

    def test_from_weights_whose_sum_overflows(self):
        assert Distribution.from_weights((1e308,) * 6) == Distribution.from_weights((1,) * 6)
        d = Distribution.from_weights((1.5e308, 1.5e308, 0, 0, 0, 0))
        assert d.probs == (0.5, 0.5, 0.0, 0.0, 0.0, 0.0)

    def test_vertex_and_mean(self):
        assert Distribution.vertex(4).mean_value() == 4.0
        assert Distribution.uniform().mean_value() == pytest.approx(3.5)

    def test_reversed(self):
        d = Distribution.from_weights((1, 2, 3, 4, 5, 6))
        assert d.reversed().probs == d.probs[::-1]


class TestAverage:
    def test_parse_forms(self):
        assert Average.parse("7/2").value == Fraction(7, 2)
        assert Average.parse("3.5").value == Fraction(7, 2)
        assert Average.parse("5").value == Fraction(5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Average(Fraction(13, 2))
        with pytest.raises(ValueError):
            Average(Fraction(1, 2))

    def test_reversed(self):
        assert Average.parse("5").reversed().value == Fraction(2)


class TestFrequencyVector:
    def test_totals(self):
        nv = FrequencyVector((1, 0, 2, 0, 0, 1))
        assert nv.total == 4
        assert nv.pip_sum() == 1 + 3 + 3 + 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FrequencyVector((1, -1, 0, 0, 0, 0))


class TestEntropies:
    def test_shannon_anchors(self):
        assert shannon_entropy((1, 0, 0, 0, 0, 0)) == 0.0
        # a vertex sums to -0.0, which formats as -0.000
        assert math.copysign(1.0, shannon_entropy((0, 0, 0, 0, 0, 1))) == 1.0
        assert shannon_entropy((1 / 6,) * 6) == pytest.approx(math.log(6), rel=1e-12)

    def test_burg_anchors(self):
        assert burg_entropy((1 / 6,) * 6) == pytest.approx(-6 * math.log(6), rel=1e-12)
        assert burg_entropy((1, 0, 0, 0, 0, 0)) is NEG_INFINITY

    def test_kl_anchors(self):
        u = (1 / 6,) * 6
        assert kl_divergence(u, u) == pytest.approx(0.0, abs=1e-15)
        assert kl_divergence(u, (1, 0, 0, 0, 0, 0)) is POS_INFINITY
        assert kl_divergence((1, 0, 0, 0, 0, 0), u) == pytest.approx(math.log(6))

    def test_infinities_convert_to_floats(self):
        assert float(NEG_INFINITY) == -math.inf
        assert float(POS_INFINITY) == math.inf
