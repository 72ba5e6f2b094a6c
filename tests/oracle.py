"""Independent brute-force and exact-rational oracles for the tests.

The posterior oracles return tuples of `fractions.Fraction` so that no
floating point enters until the final comparison against the production code
paths; the counting oracles return exact integers. The frequency vectors are
listed here too, with a floating-point posterior taken over them. Two
independent fair-throw oracles are provided (a dynamic program over throws,
and a literal loop over all 6^N sequences) to guard against a shared bug. For the large-N
slices there is an exact B-spline oracle of the Johnson model and a Monte
Carlo sampler of the triangulated slice for any density; the Monte Carlo
ratio estimator over the whole simplex is here too, and so are the Burg
entropy and the divergence that the maxent optimality certificates compare,
and the relabelling of faces v -> 7 - v that the symmetry tests use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, Tuple, Union

import numpy as np

from dicebayes import Average, ContradictoryData, Distribution, NEW, OLD
from dicebayes.combinatorics import _constrained_counts
from dicebayes.core import FACE_VALUES, N_FACES
from dicebayes.simplex_integration import (DEFAULT_SEED, _MC_BATCH, _MCAccumulator,
                                           make_rng, sample_simplex_uniform)

_UNIFORM = (Fraction(1, 6),) * N_FACES


@dataclass(frozen=True)
class SequenceCensus:
    """Counts of ordered outcome sequences of n throws, broken down by pip sum
    and by the face shown on the first throw."""

    n: int
    sum_counts: Dict[int, int]
    first_face: Dict[int, Tuple[int, ...]]

    def total(self) -> int:
        return sum(self.sum_counts.values())


def sequence_census(n: int) -> SequenceCensus:
    """Exhaustive census by dynamic programming over the remaining throws."""
    if n < 1:
        raise ValueError("need at least one throw")
    # rest[t] = number of (n-1)-throw sequences with pip sum t
    rest = {0: 1}
    for _ in range(n - 1):
        new: Dict[int, int] = {}
        for t, w in rest.items():
            for v in range(1, 7):
                new[t + v] = new.get(t + v, 0) + w
        rest = new
    first_face = {}
    sum_counts = {}
    for s in range(n, 6 * n + 1):
        faces = tuple(rest.get(s - f, 0) for f in range(1, 7))
        total = sum(faces)
        if total:
            first_face[s] = faces
            sum_counts[s] = total
    return SequenceCensus(n, sum_counts, first_face)


def _target_sum(n: int, a: Average) -> int:
    s = a.value * n
    if s.denominator != 1:
        raise ContradictoryData(f"average {a} is unreachable in {n} throws")
    return s.numerator


@dataclass(frozen=True)
class FrequencyVector:
    """Occupation counts of the six faces over N throws."""

    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != N_FACES:
            raise ValueError("need exactly 6 counts")
        if any(c < 0 for c in counts):
            raise ValueError(f"negative count in {counts}")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def pip_sum(self) -> int:
        return sum(v * c for v, c in zip(FACE_VALUES, self.counts))

    def reversed(self) -> "FrequencyVector":
        return FrequencyVector(self.counts[::-1])

    def __iter__(self):
        return iter(self.counts)

    def __getitem__(self, i):
        return self.counts[i]


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """All frequency vectors with the given total whose pip sum equals target_sum.

    `counts` holds them as a (members, 6) int64 array, one row per vector in
    lexicographic order; iterating yields FrequencyVectors.
    """

    n: int
    target_sum: int
    counts: np.ndarray

    def __len__(self) -> int:
        return self.counts.shape[0]

    def __iter__(self):
        return (FrequencyVector(tuple(row)) for row in self.counts.tolist())

    def is_empty(self) -> bool:
        return len(self) == 0


def enumerate_constrained_frequencies(n: int, a: Average) -> ConstraintSet:
    """Frequency vectors of n throws with average a, in lexicographic count order.

    Returns an empty set (target_sum -1) when a*n is not an integer in [n, 6n].
    """
    try:
        s = _target_sum(n, a)
    except ContradictoryData:
        s = -1
    if not n <= s <= 6 * n:
        return ConstraintSet(n, -1, np.zeros((0, N_FACES), dtype=np.int64))
    return ConstraintSet(n, s, _constrained_counts(n, s))


def brute_force_fair(n: int, a: Average, throw: str) -> Tuple[Fraction, ...]:
    """Fair-throw posterior by exhaustive sequence counting (exact rationals)."""
    if n > 8:
        raise ValueError("brute force is limited to n <= 8")
    s = _target_sum(n, a)
    census = sequence_census(n)
    if s not in census.sum_counts:
        raise ContradictoryData(f"no sequence of {n} throws sums to {s}")
    if throw == NEW:
        return _UNIFORM
    total = census.sum_counts[s]
    return tuple(Fraction(c, total) for c in census.first_face[s])


def brute_force_fair_literal(n: int, a: Average, throw: str) -> Tuple[Fraction, ...]:
    """Same as brute_force_fair via a literal loop over all 6^n sequences."""
    if n > 6:
        raise ValueError("the literal loop is limited to n <= 6")
    s = _target_sum(n, a)
    faces = [0] * N_FACES
    total = 0
    for seq in product(range(1, 7), repeat=n):
        if sum(seq) == s:
            total += 1
            faces[seq[0] - 1] += 1
    if total == 0:
        raise ContradictoryData(f"no sequence of {n} throws sums to {s}")
    if throw == NEW:
        return _UNIFORM
    return tuple(Fraction(c, total) for c in faces)


def _rising_factorial(k: int, c: int) -> int:
    """k (k+1) ... (k+c-1), the exact weight ratio Gamma(c+k)/Gamma(k)."""
    out = 1
    for j in range(c):
        out *= k + j
    return out


def exact_johnson(n: int, a: Average, k: int, throw: str) -> Tuple[Fraction, ...]:
    """Johnson-model posterior with integer concentration, in exact rationals.

    Member weights are prod_l Gamma(N_l + k) / N_l!, evaluated as exact
    integers via rising factorials (the Gamma(k)^6 factor cancels).
    """
    if not (isinstance(k, int) and k > 0):
        raise ValueError("the exact oracle needs a positive integer concentration")
    cs = enumerate_constrained_frequencies(n, a)
    if cs.is_empty():
        raise ContradictoryData(f"no frequency vector realizes average {a} over {n} throws")

    num = [Fraction(0)] * N_FACES
    den = Fraction(0)
    for nv in cs:
        w = Fraction(1)
        for c in nv:
            w *= Fraction(_rising_factorial(k, c), math.factorial(c))
        den += w
        for i, c in enumerate(nv):
            if throw == OLD:
                num[i] += w * Fraction(c, n)
            else:
                num[i] += w * Fraction(c + k, n + 6 * k)
    return tuple(x / den for x in num)


def enumerated_posterior(n: int, a: Average, throw: str, pseudo=None) -> np.ndarray:
    """Fair-throw (pseudo None) or Johnson posterior in floating point, as the
    weighted mean over every listed frequency vector.

    The weights are prod 1/c! or prod (pseudo_v)_c / c!, gathered per vector
    and face from a table over c = 0..n and combined in log domain.
    """
    counts = enumerate_constrained_frequencies(n, a).counts
    if not len(counts):
        raise ContradictoryData(f"no frequency vector realizes average {a} over {n} throws")
    if pseudo is None:
        table = -np.array([math.lgamma(c + 1.0) for c in range(n + 1)])[:, None]
        table = np.repeat(table, N_FACES, axis=1)
    else:
        pseudo = np.asarray(pseudo, dtype=float)
        j = np.arange(n)[:, None]
        table = np.concatenate([np.zeros((1, N_FACES)),
                                np.cumsum(np.log(pseudo + j) - np.log1p(j), axis=0)])
    lw = table[counts, np.arange(N_FACES)].sum(axis=1)
    w = np.exp(lw - lw.max())
    if throw == OLD:
        probs = counts / n
    elif pseudo is None:
        probs = np.full(counts.shape, 1.0 / N_FACES)
    else:
        probs = (counts + pseudo) / (n + pseudo.sum())
    return w @ probs / w.sum()


def multinomial_exact(nv: FrequencyVector) -> int:
    """Integer multinomial coefficient N! / prod N_i!."""
    out = math.factorial(nv.total)
    for c in nv:
        out //= math.factorial(c)
    return out


def count_sequences(n: int, s: int) -> int:
    """Number of ordered n-tuples over {1..6} summing to s, by exact big-int DP."""
    if n < 1:
        raise ValueError("need at least one throw")
    if not n <= s <= 6 * n:
        return 0
    ways = [1]  # ways[t] = sequences of throws so far summing to t (offset by min sum)
    for throws in range(1, n + 1):
        new = [0] * (5 * throws + 1)
        for t, w in enumerate(ways):
            if w:
                for v in range(6):
                    new[t + v] += w
        ways = new
    idx = s - n
    return ways[idx] if 0 <= idx < len(ways) else 0


# --- large-N slices -----------------------------------------------------------

def _series_power(shift: Fraction, exponent: int, order: int) -> list:
    """Coefficients of w^0 .. w^(order-1) of (w + shift)^exponent, for any
    integer exponent (shift != 0 when the exponent is negative)."""
    out = []
    for j in range(order):
        if exponent >= 0:
            out.append(Fraction(math.comb(exponent, j)) * shift ** (exponent - j)
                       if j <= exponent else Fraction(0))
        else:
            m = -exponent
            out.append((-1) ** j * math.comb(m + j - 1, j) / shift ** (m + j))
    return out


def _spline_value(a: Fraction, alpha: Tuple[int, ...]) -> Fraction:
    """(A - 1) sum_{v > a} Res_{z=v} (z - a)^(A-2) / prod_u (z - u)^alpha_u,
    the Curry-Schoenberg B-spline with knot v of multiplicity alpha_v at a:
    the density at a of sum_v v f_v for f ~ Dirichlet(alpha), A = sum alpha."""
    total = sum(alpha)
    value = Fraction(0)
    for v in range(1, 7):
        k = alpha[v - 1]
        if v <= a or k == 0:
            continue
        # the residue is the coefficient of w^(k-1), w = z - v, of the other factors
        series = _series_power(v - a, total - 2, k)
        for u in range(1, 7):
            if u != v and alpha[u - 1]:
                factor = _series_power(Fraction(v - u), -alpha[u - 1], k)
                series = [sum(series[i] * factor[d - i] for i in range(d + 1))
                          for d in range(k)]
        value += series[k - 1]
    return (total - 1) * value


def bspline_slice_mean(a: Average, alpha: Tuple[int, ...]) -> Tuple[Fraction, ...]:
    """Exact mean of f ~ Dirichlet(alpha), integer alpha, on the slice sum v f_v = a.

    E[f_i | X = a] = (alpha_i / A) M_{alpha + e_i}(a) / M_alpha(a), with M the
    B-spline density of X = sum v f_v (Curry & Schoenberg 1966); the six
    numerators alpha_i M_{alpha + e_i}(a) sum to A M_alpha(a), so they are
    normalized by their own sum.
    """
    if not all(isinstance(k, int) and k > 0 for k in alpha):
        raise ValueError("the B-spline oracle needs positive integer concentrations")
    num = [alpha[i] * _spline_value(a.value, tuple(k + (j == i) for j, k in enumerate(alpha)))
           for i in range(N_FACES)]
    total = sum(num)
    return tuple(x / total for x in num)


@dataclass(frozen=True)
class ConstraintPolytope:
    """Slice of the simplex at a fixed average, triangulated for sampling."""

    average: Average
    vertices: tuple              # tuples of Fractions, each summing to 1
    simplices: tuple             # vertex-index 5-tuples
    relative_volumes: tuple      # one per simplex, summing to 1
    total_volume: float          # absolute 4-d volume in an orthonormal chart

    def vertex_array(self) -> np.ndarray:
        return np.asarray([[float(x) for x in v] for v in self.vertices])


def build_constraint_polytope(a: Average) -> ConstraintPolytope:
    """Vertices of the hyperplane slice v.f = a, with a Delaunay triangulation.

    Each vertex is the exact rational intersection of the hyperplane with an
    edge (i, j) of the simplex, or a simplex vertex whose value equals a.
    """
    from scipy.spatial import Delaunay

    av = a.value
    if av == 1 or av == 6:
        raise ValueError(f"the slice at average {a} is a single point")
    vertices = []
    for i in range(1, 7):
        if av == i:
            vertices.append(tuple(Fraction(int(k == i)) for k in range(1, 7)))
    for i, j in combinations(range(1, 7), 2):
        if i < av < j:
            fi = Fraction(j - av, j - i)
            fj = Fraction(av - i, j - i)
            vertices.append(tuple(fi if k == i else fj if k == j else Fraction(0)
                                  for k in range(1, 7)))
    vertices.sort()
    varr = np.asarray([[float(x) for x in v] for v in vertices])

    # orthonormal chart of the 4-d affine hull, then Delaunay (valid for any
    # convex polytope; equivalent to a fan when the polytope is a simplex)
    center = varr.mean(axis=0)
    _, _, vt = np.linalg.svd(varr - center)
    chart = (varr - center) @ vt[:4].T
    if len(vertices) == 5:
        simplices = [tuple(range(5))]
    else:
        simplices = sorted(tuple(sorted(s)) for s in Delaunay(chart).simplices)
    volumes = [abs(np.linalg.det(chart[list(s[1:])] - chart[s[0]])) / 24.0
               for s in simplices]
    total = float(sum(volumes))
    rel = tuple(v / total for v in volumes)
    return ConstraintPolytope(a, tuple(vertices), tuple(simplices), rel, total)


def sample_polytope_uniform(poly: ConstraintPolytope, rng: np.random.Generator,
                            count: int) -> np.ndarray:
    """Uniform points on the slice: pick a triangulation simplex by volume,
    then a barycentrically uniform point inside it."""
    varr = poly.vertex_array()
    idx = rng.choice(len(poly.simplices), size=count, p=np.asarray(poly.relative_volumes))
    bary = rng.standard_exponential((count, 5))
    bary /= bary.sum(axis=1, keepdims=True)
    simp = np.asarray(poly.simplices)[idx]          # (count, 5)
    return np.einsum("nk,nkd->nd", bary, varr[simp])


def _mc_run(sampler, fn, budget: int, seed: int) -> _MCAccumulator:
    """Accumulate `fn(points)` = (log-weights, per-face values) over `budget`
    points drawn by `sampler(rng, count)` from the streams of `seed`."""
    acc = _MCAccumulator(N_FACES)
    stream = 0
    remaining = int(budget)
    while remaining > 0:
        nb = min(_MC_BATCH, remaining)
        pts = sampler(make_rng(seed, stream), nb)
        logw, x = fn(pts)
        acc.add(np.asarray(logw, dtype=float), np.asarray(x, dtype=float))
        remaining -= nb
        stream += 1
    return acc


def posterior_mean_simplex(fn, budget: int = 2_000_000, seed: int = DEFAULT_SEED):
    """Monte Carlo ratio estimator int x_i w / int w over the simplex.

    `fn(points)` returns (log-weights (n,), per-face values (n, 6)); numerator
    and denominator share the same sample points. Returns (probs (6,),
    stderr (6,), evaluations).
    """
    acc = _mc_run(sample_simplex_uniform, fn, budget, seed)
    r, se, _ = acc.ratio()
    return r, se, acc.n


def slice_mean_mc(a: Average, log_density, budget: int, seed: int):
    """Monte Carlo mean of f over the slice, weighted by exp(log_density(f)),
    from points uniform on the triangulated slice. Returns (probs, stderr)."""
    poly = build_constraint_polytope(a)
    acc = _mc_run(lambda rng, count: sample_polytope_uniform(poly, rng, count),
                  lambda pts: (log_density(pts), pts), budget, seed)
    probs, stderr, _ = acc.ratio()
    return probs, stderr


# --- entropy certificates and face relabelling ----------------------------

class _Infinite:
    """Tagged infinity sentinel; deliberately not a float so callers must branch on it."""

    __slots__ = ("_sign",)

    def __init__(self, sign: int):
        self._sign = sign

    def __repr__(self) -> str:
        return "NEG_INFINITY" if self._sign < 0 else "POS_INFINITY"

    def __float__(self) -> float:
        return math.inf if self._sign > 0 else -math.inf

    @property
    def sign(self) -> int:
        return self._sign


NEG_INFINITY = _Infinite(-1)
POS_INFINITY = _Infinite(+1)

Entropy = Union[float, _Infinite]


def _as_probs(f) -> np.ndarray:
    return np.asarray(getattr(f, "probs", f), dtype=float)


def burg_entropy(f) -> Entropy:
    """sum_i ln f_i in nats; NEG_INFINITY if any entry vanishes."""
    p = _as_probs(f)
    if np.any(p == 0.0):
        return NEG_INFINITY
    return float(np.sum(np.log(p)))


def kl_divergence(m, f) -> Entropy:
    """sum m_i ln(m_i / f_i) with 0 ln(0/x) = 0; POS_INFINITY where f_i = 0 < m_i."""
    mm = _as_probs(m)
    ff = _as_probs(f)
    active = mm > 0.0
    if np.any(ff[active] == 0.0):
        return POS_INFINITY
    return float(np.sum(mm[active] * np.log(mm[active] / ff[active])))


def reversed_distribution(d: Distribution) -> Distribution:
    """Relabel faces v -> 7 - v."""
    return Distribution(d.probs[::-1])


def reversed_average(a: Average) -> Average:
    return Average(7 - a.value)


def mean_value(d: Distribution) -> float:
    """Expected number of pips."""
    return sum(v * p for v, p in zip(FACE_VALUES, d.probs))
