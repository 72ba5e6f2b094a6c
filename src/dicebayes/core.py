"""Shared domain types and entropy functionals for die-throw posterior inference."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

FACE_VALUES = (1, 2, 3, 4, 5, 6)
N_FACES = 6
NORMALIZATION_TOL = 1e-12
LN6 = math.log(6.0)


class ContradictoryData(Exception):
    """No outcome frequencies are compatible with the observed average."""


class BudgetExhausted(Warning):
    """A lattice or Fourier route stopped short of its error target."""


class DegenerateWeights(Warning):
    """Monte Carlo importance weights collapsed onto a few samples, so the
    estimate and its stderr cannot be trusted."""


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


@dataclass(frozen=True)
class Distribution:
    """Point on the 6-outcome probability simplex."""

    probs: tuple

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        if len(probs) != N_FACES:
            raise ValueError("a distribution needs exactly 6 probabilities")
        if not all(p >= 0.0 for p in probs):       # false for nan, unlike p < 0.0
            raise ValueError(f"negative or nan probability in {probs}")
        if abs(sum(probs) - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"probabilities sum to {sum(probs)!r}, not 1")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_weights(cls, weights) -> "Distribution":
        """Renormalize non-negative weights into a valid distribution."""
        w = [float(x) for x in weights]
        if not all(math.isfinite(x) for x in w):
            raise ValueError(f"weights must be finite, got {tuple(w)}")
        total = sum(w)
        if total == math.inf:
            # finite weights whose sum overflows: scale by the largest first
            top = max(w)
            w = [x / top for x in w]
            total = sum(w)
        if total <= 0.0:
            raise ValueError("weights must have a positive sum")
        return cls(tuple(x / total for x in w))

    @classmethod
    def uniform(cls) -> "Distribution":
        return cls((1 / 6,) * 6)

    @classmethod
    def vertex(cls, face: int) -> "Distribution":
        if face not in FACE_VALUES:
            raise ValueError(f"face must be 1..6, got {face}")
        return cls(tuple(1.0 if i + 1 == face else 0.0 for i in range(6)))

    def reversed(self) -> "Distribution":
        """Relabel faces i -> 7 - i."""
        return Distribution(self.probs[::-1])

    def mean_value(self) -> float:
        """Expected number of pips."""
        return sum(v * p for v, p in zip(FACE_VALUES, self.probs))

    def __iter__(self):
        return iter(self.probs)

    def __getitem__(self, i):
        return self.probs[i]


@dataclass(frozen=True)
class Average:
    """Observed average, kept as an exact rational so feasibility tests are exact."""

    value: Fraction

    def __post_init__(self):
        value = Fraction(self.value)
        if not 1 <= value <= 6:
            raise ValueError(f"average must lie in [1, 6], got {value}")
        object.__setattr__(self, "value", value)

    @classmethod
    def parse(cls, text: str) -> "Average":
        """Accept both '7/2' and '3.5'."""
        return cls(Fraction(str(text)))

    def reversed(self) -> "Average":
        return Average(7 - self.value)

    def __float__(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        v = self.value
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"


# --- model specifications -------------------------------------------------

@dataclass(frozen=True)
class FairThrow:
    """The i.i.d.-uniform exchangeable model."""


@dataclass(frozen=True)
class Johnson:
    """Symmetric (or generalized, when m is given) Dirichlet exchangeable model.

    concentration may be math.inf to mark the 'parameter large' regime.
    """

    concentration: float
    base: Optional[Distribution] = None

    def __post_init__(self):
        if not self.concentration > 0:
            raise ValueError("Johnson concentration must be > 0")
        _check_base(self.base)


@dataclass(frozen=True)
class Multiplicity:
    """Exchangeable model whose density is the multinomial multiplicity factor.

    scale may be math.inf to mark the 'parameter large' regime.
    """

    scale: float
    base: Optional[Distribution] = None

    def __post_init__(self):
        if not self.scale >= 1:
            raise ValueError("multiplicity scale must be >= 1")
        _check_base(self.base)


def _check_base(base: Optional[Distribution]):
    if base is not None and any(p <= 0 for p in base):
        raise ValueError("base distribution must have strictly positive entries")


ModelSpec = Union[FairThrow, Johnson, Multiplicity]


# --- queries --------------------------------------------------------------

@dataclass(frozen=True)
class Exact:
    """Finite number of old throws.

    The model functions refuse fewer than one throw themselves, except the
    base-weighted Johnson model, whose new throw at n = 0 is the base.
    """

    n: int


@dataclass(frozen=True)
class LargeN:
    """Asymptotic regime; n_over_param_large disambiguates 'parameter large' rows."""

    n_over_param_large: Optional[bool] = None


OLD = "old"
NEW = "new"


@dataclass(frozen=True)
class Query:
    regime: Union[Exact, LargeN]
    average: Average
    throw: str
    model: ModelSpec

    def __post_init__(self):
        if self.throw not in (OLD, NEW):
            raise ValueError(f"throw must be {OLD!r} or {NEW!r}")


# --- results --------------------------------------------------------------

CLOSED_FORM = "closed-form"
MONTE_CARLO = "monte-carlo"
DETERMINISTIC_QUAD = "deterministic-quad"
ANALYTIC_LIMIT = "analytic-limit"

_METHODS = (CLOSED_FORM, MONTE_CARLO, DETERMINISTIC_QUAD, ANALYTIC_LIMIT)


@dataclass(frozen=True)
class PosteriorResult:
    distribution: Distribution
    entropy_nats: float
    method: str
    mc_stderr: Optional[tuple] = None
    error_bound: Optional[tuple] = None     # per face, absolute, deterministic routes

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if abs(self.entropy_nats - shannon_entropy(self.distribution)) > 1e-12:
            raise ValueError("entropy_nats inconsistent with distribution")
        if self.mc_stderr is not None:
            object.__setattr__(self, "mc_stderr", tuple(float(s) for s in self.mc_stderr))
        if self.error_bound is not None:
            object.__setattr__(self, "error_bound",
                               tuple(float(e) for e in self.error_bound))

    @classmethod
    def from_distribution(cls, dist: Distribution, method: str, mc_stderr=None,
                          error_bound=None) -> "PosteriorResult":
        return cls(dist, shannon_entropy(dist), method, mc_stderr, error_bound)


# --- entropy / divergence functionals ------------------------------------

def _as_probs(f) -> np.ndarray:
    return np.asarray(getattr(f, "probs", f), dtype=float)


def shannon_entropy(f) -> float:
    """-sum f_i ln f_i in nats, with the 0 ln 0 = 0 convention."""
    p = _as_probs(f)
    nz = p > 0.0
    # a vertex sums to -0.0, and -0.0 + 0.0 is 0.0
    return float(-np.sum(p[nz] * np.log(p[nz]))) + 0.0


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
