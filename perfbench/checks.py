"""Expected values computed apart from the program, and the checks that use them.

Nothing here imports dicebayes. Each check returns None when the output is
right and a one-line reason when it is not.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

FACES = np.arange(1, 7, dtype=float)

# Tolerances in percent points, fixed by the benchmark, not read from the program.
TOL_CLOSED_PP = 0.05       # closed-form and analytic-limit cells
TOL_FAST_PP = 0.5          # Monte Carlo and quadrature cells at the --fast budget
TOL_MISPRINT_PP = 0.6      # the printed n2-a5 multiplicity L=1 old cell is a misprint
MISPRINT = ("n2-a5", "multiplicity", "1", "old")
TOL_FAULT_PP = 0.3         # large-L finite-N multiplicity against its fair limit
TOL_EXACT = 1e-9           # exact-model probabilities against the DPs below
TOL_MEAN = 1e-6            # mean pips of an old-throw or slice posterior against a
TOL_FORM = 1e-7            # second differences in the maxent optimality forms

UNIFORM = (1.0 / 6.0,) * 6


# --- exact models -----------------------------------------------------------

@lru_cache(maxsize=None)
def sequence_counts(n: int) -> Tuple[int, ...]:
    """Number of ordered n-throw sequences with pip sum t, indexed by t (exact)."""
    if n == 0:
        return (1,)
    prev = sequence_counts(n - 1)
    out = [0] * (6 * n + 1)
    for t, ways in enumerate(prev):
        if ways:
            for v in range(1, 7):
                out[t + v] += ways
    return tuple(out)


def fair_expected(n: int, s: int, throw: str) -> Tuple[float, ...]:
    """Fair die: P(an old throw shows i | sum s) = #(n-1 throws sum s-i) / #(n throws sum s)."""
    if throw == "new":
        return UNIFORM
    total = sequence_counts(n)[s]
    rest = sequence_counts(n - 1)
    return tuple(float(Fraction(rest[s - i] if 0 <= s - i < len(rest) else 0, total))
                 for i in range(1, 7))


def _face_series(k: float, n: int, weighted: bool) -> np.ndarray:
    """Coefficients Gamma(c+k) / (Gamma(k) c!) of (1 - x)^(-k), times c if weighted."""
    g = np.empty(n + 1)
    g[0] = 1.0
    for c in range(1, n + 1):
        g[c] = g[c - 1] * (k + c - 1) / c
    return g * np.arange(n + 1) if weighted else g


def _count_sum_coefficient(n: int, s: int, pseudo: Sequence[float],
                           weighted_face: int) -> float:
    """[x^n y^s] of prod_l (1 - x y^l)^(-k_l), the series of face `weighted_face`
    multiplied by its count: a DP over (throw count, pip sum)."""
    table = np.zeros((n + 1, 6 * n + 1))
    table[0, 0] = 1.0
    for face, k in enumerate(pseudo, 1):
        g = _face_series(k, n, face == weighted_face)
        out = np.zeros_like(table)
        for c in range(n + 1):
            shift = face * c
            if shift >= table.shape[1]:
                break
            if g[c]:
                out[c:, shift:] += g[c] * table[:n + 1 - c, :table.shape[1] - shift]
        table = out
    return float(table[n, s])


def johnson_expected(n: int, s: int, pseudo: Sequence[float],
                     throw: str) -> Tuple[float, ...]:
    """Dirichlet (Johnson) model with per-face pseudo-counts, by generating functions.

    The weight of a frequency vector is prod Gamma(N_l + k_l) / N_l!, the
    coefficient of the generating function above; E[N_i] comes from weighting
    face i's series by its count.
    """
    numerators = [_count_sum_coefficient(n, s, pseudo, i) for i in range(1, 7)]
    z = sum(numerators) / n                    # sum_i N_i = n for every vector
    old = [num / (n * z) for num in numerators]
    if throw == "old":
        return tuple(old)
    k_total = sum(pseudo)
    return tuple((n * o + k) / (n + k_total) for o, k in zip(old, pseudo))


# --- checks -------------------------------------------------------------------

def _vec(probs) -> np.ndarray:
    return np.asarray(probs, dtype=float)


def is_distribution(probs) -> Optional[str]:
    p = _vec(probs)
    if p.shape != (6,) or not np.all(np.isfinite(p)) or np.any(p < 0.0):
        return f"not a probability vector: {probs}"
    if abs(p.sum() - 1.0) > 1e-9:
        return f"sums to {p.sum()!r}"
    return None


def close_to(probs, expected, tol_pp: float) -> Optional[str]:
    """Every face within tol_pp percent points (expected may be rounded prints)."""
    dev = float(np.max(np.abs(100.0 * _vec(probs) - 100.0 * _vec(expected))))
    if dev > tol_pp + 1e-9:
        return f"|dev| {dev:.3g} pp > {tol_pp:g} pp"
    return None


def mean_is(probs, a: Fraction) -> Optional[str]:
    m = float(FACES @ _vec(probs))
    if abs(m - float(a)) > TOL_MEAN:
        return f"mean {m!r} != {float(a)!r}"
    return None


def maxent_form(probs, a: Fraction, kind: str, base=None) -> Optional[str]:
    """Optimality form of the constrained maximizer, plus normalization and mean.

    shannon: ln f_i affine in i; min-kl: ln(f_i / m_i) affine in i;
    burg: 1 / f_i affine in i. At a = 1 or 6 the solution is the vertex.
    """
    p = _vec(probs)
    bad = is_distribution(p) or mean_is(p, a)
    if bad:
        return bad
    if a in (1, 6):
        return None if p[int(a) - 1] == 1.0 else f"expected the vertex at a={a}"
    if np.any(p <= 0.0):
        return f"zero probability in an interior solution: {probs}"
    if kind == "burg":
        g = 1.0 / p
        scale = float(g.max())
    else:
        g = np.log(p) - (np.log(_vec(base) / np.sum(base)) if kind == "min-kl" else 0.0)
        scale = 1.0
    second = np.abs(np.diff(g, 2)).max() / scale
    if second > TOL_FORM:
        return f"{kind} optimality form violated by {second:.2e}"
    return None


def mirrored(probs, mirror_probs, tol_pp: float) -> Optional[str]:
    """Slice posteriors at a and 7 - a are each other's faces reversed."""
    return close_to(probs, _vec(mirror_probs)[::-1], tol_pp)


# --- printed tables -------------------------------------------------------------

_PRINTED_UNIFORM = (16.7,) * 6


def _printed_cell(text: str):
    if text == "undefined":
        return None
    if text == "uniform-any-a":
        return _PRINTED_UNIFORM
    return tuple(float(x) for x in text.split(","))


def load_printed_tables(path: Path) -> Dict[str, List[tuple]]:
    """Printed percentages by problem id: rows of (model, param, old, new).

    Read from the transcription of the paper's tables that ships with the
    program's sources; the program's own loader is not used.
    """
    tables: Dict[str, List[tuple]] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        problem, model, param, old, _, _, new, _, _ = line.split("|")
        old_cell = _printed_cell(old)
        new_cell = old_cell if new == "same" else _printed_cell(new)
        tables.setdefault(problem, []).append(
            (model, None if param == "-" else param, old_cell, new_cell))
    return tables


def problem_shape(problem: str) -> Tuple[Optional[int], Fraction]:
    head, _, avg = problem.partition("-a")
    return (None if head == "large" else int(head[1:])), Fraction(avg)


def cell_tolerance(problem: str, model: str, param: Optional[str], throw: str) -> float:
    """Numeric cells are the multiplicity model at finite L and the large-N
    Johnson model at finite K; every other cell is closed-form or analytic."""
    n, _ = problem_shape(problem)
    numeric = param in ("1", "5", "50") and (model == "multiplicity" or n is None)
    if (problem, model, param, throw) == MISPRINT:
        return TOL_MISPRINT_PP
    return TOL_FAST_PP if numeric else TOL_CLOSED_PP


def table_cell_check(problem: str, model: str, param: Optional[str],
                     throw: str) -> Callable[[Sequence[float]], Optional[str]]:
    """The check of one table cell beyond its printed value."""
    n, a = problem_shape(problem)

    def exact(expected):
        return lambda probs: close_to(probs, expected, 100.0 * TOL_EXACT)

    def form(kind):
        return lambda probs: maxent_form(probs, a, kind)

    def mean(probs):
        return mean_is(probs, a)

    def nothing(probs):
        return None

    if model == "all-exchangeable":
        return nothing
    if model == "me":
        return form("shannon")
    if n is not None:
        s = int(a * n)
        if model == "fair" or param == "large":
            return exact(fair_expected(n, s, throw))
        if model == "johnson":
            return exact(johnson_expected(n, s, (float(param),) * 6, throw))
        return mean if throw == "old" else nothing
    if param in ("1", "5", "50"):
        return mean
    if model == "fair" or param == "large-ratio-small":
        return exact(UNIFORM) if throw == "new" else form("shannon")
    return form("burg" if model == "johnson" else "shannon")
