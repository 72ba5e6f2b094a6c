"""Spans around the public functions of every dicebayes module, patched in from
outside the program, and the per-layer metrics derived from them.

A span is (name, start, end, parent index, query id). Spans stay in memory
and are written out once, when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import warnings
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from dicebayes.core import BudgetExhausted

# Per-element arithmetic helpers, called once per frequency vector and face:
# they are not layer boundaries, and spans around them would cost more than
# the work they time.
_NOT_TRACED = {"log_gamma_factorial", "log_multinomial", "multinomial_exact"}

# Functions whose BudgetExhausted warnings are counted at their boundary, then
# passed on unchanged to whatever filter the caller set.
_QUADRATURE = {"posterior_mean_simplex", "posterior_mean_polytope"}
_SAMPLERS = {"sample_simplex_uniform", "sample_polytope_uniform"}
_MAXENT = {"maxent_shannon", "maxent_burg", "min_kl"}


class Tracer:
    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.query: Optional[int] = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        short = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(index)
            start = time.perf_counter()
            try:
                if short in _QUADRATURE:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (qualname, start, end, parent, self.query)
            self._count(short, args, kwargs, result)
            if short in _QUADRATURE:
                for w in caught:
                    if issubclass(w.category, BudgetExhausted):
                        self.counts["budget_stops"] += 1
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return traced

    def _count(self, short, args, kwargs, result):
        if short in _SAMPLERS:
            self.counts["points_sampled"] += int(kwargs.get("count", args[-1]))
        elif short in _QUADRATURE:
            self.counts["quad_evaluations"] += int(result[2])
        elif short == "enumerate_constrained_frequencies":
            self.counts["members"] += len(result)
        elif short in _MAXENT:
            self.counts["maxent_calls"] += 1

    def install(self):
        """Replace each public function of each loaded dicebayes module, under
        every name any dicebayes module binds it to."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "dicebayes" or name.startswith("dicebayes.")]
        wrappers: Dict[int, object] = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and name not in _NOT_TRACED):
                    layer = mod.__name__.rpartition(".")[2]
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, name, wrappers[id(obj)])

    # -- derived metrics ---------------------------------------------------

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "query": query}) + "\n")

    def _exclusive(self) -> List[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def _self_s(self, names) -> float:
        own = self._exclusive()
        return sum((t for t, span in zip(own, self.spans) if span[0] in names), 0.0)

    def _total_s(self, names) -> float:
        """Summed duration of the outermost spans among `names`."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            outer = True
            while parent is not None:
                if self.spans[parent][0] in names:
                    outer = False
                    break
                parent = self.spans[parent][3]
            if outer:
                total += end - start
        return total

    def layer_metrics(self) -> Dict[str, float]:
        all_in = {s[0] for s in self.spans}

        def layer(prefix):
            return {n for n in all_in if n.startswith(prefix + ".")}

        return {
            "multiplicity_model.finite_self_s": self._self_s(
                {"multiplicity_model.multiplicity_posterior",
                 "multiplicity_model.generalized_multiplicity_posterior"}),
            "multiplicity_model.slice_self_s": self._self_s(
                {"multiplicity_model.johnson_large_n",
                 "multiplicity_model.multiplicity_large_n"}),
            "simplex_integration.sample_s": self._total_s(
                {f"simplex_integration.{n}" for n in _SAMPLERS}),
            "simplex_integration.points_sampled": self.counts["points_sampled"],
            "simplex_integration.quad_s": self._total_s(
                {f"simplex_integration.{n}" for n in _QUADRATURE}),
            "simplex_integration.quad_evaluations": self.counts["quad_evaluations"],
            "simplex_integration.budget_stops": self.counts["budget_stops"],
            "simplex_integration.polytope_s": self._total_s(
                {"simplex_integration.build_constraint_polytope"}),
            "combinatorics.enumerate_s": self._total_s(
                {"combinatorics.enumerate_constrained_frequencies"}),
            "combinatorics.members": self.counts["members"],
            "exact_models.self_s": self._self_s(layer("exact_models")),
            "maxent.solve_s": self._total_s({f"maxent.{n}" for n in _MAXENT}),
            "maxent.calls": self.counts["maxent_calls"],
            "cli.self_s": self._self_s(layer("cli")),
            "reference.load_s": self._total_s({"reference.load_reference_tables"}),
        }

