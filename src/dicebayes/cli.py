"""Command-line interface: single-query evaluation, reference-table
reproduction, and diffing computed values against the embedded tables."""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from typing import List, Optional, Sequence

from .core import (Average, BudgetExhausted, ContradictoryData, Distribution, Exact,
                   FairThrow, Johnson, LargeN, Multiplicity, Query, PosteriorResult,
                   NEW, OLD, shannon_entropy)
from .reference import (ReferenceRow, ReferenceTable, UNIFORM_ANY_A,
                        load_reference_tables)

EXIT_OK = 0
EXIT_DIFF = 1
EXIT_CONTRADICTORY = 2
EXIT_USAGE = 3

# diff tolerances, percent points / nats
TOL_CLOSED_PP = 0.05
TOL_NUMERIC_PP = 0.3
TOL_FAST_PP = 0.5
TOL_ENTROPY = 0.002          # closed-form cells
TOL_ENTROPY_NUMERIC = 0.01   # lattice / Fourier cells
_EPS = 1e-9

# Cells where the published value is contradicted by independent recomputation
# (three methods: two unrelated Monte Carlo samplers and the deterministic
# lattice sum of multiplicity_model agree with each other but not with the print).
# Maps (problem, model, param, throw) -> widened tolerance in percent points.
KNOWN_DISCREPANCIES = {
    ("n2-a5", "multiplicity", "1", OLD): 0.6,
}


# Warnings that `reproduce` collects per table row and reports in one line each.
_CELL_WARNINGS = {BudgetExhausted: "stopped short of their error target"}


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the interface contract
    reserves 2 for contradictory data and uses 3 for usage problems."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _round_half_up(x: float, digits: int) -> float:
    """Round half away from zero, matching the published tables."""
    q = Decimal(1).scaleb(-digits)
    return float(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_UP))


def _fmt_percent(probs: Sequence[float]) -> str:
    vals = [_round_half_up(100.0 * p, 1) for p in probs]
    return "(" + ", ".join(f"{v:.1f}" for v in vals) + ")"


def _fmt_result(result: PosteriorResult) -> str:
    return (f"{_fmt_percent(result.distribution)} % "
            f"[H={result.entropy_nats:.3f} nat]")


# --- eval -----------------------------------------------------------------

def _parse_base(text: str) -> Distribution:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 6:
        raise ValueError("--m needs 6 comma-separated probabilities")
    return Distribution.from_weights(parts)


def _parse_param(text: Optional[str]) -> Optional[float]:
    if text is None:
        return None
    # math.inf marks the 'parameter large' regime, so a number must be finite
    if text == "large":
        return math.inf
    param = float(text)
    if not math.isfinite(param):
        raise _UsageError("--param must be a finite number or 'large'")
    return param


def _refuse_unread_flags(args):
    """A usage error for a given flag that --model does not read: the maxent
    models read none of --n, --param, --throw and --n-over-param, fair reads
    --n and --throw, and johnson and multiplicity read --n-over-param only
    with --large-n --param large. --m is checked with the model."""
    model = f"--model {args.model}"
    if args.n is not None and args.large_n:
        # argparse keeps the two apart on the command line, not in a config file
        raise _UsageError("--n and --large-n exclude each other")
    if args.model in ("maxent-shannon", "maxent-burg", "min-kl"):
        if args.n is not None:
            raise _UsageError(f"{model} answers only --large-n; it does not read --n")
        reads = ()
    elif args.model == "fair":
        reads = ("--throw",)
    else:
        if args.n_over_param is not None and not (args.large_n and args.param == "large"):
            raise _UsageError(f"{model} reads --n-over-param only with "
                              "--large-n --param large")
        reads = ("--param", "--throw", "--n-over-param")
    for flag, value in (("--param", args.param), ("--throw", args.throw),
                        ("--n-over-param", args.n_over_param)):
        if value is not None and flag not in reads:
            raise _UsageError(f"{model} does not read {flag}")


@functools.cache
def _models():
    """The maxent and router modules, imported once with the first question, so
    that --help and usage errors load no numpy."""
    from . import maxent, router
    return maxent, router


def _eval_query(args) -> PosteriorResult:
    maxent, router = _models()
    param = _parse_param(args.param)
    _refuse_unread_flags(args)
    a = Average.parse(args.avg)
    base = _parse_base(args.m) if args.m else None

    if args.model == "maxent-shannon":
        if base is not None:
            raise _UsageError("--model maxent-shannon takes no --m; the distribution "
                              "of least divergence from a base is --model min-kl")
        return router._limit(maxent.maxent_shannon(a).distribution)
    if args.model == "maxent-burg":
        return router._limit(maxent.maxent_burg(a, base).distribution)
    if args.model == "min-kl":
        if base is None:
            raise _UsageError("--model min-kl requires --m")
        return router._limit(maxent.min_kl(a, base).distribution)

    if args.throw is None:
        raise _UsageError(f"--model {args.model} requires --throw")
    if args.model == "fair":
        if base is not None:
            raise _UsageError("--model fair takes no --m; fair throws from a base are "
                              "--model johnson (or multiplicity) --param large --m")
        model = FairThrow()
    elif param is None:
        raise _UsageError(f"--model {args.model} requires --param")
    elif args.model == "johnson":
        model = Johnson(param, base)
    else:
        model = Multiplicity(param, base)
    if args.large_n:
        ratio = None if args.n_over_param is None else args.n_over_param == "large"
        regime = LargeN(ratio)
    else:
        regime = Exact(args.n)
    return router.posterior(Query(regime, a, args.throw, model))


class _UsageError(Exception):
    pass


def _result_payload(result: PosteriorResult) -> dict:
    payload = {
        "probs": list(result.distribution.probs),
        "entropy": result.entropy_nats,
        "method": result.method,
    }
    if result.error_bound is not None:
        payload["error_bound"] = list(result.error_bound)
    return payload


def _cmd_eval(args) -> int:
    try:
        result = _eval_query(args)
    except ContradictoryData:
        print("undefined (contradictory data)")
        return EXIT_CONTRADICTORY
    except MemoryError:
        raise _UsageError("this question needs more memory than the process can get; ask "
                          "for the many-throw limit (--large-n) or the parameter-large "
                          "limit (--param large)") from None
    if args.format == "json":
        print(json.dumps(_result_payload(result), indent=2, sort_keys=True))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f"p{i}" for i in range(1, 7)] + ["entropy", "method"])
        writer.writerow([repr(p) for p in result.distribution]
                        + [repr(result.entropy_nats), result.method])
        sys.stdout.write(buf.getvalue())
    else:
        print(_fmt_result(result))
        print(f"method: {result.method}")
        if result.error_bound is not None:
            print("error bound: (" + ", ".join(f"{100*e:.1e}" for e in result.error_bound)
                  + ") pp")
    return EXIT_OK


# --- reproduce ------------------------------------------------------------

@dataclass(frozen=True)
class ComputedCell:
    result: Optional[PosteriorResult]   # None when undefined
    annotation: Optional[str] = None
    uniform_any_a: bool = False


@dataclass
class ComputedRow:
    model: str
    param: Optional[str]
    old: ComputedCell
    new: ComputedCell


# Row parameters that mark both N and the model parameter large, and whether
# N / parameter is large
_RATIO_LARGE = {"large-ratio-small": False, "large-ratio-large": True}


def _row_model(model: str, param: Optional[str]):
    if model == "fair":
        return FairThrow()
    value = math.inf if param in ("large", *_RATIO_LARGE) else float(param)
    return Johnson(value) if model == "johnson" else Multiplicity(value)


def _compute_row(ref: ReferenceTable, row: ReferenceRow) -> ComputedRow:
    maxent, router = _models()
    model, param = row.model, row.param
    if model == "me":
        cell = ComputedCell(router._limit(maxent.maxent_shannon(ref.average).distribution))
        return ComputedRow(model, param, cell, cell)
    if model == "all-exchangeable":
        return ComputedRow(model, param, ComputedCell(None), ComputedCell(None))

    regime = LargeN(_RATIO_LARGE.get(param)) if ref.is_large_n else Exact(ref.n)
    spec = _row_model(model, param)
    cells = []
    for throw, ref_cell in ((OLD, row.old), (NEW, row.new)):
        if ref_cell.uniform_any_a:
            cells.append(ComputedCell(router._limit(Distribution.uniform()), UNIFORM_ANY_A,
                                      True))
            continue
        if cells and ref.is_large_n:
            # at large N an old and a new throw have the same posterior
            result = cells[0].result
        else:
            try:
                result = router.posterior(Query(regime, ref.average, throw, spec))
            except ContradictoryData:
                result = None
        cells.append(ComputedCell(result, ref_cell.annotation))
    return ComputedRow(model, param, *cells)


_ROW_LABELS = {"me": "ME", "fair": "fair-throw", "johnson": "Johnson",
               "multiplicity": "multiplicity", "all-exchangeable": "all exch. models"}
_PARAM_LABELS = {"large": " {0} large",
                 "large-ratio-small": " {0} large, N/{0} small",
                 "large-ratio-large": " {0} large, N/{0} large"}


def _row_label(row: ComputedRow) -> str:
    label = _ROW_LABELS[row.model]
    if row.param is None:
        return label
    sym = "K" if row.model == "johnson" else "L"
    return label + _PARAM_LABELS.get(row.param, " {0}=" + row.param).format(sym)


def _cell_text(cell: ComputedCell) -> str:
    if cell.result is None:
        return "undefined"
    if cell.uniform_any_a:
        return UNIFORM_ANY_A
    text = (f"{_fmt_percent(cell.result.distribution)} "
            f"[{cell.result.entropy_nats:.3f}]")
    if cell.annotation:
        text += f" ({cell.annotation})"
    return text


def _render_markdown(problem: str, ref: ReferenceTable,
                     rows: List[ComputedRow]) -> str:
    n_text = "N large" if ref.is_large_n else f"N={ref.n}"
    out = [f"## {problem} ({n_text}, a={ref.average})", "",
           "| model | old throw % [H/nat] | new throw % [H/nat] |",
           "|---|---|---|"]
    for row in rows:
        out.append(f"| {_row_label(row)} | {_cell_text(row.old)} | {_cell_text(row.new)} |")
    out.append("")
    return "\n".join(out)


def _row_payload(row: ComputedRow) -> dict:
    def cell(c: ComputedCell):
        if c.result is None:
            return None
        d = {"probs": list(c.result.distribution.probs),
             "entropy": c.result.entropy_nats}
        if c.annotation:
            d["annotation"] = c.annotation
        return d

    payload = {"model": row.model, "param": row.param,
               "old": cell(row.old), "new": cell(row.new)}
    methods = {c.result.method for c in (row.old, row.new) if c.result is not None}
    if methods:
        payload["method"] = sorted(methods)[0] if len(methods) == 1 else sorted(methods)
    bounds = [list(c.result.error_bound) for c in (row.old, row.new)
              if c.result is not None and c.result.error_bound is not None]
    if bounds:
        payload["error_bound"] = bounds
    return payload


def _diff_row(problem: str, row: ComputedRow, ref_row: ReferenceRow,
              fast: bool) -> List[str]:
    failures = []
    for throw, comp, refc in ((OLD, row.old, ref_row.old), (NEW, row.new, ref_row.new)):
        where = f"{problem} {_row_label(row)} {throw}"
        if refc.probs is None:
            if comp.result is not None:
                failures.append(f"{where}: expected undefined, got a distribution")
            continue
        if comp.result is None:
            failures.append(f"{where}: expected a distribution, got undefined")
            continue
        closed = comp.result.method in ("closed-form", "analytic-limit")
        tol = TOL_CLOSED_PP if closed else (TOL_FAST_PP if fast else TOL_NUMERIC_PP)
        tol = max(tol, KNOWN_DISCREPANCIES.get(
            (problem, row.model, row.param, throw), 0.0))
        tol_h = TOL_ENTROPY if closed else TOL_ENTROPY_NUMERIC
        for i, (computed, printed) in enumerate(zip(comp.result.distribution, refc.probs)):
            dev = abs(100.0 * computed - printed)
            if dev > tol + _EPS:
                failures.append(f"{where}: face {i+1} computed {100*computed:.2f}% "
                                f"vs printed {printed}% (|dev| {dev:.2f} > {tol} pp)")
        # printed entropies are computed from the rounded percentages, so
        # accept a match under either the exact or the rounded convention
        rounded = [_round_half_up(100.0 * p, 1) for p in comp.result.distribution]
        h_rounded = (shannon_entropy([r / sum(rounded) for r in rounded])
                     if sum(rounded) > 0 else 0.0)
        dev = min(abs(comp.result.entropy_nats - refc.entropy),
                  abs(h_rounded - refc.entropy))
        if refc.entropy_decimals is not None:
            tol_h += 0.5 * 10.0 ** (-refc.entropy_decimals)
        if dev > tol_h + _EPS:
            failures.append(f"{where}: entropy computed {comp.result.entropy_nats:.4f} "
                            f"vs printed {refc.entropy} (|dev| {dev:.4f} > {tol_h} nat)")
    return failures


def _cmd_reproduce(args) -> int:
    tables = load_reference_tables()
    if args.only:
        missing = [p for p in args.only if p not in tables]
        if missing:
            raise _UsageError(f"unknown problem id(s): {', '.join(missing)}")
        selected = [p for p in tables if p in set(args.only)]
    else:
        selected = list(tables)

    computed = {}
    flagged = {category: {} for category in _CELL_WARNINGS}
    for problem in selected:
        ref = tables[problem]
        computed[problem] = []
        for ref_row in ref.rows:
            with warnings.catch_warnings(record=True) as caught:
                for category in _CELL_WARNINGS:
                    warnings.simplefilter("always", category)
                row = _compute_row(ref, ref_row)
            computed[problem].append(row)
            for w in caught:
                if w.category in flagged:
                    flagged[w.category][f"{problem} {_row_label(row)}"] = None
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

    if args.format == "json":
        docs = []
        for problem in selected:
            ref = tables[problem]
            docs.append({
                "problem": {"regime": "large-n" if ref.is_large_n else ref.n,
                            "avg": str(ref.average)},
                "rows": [_row_payload(r) for r in computed[problem]],
            })
        print(json.dumps(docs, indent=2, sort_keys=True))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["problem", "model", "param", "throw"]
                        + [f"p{i}" for i in range(1, 7)] + ["entropy", "method"])
        for problem in selected:
            for row in computed[problem]:
                for throw, cell in ((OLD, row.old), (NEW, row.new)):
                    if cell.result is None:
                        writer.writerow([problem, row.model, row.param or "", throw,
                                         *([""] * 6), "", "undefined"])
                    else:
                        writer.writerow([problem, row.model, row.param or "", throw]
                                        + [repr(p) for p in cell.result.distribution]
                                        + [repr(cell.result.entropy_nats),
                                           cell.result.method])
        sys.stdout.write(buf.getvalue())
    else:
        for problem in selected:
            print(_render_markdown(problem, tables[problem], computed[problem]))

    for category, cells in flagged.items():
        if cells:
            print(f"warning: {len(cells)} row(s) {_CELL_WARNINGS[category]}: "
                  + ", ".join(cells), file=sys.stderr)

    if not args.diff:
        return EXIT_OK

    failures: List[str] = []
    cells = 0
    for problem in selected:
        ref = tables[problem]
        for row, ref_row in zip(computed[problem], ref.rows):
            cells += 2
            failures.extend(_diff_row(problem, row, ref_row, args.fast))
    print(f"diff: {cells} cells compared, {len(failures)} deviation(s) beyond tolerance")
    for f in failures:
        print(f"  {f}")
    return EXIT_DIFF if failures else EXIT_OK


# --- entry point ----------------------------------------------------------

def _add_config(parser):
    parser.add_argument("--config", type=str, default=None,
                        help="JSON object of flag defaults (flags override)")


def build_parser() -> _Parser:
    parser = _Parser(prog="dicebayes",
                     description="Die-throw posteriors conditional on an observed average")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a single query")
    regime = ev.add_mutually_exclusive_group(required=True)
    regime.add_argument("--n", type=int, help="number of averaged throws")
    regime.add_argument("--large-n", action="store_true",
                        help="asymptotic regime of many throws")
    ev.add_argument("--avg", required=True, help="observed average, e.g. 5 or 7/2 or 3.5")
    ev.add_argument("--model", required=True,
                    choices=["fair", "johnson", "multiplicity",
                             "maxent-shannon", "maxent-burg", "min-kl"])
    ev.add_argument("--param", default=None,
                    help="model parameter (K or L), or 'large'")
    ev.add_argument("--throw", choices=[OLD, NEW], default=None)
    ev.add_argument("--m", default=None,
                    help="base distribution m, 6 comma-separated weights (johnson, "
                         "multiplicity, maxent-burg, min-kl)")
    ev.add_argument("--n-over-param", choices=["small", "large"], default=None,
                    help="with --large-n and --param large, which ratio dominates")
    ev.add_argument("--format", choices=["text", "json", "csv"], default="text")
    _add_config(ev)
    ev.set_defaults(func=_cmd_eval)

    rp = sub.add_parser("reproduce", help="recompute the published tables")
    rp.add_argument("--only", action="append", default=None,
                    help="restrict to a problem id (repeatable), e.g. n2-a5")
    rp.add_argument("--format", choices=["markdown", "csv", "json"], default="markdown")
    rp.add_argument("--diff", action="store_true",
                    help="compare against the embedded reference values")
    rp.add_argument("--fast", action="store_true",
                    help="compare numeric cells at 0.5 pp instead of 0.3 pp")
    _add_config(rp)
    rp.set_defaults(func=_cmd_reproduce)
    return parser


def _config_value(parser, action: argparse.Action, key: str, value):
    """A config value, checked and converted by argparse as the flag's own
    arguments are: true or false for a switch, a list for a repeatable flag,
    else one JSON string or number."""
    many = isinstance(action, argparse._AppendAction)
    items = value if many and isinstance(value, list) else [value]
    if action.nargs == 0 and type(value) is bool:
        return value
    if (action.nargs == 0 or many != isinstance(value, list)
            or not all(type(v) in (str, int, float) for v in items)):
        raise _UsageError(f"config key {key!r} has an invalid value {value!r}")
    try:
        items = [parser._get_values(action, [str(v)]) for v in items]
    except argparse.ArgumentError as exc:
        raise _UsageError(f"config key {key!r}: {exc}") from None
    return items if many else items[0]


def _apply_config(args, argv):
    """Set each flag that argv does not give from the JSON object in --config.
    argv is parsed again, by a parser of its own with the flags' defaults
    suppressed, so a flag given at its default value, or a given --only, keeps
    its command-line value and the shared parser keeps its defaults."""
    if not args.config:
        return
    parser = build_parser()
    # the flags a config file may set: the command's own, bar --help and --config
    actions = {a.dest: a for g in parser._subparsers._group_actions
               for a in g.choices[args.command]._actions
               if a.option_strings and a.dest not in ("help", "config")}
    for action in actions.values():
        action.default = argparse.SUPPRESS
    given = vars(parser.parse_args(argv))
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise _UsageError(f"config file {args.config} must hold a JSON object")
    for key, value in config.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise _UsageError(f"unknown config key {key!r}")
        value = _config_value(parser, action, key, value)
        if action.dest not in given:
            setattr(args, action.dest, value)


@functools.cache
def _parser() -> _Parser:
    """The parser that every `main` call in a process shares. Building one costs
    about half of a closed-form `eval`; nothing writes to it once built."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _apply_config(args, argv)
        return args.func(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
