"""Command-line interface: single-query evaluation, reference-table
reproduction, and diffing computed values against the embedded tables."""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from typing import List, Optional, Sequence

from .core import (Average, BudgetExhausted, ContradictoryData, Distribution, Exact,
                   FairThrow, Johnson, LargeN, MaxEnt, Multiplicity, Query, PosteriorResult,
                   NEW, OLD, shannon_entropy)
from .reference import (ReferenceCell, ReferenceRow, ReferenceTable, UNIFORM_ANY_A,
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


# --model: its model of a Query, built from --param and --m; the flags it reads
# besides --avg, --format and --config; and those of them it requires
_EXCHANGEABLE = ("--n", "--large-n", "--param", "--throw", "--m", "--n-over-param")
_MODELS = {
    "fair": (lambda param, base: FairThrow(), ("--n", "--large-n", "--throw"), ("--throw",)),
    "johnson": (Johnson, _EXCHANGEABLE, ("--throw", "--param")),
    "multiplicity": (Multiplicity, _EXCHANGEABLE, ("--throw", "--param")),
    "maxent-shannon": (lambda param, base: MaxEnt("shannon", base), ("--large-n",), ()),
    "maxent-burg": (lambda param, base: MaxEnt("burg", base), ("--large-n", "--m"), ()),
    "min-kl": (lambda param, base: MaxEnt("shannon", base), ("--large-n", "--m"), ("--m",)),
}
# where a model that reads no --m sends a base
_BASE_ELSEWHERE = {
    "fair": "fair throws from a base are --model johnson (or multiplicity) --param large --m",
    "maxent-shannon": "the distribution of least divergence from a base is --model min-kl",
}


def _refuse_unread_flags(args):
    """A usage error for a given flag that --model does not read (see _MODELS), and
    for --n-over-param without --large-n --param large. --m is checked later."""
    model = f"--model {args.model}"
    reads = _MODELS[args.model][1]
    if args.n is not None and args.large_n:
        # argparse keeps the two apart on the command line, not in a config file
        raise _UsageError("--n and --large-n exclude each other")
    if args.n is not None and "--n" not in reads:
        raise _UsageError(f"{model} answers only --large-n; it does not read --n")
    for flag, value in (("--param", args.param), ("--throw", args.throw),
                        ("--n-over-param", args.n_over_param)):
        if value is not None and flag not in reads:
            raise _UsageError(f"{model} does not read {flag}")
    if args.n_over_param is not None and not (args.large_n and args.param == "large"):
        raise _UsageError(f"{model} reads --n-over-param only with --large-n --param large")


def _query(model: str, n: Optional[int], a: Average, throw: Optional[str],
           param: Optional[float], n_over_param: Optional[str],
           base: Optional[Distribution]) -> Query:
    """The question that eval asks with these flags: --model at n throws, or at
    --large-n when n is None. A max-ent model answers old and new throws alike."""
    regime = (Exact(n) if n is not None
              else LargeN(None if n_over_param is None else n_over_param == "large"))
    return Query(regime, a, throw or OLD, _MODELS[model][0](param, base))


@functools.cache
def _posterior():
    """router.posterior, imported with the first question: --help loads no numpy."""
    from .router import posterior
    return posterior


def _eval_query(args) -> PosteriorResult:
    param = _parse_param(args.param)
    _refuse_unread_flags(args)
    a = Average.parse(args.avg)
    base = _parse_base(args.m) if args.m else None
    _, reads, requires = _MODELS[args.model]
    given = {"--m": base, "--throw": args.throw, "--param": param}
    for flag in requires:
        if given[flag] is None:
            raise _UsageError(f"--model {args.model} requires {flag}")
    if base is not None and "--m" not in reads:
        raise _UsageError(f"--model {args.model} takes no --m; "
                          + _BASE_ELSEWHERE[args.model])
    return _posterior()(_query(args.model, args.n, a, args.throw, param,
                               args.n_over_param, base))


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
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow([f"p{i}" for i in range(1, 7)] + ["entropy", "method"])
        writer.writerow([repr(p) for p in result.distribution]
                        + [repr(result.entropy_nats), result.method])
    else:
        print(_fmt_result(result))
        print(f"method: {result.method}")
        if result.error_bound is not None:
            print("error bound: (" + ", ".join(f"{100*e:.1e}" for e in result.error_bound)
                  + ") pp")
    return EXIT_OK


# --- reproduce ------------------------------------------------------------

@dataclass
class ComputedRow:
    ref: ReferenceRow
    old: Optional[PosteriorResult]     # None when undefined
    new: Optional[PosteriorResult]

    def cells(self):
        """(throw, result, printed cell) of the old and the new throw."""
        return (OLD, self.old, self.ref.old), (NEW, self.new, self.ref.new)


def _compute_row(ref: ReferenceTable, row: ReferenceRow) -> ComputedRow:
    if row.model == "all-exchangeable":
        return ComputedRow(row, None, None)
    # the row as eval's flags: the ME row is --large-n --model maxent-shannon at
    # every N, and a parameter "large-ratio-small" is --param large --n-over-param small
    model = "maxent-shannon" if row.model == "me" else row.model
    n = None if ref.is_large_n or row.model == "me" else ref.n
    param, _, ratio = (row.param or "").partition("-ratio-")
    results = []
    for throw in (OLD, NEW):
        if results and n is None and model != "fair" and ratio != "small":
            # at large N only the fair limit answers a new throw apart from an old one
            results.append(results[0])
            continue
        query = _query(model, n, ref.average, throw, _parse_param(param or None),
                       ratio or None, None)
        try:
            results.append(_posterior()(query))
        except ContradictoryData:
            results.append(None)
    return ComputedRow(row, *results)


_ROW_LABELS = {"me": "ME", "fair": "fair-throw", "johnson": "Johnson",
               "multiplicity": "multiplicity", "all-exchangeable": "all exch. models"}
_PARAM_LABELS = {"large": " {0} large",
                 "large-ratio-small": " {0} large, N/{0} small",
                 "large-ratio-large": " {0} large, N/{0} large"}


def _row_label(row: ReferenceRow) -> str:
    label = _ROW_LABELS[row.model]
    if row.param is None:
        return label
    sym = "K" if row.model == "johnson" else "L"
    return label + _PARAM_LABELS.get(row.param, " {0}=" + row.param).format(sym)


def _cell_text(result: Optional[PosteriorResult], printed: ReferenceCell) -> str:
    if result is None:
        return "undefined"
    if printed.annotation == UNIFORM_ANY_A:
        return UNIFORM_ANY_A
    text = f"{_fmt_percent(result.distribution)} [{result.entropy_nats:.3f}]"
    if printed.annotation:
        text += f" ({printed.annotation})"
    return text


def _render_markdown(problem: str, ref: ReferenceTable,
                     rows: List[ComputedRow]) -> str:
    n_text = "N large" if ref.is_large_n else f"N={ref.n}"
    out = [f"## {problem} ({n_text}, a={ref.average})", "",
           "| model | old throw % [H/nat] | new throw % [H/nat] |",
           "|---|---|---|"]
    for row in rows:
        out.append(f"| {_row_label(row.ref)} | {_cell_text(row.old, row.ref.old)} "
                   f"| {_cell_text(row.new, row.ref.new)} |")
    out.append("")
    return "\n".join(out)


def _row_payload(row: ComputedRow) -> dict:
    def cell(result: Optional[PosteriorResult], printed: ReferenceCell):
        if result is None:
            return None
        d = {"probs": list(result.distribution.probs), "entropy": result.entropy_nats}
        if printed.annotation:
            d["annotation"] = printed.annotation
        return d

    results = [r for r in (row.old, row.new) if r is not None]
    payload = {"model": row.ref.model, "param": row.ref.param,
               "old": cell(row.old, row.ref.old), "new": cell(row.new, row.ref.new)}
    methods = {r.method for r in results}
    if methods:
        payload["method"] = sorted(methods)[0] if len(methods) == 1 else sorted(methods)
    bounds = [list(r.error_bound) for r in results if r.error_bound is not None]
    if bounds:
        payload["error_bound"] = bounds
    return payload


def _diff_row(problem: str, row: ComputedRow, fast: bool) -> List[str]:
    failures = []
    for throw, comp, refc in row.cells():
        where = f"{problem} {_row_label(row.ref)} {throw}"
        if refc.probs is None:
            if comp is not None:
                failures.append(f"{where}: expected undefined, got a distribution")
            continue
        if comp is None:
            failures.append(f"{where}: expected a distribution, got undefined")
            continue
        closed = comp.method in ("closed-form", "analytic-limit")
        tol = TOL_CLOSED_PP if closed else (TOL_FAST_PP if fast else TOL_NUMERIC_PP)
        tol = max(tol, KNOWN_DISCREPANCIES.get(
            (problem, row.ref.model, row.ref.param, throw), 0.0))
        tol_h = TOL_ENTROPY if closed else TOL_ENTROPY_NUMERIC
        for i, (computed, printed) in enumerate(zip(comp.distribution, refc.probs)):
            dev = abs(100.0 * computed - printed)
            if dev > tol + _EPS:
                failures.append(f"{where}: face {i+1} computed {100*computed:.2f}% "
                                f"vs printed {printed}% (|dev| {dev:.2f} > {tol} pp)")
        # printed entropies are computed from the rounded percentages, so
        # accept a match under either the exact or the rounded convention
        rounded = [_round_half_up(100.0 * p, 1) for p in comp.distribution]
        h_rounded = (shannon_entropy([r / sum(rounded) for r in rounded])
                     if sum(rounded) > 0 else 0.0)
        dev = min(abs(comp.entropy_nats - refc.entropy), abs(h_rounded - refc.entropy))
        if refc.entropy_decimals is not None:
            tol_h += 0.5 * 10.0 ** (-refc.entropy_decimals)
        if dev > tol_h + _EPS:
            failures.append(f"{where}: entropy computed {comp.entropy_nats:.4f} "
                            f"vs printed {refc.entropy} (|dev| {dev:.4f} > {tol_h} nat)")
    return failures


def _cmd_reproduce(args) -> int:
    tables = load_reference_tables()
    missing = [p for p in args.only or () if p not in tables]
    if missing:
        raise _UsageError(f"unknown problem id(s): {', '.join(missing)}")
    selected = [p for p in tables if not args.only or p in args.only]

    computed = {}
    stopped = {}        # the rows whose BudgetExhausted warnings are reported in one line
    for problem in selected:
        ref = tables[problem]
        computed[problem] = []
        for ref_row in ref.rows:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", BudgetExhausted)
                row = _compute_row(ref, ref_row)
            computed[problem].append(row)
            for w in caught:
                if w.category is BudgetExhausted:
                    stopped[f"{problem} {_row_label(ref_row)}"] = None
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

    if args.format == "json":
        docs = [{"problem": {"regime": "large-n" if tables[p].is_large_n else tables[p].n,
                             "avg": str(tables[p].average)},
                 "rows": [_row_payload(r) for r in computed[p]]} for p in selected]
        print(json.dumps(docs, indent=2, sort_keys=True))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["problem", "model", "param", "throw"]
                        + [f"p{i}" for i in range(1, 7)] + ["entropy", "method"])
        for problem in selected:
            for row in computed[problem]:
                for throw, result, _ in row.cells():
                    head = [problem, row.ref.model, row.ref.param or "", throw]
                    if result is None:
                        writer.writerow(head + [""] * 7 + ["undefined"])
                    else:
                        writer.writerow(head + [repr(p) for p in result.distribution]
                                        + [repr(result.entropy_nats), result.method])
    else:
        for problem in selected:
            print(_render_markdown(problem, tables[problem], computed[problem]))

    if stopped:
        print(f"warning: {len(stopped)} row(s) stopped short of their error target: "
              + ", ".join(stopped), file=sys.stderr)

    if not args.diff:
        return EXIT_OK

    failures = [f for p in selected for row in computed[p] for f in _diff_row(p, row, args.fast)]
    cells = 2 * sum(len(computed[p]) for p in selected)
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
    ev.add_argument("--model", required=True, choices=list(_MODELS))
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
