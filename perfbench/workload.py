"""Runs one workload in this (fresh) process and prints one JSON line.

    PYTHONPATH=src python3 perfbench/workload.py --workload query-stream \
        --seed 1 --seconds 10 --trace 0

Closed loop, one client: each operation starts when the previous one has
returned. A round is the workload's whole list of operations; rounds repeat
the same operations until they have taken --seconds of wall time, and
the program's module-level caches are emptied before each round so every
round does the same work. Fresh interpreters that only import dicebayes are
timed between the rounds, for setup_s. Every time is reported in reference
seconds (see speed.py): wall time scaled by the machine's speed at that
moment. With --trace 1 the run is one untraced round and then one traced
round, whose spans go to perfbench/out/trace-<workload>-seed<N>.jsonl.
Outputs are checked after the timed rounds.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import checks
from speed import KINDS, SpeedProbe, slowdown_now
from tracing import Tracer

import dicebayes
from dicebayes import cli

HERE = Path(__file__).resolve().parent
SETUP_PROBE = "import dicebayes, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
STARTS_PER_GAP = 3                # fresh starts timed before each round and after the last
SLICE_BUDGET = 200_000            # the --fast quadrature budget
SLICE_TABLE_AVERAGES = ("5", "7/2")
SLICE_PARAMS = (1.0, 5.0, 50.0)

# Fair and Johnson queries per stratum: (lowest N, highest N, queries, the
# part of the realizable averages' range, as fractions, they are drawn from,
# and the models they cycle through). Each query's average sits near the
# centre of its own equal slice of that part, so the mix of costs hardly
# changes with the seed. Light strata cover N up to 28 and all of [1, 6]. A
# plateau of near-equal cost (N = 32, central averages, Johnson only: a fair
# new-throw query skips the weighting and costs less) holds the 90th latency
# percentile, so p90 does not jump when a seed moves a query by one rank.
# Four heavy queries, 20k to 70k enumerated vectors each, and the fault
# query form the tail.
_ALL = ("fair", "johnson", "johnson-base")
_JOHNSON = ("johnson", "johnson-base")
N_STRATA = ((1, 4, 16, 0.0, 1.0, _ALL), (5, 8, 16, 0.0, 1.0, _ALL),
            (9, 12, 16, 0.0, 1.0, _ALL), (13, 16, 16, 0.0, 1.0, _ALL),
            (17, 20, 16, 0.0, 1.0, _ALL), (21, 24, 14, 0.0, 1.0, _ALL),
            (25, 28, 14, 0.0, 1.0, _ALL), (32, 32, 32, 0.45, 0.55, _JOHNSON),
            (45, 47, 2, 0.4, 0.6, _JOHNSON), (56, 58, 2, 0.4, 0.6, _JOHNSON))
# Fails today: Monte Carlo weight degeneracy at large L (no effective-sample-size
# check in the ratio estimator); the answer should be the fair limit.
FAULT_QUERY = ["--n", "2", "--avg", "5", "--model", "multiplicity",
               "--param", "1000000", "--throw", "old"]


class Op:
    """One operation: how to run it, and how to check what it returned.

    `check` returns one reason per wrong posterior of the output, so a run
    counts attempted and failed in the same unit, posteriors.
    """

    def __init__(self, run: Callable[[], object], check: Callable[[object], List[str]],
                 label: str, fault: bool = False, cells: int = 1):
        self.run = run
        self.check = check
        self.label = label
        self.fault = fault     # the one operation expected to fail today
        self.cells = cells     # posteriors the operation returns


def one_cell(check: Callable[[object], Optional[str]]) -> Callable[[object], List[str]]:
    """The check of an operation that returns one posterior."""
    def checked(out):
        bad = check(out)
        return [bad] if bad else []
    return checked


def _avg_text(a: Fraction) -> str:
    return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"


def _run_cli(argv: List[str]):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()
    return run


def _json_probs(out):
    rc, text = out
    if rc != 0:
        return None, f"exit code {rc}"
    return json.loads(text)["probs"], None


# --- query-stream -------------------------------------------------------------

def _check_exact(expected, a: Optional[Fraction], tol_pp: float):
    def check(out):
        probs, bad = _json_probs(out)
        if bad:
            return bad
        return (checks.is_distribution(probs) or checks.close_to(probs, expected, tol_pp)
                or (checks.mean_is(probs, a) if a is not None else None))
    return check


def _check_form(a: Fraction, kind: str, base=None):
    def check(out):
        probs, bad = _json_probs(out)
        return bad or checks.maxent_form(probs, a, kind, base)
    return check


def _check_undefined(out):
    rc, text = out
    if rc != 2 or not text.startswith("undefined"):
        return f"expected exit code 2 and 'undefined', got {rc}: {text[:60]!r}"
    return None


def _k_text(rng: random.Random) -> str:
    return f"{10 ** rng.uniform(math.log10(0.5), math.log10(50.0)):.3g}"


def _base_text(rng: random.Random) -> str:
    return ",".join(f"{rng.uniform(0.05, 1.0):.3f}" for _ in range(6))


def _base_probs(text: str):
    w = [float(x) for x in text.split(",")]
    return [x / sum(w) for x in w]


def query_stream_ops(seed: int) -> List[Op]:
    rng = random.Random(seed)
    ops: List[Op] = []
    exact_pp = 100.0 * checks.TOL_EXACT

    def add(argv, check, fault=False):
        argv = ["eval"] + argv + ["--format", "json"]
        ops.append(Op(_run_cli(argv), one_cell(check), " ".join(argv), fault))

    # fair and Johnson, symmetric and base-weighted, stratified over N and over
    # where the average sits in [1, 6]
    for stratum, (lo, hi, count, f_lo, f_hi, models) in enumerate(N_STRATA):
        for j in range(count):
            n = rng.randint(lo, hi)
            frac = f_lo + (f_hi - f_lo) * (j + 0.5 + rng.uniform(-0.2, 0.2)) / count
            s = n + round(5 * n * frac)
            a = Fraction(s, n)
            model = models[(j + stratum) % len(models)]
            throw = rng.choice(("old", "new"))
            argv = ["--n", str(n), "--avg", _avg_text(a), "--throw", throw]
            if model == "fair":
                expected = checks.fair_expected(n, s, throw)
                argv += ["--model", "fair"]
            else:
                k = _k_text(rng)
                pseudo = [float(k)] * 6
                argv += ["--model", "johnson", "--param", k]
                if model == "johnson-base":
                    base = _base_text(rng)
                    pseudo = [float(k) * m for m in _base_probs(base)]
                    argv += ["--m", base]
                expected = checks.johnson_expected(n, s, pseudo, throw)
            add(argv, _check_exact(expected, a if throw == "old" else None, exact_pp))

    # averages no sequence of N throws realizes: a*N is not a whole number
    for j in range(16):
        n = rng.randint(2, 60)
        a = Fraction(2 * rng.randint(n, 6 * n - 1) + 1, 2 * n)
        argv = ["--n", str(n), "--avg", _avg_text(a), "--throw", "old"]
        model = j % 4
        if model == 0:
            argv += ["--model", "fair"]
        elif model == 1:
            argv += ["--model", "johnson", "--param", _k_text(rng)]
        elif model == 2:
            argv += ["--model", "multiplicity", "--param", f"{rng.uniform(1, 50):.3g}"]
        else:
            argv += ["--model", "johnson", "--param", _k_text(rng), "--m", _base_text(rng)]
        add(argv, _check_undefined)

    # Shannon, Burg and min-KL maximizers
    for j in range(24):
        a = Fraction(rng.randint(105, 595), 100)
        kind = ("shannon", "burg", "min-kl")[j % 3]
        argv = ["--large-n", "--avg", _avg_text(a)]
        if kind == "min-kl":
            base = _base_text(rng)
            add(argv + ["--model", "min-kl", "--m", base], _check_form(a, kind, _base_probs(base)))
        else:
            add(argv + ["--model", f"maxent-{kind}"], _check_form(a, kind))

    # --param large: finite N gives the fair posterior; large N gives the
    # fair or maximum-entropy limit, by which of N and the parameter dominates
    for j in range(12):
        n = rng.randint(1, 30)
        s = n + round(5 * n * rng.random())
        throw = ("old", "new")[j % 2]
        model = ("johnson", "multiplicity")[(j // 2) % 2]
        add(["--n", str(n), "--avg", _avg_text(Fraction(s, n)), "--model", model,
             "--param", "large", "--throw", throw],
            _check_exact(checks.fair_expected(n, s, throw), None, exact_pp))
    for j in range(12):
        a = Fraction(rng.randint(105, 595), 100)
        model = ("johnson", "multiplicity")[j % 2]
        ratio = ("small", "large")[(j // 2) % 2]
        throw = rng.choice(("old", "new"))
        argv = ["--large-n", "--avg", _avg_text(a), "--model", model, "--param", "large",
                "--n-over-param", ratio, "--throw", throw]
        if ratio == "small" and throw == "new":
            check = _check_exact(checks.UNIFORM, None, exact_pp)
        elif ratio == "small" or model == "multiplicity":
            check = _check_form(a, "shannon")
        else:
            check = _check_form(a, "burg")
        add(argv, check)

    add(FAULT_QUERY, _check_exact(checks.fair_expected(2, 10, "old"), Fraction(5),
                                  checks.TOL_FAULT_PP), fault=True)
    rng.shuffle(ops)
    return ops


# --- slice-quad -----------------------------------------------------------------

def slice_quad_ops(seed: int) -> List[Op]:
    """Large-N slice posteriors at the table averages and one seeded mirrored pair.

    The pair's average is k/10 with k in 21..29: there the Johnson K=5 and
    K=50 quadratures stop at their budget on both sides of the pair, so the
    work barely depends on the seed.
    """
    rng = random.Random(seed)
    k = rng.randint(21, 29)
    pair = (Fraction(k, 10), Fraction(70 - k, 10))
    printed = checks.load_printed_tables(PRINTED)
    averages = [Fraction(t) for t in SLICE_TABLE_AVERAGES] + list(pair)
    results: Dict[tuple, list] = {}
    ops: List[Op] = []
    for a in averages:
        for model in ("johnson", "multiplicity"):
            for param in SLICE_PARAMS:
                key = (model, param, a)

                def run(fn=f"{model}_large_n", a=a, param=param):
                    # looked up per call, so a traced round calls the traced function
                    return getattr(dicebayes, fn)(dicebayes.Average(a), param,
                                                  budget=SLICE_BUDGET)

                def check(out, key=key, a=a, model=model, param=param):
                    probs = list(out.distribution.probs)
                    results.setdefault(key, probs)
                    bad = checks.is_distribution(probs) or checks.mean_is(probs, a)
                    if bad:
                        return bad
                    problem = f"large-a{float(a):g}"
                    if problem in printed:
                        row = next(r for r in printed[problem]
                                   if r[0] == model and r[1] == f"{param:g}")
                        bad = checks.close_to(probs, [x / 100 for x in row[2]],
                                              checks.TOL_FAST_PP)
                    mirror = results.get((model, param, 7 - a))
                    if not bad and mirror is not None:
                        bad = checks.mirrored(probs, mirror, checks.TOL_FAST_PP)
                    return bad

                ops.append(Op(run, one_cell(check), f"{model}_large_n(a={a}, {param:g})"))
    return ops


# --- tables -----------------------------------------------------------------------

def tables_ops(seed: int) -> List[Op]:
    """The paper's fifteen tables; the program is asked for them with its default
    seed, since --seed would make the benchmark seed an input of the program's
    own sampler rather than of the workload."""
    printed = checks.load_printed_tables(PRINTED)
    cells = 2 * sum(len(rows) for rows in printed.values())

    def check(out):
        """One reason per wrong cell. An output of the wrong shape fails every
        cell it does not hold in its printed place."""
        rc, text = out
        if rc != 0:
            return [f"exit code {rc}"] * cells
        docs = json.loads(text)
        if len(docs) != len(printed):
            return [f"{len(docs)} tables, expected {len(printed)}"] * cells
        wrong = []
        for doc, (problem, rows) in zip(docs, printed.items()):
            regime, avg = doc["problem"]["regime"], Fraction(doc["problem"]["avg"])
            n, a = checks.problem_shape(problem)
            if (None if regime == "large-n" else regime) != n or avg != a:
                wrong += [f"table order: got {doc['problem']} for {problem}"] * (2 * len(rows))
                continue
            if len(doc["rows"]) != len(rows):
                wrong += [f"{problem}: {len(doc['rows'])} rows, expected {len(rows)}"] * (
                    2 * len(rows))
                continue
            for got, (model, param, old, new) in zip(doc["rows"], rows):
                if (got["model"], got["param"]) != (model, param):
                    wrong += [f"{problem}: row {got['model']} {got['param']}, "
                              f"expected {model} {param}"] * 2
                    continue
                for throw, want in (("old", old), ("new", new)):
                    bad = _table_cell(problem, model, param, throw, got[throw], want)
                    if bad:
                        wrong.append(f"{problem} {model} {param} {throw}: {bad}")
        return wrong

    return [Op(_run_cli(["reproduce", "--fast", "--format", "json"]), check,
               "reproduce --fast --format json", cells=cells)]


def _table_cell(problem, model, param, throw, got, printed) -> Optional[str]:
    if printed is None or got is None:
        return None if printed is got else f"undefined mismatch: {got!r} vs {printed!r}"
    probs = got["probs"]
    return (checks.is_distribution(probs)
            or checks.close_to(probs, [x / 100 for x in printed],
                               checks.cell_tolerance(problem, model, param, throw))
            or checks.table_cell_check(problem, model, param, throw)(probs))


PRINTED = Path("src/dicebayes/data/reference_tables.txt")
WORKLOADS = {"tables": tables_ops, "slice-quad": slice_quad_ops,
             "query-stream": query_stream_ops}
# The kinds of reference work each workload's rounds are scaled by, those its
# own time follows when the machine slows: the Monte Carlo kernel streams
# arrays of 400k points; the quadrature runs small arrays under the
# interpreter; the query stream does some of everything.
REFERENCE = {"tables": ("large-arrays",),
             "slice-quad": ("interpreter", "small-arrays"),
             "query-stream": ("interpreter", "small-arrays", "large-arrays")}


# --- running ----------------------------------------------------------------------

def reset_program_caches():
    """Empty every module-level cache of the program, so each round starts cold."""
    for name, mod in list(sys.modules.items()):
        if name != "dicebayes" and not name.startswith("dicebayes."):
            continue
        for attr, value in vars(mod).items():
            if attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def setup_start() -> float:
    """Reference seconds from starting a fresh interpreter to `import dicebayes`
    done, scaled by the slowdown measured just before and just after. The
    interpreter inherits this process's environment."""
    before = slowdown_now(KINDS)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"import dicebayes failed: {err.decode(errors='replace')[-500:]}")
    return 2.0 * elapsed / (before + slowdown_now(KINDS))


def run_round(ops: List[Op], kinds, tracer: Optional[Tracer]):
    """One round under a speed probe: its wall time and each operation's
    latency, in reference seconds, its raw wall time and slowdown, and the
    outputs."""
    reset_program_caches()
    outputs, spans = [], []
    probe = SpeedProbe(kinds)
    with warnings.catch_warnings():
        # the slice calls stop at their budget by design; reproduce does the same
        warnings.simplefilter("ignore", dicebayes.BudgetExhausted)
        probe.start()
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.query = i
            t0 = time.perf_counter()
            try:
                outputs.append(op.run())
            except Exception as exc:    # a crash is a wrong output of this operation
                outputs.append(exc)
            spans.append((t0, time.perf_counter()))
        end = time.perf_counter()
        probe.stop()
    latencies = [probe.reference_seconds(a, b) for a, b in spans]
    return (probe.reference_seconds(start, end), latencies, outputs,
            (end - start, probe.slowdown()))


def _p90(values: List[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ops = WORKLOADS[args.workload](args.seed)
    kinds = REFERENCE[args.workload]
    rounds, starts = [], []
    tracer = None
    if args.trace:
        rounds.append(run_round(ops, kinds, None))
        tracer = Tracer()
        tracer.install()
        rounds.append(run_round(ops, kinds, tracer))
    else:
        # set-up is sampled between the rounds, so it meets the same machine
        # speed as they do; the first start compiles bytecode and is not counted
        setup_start()
        measured = 0.0
        while True:
            starts += [setup_start() for _ in range(STARTS_PER_GAP)]
            if measured >= args.seconds:
                break
            rounds.append(run_round(ops, kinds, None))
            measured += rounds[-1][3][0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    problems = []
    for _, _, outputs, _ in rounds:
        for op, out in zip(ops, outputs):
            attempted += op.cells
            if isinstance(out, Exception):
                bad = [f"raised {out!r}"] * op.cells
            else:
                try:
                    bad = op.check(out)
                except (KeyError, IndexError, TypeError, ValueError, StopIteration) as exc:
                    bad = [f"unreadable output: {exc!r}"] * op.cells
            failed += len(bad)
            if not op.fault:    # the known failure does not make the run incorrect
                problems += [f"{op.label}: {b}" for b in bad]

    walls = [r[0] for r in rounds]
    if args.trace:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = walls[1] - walls[0]
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        if args.workload == "query-stream":
            per_query = [t for r in rounds for t in r[1]]
        else:
            # One reproduce call, or one round of slice calls, is the query:
            # their per-call times are few and bimodal. Reported because every
            # workload prints every end-to-end metric.
            per_query = walls
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(starts),
                   "peak_rss_mb": peak_rss_mb,
                   "query_p50_s": statistics.median(per_query),
                   "query_p90_s": _p90(per_query)}
    raw = [{"wall_s": w, "slowdown": f} for *_, (w, f) in rounds]
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "rounds": raw, "problems": problems[:20],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
