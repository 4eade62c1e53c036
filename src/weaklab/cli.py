"""Batch command-line front end.

Subcommands: ``experiment`` (arithmetic trials and table/CSV/JSON reports),
``verify`` (fixture self-checks and the exhaustive weakness-optimality
sweep), ``induce`` (run induction on a task from a spec file).  ``verify``'s
task count includes the fixture language's tasks, its language count does
not: ``--max-states 0 --max-vocab 0`` checks 0 languages and 1520 tasks.
``verify`` skips a language of more than ``--max-members`` members (default
10, at most 20, the limit of a census sweep's time and memory).

Exit codes: 0 success; 1 verification violation or empty model set;
2 flagged trials present (results still written); 64 usage, including a
negative --tau, one in exponent form (write 1/1000, not 1e-3) or one whose
numerator or denominator in lowest terms exceeds 64, an empty --dk, a
--trials, --budget or --cap below 1, a --max-members outside 1..20 and a
negative --max-states or --max-vocab; 65 spec file errors, including a file
that is not UTF-8; 74 I/O failure; 75 capacity overflow, including a
--max-members below the fixture language's 8 members and a derive past its
256 MiB mask budget.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
from dataclasses import asdict
from fractions import Fraction
from functools import cache

from . import arith, induction, lattice, oracle, specdsl
from .errors import CapacityError, FixtureError, NoModelError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_NO_MODEL = 1
EXIT_FLAGGED = 2
EXIT_USAGE = 64
EXIT_SPEC = 65
EXIT_IO = 74
EXIT_CAPACITY = 75


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _write_out(path: str, data: str) -> bool:
    """Write ``data`` to ``path`` atomically; on failure say why on stderr
    and return False (the caller exits 74)."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".weaklab-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        print(f"weaklab: error writing {path}: {exc}", file=sys.stderr)
        return False
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return True


def _fmt_frac(x: Fraction) -> str:
    """Exact rendering; dyadic values with huge denominators print as
    n/2^k so thousand-digit fractions stay readable."""
    den = x.denominator
    if den.bit_count() == 1 and den.bit_length() > 20:
        exp = den.bit_length() - 1
        return f"2^-{exp}" if x.numerator == 1 else f"{x.numerator}/2^{exp}"
    return str(x)


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    return values


def _parse_tau(text: str) -> Fraction:
    # Fraction builds 10**exp for an exponent, in time that grows about
    # fourfold per doubling of exp
    if "e" in text.lower():
        raise argparse.ArgumentTypeError(f"exponent form not accepted: {text!r}")
    try:
        tau = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")
    if tau < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
    # the exact weakness score u**den << num*(m-k) grows with both terms
    if max(tau.numerator, tau.denominator) > 64:
        raise argparse.ArgumentTypeError(f"numerator or denominator above 64: {text!r}")
    return tau


def _int_from(least: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}: {text!r}")
        return value

    return parse


_positive_int = _int_from(1)
_count = _int_from(0)


def build_parser() -> _Parser:
    p = _Parser(prog="weaklab", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("experiment", help="run arithmetic generalisation trials")
    ex.add_argument("--op", choices=["add", "mul", "both"], default="both")
    ex.add_argument("--dk", type=_parse_int_list, default=(6, 10, 14),
                    metavar="LIST", help="comma-separated |D_k| values")
    ex.add_argument("--trials", type=_positive_int, default=200)
    ex.add_argument("--seed", default=None, help="master seed (any string)")
    ex.add_argument("--mode", choices=[arith.MODE_STATE, arith.MODE_PENALIZED],
                    default=arith.MODE_PENALIZED)
    ex.add_argument("--tau", type=_parse_tau, default=Fraction(1),
                    help="weakness term penalty (default 1), a decimal or p/q "
                    "rational without an exponent, numerator and denominator in "
                    "lowest terms at most 64; state mode is the tau -> 0 limit, and "
                    "tau 0 returns state mode's hypothesis")
    ex.add_argument("--budget", type=_positive_int, default=None,
                    help="search node budget per cover")
    ex.add_argument("--width", type=int, default=8, choices=[4, 8])
    ex.add_argument("--out", default=None, help="results file path")
    ex.add_argument("--format", choices=["csv", "table", "structured"],
                    default="csv", help="results file format")

    ve = sub.add_parser("verify", help="fixture checks and the exhaustive "
                        "weakness-optimality sweep on small languages")
    ve.add_argument("--max-states", type=_count, default=3,
                    help="sweep every language of at most min(this, 3) states and "
                    "--max-vocab predicates; above 3, also sweep 50 4-state languages "
                    "of 1 to --max-vocab + 1 predicates drawn by --seed (default 3)")
    ve.add_argument("--max-vocab", type=_count, default=3,
                    help="predicates per swept language (default 3)")
    ve.add_argument("--max-members", type=int, metavar="N",
                    choices=range(1, oracle.MAX_MEMBERS + 1),
                    default=oracle.DEFAULT_MAX_MEMBERS,
                    help="skip a language of more than N members, 1 to "
                    f"{oracle.MAX_MEMBERS} (default {oracle.DEFAULT_MAX_MEMBERS}); a census "
                    "sweep takes O(N·2^N) time and O(2^N) memory, up to about 4 s and "
                    "110 MB at 20 and twice that per member more")
    ve.add_argument("--seed", default="weaklab-verify")
    ve.add_argument("--out", default=None, help="structured report path")
    ve.add_argument("--format", choices=["table", "structured"], default="structured")

    ind = sub.add_parser("induce", help="induce a hypothesis for a task in a spec file")
    ind.add_argument("--spec", required=True, help="task-definition file")
    ind.add_argument("--task", required=True, help="task name")
    ind.add_argument("--proxy", choices=["weakness", "mdl"], default="weakness")
    ind.add_argument("--cap", type=_positive_int, default=specdsl.DEFAULT_LANGUAGE_CAP,
                     help="statements a derived language may hold; a derive also "
                     "stops once two levels' masks pass 256 MiB (states/8 B each)")
    ind.add_argument("--out", default=None, help="structured output path")
    ind.add_argument("--format", choices=["table", "structured"], default="table")
    return p


# ---------------------------------------------------------------------------
# experiment


def cmd_experiment(args) -> int:
    ops = ["add", "mul"] if args.op == "both" else [args.op]
    m_max = 16 if args.width == 8 else 4
    for m in args.dk:
        if not 1 <= m <= m_max:
            print(f"weaklab: error: --dk value {m} out of range 1..{m_max}",
                  file=sys.stderr)
            return EXIT_USAGE
    seed = args.seed
    if seed is None:
        seed = str(random.SystemRandom().randrange(2**32))
        print(f"# entropy seed (pass --seed {seed} to replay)")
    budget = args.budget if args.budget is not None else arith.DEFAULT_NODE_BUDGET
    report = arith.run_experiment(ops, args.dk, trials=args.trials, master_seed=seed,
                                  mode=args.mode, tau=args.tau, budget=budget, width=args.width)
    print(report.to_table(), end="")
    if args.out:
        if args.format == "csv":
            data = report.to_csv()
        elif args.format == "table":
            data = report.to_table()
        else:
            data = json.dumps(report.to_dict(), indent=2) + "\n"
        if not _write_out(args.out, data):
            return EXIT_IO
        print(f"# wrote {args.out}")
    flagged = sum(r.flagged for r in report.rows)
    if flagged:
        print(f"# {flagged} flagged trial(s): search budget exhausted, "
              "results include unproven covers")
        return EXIT_FLAGGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    out: dict = {}
    # fixture self-checks
    try:
        fx = oracle.divergence_fixture()
    except FixtureError as exc:
        print(f"fixture: FAIL ({exc})")
        return EXIT_VIOLATION
    fmt = fx.lang.format_statement
    fixture = out["fixture"] = {
        "models": [fmt(m) for m in fx.models],
        "weakness_winner": fmt(fx.weakness_winner),
        "mdl_winner": fmt(fx.mdl_winner),
        "weakness_values": {fmt(s): w for s, w in fx.weakness_values.items()},
        "passed": True,
    }
    print(f"fixture: PASS models={fixture['models']} "
          f"weakness->{fixture['weakness_winner']} mdl->{fixture['mdl_winner']}")

    cap = args.max_members
    try:
        fx_report = oracle.verify_weakness_optimality(fx.lang, max_members=cap)
    except CapacityError:
        # the fixture language is fixed, so only a larger cap lets it through
        print(f"capacity: the fixture language has {fx.lang.size} members, over "
              f"--max-members {cap}; raise --max-members to at least {fx.lang.size}",
              file=sys.stderr)
        return EXIT_CAPACITY
    try:
        sweep = [*oracle.all_derived_languages(min(args.max_states, 3), args.max_vocab)]
        if args.max_states > 3:
            sweep += oracle.sample_derived_languages(
                4, 50, seed=args.seed, max_vocab=args.max_vocab + 1, max_members=cap)
    except CapacityError as exc:
        print(f"capacity: {exc}; lower --max-states/--max-vocab", file=sys.stderr)
        return EXIT_CAPACITY
    out["fixture_language"] = {"census": fx_report.census_size, "tasks_checked":
                               fx_report.tasks_checked, "violations": len(fx_report.violations)}

    reports, swept, checked = [(fx.lang, fx_report)], {}, {}  # (language, its report) pairs
    for lang in sweep:  # a universe repeated in this call is checked once, a census swept once
        if lang.rows not in checked:
            try:
                checked[lang.rows] = oracle.verify_weakness_optimality(
                    lang, max_members=cap, swept=swept)
            except CapacityError:
                checked[lang.rows] = None
        if rep := checked[lang.rows]:  # one report shared by the languages of a universe
            reports.append((lang, rep))
    violations = []  # each language's labels on its universe's violations
    for lang, rep in [(lang, rep) for lang, rep in reports if rep.violations]:
        label = {"states": lang.space.size, "truth_tables": tuple(p.truth for p in lang.vocab)}
        if lang.mode == lattice.EXPLICIT:
            label["universe"] = tuple(map(lattice.row_members, lang.rows))
        violations += [{**label, **asdict(v)} for v in rep.violations]
    out["optimality"] = {
        "languages_checked": len(reports) - 1,
        "languages_skipped_over_cap": len(sweep) + 1 - len(reports),
        "tasks_checked": sum(rep.tasks_checked for _, rep in reports),
        "violations": violations,
        "violation_count": len(violations),
    }
    print("optimality: {languages_checked} languages, {tasks_checked} tasks, "
          "{violation_count} violations ({languages_skipped_over_cap} skipped "
          "over census cap)".format(**out["optimality"]))

    # prior reports for the two fixture languages
    tiny = oracle.tiny_language()
    out["prior_reports"] = {
        "tiny": _prior_rows(tiny),
        "divergence": _prior_rows(fx.lang),
    }
    for name, rows in out["prior_reports"].items():
        text = ", ".join(f"{r['anchor']}:{r['total']}" for r in rows[:4])
        print(f"prior[{name}]: {text}{', ...' if len(rows) > 4 else ''}")

    reproducer_path = None
    if violations:
        reproducer_path = os.path.abspath("weaklab-violations.json")
        if not _write_out(reproducer_path, json.dumps(violations, indent=2) + "\n"):
            return EXIT_IO
        print(f"VIOLATIONS FOUND; minimal reproducers: {reproducer_path}")
    out["violation_reproducer"] = reproducer_path

    if args.out:
        data = (
            json.dumps(out, indent=2, default=str) + "\n"
            if args.format == "structured"
            else _verify_table(out)
        )
        if not _write_out(args.out, data):
            return EXIT_IO
        print(f"# wrote {args.out}")
    return EXIT_VIOLATION if violations else EXIT_OK


def _prior_rows(lang) -> list[dict]:
    return [{"anchor": lang.format_statement(r.anchor), "family_size": len(r.members),
             "total": str(r.total)} for r in oracle.prior_report(lang)]


def _verify_table(out: dict) -> str:
    lines = [
        "fixture: PASS",  # a failing fixture exits before any file is written
        "optimality: languages={languages_checked} tasks={tasks_checked} "
        "violations={violation_count}".format(**out["optimality"]),
    ]
    for name, rows in out["prior_reports"].items():
        lines += [f"prior[{name}]:", *(f"  {r['anchor']}: {r['total']}" for r in rows)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# induce


def cmd_induce(args) -> int:
    try:
        with open(args.spec, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"weaklab: cannot read {args.spec}: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"{args.spec}: not valid UTF-8 ({exc})", file=sys.stderr)
        return EXIT_SPEC
    try:
        compiled = specdsl.compile_text(text, cap=args.cap)
    except specdsl.SpecError as exc:
        print(f"{args.spec}:{exc}", file=sys.stderr)
        return EXIT_SPEC
    except CapacityError as exc:  # the statement cap can be raised, the mask budget not
        hint = "; raise --cap" if exc.cap == args.cap else ""
        print(f"weaklab: {exc}{hint}", file=sys.stderr)
        return EXIT_CAPACITY
    for warning in compiled.warnings:
        print(f"{args.spec}:{warning}", file=sys.stderr)
    if args.task not in compiled.tasks:
        known = ", ".join(sorted(compiled.tasks)) or "(none)"
        print(f"weaklab: no task named {args.task!r}; spec defines: {known}",
              file=sys.stderr)
        return EXIT_USAGE
    task = compiled.tasks[args.task]
    lang = compiled.language
    try:
        h = induction.induce(task, args.proxy)
    except NoModelError:
        print("model set empty")
        return EXIT_NO_MODEL
    gen_p = induction.generalisation_probability(task, h)
    pri = induction.prior(lang, h)
    result = {
        "task": args.task,
        "proxy": args.proxy,
        "model": lang.format_statement(h),
        "weakness": lang.weakness(h),
        "description_length": len(h),
        "generalisation_probability": [gen_p.numerator, gen_p.denominator],
        "prior": [pri.numerator, pri.denominator],
        "model_count": len(task.models()),
    }
    structured = json.dumps(result, indent=2) + "\n"
    if args.format == "structured":
        print(structured, end="")
    else:
        print(f"task {args.task}: proxy={args.proxy}\n  model: {result['model']}\n"
              f"  weakness: {result['weakness']}\n"
              f"  description length: {result['description_length']}\n"
              f"  generalisation probability: {_fmt_frac(gen_p)}\n  prior: {_fmt_frac(pri)}\n"
              f"  (model set size {result['model_count']})\n", end="")
    if args.out and not _write_out(args.out, structured):
        return EXIT_IO
    return EXIT_OK


_parser = cache(build_parser)  # one parser per process, built by the first main


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    run = {"experiment": cmd_experiment, "verify": cmd_verify, "induce": cmd_induce}
    return run[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
