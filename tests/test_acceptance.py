"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with -s to see them live).

Criteria 7 and 8 are implemented exactly as stated.  Two of their
sub-checks fail by construction of the pinned definitions and are left
red on purpose; the failure output explains the mechanism.  Everything
else must pass.
"""

import dataclasses
import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from weaklab import (
    Statement,
    arith,
    exclusive_family_sum,
    generalisation_probability,
    induce,
    minimize,
    oracle,
    prior,
    specdsl,
)
from conftest import cli_env, random_language, spec_path
from _oracles import (
    all_cubes_extents,
    enumerate_tasks,
    min_literals_search,
    naive_census_count,
)


import conftest


def _report(num: int, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


# ---------------------------------------------------------------------------
# 1. divergence fixture, exact, < 1s


def test_criterion_1_fixture_exact():
    t0 = time.time()
    fx = oracle.divergence_fixture()
    fmt = fx.lang.format_statement
    assert [fmt(m) for m in fx.task.models()] == ["{z}", "{j,k}"]
    assert fmt(induce(fx.task, "weakness")) == "{j,k}"
    assert fmt(induce(fx.task, "mdl")) == "{z}"
    assert fx.lang.weakness(fx.weakness_winner) == 5
    assert fx.lang.weakness(fx.mdl_winner) == 3
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, True, f"models/winners/weakness exact in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. lattice law suite, >= 1000 randomized languages, < 1 min


def test_criterion_2_lattice_laws():
    t0 = time.time()
    rng = random.Random("acceptance-laws")
    failures = 0
    n_langs = 1000
    for _ in range(n_langs):
        lang = random_language(rng, max_states=6, max_vocab=6)
        n = lang.size
        ext = lang.extension_masks()
        member_sets = [frozenset(s.members) for s in lang.statements]
        sats = [lang.sat_set(s) for s in lang.statements]
        for i in range(n):
            if not ext[i] >> i & 1:  # reflexivity
                failures += 1
            for j in range(n):
                if member_sets[i] <= member_sets[j]:
                    if ext[j] & ~ext[i]:  # antitone extension
                        failures += 1
                union = Statement.of(member_sets[i] | member_sets[j])
                if lang.is_statement(union):
                    if lang.sat_set(union) != sats[i] & sats[j]:
                        failures += 1
        if n and lang.weakness(Statement.of()) != n:
            failures += 1
    elapsed = time.time() - t0
    _report(2, failures == 0, f"{n_langs} languages, {failures} failures, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. theorem oracle, exhaustive <=3 plus sampled at 4, < 10 min


def test_criterion_3_theorem_oracle(tmp_path):
    t0 = time.time()
    langs = list(oracle.all_derived_languages(3, 3))
    assert len(langs) == 112
    sampled = oracle.sample_derived_languages(4, 50, seed="acceptance-oracle")
    reports = [oracle.verify_weakness_optimality(lang) for lang in langs + sampled]
    tasks_checked = sum(rep.tasks_checked for rep in reports)
    elapsed = time.time() - t0
    violations = [rep for rep in reports if rep.violations]
    if violations:
        path = tmp_path / "violations.json"
        payload = [
            {
                "states": rep.states,
                "truth_tables": rep.truth_tables,
                "violations": [dataclasses.asdict(v) for v in rep.violations],
            }
            for rep in violations
        ]
        path.write_text(json.dumps(payload, indent=2, default=str))
        _report(3, False, f"violations; reproducer at {path}")
        pytest.fail(f"weakness-optimality violations; reproducer: {path}")
    _report(
        3,
        True,
        f"{len(langs)} exhaustive + {len(sampled)} sampled languages, "
        f"{tasks_checked} tasks, 0 violations, {elapsed:.0f}s",
    )
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 4. formula values


def test_criterion_4_formula_values():
    fx = oracle.divergence_fixture()
    assert generalisation_probability(fx.task, fx.weakness_winner) == Fraction(1, 4)
    assert generalisation_probability(fx.task, fx.mdl_winner) == Fraction(1, 16)
    tiny = oracle.tiny_language()
    assert [prior(tiny, s) for s in tiny.statements] == [
        Fraction(1),
        Fraction(1, 4),
        Fraction(1, 4),
    ]
    totals = [exclusive_family_sum(tiny, s).total for s in tiny.statements]
    assert totals == [Fraction(1), Fraction(1, 2), Fraction(1, 2)]
    _report(4, True, "probabilities 1/4 and 1/16; priors 1, 1/4, 1/4; "
            "family totals 1, 1/2, 1/2 recorded")


# ---------------------------------------------------------------------------
# 5. task census


def test_criterion_5_census():
    tiny = oracle.tiny_language()
    census = enumerate_tasks(tiny)
    naive = naive_census_count([frozenset(s.members) for s in tiny.statements])
    assert census.count == naive == 26
    _report(5, True, "census 26 matches closed form")


# ---------------------------------------------------------------------------
# 6. minimizer correctness, < 5 min


def test_criterion_6_minimizer_exact():
    t0 = time.time()
    cubes3 = all_cubes_extents(3)
    checked = 0
    for assign in itertools.product((0, 1, 2), repeat=8):
        on = sum(1 << i for i, a in enumerate(assign) if a == 1)
        off = sum(1 << i for i, a in enumerate(assign) if a == 2)
        if on == 0:
            continue
        cov = minimize.min_literal_cover(3, on, off)
        assert cov.proven_optimal
        assert cov.sat & off == 0 and on & ~cov.sat == 0
        assert cov.literal_count == min_literals_search(3, on, off, cubes3)
        checked += 1
    t3 = time.time()
    cubes4 = all_cubes_extents(4)
    rng = random.Random("acceptance-minimizer")
    for _ in range(1000):
        labels = [rng.choice("oofdd") for _ in range(16)]
        on = sum(1 << i for i, l in enumerate(labels) if l == "o")
        off = sum(1 << i for i, l in enumerate(labels) if l == "f")
        if on == 0:
            on = 1 << rng.randrange(16)
            off &= ~on
        cov = minimize.min_literal_cover(4, on, off)
        assert cov.proven_optimal
        assert cov.sat & off == 0 and on & ~cov.sat == 0
        assert cov.literal_count == min_literals_search(4, on, off, cubes4)
    elapsed = time.time() - t0
    _report(
        6,
        True,
        f"{checked} full 3-var splits ({t3 - t0:.0f}s) + 1000 random 4-var "
        f"splits, all literal-minimal, {elapsed:.0f}s",
    )
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 7. state-weakness mode invariants


def test_criterion_7_state_mode_sweep():
    t0 = time.time()
    trials_per_cell = 100
    closed_form_failures = 0
    extent_failures = []
    for op in ("add", "mul"):
        for m in (6, 10, 14):
            for i in range(trials_per_cell):
                seed = f"acceptance-state|{op}|{m}|{i}"
                rng = random.Random(seed)
                bit = rng.randrange(8)
                task = arith.gen_parent_task(op, bit)
                child = arith.sample_child(task, m, rng)
                h = arith.weakest_model_state(child, mode="state")
                full = (1 << 256) - 1
                expected_sat = child.on | (full & ~child.reach_mask)
                if h.sat != expected_sat:
                    closed_form_failures += 1
                recon = arith.d_recon(task, h)
                extent = Fraction((recon & task.decisions_mask).bit_count(), 16)
                if extent != 1:
                    extent_failures.append((op, bit, m, str(extent)))
    # width-4 brute-force equivalence on 100 random child tasks
    rng = random.Random("acceptance-state-brute")
    brute_failures = 0
    for _ in range(100):
        op = rng.choice(["add", "mul"])
        bit = rng.randrange(4)
        task = arith.gen_parent_task(op, bit, width=4)
        child = arith.sample_child(task, rng.randint(1, 4), rng.random())
        h = arith.weakest_model_state(child, mode="state")
        best = max(
            cand.bit_count()
            for cand in range(1 << 16)
            if cand & child.reach_mask == child.decisions_mask
        )
        if h.sat.bit_count() != best:
            brute_failures += 1
    elapsed = time.time() - t0
    ok = not closed_form_failures and not extent_failures and not brute_failures
    detail = (
        f"closed-form failures {closed_form_failures}, "
        f"extent<1 trials {len(extent_failures)}, "
        f"width-4 brute failures {brute_failures}, {elapsed:.0f}s"
    )
    _report(7, ok, detail)
    assert closed_form_failures == 0
    assert brute_failures == 0
    if extent_failures:
        sample = ", ".join(map(str, extent_failures[:5]))
        pytest.fail(
            "extent(c_w) = 1 fails on mul trials where deleting an operand "
            "bit makes two correct strings share a situation: sampling one "
            "of them leaves the other in the child's OFF set, and every "
            "child model (the sat-maximal one included) must exclude it. "
            f"{len(extent_failures)} such trials, e.g. {sample}"
        )


# ---------------------------------------------------------------------------
# 8. reference-table reproduction, penalized mode, tau=1


# advisory reference targets for the two benchmark tables (rate_w, rate_mdl)
REFERENCE_RATES = {
    ("add", 6): (0.11, 0.10),
    ("add", 10): (0.27, 0.13),
    ("add", 14): (0.68, 0.24),
    ("mul", 6): (0.05, 0.01),
    ("mul", 10): (0.16, 0.08),
    ("mul", 14): (0.46, 0.21),
}


def test_criterion_8_table_reproduction():
    t0 = time.time()
    trials = 200
    rep = arith.run_experiment(
        ["add", "mul"],
        [6, 10, 14],
        trials=trials,
        master_seed="acceptance-tables",
        mode="penalized",
        tau=Fraction(1),
    )
    print()
    print(rep.to_table())
    hard_failures = []
    for row in rep.rows:
        if row.weak.rate < row.mdl.rate:
            hard_failures.append(
                f"rate_w {float(row.weak.rate):.3f} < rate_mdl "
                f"{float(row.mdl.rate):.3f} at ({row.op}, {row.dk})"
            )
        if row.weak.avg_extent < row.mdl.avg_extent:
            hard_failures.append(
                f"ext_w {float(row.weak.avg_extent):.3f} < ext_mdl "
                f"{float(row.mdl.avg_extent):.3f} at ({row.op}, {row.dk})"
            )
    w_only = sum(
        1 for t in rep.trial_results if t.weak.generalised and not t.mdl.generalised
    )
    l_only = sum(
        1 for t in rep.trial_results if t.mdl.generalised and not t.weak.generalised
    )
    z = (w_only - l_only) / math.sqrt(w_only + l_only) if w_only + l_only else 0.0
    print(f"paired aggregate: weakness-only {w_only}, mdl-only {l_only}, z = {z:.2f}")
    if z <= 1.645:
        hard_failures.append(
            f"aggregate rate difference not positive at 95% (z = {z:.2f}, "
            f"discordant pairs {w_only} vs {l_only})"
        )
    # soft criterion: per-cell rates within +-0.20 of reference (advisory)
    soft = []
    for row in rep.rows:
        ref_w, ref_mdl = REFERENCE_RATES[(row.op, row.dk)]
        dw = float(row.weak.rate) - ref_w
        dm = float(row.mdl.rate) - ref_mdl
        tag = "ok" if abs(dw) <= 0.20 and abs(dm) <= 0.20 else "DEVIATES"
        soft.append(f"({row.op},{row.dk}): dw={dw:+.2f} dm={dm:+.2f} {tag}")
    print("soft reference deviations (advisory): " + "; ".join(soft))
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    if hard_failures:
        _report(8, False, "; ".join(hard_failures))
        pytest.fail(
            "hard table criterion failed; the pinned surrogate (maximize "
            "log2|sat| - terms over prime covers vs exact minimum-literal "
            "covers) makes the two sides nearly coincide, and where they "
            "differ the raw-|sat| preference spreads cubes into unreachable "
            "states at the cost of structurally meaningful ones: "
            + "; ".join(hard_failures)
        )
    _report(8, True, f"all orderings hold, z = {z:.2f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. determinism and control cell


def test_criterion_9_determinism(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = [
        sys.executable, "-m", "weaklab.cli", "experiment",
        "--op", "both", "--dk", "6,16", "--trials", "5", "--seed", "99",
    ]
    run = dict(capture_output=True, text=True, env=cli_env())
    r1 = subprocess.run(args + ["--out", str(out_a)], **run)
    r2 = subprocess.run(args + ["--out", str(out_b)], **run)
    assert r1.returncode == 0 and r2.returncode == 0, (r1.stderr, r2.stderr)
    assert out_a.read_bytes() == out_b.read_bytes()
    control = [
        line.split(",")
        for line in out_a.read_text().strip().split("\n")[1:]
        if line.split(",")[1] == "16"
    ]
    assert control, "control cells missing"
    for row in control:
        assert row[3] == "1.000" and row[7] == "1.000"
    _report(9, True, "byte-identical runs; control cells rate 1.000/1.000")


# ---------------------------------------------------------------------------
# 10. DSL round-trip corpus and fixture-through-spec


def test_criterion_10_dsl():
    for name in ("tiny.wl", "divergence.wl", "add8.wl", "mul8.wl"):
        text = open(spec_path(name), encoding="utf-8").read()
        doc = specdsl.parse(text)
        printed = specdsl.print_document(doc)
        assert specdsl.parse(printed) == doc, name
        assert specdsl.print_document(specdsl.parse(printed)) == printed, name
    cs = specdsl.compile_text(open(spec_path("divergence.wl"), encoding="utf-8").read())
    task = cs.tasks["alpha"]
    fmt = cs.language.format_statement
    assert [fmt(m) for m in task.models()] == ["{z}", "{j,k}"]
    assert fmt(induce(task, "weakness")) == "{j,k}"
    assert fmt(induce(task, "mdl")) == "{z}"
    assert cs.language.weakness(induce(task, "weakness")) == 5
    assert cs.language.weakness(induce(task, "mdl")) == 3
    _report(10, True, "4-file corpus round-trips; fixture via spec matches")
