import dataclasses
import random
from fractions import Fraction

import pytest

from weaklab import arith
from weaklab.minimize import min_literal_cover
from _oracles import completions, score_cmp, wald_interval


# ---------------------------------------------------------------------------
# encoding and parent tasks


def test_encode_examples():
    assert format(arith.encode("add", 3, 3), "08b") == "11110110"
    assert format(arith.encode("mul", 3, 3), "08b") == "11111001"


def test_encode_width4():
    # 1-bit operands, 2-bit output: a=1,b=1 -> add 10, mul 01
    assert format(arith.encode("add", 1, 1, width=4), "04b") == "1110"
    assert format(arith.encode("mul", 1, 1, width=4), "04b") == "1101"


def test_delete_and_complete_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        state = rng.randrange(256)
        pos = rng.randrange(8)
        pat = arith.delete_position(state, pos, 8)
        assert state in completions(pat, pos, 8)
        s = format(state, "08b")
        assert format(pat, "07b") == s[:pos] + s[pos + 1 :]


def test_add_parent_structure_every_bit():
    for bit in range(8):
        t = arith.gen_parent_task("add", bit)
        assert len(t.decisions) == 16
        assert len(t.situations) == 16
        dset = set(t.decisions)
        for s in t.situations:
            pair = completions(s, bit, 8)
            assert len(pair) == 2
            assert sum(1 for p in pair if p in dset) == 1


def test_parent_task_is_shared_and_read_only():
    t = arith.gen_parent_task("mul", 5)
    assert arith.gen_parent_task("mul", 5) is t
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.situations = ()


def test_parent_arithmetic_invariant():
    for op in ("add", "mul"):
        t = arith.gen_parent_task(op, 0)
        for d in t.decisions:
            a = d >> 6
            b = (d >> 4) & 0b11
            out = d & 0b1111
            expected = (a + b if op == "add" else a * b) & 0b1111
            assert out == expected


def test_reach_covers_decisions():
    for op in ("add", "mul"):
        for bit in range(8):
            t = arith.gen_parent_task(op, bit)
            assert t.decisions_mask & ~t.reach_mask == 0


# ---------------------------------------------------------------------------
# child sampling


def test_child_full_subset_equals_parent():
    t = arith.gen_parent_task("add", 2)
    c = arith.sample_child(t, 16, seed=1)
    assert c.decisions == t.decisions
    assert c.situations == t.situations
    # one record serves both: the full child is the parent field for field
    assert c == t


def test_child_carries_parent_identity():
    for op, bit, width, m in (("add", 2, 8, 5), ("mul", 7, 8, 16), ("mul", 3, 4, 2)):
        t = arith.gen_parent_task(op, bit, width)
        c = arith.sample_child(t, m, seed=op)
        assert (c.op, c.width, c.deleted_bit) == (op, width, bit)
        assert len(c.decisions) == m


def test_child_sampling_deterministic():
    t = arith.gen_parent_task("mul", 5)
    a = arith.sample_child(t, 4, seed="s0")
    b = arith.sample_child(t, 4, seed="s0")
    assert a == b


def test_child_projection_cardinality():
    t = arith.gen_parent_task("add", 7)
    c = arith.sample_child(t, 14, seed=11)
    assert len(c.situations) <= 14
    assert c.decisions_mask & ~t.decisions_mask == 0


def test_child_m_out_of_range():
    t = arith.gen_parent_task("add", 0)
    with pytest.raises(ValueError):
        arith.sample_child(t, 0, seed=1)
    with pytest.raises(ValueError):
        arith.sample_child(t, 17, seed=1)


# ---------------------------------------------------------------------------
# state-weakness mode


def test_state_mode_closed_form():
    t = arith.gen_parent_task("add", 3)
    c = arith.sample_child(t, 2, seed=42)
    assert len(c.situations) == 2
    h = arith.weakest_model_state(c, mode="state")
    assert h.sat.bit_count() == 256 - c.reach_mask.bit_count() + 2
    assert h.sat & c.reach_mask == c.decisions_mask


def test_state_mode_brute_force_width4():
    rng = random.Random(99)
    for _ in range(15):
        op = rng.choice(["add", "mul"])
        bit = rng.randrange(4)
        t = arith.gen_parent_task(op, bit, width=4)
        m = rng.randint(1, 4)
        c = arith.sample_child(t, m, seed=rng.random())
        h = arith.weakest_model_state(c, mode="state")
        best = -1
        for cand in range(1 << 16):
            if cand & c.reach_mask == c.decisions_mask:
                best = max(best, cand.bit_count())
        assert h.sat.bit_count() == best
        assert h.sat == c.decisions_mask | (0xFFFF & ~c.reach_mask)


def test_state_mode_full_child_reconstructs():
    t = arith.gen_parent_task("mul", 1)
    c = arith.sample_child(t, 16, seed=5)
    h = arith.weakest_model_state(c, mode="state")
    assert arith.d_recon(t, h) == t.decisions_mask


# ---------------------------------------------------------------------------
# penalized and mdl models


def test_models_satisfy_model_condition():
    rng = random.Random(13)
    for _ in range(10):
        op = rng.choice(["add", "mul"])
        bit = rng.randrange(8)
        t = arith.gen_parent_task(op, bit)
        c = arith.sample_child(t, rng.randint(4, 14), seed=rng.random())
        for h in (
            arith.weakest_model_state(c, mode="penalized"),
            min_literal_cover(8, c.on, c.off()),
        ):
            assert h.sat & c.reach_mask == c.decisions_mask
            assert c.on & ~h.sat == 0


def test_d_recon_examples():
    from weaklab.minimize import exact_cover_of

    t = arith.gen_parent_task("add", 3)
    h = exact_cover_of(8, t.decisions_mask)
    assert arith.d_recon(t, h) == t.decisions_mask
    # empty-satisfaction hypothesis reconstructs nothing
    h0 = exact_cover_of(8, 0)
    assert arith.d_recon(t, h0) == 0


def test_state_mode_recon_superset():
    rng = random.Random(21)
    for _ in range(10):
        t = arith.gen_parent_task("add", rng.randrange(8))
        c = arith.sample_child(t, rng.randint(4, 14), seed=rng.random())
        h = arith.weakest_model_state(c, mode="state")
        recon = arith.d_recon(t, h)
        assert t.decisions_mask & ~recon == 0


# ---------------------------------------------------------------------------
# trials and experiments


def test_penalized_score_dominates_mdl_cover():
    # the mdl cover is drawn from the same prime universe, so a correct
    # weakness search can never score below it; and a minimum-literal cover
    # can never use more literals than the weakness selection
    rng = random.Random(47)
    for _ in range(30):
        op = rng.choice(["add", "mul"])
        bit = rng.randrange(8)
        t = arith.gen_parent_task(op, bit)
        c = arith.sample_child(t, rng.randint(4, 14), seed=rng.random())
        hw = arith.weakest_model_state(c, mode="penalized", budget=3_000_000)
        hl = min_literal_cover(8, c.on, c.off(), budget=3_000_000)
        if not (hw.proven_optimal and hl.proven_optimal):
            continue
        assert score_cmp(
            hl.sat.bit_count(), hl.term_count,
            hw.sat.bit_count(), hw.term_count, 1, 1,
        ) <= 0
        assert hl.literal_count <= hw.literal_count


def test_trial_full_child_generalises_both():
    res = arith.run_trial("add", 5, 16, seed="x", mode="penalized")
    assert res.weak.generalised and res.mdl.generalised
    assert res.weak.extent == 1 and res.mdl.extent == 1


def test_trial_deterministic():
    a = arith.run_trial("mul", 2, 8, seed="fixed", mode="penalized")
    b = arith.run_trial("mul", 2, 8, seed="fixed", mode="penalized")
    assert a == b


def test_state_mode_extent_add_always_one():
    rng = random.Random(31)
    for _ in range(12):
        res = arith.run_trial(
            "add", rng.randrange(8), rng.randint(4, 14), seed=rng.random(), mode="state"
        )
        assert res.weak.extent == 1


def test_state_mode_extent_is_maximum_possible():
    # A sampled child can trap an unsampled correct decision in its OFF set
    # (two mul strings may share a situation when an operand bit is deleted);
    # every child model must then exclude it.  The maximal model reaches
    # exactly the rest of the parent decisions.
    rng = random.Random(32)
    for _ in range(20):
        op = rng.choice(["add", "mul"])
        bit = rng.randrange(8)
        m = rng.randint(4, 14)
        t = arith.gen_parent_task(op, bit)
        c = arith.sample_child(t, m, seed=rng.random())
        h = arith.weakest_model_state(c, mode="state")
        trapped = (t.decisions_mask & c.off()).bit_count()
        recon = arith.d_recon(t, h)
        got = Fraction((recon & t.decisions_mask).bit_count(), 16)
        assert got == Fraction(16 - trapped, 16)
        if op == "add":
            assert trapped == 0


def test_wald_ci_reference_value():
    assert round(arith.wald_ci(0.68, 75), 3) == 0.106
    assert arith.wald_ci(0.68, 75) == pytest.approx(wald_interval(51, 75), abs=1e-9)
    assert arith.wald_ci(0.0, 10) == 0.0


def test_experiment_report_shape_and_determinism():
    kw = dict(trials=3, master_seed=5, width=8)
    rep1 = arith.run_experiment(["add"], [4, 16], **kw)
    rep2 = arith.run_experiment(["add"], [4, 16], **kw)
    assert rep1.to_csv() == rep2.to_csv()
    lines = rep1.to_csv().strip().split("\n")
    assert lines[0].startswith("op,dk,trials,rate_w")
    assert len(lines) == 3
    row16 = lines[2].split(",")
    assert row16[1] == "16"
    assert row16[3] == "1.000" and row16[7] == "1.000"


def test_experiment_structured_rationals():
    rep = arith.run_experiment(["mul"], [16], trials=2, master_seed=1)
    d = rep.to_dict()
    cell = d["rows"][0]
    assert cell["weakness"]["rate"] == [1, 1]
    assert cell["mdl"]["avg_extent"] == [1, 1]


def test_experiment_keeps_every_trial_record():
    # the report carries every TrialResult in seed order, and each row is
    # a recount of its cell's records
    rep = arith.run_experiment(["add", "mul"], [4, 6], trials=3, master_seed="rec")
    seeds = [
        arith.trial_seed("rec", op, m, i) for op in ("add", "mul") for m in (4, 6) for i in range(3)
    ]
    assert [t.seed for t in rep.trial_results] == seeds
    for k, row in enumerate(rep.rows):
        cell = rep.trial_results[3 * k : 3 * k + 3]
        assert {(t.op, t.m) for t in cell} == {(row.op, row.dk)}
        assert row.weak.rate == Fraction(sum(t.weak.generalised for t in cell), 3)
        assert row.mdl.rate == Fraction(sum(t.mdl.generalised for t in cell), 3)
        assert row.flagged == sum(t.weak.flagged or t.mdl.flagged for t in cell)


def test_experiment_aggregation_exact():
    rep = arith.run_experiment(["add"], [6], trials=5, master_seed="agg")
    row = rep.rows[0]
    assert 0 <= row.weak.rate <= 1
    assert isinstance(row.weak.avg_extent, Fraction)
    assert row.weak.ci >= 0 and row.weak.stderr >= 0
