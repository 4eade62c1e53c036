import json
import re
import subprocess
import sys

import pytest

from weaklab import cli, oracle
from conftest import cli_env, spec_path


def run_cli(*argv):
    return cli.main(list(argv))


def run_proc(*argv):
    return subprocess.run(
        [sys.executable, "-m", "weaklab.cli", *argv],
        capture_output=True,
        text=True,
        env=cli_env(),
    )


# ---------------------------------------------------------------------------
# experiment


def test_experiment_csv_rows(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(
        "experiment", "--op", "add", "--dk", "4,8,16", "--trials", "2",
        "--seed", "7", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4  # header + one row per dk
    assert lines[0].startswith("op,dk,trials")


def test_experiment_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["experiment", "--op", "mul", "--dk", "4", "--trials", "3", "--seed", "11"]
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_experiment_control_cell_all_ones(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert run_cli(
        "experiment", "--op", "add", "--dk", "16", "--trials", "10",
        "--seed", "3", "--out", str(out),
    ) == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    assert row[3] == "1.000" and row[7] == "1.000"


def test_experiment_structured_format(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(
        "experiment", "--op", "add", "--dk", "16", "--trials", "2",
        "--seed", "1", "--format", "structured", "--out", str(out),
    ) == 0
    data = json.loads(out.read_text())
    assert data["rows"][0]["weakness"]["rate"] == [1, 1]


def test_experiment_entropy_seed_printed(capsys):
    assert run_cli("experiment", "--op", "add", "--dk", "16", "--trials", "1") == 0
    text = capsys.readouterr().out
    assert "entropy seed" in text


def test_experiment_flagged_exit_code(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code = run_cli(
        "experiment", "--op", "add", "--dk", "10", "--trials", "2",
        "--seed", "5", "--budget", "2", "--out", str(out),
    )
    assert code == 2
    assert out.exists()  # results still written


def test_experiment_bad_dk(capsys):
    assert run_cli("experiment", "--dk", "40", "--trials", "1") == 64


def test_experiment_io_failure(tmp_path, capsys):
    target = tmp_path / "nosuchdir" / "x.csv"
    code = run_cli(
        "experiment", "--op", "add", "--dk", "16", "--trials", "1",
        "--seed", "1", "--out", str(target),
    )
    assert code == 74
    assert not target.exists()


_OUT_CALLS = {
    "experiment": ["experiment", "--op", "add", "--dk", "16", "--trials", "1",
                   "--seed", "1"],
    "verify": ["verify", "--max-states", "1", "--max-vocab", "1"],
    "induce": ["induce", "--spec", spec_path("tiny.wl"), "--task", "t1"],
}


@pytest.mark.parametrize("command", sorted(_OUT_CALLS))
def test_out_is_written_atomically_or_exits_74(tmp_path, capsys, command):
    target = tmp_path / "out.txt"
    assert run_cli(*_OUT_CALLS[command], "--out", str(target)) == 0
    assert target.stat().st_size > 0
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]  # no temp file left
    # induce keeps stdout to its report, so only the others announce the file
    wrote = f"# wrote {target}" in capsys.readouterr().out
    assert wrote == (command != "induce")
    missing = tmp_path / "nosuchdir" / "out.txt"
    assert run_cli(*_OUT_CALLS[command], "--out", str(missing)) == 74
    assert "error writing" in capsys.readouterr().err
    assert not missing.parent.exists()


def test_usage_error_is_64():
    proc = run_proc("experiment", "--op", "bogus")
    assert proc.returncode == 64


def test_no_command_is_64():
    proc = run_proc()
    assert proc.returncode == 64


# superscript digits pass str.isdigit() but not int()
_BAD_DIGIT_SPECS = {
    "sup_width": "width \u00b2;\n",
    "sup_bit": "width 1;\npred p := b\u00b2;\n",
    "sup_name": "width 1;\npred b\u00b9 := b0;\n",
}

# formulas nested past specdsl.MAX_DEPTH, which once overflowed Python's
# recursion limit in the parser, the evaluator or the printer
_DEEP_SPECS = {
    "deep_parens": "width 1;\npred p := " + "(" * 300 + "b0" + ")" * 300 + ";\n",
    "deep_nots": "width 1;\npred p := " + "!" * 1000 + "b0;\n",
    "long_or": "width 1;\npred p := " + " | ".join(["b0"] * 1000) + ";\n",
}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["experiment", "--tau", "-1", "--trials", "1"], 64),
        (["experiment", "--budget", "-5", "--trials", "1"], 64),
        (["experiment", "--dk", ",", "--trials", "1"], 64),
        (["induce", "--spec", "{tiny}", "--task", "t1", "--cap", "0"], 64),
        (["induce", "--spec", "{tiny}", "--task", "t1", "--max-states", "3"], 64),
        (["induce", "--spec", "{not_utf8}", "--task", "t1"], 65),
        (["verify", "--census-cap", "100"], 75),
        (["verify", "--census-cap", "0"], 64),
        (["verify", "--census-cap", "-3"], 64),
        (["verify", "--samples-at", "0", "--max-states", "1"], 64),
        (["induce", "--spec", "{sup_width}", "--task", "t1"], 65),
        (["induce", "--spec", "{sup_bit}", "--task", "t1"], 65),
        (["induce", "--spec", "{sup_name}", "--task", "t1"], 65),
        (["induce", "--spec", "{deep_parens}", "--task", "t1"], 65),
        (["induce", "--spec", "{deep_nots}", "--task", "t1"], 65),
        (["induce", "--spec", "{long_or}", "--task", "t1"], 65),
        (["verify", "--max-vocab", "-1", "--max-states", "1"], 64),
        # more predicates asked for than one state has truth tables
        (["verify", "--max-states", "1", "--samples-at", "1", "--samples", "2"], 0),
        (["verify", "--max-states", "-1"], 64),
        (["verify", "--max-states", "1", "--samples", "-1"], 64),
    ],
)
def test_bad_input_ends_in_documented_code(tmp_path, argv, code):
    not_utf8 = tmp_path / "latin1.wl"
    not_utf8.write_bytes("width 1;\npred p := b0; # \xe9\n".encode("latin-1"))
    paths = {"tiny": spec_path("tiny.wl"), "not_utf8": str(not_utf8)}
    for name, text in {**_BAD_DIGIT_SPECS, **_DEEP_SPECS}.items():
        path = tmp_path / f"{name}.wl"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    proc = run_proc(*(a.format(**paths) for a in argv))
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 65 and "{not_utf8}" not in argv:
        assert re.search(r"\.wl:\d+:\d+: ", proc.stderr)  # a located SpecError
    if argv == ["verify", "--census-cap", "100"]:
        # only a larger cap admits the fixture language's census
        assert "raise --census-cap" in proc.stderr
        assert "--max-states" not in proc.stderr


# ---------------------------------------------------------------------------
# verify


def test_verify_defaults_clean(tmp_path, capsys):
    out = tmp_path / "v.json"
    code = run_cli(
        "verify", "--max-states", "2", "--max-vocab", "2", "--out", str(out)
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "fixture: PASS" in text
    assert "0 violations" in text
    data = json.loads(out.read_text())
    assert data["fixture"]["weakness_winner"] == "{j,k}"
    assert data["optimality"]["violation_count"] == 0
    tiny_rows = {r["anchor"]: r["total"] for r in data["prior_reports"]["tiny"]}
    assert tiny_rows == {"{}": "1", "{p}": "1/2", "{q}": "1/2"}


def test_verify_task_count_includes_the_fixture_language(tmp_path, capsys):
    # languages_checked counts the swept languages only; tasks_checked also
    # counts the fixture language's tasks
    out = tmp_path / "v.json"
    assert run_cli("verify", "--max-states", "2", "--max-vocab", "2",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    swept = [oracle.verify_weakness_optimality(lang)
             for lang in oracle.all_derived_languages(2, 2)]
    assert data["optimality"]["languages_checked"] == len(swept)
    assert data["optimality"]["tasks_checked"] == (
        data["fixture_language"]["tasks_checked"]
        + sum(rep.tasks_checked for rep in swept)
    )
    capsys.readouterr()
    assert run_cli("verify", "--max-states", "0", "--max-vocab", "0") == 0
    assert "optimality: 0 languages, 1520 tasks," in capsys.readouterr().out


def test_verify_trivial_caps(capsys):
    assert run_cli("verify", "--max-states", "1", "--max-vocab", "1") == 0


def test_verify_violation_path(tmp_path, capsys, monkeypatch):
    # no real language violates weakness optimality, so fake one violation
    # in the explicit fixture language and one in a derived language, to
    # exercise the reproducer dump and exit code
    from weaklab import Language, Predicate, StateSpace, Statement, Vocabulary
    from weaklab import lattice, oracle, cli as cli_mod

    real = oracle.verify_weakness_optimality
    tampered_langs = {}  # mode -> the one language given a fake violation

    def tampered(lang, **kwargs):
        rep = real(lang, **kwargs)
        if lang.mode == lattice.EXPLICIT:
            # members of the fixture's own statements, smallest first
            s = [st.members for st in lang.statements]
            rep.violations.append(oracle.Violation((s[-1],), (s[-1],), s[0], 0, s[1], 1))
            tampered_langs[lang.mode] = lang
        elif lang.space.size == 2 and lang.size >= 3 and lattice.DERIVED not in tampered_langs:
            # members of the derived language's own statements, largest first
            s = [st.members for st in reversed(lang.statements)]
            rep.violations.append(oracle.Violation((s[0],), (s[0], s[1]), s[0], 0, s[-1], 1))
            tampered_langs[lang.mode] = lang
        return rep

    monkeypatch.setattr(cli_mod.oracle, "verify_weakness_optimality", tampered)
    monkeypatch.chdir(tmp_path)
    code = run_cli("verify", "--max-states", "2", "--max-vocab", "2", "--out", "v.json")
    assert code == 1
    out = capsys.readouterr().out
    assert "VIOLATIONS FOUND" in out
    entries = json.loads((tmp_path / "weaklab-violations.json").read_text())
    assert entries == json.loads((tmp_path / "v.json").read_text())["optimality"]["violations"]
    fixture_entry, derived_entry = entries
    assert fixture_entry["states"] == 6 and "universe" not in derived_entry
    # both languages are rebuilt from the reproducer file alone: the explicit
    # fixture from its listed universe, the derived one from its tables
    for entry, original in zip(entries, tampered_langs.values()):
        space = StateSpace(tuple(f"s{i}" for i in range(entry["states"])))
        vocab = Vocabulary(
            tuple(Predicate(f"p{i}", t) for i, t in enumerate(entry["truth_tables"]))
        )
        if "universe" in entry:
            rebuilt = Language.explicit(space, vocab, map(Statement.of, entry["universe"]))
        else:
            rebuilt = Language.derive(space, vocab)
        assert rebuilt.mode == original.mode
        assert rebuilt.statements == original.statements
        members = [
            *entry["situations"], *entry["decisions"],
            entry["weak_model"], entry["best_model"],
        ]
        assert all(rebuilt.is_statement(Statement.of(m)) for m in members)


def test_experiment_width4(tmp_path):
    out = tmp_path / "w4.csv"
    code = run_cli(
        "experiment", "--op", "both", "--dk", "2,4", "--trials", "4",
        "--seed", "1", "--width", "4", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5
    # full-child control rows at width 4
    for line in lines[1:]:
        cells = line.split(",")
        if cells[1] == "4":
            assert cells[3] == "1.000" and cells[7] == "1.000"


def test_experiment_dk_out_of_range_width4():
    assert run_cli(
        "experiment", "--dk", "6", "--trials", "1", "--width", "4"
    ) == 64


# ---------------------------------------------------------------------------
# induce


def test_induce_weakness_winner(capsys):
    code = run_cli(
        "induce", "--spec", spec_path("divergence.wl"), "--task", "alpha",
        "--proxy", "weakness",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "model: {j,k}" in out
    assert "weakness: 5" in out
    assert "generalisation probability: 1/4" in out


def test_induce_mdl_winner_structured(capsys):
    code = run_cli(
        "induce", "--spec", spec_path("divergence.wl"), "--task", "alpha",
        "--proxy", "mdl", "--format", "structured",
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["model"] == "{z}"
    assert data["generalisation_probability"] == [1, 16]


def test_induce_empty_model_set(tmp_path, capsys):
    spec = tmp_path / "empty.wl"
    spec.write_text(
        "width 1;\npred p := b0;\npred q := !b0;\n"
        "task t { situations { {} } decisions { {p}, {q} } }\n"
    )
    code = run_cli("induce", "--spec", str(spec), "--task", "t")
    assert code == 1
    assert "model set empty" in capsys.readouterr().out


def test_induce_duplicate_truth_table_is_one_located_warning(tmp_path):
    spec = tmp_path / "dup.wl"
    spec.write_text(
        "width 1;\npred p := b0;\npred q := !!b0;\n"
        "task t { situations { {} } decisions { {p}, {p, q} } }\n"
    )
    proc = run_proc("induce", "--spec", str(spec), "--task", "t")
    assert proc.returncode == 0
    assert proc.stderr == (
        f"{spec}:3:6: warning: predicate 'q' has the same truth table as 'p'\n"
    )


def test_induce_compile_error_exit_65(tmp_path, capsys):
    spec = tmp_path / "bad.wl"
    spec.write_text("width 8;\npred x := b9;\n")
    code = run_cli("induce", "--spec", str(spec), "--task", "t")
    assert code == 65
    assert "width-violation" in capsys.readouterr().err


def test_induce_unknown_task(capsys):
    code = run_cli("induce", "--spec", spec_path("tiny.wl"), "--task", "nope")
    assert code == 64
    assert "t1" in capsys.readouterr().err


def test_induce_missing_file(capsys):
    assert run_cli("induce", "--spec", "/nonexistent.wl", "--task", "t") == 74


def test_induce_arith_child_task(capsys):
    code = run_cli(
        "induce", "--spec", spec_path("add8.wl"), "--task", "add_child",
        "--proxy", "weakness",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "model: {n3}" in out
    assert "weakness: 2187" in out  # 3^7 supersets of a single literal
    assert "generalisation probability: 2^-4370" in out


def test_induce_arith_parent_has_no_conjunctive_model(capsys):
    code = run_cli(
        "induce", "--spec", spec_path("add8.wl"), "--task", "add_parent"
    )
    assert code == 1
    assert "model set empty" in capsys.readouterr().out
