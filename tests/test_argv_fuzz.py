"""Fuzz the argv boundary of `experiment`, `verify` and `induce`.

Each example is a subcommand with random flags, each given a valid or a
mutated value, now and then with a flag left without its value or an
unknown flag added.  Every run must end in a documented exit code with
no traceback.  Valid values stay small (--trials <= 2, --dk in {1, 2},
--max-states <= 2) so the whole test takes a few seconds.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from weaklab import cli
from conftest import spec_path

DOCUMENTED_EXITS = {0, 1, 2, 64, 65, 74, 75}

# placeholders, resolved to paths under a fresh directory per example
_OUT = (["{dir}/out.txt"], ["{dir}/missing/out.txt", "{dir}"])
_SEED = (["0", "7", "s", "", "é"], [])
_FORMAT = (["table", "structured"], ["x"])

# per subcommand: flag -> (valid values, mutated values)
_FLAGS = {
    "experiment": {
        "--op": (["add", "mul", "both"], ["sub", ""]),
        "--dk": (["1", "2", "1,2", "2,1"], [",", "0", "17", "-1", "x"]),
        "--trials": (["1", "2"], ["0", "-1", "x"]),
        "--seed": _SEED,
        "--mode": (["state", "penalized"], ["x"]),
        "--tau": (["1", "1/2", "0", "3/2"], ["-1", "1/0", "x"]),
        "--budget": (["1", "3", "1000"], ["0", "-5", "x"]),
        "--width": (["4", "8"], ["5", "x"]),
        "--out": _OUT,
        "--format": (["csv", "table", "structured"], ["x"]),
    },
    "verify": {
        "--max-states": (["0", "1", "2"], ["-1", "x"]),
        "--max-vocab": (["0", "1", "2", "3"], ["-1", "x"]),
        "--samples-at": (["1", "2"], ["0", "x"]),
        "--samples": (["0", "1", "2"], ["-1", "x"]),
        "--census-cap": (["1", "100", "20000"], ["0", "x"]),
        "--seed": _SEED,
        "--out": _OUT,
        "--format": _FORMAT,
    },
    "induce": {
        "--spec": (
            [spec_path(n) for n in ("tiny.wl", "divergence.wl", "add8.wl")],
            ["{dir}/missing.wl", "{dir}"],
        ),
        "--task": (["t1", "alpha", "add_child", "add_parent"], ["nope", ""]),
        "--proxy": (["weakness", "mdl"], ["x"]),
        "--cap": (["3", "20000"], ["0", "x"]),
        "--out": _OUT,
        "--format": _FORMAT,
    },
}
# small valid defaults, put first so that a drawn flag overrides them;
# without them most runs would stop at a missing flag or take the default
# 1,200-trial grid or 3-state sweep, and few would reach verify's sampling
_SMALL = {
    "experiment": ["--trials", "1", "--dk", "1"],
    "verify": ["--max-states", "1", "--samples-at", "1", "--samples", "2"],
    "induce": ["--spec", spec_path("tiny.wl"), "--task", "t1"],
}


def _argv(rng) -> list[str]:
    command = rng.choice(sorted(_FLAGS))
    flags = _FLAGS[command]
    argv = [command, *_SMALL[command]]
    for flag in rng.choices(sorted(flags), k=rng.randint(0, 5)):
        argv.append(flag)
        valid, mutated = flags[flag]
        if rng.random() < 0.05:
            continue  # the flag lacks its value
        argv.append(rng.choice(mutated if mutated and rng.random() < 0.2 else valid))
    if rng.random() < 0.1:
        argv.insert(rng.randint(1, len(argv)), "--bogus")
    return argv


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=True))
def test_argv_ends_in_documented_code(tmp_path_factory, rng):
    where = tmp_path_factory.mktemp("argv")
    argv = [a.replace("{dir}", str(where)) for a in _argv(rng)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in DOCUMENTED_EXITS, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
