import os
import random

import pytest

from weaklab import Language, Predicate, StateSpace, Vocabulary, oracle

SPEC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "specs")
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

# filled by test_acceptance._report; echoed after the run so the one-line
# criterion verdicts survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def tiny():
    return oracle.tiny_language()


@pytest.fixture(scope="session")
def fx():
    return oracle.divergence_fixture()


def cli_env() -> dict[str, str]:
    """The environment with this checkout's ``src/`` first on PYTHONPATH, so
    that a ``python -m weaklab.cli`` subprocess runs the sources under test,
    as pytest's own ``pythonpath`` setting does for the test process."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC_DIR + (os.pathsep + path if path else "")}


def spec_path(name: str) -> str:
    return os.path.abspath(os.path.join(SPEC_DIR, name))


def random_language(rng: random.Random, max_states: int = 5, max_vocab: int = 5) -> Language:
    """Seeded random derived language; duplicate truth tables allowed."""
    n = rng.randint(1, max_states)
    k = rng.randint(0, max_vocab)
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    preds = tuple(Predicate(f"p{i}", rng.randrange(1 << n)) for i in range(k))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vocab = Vocabulary(preds)
        return Language.derive(space, vocab)
