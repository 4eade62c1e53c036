"""The line ceiling on the package sources: src/ may only shrink."""

import glob
import os

from conftest import SRC_DIR

# `wc -l src/weaklab/*.py` may not rise above this
SRC_LINE_CEILING = 2939


def test_sources_stay_under_the_line_ceiling():
    paths = glob.glob(os.path.join(SRC_DIR, "weaklab", "*.py"))
    assert len(paths) > 1
    lines = {os.path.basename(p): open(p, "rb").read().count(b"\n") for p in paths}
    assert sum(lines.values()) <= SRC_LINE_CEILING, sorted(lines.items())
