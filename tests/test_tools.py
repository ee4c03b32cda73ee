"""The scripts under ``tools/``: the code-line counter and the byte gate."""

from __future__ import annotations

import re
import sys
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from code_lines import code_lines  # noqa: E402
from export_digests import export_digests  # noqa: E402

# Counted by hand: lines 4, 9, 12 and 16-19 hold code (7 lines). The
# docstrings (lines 1-2, 10, 13-15), the comment line 6 and the blank lines
# do not count; the trailing comment on line 4 does not stop it counting,
# and the string on lines 16-18 is not a docstring, so all three count.
SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment

# a comment line


class Spam:
    """Class docstring."""

    def eggs(self):
        """Function docstring,

        over three lines."""
        text = """not a docstring:
        three lines,
        all code"""
        return text
'''


def test_code_lines_counts_only_lines_outside_docstrings_with_a_token():
    assert code_lines(SNIPPET) == 7


def test_export_digests_first_point_lines_and_replay_identities(tmp_path):
    """The first grid point (d=64, 4x16, seed 0) prints 16 generate lines, four
    files for each of the four policies, then 12 replay lines, three files
    each. A replay of the none table under none exports the none run's
    heatmap and reuse profile, and under static stride 2 the static run's
    reuse profile: those decisions do not depend on the live latent."""
    lines = list(islice(export_digests(tmp_path), 28))
    fields = [line.split(" ") for line in lines]
    assert all(len(f) == 6 for f in fields)
    assert all(re.fullmatch(r"[0-9a-f]{64}", f[5]) for f in fields)
    assert {(f[0], f[1], f[3]) for f in fields} == {("64", "4x16", "0")}
    digests = {(f[2], f[4]): f[5] for f in fields}
    exports = ["heatmap.npy", "latent.bin", "reuse_profile.csv", "summary.json"]
    policies = ["none", "default", "criterion-08", "static-2"]
    assert [(f[2], f[4]) for f in fields[:16]] == [(p, name) for p in policies for name in exports]
    assert [(f[2], f[4]) for f in fields[16:]] == [
        (f"replay-{p}", name) for p in policies for name in exports if name != "latent.bin"
    ]
    for name in ("heatmap.npy", "reuse_profile.csv"):
        assert digests["replay-none", name] == digests["none", name]
    assert digests["replay-static-2", "reuse_profile.csv"] == digests["static-2", "reuse_profile.csv"]
