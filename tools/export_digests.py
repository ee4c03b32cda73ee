"""Print the sha256 of every file that ``generate --deterministic`` and
``replay`` export.

The runs form a fixed grid: widths 64, 192, 256 and 320; a grid of 4
frames x 16 tokens (64 token rows) and one of 1 frame x 4 tokens; the
``none`` policy, the default policy, the criterion-08 policy (bwcache, delta
0.5, reuse interval 5, the third tail) and ``static`` with stride 2; seeds
0-2. Every other option takes its default, and generate has no step, block
or head flag. At each grid point, after its four ``generate`` runs, the
``none`` run's ``heatmap.npy`` is replayed under the same four policies,
with the point's width and frame grid.

Run as ``python3 tools/export_digests.py`` from any directory: it imports
``bwcache`` from the ``src/`` of the checkout that holds it, and writes the
exports to a temporary directory. Each line names one file as
``<width> <grid> <policy> <seed> <file> <sha256>`` for a ``generate`` run
and as ``<width> <grid> replay-<policy> <seed> <file> <sha256>`` for a
replay, so two checkouts are byte-identical on the grid when their outputs
are equal, which ``diff`` shows. The bytes are pinned on one numpy build
and one CPU dispatch target.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bwcache.cli import main as bwcache_main  # noqa: E402

WIDTHS = (64, 192, 256, 320)
GRIDS = {
    "4x16": ("--frames", "4", "--tokens", "16"),
    "1x4": ("--frames", "1", "--tokens", "4"),
}
POLICIES = {
    "none": ("--policy", "none"),
    "default": (),
    "criterion-08": ("--policy", "bwcache", "--delta", "0.5", "--reuse-interval", "5", "--tail", "third"),
    "static-2": ("--policy", "static", "--static-stride", "2"),
}
SEEDS = (0, 1, 2)


def run(tmp: Path, name: str, argv: list[str]):
    """Run ``bwcache`` with ``argv`` plus ``--out tmp/<name>`` and yield
    (file name, sha256) for each file it exports, in name order."""
    out = tmp / name
    argv = [*argv, "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = bwcache_main(argv)
    if code != 0:
        raise SystemExit(f"exit {code}: bwcache {' '.join(argv)}")
    for path in sorted(out.iterdir()):
        yield path.name, hashlib.sha256(path.read_bytes()).hexdigest()


def export_digests(tmp: Path):
    """Yield one line per exported file over the grid, exports under ``tmp``."""
    # Policies vary fastest, so the runs of one model share its build.
    for width, grid, seed in product(WIDTHS, GRIDS, SEEDS):
        point = f"d{width}-{grid}-seed{seed}"
        shape = ["--dim", str(width), *GRIDS[grid]]
        for policy in POLICIES:
            argv = ["generate", *shape, "--seed", str(seed), *POLICIES[policy], "--deterministic"]
            for name, digest in run(tmp, f"{point}-{policy}", argv):
                yield f"{width} {grid} {policy} {seed} {name} {digest}"
        heatmap = tmp / f"{point}-none" / "heatmap.npy"
        for policy in POLICIES:
            argv = ["replay", "--trace", str(heatmap), *shape, *POLICIES[policy]]
            for name, digest in run(tmp, f"{point}-replay-{policy}", argv):
                yield f"{width} {grid} replay-{policy} {seed} {name} {digest}"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for line in export_digests(Path(tmp)):
            print(line, flush=True)


if __name__ == "__main__":
    main()
