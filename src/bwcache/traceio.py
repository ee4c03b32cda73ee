"""The run records and the formats that export and ingest them.

A run is recorded as one ``StepDecision`` (with its ``Action``) per step,
gathered with the step timings into a ``RunTrace`` and reduced by
``metrics.summarize`` to a ``RunSummary``. This module defines all four next
to the formats that serialize them. Three text artifacts per run are
deterministic byte for byte given the same decisions: a per-step per-block
distance heatmap (CSV), a per-step reuse profile (CSV with one aggregate
footer line), and a JSON summary. Floats in the CSVs are printed with nine
significant digits, which round-trips through float() to the value that
reprints identically, so ingest/re-export is byte-stable. The final latent
can be dumped as a NumPy ``.npy`` format 1.0 file.

The heatmap is also the replay input format: a table recorded under the
all-compute policy has a distance for every block at every step except the
first executed one, and any policy can be re-decided against it offline.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np
from numpy.lib import format as npy

from bwcache.tensor import Tensor

if TYPE_CHECKING:
    from bwcache.cache import CachePolicyConfig
    from bwcache.model import ModelConfig

HEATMAP_HEADER = "step,block,l1_rel"
REUSE_HEADER = "step,reused"

SUMMARY_KEYS = (
    "config_fingerprint",
    "flops_saved",
    "psnr_db",
    "reuse_rate_blocks",
    "reuse_rate_steps",
    "ssim",
    "total_flops",
    "wall_seconds",
)
# Every summary key but the fingerprint is the RunSummary field of that name.
_SUMMARY_FIELDS = tuple(key for key in SUMMARY_KEYS if key != "config_fingerprint")
_FINGERPRINT = re.compile("[0-9a-f]{64}")


class TraceFormatError(ValueError):
    """Raised on malformed instrumentation files; messages name the line."""


class Action(str, Enum):
    COMPUTED = "computed"
    REUSED = "reused"


class StepDecision(NamedTuple):
    """What happened at one step, in execution order T-1 .. 0.

    An immutable named tuple: one is built at every step of every run, and a
    tuple builds in less than half the time of a frozen dataclass.
    """

    step: int
    action: Action
    per_block_l1: tuple[float, ...] | None
    mean_l1: float | None
    arl1: float | None


@dataclass
class RunTrace:
    """Everything one run recorded: the unit of replay and reporting.

    One decision and one timing per step in execution order, the
    fingerprint of the configs that produced them, and, for a live run, the
    final latent.
    """

    decisions: list[StepDecision]
    timings: list[float]
    config_fingerprint: str
    final_latent: Tensor | None = None

    def __post_init__(self):
        if len(self.timings) != len(self.decisions):
            raise ValueError("one timing per decision required")
        steps = [d.step for d in self.decisions]
        if steps != list(range(len(steps) - 1, -1, -1)):
            raise ValueError("decisions must cover steps T-1 .. 0 in execution order")


@dataclass(frozen=True)
class RunSummary:
    reuse_rate_blocks: float
    reuse_rate_steps: float
    total_flops: int
    flops_saved: int
    wall_seconds: float
    psnr_db: float | None
    ssim: float | None


def config_fingerprint(config: "ModelConfig", policy: "CachePolicyConfig") -> str:
    """sha256 over the canonical JSON form of (model config, policy).

    The seed fixes the initial latent, so the two configs name everything
    that selects a run's trajectory (the version-1 document).
    """
    doc = {
        "model": {
            "n_blocks": config.n_blocks,
            "hidden_dim": config.hidden_dim,
            "n_heads": config.n_heads,
            "frames": config.frames,
            "tokens_per_frame": config.tokens_per_frame,
            "steps": config.steps,
            "seed": config.seed,
        },
        "policy": {
            "kind": policy.kind.value,
            # + 0.0 turns -0.0 and an int delta into the float they equal.
            "delta": policy.delta + 0.0,
            "reuse_interval": policy.reuse_interval,
            "tail": policy.tail.canonical(),
            "static_stride": policy.static_stride,
        },
        "version": 1,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def write_heatmap(decisions: Sequence[StepDecision], n_blocks: int, path) -> None:
    """One row per (step, block); the distance field is empty where nothing
    was measured (reused steps and the first executed step)."""
    # One row template per block count and one % over the whole file: a
    # measured row takes (step, distance) per block, printed %s and %.9g.
    measured = "".join(f"%s,{b},%.9g\n" for b in range(n_blocks))
    empty = "".join(f"%s,{b},\n" for b in range(n_blocks))
    rows = [HEATMAP_HEADER + "\n"]
    args: list = []
    for d in decisions:
        if d.per_block_l1 is None:
            rows.append(empty)
            args += (d.step,) * n_blocks
        else:
            rows.append(measured)
            pairs = [d.step] * (2 * n_blocks)
            pairs[1::2] = d.per_block_l1  # refuses a row of another length
            args += pairs
    _write_text(path, "".join(rows) % tuple(args))


def read_heatmap(path) -> list[list[float | None]]:
    """Parse a heatmap back into execution-ordered per-step rows.

    Accepts the header, then the lines of a (T, N) table whose T is the
    first line's step plus one and whose N is that step's line count: each
    line, the last one too, ended by ``"\\n"`` (any other character, ``"\\r"``
    included, belongs to the line), its ``step,block`` text exactly as
    write_heatmap writes it, in its order, and each distance empty or a
    finite float >= 0 spelled in ASCII without whitespace or ``"_"``. An
    accepted file costs one split of its lines into fields, three
    comparisons of field columns with the table's, one scan of its text, one
    float() per cell and one range check; a refused one is walked line by
    line to name its first bad line.
    """
    # No newline translation, and the same text in every locale: a byte that
    # is not UTF-8 reads as a lone surrogate, which no line or cell may hold.
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as f:
        lines = f.read().split("\n")
    rest = lines.pop()  # what follows the last newline
    if rest:
        raise TraceFormatError(f"line {len(lines) + 1}: {rest[:40]!r} does not end in a newline")
    if not lines or lines[0] != HEATMAP_HEADER:
        raise TraceFormatError(f"line 1: expected header {HEATMAP_HEADER!r}")
    data = lines[1:]
    steps, n_blocks = _table_shape(data)
    try:
        # Only a table with as many lines as the file builds its columns.
        if not steps or len(data) != steps * n_blocks:
            raise ValueError
        text = ",\n,".join(data)
        # Lines of three fields split into step, block, cell and "\n" each,
        # the last line without its "\n".
        fields = text.split(",")
        step_col, block_col, ends = _heatmap_columns(steps, n_blocks)
        if not (
            len(fields) == 4 * len(data) - 1
            and fields[3::4] == ends
            and fields[0::4] == step_col
            and fields[1::4] == block_col
            and _plain(text)  # the keys are plain, so this checks the cells
        ):
            raise ValueError
        values = [float(cell) if cell else None for cell in fields[2::4]]
        measured = [v for v in values if v is not None]
        # min() may pass over a NaN, but any NaN or inf makes the sum NaN or inf.
        if measured and not (min(measured) >= 0.0 and sum(measured) < math.inf):
            raise ValueError
    except ValueError:
        # A walk that finds no bad line was sent here by finite distances
        # whose sum overflowed, and the values stand.
        _refuse(data, steps, n_blocks)
    return [values[i : i + n_blocks] for i in range(0, len(values), n_blocks)]


# What float() reads but write_heatmap never writes, other than non-ASCII
# text (digits of other scripts, Unicode spaces): the ASCII whitespace that
# it strips and the "_" that it drops between digits.
_FOREIGN = (" ", "\t", "\r", "\x0b", "\x0c", "_")


def _plain(text: str) -> bool:
    """Whether ``text`` is ASCII and holds none of the _FOREIGN characters."""
    return text.isascii() and not any(c in text for c in _FOREIGN)


def _table_shape(data: list[str]) -> tuple[int, int]:
    """(T, N): the first line's step plus one and that step's line count.

    (0, 0) when there is no first line or its step is not an integer >= 0.
    """
    first = data[0].partition(",")[0] if data else ""
    try:
        steps = int(first) + 1
    except ValueError:
        steps = 0
    if steps < 1:
        return 0, 0
    n_blocks = 1
    while n_blocks < len(data) and data[n_blocks].partition(",")[0] == first:
        n_blocks += 1
    return steps, n_blocks


@lru_cache(maxsize=16)
def _heatmap_columns(steps: int, n_blocks: int) -> tuple[list[str], list[str], list[str]]:
    """The step texts, block texts and line ends of a (steps, n_blocks) heatmap.

    Laid out as read_heatmap's split puts them, every fourth field, and
    lists so that they compare with its slices. Cached: a sweep reads tables
    of a few shapes over and over, and building the columns costs about as
    much as comparing them. Read only.
    """
    step_col = [str(s) for s in range(steps - 1, -1, -1) for _ in range(n_blocks)]
    block_col = [str(b) for b in range(n_blocks)] * steps
    return step_col, block_col, ["\n"] * (steps * n_blocks - 1)


def _refuse(data: list[str], steps: int, n_blocks: int) -> None:
    """Raise the error naming the first bad line of ``data``; return if none is.

    Line by line, the ``step,block`` text must be the next key of the
    (steps, n_blocks) table, the table must end with the file, and the cell
    must be empty or a finite float >= 0 that passes _plain. A table of 0
    steps fits no line.
    """
    for i, line in enumerate([*data, None]):  # None is the end of the file
        if i < steps * n_blocks:
            want = f"{steps - 1 - i // n_blocks},{i % n_blocks}"
        else:
            want = None if steps else "<step>,0"
        key, _, cell = (None, "", "") if line is None else line.rpartition(",")
        if key != want or not steps:
            expected = "end of file" if want is None else repr(f"{want},<distance>")
            if line is None:
                raise TraceFormatError(f"line {i + 1}: expected {expected} next, got end of file")
            raise TraceFormatError(f"line {i + 2}: expected {expected}, got {line!r}")
        if cell:
            try:
                if not _plain(cell):
                    raise ValueError
                value = float(cell)
            except ValueError:
                raise TraceFormatError(f"line {i + 2}: bad distance {cell!r}") from None
            if not math.isfinite(value):
                raise TraceFormatError(f"line {i + 2}: non-finite distance")
            if value < 0.0:
                raise TraceFormatError(f"line {i + 2}: negative distance {cell!r}")


def write_reuse_profile(decisions: Sequence[StepDecision], path) -> None:
    """Per-step reused flag plus a reuse-rate footer comment."""
    reused = Action.REUSED
    flags = [d.action is reused for d in decisions]
    rows = "".join(["%d,%d\n" % (d.step, flag) for d, flag in zip(decisions, flags)])
    rate = sum(flags) / len(flags) if flags else 0.0
    _write_text(path, REUSE_HEADER + "\n" + rows + "#reuse_rate_steps=%.9g\n" % rate)


def _is_real(value) -> bool:
    # bool is an int subclass, but true/false is never a count or a rate.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_summary(doc: dict) -> None:
    """Refuse a value that the summary schema does not allow, naming its key."""
    fingerprint = doc["config_fingerprint"]
    if not (isinstance(fingerprint, str) and _FINGERPRINT.fullmatch(fingerprint)):
        raise TraceFormatError(f"config_fingerprint {fingerprint!r} is not 64 hex digits")
    for key in ("total_flops", "flops_saved"):
        value = doc[key]
        if not (_is_real(value) and isinstance(value, int) and value >= 0):
            raise TraceFormatError(f"{key} {value!r} is not a non-negative integer")
    for key in ("reuse_rate_blocks", "reuse_rate_steps"):
        value = doc[key]
        if not (_is_real(value) and 0.0 <= value <= 1.0):
            raise TraceFormatError(f"{key} {value!r} outside [0, 1]")
    value = doc["wall_seconds"]
    if not (_is_real(value) and 0.0 <= value < math.inf):
        raise TraceFormatError(f"wall_seconds {value!r} is not finite and >= 0")
    for key, allowed in (("psnr_db", (None, "inf")), ("ssim", (None,))):
        value = doc[key]
        if not (value in allowed or (_is_real(value) and math.isfinite(value))):
            raise TraceFormatError(f"{key} {value!r} is not one of {allowed} or a finite number")


def write_summary(summary: RunSummary, fingerprint: str, path) -> None:
    """The SUMMARY_KEYS as stable JSON: 'inf' for an infinite psnr_db, sorted
    keys, two-space indent, no NaN, trailing newline."""
    doc = {key: getattr(summary, key) for key in _SUMMARY_FIELDS}
    doc["config_fingerprint"] = fingerprint
    if doc["psnr_db"] is not None and math.isinf(doc["psnr_db"]):
        doc["psnr_db"] = "inf"
    _check_summary(doc)
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as ASCII, creating or truncating the file.

    The bytes and the mode (0o666 less the umask) that ``Path.write_text``
    gives an ASCII text on POSIX, with one ``os.open`` and no text layer.
    """
    data = memoryview(text.encode("ascii"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data) :]
    finally:
        os.close(fd)


def read_summary(path) -> tuple[RunSummary, str]:
    """Inverse of write_summary; returns (RunSummary, fingerprint)."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"summary is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or set(doc) != set(SUMMARY_KEYS):
        raise TraceFormatError(f"summary must have exactly the keys {sorted(SUMMARY_KEYS)}")
    _check_summary(doc)
    fields = {key: doc[key] for key in _SUMMARY_FIELDS}
    if fields["psnr_db"] == "inf":
        fields["psnr_db"] = math.inf
    return RunSummary(**fields), doc["config_fingerprint"]


def write_latent(x: Tensor, path) -> None:
    """A NumPy ``.npy`` format 1.0 file in C order; ``np.load`` reads it.

    Any dtype but an object one is written; an object one is refused before
    the file is opened, so a refusal leaves no file behind.
    """
    x = np.ascontiguousarray(x)
    if x.dtype.hasobject:
        raise ValueError(f"Object arrays cannot be dumped as a latent (dtype {x.dtype})")
    with open(path, "wb") as f:
        npy.write_array(f, x, version=(1, 0), allow_pickle=False)


def read_latent(path) -> Tensor:
    """Read a latent dump, refusing anything write_latent does not write.

    The file must be ``.npy`` 1.0, its header within NumPy's header size
    bound, in C order, without objects or negative dims, and its payload
    exactly the bytes that shape and dtype call for, counted in Python ints
    before any array is built.
    """
    with open(path, "rb") as f:
        try:
            version = npy.read_magic(f)
            if version != (1, 0):
                raise ValueError(f"format version {version}, expected (1, 0)")
            shape, fortran_order, dtype = npy.read_array_header_1_0(f)
        except ValueError as exc:
            raise TraceFormatError(f"latent dump is not a .npy 1.0 file: {exc}") from None
        payload = f.read()
    if fortran_order or dtype.hasobject or min(shape, default=0) < 0:
        problem = f"shape {shape}, dtype {dtype}, fortran_order {fortran_order}"
        raise TraceFormatError(f"latent dump needs C order, no objects, dims >= 0; has {problem}")
    expected = math.prod(shape) * dtype.itemsize
    if len(payload) != expected:
        raise TraceFormatError(f"latent dump payload is {len(payload)} bytes, expected {expected}")
    return np.ndarray(shape, dtype, buffer=payload).copy()
