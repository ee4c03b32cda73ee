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
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

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


@dataclass(frozen=True)
class StepDecision:
    """What happened at one step, in execution order T-1 .. 0."""

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


def _fmt(value: float) -> str:
    return "%.9g" % value


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
    # One template per block count: the first % binds the step to every
    # line, the second prints the distances with the %.9g of _fmt.
    measured = "".join(f"%s,{b},%%.9g\n" for b in range(n_blocks))
    empty = "".join(f"%s,{b},\n" for b in range(n_blocks))
    rows = [HEATMAP_HEADER + "\n"]
    for d in decisions:
        steps = (d.step,) * n_blocks
        if d.per_block_l1 is None:
            rows.append(empty % steps)
        else:
            rows.append(measured % steps % tuple(d.per_block_l1))
    Path(path).write_text("".join(rows))


def read_heatmap(path) -> list[list[float | None]]:
    """Parse a heatmap back into execution-ordered per-step rows.

    Validates the header, the step ordering (contiguous, descending to 0),
    and the block numbering; distances must be finite and >= 0, or empty.
    A file spelled exactly as write_heatmap writes it passes one bulk check;
    any other file is parsed line by line, which accepts exactly the same
    files and words every refusal.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != HEATMAP_HEADER:
        raise TraceFormatError(f"line 1: expected header {HEATMAP_HEADER!r}")
    rows = _read_canonical(lines[1:])
    return rows if rows is not None else _read_lines(lines)


@lru_cache(maxsize=16)
def _heatmap_keys(steps: int, n_blocks: int) -> tuple[str, ...]:
    """The ``step,block`` text of every line of a (steps, n_blocks) heatmap.

    Cached: a sweep reads tables of a few shapes over and over, and building
    the keys costs about as much as comparing them.
    """
    return tuple(f"{s},{b}" for s in range(steps - 1, -1, -1) for b in range(n_blocks))


def _read_canonical(data: list[str]) -> list[list[float | None]] | None:
    """The rows of data lines in write_heatmap's spelling, or None for any other.

    The first line's step fixes the step count T and the line count then
    fixes the block count, so every line's text up to its last comma must
    equal the keys of that (T, N) table. Each cell is then one float(), and
    the measured cells are range-checked together. None sends the lines to
    _read_lines, which words the refusal if there is one.
    """
    try:
        steps = int(data[0].partition(",")[0]) + 1
    except (IndexError, ValueError):
        return None
    if steps < 1 or len(data) % steps != 0:
        return None
    n_blocks = len(data) // steps
    parts = [line.rpartition(",") for line in data]
    if tuple([key for key, _, _ in parts]) != _heatmap_keys(steps, n_blocks):
        return None
    try:
        values = [float(cell) if cell else None for _, _, cell in parts]
    except ValueError:
        return None
    measured = [v for v in values if v is not None]
    # min() may pass over a NaN, but any NaN or inf makes the sum NaN or inf.
    if measured and not (min(measured) >= 0.0 and sum(measured) < math.inf):
        return None
    return [values[i : i + n_blocks] for i in range(0, len(values), n_blocks)]


def _read_lines(lines: list[str]) -> list[list[float | None]]:
    """The line-wise parser of a heatmap whose header line has been checked."""
    triples: list[tuple[int, int, float | None, int]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise TraceFormatError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            step = int(parts[0])
            block = int(parts[1])
        except ValueError:
            raise TraceFormatError(f"line {lineno}: non-integer step or block") from None
        value: float | None = None
        if parts[2] != "":
            try:
                value = float(parts[2])
            except ValueError:
                raise TraceFormatError(f"line {lineno}: bad distance {parts[2]!r}") from None
            if not math.isfinite(value):
                raise TraceFormatError(f"line {lineno}: non-finite distance")
            if value < 0.0:
                raise TraceFormatError(f"line {lineno}: negative distance {parts[2]!r}")
        triples.append((step, block, value, lineno))
    if not triples:
        raise TraceFormatError("line 2: heatmap has no data rows")

    # The first step's group fixes the block count; every group must match it.
    first_step = triples[0][0]
    n_blocks = 0
    while n_blocks < len(triples) and triples[n_blocks][0] == first_step:
        n_blocks += 1
    if len(triples) % n_blocks != 0:
        raise TraceFormatError(f"line {triples[-1][3]}: truncated final step group")
    rows: list[list[float | None]] = []
    for g in range(len(triples) // n_blocks):
        want_step = first_step - g
        row: list[float | None] = []
        for b in range(n_blocks):
            step, block, value, lineno = triples[g * n_blocks + b]
            if step != want_step:
                raise TraceFormatError(f"line {lineno}: expected step {want_step}, got {step}")
            if block != b:
                raise TraceFormatError(f"line {lineno}: expected block {b}, got {block}")
            row.append(value)
        rows.append(row)
    if rows and triples[-1][0] != 0:
        raise TraceFormatError(
            f"line {triples[-1][3]}: trace must end at step 0, got {triples[-1][0]}"
        )
    return rows


def write_reuse_profile(decisions: Sequence[StepDecision], path) -> None:
    """Per-step reused flag plus a reuse-rate footer comment."""
    lines = [REUSE_HEADER]
    reused = 0
    for d in decisions:
        flag = 1 if d.action is Action.REUSED else 0
        reused += flag
        lines.append(f"{d.step},{flag}")
    rate = reused / len(decisions) if decisions else 0.0
    lines.append(f"#reuse_rate_steps={_fmt(rate)}")
    Path(path).write_text("\n".join(lines) + "\n")


def summary_doc(summary: RunSummary, fingerprint: str) -> dict:
    """The summary document: the SUMMARY_KEYS, 'inf' for an infinite psnr_db."""
    doc = {key: getattr(summary, key) for key in _SUMMARY_FIELDS}
    doc["config_fingerprint"] = fingerprint
    if doc["psnr_db"] is not None and math.isinf(doc["psnr_db"]):
        doc["psnr_db"] = "inf"
    _check_summary(doc)
    return doc


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


def write_json(doc: dict, path) -> None:
    """Stable JSON: sorted keys, two-space indent, no NaN, trailing newline."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def write_summary(summary: RunSummary, fingerprint: str, path) -> None:
    write_json(summary_doc(summary, fingerprint), path)


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
