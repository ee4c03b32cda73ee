"""The run records and the formats that export and ingest them.

A run is recorded as one ``StepDecision`` (with its ``Action``) per step,
gathered with the step timings into a ``RunTrace`` and reduced by
``metrics.summarize`` to a ``RunSummary``. This module defines all four next
to the formats that serialize them. Each export is deterministic byte for
byte given the same decisions: a per-step per-block distance heatmap, a
per-step reuse profile (CSV with one aggregate footer line) and a JSON
summary. The heatmap and the final latent are NumPy ``.npy`` format 1.0
files, written and read by one writer and one reader; the heatmap holds the
float64 distances themselves, so ingest and re-export are exact.

The heatmap is also the replay input format: a table recorded under the
all-compute policy has a distance for every block at every step except the
first executed one, and any policy can be re-decided against it offline.

A run's config fingerprint names its model config, the policy fields that
its policy kind reads and the code revision; a replay's also names the table
it read by the digest of its bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from tokenize import TokenError
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np
from numpy.lib import format as npy

from bwcache.tensor import Tensor

if TYPE_CHECKING:
    from bwcache.cache import CachePolicyConfig
    from bwcache.model import ModelConfig

REUSE_HEADER = "step,reused"

_FINGERPRINT = re.compile("[0-9a-f]{64}")
# The revision of what a config computes and of how it is named, hashed into
# every fingerprint: a change that moves the outputs or the fingerprint of an
# unchanged config bumps it. 1, float64 libm Box-Muller draws; 2, float32
# Box-Muller from IEEE-exact ops; 3, the same runs, each named by the policy
# fields its kind reads.
_REVISION = 3
# The policy fields that each kind's decisions never read, left out of its
# fingerprint. A field not named here is hashed, and a new kind is a KeyError
# until its unread fields are named.
_UNREAD = {
    "none": ("delta", "reuse_interval", "tail", "static_stride"),
    "static": ("delta", "reuse_interval", "tail"),
    "bwcache": ("static_stride",),
}


class TraceFormatError(ValueError):
    """Raised on a malformed instrumentation file; the message names what is wrong."""


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


# A summary holds these keys and config_fingerprint.
_SUMMARY_FIELDS = tuple(f.name for f in dataclasses.fields(RunSummary))


def config_fingerprint(config: "ModelConfig", policy: "CachePolicyConfig", table=None) -> str:
    """sha256 over the canonical JSON form of (model config, policy, revision),
    and for a replay the table it re-decided.

    The seed fixes the initial latent, so the model config and the policy
    fields that the policy's kind reads name everything that selects a live
    run's trajectory, and _REVISION names the code that computes it. The
    document holds every field of the model config, and every policy field
    that _UNREAD does not name for the kind, as the record holds it (a
    PolicyKind is a str, so JSON writes its value), with delta and tail in
    canonical form. So a field added to either record is hashed without a
    change here, and a field a kind never reads does not rename its runs. A
    replay's decisions come from its [T, N] float64 ``table``, not from a
    model, so its document also holds the sha256 of the table's bytes: a
    replay fingerprint names its table, and no live document has that key.
    """
    # vars, not dataclasses.asdict, which deep-copies and makes the tail a
    # dict. + 0.0 turns -0.0 and an int delta into the float they equal.
    fields = {**vars(policy), "delta": policy.delta + 0.0, "tail": policy.tail.canonical()}
    for name in _UNREAD[policy.kind.value]:
        del fields[name]
    doc = {"model": vars(config), "policy": fields, "revision": _REVISION}
    if table is not None:
        doc["table"] = hashlib.sha256(table).hexdigest()
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def write_heatmap(decisions: Sequence[StepDecision], n_blocks: int, path) -> None:
    """A [T, N] little-endian float64 table, one row per step in execution
    order, NaN where nothing was measured (reused steps and the first
    executed step)."""
    unmeasured = (math.nan,) * n_blocks
    rows = [unmeasured if d.per_block_l1 is None else d.per_block_l1 for d in decisions]
    # reshape refuses rows of another length that np.array took as a table.
    _write_npy(np.array(rows, dtype="<f8").reshape(len(rows), n_blocks), path)


def read_heatmap(path) -> np.ndarray:
    """The checked [T, N] little-endian float64 table of a write_heatmap file,
    in execution order, with NaN rows where nothing was measured.

    Beyond what _read_npy refuses, the table must be 2-d little-endian
    float64 with at least one step and one block, no cell may be infinite
    or negative, and a NaN must fill its row: a NaN beside measured cells
    is a distance that was not a number, not an unmeasured step.
    """
    remedy = "a heatmap is a .npy table now; record one with `bwcache generate --policy none`"
    table = _read_npy(path, "heatmap", remedy)
    if table.dtype != np.dtype("<f8") or table.ndim != 2 or 0 in table.shape:
        raise TraceFormatError(
            f"heatmap needs a [T, N] <f8 table with T, N >= 1; has {table.dtype} {table.shape}"
        )
    nan = np.isnan(table)
    bad = np.argwhere(np.isinf(table) | (table < 0.0) | (nan & ~nan.all(axis=1, keepdims=True)))
    if len(bad):
        i, block = bad[0]
        step = len(table) - 1 - i
        problem = f"distance {table[i, block]} at step {step}, block {block}"
        raise TraceFormatError(f"heatmap {problem} is not a finite number >= 0")
    return table


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
    """The RunSummary fields and config_fingerprint as stable JSON: 'inf' for
    an infinite psnr_db, sorted keys, two-space indent, no NaN, trailing
    newline."""
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
    keys = {*_SUMMARY_FIELDS, "config_fingerprint"}
    if not isinstance(doc, dict) or set(doc) != keys:
        raise TraceFormatError(f"summary must have exactly the keys {sorted(keys)}")
    _check_summary(doc)
    fields = {key: doc[key] for key in _SUMMARY_FIELDS}
    if fields["psnr_db"] == "inf":
        fields["psnr_db"] = math.inf
    return RunSummary(**fields), doc["config_fingerprint"]


def write_latent(x: Tensor, path) -> None:
    """A NumPy ``.npy`` format 1.0 file in C order; ``np.load`` reads it."""
    _write_npy(x, path)


def read_latent(path) -> Tensor:
    """Read a latent dump, refusing anything write_latent does not write."""
    return _read_npy(path, "latent dump", "write one with `bwcache generate`")


def _write_npy(x: np.ndarray, path) -> None:
    """``x`` as a ``.npy`` 1.0 file in C order.

    Any dtype but an object one is written; an object one is refused before
    the file is opened, so a refusal leaves no file behind.
    """
    x = np.ascontiguousarray(x)
    if x.dtype.hasobject:
        raise ValueError(f"Object arrays cannot be written as .npy (dtype {x.dtype})")
    with open(path, "wb") as f:
        npy.write_array(f, x, version=(1, 0), allow_pickle=False)


def _read_npy(path, what: str, remedy: str) -> np.ndarray:
    """The array of a ``.npy`` file, refusing anything _write_npy does not write.

    The file must be ``.npy`` 1.0, its header a dict that NumPy parses
    without repair and within its header size bound, in C order, without objects or negative dims, and its payload
    exactly the bytes that shape and dtype call for, counted in Python ints
    before any array is built. ``what`` names the file in every message, and
    ``remedy`` tells how to make one when the file is not ``.npy`` 1.0.
    """
    with open(path, "rb") as f, warnings.catch_warnings():
        # NumPy repairs a Python 2 header with a warning; _write_npy writes none.
        warnings.simplefilter("error")
        try:
            version = npy.read_magic(f)
            if version != (1, 0):
                raise ValueError(f"format version {version}, expected (1, 0)")
            shape, fortran_order, dtype = npy.read_array_header_1_0(f)
        # NumPy raises TypeError on a key that is not a str, sorting the keys
        # for its own message.
        except (ValueError, SyntaxError, TokenError, TypeError, UserWarning) as exc:
            raise TraceFormatError(f"{what} is not a .npy 1.0 file ({exc}); {remedy}") from None
        payload = f.read()
    if fortran_order or dtype.hasobject or min(shape, default=0) < 0:
        problem = f"shape {shape}, dtype {dtype}, fortran_order {fortran_order}"
        raise TraceFormatError(f"{what} needs C order, no objects, dims >= 0; has {problem}")
    expected = math.prod(shape) * dtype.itemsize
    if len(payload) != expected:
        raise TraceFormatError(f"{what} payload is {len(payload)} bytes, expected {expected}")
    return np.ndarray(shape, dtype, buffer=payload).copy()
