"""Export and ingestion of run instrumentation.

Three text artifacts per run, all deterministic byte for byte given the same
decisions: a per-step per-block distance heatmap (CSV), a per-step reuse
profile (CSV with one aggregate footer line), and a JSON summary. Floats in
the CSVs are printed with nine significant digits, which round-trips through
float() to the value that reprints identically, so ingest/re-export is
byte-stable. The final latent can be dumped to a small self-describing
binary container.

The heatmap is also the replay input format: a table recorded under the
all-compute policy has a distance for every block at every step except the
first executed one, and any policy can be re-decided against it offline.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from bwcache.tensor import Tensor

if TYPE_CHECKING:
    from bwcache.cache import CachePolicyConfig, StepDecision
    from bwcache.metrics import RunSummary
    from bwcache.model import ModelConfig

HEATMAP_HEADER = "step,block,l1_rel"
REUSE_HEADER = "step,reused"
_LATENT_MAGIC = b"BWLATENT"
_LATENT_VERSION = 1
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}

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


class TraceFormatError(ValueError):
    """Raised on malformed instrumentation files; messages name the line."""


@dataclass
class RunTrace:
    """Everything one run recorded: the unit of replay and reporting."""

    decisions: list["StepDecision"]
    timings: list[float]
    config_fingerprint: str
    final_latent: Tensor | None = None
    feature_digests: list[tuple[str, ...]] | None = None

    def __post_init__(self):
        if len(self.timings) != len(self.decisions):
            raise ValueError("one timing per decision required")
        if self.feature_digests is not None and len(self.feature_digests) != len(self.decisions):
            raise ValueError("one digest tuple per decision required")
        steps = [d.step for d in self.decisions]
        if steps != list(range(len(steps) - 1, -1, -1)):
            raise ValueError("decisions must cover steps T-1 .. 0 in execution order")

    @property
    def total_steps(self) -> int:
        return len(self.decisions)


def _fmt(value: float) -> str:
    return "%.9g" % value


def config_fingerprint(
    config: "ModelConfig", policy: "CachePolicyConfig", initial_latent: Tensor | None = None
) -> str:
    """sha256 over the canonical JSON form of (model config, policy).

    A run that starts from a given ``initial_latent`` instead of the seeded
    one adds an ``initial_latent`` key: the blake2b-128 digest of its dtype,
    shape and bytes. Without one the document has no such key, so runs from
    the seeded latent hash exactly the version-1 document.
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
            "delta": policy.delta,
            "reuse_interval": policy.reuse_interval,
            "tail": policy.tail.canonical(),
            "static_stride": policy.static_stride,
        },
        "version": 1,
    }
    if initial_latent is not None:
        doc["initial_latent"] = _latent_digest(initial_latent)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _latent_digest(x: Tensor) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(json.dumps([x.dtype.str, list(x.shape)]).encode("ascii"))
    h.update(x.tobytes())
    return h.hexdigest()


def write_heatmap(decisions: Sequence["StepDecision"], n_blocks: int, path) -> None:
    """One row per (step, block); the distance field is empty where nothing
    was measured (reused steps and the first executed step)."""
    lines = [HEATMAP_HEADER]
    for d in decisions:
        values = d.per_block_l1
        for b in range(n_blocks):
            cell = _fmt(values[b]) if values is not None else ""
            lines.append(f"{d.step},{b},{cell}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_heatmap(path) -> list[list[float | None]]:
    """Parse a heatmap back into execution-ordered per-step rows.

    Validates the header, the step ordering (contiguous, descending to 0),
    and the block numbering; distances must be finite or empty.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != HEATMAP_HEADER:
        raise TraceFormatError(f"line 1: expected header {HEATMAP_HEADER!r}")
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


def write_reuse_profile(decisions: Sequence["StepDecision"], path) -> None:
    """Per-step reused flag plus a reuse-rate footer comment."""
    from bwcache.cache import Action

    lines = [REUSE_HEADER]
    reused = 0
    for d in decisions:
        flag = 1 if d.action is Action.REUSED else 0
        reused += flag
        lines.append(f"{d.step},{flag}")
    rate = reused / len(decisions) if decisions else 0.0
    lines.append(f"#reuse_rate_steps={_fmt(rate)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary(summary: "RunSummary", fingerprint: str, path) -> None:
    """Stable JSON: sorted keys, fixed key set, 'inf' sentinel for psnr_db."""
    psnr: float | str | None = summary.psnr_db
    if psnr is not None and math.isinf(psnr):
        psnr = "inf"
    doc = {
        "config_fingerprint": fingerprint,
        "flops_saved": summary.flops_saved,
        "psnr_db": psnr,
        "reuse_rate_blocks": summary.reuse_rate_blocks,
        "reuse_rate_steps": summary.reuse_rate_steps,
        "ssim": summary.ssim,
        "total_flops": summary.total_flops,
        "wall_seconds": summary.wall_seconds,
    }
    for key in ("reuse_rate_blocks", "reuse_rate_steps"):
        if not 0.0 <= doc[key] <= 1.0:
            raise ValueError(f"{key} {doc[key]} outside [0, 1]")
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def read_summary(path):
    """Inverse of write_summary; returns (RunSummary, fingerprint)."""
    from bwcache.metrics import RunSummary

    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"summary is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or set(doc) != set(SUMMARY_KEYS):
        raise TraceFormatError(f"summary must have exactly the keys {sorted(SUMMARY_KEYS)}")
    psnr = doc["psnr_db"]
    if psnr == "inf":
        psnr = math.inf
    summary = RunSummary(
        reuse_rate_blocks=doc["reuse_rate_blocks"],
        reuse_rate_steps=doc["reuse_rate_steps"],
        total_flops=doc["total_flops"],
        flops_saved=doc["flops_saved"],
        wall_seconds=doc["wall_seconds"],
        psnr_db=psnr,
        ssim=doc["ssim"],
    )
    return summary, doc["config_fingerprint"]


def write_latent(x: Tensor, path) -> None:
    """Little-endian container: magic, version, dtype code, dims, raw data."""
    if x.dtype == np.float32:
        code = 1
    elif x.dtype == np.float64:
        code = 2
    else:
        raise ValueError(f"unsupported latent dtype {x.dtype}")
    header = _LATENT_MAGIC + struct.pack("<HBB", _LATENT_VERSION, code, x.ndim)
    dims = struct.pack(f"<{x.ndim}Q", *x.shape)
    Path(path).write_bytes(header + dims + np.ascontiguousarray(x).tobytes())


def read_latent(path) -> Tensor:
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:8] != _LATENT_MAGIC:
        raise TraceFormatError("not a latent dump (bad magic)")
    version, code, ndim = struct.unpack("<HBB", blob[8:12])
    if version != _LATENT_VERSION:
        raise TraceFormatError(f"unsupported latent version {version}")
    if code not in _DTYPE_CODES:
        raise TraceFormatError(f"unsupported latent dtype code {code}")
    offset = 12 + 8 * ndim
    if len(blob) < offset:
        raise TraceFormatError("latent dump truncated in dimension table")
    shape = struct.unpack(f"<{ndim}Q", blob[12:offset])
    dtype = _DTYPE_CODES[code]
    expected = int(np.prod(shape)) * dtype.itemsize if ndim else dtype.itemsize
    if len(blob) - offset != expected:
        raise TraceFormatError(
            f"latent dump payload is {len(blob) - offset} bytes, expected {expected}"
        )
    return np.frombuffer(blob[offset:], dtype=dtype).reshape(shape).copy()
