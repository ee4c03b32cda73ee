"""Export format tests: byte-stable writes, validating reads, exact errors."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import io
import math
import os
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.lib import format as npy

from bwcache.cache import (
    Action,
    CachePolicyConfig,
    PolicyKind,
    StepDecision,
    TailRule,
    replay_trace,
    run_policy,
)
from bwcache import traceio
from bwcache.metrics import RunSummary, summarize
from bwcache.model import ModelConfig
from bwcache.traceio import (
    REUSE_HEADER,
    RunTrace,
    TraceFormatError,
    config_fingerprint,
    read_heatmap,
    read_latent,
    read_summary,
    write_heatmap,
    write_latent,
    write_reuse_profile,
    write_summary,
)
from test_cache import policy_strategy, rows_strategy, tail_strategy


def make_decisions():
    """Three steps, two blocks: computed, reused, computed."""
    return [
        StepDecision(2, Action.COMPUTED, None, None, None),
        StepDecision(1, Action.REUSED, None, None, None),
        StepDecision(0, Action.COMPUTED, (0.125, 0.25), 0.1875, 0.375),
    ]


def npy_header(shape, descr="<f4", fortran_order=False, version=(1, 0)) -> bytes:
    """A .npy header as NumPy writes it, for any shape, dtype and order."""
    f = io.BytesIO()
    write = npy.write_array_header_1_0 if version == (1, 0) else npy.write_array_header_2_0
    write(f, {"descr": descr, "fortran_order": fortran_order, "shape": shape})
    return f.getvalue()


def line_wise_reuse_profile_text(decisions) -> str:
    """The reuse profile as one f-string per step.

    A frozen copy of the original ``write_reuse_profile`` body, kept as the
    reference for the joined writer.
    """
    lines = [REUSE_HEADER]
    reused = 0
    for d in decisions:
        flag = 1 if d.action is Action.REUSED else 0
        reused += flag
        lines.append(f"{d.step},{flag}")
    rate = reused / len(decisions) if decisions else 0.0
    lines.append("#reuse_rate_steps=%.9g" % rate)
    return "\n".join(lines) + "\n"


def line_wise_heatmap_bytes(decisions, n_blocks: int) -> bytes:
    """The heatmap as np.save writes a table filled in one row per step,
    the reference for the writer."""
    table = np.empty((len(decisions), n_blocks), dtype="<f8")
    for i, d in enumerate(decisions):
        table[i] = math.nan if d.per_block_l1 is None else d.per_block_l1
    f = io.BytesIO()
    np.save(f, table, allow_pickle=False)
    return f.getvalue()


def line_wise_read_heatmap(path) -> np.ndarray:
    """A heatmap's table as np.load reads it, checked one row at a time:
    the reference for the reader. Raises ValueError on what it refuses."""
    raw = Path(path).read_bytes()
    table = np.load(io.BytesIO(raw), allow_pickle=False)
    if raw[6:8] != b"\x01\x00":
        raise ValueError("not .npy 1.0")
    header_end = 10 + int.from_bytes(raw[8:10], "little")
    if b"'fortran_order': True" in raw[:header_end]:
        raise ValueError("Fortran order")
    if table.dtype.str != "<f8" or table.ndim != 2 or 0 in table.shape:
        raise ValueError("not a [T, N] <f8 table with T, N >= 1")
    if len(raw) != header_end + table.nbytes:
        raise ValueError("payload size")
    for step, row in zip(range(len(table) - 1, -1, -1), table.tolist()):
        if not (all(math.isnan(v) for v in row) or all(0.0 <= v < math.inf for v in row)):
            raise ValueError(f"bad distance at step {step}")
    return table


def outcome(read, path):
    """A reader's table as its dtype, shape and bytes, or the message it refused with."""
    try:
        table = read(path)
    except Exception as exc:  # noqa: BLE001 - the references raise what NumPy raises
        return ("refused", str(exc))
    return [table.dtype.str, table.shape, table.tobytes()]


# Distances at the edges of float64: zero, the least subnormal, a tiny
# normal, a repeating binary fraction, an integer beyond nine digits and the
# largest finite float.
EDGE_DISTANCES = (0.0, 5e-324, 1e-300, 1 / 3, 1e16, 1.7976931348623157e308)


@st.composite
def heatmap_decisions(draw):
    """(decisions, n_blocks): T 2-40 steps of N 1-12 blocks, some rows unmeasured."""
    steps = draw(st.integers(min_value=2, max_value=40))
    n_blocks = draw(st.integers(min_value=1, max_value=12))
    distance = st.sampled_from(EDGE_DISTANCES) | st.floats(
        min_value=0.0, allow_nan=False, allow_infinity=False
    )
    row = st.none() | st.tuples(*[distance] * n_blocks)
    decisions = []
    for step in range(steps - 1, -1, -1):
        values = draw(row)
        action = Action.REUSED if values is None else Action.COMPUTED
        decisions.append(StepDecision(step, action, values, None, None))
    return decisions, n_blocks


@st.composite
def heatmap_files(draw):
    """The bytes of a write_heatmap table, then possibly one change: a cell
    set to a value the writer never writes, a payload cut or grown by 1-16
    bytes, or any one byte overwritten."""
    decisions, n_blocks = draw(heatmap_decisions())
    raw = bytearray(line_wise_heatmap_bytes(decisions, n_blocks))
    payload = len(raw) - 8 * len(decisions) * n_blocks
    change = draw(st.sampled_from(["none", "cell", "cut", "grow", "byte"]))
    if change == "cell":
        at = payload + 8 * draw(st.integers(0, len(decisions) * n_blocks - 1))
        value = draw(st.sampled_from([-0.5, -0.0, math.nan, math.inf, -math.inf, -5e-324]))
        raw[at:at + 8] = struct.pack("<d", value)
    elif change == "cut":
        del raw[len(raw) - draw(st.integers(1, 16)):]
    elif change == "grow":
        raw += bytes(draw(st.integers(1, 16)))
    elif change == "byte":
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    return bytes(raw)


BYTES_KEY_HEATMAP = (
    npy_header((2, 1), "<f8").replace(b" 'fortran_order'", b"B'fortran_order'")
    + struct.pack("<2d", math.nan, 0.5)
)


def make_summary(**overrides):
    base = dict(
        reuse_rate_blocks=0.25,
        reuse_rate_steps=0.25,
        total_flops=1000,
        flops_saved=200,
        wall_seconds=0.5,
        psnr_db=42.0,
        ssim=0.99,
    )
    base.update(overrides)
    return RunSummary(**base)


class TestHeatmap:
    def test_write_produces_expected_bytes(self, tmp_path):
        """A C-order [3, 2] little-endian float64 .npy 1.0 table, NaN at the
        unmeasured steps, spelled out from the .npy 1.0 layout: magic,
        version, header length, a header dict padded to 64-byte alignment."""
        path = tmp_path / "h.npy"
        write_heatmap(make_decisions(), 2, path)
        header = "{'descr': '<f8', 'fortran_order': False, 'shape': (3, 2), }".ljust(117) + "\n"
        cells = struct.pack("<6d", *[math.nan] * 4, 0.125, 0.25)
        want = b"\x93NUMPY\x01\x00" + struct.pack("<H", 118) + header.encode("ascii") + cells
        assert path.read_bytes() == want

    def test_round_trip_preserves_values_and_gaps(self, tmp_path):
        path = tmp_path / "h.npy"
        write_heatmap(make_decisions(), 2, path)
        table = read_heatmap(path)
        assert table.dtype.str == "<f8" and table.shape == (3, 2)
        assert np.isnan(table).tolist() == [[True, True], [True, True], [False, False]]
        assert table[2].tolist() == [0.125, 0.25]

    def test_reexport_is_byte_identical(self, tmp_path):
        """write -> read -> write is the identity."""
        decisions = [
            StepDecision(1, Action.COMPUTED, None, None, None),
            StepDecision(0, Action.COMPUTED, (1 / 3, 0.1, 2.5e-7), 0.0, 0.0),
        ]
        a = tmp_path / "a.npy"
        b = tmp_path / "b.npy"
        write_heatmap(decisions, 3, a)
        rows = read_heatmap(a)
        reparsed = [
            StepDecision(1, Action.COMPUTED, None, None, None),
            StepDecision(0, Action.COMPUTED, tuple(rows[1]), 0.0, 0.0),
        ]
        write_heatmap(reparsed, 3, b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_required(self, tmp_path):
        """A CSV heatmap of the retired text format has no .npy header; the
        refusal says how to record a table now."""
        path = tmp_path / "h.csv"
        path.write_text("step,block,l1_rel\n1,0,\n0,0,0.1\n")
        message = "heatmap is not a .npy 1.0 file .*generate --policy none"
        with pytest.raises(TraceFormatError, match=message):
            read_heatmap(path)

    def test_bad_field_count_names_line(self, tmp_path):
        """A table whose cells carry the three CSV fields step, block and
        l1_rel, as np.save writes a record array, is refused naming them."""
        path = tmp_path / "h.npy"
        fields = [("step", "<i8"), ("block", "<i8"), ("l1_rel", "<f8")]
        np.save(path, np.array([(1, 0, 0.1), (0, 0, 0.1)], dtype=fields), allow_pickle=False)
        with pytest.raises(TraceFormatError, match=r"<f8 table .*\('l1_rel', '<f8'\)\] \(2,\)"):
            read_heatmap(path)

    def test_wrong_block_order_names_line(self, tmp_path):
        """A Fortran-order table, whose payload runs block by block instead
        of step by step, is refused before any cell is read."""
        path = tmp_path / "h.npy"
        np.save(path, np.asfortranarray([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]), allow_pickle=False)
        with pytest.raises(TraceFormatError, match=r"needs C order.* fortran_order True"):
            read_heatmap(path)

    def test_non_contiguous_steps_rejected(self, tmp_path):
        """The rows of steps 3 and 1 alone, under a header that counts the
        four steps 3 to 0, are refused by their payload size."""
        path = tmp_path / "h.npy"
        path.write_bytes(npy_header((4, 1), "<f8") + struct.pack("<2d", 0.1, 0.1))
        with pytest.raises(TraceFormatError, match="heatmap payload is 16 bytes, expected 32"):
            read_heatmap(path)

    def test_nan_distance_rejected(self, tmp_path):
        """NaN marks an unmeasured step only when it fills the row; beside a
        measured cell it is a distance that is not a number."""
        path = tmp_path / "h.npy"
        path.write_bytes(npy_header((2, 2), "<f8") + struct.pack("<4d", math.nan, 0.1, 0.1, 0.1))
        message = "heatmap distance nan at step 1, block 0 is not a finite number >= 0"
        with pytest.raises(TraceFormatError, match=re.escape(message)):
            read_heatmap(path)

    def test_negative_distance_rejected_naming_line(self, tmp_path):
        """The refusal names the cell's row by its step, and its block."""
        path = tmp_path / "h.npy"
        decisions = [
            StepDecision(1, Action.COMPUTED, None, None, None),
            StepDecision(0, Action.COMPUTED, (0.5, -0.5), None, None),
        ]
        write_heatmap(decisions, 2, path)
        message = "heatmap distance -0.5 at step 0, block 1 is not a finite number >= 0"
        with pytest.raises(TraceFormatError, match=re.escape(message)):
            read_heatmap(path)

    def test_truncated_group_rejected(self, tmp_path):
        """A table whose last step lacks a cell is refused by its payload size."""
        path = tmp_path / "h.npy"
        write_heatmap(make_decisions(), 2, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TraceFormatError, match="heatmap payload is 40 bytes, expected 48"):
            read_heatmap(path)

    def test_trace_not_ending_at_zero_rejected(self, tmp_path):
        """A table without rows has no step 0 for a run to end at."""
        path = tmp_path / "h.npy"
        path.write_bytes(npy_header((0, 2), "<f8"))
        with pytest.raises(TraceFormatError, match=re.escape("T, N >= 1; has float64 (0, 2)")):
            read_heatmap(path)

    @pytest.mark.parametrize(
        "cell",
        ["0.5\r", " 0.5", "0.5 ", "\t0.5", "0.5\x0b", "0.5\x0c", "1_0", "\u0665", "0.5\xa0"],
    )
    def test_cell_write_heatmap_never_writes_is_refused(self, tmp_path, cell):
        """float() reads each of these cells, but no text cell is a distance
        now: a CSV table holding one is refused whole, by its first bytes,
        with the way to record a .npy table."""
        path = tmp_path / "h.csv"
        path.write_text(f"step,block,l1_rel\n1,0,0.5\n0,0,{cell}\n")
        with pytest.raises(TraceFormatError, match="not a .npy 1.0 file .*generate --policy none"):
            read_heatmap(path)

    def test_bytes_that_are_not_utf8_are_refused_naming_line(self, tmp_path):
        """A byte that is not ASCII in the header's dict, where NumPy writes
        only ASCII, is refused quoting the header line that holds it."""
        path = tmp_path / "h.npy"
        header = npy_header((1, 1), "<f8")
        path.write_bytes(header[:-2] + b"\xff\n" + struct.pack("<d", 0.5))
        with pytest.raises(TraceFormatError, match="heatmap is not a .npy 1.0 file .*\xff"):
            read_heatmap(path)

    def test_infinite_distance_rejected_naming_line(self, tmp_path):
        """Either infinity; the refusal names the cell's step and block."""
        path = tmp_path / "h.npy"
        for value in (math.inf, -math.inf):
            decisions = [
                StepDecision(1, Action.COMPUTED, None, None, None),
                StepDecision(0, Action.COMPUTED, (value,), None, None),
            ]
            write_heatmap(decisions, 1, path)
            message = f"heatmap distance {value} at step 0, block 0 is not a finite number >= 0"
            with pytest.raises(TraceFormatError, match=re.escape(message)):
                read_heatmap(path)

    def test_claimed_step_count_sizes_nothing(self, tmp_path):
        """A header claiming four billion steps over a payload of three cells
        is refused, and nothing is sized by the step count that it claims."""
        path = tmp_path / "h.npy"
        path.write_bytes(npy_header((4_000_000_000, 1), "<f8") + struct.pack("<3d", 0.1, 0.1, 0.1))
        tracemalloc.start()
        try:
            with pytest.raises(TraceFormatError, match="payload is 24 bytes, expected 32000000000"):
                read_heatmap(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_row_of_another_length_is_refused_on_write(self, tmp_path):
        """With or without unmeasured rows beside it, before the file is opened."""
        long_row = StepDecision(0, Action.COMPUTED, (0.5, 0.5, 0.5), None, None)
        for first in (StepDecision(1, Action.COMPUTED, None, None, None), long_row._replace(step=1)):
            with pytest.raises(ValueError):
                write_heatmap([first, long_row], 2, tmp_path / "h.npy")
        assert not (tmp_path / "h.npy").exists()

    @settings(max_examples=200, deadline=None)
    @given(table=heatmap_decisions())
    def test_any_decisions_round_trip_exactly(self, table):
        """Every distance, zeros, subnormals and the largest finite floats
        included, reads back as the float64 it was, bit for bit, and every
        unmeasured row as a row of NaN."""
        decisions, n_blocks = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "heatmap.npy"
            write_heatmap(decisions, n_blocks, path)
            rows = read_heatmap(path).tolist()
        want = [[None] * n_blocks if d.per_block_l1 is None else d.per_block_l1 for d in decisions]
        assert [[None if math.isnan(v) else v.hex() for v in row] for row in rows] == [
            [None if v is None else v.hex() for v in row] for row in want
        ]

    @settings(max_examples=200, deadline=None)
    @given(table=heatmap_decisions(), policy=policy_strategy(), gaps=st.booleans())
    def test_read_table_is_np_load_and_replays_as_its_lists(self, table, policy, gaps):
        """read_heatmap returns the <f8 array that np.load reads, bytes and
        all. Replay over it decides what replay over the same table as lists
        with None decides, or refuses with the same message, and every
        distance it records is a Python float with its table cell's bits.
        Without gaps, only the first row is unmeasured, so that most
        replays read the rows they need rather than refuse."""
        decisions, n_blocks = table
        if not gaps:
            filled = (1 / 3,) * n_blocks
            decisions = decisions[:1] + [
                d._replace(per_block_l1=d.per_block_l1 or filled) for d in decisions[1:]
            ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "heatmap.npy"
            write_heatmap(decisions, n_blocks, path)
            got = read_heatmap(path)
            loaded = np.load(path, allow_pickle=False)
        assert isinstance(got, np.ndarray) and got.dtype.str == "<f8"
        assert (got.shape, got.tobytes()) == (loaded.shape, loaded.tobytes())
        as_lists = [
            [None] * n_blocks if d.per_block_l1 is None else list(d.per_block_l1) for d in decisions
        ]

        def replayed(rows):
            try:
                return replay_trace(rows, policy)
            except ValueError as exc:
                return str(exc)

        from_array = replayed(got)
        assert from_array == replayed(as_lists)
        if isinstance(from_array, str):
            assert "missing" in from_array or "whole run" in from_array, from_array
            return
        for i, decision in enumerate(from_array):
            for block, value in enumerate(decision.per_block_l1 or ()):
                assert type(value) is float
                assert struct.pack("<d", value) == loaded[i, block].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(raw=heatmap_files())
    # One byte flipped so that a header key reads B'fortran_order': NumPy
    # raises TypeError, not ValueError, on a key that is not a str.
    @example(raw=BYTES_KEY_HEATMAP)
    def test_reader_agrees_with_the_line_wise_reader(self, raw):
        """What the reader accepts, np.load read row by row accepts with the
        same bits, and what that reference refuses, the reader refuses,
        each refusal naming the heatmap."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "heatmap.npy"
            path.write_bytes(raw)
            got = outcome(read_heatmap, path)
            oracle = outcome(line_wise_read_heatmap, path)
        if isinstance(got, tuple):
            assert got[1].startswith("heatmap "), got[1]
            assert isinstance(oracle, tuple), oracle
        else:
            assert got == oracle

    @settings(max_examples=200, deadline=None)
    @given(table=heatmap_decisions())
    def test_writer_bytes_equal_the_line_wise_writer(self, table):
        decisions, n_blocks = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "heatmap.npy"
            write_heatmap(decisions, n_blocks, path)
            assert path.read_bytes() == line_wise_heatmap_bytes(decisions, n_blocks)


class TestReuseProfile:
    def test_exact_bytes_with_footer(self, tmp_path):
        path = tmp_path / "r.csv"
        write_reuse_profile(make_decisions(), path)
        want = "step,reused\n2,0\n1,1\n0,0\n#reuse_rate_steps=0.333333333\n"
        assert path.read_text() == want

    @settings(max_examples=200, deadline=None)
    @given(table=heatmap_decisions(), steps=st.integers(min_value=0, max_value=40))
    def test_writer_bytes_equal_the_line_wise_writer(self, table, steps):
        """The first ``steps`` decisions of a table, none included."""
        decisions = table[0][:steps]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "reuse_profile.csv"
            write_reuse_profile(decisions, path)
            assert path.read_bytes() == line_wise_reuse_profile_text(decisions).encode("ascii")


class TestWriteText:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_fresh_file_has_the_mode_path_write_text_gives(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            traceio._write_text(tmp_path / "fast.txt", "a,b\n")
            (tmp_path / "slow.txt").write_text("a,b\n")
        finally:
            os.umask(old)
        modes = [os.stat(tmp_path / name).st_mode for name in ("fast.txt", "slow.txt")]
        assert modes[0] == modes[1] == 0o100666 & ~umask

    def test_longer_file_is_truncated_to_the_new_bytes(self, tmp_path):
        path = tmp_path / "export.csv"
        path.write_bytes(b"x" * 100_000)
        traceio._write_text(path, "step,reused\n0,0\n")
        assert path.read_bytes() == b"step,reused\n0,0\n"

    def test_non_ascii_text_is_refused_before_the_file_is_opened(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            traceio._write_text(tmp_path / "export.csv", "\u0665\n")
        assert not (tmp_path / "export.csv").exists()


class TestStepDecision:
    def test_positional_construction_and_field_order(self):
        per_block = (0.5, 0.25)
        d = StepDecision(3, Action.COMPUTED, per_block, 0.9, 7.2)
        assert StepDecision._fields == ("step", "action", "per_block_l1", "mean_l1", "arl1")
        assert (d.step, d.action, d.per_block_l1, d.mean_l1, d.arl1) == (
            3, Action.COMPUTED, per_block, 0.9, 7.2
        )

    def test_immutable_and_hashable(self):
        d = StepDecision(3, Action.REUSED, None, None, None)
        with pytest.raises(AttributeError):
            d.step = 2
        assert hash(d) == hash(StepDecision(3, Action.REUSED, None, None, None))
        assert len({d, StepDecision(3, Action.REUSED, None, None, None)}) == 1


class TestSummary:
    def test_round_trip_preserves_everything(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary(make_summary(), "f" * 64, path)
        summary, fingerprint = read_summary(path)
        assert summary == make_summary()
        assert fingerprint == "f" * 64

    def test_infinite_psnr_uses_sentinel_string(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary(make_summary(psnr_db=math.inf), "0" * 64, path)
        doc = json.loads(path.read_text())
        assert doc["psnr_db"] == "inf"
        summary, _ = read_summary(path)
        assert summary.psnr_db == math.inf

    def test_absent_metrics_serialize_as_null(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary(make_summary(psnr_db=None, ssim=None), "0" * 64, path)
        doc = json.loads(path.read_text())
        assert doc["psnr_db"] is None and doc["ssim"] is None

    def test_key_set_is_exact(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary(make_summary(), "0" * 64, path)
        doc = json.loads(path.read_text())
        assert sorted(doc) == [
            "config_fingerprint",
            "flops_saved",
            "psnr_db",
            "reuse_rate_blocks",
            "reuse_rate_steps",
            "ssim",
            "total_flops",
            "wall_seconds",
        ]

    def test_out_of_range_rate_refused_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="reuse_rate"):
            write_summary(make_summary(reuse_rate_steps=1.5), "0" * 64, tmp_path / "s.json")

    @pytest.mark.parametrize(
        "key, value", [("reuse_rate_steps", -2.0), ("reuse_rate_blocks", 1.5)]
    )
    def test_out_of_range_rate_refused_on_read(self, tmp_path, key, value):
        path = tmp_path / "s.json"
        write_summary(make_summary(), "0" * 64, path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(TraceFormatError, match=key):
            read_summary(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("psnr_db", "fast"),
            ("psnr_db", True),
            ("psnr_db", "Infinity"),
            ("ssim", "x"),
            ("ssim", "inf"),
            ("ssim", [0.5]),
            ("total_flops", "many"),
            ("total_flops", 1000.0),
            ("total_flops", True),
            ("flops_saved", -5),
            ("wall_seconds", -1.0),
            ("wall_seconds", "0.5"),
            ("wall_seconds", False),
            ("reuse_rate_steps", True),
            ("reuse_rate_blocks", False),
            ("config_fingerprint", 7),
            ("config_fingerprint", "f" * 63),
            ("config_fingerprint", "g" * 64),
        ],
    )
    def test_value_outside_the_schema_refused_on_read(self, tmp_path, key, value):
        path = tmp_path / "s.json"
        write_summary(make_summary(), "0" * 64, path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(TraceFormatError, match=key):
            read_summary(path)

    @pytest.mark.parametrize("key", ["psnr_db", "ssim", "wall_seconds"])
    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_json_numbers_refused_on_read(self, tmp_path, key, token):
        """json.loads accepts NaN and Infinity; only psnr_db's "inf" string
        stands for an infinite value."""
        path = tmp_path / "s.json"
        write_summary(make_summary(), "0" * 64, path)
        doc = json.loads(path.read_text())
        doc[key] = "@"
        path.write_text(json.dumps(doc).replace('"@"', token))
        with pytest.raises(TraceFormatError, match=key):
            read_summary(path)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(psnr_db=None, ssim=None),
            dict(psnr_db=math.inf, ssim=1.0),
            dict(psnr_db=-3.5, ssim=-0.25, wall_seconds=0.0),
            dict(reuse_rate_blocks=0.0, reuse_rate_steps=1.0, total_flops=0, flops_saved=0),
            dict(total_flops=2**70, flops_saved=2**69),
        ],
    )
    def test_every_written_summary_reads_back(self, tmp_path, overrides):
        path = tmp_path / "s.json"
        summary = make_summary(**overrides)
        write_summary(summary, "0123456789abcdef" * 4, path)
        assert read_summary(path) == (summary, "0123456789abcdef" * 4)

    def test_extra_keys_refused_on_read(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary(make_summary(), "0" * 64, path)
        doc = json.loads(path.read_text())
        doc["bonus"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(TraceFormatError, match="exactly the keys"):
            read_summary(path)


def malformed_latents() -> dict[str, bytes]:
    """Files a latent dump reader must refuse, by what is wrong with them."""
    x = np.arange(12, dtype=np.float32).reshape(3, 4)
    good = npy_header((3, 4)) + x.tobytes()
    npz = io.BytesIO()
    np.savez(npz, x=x)
    return {
        "empty": b"",
        "bwlatent-v1": b"BWLATENT" + struct.pack("<HBB2Q", 1, 1, 2, 3, 4) + x.tobytes(),
        "npz": npz.getvalue(),
        "npy-2.0": npy_header((3, 4), version=(2, 0)) + x.tobytes(),
        "payload-4-short": good[:-4],
        "payload-4-trailing": good + bytes(4),
        "fortran-order": npy_header((3, 4), fortran_order=True) + x.tobytes(),
        "object-dtype": npy_header((3,), descr="|O") + bytes(24),
        "dims-2^32-squared": npy_header((2**32, 2**32)),
        "dims-2^30-by-4": npy_header((2**30, 4)),
        "negative-dims": npy_header((-2, -2)) + bytes(16),
        # NumPy's header filter raises tokenize's error on an unclosed bracket.
        "header-without-brace": npy_header((3, 4)).replace(b"{", b" ") + x.tobytes(),
        # NumPy raises TypeError sorting the keys when one is not a str.
        "int-key-header": npy_header((3, 4)).replace(b"'fortran_order'", b"123456789012345")
        + x.tobytes(),
        # NumPy parses a Python 2 long after repairing it, with a warning.
        "python-2-header": npy_header((3, 4)).replace(b"(3, 4), ", b"(3L, 4),") + x.tobytes(),
    }


MALFORMED = malformed_latents()


class TestLatent:
    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "l.bin"
        x = np.random.default_rng(0).standard_normal((6, 4)).astype(np.float32)
        write_latent(x, path)
        back = read_latent(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, x)

    def test_float64_supported(self, tmp_path):
        path = tmp_path / "l.bin"
        x = np.random.default_rng(1).standard_normal((3, 2))
        write_latent(x, path)
        assert np.array_equal(read_latent(path), x)

    def test_dump_is_an_npy_1_0_file(self, tmp_path):
        """np.load reads a dump back bit for bit, from a C-order .npy 1.0 file,
        also when the array written was not C-contiguous."""
        path = tmp_path / "l.bin"
        x = np.random.default_rng(2).standard_normal((4, 6)).astype(np.float32)
        write_latent(x.T, path)
        with open(path, "rb") as f:
            assert npy.read_magic(f) == (1, 0)
            assert npy.read_array_header_1_0(f) == ((6, 4), False, np.dtype("<f4"))
        back = np.load(path, allow_pickle=False)
        assert back.dtype == np.float32 and back.tobytes() == np.ascontiguousarray(x.T).tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "l.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(TraceFormatError, match="magic"):
            read_latent(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "l.bin"
        x = np.zeros((4, 4), dtype=np.float32)
        write_latent(x, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(TraceFormatError, match="payload"):
            read_latent(path)

    def test_payload_size_is_computed_without_wrapping(self, tmp_path):
        """Dims (2^32, 2^32) hold 2^64 values, which an int64 product wraps to
        zero; an empty payload is still refused as a format error."""
        path = tmp_path / "l.bin"
        path.write_bytes(npy_header((2**32, 2**32)))
        with pytest.raises(TraceFormatError, match=f"expected {4 * 2**64}"):
            read_latent(path)

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_malformed_dump_refused_without_allocating(self, tmp_path, name):
        """Each refusal is a format error, and none sizes a buffer from the header."""
        path = tmp_path / "l.bin"
        path.write_bytes(MALFORMED[name])
        tracemalloc.start()
        try:
            with pytest.raises(TraceFormatError, match="latent dump"):
                read_latent(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_object_dtype_refused_on_write(self, tmp_path):
        path = tmp_path / "l.bin"
        with pytest.raises(ValueError, match="Object arrays"):
            write_latent(np.array([1.0, None]), path)
        assert not path.exists()


class TestRunTrace:
    def test_validates_step_ordering_and_lengths(self):
        good = make_decisions()
        RunTrace(decisions=good, timings=[0.0] * 3, config_fingerprint="x")
        with pytest.raises(ValueError, match="timing"):
            RunTrace(decisions=good, timings=[0.0], config_fingerprint="x")
        bad = [good[0], good[2], good[1]]
        with pytest.raises(ValueError, match="execution order"):
            RunTrace(decisions=bad, timings=[0.0] * 3, config_fingerprint="x")


# One non-default value per config field. Each must move the fingerprint of
# every kind that reads the field, and leave that of every other kind equal.
FINGERPRINT_ALTERNATES = {
    (ModelConfig, "n_blocks"): 4,
    (ModelConfig, "hidden_dim"): 32,
    (ModelConfig, "n_heads"): 2,
    (ModelConfig, "frames"): 2,
    (ModelConfig, "tokens_per_frame"): 8,
    (ModelConfig, "steps"): 20,
    (ModelConfig, "seed"): 1,
    (CachePolicyConfig, "kind"): None,  # each of the other kinds
    (CachePolicyConfig, "delta"): 0.2,
    (CachePolicyConfig, "reuse_interval"): 4,
    (CachePolicyConfig, "tail"): TailRule.third(),
    (CachePolicyConfig, "static_stride"): 2,
}
# New values for the policy fields that some kind never reads.
UNREAD_VALUES = {
    "delta": st.floats(min_value=0.0, max_value=1.0),
    "reuse_interval": st.integers(min_value=1, max_value=40),
    "tail": st.one_of(tail_strategy(), st.integers(min_value=0, max_value=40).map(TailRule.fixed)),
    "static_stride": st.integers(min_value=1, max_value=40),
}
CONFIG_FIELDS = [
    (cls, f.name) for cls in (ModelConfig, CachePolicyConfig) for f in dataclasses.fields(cls)
]


class TestFingerprint:
    @pytest.mark.parametrize(
        "cls, name", CONFIG_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in CONFIG_FIELDS]
    )
    def test_stable_and_sensitive(self, cls, name):
        """Under each kind, equal configs hash equal; changing a field that the
        kind reads changes the hash, and changing a field that the kind never
        reads (named in _UNREAD) leaves it equal. Every two kinds hash apart."""
        assert set(FINGERPRINT_ALTERNATES) == set(CONFIG_FIELDS)
        for kind in PolicyKind:
            config, policy = ModelConfig(), CachePolicyConfig(kind=kind)
            a = config_fingerprint(config, policy)
            assert a == config_fingerprint(ModelConfig(), CachePolicyConfig(kind=kind))
            assert len(a) == 64
            value = FINGERPRINT_ALTERNATES[cls, name]
            values = [k for k in PolicyKind if k is not kind] if value is None else [value]
            unread = cls is CachePolicyConfig and name in traceio._UNREAD[kind.value]
            for value in values:
                if cls is ModelConfig:
                    b = config_fingerprint(dataclasses.replace(config, **{name: value}), policy)
                else:
                    b = config_fingerprint(config, dataclasses.replace(policy, **{name: value}))
                assert (a == b) is unread, f"{name}={value!r} under kind {kind.value}"

    @settings(max_examples=200, deadline=None)
    @given(rows=rows_strategy(), policy=policy_strategy(), data=st.data())
    def test_unread_fields_change_no_decision_and_no_fingerprint(self, rows, policy, data):
        """A new value for a field that _UNREAD names for the policy's kind
        replays any table to the same decisions, under the same fingerprint:
        _UNREAD names only fields that decide() never reads for that kind."""
        name = data.draw(st.sampled_from(traceio._UNREAD[policy.kind.value]))
        other = dataclasses.replace(policy, **{name: data.draw(UNREAD_VALUES[name])})
        assert replay_trace(rows, other) == replay_trace(rows, policy)
        table = np.array(rows, dtype=np.float64)
        config = ModelConfig(n_blocks=table.shape[1], steps=len(table), n_heads=1, seed=0)
        assert config_fingerprint(config, other, table) == config_fingerprint(config, policy, table)

    def test_equal_deltas_share_one_fingerprint(self):
        """0, 0.0 and -0.0 (and 1 and 1.0) are equal deltas with one hash, the
        one a float delta has always had."""
        config = ModelConfig()
        for deltas in ((0, 0.0, -0.0), (1, 1.0)):
            policies = [CachePolicyConfig(delta=d) for d in deltas]
            assert all(p == policies[0] for p in policies)
            assert {config_fingerprint(config, p) for p in policies} == {
                config_fingerprint(config, policies[1])
            }
        doc = {
            "model": {f.name: getattr(config, f.name) for f in dataclasses.fields(config)},
            "policy": {"kind": "bwcache", "delta": 0.0, "reuse_interval": 3, "tail": "half"},
            "revision": 3,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
        want = hashlib.sha256(blob).hexdigest()
        assert config_fingerprint(config, CachePolicyConfig(delta=-0.0)) == want

    def test_default_hash_is_over_the_revision_3_document(self):
        """The hashed document is the model config, the policy fields that
        the kind reads and revision 3: bwcache's delta, R and tail, static's
        stride, and none's kind alone. No revision-2 document, which held
        every policy field and a version key, recurs."""
        config = ModelConfig(seed=12, steps=40)
        policy = CachePolicyConfig(delta=0.1, reuse_interval=4, static_stride=5)
        model = {
            "n_blocks": 8,
            "hidden_dim": 64,
            "n_heads": 4,
            "frames": 4,
            "tokens_per_frame": 16,
            "steps": 40,
            "seed": 12,
        }
        documents = {
            PolicyKind.BWCACHE: {"kind": "bwcache", "delta": 0.1, "reuse_interval": 4, "tail": "half"},
            PolicyKind.STATIC: {"kind": "static", "static_stride": 5},
            PolicyKind.NONE: {"kind": "none"},
        }
        for kind, policy_doc in documents.items():
            doc = {"model": model, "policy": policy_doc, "revision": 3}
            blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
            want = hashlib.sha256(blob).hexdigest()
            assert config_fingerprint(config, dataclasses.replace(policy, kind=kind)) == want


class TestEndToEndExports:
    def test_generated_heatmap_is_replayable(self, tmp_path):
        """A none-policy heatmap read back drives replay to the same schedule
        the live policy produced, pre-divergence; and a fully-computed replay
        of it round-trips byte for byte."""
        config = ModelConfig(
            n_blocks=4, hidden_dim=16, n_heads=2, frames=2, tokens_per_frame=4, steps=10, seed=3
        )
        _, trace = run_policy(config, CachePolicyConfig(kind=PolicyKind.NONE))
        path = tmp_path / "heatmap.npy"
        write_heatmap(trace.decisions, config.n_blocks, path)
        rows = read_heatmap(path)
        assert len(rows) == config.steps
        decisions = replay_trace(rows, CachePolicyConfig(kind=PolicyKind.NONE))
        repath = tmp_path / "heatmap2.npy"
        write_heatmap(decisions, config.n_blocks, repath)
        assert repath.read_bytes() == path.read_bytes()

    def test_summary_of_real_run_round_trips(self, tmp_path):
        config = ModelConfig(
            n_blocks=2, hidden_dim=8, n_heads=2, frames=2, tokens_per_frame=2, steps=6, seed=1
        )
        final, trace = run_policy(config, CachePolicyConfig(kind=PolicyKind.NONE))
        summary = summarize(trace, final, config)
        path = tmp_path / "summary.json"
        write_summary(summary, trace.config_fingerprint, path)
        back, fp = read_summary(path)
        assert fp == trace.config_fingerprint
        assert back.psnr_db == math.inf  # identical output vs itself
        assert back.total_flops == summary.total_flops
