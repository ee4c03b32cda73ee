"""Export format tests: byte-stable writes, validating reads, exact errors."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import io
import math
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
from bwcache.metrics import RunSummary, summarize
from bwcache.model import ModelConfig
from bwcache.traceio import (
    HEATMAP_HEADER,
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


def make_decisions():
    """Three steps, two blocks: computed, reused, computed."""
    return [
        StepDecision(2, Action.COMPUTED, None, None, None),
        StepDecision(1, Action.REUSED, None, None, None),
        StepDecision(0, Action.COMPUTED, (0.125, 0.25), 0.1875, 0.375),
    ]


def line_wise_heatmap_text(decisions, n_blocks: int) -> str:
    """The heatmap text as one f-string and one %.9g per cell.

    A frozen copy of the original ``write_heatmap`` body, kept as the
    reference for the row-template writer.
    """
    lines = [HEATMAP_HEADER]
    for d in decisions:
        values = d.per_block_l1
        for b in range(n_blocks):
            cell = "%.9g" % values[b] if values is not None else ""
            lines.append(f"{d.step},{b},{cell}")
    return "\n".join(lines) + "\n"


def line_wise_read_heatmap(path) -> list[list[float | None]]:
    """The heatmap reader as one line-by-line pass.

    A frozen copy of the original ``read_heatmap``, which parses and checks
    every line on its own and also takes respelled integers and blank
    lines. It is kept as the oracle for the reader: what the reader accepts,
    this accepts with equal rows.
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
            if value < 0.0:
                raise TraceFormatError(f"line {lineno}: negative distance {parts[2]!r}")
        triples.append((step, block, value, lineno))
    if not triples:
        raise TraceFormatError("line 2: heatmap has no data rows")

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


# Cells at the edges of %.9g and float(): zero, the least subnormal, a tiny
# normal, a repeating binary fraction and an integer beyond nine digits.
EDGE_DISTANCES = (0.0, 5e-324, 1e-300, 1 / 3, 1e16)


@st.composite
def heatmap_decisions(draw):
    """(decisions, n_blocks): T 2-40 steps of N 1-12 blocks, some rows unmeasured."""
    steps = draw(st.integers(min_value=2, max_value=40))
    n_blocks = draw(st.integers(min_value=1, max_value=12))
    distance = st.sampled_from(EDGE_DISTANCES) | st.floats(
        min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False
    )
    row = st.none() | st.tuples(*[distance] * n_blocks)
    decisions = []
    for step in range(steps - 1, -1, -1):
        values = draw(row)
        action = Action.REUSED if values is None else Action.COMPUTED
        decisions.append(StepDecision(step, action, values, None, None))
    return decisions, n_blocks


def _respell_integer(draw, lines, i):
    fields = lines[i].split(",")
    k = draw(st.integers(min_value=0, max_value=min(1, len(fields) - 1)))
    fields[k] = draw(st.sampled_from(("+", "0", " "))) + fields[k]
    lines[i] = ",".join(fields)


def _insert_blank_line(draw, lines, i):
    lines.insert(i + draw(st.integers(min_value=0, max_value=1)), "")


def _drop_field(draw, lines, i):
    lines[i] = lines[i].rpartition(",")[0]


def _add_field(draw, lines, i):
    lines[i] += ",0"


def _bad_cell(draw, lines, i):
    key = lines[i].rpartition(",")[0]
    lines[i] = f"{key},{draw(st.sampled_from(('nan', 'inf', '-0.5', '1e')))}"


def _swap_lines(draw, lines, i):
    j = draw(st.integers(min_value=1, max_value=len(lines) - 1))
    lines[i], lines[j] = lines[j], lines[i]


def _drop_step(draw, lines, i):
    """Every line of line i's step goes: a step gap, or a last step other than 0."""
    step = lines[i].split(",")[0]
    lines[1:] = [line for line in lines[1:] if line.split(",")[0] != step]


def _truncate_group(draw, lines, i):
    lines.pop()


def _shift_steps(draw, lines, i):
    """Every step one higher, so the table ends at step 1."""
    for k, line in enumerate(lines[1:], start=1):
        step, comma, rest = line.partition(",")
        if step.strip().lstrip("+").isdigit():
            lines[k] = f"{int(step) + 1}{comma}{rest}"


RESPELLED_INTEGER = "integer respelled (+1, 01, ' 1')"
BLANK_LINE = "blank line"

MUTATIONS = {
    RESPELLED_INTEGER: _respell_integer,
    BLANK_LINE: _insert_blank_line,
    "missing field": _drop_field,
    "extra field": _add_field,
    "bad cell": _bad_cell,
    "swapped lines": _swap_lines,
    "step gap": _drop_step,
    "truncated group": _truncate_group,
    "last step not 0": _shift_steps,
}


@st.composite
def heatmap_texts(draw):
    """(text, mutations): a table as write_heatmap spells it, then the names
    of the 0-3 mutations applied to it."""
    decisions, n_blocks = draw(heatmap_decisions())
    lines = line_wise_heatmap_text(decisions, n_blocks).splitlines()
    mutations = []
    for name in draw(st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=3)):
        if len(lines) < 2:
            break
        i = draw(st.integers(min_value=1, max_value=len(lines) - 1))
        MUTATIONS[name](draw, lines, i)
        mutations.append(name)
    return "\n".join(lines) + "\n", mutations


def outcome(read, path):
    """A reader's rows, or the type and message of what it raised."""
    try:
        return read(path)
    except TraceFormatError as exc:
        return (type(exc), str(exc))


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
        path = tmp_path / "h.csv"
        write_heatmap(make_decisions(), 2, path)
        want = (
            "step,block,l1_rel\n"
            "2,0,\n2,1,\n"
            "1,0,\n1,1,\n"
            "0,0,0.125\n0,1,0.25\n"
        )
        assert path.read_text() == want

    def test_round_trip_preserves_values_and_gaps(self, tmp_path):
        path = tmp_path / "h.csv"
        write_heatmap(make_decisions(), 2, path)
        rows = read_heatmap(path)
        assert rows == [[None, None], [None, None], [0.125, 0.25]]

    def test_reexport_is_byte_identical(self, tmp_path):
        """format -> parse -> format is the identity on nine-digit floats."""
        decisions = [
            StepDecision(1, Action.COMPUTED, None, None, None),
            StepDecision(0, Action.COMPUTED, (1 / 3, 0.1, 2.5e-7), 0.0, 0.0),
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_heatmap(decisions, 3, a)
        rows = read_heatmap(a)
        reparsed = [
            StepDecision(1, Action.COMPUTED, None, None, None),
            StepDecision(0, Action.COMPUTED, tuple(rows[1]), 0.0, 0.0),
        ]
        write_heatmap(reparsed, 3, b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_required(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("foo,bar,baz\n0,0,0.1\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            read_heatmap(path)

    def test_bad_field_count_names_line(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("step,block,l1_rel\n1,0,0.1,9\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            read_heatmap(path)

    def test_wrong_block_order_names_line(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("step,block,l1_rel\n1,0,0.1\n1,2,0.1\n0,0,0.1\n0,1,0.1\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            read_heatmap(path)

    def test_non_contiguous_steps_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("step,block,l1_rel\n3,0,0.1\n1,0,0.1\n")
        message = "line 3: expected '2,0,<distance>', got '1,0,0.1'"
        with pytest.raises(TraceFormatError, match=message):
            read_heatmap(path)

    def test_nan_distance_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("step,block,l1_rel\n1,0,nan\n0,0,0.1\n")
        with pytest.raises(TraceFormatError, match="non-finite"):
            read_heatmap(path)

    def test_negative_distance_rejected_naming_line(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("step,block,l1_rel\n1,0,\n0,0,-0.5\n")
        with pytest.raises(TraceFormatError, match="line 3: negative distance '-0.5'"):
            read_heatmap(path)

    def test_truncated_group_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("step,block,l1_rel\n1,0,0.1\n1,1,0.1\n0,0,0.1\n")
        message = "line 4: expected '0,1,<distance>' next, got end of file"
        with pytest.raises(TraceFormatError, match=message):
            read_heatmap(path)

    def test_trace_not_ending_at_zero_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("step,block,l1_rel\n3,0,0.1\n2,0,0.1\n")
        message = "line 3: expected '1,0,<distance>' next, got end of file"
        with pytest.raises(TraceFormatError, match=message):
            read_heatmap(path)

    def test_claimed_step_count_sizes_nothing(self, tmp_path):
        """A first step of four billion is refused naming a line, and nothing
        is sized by the step count that it claims."""
        path = tmp_path / "h.csv"
        path.write_text(
            "step,block,l1_rel\n4000000000,0,0.1\n3999999999,0,0.1\n3999999998,0,0.1\n"
        )
        tracemalloc.start()
        try:
            with pytest.raises(TraceFormatError, match="line 4: expected '3999999997,0,"):
                read_heatmap(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @settings(max_examples=300, deadline=None)
    @given(table=heatmap_texts())
    @example(table=("step,block,l1_rel\n", ["truncated group"]))
    @example(table=("step,block,l1_rel\n1,0,\n0,0,inf\n", ["bad cell"]))
    @example(table=("step,block,l1_rel\n1,0,0.5\n1,1,nan\n0,0,\n0,1,\n", ["bad cell"]))
    @example(table=("step,block,l1_rel\n1,0,0.5\n1,1,-0.5\n0,0,\n0,1,\n", ["bad cell"]))
    @example(table=("step,block,l1_rel\n1,0,1e\n0,0,\n", ["bad cell"]))
    @example(table=("step,block,l1_rel\n+1,0,\n0,0,0.5\n", [RESPELLED_INTEGER]))
    @example(table=("step,block,l1_rel\n1,00,\n0,0,0.5\n", [RESPELLED_INTEGER]))
    @example(table=("step,block,l1_rel\n1,0,\n\n0,0,0.5\n", [BLANK_LINE]))
    @example(table=("step,block,l1_rel\n1,0,\n0,0,0.5\n\n", [BLANK_LINE]))
    # Finite distances whose sum overflows are still distances.
    @example(table=("step,block,l1_rel\n1,0,1e308\n1,1,1e308\n0,0,\n0,1,\n", []))
    def test_reader_agrees_with_the_line_wise_reader(self, table):
        """What the reader accepts, the frozen line-wise reader accepts with
        equal rows, and what that reader refuses, this one refuses. An
        unmutated table is accepted; one with only respelled integers or
        blank lines is refused; every refusal names a line of the file."""
        text, mutations = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "heatmap.csv"
            path.write_text(text)
            got = outcome(read_heatmap, path)
            oracle = outcome(line_wise_read_heatmap, path)
        accepted = isinstance(got, list)
        if accepted:
            assert got == oracle
        else:
            lineno = re.match(r"line (\d+): ", got[1])
            assert lineno and 1 <= int(lineno[1]) <= len(text.splitlines()), got[1]
        if not isinstance(oracle, list):
            assert not accepted
        if not mutations:
            assert accepted
        elif set(mutations) <= {RESPELLED_INTEGER, BLANK_LINE}:
            assert not accepted

    @settings(max_examples=200, deadline=None)
    @given(table=heatmap_decisions())
    def test_writer_bytes_equal_the_line_wise_writer(self, table):
        decisions, n_blocks = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "heatmap.csv"
            write_heatmap(decisions, n_blocks, path)
            assert path.read_bytes() == line_wise_heatmap_text(decisions, n_blocks).encode("ascii")


class TestReuseProfile:
    def test_exact_bytes_with_footer(self, tmp_path):
        path = tmp_path / "r.csv"
        write_reuse_profile(make_decisions(), path)
        want = "step,reused\n2,0\n1,1\n0,0\n#reuse_rate_steps=0.333333333\n"
        assert path.read_text() == want


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


def npy_header(shape, descr="<f4", fortran_order=False, version=(1, 0)) -> bytes:
    """A .npy header as NumPy writes it, for any shape, dtype and order."""
    f = io.BytesIO()
    write = npy.write_array_header_1_0 if version == (1, 0) else npy.write_array_header_2_0
    write(f, {"descr": descr, "fortran_order": fortran_order, "shape": shape})
    return f.getvalue()


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


# One non-default value per config field; every one must move the fingerprint.
FINGERPRINT_ALTERNATES = {
    (ModelConfig, "n_blocks"): 4,
    (ModelConfig, "hidden_dim"): 32,
    (ModelConfig, "n_heads"): 2,
    (ModelConfig, "frames"): 2,
    (ModelConfig, "tokens_per_frame"): 8,
    (ModelConfig, "steps"): 20,
    (ModelConfig, "seed"): 1,
    (CachePolicyConfig, "kind"): PolicyKind.STATIC,
    (CachePolicyConfig, "delta"): 0.2,
    (CachePolicyConfig, "reuse_interval"): 4,
    (CachePolicyConfig, "tail"): TailRule.third(),
    (CachePolicyConfig, "static_stride"): 2,
}
CONFIG_FIELDS = [
    (cls, f.name) for cls in (ModelConfig, CachePolicyConfig) for f in dataclasses.fields(cls)
]


class TestFingerprint:
    @pytest.mark.parametrize(
        "cls, name", CONFIG_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in CONFIG_FIELDS]
    )
    def test_stable_and_sensitive(self, cls, name):
        """Equal configs hash equal; changing any one field changes the hash."""
        assert set(FINGERPRINT_ALTERNATES) == set(CONFIG_FIELDS)
        config, policy = ModelConfig(), CachePolicyConfig()
        a = config_fingerprint(config, policy)
        assert a == config_fingerprint(ModelConfig(), CachePolicyConfig())
        assert len(a) == 64
        value = FINGERPRINT_ALTERNATES[cls, name]
        if cls is ModelConfig:
            config = dataclasses.replace(config, **{name: value})
        else:
            policy = dataclasses.replace(policy, **{name: value})
        assert a != config_fingerprint(config, policy)

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
            "policy": {
                "kind": "bwcache",
                "delta": 0.0,
                "reuse_interval": 3,
                "tail": "half",
                "static_stride": 3,
            },
            "version": 1,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
        want = hashlib.sha256(blob).hexdigest()
        assert config_fingerprint(config, CachePolicyConfig(delta=-0.0)) == want

    def test_default_hash_is_over_the_version_1_document(self):
        """The hashed document, and so every fingerprint already written to
        a summary, is the version-1 form of the two configs."""
        config = ModelConfig(seed=12, steps=40)
        policy = CachePolicyConfig(delta=0.1, reuse_interval=4)
        doc = {
            "model": {
                "n_blocks": 8,
                "hidden_dim": 64,
                "n_heads": 4,
                "frames": 4,
                "tokens_per_frame": 16,
                "steps": 40,
                "seed": 12,
            },
            "policy": {
                "kind": "bwcache",
                "delta": 0.1,
                "reuse_interval": 4,
                "tail": "half",
                "static_stride": 3,
            },
            "version": 1,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
        want = hashlib.sha256(blob).hexdigest()
        assert config_fingerprint(config, policy) == want


class TestEndToEndExports:
    def test_generated_heatmap_is_replayable(self, tmp_path):
        """A none-policy heatmap read back drives replay to the same schedule
        the live policy produced, pre-divergence; and a fully-computed replay
        of it round-trips byte for byte."""
        config = ModelConfig(
            n_blocks=4, hidden_dim=16, n_heads=2, frames=2, tokens_per_frame=4, steps=10, seed=3
        )
        _, trace = run_policy(config, CachePolicyConfig(kind=PolicyKind.NONE))
        path = tmp_path / "heatmap.csv"
        write_heatmap(trace.decisions, config.n_blocks, path)
        rows = read_heatmap(path)
        assert len(rows) == config.steps
        decisions = replay_trace(rows, CachePolicyConfig(kind=PolicyKind.NONE))
        repath = tmp_path / "heatmap2.csv"
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
