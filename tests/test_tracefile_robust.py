"""Trace corruption reporting: offsets, record indices, strict=False."""

import pytest

from repro.core.instruction import MemOp
from repro.core.tracefile import (
    MAGIC,
    load_trace,
    load_trace_text,
    save_trace,
    save_trace_text,
)
from repro.errors import TraceFormatError


def sample_trace():
    return [
        MemOp(0x400000, 0x1000_0000, True, 5, -1),
        MemOp(0x400004, 0x1000_0040, False, 0, -1),
        MemOp(0x400008, 0x2000_0000, True, 12, 0),
    ]


RECORD_SIZE = 17  # <IIBIi>


class TestBinaryCorruption:
    def test_truncation_reports_offset_and_index(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(path, sample_trace())
        path.write_bytes(path.read_bytes()[:-3])  # clip the last record
        with pytest.raises(TraceFormatError) as info:
            list(load_trace(path))
        assert info.value.record_index == 2
        assert info.value.offset == len(MAGIC) + 2 * RECORD_SIZE
        assert str(info.value.offset) in str(info.value)

    def test_bad_magic_reports_offset_zero(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(TraceFormatError) as info:
            list(load_trace(path))
        assert info.value.offset == 0

    def test_error_is_a_value_error(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(path, sample_trace())
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError):  # backwards-compatible catch
            list(load_trace(path))

    @pytest.mark.parametrize("drop", [1, 3, 5, 16])
    def test_non_strict_salvages_intact_prefix(self, tmp_path, drop):
        path = tmp_path / "t.trace"
        save_trace(path, sample_trace())
        path.write_bytes(path.read_bytes()[:-drop])
        with pytest.warns(UserWarning, match="truncated"):
            ops = list(load_trace(path, strict=False))
        assert ops == sample_trace()[:2]

    def test_non_strict_still_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(TraceFormatError):
            list(load_trace(path, strict=False))


class TestTextCorruption:
    def test_malformed_line_reports_line_and_offset(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# header\n0x1 0x1000 L 3 -1\n0x2 0x2000 X 0 -1\n")
        with pytest.raises(TraceFormatError) as info:
            list(load_trace_text(path))
        assert info.value.record_index == 3  # 1-based line number
        assert info.value.offset == len("# header\n0x1 0x1000 L 3 -1\n")

    def test_non_integer_field_is_format_error(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0x1 0x1000 L three -1\n")
        with pytest.raises(TraceFormatError):
            list(load_trace_text(path))

    def test_non_strict_skips_corrupt_records(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(
            "0x1 0x1000 L 3 -1\nGARBAGE LINE\n0x2 0x2000 S 0 -1\n"
        )
        with pytest.warns(UserWarning, match="malformed"):
            ops = list(load_trace_text(path, strict=False))
        assert len(ops) == 2
        assert ops[0].pc == 0x1 and ops[1].pc == 0x2

    def test_round_trip_still_exact(self, tmp_path):
        path = tmp_path / "t.txt"
        save_trace_text(path, sample_trace())
        assert list(load_trace_text(path)) == sample_trace()
