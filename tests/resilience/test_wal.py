"""Tests for the write-ahead log: roundtrip, torn tails, CRC, sequencing."""

import json
import os
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.streams import StreamEdge
from repro.resilience.wal import (
    WAL_KINDS,
    WalRecord,
    WriteAheadLog,
    _canonical,
    _decode,
    _encode,
    scan,
)


def edge(i, t=None):
    return StreamEdge(u=i, v=i + 100, t=float(i if t is None else t), edge_type="click")


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "test.wal")


class TestRoundtrip:
    def test_append_scan_roundtrip(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1, t=1.5))
            wal.append_accept(edge(2, t=2.5))
            wal.append_batch(2)
            wal.append_evict(edge(1, t=1.5))
        result = scan(wal_path)
        assert result.dropped_records == 0
        assert [r.kind for r in result.records] == [
            "accept",
            "accept",
            "batch",
            "evict",
        ]
        assert [r.seq for r in result.records] == [1, 2, 3, 4]
        assert result.records[0].edge == edge(1, t=1.5)
        assert result.records[2].count == 2
        assert result.last_seq == 4

    def test_timestamps_roundtrip_bit_exactly(self, wal_path):
        awkward = 0.1 + 0.2  # 0.30000000000000004
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1, t=awkward))
        (record,) = scan(wal_path).records
        assert record.edge.t == awkward  # exact, not approximate

    def test_missing_file_scans_empty(self, tmp_path):
        result = scan(str(tmp_path / "nope.wal"))
        assert result.records == [] and result.last_seq == 0

    def test_batch_count_must_be_positive(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            with pytest.raises(ValueError):
                wal.append_batch(0)


class TestTornTail:
    def test_unterminated_final_record_is_dropped(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1))
            wal.append_accept(edge(2))
        with open(wal_path, "ab") as fh:
            fh.write(b'{"kind":"accept","seq":3')  # torn mid-write
        result = scan(wal_path)
        assert result.last_seq == 2
        assert result.dropped_records == 1

    def test_reopen_truncates_and_continues_sequence(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1))
        with open(wal_path, "ab") as fh:
            fh.write(b"garbage that is not json\n")
        wal = WriteAheadLog(wal_path)
        assert wal.last_seq == 1
        assert wal.torn_records_dropped == 1
        wal.append_accept(edge(2))
        wal.close()
        result = scan(wal_path)
        assert [r.seq for r in result.records] == [1, 2]
        assert result.dropped_records == 0  # the repair was persisted

    def test_crc_corruption_ends_the_valid_prefix(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            for i in range(1, 5):
                wal.append_accept(edge(i))
        with open(wal_path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        # flip one byte inside record 3's body
        corrupt = bytearray(lines[2])
        corrupt[10] ^= 0xFF
        with open(wal_path, "wb") as fh:
            fh.write(b"".join(lines[:2]) + bytes(corrupt) + lines[3])
        result = scan(wal_path)
        assert result.last_seq == 2
        assert result.dropped_records == 2  # the corrupt record and its successor

    def test_sequence_gap_ends_the_valid_prefix(self, wal_path):
        with open(wal_path, "wb") as fh:
            fh.write(_encode(WalRecord(1, "accept", edge(1))))
            fh.write(_encode(WalRecord(3, "accept", edge(3))))  # gap: no seq 2
        result = scan(wal_path)
        assert result.last_seq == 1
        assert result.dropped_records == 1


class TestLifecycle:
    def test_append_after_close_raises(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.close()
        with pytest.raises(ValueError):
            wal.append_accept(edge(1))

    def test_metrics_count_appends_and_torn_repairs(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1))
            wal.append_batch(1)
        assert wal.appends == 2
        assert wal.bytes_appended == os.path.getsize(wal_path)
        with open(wal_path, "ab") as fh:
            fh.write(b"torn")
        reopened = WriteAheadLog(wal_path)
        reopened.close()
        assert reopened.torn_records_dropped == 1
        assert reopened.appends == reopened.bytes_appended == 0

    def test_parent_directories_are_created(self, tmp_path):
        nested = str(tmp_path / "a" / "b" / "deep.wal")
        with WriteAheadLog(nested) as wal:
            wal.append_accept(edge(1))
        assert os.path.exists(nested)


# ------------------------------------------------ encoding oracle (two-pass)


def _body(record):
    body = {"kind": record.kind, "seq": int(record.seq)}
    if record.edge is not None:
        body.update(
            u=int(record.edge.u),
            v=int(record.edge.v),
            et=str(record.edge.edge_type),
            t=float(record.edge.t),
        )
    if record.kind == "batch":
        body["n"] = int(record.count)
    if record.kind == "heartbeat":
        body["t"] = float(record.t)
    if record.reason:
        body["why"] = str(record.reason)
    return body


def two_pass_encode(record):
    """The encoder that defined the format: canonicalise the body, CRC
    it, then canonicalise the body again with the CRC added."""
    body = _body(record)
    wrapped = dict(body, crc=zlib.crc32(_canonical(body)) & 0xFFFFFFFF)
    return _canonical(wrapped) + b"\n"


def two_pass_decode(line):
    """The reader that defined the format: parse, pop the CRC and check
    it against the re-canonicalised body, then validate the fields."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(payload, dict) or "crc" not in payload:
        return None
    crc = payload.pop("crc")
    if crc != zlib.crc32(_canonical(payload)) & 0xFFFFFFFF:
        return None
    kind, seq = payload.get("kind"), payload.get("seq")
    if kind not in WAL_KINDS or not isinstance(seq, int) or seq < 1:
        return None
    reason = payload.get("why", "")
    if not isinstance(reason, str):
        return None
    if kind in ("accept", "evict", "shed", "throttle"):
        try:
            e = StreamEdge(
                int(payload["u"]), int(payload["v"]), str(payload["et"]),
                float(payload["t"]),
            )
        except (KeyError, TypeError, ValueError):
            return None
        return WalRecord(seq, kind, edge=e, reason=reason)
    if kind == "batch":
        count = payload.get("n")
        if not isinstance(count, int) or count < 1:
            return None
        return WalRecord(seq, kind, count=count, reason=reason)
    raw = payload.get("t")
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        return None
    return WalRecord(seq, kind, t=float(raw), reason=reason)


_floats = st.one_of(
    st.sampled_from([1e-05, -0.0, 0.0, 1e16, 0.1 + 0.2, 5e-324, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_ids = st.integers(min_value=0, max_value=2**63 - 1)


@st.composite
def records(draw):
    kind = draw(st.sampled_from(WAL_KINDS))
    seq = draw(st.integers(min_value=1, max_value=2**62))
    reason = draw(st.text(max_size=12))  # non-ASCII included
    if kind in ("accept", "evict", "shed", "throttle"):
        e = StreamEdge(draw(_ids), draw(_ids), draw(st.text(max_size=8)), draw(_floats))
        return WalRecord(seq, kind, edge=e, reason=reason)
    if kind == "batch":
        return WalRecord(seq, kind, count=draw(st.integers(1, 2**40)), reason=reason)
    return WalRecord(seq, kind, t=draw(_floats), reason=reason)


#: one awkward record per kind, for the exhaustive corruption sweep
_FIXED = [
    WalRecord(1, "accept", edge=StreamEdge(2**40, 7, "click", 1e-05)),
    WalRecord(2, "evict", edge=StreamEdge(3, 2**53 + 1, "like", -0.0)),
    WalRecord(3, "batch", count=256),
    WalRecord(4, "heartbeat", t=1e16),
    WalRecord(5, "shed", edge=StreamEdge(9, 4, "buy", 0.1 + 0.2), reason="queue full"),
    WalRecord(6, "throttle", edge=StreamEdge(1, 2, "click", 1618.0340), reason="débit ≥ 5/s"),
]


class TestEncoding:
    """The one-pass encoder writes the two-pass encoder's bytes, and the
    check over the bytes as written accepts nothing the old check
    (over the re-encoded body) rejected."""

    @settings(max_examples=300, deadline=None)
    @given(record=records())
    def test_bytes_match_the_two_pass_encoder(self, record):
        line = _encode(record)
        assert line == two_pass_encode(record)
        assert _decode(line[:-1]) == record
        assert two_pass_decode(line[:-1]) == record

    @settings(max_examples=300, deadline=None)
    @given(record=records(), data=st.data())
    def test_a_corrupt_line_is_no_likelier_to_pass(self, record, data):
        line = _encode(record)[:-1]
        position = data.draw(st.integers(0, len(line) - 1))
        value = data.draw(st.integers(0, 255).filter(lambda b: b != line[position]))
        corrupt = line[:position] + bytes([value]) + line[position + 1:]
        decoded = _decode(corrupt)
        assert decoded is None or decoded == two_pass_decode(corrupt)
        cut = data.draw(st.integers(0, len(line) - 1))
        assert _decode(line[:cut]) is None

    @pytest.mark.parametrize("record", _FIXED, ids=lambda r: r.kind)
    def test_every_substitution_and_truncation(self, record):
        line = _encode(record)[:-1]
        for position in range(len(line)):
            head, tail = line[:position], line[position + 1:]
            for value in range(256):
                if value == line[position]:
                    continue
                corrupt = head + bytes([value]) + tail
                decoded = _decode(corrupt)
                assert decoded is None or decoded == two_pass_decode(corrupt)
            assert _decode(line[:position]) is None
            assert two_pass_decode(line[:position]) is None

    def test_a_same_double_digit_change_is_now_caught(self):
        """Two spellings of one double: the old check re-encoded the
        parsed float and passed the edit, the check over bytes fails it."""
        t = 0.1 + 0.2
        line = _encode(WalRecord(1, "heartbeat", t=t))[:-1]
        spelled = repr(t).encode()
        other = spelled[:-1] + bytes([spelled[-1] - 1])  # ...04 -> ...03
        assert float(other) == t
        edited = line.replace(spelled, other)
        assert two_pass_decode(edited) is not None
        assert _decode(edited) is None
