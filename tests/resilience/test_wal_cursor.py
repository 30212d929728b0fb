"""One cursor: every reader of a damaged log agrees with ``scan``.

``iter_records``, ``scan`` and ``WalTailer.poll`` are three consumers of
one walk (``wal._Cursor``), so they cannot disagree about where a log's
valid prefix ends.  The sweep below damages a log at *every* byte
offset — once by truncating there, once by flipping the byte — and
holds all three, plus the writer's self-repair on open, to that
(ROADMAP item 8c: torn writes anywhere, not only at the tail).  A
damaged byte trips the checksum before the seq check can, so the two
stops the sweep cannot reach — ``gap`` and ``vanished`` — have cases of
their own.
"""

import os

import pytest

from repro.graph.streams import StreamEdge
from repro.resilience.wal import (
    EOF,
    GAP,
    INVALID,
    TORN,
    VANISHED,
    WalTailError,
    WalTailer,
    WriteAheadLog,
    _Cursor,
    iter_records,
    scan,
)

RECORDS = 14


def edge(i):
    return StreamEdge(u=i, v=i + 100, t=float(i), edge_type="click")


def write_log(path, records=RECORDS):
    with WriteAheadLog(path) as wal:
        for i in range(records):
            if i % 5 == 4:
                wal.append_batch(2)
            elif i % 7 == 6:
                wal.append_heartbeat(float(i))
            else:
                wal.append_accept(edge(i))


def drain(tailer, chunk=3):
    """Poll to quiescence; returns (records committed, raised?)."""
    seen = []
    while True:
        try:
            records = tailer.poll(max_records=chunk)
        except WalTailError:
            return seen, True
        if not records:
            return seen, False
        seen.extend(records)


def damaged_logs(tmp_path):
    """Yield ``(label, path)`` for the pristine log damaged at every byte
    offset; each case rewrites the file, so what a reopening writer
    repaired never leaks into the next."""
    pristine_path = tmp_path / "pristine.wal"
    write_log(str(pristine_path))
    data = pristine_path.read_bytes()
    path = tmp_path / "sweep.wal"
    for offset in range(len(data)):
        flipped = bytearray(data)
        flipped[offset] ^= 0xFF
        for kind, damaged in (("cut", data[:offset]), ("flip", bytes(flipped))):
            path.write_bytes(damaged)
            yield f"{kind} @{offset}", str(path)


def test_every_reader_agrees_with_scan_at_every_byte_offset(tmp_path):
    cases = 0
    stops = set()
    for label, path in damaged_logs(tmp_path):
        cases += 1
        expected = scan(path)
        assert expected.last_seq == len(expected.records) < RECORDS, label
        assert list(iter_records(path)) == expected.records, label

        cursor = _Cursor(path)
        assert list(cursor) == expected.records, label
        assert cursor.offset == expected.valid_bytes, label
        stops.add(cursor.stop)
        tailed, raised = drain(WalTailer(path))
        assert raised == (cursor.stop == INVALID), label
        if raised:  # never a record scan rejects: a prefix of scan's
            assert tailed == expected.records[: len(tailed)], label
        else:
            assert tailed == expected.records, label

        with WriteAheadLog(path) as wal:
            assert wal.last_seq == expected.last_seq, label
            assert wal.torn_records_dropped == expected.dropped_records, label
            assert os.path.getsize(path) == expected.valid_bytes, label
            repaired = scan(path)
            assert repaired.records == expected.records, label
            assert repaired.dropped_records == 0, label
            appended = wal.append_accept(edge(99))
        assert appended.seq == expected.last_seq + 1, label
        assert scan(path).records == expected.records + [appended], label
    assert cases > 1500
    assert stops == {EOF, TORN, INVALID}  # the sweep reaches every byte stop


def test_committed_position_survives_crash_repair_at_every_tear(tmp_path):
    """A live writer crashes mid-append at every byte of a record; the
    tailer, already committed up to it, reports the tear as pending, and
    after the writer's crash-repair truncation picks up the new timeline
    where it stood."""
    path = str(tmp_path / "live.wal")
    wal = WriteAheadLog(path)
    tailer = WalTailer(path)
    for i in range(4):
        wal.append_accept(edge(i))
    assert [r.seq for r in tailer.poll()] == [1, 2, 3, 4]
    wal.close()
    with WriteAheadLog(str(tmp_path / "donor.wal")) as donor:
        donor.append_accept(edge(50))
    line = (tmp_path / "donor.wal").read_bytes()

    seq = 4
    for tear in range(1, len(line)):
        with open(path, "ab") as fh:
            fh.write(line[:tear])  # the crash: an unterminated record
        assert tailer.poll() == []  # pending, not an error
        assert tailer.committed_seq == seq
        assert tailer.backlog_bytes == tear
        with WriteAheadLog(path) as wal:  # crash-repair, then carry on
            assert wal.torn_records_dropped == 1
            assert wal.append_accept(edge(seq)).seq == seq + 1
        assert [r.seq for r in tailer.poll()] == [seq + 1]
        seq += 1
    assert tailer.committed_seq == seq == scan(path).last_seq
    assert tailer.backlog_bytes == 0


def test_a_tailer_started_before_the_log_exists_picks_it_up(tmp_path):
    path = str(tmp_path / "late.wal")
    tailer = WalTailer(path)
    assert tailer.poll() == []
    with WriteAheadLog(path) as wal:
        wal.append_accept(edge(1))
    assert [r.seq for r in tailer.poll()] == [1]


def test_a_seq_gap_ends_every_reader_at_the_same_record(tmp_path):
    """A well-formed record out of sequence (here seq 4 is missing, so
    seq 5 follows seq 3) is a ``gap``: scan, iter_records and the
    cursor stop before it, a tailer commits exactly the same records and
    then raises, and a reopening writer cuts the rest and continues."""
    path = str(tmp_path / "gap.wal")
    write_log(path, records=6)
    with open(path, "rb") as fh:
        lines = fh.readlines()
    with open(path, "wb") as fh:
        fh.writelines(lines[:3] + lines[4:])

    expected = scan(path)
    assert [r.seq for r in expected.records] == [1, 2, 3]
    assert expected.dropped_records == 2
    assert list(iter_records(path)) == expected.records
    cursor = _Cursor(path)
    assert list(cursor) == expected.records
    assert cursor.stop == GAP
    tailer = WalTailer(path)
    tailed, raised = drain(tailer, chunk=1)
    assert raised and tailed == expected.records
    with pytest.raises(WalTailError, match="sequence gap after seq 3"):
        tailer.poll()
    assert tailer.committed_seq == 3  # a raising poll commits nothing

    with WriteAheadLog(path) as wal:
        assert wal.torn_records_dropped == 2
        assert wal.append_heartbeat(1.0).seq == 4
    assert [r.seq for r in scan(path).records] == [1, 2, 3, 4]


@pytest.mark.parametrize("damage", ["removed", "cut"])
def test_a_log_gone_below_the_committed_position_is_vanished(tmp_path, damage):
    """A file removed, or cut below what a tailer committed, by anything
    other than the writer's repair (which never cuts a valid record) is
    ``vanished`` for that tailer, at once and on every later poll —
    never an idle "pending" — while a fresh reader starts over at seq 1
    and reads what is left."""
    path = str(tmp_path / "shrunk.wal")
    write_log(path, records=10)
    tailer = WalTailer(path)
    assert len(tailer.poll()) == 10
    with open(path, "rb") as fh:
        lines = fh.readlines()
    if damage == "removed":
        os.remove(path)
        left = []
    else:
        with open(path, "wb") as fh:
            fh.writelines(lines[:3])
        left = [1, 2, 3]

    for _ in range(2):
        with pytest.raises(WalTailError, match="vanished after seq 10"):
            tailer.poll()
        assert tailer.committed_seq == 10
    cursor = _Cursor(path, offset=sum(map(len, lines)), next_seq=11)
    assert list(cursor) == [] and cursor.stop == VANISHED

    assert [r.seq for r in scan(path).records] == left
    assert [r.seq for r in iter_records(path)] == left
    fresh = _Cursor(path)
    assert [r.seq for r in fresh] == left and fresh.stop == EOF
    assert [r.seq for r in drain(WalTailer(path))[0]] == left
