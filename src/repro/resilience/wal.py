"""Append-only, CRC-checksummed write-ahead log of queue decisions.

Durability for the online learner comes from journaling the
:class:`~repro.serve.ingest.EventQueue`'s *decision log*, not its
outcome: every accepted event (``accept``), every ``drop_oldest``
eviction (``evict``) and every micro-batch hand-off (``batch``) is
appended **before** the corresponding state change happens.  Replaying
the log therefore reconstructs the exact FIFO evolution of the queue —
including the exact micro-batch boundaries the trainer saw — which is
what makes crash recovery (:mod:`repro.resilience.recovery`) bitwise
identical to an uninterrupted run.

The log doubles as a replication stream (:mod:`repro.replicate`): a
primary emits periodic ``heartbeat`` records carrying its clock so
followers tailing the log can both measure staleness and detect primary
silence.  Heartbeats are liveness metadata — they carry no queue
decision and every replayer skips them.

Admission control (:mod:`repro.serve.admission`) journals its denials
the same write-ahead way: a ``shed`` record for every event refused by
a load-shedding policy and a ``throttle`` record for every per-user
rate-limit rejection, each carrying the denied edge and the decision
``reason``.  Like heartbeats they change no queue state and every
replayer skips them — they exist so overload behaviour is *audited*:
:func:`decision_ledger` folds them back into per-reason counts that
reconciliation compares against the queue's deadletter ledger (zero
unjournaled drops).

Format: one JSON record per line, smallest-possible canonical encoding
(sorted keys, no whitespace) with a ``crc`` field holding the CRC-32 of
the canonical record body.  ``crc`` sorts first, so a line is
``{"crc":N,`` followed by the body's canonical bytes minus their ``{``:
the writer splices the checksum in and the reader checks it over the
bytes as written, neither re-encoding.  Sequence numbers are contiguous
from 1; a gap, a failed checksum or an unterminated final line marks the
end of the valid prefix.  A torn tail — the partially-flushed final
record of a crashed process — is *detected and dropped*, never fatal:
opening the log truncates it back to the valid prefix and appends from
there.

The log is one append-only file that only the torn-tail repair ever
cuts: catch-up rebuilds the graph from every edge ever journaled, so
every reader starts at seq 1, and a concurrent tailer's committed
offset stays valid because the repair never cuts a valid record.

Timestamps survive the JSON round-trip bit-exactly: ``json`` emits the
shortest ``repr`` that parses back to the identical IEEE-754 double.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from itertools import islice
from dataclasses import dataclass, field
from typing import IO, Dict, Generator, Iterator, List, Optional, Tuple

from repro.graph.streams import StreamEdge

#: record kinds a WAL may contain: queue decisions, liveness heartbeats
#: and admission-control denials (ledger-only; replayers skip them)
WAL_KINDS = ("accept", "evict", "batch", "heartbeat", "shed", "throttle")

#: kinds that carry no queue-state change: every replayer skips them
LEDGER_ONLY_KINDS = ("heartbeat", "shed", "throttle")

#: kinds that carry a denied/evicted edge payload
_EDGE_KINDS = ("accept", "evict", "shed", "throttle")


@dataclass(frozen=True)
class WalRecord:
    """One journaled queue decision (or liveness heartbeat).

    ``edge`` is set for ``accept``/``evict``/``shed``/``throttle``
    records; ``count`` is the micro-batch size for ``batch`` records;
    ``t`` is the writer's clock reading for ``heartbeat`` records;
    ``reason`` is the admission decision category on ``shed``/
    ``throttle`` records.
    """

    seq: int
    kind: str
    edge: Optional[StreamEdge] = None
    count: int = 0
    t: float = 0.0
    reason: str = ""


@dataclass
class WalScan:
    """The valid prefix of a log plus what was dropped after it."""

    records: List[WalRecord] = field(default_factory=list)
    #: byte length of the valid prefix (the truncation target)
    valid_bytes: int = 0
    #: records after the valid prefix (torn tail / corruption), dropped
    dropped_records: int = 0
    #: highest sequence number in the valid prefix (0 = empty log)
    last_seq: int = 0


#: every line opens with its checksum: ``{"crc":N,`` then the body's keys
_CRC_HEAD = b'{"crc":'


def _canonical(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _encode(record: WalRecord) -> bytes:
    body: dict = {"kind": record.kind, "seq": int(record.seq)}
    if record.edge is not None:
        body["u"] = int(record.edge.u)
        body["v"] = int(record.edge.v)
        body["et"] = str(record.edge.edge_type)
        body["t"] = float(record.edge.t)
    if record.kind == "batch":
        body["n"] = int(record.count)
    if record.kind == "heartbeat":
        body["t"] = float(record.t)
    if record.reason:
        body["why"] = str(record.reason)
    canonical = _canonical(body)
    # "crc" sorts before every body key, so splicing it in first is the
    # canonical encoding of the body with its checksum added
    return b'{"crc":%d,' % zlib.crc32(canonical) + canonical[1:] + b"\n"


def _decode(line: bytes) -> Optional[WalRecord]:
    """Parse one journal line; ``None`` for anything invalid.

    The checksum is verified over the bytes as written — the line minus
    its ``"crc":N,`` head — so nothing is re-encoded to check it.
    """
    if not line.startswith(_CRC_HEAD):
        return None
    comma = line.find(b",", len(_CRC_HEAD))
    digits = line[len(_CRC_HEAD):comma]
    if comma < 0 or not digits.isdigit():
        return None
    crc = int(digits)
    if crc != zlib.crc32(b"{" + line[comma + 1:]):
        return None
    try:
        payload = json.loads(line.decode("utf-8"))  # an object: it opens with "{"
    except (ValueError, UnicodeDecodeError):
        return None
    kind = payload.get("kind")
    seq = payload.get("seq")
    if kind not in WAL_KINDS or not isinstance(seq, int) or seq < 1:
        return None
    edge: Optional[StreamEdge] = None
    count = 0
    stamp = 0.0
    reason = payload.get("why", "")
    if not isinstance(reason, str):
        return None
    if kind in _EDGE_KINDS:
        try:
            edge = StreamEdge(
                int(payload["u"]),
                int(payload["v"]),
                str(payload["et"]),
                float(payload["t"]),
            )
        except (KeyError, TypeError, ValueError):
            return None
    elif kind == "batch":
        count = payload.get("n")
        if not isinstance(count, int) or count < 1:
            return None
    else:  # heartbeat
        raw = payload.get("t")
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            return None
        stamp = float(raw)
    return WalRecord(
        seq=seq, kind=kind, edge=edge, count=count, t=stamp, reason=reason
    )


def _count_lines(data: bytes) -> int:
    return sum(1 for piece in data.split(b"\n") if piece)


#: how a read of the log can end — the cursor's typed stop
EOF, TORN, INVALID, GAP, VANISHED = "eof", "torn", "invalid", "gap", "vanished"


class _Cursor:
    """The one reader: every parse of the log is a walk of this cursor.

    It owns line framing, ``_decode``, seq continuity and the
    ``(offset, next_seq)`` position, which only ever advances past
    complete, valid, in-sequence records.  Iterating yields those
    records from the position on and leaves in ``stop`` why the walk
    ended: ``eof`` (the file read to its end, or no file yet),
    ``torn`` (an unterminated final line), ``invalid`` (a terminated
    line that fails to parse or checksum), ``gap`` (a record out of
    sequence) or ``vanished`` (a resumed position the file no longer
    reaches: it is missing or shorter than the offset).  ``stop`` stays
    ``None`` while the consumer has not drained the walk.  A fresh
    cursor starts at byte 0, seq 1; there is no seek.
    """

    def __init__(self, path: str, offset: int = 0, next_seq: int = 1):
        self.path = path
        self.offset = offset
        self.next_seq = next_seq
        self.stop: Optional[str] = None

    def __iter__(self) -> Iterator[WalRecord]:
        self.stop = yield from self._walk()

    def _walk(self) -> Generator[WalRecord, None, str]:
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return VANISHED if self.offset else EOF
        with fh:
            if os.fstat(fh.fileno()).st_size < self.offset:
                return VANISHED
            fh.seek(self.offset)
            while True:
                line = fh.readline()
                if not line:
                    return EOF
                if not line.endswith(b"\n"):
                    return TORN
                record = _decode(line[:-1])
                if record is None:
                    return INVALID
                if record.seq != self.next_seq:
                    return GAP
                self.offset += len(line)
                self.next_seq += 1
                yield record


def iter_records(path: str) -> Iterator[WalRecord]:
    """Stream the valid record prefix of ``path`` from seq 1.

    Unlike :func:`scan` this never materialises the log.  Iteration
    ends at the cursor's stop, whatever its kind, so
    ``list(iter_records(p)) == scan(p).records`` for any log, damaged or
    not — both are the same walk.
    """
    return iter(_Cursor(path))


def scan(path: str, collect_records: bool = True) -> WalScan:
    """Read the valid record prefix of ``path`` (missing file: empty).

    The prefix ends at the cursor's stop — the first unterminated,
    unparsable, checksum-failing or out-of-sequence line — and every
    line on disk past it counts as dropped.  This is the torn-tail
    tolerance contract: a crash mid-append loses at most the record
    being written, never the log.

    With ``collect_records=False`` the log is still fully validated
    (``last_seq``/``valid_bytes``/``dropped_records`` are exact) but the
    record list stays empty — use :func:`iter_records` to stream the
    contents without holding them all in memory.
    """
    result = WalScan()
    cursor = _Cursor(path)
    for record in cursor:
        if collect_records:
            result.records.append(record)
    result.last_seq = cursor.next_seq - 1
    result.valid_bytes = cursor.offset
    if cursor.stop != EOF:
        with open(path, "rb") as fh:
            fh.seek(cursor.offset)
            result.dropped_records = _count_lines(fh.read())
    return result


def decision_ledger(path: str) -> Dict[str, Dict[str, int]]:
    """Per-reason counts of journaled admission decisions in ``path``.

    Returns ``{kind: {reason: count}}`` for ``shed`` and ``throttle``
    records.  Backpressure evictions are not admission decisions and
    are excluded.  Streams the log; never materialises it.
    """
    ledger: Dict[str, Dict[str, int]] = {"shed": {}, "throttle": {}}
    for record in iter_records(path):
        if record.kind in ledger:
            bucket = ledger[record.kind]
            bucket[record.reason] = bucket.get(record.reason, 0) + 1
    return ledger


def _repair(path: str, recovered: WalScan) -> None:
    """Truncate the log :func:`scan` read back to its valid prefix."""
    if os.path.exists(path) and recovered.valid_bytes < os.path.getsize(path):
        with open(path, "r+b") as fh:
            fh.truncate(recovered.valid_bytes)


class WriteAheadLog:
    """Appender over one journal, self-repairing on open.

    It counts its own ``appends`` and ``bytes_appended`` since this open
    and the open's ``torn_records_dropped``: ``wal.*`` instruments read them.

    Parameters
    ----------
    path:
        Journal file; parent directories are created, an existing log is
        scanned and truncated back to its valid prefix so appends
        continue the sequence.
    fsync:
        ``True`` forces an ``os.fsync`` after every append (durability
        against OS crash, not just process crash).  Default off: the
        per-record flush already survives process death.
    recovered:
        A :func:`scan` of ``path`` taken since its last append (recovery
        reads the log once and opens from that walk); ``None`` scans.
    """

    def __init__(
        self,
        path: str,
        fsync: bool = False,
        recovered: Optional[WalScan] = None,
    ):
        self.path = path
        self.fsync = fsync
        # Guards the file handle, the sequence counter and the append
        # tallies: one append = one contiguous seq + one uninterleaved
        # record line.
        self._lock = threading.Lock()
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        if recovered is None:
            recovered = scan(path, collect_records=False)
        _repair(path, recovered)
        self.last_seq = recovered.last_seq
        self.torn_records_dropped = recovered.dropped_records
        self.appends = 0
        self.bytes_appended = 0
        self._fh: Optional[IO[bytes]] = open(path, "ab")

    # ------------------------------------------------------------- appending

    def append_accept(self, edge: StreamEdge) -> WalRecord:
        """Journal one accepted event (call *before* buffering it)."""
        return self._append("accept", edge=edge)

    def append_evict(self, edge: StreamEdge) -> WalRecord:
        """Journal an eviction (call *before* popping the queue head)."""
        return self._append("evict", edge=edge)

    def append_shed(self, edge: StreamEdge, reason: str) -> WalRecord:
        """Journal a load-shedding denial (ledger-only; never replayed)."""
        if not reason:
            raise ValueError("shed records require a non-empty reason")
        return self._append("shed", edge=edge, reason=reason)

    def append_throttle(self, edge: StreamEdge, reason: str) -> WalRecord:
        """Journal a rate-limit denial (ledger-only; never replayed)."""
        if not reason:
            raise ValueError("throttle records require a non-empty reason")
        return self._append("throttle", edge=edge, reason=reason)

    def append_batch(self, count: int) -> WalRecord:
        """Journal a micro-batch hand-off of ``count`` buffered events."""
        if count < 1:
            raise ValueError(f"batch count must be >= 1, got {count}")
        return self._append("batch", count=count)

    def append_heartbeat(self, t: float) -> WalRecord:
        """Journal a liveness heartbeat stamped with the writer's clock."""
        return self._append("heartbeat", t=float(t))

    def _append(
        self,
        kind: str,
        edge: Optional[StreamEdge] = None,
        count: int = 0,
        t: float = 0.0,
        reason: str = "",
    ) -> WalRecord:
        with self._lock:
            if self._fh is None:
                raise ValueError("write-ahead log is closed")
            record = WalRecord(self.last_seq + 1, kind, edge, count, t, reason)
            # Writing under the lock IS the durability contract: the
            # contiguous-seq invariant requires assigning the sequence
            # number and emitting its record as one atomic step.  The
            # write is an append to a local file — bounded, no network.
            payload = _encode(record)
            self._fh.write(payload)
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())  # reprolint: disable=hold-and-call
            self.last_seq = record.seq
            self.appends += 1
            self.bytes_appended += len(payload)
        return record

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class WalTailError(RuntimeError):
    """The tailed log contradicts itself (sequence gap or corruption)."""


#: cursor stops a tailer cannot wait out
_TAIL_ERRORS = {
    INVALID: "corrupt record",
    GAP: "sequence gap",
    VANISHED: "committed position vanished",
}


class WalTailer:
    """Incremental reader over a WAL a live writer may still be appending.

    Each :meth:`poll` resumes the cursor from the last *committed*
    (offset, next_seq) position and returns every complete,
    valid record appended since.  The committed position only ever
    advances past fully-validated records, which makes the tailer safe
    against the writer's crash-repair truncation: a recovering
    :class:`WriteAheadLog` truncates only the *invalid* suffix, and the
    tailer never committed into it.  A file cut below the committed
    offset (or removed) was not repaired by a writer: that is
    ``vanished``.

    A walk that stops ``eof`` or ``torn`` is *pending* — the writer is
    idle or mid-flush; the next poll retries from the same position —
    while ``invalid``, ``gap`` and ``vanished`` are real corruption and
    raise :class:`WalTailError`.  A tailer always starts at seq 1.

    Single-consumer: one thread drives :meth:`poll`; the lock makes the
    position and backlog safely readable from other threads (lag
    probes, metrics scrapes).
    """

    def __init__(self, path: str):
        self.path = path
        # Guards the committed read position and the backlog so lag
        # probes from other threads see a consistent (offset, seq).
        self._lock = threading.Lock()
        self._position: Tuple[int, int] = (0, 1)
        self._backlog_bytes = 0

    # --------------------------------------------------------------- polling

    def poll(self, max_records: Optional[int] = None) -> List[WalRecord]:
        """Return records appended since the last poll (may be empty).

        An empty list means "nothing complete yet" — either the writer
        is idle or its final record is still being flushed.  I/O runs
        outside the lock; the committed position is updated only after
        the read succeeds, so a raising poll leaves the tailer where it
        was.
        """
        with self._lock:
            cursor = _Cursor(self.path, *self._position)
        records = list(islice(cursor, max_records))
        if cursor.stop in _TAIL_ERRORS:
            raise WalTailError(
                f"{_TAIL_ERRORS[cursor.stop]} after seq {cursor.next_seq - 1} "
                f"of {self.path!r} (at byte {cursor.offset})"
            )
        backlog = self._measure_backlog(cursor.offset)
        with self._lock:
            self._position = (cursor.offset, cursor.next_seq)
            self._backlog_bytes = backlog
        return records

    def _measure_backlog(self, offset: int) -> int:
        """Bytes on disk past the committed position (shipping backlog)."""
        try:
            return max(0, os.path.getsize(self.path) - offset)
        except OSError:
            return 0

    # ------------------------------------------------------------ inspection

    @property
    def bytes_read(self) -> int:
        """Bytes of the records returned so far: the committed offset,
        since a tailer starts at byte 0."""
        with self._lock:
            return self._position[0]

    @property
    def backlog_bytes(self) -> int:
        """On-disk bytes past the committed position at the last poll."""
        with self._lock:
            return self._backlog_bytes
