"""Time-tag data model, binary stream I/O, and trigger/edge pairing.

The on-disk format (``.pnrtag``) is little-endian: a 16-byte header (ASCII
magic, then version, resolution, channel count and note length as u16), a
note that readers skip, and fixed 16-byte records.  Timestamps are signed
64-bit integers in units of 0.1 ps, an order of magnitude below the
per-channel tagger jitter, and wide enough for multi-day streams.

Channel map: 0 = trigger photodiode, 1/2 = detector A rising/falling,
3/4 = detector B rising/falling.
"""

from __future__ import annotations

import io
import math
import numbers
import os
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import textio
from .errors import ConfigError, DataError, StreamFormatError

MAGIC = b"PNRTAG01"
FORMAT_VERSION = 1
RESOLUTION_CODE = 1  # code 1 = 0.1 ps per timestamp unit
CHANNEL_COUNT = 5
UNITS_PER_PS = 10

CH_TRIGGER = 0
DETECTOR_CHANNELS = {"A": (1, 2), "B": (3, 4)}

_HEADER_FIXED = struct.Struct("<8sHHHH")  # magic, version, resolution, channels, note length
_RECORD_DTYPE = np.dtype(
    [
        ("channel", "u1"),
        ("flags", "u1"),
        ("reserved16", "<u2"),
        ("reserved32", "<u4"),
        ("timestamp", "<i8"),
    ]
)
RECORD_SIZE = _RECORD_DTYPE.itemsize  # 16 bytes
_CHUNK_BYTES = 1 << 22  # 4 MiB per read or write, a whole number of records
_CHUNK_RECORDS = _CHUNK_BYTES // RECORD_SIZE
_INT64_MAX = int(np.iinfo(np.int64).max)
# pairing cuts the block into parts of about this many triggers; any size
# gives the same result.  A worker thread's malloc arena keeps what the
# thread freed, where the caller cannot reuse it, so parts stay small: at
# 1 << 17 the decode-2arm-2m benchmark's peak RSS rose by up to 11 MB
_PAIR_PART = 1 << 15
# threads for pairing and the calibration's reference scan, at most this
# many, since the scan's peak search runs in Python under the GIL
_MAX_SCAN_WORKERS = 4


@dataclass(eq=False)
class TagBlock:
    """Column-oriented tag storage: one uint8 channel and one int64 timestamp per tag."""

    channels: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.uint8)
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        if self.channels.shape != self.timestamps.shape or self.channels.ndim != 1:
            raise ValueError("channels and timestamps must be 1-D arrays of equal length")
        if self.channels.size and int(self.channels.max()) >= CHANNEL_COUNT:
            raise ValueError(
                f"channel out of range: {int(self.channels.max())} >= {CHANNEL_COUNT}"
            )

    def sorted(self) -> "TagBlock":
        """Return a copy sorted by timestamp, ties broken by channel ascending."""
        order = np.lexsort((self.channels, self.timestamps))
        return TagBlock(self.channels[order], self.timestamps[order])

    def is_sorted(self) -> bool:
        return _first_out_of_order(self) is None

    def __len__(self) -> int:
        return self.channels.size


def _first_out_of_order(block: TagBlock) -> int | None:
    """Index of the first tag that sorts before its predecessor by
    (timestamp, channel), or None when the block is in order.  The tags are
    compared one chunk at a time, so the check's masks stay chunk-sized."""
    ts, ch = block.timestamps, block.channels
    for start in range(1, ts.size, _CHUNK_RECORDS):
        stop = min(start + _CHUNK_RECORDS, ts.size)
        bad = ts[start:stop] < ts[start - 1 : stop - 1]
        tie = np.flatnonzero(ts[start:stop] == ts[start - 1 : stop - 1]) + start
        bad[tie[ch[tie] < ch[tie - 1]] - start] = True
        i = int(np.argmax(bad))
        if bad[i]:
            return start + i
    return None


def _open_sink(sink):
    if hasattr(sink, "write"):
        return sink, False
    return textio.open_output(sink, "wb"), True


def _open_source(source):
    if hasattr(source, "read"):
        return source, False
    return open(Path(source), "rb"), True


def write_stream(tags: TagBlock, sink) -> int:
    """Serialize a TagBlock to a byte sink, with an empty header note;
    returns the number of bytes written.

    The records go out through one reused 4 MiB buffer, so writing needs
    at most that much memory beyond the block.  Tags must already be
    sorted by (timestamp, channel); violations raise DataError, before
    anything is written, rather than silently reordering.
    """
    bad = _first_out_of_order(tags)
    if bad is not None:
        raise DataError(f"tags out of order at record {bad}")
    header = _HEADER_FIXED.pack(MAGIC, FORMAT_VERSION, RESOLUTION_CODE, CHANNEL_COUNT, 0)
    n = len(tags)
    records = np.zeros(min(n, _CHUNK_RECORDS), dtype=_RECORD_DTYPE)

    f, should_close = _open_sink(sink)
    try:
        f.write(header)
        for start in range(0, n, _CHUNK_RECORDS):
            part = records[: min(n - start, _CHUNK_RECORDS)]
            part["channel"] = tags.channels[start : start + part.size]
            part["timestamp"] = tags.timestamps[start : start + part.size]
            f.write(part)  # the buffer itself, not a copy of it
    finally:
        if should_close:
            f.close()
    return len(header) + n * RECORD_SIZE


def _read_full(f, n: int) -> bytes:
    """Up to n bytes, fewer only at the end of the stream, from a source
    whose ``read`` may return short."""
    parts, got = [], 0
    while got < n:
        part = f.read(n - got)
        if not part:
            break
        parts.append(part)
        got += len(part)
    return b"".join(parts)


def _read_header(f) -> tuple[int, int]:
    """(channel count, header size in bytes) of a stream; the note after
    the fixed header is skipped without decoding, whatever its bytes."""
    raw = _read_full(f, _HEADER_FIXED.size)
    if len(raw) < _HEADER_FIXED.size:
        raise StreamFormatError("stream shorter than the fixed header", byte_offset=len(raw))
    magic, version, resolution, channels, note_len = _HEADER_FIXED.unpack(raw)
    if magic != MAGIC:
        raise StreamFormatError(f"bad magic {magic!r}", byte_offset=0)
    if version != FORMAT_VERSION:
        raise StreamFormatError(f"unsupported format version {version}")
    if resolution != RESOLUTION_CODE:
        raise StreamFormatError(f"unsupported resolution code {resolution}")
    note = _read_full(f, note_len)
    if len(note) < note_len:
        raise StreamFormatError("truncated header note", byte_offset=_HEADER_FIXED.size + len(note))
    return channels, _HEADER_FIXED.size + note_len


def _check_channels(channels: np.ndarray, channel_count: int, offset: int):
    limit = min(channel_count, CHANNEL_COUNT)
    bad = np.nonzero(channels >= limit)[0]
    if bad.size:
        raise StreamFormatError(
            f"channel {int(channels[bad[0]])} out of range",
            byte_offset=offset + int(bad[0]) * RECORD_SIZE,
        )


def iter_tag_blocks(source) -> Iterator[TagBlock]:
    """Read a stream as TagBlock chunks of at most 4 MiB of records each.

    Each chunk holds read-only views of the bytes it was read from, so a
    caller that drops each chunk before taking the next keeps memory
    bounded by one chunk.  Header and record errors raise
    StreamFormatError during iteration, with the byte offset of the
    offending record; the chunks before it have been yielded by then.
    """
    f, should_close = _open_source(source)
    try:
        channel_count, offset = _read_header(f)
        while True:
            buf = _read_full(f, _CHUNK_BYTES)
            n, tail = divmod(len(buf), RECORD_SIZE)
            full = len(buf) == _CHUNK_BYTES
            if n:
                records = np.frombuffer(buf, dtype=_RECORD_DTYPE, count=n)
                _check_channels(records["channel"], channel_count, offset)
                yield TagBlock(records["channel"], records["timestamp"])
                del records
            del buf  # during the next read, only a caller that kept its chunk holds these bytes
            offset += n * RECORD_SIZE
            if tail:
                raise StreamFormatError(f"truncated record: {tail} trailing bytes", byte_offset=offset)
            if not full:
                return
    finally:
        if should_close:
            f.close()


def _bytes_left(f) -> int:
    """Bytes from the position of ``f`` to its end, or 0 for a source that
    cannot seek."""
    try:
        pos = f.tell()
        end = f.seek(0, io.SEEK_END)
        f.seek(pos)
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return 0
    return max(end - pos, 0)


def read_tag_block(source) -> TagBlock:
    """Load a whole stream into one TagBlock, filled chunk by chunk from
    iter_tag_blocks.

    The columns are allocated, not zero-filled, at the first chunk, sized
    for the records the source says remain; they grow in place by doubling
    when it yields more (or cannot say), so reading a file needs about the
    block itself plus one 4 MiB chunk.  Errors are those of iter_tag_blocks.
    """
    f, should_close = _open_source(source)
    channels, timestamps, n = np.empty(0, np.uint8), np.empty(0, np.int64), 0
    try:
        for chunk in iter_tag_blocks(f):
            m = len(chunk)
            if n + m > channels.size:
                size = max(n + m + _bytes_left(f) // RECORD_SIZE, 2 * channels.size)
                if not n:
                    channels, timestamps = np.empty(size, np.uint8), np.empty(size, np.int64)
                else:
                    # in place, so a source that cannot say its size never
                    # holds two copies: no view of either column exists here
                    channels.resize(size, refcheck=False)
                    timestamps.resize(size, refcheck=False)
            channels[n : n + m] = chunk.channels
            timestamps[n : n + m] = chunk.timestamps
            n += m
            del chunk  # before the next read, so one chunk is held at a time
    finally:
        if should_close:
            f.close()
    channels.resize(n, refcheck=False)
    timestamps.resize(n, refcheck=False)
    return TagBlock(channels, timestamps)


def _check_pairing(detector: str, window_ps: float) -> None:
    """Raise ConfigError for a detector that is not one of the named strs,
    or for a window that is not a positive, finite real number (a bool is
    not one): the one rule of pair_edges, EdgeEventSet, PairTable,
    CalibrationModel and PhotonRecordSet."""
    # a str first, so an unhashable detector never reaches the dict lookup
    if not isinstance(detector, str) or detector not in DETECTOR_CHANNELS:
        raise ConfigError(f"unknown detector {detector!r}")
    real = isinstance(window_ps, numbers.Real) and not isinstance(window_ps, bool)
    if not (real and 0 < window_ps < math.inf):
        raise ConfigError(f"window must be positive and finite, not {window_ps!r}")


@dataclass(eq=False)
class EdgeEventSet:
    """Pairing result for one detector: the time of every channel-0 tag, in
    trigger order, and for each trigger with a detection its index and its
    edge delays after it, on the tag grid (0.1 ps units, like timestamps).

    ``detection`` lists the indices of the triggers with a detection in
    strictly ascending order, and ``rise_units``/``fall_units`` hold one
    int64 delay per detection.  A detector or window that pair_edges
    refuses, arrays that are not 1-D integer arrays, delay arrays whose
    lengths differ from ``detection``'s, or indices that are not strictly
    ascending within [0, len) raise ConfigError.
    """

    detector: str
    window_ps: float
    trigger_time: np.ndarray
    detection: np.ndarray
    rise_units: np.ndarray
    fall_units: np.ndarray
    orphan_edges: int = 0

    def __post_init__(self):
        _check_pairing(self.detector, self.window_ps)
        for name in ("trigger_time", "detection", "rise_units", "fall_units"):
            a = np.asarray(getattr(self, name))
            # an empty list arrives as float64
            if a.ndim != 1 or a.dtype == bool or (a.size and not np.can_cast(a.dtype, np.int64)):
                raise ConfigError(f"{name} must be a 1-D integer array, not {a.ndim}-D {a.dtype}")
            setattr(self, name, a.astype(np.int64, copy=False))
        d = self.detection
        if not d.size == self.rise_units.size == self.fall_units.size:
            raise ConfigError("detection, rise_units and fall_units must have equal length")
        if d.size and (d[0] < 0 or d[-1] >= len(self) or not np.all(d[1:] > d[:-1])):
            raise ConfigError(f"detection must be strictly ascending trigger indices in [0, {len(self)})")

    def __len__(self) -> int:
        return self.trigger_time.size

    def detected(self) -> tuple[np.ndarray, np.ndarray]:
        """(rise, fall) delays of the detected events in ps."""
        return self.rise_units / UNITS_PER_PS, self.fall_units / UNITS_PER_PS

    @property
    def n_detections(self) -> int:
        return self.detection.size

    def diagnostics(self) -> dict:
        n_det = self.n_detections
        return {
            "triggers": len(self),
            "detections": n_det,
            "zero_events": len(self) - n_det,
            "orphan_edges": int(self.orphan_edges),
        }


def _scan_workers() -> int:
    """Threads for pairing and the reference scan: the CPUs this process
    may run on, at most _MAX_SCAN_WORKERS."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        n = os.cpu_count() or 1
    return min(n, _MAX_SCAN_WORKERS)


def _thread_map(fn, items: Sequence, workers: int) -> Iterator:
    """Yield fn(item) for each item, in item order, computed on up to
    ``workers`` threads.  At most ``workers`` items are in flight, so the
    results that wait for the caller are bounded by the thread count, not
    by the number of items.  One worker, or one item, runs in the caller's
    thread."""
    if workers <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(workers) as pool:
        pending = deque(pool.submit(fn, item) for item in items[:workers])
        for item in items[workers:]:
            result = pending.popleft().result()
            pending.append(pool.submit(fn, item))
            yield result
        while pending:
            yield pending.popleft().result()


def _part_starts(trig: np.ndarray, units: int) -> list[int]:
    """Trigger indices at which pair_edges cuts the block, 0 first: in each
    run of _PAIR_PART triggers after the first, the first trigger whose
    predecessor's window ends before it.  A timestamp tie is never cut."""
    starts = [0]
    for s in range(_PAIR_PART, trig.size, _PAIR_PART):
        e = min(s + _PAIR_PART, trig.size)
        end = np.minimum(trig[s - 1 : e - 1], _INT64_MAX - units)
        end += units
        cut = np.flatnonzero(trig[s:e] > end)
        if cut.size:
            starts.append(s + int(cut[0]))
    return starts


def _pair_part(ch, ts, trig, ch_rise, ch_fall, units, det, r, f) -> tuple[int, int]:
    """Pair one trigger-aligned part: tags ``ch``/``ts`` and their triggers
    ``trig``.  ``det``, ``r`` and ``f`` are int64 arrays of len(trig) that
    serve as scratch; the part's detections end in their first entries, as
    trigger indices within the part and rise and fall delays after their
    triggers.  Returns (detections, detector tags)."""
    rise = ts[ch == ch_rise]
    n_edges = rise.size + int(np.count_nonzero(ch == ch_fall))
    if not (trig.size and rise.size and n_edges > rise.size):  # no trigger, rise or fall
        return 0, n_edges
    j = np.searchsorted(rise, trig)  # first rise at or after each trigger
    ok = j < rise.size
    np.take(rise, j, out=r, mode="clip")
    ok[:-1] &= r[:-1] < trig[1:]  # the next trigger owns a rise at or after it
    j += 1
    np.take(rise, j, out=det, mode="clip")  # the rise after r ...
    np.putmask(det, j >= rise.size, _INT64_MAX)  # ... or none
    del j, rise
    fall = ts[ch == ch_fall]
    first_fall = np.searchsorted(fall, r, side="right")  # first fall after r
    ok &= first_fall < fall.size
    np.take(fall, first_fall, out=f, mode="clip")
    del first_fall, fall
    ok &= det >= f  # f belongs to r: no other rise lies in [r, f)
    # the window end saturates at the clock's last tick, neither wrapping nor reaching inf
    np.minimum(trig, _INT64_MAX - units, out=det)
    det += units
    ok &= r <= det
    ok &= f <= det
    idx = np.flatnonzero(ok)
    del ok
    n = idx.size
    t = np.take(trig, idx, out=det[:n])
    np.subtract(r[idx], t, out=r[:n])
    np.subtract(f[idx], t, out=f[:n])
    det[:n] = idx
    return n, n_edges


def pair_edges(tags: TagBlock, window_ps: float, detector: str = "A") -> EdgeEventSet:
    """Pair each trigger with one rising and one falling edge of the detector.

    A rise belongs to the latest trigger at or before it (on a timestamp
    tie, to the later trigger), and a fall to the latest rise strictly
    before it.  Trigger t takes the first rise r it owns and the first fall
    f after r, provided f belongs to r, i.e. no other rise lies in [r, f).
    It is a detection when r and f both lie in [t, t + window].  The rule
    is the same whether or not the windows of neighbouring triggers
    overlap.  A window that reaches past the int64 clock pairs as if it had
    no end.  Every detector tag not paired into a detection is counted
    under ``orphan_edges``.  An unknown detector, or a window that is not a
    positive, finite real number, raises ConfigError.

    The block is paired in trigger-aligned parts of about _PAIR_PART
    triggers, on up to four threads (_scan_workers: at most one per CPU
    the process may run on).  A part starts at a trigger whose
    predecessor's window ends before it, so no detection reaches across a
    cut, and the parts are gathered in order: the result does not depend
    on the part size or the CPU count.  When no trigger qualifies, e.g.
    for windows longer than the trigger period, the block is one part.
    """
    _check_pairing(detector, window_ps)
    if not tags.is_sorted():
        raise DataError("tags must be sorted by (timestamp, channel) before pairing")

    ch_rise, ch_fall = DETECTOR_CHANNELS[detector]
    ch, ts = tags.channels, tags.timestamps
    trig = ts[ch == CH_TRIGGER]
    units = min(int(round(min(window_ps * UNITS_PER_PS, 2.0**63))), _INT64_MAX)
    starts = _part_starts(trig, units)
    # a cut trigger is the first tag at its timestamp: its predecessor is earlier
    tag_starts = [0, *np.searchsorted(ts, trig[starts[1:]]).tolist(), ts.size]
    starts.append(trig.size)
    detection, rise_units, fall_units = (np.empty(trig.size, np.int64) for _ in range(3))

    def run(k):
        a, b = starts[k], starts[k + 1]
        p, q = tag_starts[k], tag_starts[k + 1]
        return _pair_part(
            ch[p:q], ts[p:q], trig[a:b], ch_rise, ch_fall, units, detection[a:b], rise_units[a:b], fall_units[a:b]
        )

    n, n_edges = 0, 0
    for k, (m, edges) in enumerate(_thread_map(run, range(len(starts) - 1), _scan_workers())):
        a = starts[k]
        detection[a : a + m] += a
        if n < a:  # close up behind the earlier parts
            for out in (detection, rise_units, fall_units):
                out[n : n + m] = out[a : a + m]
        n += m
        n_edges += edges
    for out in (detection, rise_units, fall_units):
        out.resize(n, refcheck=False)  # in place: no view of it is left
    return EdgeEventSet(
        detector=detector,
        window_ps=float(window_ps),
        trigger_time=trig,
        detection=detection,
        rise_units=rise_units,
        fall_units=fall_units,
        orphan_edges=n_edges - 2 * n,
    )
