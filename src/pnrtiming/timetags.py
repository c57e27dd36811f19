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
# triggers per pairing part, before those in its last one's window; any size
# gives the same result.  A worker thread's malloc arena keeps what the
# thread freed, where the caller cannot reuse it, so parts stay small: at
# 1 << 17 the decode-2arm-2m benchmark's peak RSS rose by up to 11 MB
_PAIR_PART = 1 << 15
# needles per stable merge in _merge_ranks; any size gives the same ranks.
# Pairing runs the merges on worker threads, whose malloc arenas keep the
# scratch: at 1 << 13 the peak RSS of decode --truth at 1e6 triggers rose
# 1.6 MB over binary search, at 1 << 12 0.8 MB, for about 1% more time
_RANK_BLOCK = 1 << 12
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
        return _first_out_of_order(self.channels, self.timestamps) is None

    def __len__(self) -> int:
        return self.channels.size


def _first_out_of_order(ch: np.ndarray, ts: np.ndarray) -> int | None:
    """Index of the first tag that sorts before its predecessor by
    (timestamp, channel), or None when the tags are in order.  The tags are
    compared one chunk at a time, so the check's masks stay chunk-sized:
    one pass finds the tags at or before their predecessor's timestamp, and
    only those few are compared by both keys."""
    for start in range(1, ts.size, _CHUNK_RECORDS):
        stop = min(start + _CHUNK_RECORDS, ts.size)
        i = np.flatnonzero(ts[start:stop] <= ts[start - 1 : stop - 1]) + start  # inversions and ties
        bad = i[(ts[i] < ts[i - 1]) | (ch[i] < ch[i - 1])]
        if bad.size:
            return int(bad[0])
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
    bad = _first_out_of_order(tags.channels, tags.timestamps)
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


def _fill(f, buf: np.ndarray) -> int:
    """Fill the uint8 array ``buf`` from ``f``; returns the bytes read,
    fewer than its size only at the end of the stream.  The bytes go in by
    ``readinto``, which may return short, or for a source without it by
    ``read``, copied in."""
    view, got = memoryview(buf), 0
    readinto = getattr(f, "readinto", None)
    while got < buf.size:
        if readinto is not None:
            n = readinto(view[got:])
        else:
            part = f.read(buf.size - got)
            n = len(part) if part else 0
            view[got : got + n] = part
        if not n:
            break
        got += n
    return got


def _read_full(f, n: int) -> bytes:
    """Up to n bytes, fewer only at the end of the stream."""
    buf = np.empty(n, np.uint8)
    return buf[: _fill(f, buf)].tobytes()


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


def _iter_records(f) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(channels, timestamps) of the records after a stream's header, one
    buffer of _CHUNK_BYTES filled by _fill at a time.  Both are views into
    buffers that the next read overwrites, so a caller copies what it
    keeps before taking the next.  The channels are copied out of the
    records into a contiguous buffer first, where their check runs at
    memory speed.  Header and record errors raise StreamFormatError with
    the byte offset of the offending record, after the records before it."""
    channel_count, offset = _read_header(f)
    raw = np.empty(_CHUNK_BYTES, np.uint8)
    channels = np.empty(_CHUNK_BYTES // RECORD_SIZE, np.uint8)
    while True:
        got = _fill(f, raw)
        n, tail = divmod(got, RECORD_SIZE)
        if n:
            records = raw[: n * RECORD_SIZE].view(_RECORD_DTYPE)
            np.copyto(channels[:n], records["channel"])
            _check_channels(channels[:n], channel_count, offset)
            yield channels[:n], records["timestamp"]
        offset += n * RECORD_SIZE
        if tail:
            raise StreamFormatError(f"truncated record: {tail} trailing bytes", byte_offset=offset)
        if got < raw.size:
            return


def iter_tag_blocks(source) -> Iterator[TagBlock]:
    """Read a stream as TagBlock chunks of at most 4 MiB of records each.

    The records pass through one reused 4 MiB buffer, and each chunk owns
    columns copied out of it: a chunk keeps its values after the next read,
    and a caller that drops each chunk before taking the next keeps memory
    bounded by the buffer and one chunk.  Header and record errors raise
    StreamFormatError during iteration, with the byte offset of the
    offending record; the chunks before it have been yielded by then.
    """
    f, should_close = _open_source(source)
    try:
        for channels, timestamps in _iter_records(f):
            yield TagBlock(channels.copy(), timestamps.copy())
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
    """Load a whole stream into one TagBlock: the reading loop of
    iter_tag_blocks fills its buffers, and their records are copied
    straight into the block's columns.

    The columns are allocated, not zero-filled, at the first chunk, sized
    for the records the source says remain; they grow in place by doubling
    when it yields more (or cannot say), so reading a file needs about the
    block itself plus the 4 MiB buffer.  Errors are those of
    iter_tag_blocks.
    """
    f, should_close = _open_source(source)
    channels, timestamps, n = np.empty(0, np.uint8), np.empty(0, np.int64), 0
    try:
        for chunk_channels, chunk_timestamps in _iter_records(f):
            m = chunk_channels.size
            if n + m > channels.size:
                size = max(n + m + _bytes_left(f) // RECORD_SIZE, 2 * channels.size)
                if not n:
                    channels, timestamps = np.empty(size, np.uint8), np.empty(size, np.int64)
                else:
                    # in place, so a source that cannot say its size never
                    # holds two copies: no view of either column exists here
                    channels.resize(size, refcheck=False)
                    timestamps.resize(size, refcheck=False)
            channels[n : n + m] = chunk_channels
            timestamps[n : n + m] = chunk_timestamps
            n += m
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


def _gather(ch: np.ndarray, ts: np.ndarray, channel: int) -> np.ndarray:
    """``ts[ch == channel]``, the timestamps of one channel's tags, taken by
    index one chunk of tags at a time, as ``np.compress`` takes them but
    with an index that stays chunk-sized.

    Freed, a whole-block index raises glibc's mmap threshold to its size,
    and the heap then keeps arrays below it that the OS used to get back:
    a whole-block trigger gather raised the peak RSS of a read, pair and
    calibrate loop at 3e6 triggers from 288 to 292 MB."""
    mask = ch == channel
    out = np.empty(np.count_nonzero(mask), np.int64)
    k = 0
    for s in range(0, ts.size, _CHUNK_RECORDS):
        index = np.flatnonzero(mask[s : s + _CHUNK_RECORDS])
        # "clip", which never clips here: with out= numpy's default "raise"
        # takes into a temporary copy first
        np.take(ts[s : s + _CHUNK_RECORDS], index, out=out[k : k + index.size], mode="clip")
        k += index.size
    return out


def _merge_ranks(keys: np.ndarray, needles: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(keys, needles, side)`` for ascending int64 keys and
    needles, in linear time: no binary search per needle.

    Each block of _RANK_BLOCK needles is merged with the keys between its
    first needle and the next block's (or its own last needle) by a stable
    argsort of their concatenation, which numpy runs as a timsort over two
    sorted runs.  On a tie the needle goes first for side="left" and the
    key first for side="right", so a needle's place in the merge, less the
    needles before it, is its rank among those keys; the keys below the
    block add the block's offset.  The scratch holds one block and the keys
    within its span, not all the needles.
    """
    out = np.empty(needles.size, np.int64)
    steps = np.arange(min(needles.size, _RANK_BLOCK))
    # the ranks of each block's first needle and of the last needle: a block
    # merges with the keys from its own first needle's rank to the next's
    bounds = np.searchsorted(keys, np.concatenate((needles[::_RANK_BLOCK], needles[-1:])), side).tolist()
    for s, lo, hi in zip(range(0, needles.size, _RANK_BLOCK), bounds, bounds[1:]):
        block = needles[s : s + _RANK_BLOCK]
        if side == "left":
            order = np.argsort(np.concatenate((block, keys[lo:hi])), kind="stable")
            place = np.flatnonzero(order < block.size)
        else:
            order = np.argsort(np.concatenate((keys[lo:hi], block)), kind="stable")
            place = np.flatnonzero(order >= hi - lo)
        rank = np.subtract(place, steps[: block.size], out=out[s : s + block.size])
        rank += lo
    return out


def _pair_part(ch, ts, trig, nxt, ch_rise, ch_fall, units, det, r, f) -> int:
    """Pair one part: triggers ``trig``, with ``nxt`` the trigger after each
    where there is one, against the tags ``ch``/``ts`` up to the last
    trigger's window end.  ``det``, ``r`` and ``f`` are int64 arrays of
    len(trig) that serve as scratch; the part's detections end in their
    first entries, as trigger indices within the part and rise and fall
    delays after their triggers.  Returns their number.

    The first rise at or after each trigger and the first fall after each
    rise are ranks of one ascending column in another, taken by
    _merge_ranks; they equal np.searchsorted's bit for bit."""
    rise = _gather(ch, ts, ch_rise)
    if not (trig.size and rise.size):
        return 0
    j = _merge_ranks(rise, trig, "left")  # first rise at or after each trigger
    ok = j < rise.size
    np.take(rise, j, out=r, mode="clip")
    ok[: nxt.size] &= r[: nxt.size] < nxt  # the next trigger owns a rise at or after it
    j += 1
    np.take(rise, j, out=det, mode="clip")  # the rise after r ...
    np.putmask(det, j >= rise.size, _INT64_MAX)  # ... or none
    del j, rise
    fall = _gather(ch, ts, ch_fall)
    if not fall.size:
        return 0
    first_fall = _merge_ranks(fall, r, "right")  # first fall after r
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
    return n


_UNSORTED = "tags must be sorted by (timestamp, channel) before pairing"


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

    The block is paired in parts on up to four threads (_scan_workers: at
    most one per CPU the process may run on).  A part takes _PAIR_PART
    (32,768) triggers and the later ones at or before the last one's window
    end, and pairs them against the tags from its first trigger to its last
    trigger's window end: neighbouring parts share up to one window of
    tags, and no tag lies in more than two parts.  The parts are gathered
    in order, so the result does not depend on the part size or the CPU
    count.  Within a part the owning rises and falls are found as ranks by
    stable merges (_merge_ranks) in linear time; they equal
    np.searchsorted's, so the result is that of a binary search per trigger.

    Tags out of (timestamp, channel) order raise DataError.  The check runs
    in the parts, on their threads: each part checks the tags from its
    first trigger to the next part's, and the tag before them, and the
    part starts must ascend.  Together that checks every tag against its
    predecessor.
    """
    _check_pairing(detector, window_ps)

    ch_rise, ch_fall = DETECTOR_CHANNELS[detector]
    ch, ts = tags.channels, tags.timestamps
    trig = _gather(ch, ts, CH_TRIGGER)
    units = min(int(round(min(window_ps * UNITS_PER_PS, 2.0**63))), _INT64_MAX)

    def window_end(i: int) -> int:  # saturates at the clock's last tick
        return min(int(trig[i]), _INT64_MAX - units) + units

    starts = [0]
    while starts[-1] + _PAIR_PART < trig.size:
        last = starts[-1] + _PAIR_PART - 1
        b = last + 1 + int(np.searchsorted(trig[last + 1 :], window_end(last), "right"))
        if b == trig.size:
            break
        starts.append(b)
    # a part's first trigger is the first tag at its timestamp, as the trigger
    # before it is earlier; from it to the next part's, the parts tile the block
    tag_starts = [0, *np.searchsorted(ts, trig[starts[1:]]).tolist(), ts.size]
    if any(q < p for p, q in zip(tag_starts, tag_starts[1:])):
        raise DataError(_UNSORTED)  # only an unsorted block puts them out of order
    starts.append(trig.size)
    detection, rise_units, fall_units = (np.empty(trig.size, np.int64) for _ in range(3))

    def run(k):
        a, b = starts[k], starts[k + 1]
        p, q = tag_starts[k], tag_starts[k + 1]
        if _first_out_of_order(ch[max(p - 1, 0) : q], ts[max(p - 1, 0) : q]) is not None:
            raise DataError(_UNSORTED)
        stop = int(np.searchsorted(ts, window_end(b - 1), "right")) if b > a else q
        out = detection[a:b], rise_units[a:b], fall_units[a:b]
        m = _pair_part(ch[p:stop], ts[p:stop], trig[a:b], trig[a + 1 : b + 1], ch_rise, ch_fall, units, *out)
        return m, int(np.count_nonzero(ch[p:q] == ch_rise)) + int(np.count_nonzero(ch[p:q] == ch_fall))

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
