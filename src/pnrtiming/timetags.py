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

import math
import numbers
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

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
_CHUNK_BYTES = 1 << 22  # 4 MiB per read, a whole number of records
_INT64_MAX = int(np.iinfo(np.int64).max)


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
    (timestamp, channel), or None when the block is in order."""
    ts, ch = block.timestamps, block.channels
    if ts.size < 2:
        return None
    bad = ts[1:] < ts[:-1]
    tie = np.flatnonzero(ts[1:] == ts[:-1])
    bad[tie[ch[tie + 1] < ch[tie]]] = True
    i = int(np.argmax(bad))
    return i + 1 if bad[i] else None


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

    Tags must already be sorted by (timestamp, channel); violations raise
    DataError rather than silently reordering.
    """
    bad = _first_out_of_order(tags)
    if bad is not None:
        raise DataError(f"tags out of order at record {bad}")
    header = _HEADER_FIXED.pack(MAGIC, FORMAT_VERSION, RESOLUTION_CODE, CHANNEL_COUNT, 0)
    records = np.zeros(len(tags), dtype=_RECORD_DTYPE)
    records["channel"] = tags.channels
    records["timestamp"] = tags.timestamps

    f, should_close = _open_sink(sink)
    try:
        f.write(header)
        f.write(records)  # the array's own buffer, not a copy of it
    finally:
        if should_close:
            f.close()
    return len(header) + records.nbytes


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
            if n:
                records = np.frombuffer(buf, dtype=_RECORD_DTYPE, count=n)
                _check_channels(records["channel"], channel_count, offset)
                yield TagBlock(records["channel"], records["timestamp"])
            offset += n * RECORD_SIZE
            if tail:
                raise StreamFormatError(f"truncated record: {tail} trailing bytes", byte_offset=offset)
            if len(buf) < _CHUNK_BYTES:
                return
    finally:
        if should_close:
            f.close()


def read_tag_block(source) -> TagBlock:
    """Load a whole stream into one TagBlock: the chunks of iter_tag_blocks, concatenated."""
    blocks = list(iter_tag_blocks(source))
    if not blocks:
        return TagBlock(np.empty(0, np.uint8), np.empty(0, np.int64))
    return TagBlock(
        np.concatenate([b.channels for b in blocks]), np.concatenate([b.timestamps for b in blocks])
    )


def _check_pairing(detector: str, window_ps: float) -> None:
    """Raise ConfigError for an unknown detector, or for a window that is not
    a positive, finite real number (a bool is not one): the one rule of
    pair_edges, EdgeEventSet, CalibrationModel and PhotonRecordSet."""
    if detector not in DETECTOR_CHANNELS:
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


def _gather(a: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a[idx], idx < a.size); clamps ``idx`` in place, and out-of-range
    entries get an arbitrary value."""
    inside = idx < a.size
    if not a.size:
        return np.zeros(idx.size, a.dtype), inside
    np.minimum(idx, a.size - 1, out=idx)
    return a[idx], inside


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
    """
    _check_pairing(detector, window_ps)
    if not tags.is_sorted():
        raise DataError("tags must be sorted by (timestamp, channel) before pairing")

    ch_rise, ch_fall = DETECTOR_CHANNELS[detector]
    trig = tags.timestamps[tags.channels == CH_TRIGGER]
    rise = tags.timestamps[tags.channels == ch_rise]
    fall = tags.timestamps[tags.channels == ch_fall]
    # the window end saturates at the clock's last tick, neither wrapping nor reaching inf
    units = min(int(round(min(window_ps * UNITS_PER_PS, 2.0**63))), _INT64_MAX)
    end = np.minimum(trig, _INT64_MAX - units)
    end += units

    j = np.searchsorted(rise, trig)  # first rise at or after each trigger
    r, ok = _gather(rise, j)
    ok &= r <= end
    ok[:-1] &= r[:-1] < trig[1:]  # the next trigger owns a rise at or after it
    f, has_fall = _gather(fall, np.searchsorted(fall, r, side="right"))
    ok &= has_fall & (f <= end)
    after, has_after = _gather(rise, j + 1)
    ok &= ~has_after | (after >= f)  # the fall belongs to r: no other rise before it

    detection = np.flatnonzero(ok)
    # each of these is trigger-sized; freed here, they leave room for the
    # detection-sized gathers below instead of adding to the peak memory
    del end, j, ok, has_fall, after, has_after
    rise_units = r[detection]
    del r
    fall_units = f[detection]
    del f
    t = trig[detection]
    rise_units -= t
    fall_units -= t
    return EdgeEventSet(
        detector=detector,
        window_ps=float(window_ps),
        trigger_time=trig,
        detection=detection,
        rise_units=rise_units,
        fall_units=fall_units,
        orphan_edges=rise.size + fall.size - 2 * detection.size,
    )
