"""Stream round-trips, malformed input handling, and the pairing oracle."""

import dataclasses
import io
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnrtiming import (
    EdgeEventSet,
    TagBlock,
    default_params,
    iter_tag_blocks,
    pair_edges,
    read_tag_block,
    simulate_stream,
    write_stream,
)
from pnrtiming import timetags
from pnrtiming.errors import ConfigError, DataError, StreamFormatError
from pnrtiming.timetags import _CHUNK_BYTES, _HEADER_FIXED, _RECORD_DTYPE, RECORD_SIZE, UNITS_PER_PS


def block_of(*pairs):
    """A TagBlock of (channel, timestamp) pairs."""
    ch, ts = zip(*pairs) if pairs else ((), ())
    return TagBlock(ch, ts)


def with_note(raw, note):
    """A written stream with ``note`` spliced in after its fixed header."""
    magic, version, resolution, channels, _ = _HEADER_FIXED.unpack_from(raw)
    return _HEADER_FIXED.pack(magic, version, resolution, channels, len(note)) + note + raw[_HEADER_FIXED.size :]


# ---------------------------------------------------------------- oracle

def pair_oracle(trig, rise, fall, window):
    """O(n*m) reference matcher, written by index over every tag.

    Rise j belongs to the highest-index trigger at or before it; fall m
    belongs to the highest-index rise strictly before it.  A trigger takes
    the lowest-index rise it owns and the lowest-index fall after that
    rise; the pair is a detection when that fall belongs to that rise and
    both edges lie within the window.
    """
    rise_owner = [max((i for i, t in enumerate(trig) if t <= r), default=None) for r in rise]
    fall_owner = [max((j for j, r in enumerate(rise) if r < f), default=None) for f in fall]
    out = []
    for i, t in enumerate(trig):
        owned = [j for j in range(len(rise)) if rise_owner[j] == i]
        if not owned:
            out.append(None)
            continue
        j = owned[0]
        later = [m for m in range(len(fall)) if fall[m] > rise[j]]
        if not later or fall_owner[later[0]] != j:
            out.append(None)
            continue
        m = later[0]
        if rise[j] <= t + window and fall[m] <= t + window:
            out.append((rise[j], fall[m]))
        else:
            out.append(None)
    return out


def stream_of(trig, rise, fall):
    """(TagBlock, trig, rise, fall) of three sorted timestamp arrays on detector A."""
    ch = np.concatenate([np.zeros(trig.size, int), np.ones(rise.size, int), np.full(fall.size, 2)])
    ts = np.concatenate([trig, rise, fall])
    order = np.lexsort((ch, ts))
    return TagBlock(ch[order], ts[order]), trig, rise, fall


def random_stream(rng, n_trig, n_rise, n_fall, span, rise_from=0):
    return stream_of(
        np.sort(rng.integers(0, span, n_trig)),
        np.sort(rng.integers(rise_from, span, n_rise)),
        np.sort(rng.integers(0, span, n_fall)),
    )


def paired(events):
    """Per trigger, its (rise, fall) delays in tag units, or None."""
    out = [None] * len(events)
    for i, r, f in zip(events.detection.tolist(), events.rise_units.tolist(), events.fall_units.tolist()):
        out[i] = (r, f)
    return out


def oracle_delays(trig, rise, fall, window_ps):
    """pair_oracle's pairs as delays after their triggers, in tag units."""
    expect = pair_oracle(trig.tolist(), rise.tolist(), fall.tolist(), round(window_ps * UNITS_PER_PS))
    return [None if pair is None else (pair[0] - t, pair[1] - t) for t, pair in zip(trig.tolist(), expect)]


def oracle_inputs(rng):
    """(stream, windows in ps) pairs: dense overlapping windows, then the
    adversarial cases."""
    # 40 ns at 0.1 ps units; windows overlap heavily, and 1e300 ps reaches
    # past the int64 clock: the oracle's window has no end
    yield random_stream(rng, 60, 80, 80, 400_000), (1500.0, 1e300)
    # 30 ps: equal timestamps across channels are common
    yield random_stream(rng, 60, 80, 80, 300), (1.0, 10.0, 1e300)
    # falls before any rise
    yield random_stream(rng, 60, 40, 80, 400_000, rise_from=200_000), (1500.0, 1e300)
    # empty detector channels
    for n_rise, n_fall in ((0, 80), (80, 0), (0, 0)):
        yield random_stream(rng, 60, n_rise, n_fall, 400_000), (1500.0,)
    # a 500 ps trigger period, and windows at it, 0.1 ps below and 0.1 ps
    # above; edges sit on and next to the window ends and the next trigger
    trig = np.arange(60, dtype=np.int64) * 5000
    offsets = np.array([0, 1, 2500, 4999, 5000, 5001])
    rise, fall = (np.sort(rng.choice(trig, 80) + rng.choice(offsets, 80)) for _ in range(2))
    yield stream_of(trig, rise, fall), (500.0, 499.9, 500.1)


@pytest.mark.parametrize("seed", range(8))
def test_pairing_matches_brute_force_on_dense_streams(seed):
    rng = np.random.default_rng(seed)
    for (block, trig, rise, fall), windows in oracle_inputs(rng):
        for window_ps in windows:
            events = pair_edges(block, window_ps=window_ps, detector="A")
            assert len(events) == trig.size
            assert paired(events) == oracle_delays(trig, rise, fall, window_ps)


def test_pairing_matches_brute_force_on_sparse_stream():
    # disjoint windows, at most one pulse per trigger
    rng = np.random.default_rng(42)
    trig = np.arange(50, dtype=np.int64) * 100_000
    rise = np.sort(rng.choice(trig, 30, replace=False) + rng.integers(0, 3000, 30))
    fall = np.sort(rise + rng.integers(1, 5000, 30))
    block = stream_of(trig, rise, fall)[0]

    events = pair_edges(block, window_ps=900.0, detector="A")
    assert paired(events) == oracle_delays(trig, rise, fall, 900.0)


def test_pairing_invariants_on_random_streams():
    rng = np.random.default_rng(3)
    for _ in range(5):
        block, trig, rise, fall = random_stream(rng, 200, 260, 260, 2_000_000)
        events = pair_edges(block, window_ps=2000.0, detector="A")
        assert len(events) == trig.size
        r, f = events.detected()
        assert np.all(r >= 0)
        assert np.all(f > r)
        assert np.all(f <= 2000.0)
        consumed = 2 * events.n_detections
        assert events.orphan_edges == rise.size + fall.size - consumed


# ---------------------------------------------------------------- pairing in parts

def pair_in_parts(monkeypatch, part, workers):
    """Make pair_edges cut every ``part`` triggers where it may, and pair
    the parts on ``workers`` threads."""
    monkeypatch.setattr(timetags, "_PAIR_PART", part)
    monkeypatch.setattr(timetags, "_scan_workers", lambda: workers)


SMALL_PARTS = [(part, workers) for part in (1, 7) for workers in (1, 2, 4)]


@pytest.fixture(params=SMALL_PARTS, ids=[f"part{p}-threads{w}" for p, w in SMALL_PARTS])
def small_parts(request, monkeypatch):
    pair_in_parts(monkeypatch, *request.param)


@pytest.mark.parametrize("seed", range(8))
def test_pairing_in_small_parts_matches_brute_force_on_dense_streams(small_parts, seed):
    test_pairing_matches_brute_force_on_dense_streams(seed)


def test_pairing_in_small_parts_matches_brute_force_on_sparse_stream(small_parts):
    test_pairing_matches_brute_force_on_sparse_stream()


def assert_same_events(a, b):
    assert (a.detector, a.window_ps, a.orphan_edges) == (b.detector, b.window_ps, b.orphan_edges)
    for name in ("trigger_time", "detection", "rise_units", "fall_units"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def cut_stream(rng):
    """A stream on both detectors whose trigger gaps sit on, next to and
    far from a 500 ps window, ties included, with edges on and next to the
    window ends, and some anywhere."""
    trig = np.cumsum(rng.choice([0, 1, 4999, 5000, 5001, 20_000], int(rng.integers(1, 40))))
    channels, stamps = [np.zeros(trig.size, int)], [trig]
    for channel in range(1, 5):
        size = int(rng.integers(0, 50))
        channels.append(np.full(size + size // 4, channel))
        stamps.append(rng.choice(trig, size) + rng.choice([0, 1, 2500, 4999, 5000, 5001], size))
        stamps.append(rng.integers(-10, trig[-1] + 10, size // 4))
    return TagBlock(np.concatenate(channels), np.concatenate(stamps)).sorted()


def test_small_parts_are_bit_identical_to_one_part(monkeypatch):
    for seed in range(200):
        rng = np.random.default_rng(seed)
        block = cut_stream(rng) if seed % 2 else random_stream(rng, 40, 50, 50, 200_000)[0]
        for window_ps, detector in zip((100.0, 499.9, 500.0, 500.1, 1500.0, 1e300), "ABABAB"):
            pair_in_parts(monkeypatch, len(block) + 1, 1)
            whole = pair_edges(block, window_ps, detector)
            for part, workers in SMALL_PARTS:
                pair_in_parts(monkeypatch, part, workers)
                assert_same_events(pair_edges(block, window_ps, detector), whole)


def test_a_trigger_tied_with_its_predecessor_is_never_cut(monkeypatch):
    # triggers 1 and 2 share a timestamp; the rise after it is trigger 2's
    block = block_of((0, 0), (1, 10), (2, 20), (0, 5000), (0, 5000), (1, 5010), (2, 5020), (0, 10_000))
    pair_in_parts(monkeypatch, 1, 2)
    assert timetags._part_starts(np.array([0, 5000, 5000, 10_000]), 1000) == [0, 1, 3]
    events = pair_edges(block, 100.0)
    assert paired(events) == [(10, 20), None, (10, 20), None]
    assert events.orphan_edges == 0


def test_a_window_past_the_trigger_period_pairs_the_block_as_one_part(monkeypatch):
    pair_in_parts(monkeypatch, 1, 4)
    trig = np.arange(50, dtype=np.int64) * 5000
    assert timetags._part_starts(trig, 5000) == [0]
    assert timetags._part_starts(trig, 4999) == list(range(50))
    # every fall lies past the next trigger, so a cut there would lose it
    block, trig, rise, fall = stream_of(trig, trig + 1000, trig + 6000)
    events = pair_edges(block, 800.0)
    assert paired(events) == oracle_delays(trig, rise, fall, 800.0) == [(1000, 6000)] * 50


@pytest.mark.parametrize(
    "block", [block_of(), block_of((1, 5), (2, 9), (2, 12), (1, 20))], ids=["empty", "no triggers"]
)
def test_a_block_without_triggers_pairs_nothing(small_parts, block):
    events = pair_edges(block, 1000.0)
    assert len(events) == 0 and events.n_detections == 0
    assert events.orphan_edges == len(block)


def test_thread_map_yields_in_order_with_at_most_workers_items_ahead():
    started = []

    def fn(i):
        started.append(i)
        return i

    for workers in (1, 2, 4):
        started.clear()
        got = []
        for i in timetags._thread_map(fn, list(range(20)), workers):
            # the items up to the one in the caller's hands, and at most ``workers`` more
            assert len(started) <= i + 1 + workers
            got.append(i)
        assert got == list(range(20))


# ---------------------------------------------------------------- pairing basics

def test_single_event_example():
    # near the end of the int64 clock, and with windows whose end lies past
    # it, the window end saturates instead of wrapping negative
    for t0 in (0, 9 * 10**18):
        tags = block_of((0, t0), (1, t0 + 500), (2, t0 + 3000))
        for window_ps in (1000.0, 8000.0, 5e16, 1e300):
            events = pair_edges(tags, window_ps=window_ps, detector="A")
            assert len(events) == 1
            assert paired(events) == [(500, 3000)]
            assert [d.tolist() for d in events.detected()] == [[50.0], [300.0]]


def test_trigger_without_detector_tags_is_zero_candidate():
    events = pair_edges(block_of((0, 1000)), window_ps=1000.0, detector="A")
    assert len(events) == 1
    assert paired(events) == [None]
    assert events.diagnostics() == {
        "triggers": 1,
        "detections": 0,
        "zero_events": 1,
        "orphan_edges": 0,
    }


def test_rise_never_consumed_twice():
    # two triggers' windows hold one pulse; only the later trigger, the
    # latest one at or before the rise, may claim it
    tags = block_of((0, 0), (0, 100), (1, 200), (2, 800))
    events = pair_edges(tags, window_ps=1000.0, detector="A")
    assert events.detection.tolist() == [1]


def test_second_rise_before_the_fall_is_not_a_detection():
    tags = block_of((0, 0), (1, 100), (1, 200), (2, 800))
    events = pair_edges(tags, window_ps=1000.0, detector="A")
    assert events.n_detections == 0
    assert events.orphan_edges == 3


def test_overlapping_windows_at_200_mhz_find_every_detection():
    # a 5 ns trigger period under an 8 ns window: every window overlaps the next
    pulse, jitter, spec = default_params()
    spec = dataclasses.replace(spec, repetition_rate_hz=2e8)
    tags, truth = simulate_stream(spec, pulse, jitter, 20_000, seed=7)
    events = pair_edges(tags, window_ps=8000.0, detector="A")
    np.testing.assert_array_equal(events.detection, np.flatnonzero(truth.true_n_a > 0))
    _, fall = events.detected()
    assert np.all(fall < 5000.0)  # each pulse sits before the next trigger
    assert events.orphan_edges == 0


def test_fall_without_rise_is_orphan_not_crash():
    tags = block_of((0, 0), (2, 500))
    events = pair_edges(tags, window_ps=1000.0, detector="A")
    assert events.n_detections == 0
    assert events.orphan_edges == 1


def test_detector_b_uses_channels_3_and_4():
    tags = block_of((0, 0), (3, 400), (4, 900))
    events = pair_edges(tags, window_ps=1000.0, detector="B")
    assert paired(events) == [(400, 900)]
    assert pair_edges(tags, window_ps=1000.0, detector="A").n_detections == 0


def test_pair_edges_rejects_bad_arguments():
    for detector in ("C", ["A"]):
        with pytest.raises(ConfigError, match="unknown detector"):
            pair_edges(block_of((0, 0)), window_ps=1000.0, detector=detector)
    for window in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            pair_edges(block_of((0, 0)), window_ps=window)
    with pytest.raises(DataError, match="must be sorted"):
        pair_edges(block_of((0, 100), (1, 0)), window_ps=1000.0)


@pytest.mark.parametrize("window", [True, "1000", None])
def test_pair_edges_takes_only_a_real_number_as_window(window):
    # True used to pair as a 1 ps window
    with pytest.raises(ConfigError, match=f"window must be positive and finite, not {window!r}"):
        pair_edges(block_of((0, 0), (1, 5), (2, 8)), window)


def event_set(trigger_time=(0, 10, 20), detection=(0, 2), rise=(5, 7), fall=(9, 8), detector="A", window=1000.0):
    return EdgeEventSet(detector, window, trigger_time, detection, rise, fall)


def test_edge_event_set_holds_int64_delays_of_the_detections():
    events = event_set()
    assert len(events) == 3 and events.n_detections == 2
    for a in (events.trigger_time, events.detection, events.rise_units, events.fall_units):
        assert a.dtype == np.int64
    assert [d.tolist() for d in events.detected()] == [[0.5, 0.7], [0.9, 0.8]]
    assert event_set(detection=[], rise=[], fall=[]).n_detections == 0


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"fall": [True, False]}, "fall_units must be a 1-D integer array"),
        ({"detection": np.array([0, 2], dtype=np.uint64)}, "detection must be a 1-D integer array"),
        ({"trigger_time": [[0, 10, 20]]}, "trigger_time must be a 1-D integer array"),
        ({"detection": [2, 0]}, "strictly ascending"),
        ({"detection": [1, 1]}, "strictly ascending"),
        ({"detection": [-1, 2]}, "strictly ascending"),
        ({"detection": [0, 3]}, "strictly ascending"),
        # what pair_edges refuses, with its messages; calibration used to run on such a set
        ({"detector": "C"}, "unknown detector 'C'"),
        ({"window": -1.0}, "window must be positive and finite, not -1.0"),
        ({"window": float("nan")}, "window must be positive and finite, not nan"),
        ({"window": float("inf")}, "window must be positive and finite, not inf"),
        ({"window": 0.0}, "window must be positive and finite, not 0.0"),
        ({"window": True}, "window must be positive and finite, not True"),
        # an unhashable detector used to raise a bare TypeError from the lookup
        ({"detector": ["A"]}, r"unknown detector \['A'\]"),
    ],
)
def test_edge_event_set_refuses_malformed_arrays(fields, message):
    with pytest.raises(ConfigError, match=message):
        event_set(**fields)


# ---------------------------------------------------------------- stream I/O

def roundtrip(block, note=b""):
    buf = io.BytesIO()
    write_stream(block, buf)
    return read_tag_block(io.BytesIO(with_note(buf.getvalue(), note)))


def test_empty_stream_round_trip():
    buf = io.BytesIO()
    n = write_stream(block_of(), buf)
    assert n == _HEADER_FIXED.size
    buf.seek(0)
    assert list(iter_tag_blocks(buf)) == []


def test_single_tag_encoding():
    buf = io.BytesIO()
    write_stream(block_of((0, 0)), buf)
    raw = buf.getvalue()
    assert raw[:8] == b"PNRTAG01"
    assert len(raw) == _HEADER_FIXED.size + RECORD_SIZE
    record = raw[_HEADER_FIXED.size:]
    assert record[0] == 0  # channel byte
    assert record[8:] == b"\x00" * 8  # zero timestamp


def test_round_trip_preserves_tags():
    rng = np.random.default_rng(5)
    ts = np.sort(rng.integers(-(10**14), 10**14, 5000))
    ch = rng.integers(0, 5, 5000)
    block = TagBlock(ch, ts).sorted()
    back = roundtrip(block, note=b"\xff\xfe run 7, not UTF-8")
    np.testing.assert_array_equal(back.channels, block.channels)
    np.testing.assert_array_equal(back.timestamps, block.timestamps)


def test_write_then_read_then_write_is_byte_identical():
    rng = np.random.default_rng(11)
    block = TagBlock(rng.integers(0, 5, 1000), np.sort(rng.integers(0, 10**12, 1000))).sorted()
    buf1 = io.BytesIO()
    write_stream(block, buf1)
    buf1.seek(0)
    buf2 = io.BytesIO()
    write_stream(read_tag_block(buf1), buf2)
    assert buf1.getvalue() == buf2.getvalue()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(-(2**62), 2**62)),
        max_size=200,
    )
)
def test_round_trip_property(pairs):
    pairs.sort(key=lambda p: (p[1], p[0]))
    back = roundtrip(block_of(*pairs))
    assert list(zip(back.channels.tolist(), back.timestamps.tolist())) == pairs


def test_write_rejects_unsorted_tags():
    with pytest.raises(DataError, match="record 1"):
        write_stream(block_of((0, 100), (0, 50)), io.BytesIO())
    # equal timestamps must come in channel order
    with pytest.raises(DataError, match="out of order at record 1"):
        write_stream(block_of((2, 100), (1, 100)), io.BytesIO())


def test_bad_magic_reports_offset_zero():
    buf = io.BytesIO(b"NOTMAGIC" + b"\x00" * 8)
    with pytest.raises(StreamFormatError) as err:
        read_tag_block(buf)
    assert err.value.byte_offset == 0


def test_short_header_rejected():
    with pytest.raises(StreamFormatError):
        read_tag_block(io.BytesIO(b"PNRT"))
    buf = io.BytesIO()
    write_stream(block_of(), buf)
    with pytest.raises(StreamFormatError, match="note") as err:
        read_tag_block(io.BytesIO(with_note(buf.getvalue(), b"cut")[:-1]))
    assert err.value.byte_offset == _HEADER_FIXED.size + 2


def test_unsupported_version_rejected():
    buf = io.BytesIO()
    write_stream(block_of((0, 0)), buf)
    raw = bytearray(buf.getvalue())
    raw[8] = 99  # version u16 little-endian low byte
    with pytest.raises(StreamFormatError, match="version"):
        read_tag_block(io.BytesIO(bytes(raw)))


def test_unsupported_resolution_code_rejected():
    buf = io.BytesIO()
    write_stream(block_of((0, 0)), buf)
    raw = bytearray(buf.getvalue())
    raw[10] = 2  # resolution u16 little-endian low byte, after the magic and the version
    with pytest.raises(StreamFormatError, match="unsupported resolution code 2"):
        read_tag_block(io.BytesIO(bytes(raw)))


def test_truncated_record_reports_byte_offset():
    buf = io.BytesIO()
    write_stream(block_of((0, 0), (1, 10)), buf)
    raw = buf.getvalue()[:-7]  # chop the final record mid-way
    with pytest.raises(StreamFormatError) as err:
        read_tag_block(io.BytesIO(raw))
    assert err.value.byte_offset == _HEADER_FIXED.size + RECORD_SIZE


def test_truncated_record_raises_during_streaming_too():
    buf = io.BytesIO()
    write_stream(block_of((0, 0), (1, 10)), buf)
    stream = iter_tag_blocks(io.BytesIO(buf.getvalue()[:-7]))
    with pytest.raises(StreamFormatError):
        list(stream)


class SevenByteReader(io.BytesIO):
    """A source whose every read returns at most 7 bytes, like a slow pipe."""

    def read(self, n=-1):
        return super().read(7 if n is None or n < 0 else min(n, 7))


def test_short_reads_give_the_same_block_and_truncation_offset():
    rng = np.random.default_rng(13)
    block = TagBlock(rng.integers(0, 5, 300), np.sort(rng.integers(0, 10**12, 300))).sorted()
    buf = io.BytesIO()
    write_stream(block, buf)
    raw = with_note(buf.getvalue(), b"short reads")
    back = read_tag_block(SevenByteReader(raw))
    np.testing.assert_array_equal(back.channels, block.channels)
    np.testing.assert_array_equal(back.timestamps, block.timestamps)

    offsets = []
    for source in (io.BytesIO(raw[:-5]), SevenByteReader(raw[:-5])):
        with pytest.raises(StreamFormatError) as err:
            read_tag_block(source)
        offsets.append(err.value.byte_offset)
    assert offsets[0] == offsets[1] == len(raw) - RECORD_SIZE


class NoSeekReader:
    """A source with ``read`` alone: no fileno, tell or seek, like a socket."""

    def __init__(self, raw):
        self._f = io.BytesIO(raw)

    def read(self, n=-1):
        return self._f.read(n)


class PipeLikeReader(io.BytesIO):
    """A source whose seek and tell raise, as a pipe's file object's do."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


class UnderReportingReader(io.BytesIO):
    """A source whose end, by seek, lies halfway: it yields more than it says remains."""

    def seek(self, offset, whence=io.SEEK_SET):
        pos = super().seek(offset, whence)
        return pos // 2 if whence == io.SEEK_END else pos


@pytest.mark.parametrize("source", [io.BytesIO, NoSeekReader, PipeLikeReader, UnderReportingReader, SevenByteReader])
def test_read_tag_block_is_the_chunks_joined_from_any_source(monkeypatch, source):
    # 3,000 records in chunks of 256: the columns grow by doubling whenever
    # the source cannot say, or under-reports, what remains
    monkeypatch.setattr(timetags, "_CHUNK_BYTES", 1 << 12)
    rng = np.random.default_rng(23)
    block = TagBlock(rng.integers(0, 5, 3000), np.sort(rng.integers(0, 10**12, 3000))).sorted()
    buf = io.BytesIO()
    write_stream(block, buf)
    raw = with_note(buf.getvalue(), b"any source")
    chunks = list(iter_tag_blocks(io.BytesIO(raw)))
    assert len(chunks) == 12
    back = read_tag_block(source(raw))
    for name in ("channels", "timestamps"):
        want, got = np.concatenate([getattr(c, name) for c in chunks]), getattr(back, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    offsets = []
    for read in (read_tag_block, lambda f: list(iter_tag_blocks(f))):
        with pytest.raises(StreamFormatError) as err:
            read(source(raw[:-5]))
        offsets.append(err.value.byte_offset)
    assert offsets[0] == offsets[1] == len(raw) - RECORD_SIZE


def test_write_reports_the_first_out_of_order_record():
    ts = np.array([0, 5, 5, 9, 9, 3])
    ch = np.array([0, 1, 2, 2, 1, 0])  # record 4 breaks the channel order, record 5 the time order
    with pytest.raises(DataError, match="record 4$"):
        write_stream(TagBlock(ch, ts), io.BytesIO())
    assert not TagBlock(ch, ts).is_sorted()
    assert TagBlock(ch[:4], ts[:4]).is_sorted()


@pytest.mark.parametrize("records_per_chunk", [1, 2, 3])
def test_order_check_and_write_run_across_chunk_edges(monkeypatch, records_per_chunk):
    monkeypatch.setattr(timetags, "_CHUNK_RECORDS", records_per_chunk)
    ts = np.array([0, 5, 5, 9, 9, 3])
    ch = np.array([0, 1, 2, 2, 1, 0])  # as above: record 4 breaks the channel order
    with pytest.raises(DataError, match="record 4$"):
        write_stream(TagBlock(ch, ts), io.BytesIO())
    assert TagBlock(ch[:4], ts[:4]).is_sorted() and not TagBlock(ch[3:], ts[3:]).is_sorted()

    block = TagBlock(ch[:4], ts[:4])
    buf = io.BytesIO()
    write_stream(block, buf)
    records = np.zeros(4, dtype=_RECORD_DTYPE)
    records["channel"], records["timestamp"] = block.channels, block.timestamps
    assert buf.getvalue() == _HEADER_FIXED.pack(b"PNRTAG01", 1, 1, 5, 0) + records.tobytes()


def test_out_of_range_channel_in_payload():
    buf = io.BytesIO()
    write_stream(block_of((0, 0)), buf)
    raw = bytearray(buf.getvalue())
    raw[_HEADER_FIXED.size] = 7  # channel byte of the first record
    with pytest.raises(StreamFormatError, match="channel 7"):
        read_tag_block(io.BytesIO(bytes(raw)))


def test_tag_block_validates_shapes_and_channels():
    with pytest.raises(ValueError):
        TagBlock(np.zeros(3, np.uint8), np.zeros(2, np.int64))
    with pytest.raises(ValueError):
        TagBlock(np.array([9], np.uint8), np.array([0], np.int64))


# ---------------------------------------------------------------- memory

def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc saw allocated while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sorted_random_block(seed, n):
    rng = np.random.default_rng(seed)
    return TagBlock(rng.integers(0, 5, n), np.sort(rng.integers(0, 10**12, n))).sorted()


def test_read_tag_block_needs_the_block_and_one_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(timetags, "_CHUNK_BYTES", 1 << 16)
    n = 50_000  # 12.2 chunks of 4,096 records
    block = sorted_random_block(19, n)
    write_stream(block, tmp_path / "stream.pnrtag")
    back, peak = traced_peak(lambda: read_tag_block(tmp_path / "stream.pnrtag"))
    np.testing.assert_array_equal(back.channels, block.channels)
    np.testing.assert_array_equal(back.timestamps, block.timestamps)
    # 9 bytes a tag; holding every chunk's bytes beside the joined block took 2.8 blocks
    assert peak <= 9 * n + 1.5 * (1 << 16)


def test_write_stream_needs_one_record_buffer_beyond_its_input():
    n = 600_000  # 2.3 buffers of records
    block = sorted_random_block(17, n)
    with open(os.devnull, "wb") as sink:
        written, peak = traced_peak(lambda: write_stream(block, sink))
    assert written == _HEADER_FIXED.size + n * RECORD_SIZE
    # a record copy of the whole stream took 9.2 MiB here
    assert peak <= _CHUNK_BYTES + (1 << 16)

    buf = io.BytesIO()
    write_stream(block, buf)
    records = np.zeros(n, dtype=_RECORD_DTYPE)
    records["channel"], records["timestamp"] = block.channels, block.timestamps
    assert buf.getvalue()[_HEADER_FIXED.size :] == records.tobytes()


def test_pair_edges_peaks_below_seven_trigger_arrays():
    # every trigger detected, so every gather is trigger-sized; the result
    # itself is four such arrays
    n = 200_000
    trig = np.arange(n, dtype=np.int64) * 1_000_000
    block = TagBlock(np.tile(np.array([0, 1, 2], np.uint8), n), (trig[:, None] + [0, 100_000, 300_000]).ravel())
    events, peak = traced_peak(lambda: pair_edges(block, 50_000.0))
    assert events.n_detections == n and events.orphan_edges == 0
    # 5.5 int64 arrays of n; a gather per trigger of every column took 9.4
    assert peak < 7 * 8 * n


def test_pair_edges_in_many_parts_peaks_below_seven_trigger_arrays(monkeypatch):
    # the stream above in 200 parts, so the preallocated outputs, not one
    # part's working arrays, set the peak
    monkeypatch.setattr(timetags, "_PAIR_PART", 1000)
    n = 200_000
    trig = np.arange(n, dtype=np.int64) * 1_000_000
    block = TagBlock(np.tile(np.array([0, 1, 2], np.uint8), n), (trig[:, None] + [0, 100_000, 300_000]).ravel())
    events, peak = traced_peak(lambda: pair_edges(block, 50_000.0))
    assert events.n_detections == n and events.orphan_edges == 0
    np.testing.assert_array_equal(events.detection, np.arange(n))
    assert peak < 7 * 8 * n
