"""Stream round-trips, malformed input handling, and the pairing oracle."""

import dataclasses
import io

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
from pnrtiming.errors import ConfigError, DataError, StreamFormatError
from pnrtiming.timetags import RECORD_SIZE, UNITS_PER_PS, _HEADER_FIXED


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
    with pytest.raises(ValueError):
        pair_edges(block_of((0, 0)), window_ps=1000.0, detector="C")
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


def test_write_reports_the_first_out_of_order_record():
    ts = np.array([0, 5, 5, 9, 9, 3])
    ch = np.array([0, 1, 2, 2, 1, 0])  # record 4 breaks the channel order, record 5 the time order
    with pytest.raises(DataError, match="record 4$"):
        write_stream(TagBlock(ch, ts), io.BytesIO())
    assert not TagBlock(ch, ts).is_sorted()
    assert TagBlock(ch[:4], ts[:4]).is_sorted()


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
