"""Decoding edge events into photon-number records."""

import math
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from pnrtiming import (
    CalibrationModel,
    EdgeEventSet,
    JitterParams,
    PhotonRecordSet,
    VoigtComponent,
    confusion_report,
    decode,
    decode_events,
    pair_edges,
    simulate_stream,
)
from pnrtiming.errors import ConfigError, DataError, StreamFormatError
from pnrtiming.timetags import UNITS_PER_PS

# ---- helpers


def toy_model(k=4, angle=0.0, detector="A"):
    """Hand-built calibration: centers at 10, 20, ..., boundaries at midpoints."""
    comps = [VoigtComponent(10.0 * (j + 1), 1.0, 0.0, 1.0 / k) for j in range(k)]
    boundaries = np.array([10.0 * j + 15.0 for j in range(k - 1)])
    return CalibrationModel(
        mode="optimal",
        angle=angle,
        components=comps,
        boundaries=boundaries,
        crosstalk=np.eye(k),
        detector=detector,
        window_ps=8000.0,
    )


def make_events(rise, fall, detected=None, detector="A"):
    """Events from per-trigger delays in ps, rounded onto the 0.1 ps tag
    grid; only the triggers in ``detected`` (default: those with a finite
    rise delay) have a detection."""
    rise = np.asarray(rise, dtype=float)
    fall = np.asarray(fall, dtype=float)
    detected = np.isfinite(rise) if detected is None else np.asarray(detected, dtype=bool)
    rise_units, fall_units = (np.rint(x[detected] * UNITS_PER_PS).astype(np.int64) for x in (rise, fall))
    trigger_time = np.arange(rise.size, dtype=np.int64) * 100_000
    return EdgeEventSet(detector, 8000.0, trigger_time, np.flatnonzero(detected), rise_units, fall_units)


class FakeTruth:
    def __init__(self, trigger_index, true_n_a, true_n_b=None):
        self.trigger_index = np.asarray(trigger_index, dtype=np.int64)
        self.true_n_a = np.asarray(true_n_a, dtype=np.int64)
        self.true_n_b = (
            np.asarray(true_n_b, dtype=np.int64) if true_n_b is not None else np.zeros_like(self.true_n_a)
        )


# ---- decode_events basics


def test_bucket_index_maps_to_photon_number():
    model = toy_model()
    events = make_events([10.0, 20.0, 30.0, 40.0], [0.0, 0.0, 0.0, 0.0])
    records = decode_events(events, model)
    assert_array_equal(records.n, [1, 2, 3, 4])


def test_non_detection_decodes_to_zero():
    model = toy_model()
    rise = np.array([10.0, np.nan, 30.0])
    fall = np.array([0.0, np.nan, 0.0])
    events = make_events(rise, fall, detected=[True, False, True])
    records = decode_events(events, model)
    assert records.n[1] == 0
    assert records.n[0] == 1 and records.n[2] == 3
    assert int(np.count_nonzero(records.n == 0)) == events.diagnostics()["zero_events"]


def test_boundary_coordinate_takes_lower_class():
    # projection exactly on the boundary separating two and three photons
    model = toy_model()
    events = make_events([25.0], [0.0])
    assert decode_events(events, model).n[0] == 2


def test_angle_enters_the_projection():
    model = toy_model(angle=math.pi / 2)
    events = make_events([999.0, 999.0], [10.0, 30.0])
    assert_array_equal(decode_events(events, model).n, [1, 3])


def test_output_alignment_and_metadata():
    model = toy_model()
    events = make_events([10.0, np.nan, 20.0, 40.0], [0.0, np.nan, 0.0, 0.0], [True, False, True, True])
    records = decode_events(events, model)
    assert len(records) == len(events)
    assert_array_equal(records.trigger_index, np.arange(4))
    assert_array_equal(records.trigger_time, events.trigger_time)
    assert records.detector == "A"
    assert records.window_ps == 8000.0
    assert (records.trigger_index[3], records.n[3]) == (3, 4)
    assert records.n.tolist() == [1, 0, 2, 4]


def test_detector_mismatch_is_rejected():
    model = toy_model(detector="A")
    events = make_events([10.0], [0.0], detector="B")
    with pytest.raises(DataError, match="detector"):
        decode_events(events, model)


def test_out_of_range_lands_in_outer_class():
    model = toy_model()  # outermost center 40, sigma 1, gamma 0 -> ceiling 48
    events = make_events([10.0, 60.0, -500.0], [0.0, 0.0, 0.0])
    records = decode_events(events, model)
    assert records.diagnostics["out_of_range"] == 2
    assert records.n[1] == 4
    assert records.n[2] == 1


def test_decode_diagnostics_counts():
    model = toy_model()
    events = make_events([10.0, np.nan, 40.0], [0.0, np.nan, 0.0], [True, False, True])
    d = decode_events(events, model).diagnostics
    assert d["triggers"] == 3
    assert d["detections"] == 2
    assert d["class_counts"] == [1, 1, 0, 0, 1]
    assert d["mode"] == "optimal"


def test_decode_class_counts_match_a_bincount():
    model = toy_model()
    rng = np.random.default_rng(8)
    rise = rng.uniform(0.0, 60.0, 400)
    detected = rng.random(400) < 0.7
    records = decode_events(make_events(np.where(detected, rise, np.nan), np.zeros(400), detected), model)
    want = np.bincount(records.n, minlength=model.k + 1).tolist()
    assert records.diagnostics["class_counts"] == want
    assert sum(want) == 400


def test_decode_empty_event_set():
    model = toy_model()
    events = make_events(np.empty(0), np.empty(0))
    records = decode_events(events, model)
    assert len(records) == 0
    assert records.diagnostics["class_counts"] == [0] * 5


# ---- decoding simulated data


def test_noiseless_events_decode_to_truth(default_params, optimal_model):
    pulse, _, spec = default_params
    quiet = JitterParams(detector_rms=0.0, tagger_rms_per_channel=0.0, detector_b_rms=0.0)
    tags, truth = simulate_stream(spec, pulse, quiet, 20_000, seed=77)
    events = pair_edges(tags, window_ps=8000.0, detector="A")
    records = decode_events(events, optimal_model)
    folded = np.minimum(truth.true_n_a, optimal_model.k)
    assert_array_equal(records.n, folded)


def test_confusion_matches_crosstalk_prediction(sim_50k, events_a, optimal_model):
    _, truth = sim_50k
    records = decode_events(events_a, optimal_model)
    report = confusion_report(records, truth, model=optimal_model)
    pred = report.prediction
    assert pred["observed"].shape == (optimal_model.k,) * 2
    assert pred["max_abs_z"] < 3.0
    detected = (np.minimum(truth.true_n_a, optimal_model.k) >= 1) & (records.n >= 1)
    assert pred["observed"].sum() == int(np.count_nonzero(detected))


def test_optimal_confuses_less_than_rising(sim_50k, events_a, optimal_model, rising_model):
    _, truth = sim_50k
    def offdiag_fraction(model):
        records = decode_events(events_a, model)
        obs = confusion_report(records, truth, model=model).prediction["observed"]
        return (obs.sum() - np.trace(obs)) / obs.sum()
    assert offdiag_fraction(optimal_model) < offdiag_fraction(rising_model)


def test_zero_count_equals_triggers_without_detection(events_a, optimal_model):
    records = decode_events(events_a, optimal_model)
    assert int(np.count_nonzero(records.n == 0)) == events_a.diagnostics()["zero_events"]
    assert records.n.max() <= optimal_model.k


# ---- confusion_report


def test_perfect_decoding_gives_identity_confusion():
    records = PhotonRecordSet("A", 8000.0, np.arange(6), np.zeros(6), [0, 1, 2, 3, 2, 1])
    truth = FakeTruth(np.arange(6), [0, 1, 2, 3, 2, 1])
    report = confusion_report(records, truth)
    assert_array_equal(report.matrix, np.diag([1, 2, 2, 1]))
    assert report.overall_accuracy == 1.0
    assert np.nanmin(report.per_class_accuracy) == 1.0
    assert report.n_events == 6


def test_confusion_counts_single_swap():
    records = PhotonRecordSet("A", 8000.0, np.arange(4), np.zeros(4), [1, 2, 2, 2])
    truth = FakeTruth(np.arange(4), [1, 1, 2, 2])
    report = confusion_report(records, truth)
    assert report.matrix[1, 2] == 1
    assert report.overall_accuracy == pytest.approx(0.75)
    assert report.per_class_accuracy[1] == pytest.approx(0.5)


def test_confusion_uses_detector_b_truth():
    records = PhotonRecordSet("B", 8000.0, np.arange(3), np.zeros(3), [2, 0, 1])
    truth = FakeTruth(np.arange(3), true_n_a=[9, 9, 9], true_n_b=[2, 0, 1])
    assert confusion_report(records, truth).overall_accuracy == 1.0


def test_misaligned_truth_raises():
    records = PhotonRecordSet("A", 8000.0, np.arange(5), np.zeros(5), np.ones(5, dtype=int))
    truth = FakeTruth(np.arange(5) + 3, np.ones(5, dtype=int))
    with pytest.raises(DataError, match=r"only in truth: \[5, 6, 7\]"):
        confusion_report(records, truth)
    with pytest.raises(DataError, match=r"only in records: \[0, 1, 2\]"):
        confusion_report(records, truth)


def test_truth_length_mismatch_raises():
    records = PhotonRecordSet("A", 8000.0, np.arange(4), np.zeros(4), np.ones(4, dtype=int))
    with pytest.raises(DataError, match="cover different triggers"):
        confusion_report(records, FakeTruth(np.arange(5), np.ones(5, dtype=int)))


def test_true_numbers_above_top_class_are_clamped_in_prediction():
    model = toy_model(k=2)
    records = PhotonRecordSet("A", 8000.0, np.arange(3), np.zeros(3), [2, 2, 1])
    truth = FakeTruth(np.arange(3), [5, 2, 1])
    report = confusion_report(records, truth, model=model)
    assert_array_equal(report.prediction["observed"], [[1, 0], [0, 2]])
    # the raw matrix keeps the unclamped counts
    assert report.matrix[5, 2] == 1


# ---- PhotonRecordSet containers and serialization


def test_class_counts():
    records = PhotonRecordSet("A", 8000.0, np.arange(5), np.zeros(5), [0, 2, 2, 4, 0])
    assert_array_equal(records.class_counts(), [2, 0, 2, 0, 1])
    assert_array_equal(records.class_counts(n_max=6), [2, 0, 2, 0, 1, 0, 0])
    with pytest.raises(ConfigError, match=re.escape("photon numbers reach 4, above n_max=3")):
        records.class_counts(n_max=3)


@pytest.mark.parametrize("window", [math.nan, math.inf, -math.inf, -5.0, 0.0, True])
def test_record_set_refuses_a_window_its_readers_refuse(window):
    with pytest.raises(ConfigError, match="window must be positive and finite"):
        PhotonRecordSet("A", window, [0, 1], [0, 10], [1, 2])


def test_record_set_validation():
    with pytest.raises(ValueError, match="shape"):
        PhotonRecordSet("A", 8000.0, np.arange(3), np.zeros(2), np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="non-negative"):
        PhotonRecordSet("A", 8000.0, np.arange(2), np.zeros(2), [1, -1])
    # a uint8 cast would wrap 256 to 0 and 70000 to 112
    for n in (np.array([1, 256]), [1, 256], np.array([1, 70000]), [1, 70000]):
        with pytest.raises(ValueError, match=f"at most 255, not {n[1]}"):
            PhotonRecordSet("A", 8000.0, np.arange(2), np.zeros(2), n)
    records = PhotonRecordSet("A", 8000.0, np.arange(2), np.zeros(2), np.array([0, 255]))
    assert records.n.tolist() == [0, 255] and records.n.dtype == np.uint8
    # the uint8 cast would truncate 2.7 to 2 and turn NaN into 0
    for n in (np.array([0.0, 2.7]), np.array([np.nan, 1.0]), [0, 2.0]):
        with pytest.raises(ValueError, match="integers"):
            PhotonRecordSet("A", 8000.0, [0, 1], [0, 1], n)
    assert PhotonRecordSet("A", 8000.0, [], [], []).n.dtype == np.uint8


@pytest.mark.parametrize("detector", ["", "Bx", ["A"]])
def test_record_set_refuses_an_unknown_detector(detector):
    # "" used to end to_binary in an IndexError, "Bx" was written as B, and
    # ["A"] raised a bare TypeError from the detector lookup
    with pytest.raises(ConfigError, match="unknown detector"):
        PhotonRecordSet(detector, 8000.0, [0], [0], [1])


@pytest.mark.parametrize("window", [12345678.9, 1234.5678])
def test_binary_reads_back_the_exact_window(tmp_path, window):
    records = PhotonRecordSet("A", window, np.arange(3), np.arange(3) * 10, [0, 1, 2])
    records.to_binary(tmp_path / "records.pnrec")
    assert PhotonRecordSet.from_binary(tmp_path / "records.pnrec").window_ps == window


def test_binary_refuses_photon_numbers_beyond_u1():
    # refused when the set is built, so no set holds what .pnrec cannot store
    with pytest.raises(ValueError, match="at most 255, not 300"):
        PhotonRecordSet("A", 8000.0, [0, 1], [0, 10], [255, 300])


@st.composite
def record_rows(draw):
    """(trigger_index, trigger_time, n) rows in the .pnrec field ranges,
    with photon numbers drawn past 255 in about half the examples."""
    top = draw(st.sampled_from([255, 2**15 - 1]))
    return draw(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(-(2**63), 2**63 - 1), st.integers(0, top))))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from("AB"), st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), record_rows())
def test_every_record_set_reads_back_equal(tmp_path_factory, detector, window, rows):
    """Any set that can be built reads back equal from .pnrec; construction
    refuses only photon numbers that it cannot hold and a window of 0."""
    index, time, n = (np.array(column, dtype=np.int64) for column in zip(*rows)) if rows else ([], [], [])
    try:
        records = PhotonRecordSet(detector, window, index, time, n)
    except ValueError:
        assert window == 0 or max(n) > 255
        return
    directory = tmp_path_factory.mktemp("records")
    records.to_binary(directory / "records.pnrec")
    back = PhotonRecordSet.from_binary(directory / "records.pnrec")
    assert (back.detector, back.window_ps, back.n.dtype) == (detector, window, np.uint8)
    for name in ("trigger_index", "trigger_time", "n"):
        assert_array_equal(getattr(back, name), getattr(records, name))


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    n = rng.integers(0, 7, size=1000)
    records = PhotonRecordSet("A", 8000.0, np.arange(1000), rng.integers(0, 2**40, size=1000), n)
    path = tmp_path / "records.pnrec"
    records.to_binary(path)
    back = PhotonRecordSet.from_binary(path)
    assert back.detector == "A"
    assert back.window_ps == 8000.0
    assert_array_equal(back.trigger_index, records.trigger_index)
    assert_array_equal(back.trigger_time, records.trigger_time)
    assert_array_equal(back.n, records.n)


def whole_array_pnrec(records):
    """A .pnrec file as one header plus one whole-set record array."""
    header = struct.pack("<8sHBBId", b"PNRREC01", 1, ord(records.detector), 0, len(records), records.window_ps)
    arr = np.zeros(len(records), dtype=[("i", "<u4"), ("n", "u1"), ("flags", "u1"), ("res", "<u2"), ("t", "<i8")])
    arr["i"], arr["n"], arr["t"] = records.trigger_index, records.n, records.trigger_time
    return header + arr.tobytes()


@pytest.mark.parametrize("buffer", [1, 7])
@pytest.mark.parametrize("rows", [0, 1, 6, 7, 8, 29])
def test_binary_through_a_small_buffer_equals_the_whole_array(tmp_path, monkeypatch, buffer, rows):
    monkeypatch.setattr(decode, "_CHUNK_RECORDS", buffer)
    rng = np.random.default_rng(rows)
    index, time, n = rng.integers(0, 2**32, rows), rng.integers(-(2**63), 2**63 - 1, rows), rng.integers(0, 256, rows)
    records = PhotonRecordSet("B", 1234.5, index, time, n)
    path = tmp_path / "records.pnrec"
    records.to_binary(path)
    assert path.read_bytes() == whole_array_pnrec(records)


def test_binary_needs_one_record_buffer_beyond_its_set():
    n = 600_000  # 2.3 buffers of records
    rng = np.random.default_rng(11)
    records = PhotonRecordSet("A", 8000.0, np.arange(n), rng.integers(0, 2**40, n), rng.integers(0, 7, n))
    tracemalloc.start()
    try:
        records.to_binary(os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a record copy of the whole set took 9.2 MiB here
    assert peak <= (1 << 22) + (1 << 16)


def test_binary_refuses_trigger_index_beyond_u32(tmp_path):
    records = PhotonRecordSet("A", 8000.0, [0, 2**32 + 5], [0, 10], [1, 2])
    path = tmp_path / "wide.pnrec"
    with pytest.raises(DataError, match="u32"):
        records.to_binary(path)
    assert not path.exists()


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pnrec"
    path.write_bytes(b"NOTMAGIC" + bytes(16))
    with pytest.raises(StreamFormatError, match="magic") as exc:
        PhotonRecordSet.from_binary(path)
    assert exc.value.byte_offset == 0


def test_binary_rejects_unknown_detector_byte(tmp_path):
    path = tmp_path / "det.pnrec"
    PhotonRecordSet("B", 8000.0, [0], [0], [1]).to_binary(path)
    raw = bytearray(path.read_bytes())
    assert raw[10] == ord("B")
    raw[10] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(StreamFormatError, match="detector byte 255") as exc:
        PhotonRecordSet.from_binary(path)
    assert exc.value.byte_offset == 10


@pytest.mark.parametrize("window", [math.nan, math.inf, -math.inf, -5.0, 0.0])
def test_binary_rejects_a_bad_window(tmp_path, window):
    path = tmp_path / "window.pnrec"
    PhotonRecordSet("A", 8000.0, [0], [0], [1]).to_binary(path)
    raw = bytearray(path.read_bytes())
    assert struct.unpack_from("<d", raw, 16) == (8000.0,)
    struct.pack_into("<d", raw, 16, window)
    path.write_bytes(bytes(raw))
    with pytest.raises(StreamFormatError, match="window must be positive and finite") as exc:
        PhotonRecordSet.from_binary(path)
    assert exc.value.byte_offset == 16


def test_binary_rejects_short_header(tmp_path):
    path = tmp_path / "short.pnrec"
    path.write_bytes(b"PNR")
    with pytest.raises(StreamFormatError, match="header"):
        PhotonRecordSet.from_binary(path)


def test_binary_rejects_truncated_payload(tmp_path):
    records = PhotonRecordSet("A", 8000.0, np.arange(10), np.zeros(10), np.ones(10, dtype=int))
    path = tmp_path / "cut.pnrec"
    records.to_binary(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(StreamFormatError, match="expected 10 records"):
        PhotonRecordSet.from_binary(path)


def test_binary_rejects_unknown_version(tmp_path):
    records = PhotonRecordSet("A", 8000.0, np.arange(2), np.zeros(2), [1, 2])
    path = tmp_path / "ver.pnrec"
    records.to_binary(path)
    raw = bytearray(path.read_bytes())
    raw[8] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(StreamFormatError, match="version"):
        PhotonRecordSet.from_binary(path)
