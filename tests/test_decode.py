"""Decoding edge events into photon-number records."""

import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from pnrtiming import (
    CalibrationModel,
    EdgeEventSet,
    JitterParams,
    PhotonRecordSet,
    VoigtComponent,
    confusion_report,
    decode_events,
    pair_edges,
    simulate_stream,
)
from pnrtiming.errors import (
    AlignmentError,
    CompatibilityError,
    DataError,
    StreamFormatError,
)

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
    rise = np.asarray(rise, dtype=float)
    fall = np.asarray(fall, dtype=float)
    if detected is None:
        detected = np.isfinite(rise)
    detected = np.asarray(detected, dtype=bool)
    n = rise.size
    return EdgeEventSet(
        detector=detector,
        window_ps=8000.0,
        trigger_index=np.arange(n, dtype=np.int64),
        trigger_time=np.arange(n, dtype=np.int64) * 100_000,
        rise_delay=rise,
        fall_delay=fall,
        has_detection=detected,
    )


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
    assert_array_equal(records.trigger_index, events.trigger_index)
    assert_array_equal(records.trigger_time, events.trigger_time)
    assert records.detector == "A"
    assert records.window_ps == 8000.0
    assert (records.trigger_index[3], records.n[3]) == (3, 4)
    assert records.n.tolist() == [1, 0, 2, 4]


def test_detector_mismatch_is_rejected():
    model = toy_model(detector="A")
    events = make_events([10.0], [0.0], detector="B")
    with pytest.raises(CompatibilityError, match="detector"):
        decode_events(events, model)


def test_non_finite_delay_reports_event_index():
    model = toy_model()
    rise = np.array([10.0, 20.0, 30.0, np.nan, 10.0])
    events = make_events(rise, np.zeros(5), detected=np.ones(5, dtype=bool))
    with pytest.raises(DataError, match="index 3"):
        decode_events(events, model)


def test_nan_on_undetected_rows_is_harmless():
    model = toy_model()
    events = make_events([np.nan, 20.0], [np.nan, 0.0], [False, True])
    assert_array_equal(decode_events(events, model).n, [0, 2])


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
    with pytest.raises(AlignmentError, match=r"only in truth: \[5, 6, 7\]"):
        confusion_report(records, truth)
    with pytest.raises(AlignmentError, match=r"only in records: \[0, 1, 2\]"):
        confusion_report(records, truth)


def test_truth_length_mismatch_raises():
    records = PhotonRecordSet("A", 8000.0, np.arange(4), np.zeros(4), np.ones(4, dtype=int))
    with pytest.raises(AlignmentError):
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
    with pytest.raises(ValueError, match="n_max"):
        records.class_counts(n_max=3)


def test_record_set_validation():
    with pytest.raises(ValueError, match="shape"):
        PhotonRecordSet("A", 8000.0, np.arange(3), np.zeros(2), np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="non-negative"):
        PhotonRecordSet("A", 8000.0, np.arange(2), np.zeros(2), [1, -1])
    # an int16 cast would wrap 70000 to 4464, or raise OverflowError on a list
    for n in (np.array([1, 70000]), [1, 70000]):
        with pytest.raises(ValueError, match="70000"):
            PhotonRecordSet("A", 8000.0, np.arange(2), np.zeros(2), n)
    assert PhotonRecordSet("A", 8000.0, np.arange(2), np.zeros(2), np.array([0, 32767])).n.tolist() == [0, 32767]
    # the int16 cast would truncate 2.7 to 2 and turn NaN into 0
    for n in (np.array([0.0, 2.7]), np.array([np.nan, 1.0]), [0, 2.0]):
        with pytest.raises(ValueError, match="integers"):
            PhotonRecordSet("A", 8000.0, [0, 1], [0, 1], n)
    assert PhotonRecordSet("A", 8000.0, [], [], []).n.dtype == np.int16


def test_csv_round_trip(tmp_path):
    records = PhotonRecordSet("B", 6500.0, np.arange(4), np.array([0, 10, 20, 30]) * 10**6, [0, 3, 1, 2])
    path = tmp_path / "records.csv"
    records.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# detector=B window_ps=6500"
    assert lines[1] == "trigger_index,trigger_time,n"
    back = PhotonRecordSet.from_csv(path)
    assert back.detector == "B"
    assert back.window_ps == 6500.0
    assert_array_equal(back.trigger_index, records.trigger_index)
    assert_array_equal(back.trigger_time, records.trigger_time)
    assert_array_equal(back.n, records.n)


@pytest.mark.parametrize("n, line", [(70_000, 4), (-1, 6), (256, 3)])
def test_csv_photon_number_outside_u1_names_its_line(tmp_path, n, line):
    path = tmp_path / "records.csv"
    rows = ["0,0,1", "1,10,2", "2,20,3", "3,30,4"]
    rows[line - 3] = f"{line - 3},{10 * (line - 3)},{n}"
    path.write_text("# detector=A window_ps=8000\ntrigger_index,trigger_time,n\n" + "\n".join(rows) + "\n")
    with pytest.raises(StreamFormatError, match=f"line {line}: photon number {n} outside"):
        PhotonRecordSet.from_csv(path)


@pytest.mark.parametrize(
    "first, message",
    [("# detector=A window_ps=abc", "window_ps 'abc' is not a number"), ("# detector=C window_ps=8000", "A or B")],
)
def test_csv_bad_metadata_line_names_line_1(tmp_path, first, message):
    path = tmp_path / "records.csv"
    path.write_text(first + "\ntrigger_index,trigger_time,n\n0,0,1\n")
    with pytest.raises(StreamFormatError, match=f"line 1: .*{message}"):
        PhotonRecordSet.from_csv(path)


def test_csv_without_metadata_line_keeps_its_first_record(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("trigger_index,trigger_time,n\n0,0,1\n1,10,2\n2,20,0\n")
    back = PhotonRecordSet.from_csv(path)
    assert (back.detector, back.window_ps) == ("A", 0.0)
    assert_array_equal(back.trigger_index, [0, 1, 2])
    assert_array_equal(back.n, [1, 2, 0])


def test_binary_refuses_photon_numbers_beyond_u1(tmp_path):
    records = PhotonRecordSet("A", 8000.0, [0, 1], [0, 10], [255, 300])
    path = tmp_path / "wide.pnrec"
    with pytest.raises(DataError, match="u1"):
        records.to_binary(path)
    assert not path.exists()


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
