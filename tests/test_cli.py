"""End-to-end command-line behavior: files, summaries, exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pnrtiming
from pnrtiming import (
    JitterParams,
    PhotonRecordSet,
    PulseModelParams,
    SourceSpec,
    TagBlock,
    calibrate_both,
    distinct_pairs,
    errors,
    pair_edges,
    read_tag_block,
    sample_source,
    simulate_stream,
    write_stream,
)
from pnrtiming.cli import main
from pnrtiming.timetags import _HEADER_FIXED, _RECORD_DTYPE


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


def write_records(path, n, detector="A"):
    n = np.asarray(n)
    idx = np.arange(n.size, dtype=np.int64)
    PhotonRecordSet(detector, 8000.0, idx, idx * 100_000, n).to_binary(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One simulate/calibrate/decode/stats run shared by the checks below."""
    root = tmp_path_factory.mktemp("pipeline")
    assert main(["simulate", "--n-triggers", "30000", "--seed", "42", "--out", str(root), "--quiet"]) == 0
    assert (
        main(
            ["calibrate", str(root / "stream.pnrtag"), "--mode", "both", "--out", str(root), "--quiet"]
        )
        == 0
    )
    assert (
        main(
            [
                "decode",
                str(root / "stream.pnrtag"),
                str(root / "calibration_optimal.json"),
                "--truth",
                str(root / "truth.csv"),
                "--out",
                str(root),
                "--quiet",
            ]
        )
        == 0
    )
    assert main(["stats", str(root / "records_A.pnrec"), "--out", str(root), "--quiet"]) == 0
    return root


# ---- simulate


def test_simulate_is_deterministic(tmp_path, capsys):
    for sub in ("one", "two"):
        code, _, _ = run(capsys, "simulate", "--n-triggers", 10, "--seed", 7, "--out", tmp_path / sub)
        assert code == 0
    assert digest(tmp_path / "one/stream.pnrtag") == digest(tmp_path / "two/stream.pnrtag")
    assert digest(tmp_path / "one/truth.csv") == digest(tmp_path / "two/truth.csv")


def test_simulate_summary_reports_detected_mean(tmp_path, capsys):
    code, out, _ = run(capsys, "simulate", "--n-triggers", 20000, "--seed", 3, "--out", tmp_path)
    assert code == 0
    assert out["triggers"] == 20000
    assert out["detected_mean_a"] == pytest.approx(3.43, rel=0.02)
    assert out["detections_b"] == 0


def test_simulate_dark_source(tmp_path, capsys):
    config = tmp_path / "dark.json"
    config.write_text(json.dumps({"source": {"mu": 0.0}, "n_triggers": 500}))
    code, out, _ = run(capsys, "simulate", "--config", config, "--out", tmp_path)
    assert code == 0
    assert out["detections_a"] == 0
    assert out["detected_mean_a"] == 0.0


def test_simulate_refuses_photon_numbers_above_the_range(tmp_path, capsys):
    # decode --truth could not read the truth file back
    config = tmp_path / "bright.json"
    config.write_text(json.dumps({"source": {"mu": 400.0}, "n_triggers": 200}))
    code, out, err = run(capsys, "simulate", "--config", config, "--out", tmp_path / "out")
    assert (code, out, err["error"]) == (2, None, "ConfigError")
    assert "trigger 0 draws 381 photons on detector A, above 255" in err["message"]
    assert not (tmp_path / "out" / "stream.pnrtag").exists() and not (tmp_path / "out" / "truth.csv").exists()


def test_simulate_refuses_max_photons_past_255_before_any_pulse(tmp_path, capsys, monkeypatch):
    # the pulse-peak check runs once per photon number up to max_photons: hours at 10**9
    def no_pulse(n, params):
        raise AssertionError(f"pulse peak of n={n} computed before max_photons was checked")

    monkeypatch.setattr(pnrtiming.simulate, "pulse_peak", no_pulse)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pulse": {"max_photons": 10**9}, "n_triggers": 10}))
    code, out, err = run(capsys, "simulate", "--config", config, "--out", tmp_path / "out")
    assert (code, out, err["error"], err["exit_code"]) == (2, None, "ConfigError", 2)
    assert "max_photons must be at least 1 and at most 255, not 1000000000" in err["message"]
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"sourc": {"mu": 1.0}}))
    code, out, err = run(capsys, "simulate", "--config", config, "--out", tmp_path)
    assert code == 2
    assert out is None
    assert err["error"] == "ConfigError"
    assert "sourc" in err["message"]


def test_unknown_nested_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"jitter": {"detector_rms": 5.0, "detectr_rms": 1.0}}))
    code, _, err = run(capsys, "simulate", "--config", config, "--out", tmp_path)
    assert code == 2
    assert "detectr_rms" in err["message"]


def test_malformed_config_json(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    code, _, err = run(capsys, "simulate", "--config", config, "--out", tmp_path)
    assert code == 2
    assert err["exit_code"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("calibrate", "{stream}", "--window", "-5"),
        ("calibrate", "{stream}", "--window", "0"),
        ("calibrate", "{stream}", "--window", "inf"),
        ("decode", "{stream}", "{window_zero}"),
        ("decode", "{stream}", "{window_null}"),
        ("stats", "{records}", "--tail-from", "0"),
        ("simulate", "--config", "{pileup}", "--n-triggers", "10"),
        ("decode", "{stream}", "{no_components}"),
        ("decode", "{stream}", "{unnormalised}"),
        ("decode", "{stream}", "{not_json}"),
        ("decode", "{stream}", "{calibration}", "--truth", "{short_truth}"),
        ("stats", "{short_records}"),
        ("decode", "{stream}", "{detector_c}"),
        ("decode", "{stream}", "{window_text}"),
        ("decode", "{stream}", "{window_negative}"),
        ("stats", "{records}", "--n-max", "-1"),
        ("jpnd", "{records}", "{records}", "--n-max", "-1"),
        ("jpnd", "{records}", "{records}", "--n-max", "1"),
        ("simulate", "--seed", "-1"),
        ("simulate", "--config", "{n_triggers_bool}"),
        ("simulate", "--config", "{n_triggers_zero}"),
        ("simulate", "--config", "{n_triggers_fraction}"),
        ("simulate", "--config", "{config_list}"),
        ("simulate", "--config", "{seed_text}"),
        ("simulate", "--config", "{rate_tiny}"),
        ("simulate", "--config", "{rate_slow}"),
        ("simulate", "--config", "{pulse_amplitude}"),
        ("stats", "{window_inf_pnrec}"),
        ("jpnd", "{records}", "{short_records}"),
        ("stats", "{window_nan_pnrec}"),
        ("stats", "{window_negative_pnrec}"),
        ("jpnd", "{records}", "{window_nan_pnrec}"),
        ("jpnd", "{records}", "{window_negative_pnrec}"),
        ("stats", "{version_pnrec}"),
        ("stats", "{detector_c_pnrec}"),
        ("simulate", "--config", "{threshold_nan}"),
        ("simulate", "--config", "{fall_time_inf}"),
        ("simulate", "--config", "{mu_inf}"),
        ("simulate", "--config", "{tagger_jitter_inf}"),
        ("decode", "{stream}", "{boundary_nan}"),
        # a table by photon number reaches at most 255, the most a record holds
        ("stats", "{records}", "--n-max", "256"),
        ("stats", "{records}", "--n-max", "1000000000000"),
        ("stats", "{records}", "--tail-from", "256"),
        ("stats", "{records}", "--tail-from", "1000000000000"),
        ("jpnd", "{records}", "{records}", "--n-max", "256"),
        ("jpnd", "{records}", "{records}", "--n-max", "1000000000"),
        # arguments the parser refuses give the same JSON error
        ("stats", "{records}", "--n-max", "abc"),
        ("calibrate", "{stream}", "--k", "3"),
        (),
        # a calibration names one detector and one window: no null, no default
        ("decode", "{stream}", "{detector_null}"),
        ("decode", "{stream}", "{no_detector}"),
        ("decode", "{stream}", "{no_window}"),
    ],
)
def test_out_of_range_options_exit_2(pipeline, tmp_path, capsys, argv):
    """Out-of-range options and malformed input files exit 2 with a typed
    error; a refused option writes nothing under --out."""
    configs = {
        "pileup": {"source": {"repetition_rate_hz": 4e8}},
        "n_triggers_bool": {"n_triggers": True},
        "n_triggers_zero": {"n_triggers": 0},
        "n_triggers_fraction": {"n_triggers": 2.5},
        "config_list": [{"n_triggers": 10}],
        "seed_text": {"n_triggers": 10, "seed": "x"},
        "rate_tiny": {"source": {"repetition_rate_hz": 1e-300}, "n_triggers": 10},
        "rate_slow": {"source": {"repetition_rate_hz": 1e-3}, "n_triggers": 1000},
        "pulse_amplitude": {"pulse": {"amplitude_1": 2.0}, "n_triggers": 10},
        "threshold_nan": {"pulse": {"threshold": float("nan")}, "n_triggers": 10},
        "fall_time_inf": {"pulse": {"kinetic_inductance_time_ns": float("inf")}, "n_triggers": 10},
        "mu_inf": {"source": {"mu": float("inf")}, "n_triggers": 10},
        "tagger_jitter_inf": {"jitter": {"tagger_rms_per_channel": float("inf")}, "n_triggers": 10},
    }
    for name, config in configs.items():
        configs[name] = tmp_path / f"{name}.json"
        configs[name].write_text(json.dumps(config))
    model = json.loads((pipeline / "calibration_optimal.json").read_text())
    missing = {}
    for name, key in (("no_components", "components"), ("no_detector", "detector"), ("no_window", "window_ps")):
        missing[name] = tmp_path / f"{name}.json"
        missing[name].write_text(json.dumps({k: v for k, v in model.items() if k != key}))
    bad_fields = {}
    for name, key, value in (
        ("detector_c", "detector", "C"),
        ("detector_null", "detector", None),
        ("window_text", "window_ps", "abc"),
        ("window_negative", "window_ps", -5),
        ("window_zero", "window_ps", 0),
        ("window_null", "window_ps", None),
        ("boundary_nan", "boundaries_ps", [float("nan"), *model["boundaries_ps"][1:]]),
    ):
        bad_fields[name] = tmp_path / f"{name}.json"
        bad_fields[name].write_text(json.dumps({**model, key: value}))
    model["crosstalk"][0][0] += 0.1
    unnormalised = tmp_path / "unnormalised.json"
    unnormalised.write_text(json.dumps(model))
    not_json = tmp_path / "not_json.json"
    not_json.write_text("calibration")
    truth = (pipeline / "truth.csv").read_text().splitlines(keepends=True)
    truth[3] = truth[3].rsplit(",", 1)[0] + "\n"
    short_truth = tmp_path / "truth.csv"
    short_truth.write_text("".join(truth))
    original = (pipeline / "records_A.pnrec").read_bytes()
    short_records = tmp_path / "short_records.pnrec"
    short_records.write_bytes(original[:-5])  # cut mid-record
    malformed = {"short_truth": short_truth, "short_records": short_records}
    for name, field, value in (
        ("version_pnrec", "version", 2),
        ("detector_c_pnrec", "detector", ord("C")),
        ("window_nan_pnrec", "window_ps", math.nan),
        ("window_inf_pnrec", "window_ps", math.inf),
        ("window_negative_pnrec", "window_ps", -5.0),
    ):
        pnrec = bytearray(original)
        offset, fmt = PNREC_FIELDS[field]
        struct.pack_into(fmt, pnrec, offset, value)
        malformed[name] = tmp_path / f"{name}.pnrec"
        malformed[name].write_bytes(pnrec)
    paths = {
        "stream": pipeline / "stream.pnrtag",
        "calibration": pipeline / "calibration_optimal.json",
        "records": pipeline / "records_A.pnrec",
        **configs,
        **missing,
        "unnormalised": unnormalised,
        "not_json": not_json,
        **malformed,
        **bad_fields,
    }
    code, out, err = run(capsys, *(a.format(**paths) for a in argv), "--out", tmp_path / "out")
    assert code == 2
    assert out is None
    malformed_file = bool(argv) and argv[-1].strip("{}") in malformed
    assert err["error"] == ("StreamFormatError" if malformed_file else "ConfigError")
    assert err["exit_code"] == 2
    if not malformed_file:
        assert not (tmp_path / "out").exists()


def test_photon_number_tables_take_the_record_ceiling(pipeline, tmp_path, capsys):
    records = pipeline / "records_A.pnrec"
    code, _, err = run(capsys, "stats", records, "--n-max", 255, "--tail-from", 255, "--out", tmp_path / "stats")
    assert (code, err) == (0, None)
    table = (tmp_path / "stats" / "number_distribution.csv").read_text().splitlines()
    assert table[-1].startswith("255,") and len(table) == 257
    code, _, err = run(capsys, "jpnd", records, records, "--n-max", 255, "--out", tmp_path / "jpnd")
    assert (code, err) == (0, None)
    assert len((tmp_path / "jpnd" / "jpnd.csv").read_text().splitlines()) == 257


def test_calibrate_takes_no_component_count(pipeline, tmp_path, capsys):
    code, out, err = run(capsys, "calibrate", pipeline / "stream.pnrtag", "--k", 3, "--out", tmp_path / "out")
    assert (code, out, err["error"], err["exit_code"]) == (2, None, "ConfigError", 2)
    assert err["message"] == "unrecognized arguments: --k 3"
    assert not (tmp_path / "out").exists()


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["decode", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert "usage: pnrtiming" in capsys.readouterr().out


def exit_cleanly(*argv):
    """Run ``main`` quietly and check the exit-code contract: a documented
    code, and for a failure exactly one JSON error object on stderr, never a
    traceback.  Returns (code, error object or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*map(str, argv), "--quiet"])
    assert code in (0, 2, 3, 4, 5)
    assert out.getvalue() == "" and "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        return code, None
    error = json.loads(err.getvalue())
    assert isinstance(error, dict) and error["exit_code"] == code
    return code, error


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(
        st.sampled_from([("stats", "--n-max"), ("stats", "--tail-from"), ("jpnd", "--n-max")]),
        st.integers(-(2**70), 2**70),
    )
)
@example((("stats", "--n-max"), 255))
@example((("jpnd", "--n-max"), 256))
@example((("stats", "--tail-from"), -(2**70)))
def test_numeric_options_exit_cleanly(pipeline, tmp_path_factory, draw):
    """Any value of a numeric option gives a documented exit code, and a
    failure exactly one JSON object on stderr, never a traceback."""
    (command, option), value = draw
    inputs = {
        "stats": [pipeline / "records_A.pnrec"],
        "jpnd": [pipeline / "records_A.pnrec"] * 2,
    }[command]
    exit_cleanly(command, *inputs, f"{option}={value!r}", "--out", tmp_path_factory.mktemp("fuzz"))


MISSING = object()  # a calibration key left out of the document


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.tuples(
            st.just("window_ps"),
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.integers(-(2**70), 2**70),
                st.booleans(),
                st.none(),
                st.text(max_size=4),
                st.lists(st.floats(), max_size=1),
                st.just(MISSING),
            ),
        ),
        st.tuples(
            st.just("detector"),
            st.one_of(
                st.sampled_from("AB"),
                st.text(max_size=3),
                st.integers(),
                st.none(),
                st.lists(st.just("A"), max_size=1),
                st.just(MISSING),
            ),
        ),
    )
)
@example(("window_ps", 5e-324))
@example(("window_ps", 1e300))
@example(("window_ps", 1.797693134862316e307))  # times 10 tag units per ps is inf
@example(("window_ps", 0))
@example(("window_ps", True))
@example(("window_ps", MISSING))
@example(("detector", "B"))
@example(("detector", None))
@example(("detector", ["A"]))
def test_calibration_pairing_fields_exit_cleanly(pipeline, tmp_path_factory, mutation):
    """decode pairs with the calibration's detector and window: any value
    of either field decodes into records_<detector>.pnrec, or is refused with
    one ConfigError before any output, never a traceback."""
    key, value = mutation
    model = json.loads((pipeline / "calibration_optimal.json").read_text())
    if value is MISSING:
        del model[key]
    else:
        model[key] = value
    directory = tmp_path_factory.mktemp("calibration")
    (directory / "calibration.json").write_text(json.dumps(model))
    code, error = exit_cleanly(
        "decode", pipeline / "stream.pnrtag", directory / "calibration.json", "--out", directory / "out"
    )
    window, detector = model.get("window_ps"), model.get("detector")
    real = isinstance(window, (int, float)) and not isinstance(window, bool)
    if detector in ("A", "B") and real and 0 < window < math.inf:
        assert code == 0
        assert (directory / "out" / f"records_{detector}.pnrec").exists()
    else:
        assert (code, error["error"]) == (2, "ConfigError")
        assert not (directory / "out").exists()


# JSON texts for a config value: 1e400 parses to inf, 2**70 to an int past
# int64 and 10**400 to one past the doubles
CONFIG_VALUES = (
    *("null", '"x"', "-1", "0", "5e-324", "1e-300", "1e308", "1e400"),
    *(str(2**70), str(10**400), "true", "[1]"),
)


@pytest.mark.parametrize("value", CONFIG_VALUES, ids=lambda text: "10**400" if text == str(10**400) else text)
@pytest.mark.parametrize(
    "section, key",
    [
        (section, field.name)
        for section, cls in (("source", SourceSpec), ("pulse", PulseModelParams), ("jitter", JitterParams))
        for field in dataclasses.fields(cls)
    ],
)
def test_simulate_config_fields_exit_cleanly(tmp_path, section, key, value):
    """Any value of any source, pulse or jitter key simulates, or is refused
    with one ConfigError before any output, never a traceback."""
    config = tmp_path / "config.json"
    config.write_text(f'{{"{section}": {{"{key}": {value}}}, "n_triggers": 2000}}')
    code, error = exit_cleanly("simulate", "--config", config, "--out", tmp_path / "out")
    if code:
        assert (code, error["error"]) == (2, "ConfigError")
        assert not (tmp_path / "out").exists()
    else:
        assert (tmp_path / "out" / "stream.pnrtag").exists()


# the path of keys to a calibration field: the first component's, then the model's
CALIBRATION_FIELDS = [
    *(("components", 0, key) for key in ("center_ps", "sigma_ps", "gamma_ps", "weight")),
    *((key,) for key in ("angle_rad", "boundaries_ps", "crosstalk")),
]


@pytest.mark.parametrize("value", CONFIG_VALUES, ids=lambda text: "10**400" if text == str(10**400) else text)
@pytest.mark.parametrize("path", CALIBRATION_FIELDS, ids=lambda path: path[-1])
def test_calibration_fields_exit_cleanly(pipeline, tmp_path, path, value):
    """Any value of a component's fields, the angle, the boundaries or the
    crosstalk decodes into records_A.pnrec, or is refused with one
    ConfigError before any output, never a traceback."""
    model = json.loads((pipeline / "calibration_optimal.json").read_text())
    parent = model
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "VALUE"
    (tmp_path / "calibration.json").write_text(json.dumps(model).replace('"VALUE"', value))
    code, error = exit_cleanly(
        "decode", pipeline / "stream.pnrtag", tmp_path / "calibration.json", "--out", tmp_path / "out"
    )
    if code:
        assert (code, error["error"]) == (2, "ConfigError")
        assert not (tmp_path / "out").exists()
    else:
        assert (tmp_path / "out" / "records_A.pnrec").exists()


def test_simulate_with_a_subnormal_rise_constant_writes_its_stream(tmp_path):
    # the peak time once overflowed to inf here, and simulate refused the
    # pulse as one that "stays above the threshold until about inf ps"
    config = tmp_path / "config.json"
    config.write_text('{"pulse": {"hotspot_rise_scale_ps": 1e-320}, "n_triggers": 2000}')
    assert exit_cleanly("simulate", "--config", config, "--out", tmp_path / "out") == (0, None)
    assert read_tag_block(tmp_path / "out" / "stream.pnrtag").is_sorted()


# offset and struct format of each .pnrec header field after the magic
PNREC_FIELDS = {"version": (8, "<H"), "detector": (10, "B"), "count": (12, "<I"), "window_ps": (16, "<d")}


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("version"), st.integers(0, 2**16 - 1)),
        st.tuples(st.just("detector"), st.integers(0, 255)),
        st.tuples(st.just("count"), st.integers(0, 2**32 - 1)),
        st.tuples(st.just("window_ps"), st.floats(allow_nan=True, allow_infinity=True)),
    )
)
@example(("version", 2))
@example(("detector", ord("B")))
@example(("count", 0))
@example(("window_ps", math.nan))
@example(("window_ps", -math.inf))
@example(("window_ps", 5e-324))
@example(("window_ps", 0.0))
def test_pnrec_header_mutations_exit_cleanly(pipeline, tmp_path_factory, mutation):
    """A .pnrec with any value in one header field is read, or refused with
    the exit-code contract."""
    name, value = mutation
    offset, fmt = PNREC_FIELDS[name]
    original = (pipeline / "records_A.pnrec").read_bytes()
    data = bytearray(original)
    struct.pack_into(fmt, data, offset, value)
    directory = tmp_path_factory.mktemp("pnrec")
    (directory / "records.pnrec").write_bytes(data)
    code, error = exit_cleanly("stats", directory / "records.pnrec", "--out", directory / "out")
    readable = (
        value == struct.unpack_from(fmt, original, offset)[0]
        or (name == "detector" and value == ord("B"))
        or (name == "window_ps" and 0.0 < value < math.inf)
    )
    assert code == (0 if readable else 2), error


def set_u16(offset, value):
    """A .pnrtag edit: the header's u16 at ``offset`` set to ``value``."""
    def edit(raw):
        data = bytearray(raw)
        struct.pack_into("<H", data, offset, value)
        return bytes(data)

    return edit


def first_records_at(byte):
    """A .pnrtag edit: its first four records' bytes all set to ``byte``."""
    size = 4 * _RECORD_DTYPE.itemsize
    return lambda raw: raw[: _HEADER_FIXED.size] + bytes([byte]) * size + raw[_HEADER_FIXED.size + size :]


# byte edits of a .pnrtag and the exit code of calibrate and decode on it
PNRTAG_MUTATIONS = {
    "magic": (lambda raw: b"PNRTAG02" + raw[8:], 2),
    "version 0": (set_u16(8, 0), 2),
    "version 65535": (set_u16(8, 0xFFFF), 2),
    "resolution 0": (set_u16(10, 0), 2),
    "resolution 65535": (set_u16(10, 0xFFFF), 2),
    "channels 0": (set_u16(12, 0), 2),  # every channel lies out of range
    "channels 65535": (set_u16(12, 0xFFFF), 0),  # the format's 5 channels still bound them
    "note length 1": (set_u16(14, 1), 2),  # the records lose their first byte
    "note length 65535": (set_u16(14, 0xFFFF), 2),
    "first records at 0": (first_records_at(0), 0),  # four triggers at time 0
    "first records at 255": (first_records_at(255), 2),
    "cut in the header": (lambda raw: raw[:10], 2),
    "cut in a record": (lambda raw: raw[:-7], 2),
    "5 bytes appended": (lambda raw: raw + bytes(5), 2),
}


@pytest.mark.parametrize("mutation", PNRTAG_MUTATIONS)
def test_pnrtag_byte_mutations_exit_cleanly(pipeline, tmp_path, mutation):
    """A .pnrtag with one header field, its first records or its length
    changed is read, or refused with the exit-code contract, by calibrate
    and by decode."""
    edit, want = PNRTAG_MUTATIONS[mutation]
    stream = tmp_path / "stream.pnrtag"
    stream.write_bytes(edit((pipeline / "stream.pnrtag").read_bytes()))
    for argv in (("calibrate", stream), ("decode", stream, pipeline / "calibration_optimal.json")):
        code, error = exit_cleanly(*argv, "--out", tmp_path / argv[0])
        assert code == want, (argv[0], error)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["index", "n"]), st.integers(0, 4), st.sampled_from([-1, 256, 10**8, 2**70]))
def test_csv_cell_mutations_exit_cleanly(pipeline, tmp_path_factory, column, row, value):
    """A truth CSV with one index or photon-number cell set to a value out
    of range is read, or refused with the exit-code contract; a refused file
    names the line."""
    lines = (pipeline / "truth.csv").read_text().splitlines(keepends=True)
    fields = lines[1 + row].rstrip("\n").split(",")
    fields[0 if column == "index" else 1] = str(value)
    lines[1 + row] = ",".join(fields) + "\n"
    directory = tmp_path_factory.mktemp("csv")
    path = directory / "truth.csv"
    path.write_text("".join(lines))
    argv = ["decode", pipeline / "stream.pnrtag", pipeline / "calibration_optimal.json", "--truth", path]
    code, error = exit_cleanly(*argv, "--out", directory / "out")
    if value == 2**70 or column == "n":
        assert code == 2 and f"line {row + 2}:" in error["message"], error
    assert not (code and (directory / "out").exists())


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_only_calibrate_loads_scipy_and_only_scipy_special(pipeline, tmp_path):
    """Importing the package and running simulate, decode, stats and jpnd
    load no scipy module; calibrate then loads what importing scipy.special
    loads, and nothing more (which scipy.special itself pulls in varies with
    the scipy version)."""
    src = Path(pnrtiming.__file__).resolve().parents[1]
    out = tmp_path / "run"
    records = str(out / "records_A.pnrec")
    script = f"""
import json, sys
import pnrtiming, pnrtiming.cli
seen = [{SCIPY_MODULES}]
main = pnrtiming.cli.main
for argv in (
    ["simulate", "--n-triggers", "2000", "--seed", "5", "--out", {str(out)!r}],
    ["decode", {str(out / "stream.pnrtag")!r}, {str(pipeline / "calibration_optimal.json")!r},
     "--truth", {str(out / "truth.csv")!r}, "--out", {str(out)!r}],
    ["stats", {records!r}, "--out", {str(out)!r}],
    ["jpnd", {records!r}, {records!r}, "--out", {str(out)!r}],
    ["calibrate", {str(pipeline / "stream.pnrtag")!r}, "--out", {str(out / "calibration")!r}],
):
    assert main([*argv, "--quiet"]) == 0, argv
    seen.append({SCIPY_MODULES})
print(json.dumps(seen))
"""

    def run(code):
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return json.loads(done.stdout)

    *before_calibrate, after_calibrate = run(script)
    assert before_calibrate == [[]] * 5
    assert "scipy.special" in after_calibrate
    assert after_calibrate == run(f"import json, sys, scipy.special; print(json.dumps({SCIPY_MODULES}))")


# ---- calibrate


def test_calibrate_writes_models_and_reports(pipeline):
    for mode in ("optimal", "rising_only"):
        model = json.loads((pipeline / f"calibration_{mode}.json").read_text())
        assert model["mode"] == mode
        assert (pipeline / f"projection_{mode}.csv").exists()
        assert (pipeline / f"crosstalk_{mode}.csv").exists()
    assert (pipeline / "histogram2d.csv").exists()


def test_projection_csv_is_the_fit_table(pipeline):
    """Each projection CSV holds the histogram and expected counts that the
    model's diagnostics.fit was computed from, to the CSV's 6 digits."""
    for mode in ("optimal", "rising_only"):
        model = json.loads((pipeline / f"calibration_{mode}.json").read_text())
        fit, k = model["diagnostics"]["fit"], len(model["components"])
        table = np.loadtxt(pipeline / f"projection_{mode}.csv", delimiter=",", skiprows=1)
        counts, fitted = table[:, 1], table[:, 2]
        assert counts.sum() == fit["n_events"]
        use = fitted >= 5.0
        c, e = counts[use], fitted[use]
        assert int(np.count_nonzero(use)) - (3 * k - 1) - 1 == fit["ndf"]
        # each fitted count is rounded by at most 5e-6 of itself, which moves
        # its term (c - e)**2 / e by at most |c**2 - e**2| / e * 5e-6
        slack = float(np.sum(np.abs(c * c - e * e) / e)) * 5e-6
        assert abs(float(np.sum((c - e) ** 2 / e)) - fit["chi2"]) <= slack


def test_calibrate_far_out_detection_keeps_the_table_small(pipeline, tmp_path, capsys):
    """One detection far from the clusters, like a dark count, adds one row to
    histogram2d.csv rather than a dense grid reaching out to it."""
    block = read_tag_block(pipeline / "stream.pnrtag")
    events = pair_edges(block, 8000.0, detector="A")
    trig = events.trigger_time
    # the first trigger with no detector A tag before the next trigger
    a_tags = block.timestamps[(block.channels == 1) | (block.channels == 2)]
    first, last = np.searchsorted(a_tags, trig[:-1]), np.searchsorted(a_tags, trig[1:])
    t = int(trig[np.flatnonzero(first == last)[0]])
    channels = np.concatenate([block.channels, [1, 2]]).astype(np.uint8)
    stamps = np.concatenate([block.timestamps, [t + 50_000, t + 79_000]])  # (5,000, 7,900) ps
    path = tmp_path / "outlier.pnrtag"
    write_stream(TagBlock(channels, stamps).sorted(), path)
    code, _, err = run(capsys, "calibrate", path, "--out", tmp_path / "out", "--quiet")
    assert (code, err) == (0, None)
    table = distinct_pairs(pair_edges(read_tag_block(path), 8000.0, detector="A"))
    assert table.rise_units.size == distinct_pairs(events).rise_units.size + 1
    lines = (tmp_path / "out" / "histogram2d.csv").read_text().splitlines()
    assert len(lines) == table.rise_units.size + 1


def test_calibrate_collapses_the_detections_once(pipeline, tmp_path, capsys, monkeypatch):
    calls = []
    original = pnrtiming.calibrate.distinct_pairs

    def counting(events):
        calls.append(1)
        return original(events)

    monkeypatch.setattr(pnrtiming.calibrate, "distinct_pairs", counting)
    code, _, err = run(capsys, "calibrate", pipeline / "stream.pnrtag", "--out", tmp_path, "--quiet")
    assert (code, err, len(calls)) == (0, None, 1)


def test_calibrate_holds_no_events_while_it_calibrates(pipeline, tmp_path, capsys, monkeypatch):
    paired, alive = [], []
    original_pair, original_calibrate = pnrtiming.cli.pair_edges, pnrtiming.calibrate.calibrate_pairs

    def pairing(*args, **kwargs):
        events = original_pair(*args, **kwargs)
        paired.append(weakref.ref(events))
        return events

    def calibrating(table):
        alive.append(paired[0]() is not None)
        return original_calibrate(table)

    monkeypatch.setattr(pnrtiming.cli, "pair_edges", pairing)
    monkeypatch.setattr(pnrtiming.calibrate, "calibrate_pairs", calibrating)
    code, _, err = run(capsys, "calibrate", pipeline / "stream.pnrtag", "--out", tmp_path, "--quiet")
    assert (code, err, alive) == (0, None, [False])


def test_calibrate_summary_shows_crosstalk_gain(tmp_path, capsys, pipeline):
    code, out, _ = run(capsys, "calibrate", pipeline / "stream.pnrtag", "--out", tmp_path)
    assert code == 0
    assert out["optimal"]["total_offdiagonal_crosstalk"] < out["rising_only"]["total_offdiagonal_crosstalk"]


def test_calibrate_empty_stream_exits_3(tmp_path, capsys):
    config = tmp_path / "dark.json"
    config.write_text(json.dumps({"source": {"mu": 0.0}, "n_triggers": 300}))
    code, _, _ = run(capsys, "simulate", "--config", config, "--out", tmp_path)
    assert code == 0
    code, _, err = run(capsys, "calibrate", tmp_path / "stream.pnrtag", "--out", tmp_path)
    assert code == 3
    assert "empty" in err["message"].lower() or "no detected" in err["message"].lower()


def test_calibrate_too_few_detections_exits_3(tmp_path, capsys):
    code, _, _ = run(capsys, "simulate", "--n-triggers", 150, "--seed", 1, "--out", tmp_path, "--quiet")
    assert code == 0
    code, out, err = run(capsys, "calibrate", tmp_path / "stream.pnrtag", "--out", tmp_path / "out")
    assert (code, out) == (3, None)
    assert err["error"] == "CalibrationError"
    assert "need at least" in err["message"]


def test_calibrate_out_of_order_stream_exits_4(pipeline, tmp_path, capsys):
    raw = bytearray((pipeline / "stream.pnrtag").read_bytes())
    size = _RECORD_DTYPE.itemsize
    first, last = slice(_HEADER_FIXED.size, _HEADER_FIXED.size + size), slice(len(raw) - size, len(raw))
    raw[first], raw[last] = raw[last], raw[first]
    swapped = tmp_path / "swapped.pnrtag"
    swapped.write_bytes(raw)
    code, out, err = run(capsys, "calibrate", swapped, "--out", tmp_path / "out")
    assert (code, out) == (4, None)
    assert err["error"] == "DataError"
    assert "sorted" in err["message"]


def test_calibrate_skips_a_header_note_of_any_bytes(pipeline, tmp_path, capsys):
    raw = (pipeline / "stream.pnrtag").read_bytes()
    magic, version, resolution, channels, _ = _HEADER_FIXED.unpack_from(raw)
    noted = tmp_path / "noted.pnrtag"
    noted.write_bytes(
        _HEADER_FIXED.pack(magic, version, resolution, channels, 2) + b"\xff\xfe" + raw[_HEADER_FIXED.size :]
    )
    code, _, err = run(capsys, "calibrate", noted, "--mode", "both", "--out", tmp_path / "out", "--quiet")
    assert (code, err) == (0, None)
    for mode in ("optimal", "rising_only"):
        name = f"calibration_{mode}.json"
        assert digest(tmp_path / "out" / name) == digest(pipeline / name)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity on this platform")
def test_calibration_does_not_depend_on_the_cpu_count(pipeline, tmp_path):
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("one CPU: the pinned and the free run would both use one thread")
    env = {**os.environ, "PYTHONPATH": str(Path(pnrtiming.__file__).parents[1])}
    outputs = {}
    for name, pin in (("one_cpu", f"os.sched_setaffinity(0, {{{cpus[0]}}}); "), ("all_cpus", "")):
        # the affinity is set in the child only, before it imports the package
        code = f"import os, sys; {pin}from pnrtiming.cli import main; sys.exit(main(sys.argv[1:]))"
        out = tmp_path / name
        argv = ["calibrate", str(pipeline / "stream.pnrtag"), "--mode", "both", "--out", str(out)]
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        outputs[name] = done.stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert {"calibration_optimal.json", "calibration_rising_only.json"} <= set(outputs["one_cpu"][1])
    assert outputs["one_cpu"] == outputs["all_cpus"]


def test_stream_format_error_reports_its_byte_offset(pipeline, tmp_path, capsys):
    raw = bytearray((pipeline / "stream.pnrtag").read_bytes())
    raw[_HEADER_FIXED.size + 1000 * _RECORD_DTYPE.itemsize] = 0xFF  # channel byte of record 1000
    path = tmp_path / "corrupt.pnrtag"
    path.write_bytes(raw)
    code, out, err = run(capsys, "calibrate", path, "--out", tmp_path / "out")
    assert (code, out) == (2, None)
    assert err == {
        "error": "StreamFormatError",
        "message": "channel 255 out of range",
        "exit_code": 2,
        "byte_offset": 16 + 16 * 1000,
    }
    # an error without an offset keeps the three keys
    code, _, err = run(capsys, "calibrate", tmp_path / "missing.pnrtag", "--out", tmp_path / "out")
    assert sorted(err) == ["error", "exit_code", "message"]


def test_calibrate_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "calibrate", tmp_path / "nope.pnrtag", "--out", tmp_path)
    assert code == 2
    assert err["exit_code"] == 2


def test_a_window_past_the_clock_pairs_like_the_default(pipeline, tmp_path, capsys):
    """--window 1e300 reaches past the int64 clock; its end saturates, so it
    pairs as if it had no end, here like the default 8000 ps."""
    stream = pipeline / "stream.pnrtag"
    code, _, _ = run(capsys, "calibrate", stream, "--window", "1e300", "--out", tmp_path, "--quiet")
    assert code == 0
    for mode in ("optimal", "rising_only"):
        wide = json.loads((tmp_path / f"calibration_{mode}.json").read_text())
        default = json.loads((pipeline / f"calibration_{mode}.json").read_text())
        assert (wide["window_ps"], default["window_ps"]) == (1e300, 8000.0)
        assert wide["boundaries_ps"] == default["boundaries_ps"]
    code, _, _ = run(capsys, "decode", stream, tmp_path / "calibration_optimal.json", "--out", tmp_path, "--quiet")
    assert code == 0
    wide = PhotonRecordSet.from_binary(tmp_path / "records_A.pnrec")
    default = PhotonRecordSet.from_binary(pipeline / "records_A.pnrec")
    assert wide.window_ps == 1e300
    np.testing.assert_array_equal(wide.n, default.n)


# ---- decode


def test_decode_reports_and_confusion(pipeline):
    report = json.loads((pipeline / "decode_report.json").read_text())
    assert report["triggers"] == 30000
    assert report["class_counts"][0] == report["triggers"] - report["detections"]
    assert "confusion" in report
    # the raw matrix keeps truth unclamped, so n >= 7 events land off-diagonal
    assert report["confusion"]["overall_accuracy"] > 0.9
    assert report["confusion"]["prediction"]["max_abs_z"] < 4.0
    assert (pipeline / "records_A.pnrec").exists() and not (pipeline / "records_A.csv").exists()


def test_decode_rerun_is_byte_identical(pipeline, tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "decode",
        pipeline / "stream.pnrtag",
        pipeline / "calibration_optimal.json",
        "--out",
        tmp_path,
        "--quiet",
    )
    assert code == 0
    assert digest(tmp_path / "records_A.pnrec") == digest(pipeline / "records_A.pnrec")


def test_library_calibration_decodes_its_own_detector_at_its_own_window(tmp_path, capsys):
    tags, _ = simulate_stream(SourceSpec(coherent_channel="both"), PulseModelParams(), JitterParams(), 30_000, seed=3)
    stream = tmp_path / "stream.pnrtag"
    write_stream(tags, stream)
    models = calibrate_both(pair_edges(tags, 5000.0, "B"))
    models["optimal"].save_json(tmp_path / "calibration.json")
    code, out, err = run(capsys, "decode", stream, tmp_path / "calibration.json", "--out", tmp_path / "out")
    assert (code, err) == (0, None)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["decode_report.json", "records_B.pnrec"]
    records = PhotonRecordSet.from_binary(tmp_path / "out" / "records_B.pnrec")
    assert (records.detector, records.window_ps) == ("B", 5000.0)
    assert out["detections"] == int(np.count_nonzero(records.n))


def test_decode_takes_no_detector_or_window_option(pipeline, tmp_path, capsys):
    """decode pairs with the calibration's detector and window; an option
    that would override them is refused with one JSON error and no output."""
    for option in (("--window", "5"), ("--detector", "B")):
        code, out, err = run(
            capsys, "decode", pipeline / "stream.pnrtag", pipeline / "calibration_optimal.json", *option,
            "--out", tmp_path / "out",
        )
        assert (code, out, err["error"], err["exit_code"]) == (2, None, "ConfigError", 2)
        assert err["message"] == f"unrecognized arguments: {' '.join(option)}"
        assert not (tmp_path / "out").exists()


def test_decode_stream_without_trigger_exits_4(pipeline, tmp_path, capsys):
    import numpy as np

    from pnrtiming import TagBlock, read_tag_block, write_stream

    block = read_tag_block(pipeline / "stream.pnrtag")
    keep = block.channels != 0
    headless = TagBlock(block.channels[keep], block.timestamps[keep])
    path = tmp_path / "headless.pnrtag"
    with open(path, "wb") as f:
        write_stream(headless, f)
    code, _, err = run(
        capsys, "decode", path, pipeline / "calibration_optimal.json", "--out", tmp_path
    )
    assert code == 4
    assert "trigger" in err["message"]


@pytest.mark.parametrize(
    "case, exit_code",
    [("bad_truth", 2), ("missing_truth", 2), ("other_triggers", 4), ("n_past_255", 2), ("no_trigger", 4)],
)
def test_failed_decode_writes_nothing(pipeline, tmp_path, capsys, case, exit_code):
    """A truth file that cannot be read or matched, a calibration with more
    components than photon numbers a record holds, or a stream of detector
    edges with no trigger, fail before --out is created."""
    stream, calibration, argv = pipeline / "stream.pnrtag", pipeline / "calibration_optimal.json", []
    truth = (pipeline / "truth.csv").read_text().splitlines(keepends=True)
    if case == "bad_truth":
        argv = ["--truth", tmp_path / "truth.csv"]
        argv[1].write_text("".join(truth[:3]) + "3,x,0\n")
    elif case == "missing_truth":
        argv = ["--truth", tmp_path / "missing.csv"]
    elif case == "no_trigger":
        block = read_tag_block(stream)
        keep = block.channels != 0
        stream = tmp_path / "headless.pnrtag"
        write_stream(TagBlock(block.channels[keep], block.timestamps[keep]), stream)
    elif case == "other_triggers":
        argv = ["--truth", tmp_path / "truth.csv"]
        shifted = [f"{int(i) + 1},{rest}" for i, rest in (t.split(",", 1) for t in truth[1:])]
        argv[1].write_text(truth[0] + "".join(shifted))
    else:
        # 256 classes with every boundary below the data, which would decode each detection to 256
        k = 256
        model = json.loads(calibration.read_text())
        model["components"] = [
            {"center_ps": -1e4 + j, "sigma_ps": 1.0, "gamma_ps": 0.0, "weight": 1.0 / k} for j in range(k)
        ]
        model["boundaries_ps"] = [-1e4 + j + 0.5 for j in range(k - 1)]
        model["crosstalk"] = np.eye(k).tolist()
        calibration = tmp_path / "calibration.json"
        calibration.write_text(json.dumps(model))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "decode", stream, calibration, *argv, "--out", out)
    assert (code, err["exit_code"], stdout) == (exit_code, exit_code, None)
    assert not out.exists()


@pytest.mark.parametrize("value", [256, 10**8])
def test_decode_refuses_truth_photon_numbers_past_255(pipeline, tmp_path, capsys, value):
    # the confusion matrix is sized by the largest truth value: 10**8 asked for 71.1 PiB
    truth = (pipeline / "truth.csv").read_text().splitlines(keepends=True)
    truth[5] = f"{truth[5].split(',')[0]},{value},0\n"
    path, out = tmp_path / "truth.csv", tmp_path / "out"
    path.write_text("".join(truth))
    calibration = pipeline / "calibration_optimal.json"
    code, stdout, err = run(capsys, "decode", pipeline / "stream.pnrtag", calibration, "--truth", path, "--out", out)
    assert (code, stdout, err["error"], err["exit_code"]) == (2, None, "StreamFormatError", 2)
    assert f"truth.csv, line 6: photon number {value} outside [0, 255]" in err["message"]
    assert not out.exists()


# ---- stats


def test_stats_outputs(pipeline, capsys):
    summary = json.loads((pipeline / "poisson_fit.json").read_text())
    assert summary["mu"] == pytest.approx(3.43, abs=0.05)
    assert summary["chi2_ndf"] < 5.0
    table = (pipeline / "poisson_fit.csv").read_text().splitlines()
    assert table[0] == "category,observed,expected"
    assert table[-1].startswith("4+,")
    assert (pipeline / "number_distribution.csv").exists()


def test_stats_n_max_truncates_the_table_not_the_fit(pipeline, tmp_path, capsys):
    code, full, _ = run(capsys, "stats", pipeline / "records_A.pnrec", "--out", tmp_path / "full")
    assert code == 0
    code, cut, _ = run(capsys, "stats", pipeline / "records_A.pnrec", "--n-max", 3, "--out", tmp_path / "cut")
    assert code == 0
    assert cut["mu"] == full["mu"]
    table = (tmp_path / "cut" / "number_distribution.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in table] == ["n", "0", "1", "2", "3"]


def test_stats_single_record_exits_5(tmp_path, capsys):
    path = tmp_path / "one.pnrec"
    write_records(path, [2])
    code, _, err = run(capsys, "stats", path, "--out", tmp_path)
    assert code == 5
    assert err["error"] == "InsufficientDataError"


def test_stats_on_a_header_only_table_writes_one_json_error(tmp_path):
    path = tmp_path / "empty.pnrec"
    write_records(path, [])
    env = {**os.environ, "PYTHONPATH": str(Path(pnrtiming.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "pnrtiming.cli", "stats", str(path), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 5
    assert json.loads(done.stderr)["error"] == "InsufficientDataError"


def test_stats_top_heavy_exits_5(tmp_path, capsys):
    path = tmp_path / "tail.pnrec"
    write_records(path, np.full(500, 6))
    code, _, err = run(capsys, "stats", path, "--out", tmp_path)
    assert code == 5
    assert err["error"] == "InsufficientDataError"


def test_three_attenuation_levels_scale_linearly(tmp_path, capsys):
    mus = [2.5, 4.0, 5.5]
    fitted = []
    for i, mu in enumerate(mus):
        level = tmp_path / f"level{i}"
        config = level / "config.json"
        level.mkdir()
        config.write_text(json.dumps({"source": {"mu": mu}, "n_triggers": 60000, "seed": 20 + i}))
        code, _, _ = run(capsys, "simulate", "--config", config, "--out", level, "--quiet")
        assert code == 0
    # one calibration, learned at the brightest level, decodes every level
    bright = tmp_path / "level2"
    code, _, _ = run(
        capsys, "calibrate", bright / "stream.pnrtag", "--mode", "optimal", "--out", bright, "--quiet"
    )
    assert code == 0
    for i in range(3):
        level = tmp_path / f"level{i}"
        code, _, _ = run(
            capsys,
            "decode",
            level / "stream.pnrtag",
            bright / "calibration_optimal.json",
            "--out",
            level,
            "--quiet",
        )
        assert code == 0
        code, out, _ = run(capsys, "stats", level / "records_A.pnrec", "--out", level)
        assert code == 0
        fitted.append(out["mu"])
    ratios = np.asarray(fitted) / np.asarray(mus)
    assert np.all(np.abs(ratios / ratios.mean() - 1.0) < 0.02)
    assert ratios.mean() == pytest.approx(0.86, abs=0.02)


# ---- jpnd


def test_jpnd_report_with_contrast(tmp_path, capsys):
    noon = SourceSpec(kind="noon2", pair_prob=0.9, visibility=1.0, efficiency_a=0.8, efficiency_b=0.8)
    split = SourceSpec(kind="spdc_pairs", pair_prob=0.9, efficiency_a=0.8, efficiency_b=0.8)
    truth_n = sample_source(noon, 50_000, seed=31)
    truth_s = sample_source(split, 50_000, seed=32)
    write_records(tmp_path / "noon_a.pnrec", truth_n.true_n_a, "A")
    write_records(tmp_path / "noon_b.pnrec", truth_n.true_n_b, "B")
    write_records(tmp_path / "split_a.pnrec", truth_s.true_n_a, "A")
    write_records(tmp_path / "split_b.pnrec", truth_s.true_n_b, "B")
    code, out, _ = run(
        capsys,
        "jpnd",
        tmp_path / "noon_a.pnrec",
        tmp_path / "noon_b.pnrec",
        "--split-a",
        tmp_path / "split_a.pnrec",
        "--split-b",
        tmp_path / "split_b.pnrec",
        "--out",
        tmp_path,
    )
    assert code == 0
    two = out["two_photon"]
    assert two["(1,1)"] < (two["(2,0)"] + two["(0,2)"]) / 10
    assert out["hom_contrast"]["suppression_ratio"] < 0.05
    assert (tmp_path / "jpnd.csv").exists()
    report = json.loads((tmp_path / "jpnd_report.json").read_text())
    assert report["two_photon"] == two


def test_jpnd_efficiency_estimate(tmp_path, capsys):
    split = SourceSpec(kind="spdc_pairs", pair_prob=0.9, efficiency_a=0.30, efficiency_b=0.30)
    truth = sample_source(split, 200_000, seed=33)
    write_records(tmp_path / "a.pnrec", truth.true_n_a, "A")
    write_records(tmp_path / "b.pnrec", truth.true_n_b, "B")
    code, out, _ = run(capsys, "jpnd", tmp_path / "a.pnrec", tmp_path / "b.pnrec", "--out", tmp_path)
    assert code == 0
    assert out["efficiency"]["eta_a"] == pytest.approx(0.30, abs=0.01)
    assert out["efficiency"]["eta_b"] == pytest.approx(0.30, abs=0.01)


def test_jpnd_misaligned_records_exit_4(tmp_path, capsys):
    write_records(tmp_path / "a.pnrec", [1, 1, 1], "A")
    b = PhotonRecordSet("B", 8000.0, np.arange(3) + 9, np.zeros(3, dtype=np.int64), [1, 1, 1])
    b.to_binary(tmp_path / "b.pnrec")
    code, _, err = run(capsys, "jpnd", tmp_path / "a.pnrec", tmp_path / "b.pnrec", "--out", tmp_path)
    assert code == 4
    assert err["error"] == "DataError"


def test_jpnd_split_without_coincidences_exits_5(tmp_path, capsys):
    # the split set's (1,1) cell, the ratio's denominator, is empty
    sets = {"a": ([2, 0, 1], "A"), "b": ([0, 2, 1], "B"), "sa": ([1, 0, 2], "A"), "sb": ([0, 1, 0], "B")}
    for name, (n, detector) in sets.items():
        write_records(tmp_path / f"{name}.pnrec", n, detector)
    code, out, err = run(
        capsys,
        "jpnd",
        tmp_path / "a.pnrec",
        tmp_path / "b.pnrec",
        "--split-a",
        tmp_path / "sa.pnrec",
        "--split-b",
        tmp_path / "sb.pnrec",
        "--out",
        tmp_path / "out",
    )
    assert (code, out) == (5, None)
    assert err["error"] == "InsufficientDataError"
    assert "no (1,1) coincidences" in err["message"]


@pytest.mark.parametrize("given", ["--split-a", "--split-b"])
def test_jpnd_split_option_given_alone_exits_2(tmp_path, capsys, given):
    # channel B records no detections, so the efficiency estimate has too few counts;
    # the usage error comes first all the same, before any records file is read
    write_records(tmp_path / "a.pnrec", [2, 0, 1], "A")
    write_records(tmp_path / "b.pnrec", [0, 0, 0], "B")
    for main_pair in ((tmp_path / "a.pnrec", tmp_path / "b.pnrec"), (tmp_path / "missing_a.pnrec", tmp_path / "b.pnrec")):
        code, out, err = run(capsys, "jpnd", *main_pair, given, tmp_path / "a.pnrec", "--out", tmp_path / "out")
        assert (code, out, err["error"], err["exit_code"]) == (2, None, "ConfigError", 2)
        assert err["message"] == "--split-a and --split-b must be given together"
        assert not (tmp_path / "out").exists()


def test_stats_and_jpnd_refuse_a_records_csv(pipeline, tmp_path):
    """Records have one file form, .pnrec: a records table in text, as
    earlier versions wrote it, is refused with one JSON error and no output."""
    records = PhotonRecordSet.from_binary(pipeline / "records_A.pnrec")
    rows = zip(records.trigger_index.tolist(), records.trigger_time.tolist(), records.n.tolist())
    text = tmp_path / "records_A.csv"
    table = "".join(f"{i},{t},{n}\n" for i, t, n in rows)
    text.write_text("# detector=A window_ps=8000\ntrigger_index,trigger_time,n\n" + table)
    pnrec = pipeline / "records_A.pnrec"
    for argv in (
        ("stats", text),
        ("jpnd", text, pnrec),
        ("jpnd", pnrec, text),
        ("jpnd", pnrec, pnrec, "--split-a", pnrec, "--split-b", text),
    ):
        code, error = exit_cleanly(*argv, "--out", tmp_path / "out")
        assert (code, error["error"], error["byte_offset"]) == (2, "StreamFormatError", 0), argv
        assert error["message"] == "bad record magic b'# detect'"
        assert not (tmp_path / "out").exists()


def test_each_error_class_carries_its_exit_code():
    classes = {
        name: cls
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.PnrError) and cls is not errors.PnrError
    }
    assert {name: cls.exit_code for name, cls in classes.items()} == {
        "ConfigError": 2,
        "StreamFormatError": 2,
        "CalibrationError": 3,
        "DataError": 4,
        "InsufficientDataError": 5,
    }
    assert errors.PnrError.exit_code == 2


def test_pipeline_rerun_is_byte_identical(tmp_path, capsys):
    for sub in ("one", "two"):
        out = tmp_path / sub
        for argv in (
            ("simulate", "--n-triggers", 20000, "--seed", 42),
            ("calibrate", out / "stream.pnrtag", "--mode", "both"),
            ("decode", out / "stream.pnrtag", out / "calibration_optimal.json", "--truth", out / "truth.csv"),
            ("stats", out / "records_A.pnrec"),
            ("jpnd", out / "records_A.pnrec", out / "records_A.pnrec",
             "--split-a", out / "records_A.pnrec", "--split-b", out / "records_A.pnrec"),
        ):
            code, _, _ = run(capsys, *argv, "--out", out, "--quiet")
            assert code == 0
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert len(names) == 16
    assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
    for name in names:
        assert digest(tmp_path / "one" / name) == digest(tmp_path / "two" / name), name


def test_quiet_suppresses_stdout(tmp_path, capsys):
    code = main(["simulate", "--n-triggers", "10", "--seed", "1", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""
