"""End-to-end command-line behavior: files, summaries, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pnrtiming
from pnrtiming import PhotonRecordSet, SourceSpec, sample_source
from pnrtiming.cli import main
from pnrtiming.timetags import _HEADER_FIXED


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


def write_records(path, n, detector="A"):
    n = np.asarray(n, dtype=np.int16)
    idx = np.arange(n.size, dtype=np.int64)
    PhotonRecordSet(detector, 8000.0, idx, idx * 100_000, n).to_csv(path)


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
        ("calibrate", "{stream}", "--k", "0"),
        ("decode", "{stream}", "{calibration}", "--window", "-5"),
        ("decode", "{stream}", "{calibration}", "--window", "0"),
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
        ("simulate", "--config", "{seed_text}"),
        ("simulate", "--config", "{rate_tiny}"),
        ("simulate", "--config", "{rate_slow}"),
        ("stats", "{window_text_csv}"),
        ("jpnd", "{records}", "{window_text_csv}"),
        ("stats", "{detector_c_csv}"),
        ("stats", "{detector_c_pnrec}"),
    ],
)
def test_out_of_range_options_exit_2(pipeline, tmp_path, capsys, argv):
    """Out-of-range options and malformed input files exit 2 with a typed
    error; a refused option writes nothing under --out."""
    configs = {
        "pileup": {"source": {"repetition_rate_hz": 4e8}},
        "n_triggers_bool": {"n_triggers": True},
        "seed_text": {"n_triggers": 10, "seed": "x"},
        "rate_tiny": {"source": {"repetition_rate_hz": 1e-300}, "n_triggers": 10},
        "rate_slow": {"source": {"repetition_rate_hz": 1e-3}, "n_triggers": 1000},
    }
    for name, config in configs.items():
        configs[name] = tmp_path / f"{name}.json"
        configs[name].write_text(json.dumps(config))
    model = json.loads((pipeline / "calibration_optimal.json").read_text())
    no_components = tmp_path / "no_components.json"
    no_components.write_text(json.dumps({k: v for k, v in model.items() if k != "components"}))
    bad_fields = {}
    for name, key, value in (
        ("detector_c", "detector", "C"),
        ("window_text", "window_ps", "abc"),
        ("window_negative", "window_ps", -5),
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
    short_records = tmp_path / "records.csv"
    write_records(short_records, [1, 2, 3])
    short_records.write_text(short_records.read_text().rsplit(",", 1)[0])  # cut mid-row
    malformed = {"short_truth": short_truth, "short_records": short_records}
    for name, first_line in (
        ("window_text_csv", "# detector=B window_ps=abc"),
        ("detector_c_csv", "# detector=C window_ps=8000"),
    ):
        malformed[name] = tmp_path / f"{name}.csv"
        write_records(malformed[name], [1, 2, 3])
        rows = malformed[name].read_text().splitlines(keepends=True)[1:]
        malformed[name].write_text(first_line + "\n" + "".join(rows))
    pnrec = bytearray((pipeline / "records_A.pnrec").read_bytes())
    pnrec[10] = ord("C")  # the detector byte, after the magic and the version
    malformed["detector_c_pnrec"] = tmp_path / "detector_c.pnrec"
    malformed["detector_c_pnrec"].write_bytes(pnrec)
    paths = {
        "stream": pipeline / "stream.pnrtag",
        "calibration": pipeline / "calibration_optimal.json",
        "records": pipeline / "records_A.pnrec",
        **configs,
        "no_components": no_components,
        "unnormalised": unnormalised,
        "not_json": not_json,
        **malformed,
        **bad_fields,
    }
    code, out, err = run(capsys, *(a.format(**paths) for a in argv), "--out", tmp_path / "out")
    assert code == 2
    assert out is None
    malformed_file = argv[-1].strip("{}") in malformed
    assert err["error"] == ("StreamFormatError" if malformed_file else "ConfigError")
    assert err["exit_code"] == 2
    if not malformed_file:
        assert not (tmp_path / "out").exists()


# ---- calibrate


def test_calibrate_writes_models_and_reports(pipeline):
    for mode in ("optimal", "rising_only"):
        model = json.loads((pipeline / f"calibration_{mode}.json").read_text())
        assert model["mode"] == mode
        assert (pipeline / f"projection_{mode}.csv").exists()
        assert (pipeline / f"crosstalk_{mode}.csv").exists()
    assert (pipeline / "histogram2d.csv").exists()


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


def test_calibrate_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "calibrate", tmp_path / "nope.pnrtag", "--out", tmp_path)
    assert code == 2
    assert err["exit_code"] == 2


# ---- decode


def test_decode_reports_and_confusion(pipeline):
    report = json.loads((pipeline / "decode_report.json").read_text())
    assert report["triggers"] == 30000
    assert report["class_counts"][0] == report["triggers"] - report["detections"]
    assert "confusion" in report
    # the raw matrix keeps truth unclamped, so n >= 7 events land off-diagonal
    assert report["confusion"]["overall_accuracy"] > 0.9
    assert report["confusion"]["prediction"]["max_abs_z"] < 4.0
    assert (pipeline / "records_A.csv").exists()


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


def test_decode_detector_mismatch_exits_4(pipeline, tmp_path, capsys):
    code, _, err = run(
        capsys,
        "decode",
        pipeline / "stream.pnrtag",
        pipeline / "calibration_optimal.json",
        "--detector",
        "B",
        "--out",
        tmp_path,
    )
    assert code == 4
    assert err["error"] == "CompatibilityError"


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
    path = tmp_path / "one.csv"
    write_records(path, [2])
    code, _, err = run(capsys, "stats", path, "--out", tmp_path)
    assert code == 5
    assert err["error"] == "InsufficientDataError"


def test_stats_on_a_header_only_table_writes_one_json_error(tmp_path):
    path = tmp_path / "empty.csv"
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
    path = tmp_path / "tail.csv"
    write_records(path, np.full(500, 6))
    code, _, err = run(capsys, "stats", path, "--out", tmp_path)
    assert code == 5
    assert err["error"] == "UnboundedFitError"


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
    write_records(tmp_path / "noon_a.csv", truth_n.true_n_a, "A")
    write_records(tmp_path / "noon_b.csv", truth_n.true_n_b, "B")
    write_records(tmp_path / "split_a.csv", truth_s.true_n_a, "A")
    write_records(tmp_path / "split_b.csv", truth_s.true_n_b, "B")
    code, out, _ = run(
        capsys,
        "jpnd",
        tmp_path / "noon_a.csv",
        tmp_path / "noon_b.csv",
        "--split-a",
        tmp_path / "split_a.csv",
        "--split-b",
        tmp_path / "split_b.csv",
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
    write_records(tmp_path / "a.csv", truth.true_n_a, "A")
    write_records(tmp_path / "b.csv", truth.true_n_b, "B")
    code, out, _ = run(capsys, "jpnd", tmp_path / "a.csv", tmp_path / "b.csv", "--out", tmp_path)
    assert code == 0
    assert out["efficiency"]["eta_a"] == pytest.approx(0.30, abs=0.01)
    assert out["efficiency"]["eta_b"] == pytest.approx(0.30, abs=0.01)


def test_jpnd_misaligned_records_exit_4(tmp_path, capsys):
    write_records(tmp_path / "a.csv", [1, 1, 1], "A")
    b = PhotonRecordSet("B", 8000.0, np.arange(3) + 9, np.zeros(3, dtype=np.int64), [1, 1, 1])
    b.to_csv(tmp_path / "b.csv")
    code, _, err = run(capsys, "jpnd", tmp_path / "a.csv", tmp_path / "b.csv", "--out", tmp_path)
    assert code == 4
    assert err["error"] == "AlignmentError"


def test_pipeline_rerun_is_byte_identical(tmp_path, capsys):
    for sub in ("one", "two"):
        out = tmp_path / sub
        for argv in (
            ("simulate", "--n-triggers", 20000, "--seed", 42),
            ("calibrate", out / "stream.pnrtag", "--mode", "both"),
            ("decode", out / "stream.pnrtag", out / "calibration_optimal.json", "--truth", out / "truth.csv"),
            ("stats", out / "records_A.pnrec"),
            ("jpnd", out / "records_A.pnrec", out / "records_A.csv",
             "--split-a", out / "records_A.csv", "--split-b", out / "records_A.pnrec"),
        ):
            code, _, _ = run(capsys, *argv, "--out", out, "--quiet")
            assert code == 0
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert len(names) == 17
    assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
    for name in names:
        assert digest(tmp_path / "one" / name) == digest(tmp_path / "two" / name), name


def test_quiet_suppresses_stdout(tmp_path, capsys):
    code = main(["simulate", "--n-triggers", "10", "--seed", "1", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""
