"""Text sidecars: every CSV writer against a per-row f-string reference,
the integer CSV reader's errors, the JSON reader's errors, the memory of a
chunked write, and how every output file is overwritten."""

import json
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from pnrtiming import (
    JointDistribution,
    NumberDistribution,
    PhotonRecordSet,
    TagBlock,
    TruthBlock,
    VoigtComponent,
    fit_poisson_mu,
    textio,
    write_stream,
)
from pnrtiming.calibrate import expected_counts, histogram_1d
from pnrtiming.cli import _write_crosstalk_csv, _write_histogram2d_csv, _write_projection_csv, main
from pnrtiming.errors import ConfigError, StreamFormatError

# on both sides of the writer's 65,536-row chunk
ROWS = [0, 1, 65_535, 65_536, 65_537]
# square tables (JPND, crosstalk) have as many rows as columns
SIZES = [1, 2, 7, 300]


def assert_file_is(path, header, lines):
    assert path.read_bytes() == (header + "\n" + "".join(lines)).encode("utf-8")


def int64_column(rng, rows):
    # negative values and values past 32 bits
    return rng.integers(-(2**62), 2**62, rows, dtype=np.int64)


@pytest.mark.parametrize("rows", ROWS)
def test_truth_csv(tmp_path, rows):
    rng = np.random.default_rng(rows)
    idx, a, b = int64_column(rng, rows), int64_column(rng, rows), int64_column(rng, rows)
    path = tmp_path / "truth.csv"
    TruthBlock(idx, a, b).to_csv(path)
    assert_file_is(path, "trigger_index,true_n_a,true_n_b", [f"{idx[i]},{a[i]},{b[i]}\n" for i in range(rows)])


@pytest.mark.parametrize("rows", ROWS)
def test_histogram2d_csv(tmp_path, rows):
    rng = np.random.default_rng(rows)
    # int64 values of either sign and past 32 bits
    rise, fall = int64_column(rng, rows), int64_column(rng, rows)
    count = rng.integers(1, 10**9, rows, dtype=np.int64)
    path = tmp_path / "hist.csv"
    _write_histogram2d_csv(path, (rise, fall, count))
    lines = [f"{r},{f},{c}\n" for r, f, c in zip(rise, fall, count)]
    assert_file_is(path, "rise_units,fall_units,count", lines)


@pytest.mark.parametrize("kind", ["int", "float"])
@pytest.mark.parametrize("rows", ROWS[1:])
def test_number_distribution_csv(tmp_path, rows, kind):
    rng = np.random.default_rng(rows)
    counts = rng.integers(0, 10**6, rows)
    if kind == "float":
        counts = counts / 2.0  # real-valued counts print as "3.0" and "2.5"
    dist = NumberDistribution(counts)
    path = tmp_path / "dist.csv"
    dist.to_csv(path)
    lines = [f"{n},{c},{p:.9g}\n" for n, (c, p) in enumerate(zip(dist.counts, dist.probabilities()))]
    assert_file_is(path, "n,count,probability", lines)


@pytest.mark.parametrize("size", SIZES)
def test_jpnd_csv(tmp_path, size):
    matrix = np.random.default_rng(size).integers(0, 2**40, (size, size))
    path = tmp_path / "jpnd.csv"
    JointDistribution(matrix).to_csv(path)
    header = "n_a\\n_b," + ",".join(str(j) for j in range(size))
    assert_file_is(path, header, [f"{i}," + ",".join(str(v) for v in row) + "\n" for i, row in enumerate(matrix)])


@pytest.mark.parametrize("size", SIZES)
def test_crosstalk_csv(tmp_path, size):
    matrix = np.random.default_rng(size).dirichlet(np.ones(size), size)
    path = tmp_path / "crosstalk.csv"
    _write_crosstalk_csv(path, matrix)
    header = "true_n\\decoded_n," + ",".join(str(j + 1) for j in range(size))
    lines = [f"{i + 1}," + ",".join(f"{v:.9g}" for v in row) + "\n" for i, row in enumerate(matrix)]
    assert_file_is(path, header, lines)


@pytest.mark.parametrize("rows", [7] + ROWS[2:])
def test_projection_csv(tmp_path, rows):
    # the padded histogram adds 6 margin bins of 0.5 ps to the span
    lo, hi = -100.0, -100.0 + 0.5 * (rows - 6)
    rise = np.clip(np.concatenate([[lo, hi], np.random.default_rng(rows).normal(0.0, 400.0, 5000)]), lo, hi)
    fall = np.zeros(rise.size)
    pairs = rise, fall, np.ones(rise.size, dtype=np.int64)
    # Gaussian components (gamma = 0), as every model the CLI builds has
    model = SimpleNamespace(
        angle=0.0, components=[VoigtComponent(-50.0, 30.0, 0.0, 0.4), VoigtComponent(60.0, 20.0, 0.0, 0.6)]
    )
    path = tmp_path / "projection.csv"
    _write_projection_csv(path, pairs, model)
    counts, centers, edges = histogram_1d(pairs, 0.0)
    fitted = expected_counts(rise.size, model.components, edges)
    assert counts.size == rows
    lines = [f"{x!r},{c},{m:.6g}\n" for x, c, m in zip(centers.tolist(), counts, fitted)]
    assert_file_is(path, "coordinate_ps,counts,fitted_counts", lines)


def test_projection_csv_labels_stay_exact_far_out(tmp_path):
    # bins 0.5 ps apart near 2e5 ps, where 6 significant digits repeat labels
    rng = np.random.default_rng(8)
    rise = 200_000.0 + rng.integers(0, 4000, 3000) / 10
    pairs = rise, np.zeros(rise.size), np.ones(rise.size, dtype=np.int64)
    model = SimpleNamespace(angle=0.0, components=[VoigtComponent(200_200.0, 50.0, 0.0, 1.0)])
    path = tmp_path / "projection.csv"
    _write_projection_csv(path, pairs, model)
    _, centers, _ = histogram_1d(pairs, 0.0)
    labels = [line.split(",", 1)[0] for line in path.read_text().splitlines()[1:]]
    assert len(set(labels)) == len(labels) == centers.size > 800
    assert [float(x) for x in labels] == centers.tolist()


# up to the largest photon number a record holds, the largest fold stats takes
@pytest.mark.parametrize("tail_from", [1, 4, 254, 255])
def test_poisson_fit_csv(tmp_path, tail_from):
    n = np.random.default_rng(tail_from).poisson(2.0, 500)
    records = PhotonRecordSet("A", 8000.0, np.arange(n.size), np.zeros(n.size, dtype=np.int64), n)
    records.to_binary(tmp_path / "records.pnrec")
    argv = ["stats", str(tmp_path / "records.pnrec"), "--tail-from", str(tail_from), "--out", str(tmp_path)]
    assert main([*argv, "--quiet"]) == 0
    fit = fit_poisson_mu(NumberDistribution.from_records(records), tail_from=tail_from)
    lines = [f"{label},{obs},{exp:.6g}\n" for label, obs, exp in zip(fit.labels, fit.counts, fit.expected)]
    assert_file_is(tmp_path / "poisson_fit.csv", "category,observed,expected", lines)


def test_chunked_write_memory_is_bounded(tmp_path):
    rows = 500_000
    idx = np.arange(rows, dtype=np.int64) + 2**40
    truth = TruthBlock(idx, idx * 1000, np.full(rows, 3, dtype=np.uint8))
    tracemalloc.start()
    try:
        truth.to_csv(tmp_path / "truth.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one join over all rows traces ~90 MB of Python values and text
    assert peak < 16e6


# ---- reading


@pytest.mark.parametrize(
    "body, line",
    [
        (b"0,1,0\n1,2\n2,0,1\n", 3),  # short row
        (b"0,1,0\n1,2,x\n", 3),  # not an integer
        (b"0,1,0\n1,2,3.5\n", 3),  # not an integer
        (b"0,1,0\n1,\xff,0\n", 3),  # not UTF-8
        (b"0,1\n1,2\n", 2),  # every row short
        (b"0,1,0,4\n", 2),  # a row too long
        (b"# note\n\n0,1,0\n1,1,1\n2,2\n", 6),  # comment and blank lines count as lines
        (b"0,1,0\n9223372036854775808,0,0\n", 3),  # past int64
        (b"0,1,0\n-9223372036854775809,0,0\n", 3),  # past int64
        (b"-9223372036854775808,0,0\n9223372036854775807,0,0\n1,2,x\n", 4),  # the int64 ends are integers
        # leading zeros do not count as digits; int() refuses text past 4,300 digits
        pytest.param(b"0," + b"0" * 5000 + b"1,0\n1,2,x\n", 3, id="5000 leading zeros-3"),
    ],
)
def test_malformed_row_names_its_line(tmp_path, body, line):
    path = tmp_path / "truth.csv"
    path.write_bytes(b"trigger_index,true_n_a,true_n_b\n" + body)
    with pytest.raises(StreamFormatError, match=f"line {line}:"):
        TruthBlock.from_csv(path)


def test_read_csv_returns_header_and_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("trigger_index,true_n_a,true_n_b\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty table is legal input, not a warning
        header, data = textio.read_csv(path, 1, 3)
    assert header == ["trigger_index,true_n_a,true_n_b"]
    assert data.shape == (0, 3) and data.dtype == np.int64


def test_read_csv_reads_exactly_its_header_rows(tmp_path):
    # a "#" line is a header row like any other, so the column names below it are a bad row
    path = tmp_path / "truth.csv"
    path.write_text("# a comment line\ntrigger_index,true_n_a,true_n_b\n0,1,0\n")
    with pytest.raises(StreamFormatError, match="line 2: expected 3 int64 fields"):
        TruthBlock.from_csv(path)


@pytest.mark.parametrize("raw", [b"{not json", b"\xff\xfe\x00", b""])
def test_read_json_rejects_text_that_is_not_json(tmp_path, raw):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match="not valid JSON"):
        textio.read_json(path)


def test_json_documents_end_with_a_newline(tmp_path):
    path = tmp_path / "doc.json"
    textio.write_json(path, {"b": [1, 2.5], "a": math.pi})
    text = path.read_text()
    assert text == '{\n  "a": 3.141592653589793,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    assert json.loads(text) == textio.read_json(path)


# ---- overwriting


def write_truth_csv(path, rows):
    TruthBlock(np.arange(rows), np.ones(rows, dtype=int), np.zeros(rows, dtype=int)).to_csv(path)


def write_records_pnrec(path, rows):
    PhotonRecordSet("A", 8000.0, np.arange(rows), np.arange(rows), np.ones(rows, dtype=int)).to_binary(path)


def write_json_doc(path, rows):
    textio.write_json(path, list(range(rows)))


def write_tag_stream(path, rows):
    write_stream(TagBlock(np.zeros(rows, dtype=np.uint8), np.arange(rows, dtype=np.int64)), path)


WRITERS = [write_truth_csv, write_records_pnrec, write_json_doc, write_tag_stream]


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__)
def test_overwrite_replaces_the_file(tmp_path, writer):
    path, fresh = tmp_path / "out", tmp_path / "fresh"
    writer(fresh, 3)
    writer(path, 5000)
    with open(path, "rb") as old:
        before = old.read()
        writer(path, 3)
        # a new file took the name: the open one keeps its bytes
        old.seek(0)
        assert old.read() == before
    assert path.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__)
def test_overwrite_through_a_symlink_updates_its_target(tmp_path, writer):
    target, link, fresh = tmp_path / "target", tmp_path / "link", tmp_path / "fresh"
    writer(fresh, 3)
    writer(target, 5000)
    link.symlink_to(target)
    writer(link, 3)
    assert link.is_symlink()
    assert target.read_bytes() == fresh.read_bytes()
