"""Per-event photon-number decoding against a calibration model.

Each detected event is projected onto the calibrated axis and bucketed by
the decision boundaries; bucket index j means j + 1 photons.  Triggers
without a paired detection decode to zero photons.  A coordinate exactly
on a boundary goes to the lower photon number.

Decoded records have one file form, the binary ``.pnrec``
(``PhotonRecordSet.to_binary`` and ``from_binary``).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import textio
from .calibrate import CalibrationModel, classify, project
from .errors import ConfigError, DataError, StreamFormatError
from .photostat import MAX_PHOTON_NUMBER, joint_counts
from .timetags import _CHUNK_BYTES, DETECTOR_CHANNELS, _check_pairing

_REC_MAGIC = b"PNRREC01"
_REC_VERSION = 1
_REC_HEADER = struct.Struct("<8sHBBId")
_REC_DTYPE = np.dtype(
    [
        ("trigger_index", "<u4"),
        ("n", "u1"),
        ("flags", "u1"),
        ("reserved", "<u2"),
        ("trigger_time", "<i8"),
    ]
)
_CHUNK_RECORDS = _CHUNK_BYTES // _REC_DTYPE.itemsize  # records per 4 MiB write


@dataclass(eq=False)
class PhotonRecordSet:
    """Decoded photon numbers for one detector, one record per trigger; ``n``
    is uint8, and one outside [0, MAX_PHOTON_NUMBER] raises ValueError.  A
    detector or window that pair_edges refuses raises ConfigError."""

    detector: str
    window_ps: float
    trigger_index: np.ndarray
    trigger_time: np.ndarray
    n: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_pairing(self.detector, self.window_ps)
        self.trigger_index = np.asarray(self.trigger_index, dtype=np.int64)
        self.trigger_time = np.asarray(self.trigger_time, dtype=np.int64)
        # checked before the uint8 cast, which would truncate 2.7 to 2 and
        # wrap 300 to 44; an empty list arrives as float64
        n = np.asarray(self.n)
        if n.size and not np.issubdtype(n.dtype, np.integer):
            raise ValueError(f"photon numbers must be integers, not {n.dtype}")
        if n.size and (n.min() < 0 or n.max() > MAX_PHOTON_NUMBER):
            first = n.flat[np.flatnonzero((n < 0) | (n > MAX_PHOTON_NUMBER))[0]]
            raise ValueError(f"photon numbers must be non-negative and at most {MAX_PHOTON_NUMBER}, not {first}")
        self.n = n.astype(np.uint8, copy=False)
        if not (self.trigger_index.shape == self.trigger_time.shape == self.n.shape):
            raise ValueError("record arrays must share one shape")

    def __len__(self) -> int:
        return self.n.size

    def class_counts(self, n_max: int | None = None) -> np.ndarray:
        """Counts of decoded photon numbers 0..n_max (auto-sized if None)."""
        length = (n_max + 1) if n_max is not None else int(self.n.max(initial=0)) + 1
        counts = np.bincount(self.n, minlength=length)
        if n_max is not None and counts.size > length:
            raise ConfigError(f"photon numbers reach {counts.size - 1}, above n_max={n_max}")
        return counts

    def check_binary(self) -> None:
        """Raise DataError unless every trigger index fits the .pnrec u32."""
        if len(self) and not 0 <= self.trigger_index.min() <= self.trigger_index.max() < 2**32:
            raise DataError(".pnrec stores trigger_index as u32; this set reaches beyond [0, 2**32)")

    def to_binary(self, path) -> None:
        """Write the set as ``.pnrec``: the header, then one 16-byte record
        per trigger.  The records go out through one reused 4 MiB buffer, so
        writing needs at most that much memory beyond the set."""
        self.check_binary()
        n = len(self)
        header = _REC_HEADER.pack(_REC_MAGIC, _REC_VERSION, ord(self.detector[0]), 0, n, float(self.window_ps))
        records = np.zeros(min(n, _CHUNK_RECORDS), dtype=_REC_DTYPE)  # flags and reserved stay 0
        with textio.open_output(path, "wb") as f:
            f.write(header)
            for start in range(0, n, _CHUNK_RECORDS):
                part = records[: min(n - start, _CHUNK_RECORDS)]
                part["trigger_index"] = self.trigger_index[start : start + part.size]
                part["n"] = self.n[start : start + part.size]
                part["trigger_time"] = self.trigger_time[start : start + part.size]
                f.write(part)  # the buffer itself, not a copy of it

    @classmethod
    def from_binary(cls, path) -> "PhotonRecordSet":
        raw = Path(path).read_bytes()
        if len(raw) < _REC_HEADER.size:
            raise StreamFormatError("record file shorter than header", byte_offset=0)
        magic, version, det_byte, _, count, window = _REC_HEADER.unpack_from(raw)
        if magic != _REC_MAGIC:
            raise StreamFormatError(f"bad record magic {magic!r}", byte_offset=0)
        if version != _REC_VERSION:
            raise StreamFormatError(f"unsupported record version {version}", byte_offset=8)
        if chr(det_byte) not in DETECTOR_CHANNELS:
            raise StreamFormatError(f"unknown detector byte {det_byte}", byte_offset=10)
        if not 0.0 < window < math.inf:
            raise StreamFormatError(f"window must be positive and finite, not {window!r}", byte_offset=16)
        payload = len(raw) - _REC_HEADER.size
        if payload != count * _REC_DTYPE.itemsize:
            raise StreamFormatError(
                f"expected {count} records, found {payload} payload bytes",
                byte_offset=_REC_HEADER.size + (payload // _REC_DTYPE.itemsize) * _REC_DTYPE.itemsize,
            )
        # a view of the payload; each column is copied, so the set does not pin it
        arr = np.frombuffer(raw, dtype=_REC_DTYPE, offset=_REC_HEADER.size)
        return cls(
            chr(det_byte),
            window,
            arr["trigger_index"].astype(np.int64),
            arr["trigger_time"].astype(np.int64),
            arr["n"].copy(),
        )


def decode_events(events, model: CalibrationModel) -> PhotonRecordSet:
    """Map edge events to photon numbers via the calibrated projection.

    Output order and length match the input trigger sequence exactly;
    non-detections decode to n=0.  Coordinates past the outermost cluster
    by more than 8*(sigma+gamma) still land in the outer buckets but are
    tallied in the out_of_range diagnostic.
    """
    if events.detector != model.detector:
        raise DataError(
            f"events from detector {events.detector!r} cannot be decoded with a "
            f"calibration for detector {model.detector!r}"
        )
    coords = project(events, model.angle)
    n = np.zeros(len(events), dtype=np.uint8)
    n[events.detection] = classify(coords, model.boundaries) + 1

    first, last = model.components[0], model.components[-1]
    lo = first.center - 8.0 * (first.sigma + first.gamma)
    hi = last.center + 8.0 * (last.sigma + last.gamma)
    out_of_range = int(np.count_nonzero((coords < lo) | (coords > hi)))
    records = PhotonRecordSet(
        detector=events.detector,
        window_ps=events.window_ps,
        trigger_index=np.arange(len(events), dtype=np.int64),
        trigger_time=events.trigger_time.copy(),
        n=n,
    )
    records.diagnostics = {
        "mode": model.mode,
        "angle_rad": float(model.angle),
        "class_counts": records.class_counts(model.k).tolist(),
        "out_of_range": out_of_range,
        "triggers": int(len(events)),
        "detections": events.n_detections,
    }
    return records


@dataclass(eq=False)
class ConfusionReport:
    """Empirical confusion matrix (true photon number x decoded) plus
    accuracy figures and, when a model is supplied, a cell-by-cell
    comparison of detected-event rows against the predicted crosstalk."""

    matrix: np.ndarray
    labels: np.ndarray
    per_class_accuracy: np.ndarray
    overall_accuracy: float
    n_events: int
    prediction: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "labels": self.labels.tolist(),
            "matrix": self.matrix.tolist(),
            "per_class_accuracy": [None if np.isnan(v) else float(v) for v in self.per_class_accuracy],
            "overall_accuracy": self.overall_accuracy,
            "n_events": self.n_events,
        }
        if self.prediction is not None:
            out["prediction"] = {
                k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in self.prediction.items()
            }
        return out


def confusion_report(records: PhotonRecordSet, truth, model: CalibrationModel | None = None) -> ConfusionReport:
    """Confusion matrix of decoded records against simulator truth: entry
    (i, j) counts the triggers with i true and j decoded photons.

    The matrix is ``photostat.joint_counts`` of truth and records, so both
    must list the same trigger indices; if not, DataError names the
    indices found on one side only ("only in truth: [...], only in records:
    [...]").  With a model, the detected block (i, j >= 1) is compared with
    the predicted crosstalk; there, photon numbers above the model's k fold
    onto class k (the pulse shape saturates), but the matrix keeps them.
    """
    true_n = truth.true_n_a if records.detector == "A" else truth.true_n_b
    matrix = joint_counts(truth.trigger_index, true_n, records.trigger_index, records.n, sides=("truth", "records"))
    size = matrix.shape[0]

    row_sums = matrix.sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_class = np.where(row_sums > 0, np.diag(matrix) / np.maximum(row_sums, 1), np.nan)
    overall = float(np.trace(matrix) / max(matrix.sum(), 1))

    prediction = None
    if model is not None:
        k = model.k
        # row and column 0, the undetected triggers, are not in the crosstalk
        folded = np.pad(matrix, (0, max(k + 1 - size, 0)))
        folded[:, k] = folded[:, k:].sum(axis=1)
        folded[k] = folded[k:].sum(axis=0)
        observed = folded[1 : k + 1, 1 : k + 1]
        row_n = observed.sum(axis=1)
        expected = row_n[:, None] * model.crosstalk
        with np.errstate(invalid="ignore", divide="ignore"):
            sigma = np.sqrt(row_n[:, None] * model.crosstalk * (1.0 - model.crosstalk))
            z = np.where(sigma > 0, (observed - expected) / sigma, 0.0)
        prediction = {
            "observed": observed,
            "expected": expected,
            "z": z,
            "max_abs_z": float(np.max(np.abs(z))) if z.size else 0.0,
        }

    return ConfusionReport(
        matrix=matrix,
        labels=np.arange(size),
        per_class_accuracy=per_class,
        overall_accuracy=overall,
        n_events=len(records),
        prediction=prediction,
    )
