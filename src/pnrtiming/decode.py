"""Per-event photon-number decoding against a calibration model.

Each detected event is projected onto the calibrated axis and bucketed by
the decision boundaries; bucket index j means j + 1 photons.  Triggers
without a paired detection decode to zero photons.  A coordinate exactly
on a boundary goes to the lower photon number.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import textio
from .calibrate import CalibrationModel, classify, project
from .errors import CompatibilityError, DataError, StreamFormatError
from .photostat import joint_counts
from .timetags import DETECTOR_CHANNELS

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
_N_MAX = np.iinfo(_REC_DTYPE["n"]).max  # the largest photon number a record holds
_INT16_MAX = np.iinfo(np.int16).max  # the largest photon number a record set holds


@dataclass(eq=False)
class PhotonRecordSet:
    """Decoded photon numbers for one detector, one record per trigger."""

    detector: str
    window_ps: float
    trigger_index: np.ndarray
    trigger_time: np.ndarray
    n: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.trigger_index = np.asarray(self.trigger_index, dtype=np.int64)
        self.trigger_time = np.asarray(self.trigger_time, dtype=np.int64)
        # checked before the int16 cast, which would truncate 2.7 to 2 and
        # wrap 70000 to 4464; an empty list arrives as float64
        n = np.asarray(self.n)
        if n.size and not np.issubdtype(n.dtype, np.integer):
            raise ValueError(f"photon numbers must be integers, not {n.dtype}")
        if n.size and (n.min() < 0 or n.max() > _INT16_MAX):
            first = n.flat[np.flatnonzero((n < 0) | (n > _INT16_MAX))[0]]
            raise ValueError(f"photon numbers must be non-negative and at most {_INT16_MAX}, not {first}")
        self.n = n.astype(np.int16, copy=False)
        if not (self.trigger_index.shape == self.trigger_time.shape == self.n.shape):
            raise ValueError("record arrays must share one shape")

    def __len__(self) -> int:
        return self.n.size

    def class_counts(self, n_max: int | None = None) -> np.ndarray:
        """Counts of decoded photon numbers 0..n_max (auto-sized if None)."""
        length = (n_max + 1) if n_max is not None else int(self.n.max(initial=0)) + 1
        counts = np.bincount(self.n, minlength=length)
        if n_max is not None and counts.size > length:
            raise ValueError(f"records contain photon numbers above n_max={n_max}")
        return counts

    def to_csv(self, path) -> None:
        header = f"# detector={self.detector} window_ps={self.window_ps:g}\ntrigger_index,trigger_time,n"
        textio.write_csv(path, header, "{},{},{}", self.trigger_index, self.trigger_time, self.n)

    @classmethod
    def from_csv(cls, path) -> "PhotonRecordSet":
        """Records from ``to_csv``'s table; the ``# detector=... window_ps=...``
        line above the column names may be missing.  A detector other than A
        or B, a window that is not a number, or a photon number outside the
        .pnrec range [0, 255] raises StreamFormatError naming its line."""
        header, data = textio.read_csv(path, 1, 3)
        first = header[0] if header else ""
        meta = dict(tok.partition("=")[::2] for tok in first[1:].split()) if first.startswith("#") else {}
        detector = meta.get("detector", "A")
        if detector not in DETECTOR_CHANNELS:
            raise StreamFormatError(f"{path}, line 1: detector must be A or B, not {detector!r}")
        try:
            window = float(meta.get("window_ps", 0.0))
        except ValueError:
            raise StreamFormatError(f"{path}, line 1: window_ps {meta['window_ps']!r} is not a number") from None
        bad = np.flatnonzero((data[:, 2] < 0) | (data[:, 2] > _N_MAX))
        if bad.size:
            line = textio.row_line(path, len(header), int(bad[0]))
            raise StreamFormatError(f"{path}, line {line}: photon number {data[bad[0], 2]} outside [0, {_N_MAX}]")
        return cls(detector, window, data[:, 0], data[:, 1], data[:, 2].astype(np.int16))

    def to_binary(self, path) -> None:
        if len(self) and not 0 <= self.trigger_index.min() <= self.trigger_index.max() < 2**32:
            raise DataError(".pnrec stores trigger_index as u32; this set reaches beyond [0, 2**32)")
        if len(self) and self.n.max() > _N_MAX:
            raise DataError(f".pnrec stores n as u1; this set holds photon numbers above {_N_MAX}")
        arr = np.empty(len(self), dtype=_REC_DTYPE)
        arr["trigger_index"] = self.trigger_index
        arr["n"] = self.n
        arr["flags"] = 0
        arr["reserved"] = 0
        arr["trigger_time"] = self.trigger_time
        header = _REC_HEADER.pack(
            _REC_MAGIC, _REC_VERSION, ord(self.detector[0]), 0, len(self), float(self.window_ps)
        )
        with textio.open_output(path, "wb") as f:
            f.write(header)
            f.write(arr.tobytes())

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
        body = raw[_REC_HEADER.size :]
        if len(body) != count * _REC_DTYPE.itemsize:
            raise StreamFormatError(
                f"expected {count} records, found {len(body)} payload bytes",
                byte_offset=_REC_HEADER.size + (len(body) // _REC_DTYPE.itemsize) * _REC_DTYPE.itemsize,
            )
        arr = np.frombuffer(body, dtype=_REC_DTYPE)
        return cls(
            chr(det_byte),
            window,
            arr["trigger_index"].astype(np.int64),
            arr["trigger_time"].astype(np.int64),
            arr["n"].astype(np.int16),
        )


def decode_events(events, model: CalibrationModel) -> PhotonRecordSet:
    """Map edge events to photon numbers via the calibrated projection.

    Output order and length match the input trigger sequence exactly;
    non-detections decode to n=0.  Coordinates past the outermost cluster
    by more than 8*(sigma+gamma) still land in the outer buckets but are
    tallied in the out_of_range diagnostic.
    """
    if model.detector is not None and events.detector != model.detector:
        raise CompatibilityError(
            f"events from detector {events.detector!r} cannot be decoded with a "
            f"calibration for detector {model.detector!r}"
        )
    detected = events.has_detection
    rise = events.rise_delay
    fall = events.fall_delay
    bad = detected & ~(np.isfinite(rise) & np.isfinite(fall))
    if np.any(bad):
        raise DataError(f"non-finite edge delay at event index {int(np.argmax(bad))}")

    coords = project(events, model.angle)
    n = np.zeros(len(events), dtype=np.int16)
    n[detected] = classify(coords, model.boundaries).astype(np.int16) + 1

    first, last = model.components[0], model.components[-1]
    lo = first.center - 8.0 * (first.sigma + first.gamma)
    hi = last.center + 8.0 * (last.sigma + last.gamma)
    out_of_range = int(np.count_nonzero((coords < lo) | (coords > hi)))
    diagnostics = {
        "mode": model.mode,
        "angle_rad": float(model.angle),
        "class_counts": np.bincount(n, minlength=model.k + 1).tolist(),
        "out_of_range": out_of_range,
        "triggers": int(len(events)),
        "detections": int(np.count_nonzero(detected)),
    }
    return PhotonRecordSet(
        detector=events.detector,
        window_ps=events.window_ps,
        trigger_index=events.trigger_index.copy(),
        trigger_time=events.trigger_time.copy(),
        n=n,
        diagnostics=diagnostics,
    )


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
    must list the same trigger indices; if not, AlignmentError names the
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
