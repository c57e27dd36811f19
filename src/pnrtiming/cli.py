"""Command-line front end: simulate, calibrate, decode, stats, jpnd.

Every command is deterministic given its inputs and seed, writes fixed
file names under --out, and prints a small summary JSON on stdout unless
--quiet.  Failures print a machine-readable error JSON on stderr and exit
with the failing class's ``exit_code`` (see ``errors``): 2 for I/O errors
(OSError), ConfigError (also a refused argument) and StreamFormatError; 3
for CalibrationError; 4 for DataError; 5 for InsufficientDataError.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import calibrate as cal
from . import photostat as ps
from . import textio
from .decode import PhotonRecordSet, confusion_report, decode_events
from .errors import ConfigError, DataError, InsufficientDataError, PnrError
from .simulate import JitterParams, PulseModelParams, SourceSpec, TruthBlock, simulate_stream
from .timetags import DETECTOR_CHANNELS, pair_edges, read_tag_block, write_stream

DEFAULT_WINDOW_PS = 8000.0
DEFAULT_SEED = 1234


def _emit(args, payload: dict) -> None:
    if not args.quiet:
        sys.stdout.write(textio.json_text(payload))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _checked_object(data, known, context: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {', '.join(unknown)}")
    return data


def _from_mapping(cls, data, context: str):
    data = _checked_object(data, {f.name for f in dataclasses.fields(cls)}, context)
    # such an integer passes the range checks as a number below inf, then
    # fails where it meets float arithmetic
    for key, value in data.items():
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ConfigError(f"invalid {context}: {key} lies past the range of a double")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


_SIMULATE_KEYS = {"source", "pulse", "jitter", "n_triggers", "seed"}


def cmd_simulate(args) -> int:
    raw = _checked_object(textio.read_json(args.config), _SIMULATE_KEYS, "config") if args.config else {}
    source = _from_mapping(SourceSpec, raw.get("source", {}), "source")
    pulse = _from_mapping(PulseModelParams, raw.get("pulse", {}), "pulse")
    jitter = _from_mapping(JitterParams, raw.get("jitter", {}), "jitter")
    n_triggers = args.n_triggers if args.n_triggers is not None else raw.get("n_triggers", 100_000)
    if not isinstance(n_triggers, int) or n_triggers < 1:
        raise ConfigError("n_triggers must be a positive integer")
    seed = args.seed if args.seed is not None else raw.get("seed", DEFAULT_SEED)
    tags, truth = simulate_stream(source, pulse, jitter, n_triggers, seed)

    out = _out_dir(args)
    stream_path = out / "stream.pnrtag"
    n_bytes = write_stream(tags, stream_path)
    del tags  # the stream is on disk: the truth's formatting does not stack on it
    truth.to_csv(out / "truth.csv")

    _emit(
        args,
        {
            "triggers": n_triggers,
            "seed": seed,
            "detections_a": int(np.count_nonzero(truth.true_n_a)),
            "detections_b": int(np.count_nonzero(truth.true_n_b)),
            "detected_mean_a": float(truth.true_n_a.mean()),
            "detected_mean_b": float(truth.true_n_b.mean()),
            "bytes_written": n_bytes,
            "stream": str(stream_path),
        },
    )
    return 0


def _write_histogram2d_csv(path, table) -> None:
    columns = table.rise_units, table.fall_units, table.multiplicity
    textio.write_int_csv(path, "rise_units,fall_units,count", *columns)


def _write_projection_csv(path, pairs, model) -> None:
    counts, centers, fitted = cal.fitted_histogram(pairs, model.angle, model.components)
    # a bin centre as the shortest text that reads back as the same double:
    # centres 0.5 ps apart keep distinct labels at any coordinate
    textio.write_csv(path, "coordinate_ps,counts,fitted_counts", "{!r},{},{:.6g}", centers, counts, fitted)


def _write_crosstalk_csv(path, crosstalk) -> None:
    k = crosstalk.shape[0]
    header = "true_n\\decoded_n," + ",".join(map(str, range(1, k + 1)))
    textio.write_csv(path, header, "{}" + ",{:.9g}" * k, np.arange(1, k + 1), *crosstalk.T)


def cmd_calibrate(args) -> int:
    # the block and its events are temporaries, freed once collapsed into the table
    table = cal.distinct_pairs(pair_edges(read_tag_block(args.tagfile), args.window, detector=args.detector))
    models = cal.calibrate_pairs(table)
    modes = models if args.mode == "both" else (args.mode,)

    out = _out_dir(args)
    _write_histogram2d_csv(out / "histogram2d.csv", table)
    pairs = table.in_ps()

    summary = {"detector": table.detector, "window_ps": table.window_ps, "detections": table.n_detections}
    for mode in modes:
        model = models[mode]
        model.save_json(out / f"calibration_{mode}.json")
        _write_projection_csv(out / f"projection_{mode}.csv", pairs, model)
        _write_crosstalk_csv(out / f"crosstalk_{mode}.csv", model.crosstalk)
        summary[mode] = {
            "angle_rad": model.angle,
            "k": model.k,
            "total_offdiagonal_crosstalk": cal.total_offdiagonal(
                model.crosstalk, [c.weight for c in model.components]
            ),
        }
    _emit(args, summary)
    return 0


def cmd_decode(args) -> int:
    model = cal.CalibrationModel.load_json(args.calibration)
    events = pair_edges(read_tag_block(args.tagfile), model.window_ps, detector=model.detector)
    if len(events) == 0:
        raise DataError("stream has no trigger channel; zero-photon events cannot be inferred")
    records = decode_events(events, model)
    del events  # the records hold their own copy of the trigger times
    report = dict(records.diagnostics)
    if args.truth:
        report["confusion"] = confusion_report(records, TruthBlock.from_csv(args.truth), model).to_dict()
    records.check_binary()

    out = _out_dir(args)
    records.to_binary(out / f"records_{model.detector}.pnrec")
    textio.write_json(out / "decode_report.json", report)
    _emit(args, {k: report[k] for k in ("class_counts", "out_of_range", "triggers", "detections")})
    return 0


def cmd_stats(args) -> int:
    dist = ps.NumberDistribution.from_records(PhotonRecordSet.from_binary(args.records))
    # --n-max truncates the written distribution only; the fit sees every count
    table = dist if args.n_max is None else ps.NumberDistribution(dist.folded(args.n_max))
    fit = ps.fit_poisson_mu(dist, tail_from=args.tail_from)

    out = _out_dir(args)
    table.to_csv(out / "number_distribution.csv")
    report = fit.to_dict()
    textio.write_json(out / "poisson_fit.json", report)
    columns = np.array(fit.labels), fit.counts, fit.expected
    textio.write_csv(out / "poisson_fit.csv", "category,observed,expected", "{},{},{:.6g}", *columns)
    summary = {k: report[k] for k in ("mu", "stderr", "ci95", "chi2_ndf")}
    _emit(args, {**summary, "total": int(fit.counts.sum())})
    return 0


def cmd_jpnd(args) -> int:
    if (args.split_a is None) != (args.split_b is None):
        raise ConfigError("--split-a and --split-b must be given together")
    read = PhotonRecordSet.from_binary
    jpnd = ps.build_jpnd(read(args.records_a), read(args.records_b), n_max=args.n_max)
    report: dict = {"n_triggers": jpnd.total, "two_photon": ps.two_photon_counts(jpnd)}
    try:
        report["efficiency"] = ps.estimate_efficiency(jpnd)._asdict()
    except InsufficientDataError as exc:
        if args.split_a is None:
            raise
        report["efficiency"] = {"error": str(exc)}

    if args.split_a is not None:
        split = ps.build_jpnd(read(args.split_a), read(args.split_b), n_max=args.n_max)
        report["hom_contrast"] = ps.hom_contrast(jpnd, split).to_dict()

    out = _out_dir(args)
    jpnd.to_csv(out / "jpnd.csv")
    textio.write_json(out / "jpnd_report.json", report)
    _emit(args, report)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a refused argument ends in the JSON error; subparsers share the class
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="pnrtiming",
        description="Photon-number resolution from rise/fall pulse timing: "
        "simulate tag streams, calibrate projections, decode photon numbers, "
        "and analyze photon statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--quiet", action="store_true", help="suppress the stdout summary")

    p = sub.add_parser("simulate", help="generate a synthetic .pnrtag stream with truth sidecar")
    p.add_argument("--config", help="JSON config with source/pulse/jitter sections")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
    p.add_argument("--n-triggers", type=int, default=None, help="trigger count (overrides config)")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="label clusters, pick the projection angle, set boundaries and crosstalk")
    p.add_argument("tagfile", help="input .pnrtag stream")
    p.add_argument("--detector", choices=tuple(DETECTOR_CHANNELS), default="A")
    p.add_argument("--window", type=float, default=DEFAULT_WINDOW_PS, help="pairing window in ps")
    p.add_argument("--mode", choices=(cal.RISING_ONLY, cal.OPTIMAL, "both"), default="both")
    add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("decode", help="decode photon numbers per trigger using a calibration")
    p.add_argument("tagfile", help="input .pnrtag stream")
    p.add_argument("calibration", help="calibration JSON from calibrate; its detector and window pair the stream")
    p.add_argument("--truth", default=None, help="truth CSV; adds a confusion report")
    add_common(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("stats", help="photon-number distribution and truncated-Poisson fit")
    p.add_argument("records", help="decoded records (.pnrec)")
    p.add_argument("--tail-from", type=int, default=4, help="photon numbers >= this share one fit category")
    p.add_argument("--n-max", type=int, default=None, help="display truncation for the distribution")
    add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("jpnd", help="joint photon-number distribution of two decoded channels")
    p.add_argument("records_a", help="decoded records for detector A (.pnrec)")
    p.add_argument("records_b", help="decoded records for detector B (.pnrec)")
    p.add_argument("--split-a", default=None, help="split-pair records for detector A (.pnrec; enables contrast)")
    p.add_argument("--split-b", default=None, help="split-pair records for detector B (.pnrec; enables contrast)")
    p.add_argument("--n-max", type=int, default=None, help="matrix truncation")
    add_common(p)
    p.set_defaults(func=cmd_jpnd)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (PnrError, OSError) as exc:
        code = exc.exit_code if isinstance(exc, PnrError) else 2
        error = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        if getattr(exc, "byte_offset", None) is not None:
            error["byte_offset"] = exc.byte_offset
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
