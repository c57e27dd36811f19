"""The benchmark's three workloads: input generation, one timed operation,
and the checks on its outputs.

Every workload drives pnrtiming from outside, one operation at a time.
Inputs are generated from the seed by ``generate`` (run in its own
interpreter by gen.py); the timed operation only reads them.

Importing this module puts the checkout's ``src/`` first on ``sys.path``
and stops with an error if the package is not there, so the benchmark
never measures an installed copy by mistake.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.stats import chi2 as chi2_dist

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "pnrtiming" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no pnrtiming package under {SRC}")
sys.path.insert(0, str(SRC))

import pnrtiming  # noqa: E402
from pnrtiming import calibrate as cal  # noqa: E402
from pnrtiming import cli  # noqa: E402
from pnrtiming import decode as dec  # noqa: E402
from pnrtiming import photostat as ps  # noqa: E402
from pnrtiming import simulate as sim  # noqa: E402
from pnrtiming import timetags as tt  # noqa: E402

if Path(pnrtiming.__file__).resolve().parent != SRC / "pnrtiming":
    raise SystemExit(f"perfbench: imported pnrtiming from {pnrtiming.__file__}, not from {SRC}")

WINDOW_PS = 8000.0
# calibration inputs come from a seed disjoint from the measured stream's
CALIB_SEED_OFFSET = 1_000_000
MU_TOLERANCE = 0.02
# A correct truncated-Poisson fit has chi2 ~ chi2(ndf).  At ndf = 3 a fixed
# "chi2/ndf < 2" rejects about 11% of correct fits, i.e. of seeds; this
# limit rejects one in 10^6, while a decoding defect at 1e6 triggers
# moves chi2 by thousands.
CHI2_FALSE_ALARM = 1e-6

# triggers per stream; calibration streams only feed set-up
SIZES = {
    "calib-3m": {"triggers": 3_000_000},
    "decode-2arm-2m": {"triggers": 2_000_000, "calib_triggers": 200_000},
    "cli-pipeline-1m": {"triggers": 1_000_000, "calib_triggers": 200_000},
}
# below ~1e5 triggers the mixture fits take longer, not shorter
SMOKE_SIZES = {
    "calib-3m": {"triggers": 200_000},
    "decode-2arm-2m": {"triggers": 100_000, "calib_triggers": 200_000},
    "cli-pipeline-1m": {"triggers": 50_000, "calib_triggers": 200_000},
}
NAMES = tuple(SIZES)


def _source(name: str) -> sim.SourceSpec:
    spec = sim.SourceSpec()
    if name == "decode-2arm-2m":
        spec = dataclasses.replace(spec, coherent_channel="both")
    return spec


def generate(name: str, seed: int, out: Path, smoke: bool = False) -> None:
    """Write the inputs of one workload into ``out``, deterministically from ``seed``."""
    size = (SMOKE_SIZES if smoke else SIZES)[name]
    pulse, jitter, _ = sim.default_params()
    spec = _source(name)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "workload": name,
        "seed": seed,
        "triggers": size["triggers"],
        "mu_detected": spec.mu * spec.efficiency_a,
    }
    calib_seed = seed + CALIB_SEED_OFFSET

    if name == "cli-pipeline-1m":
        tags, _ = sim.simulate_stream(spec, pulse, jitter, size["calib_triggers"], calib_seed)
        tt.write_stream(tags, out / "calib_stream.pnrtag")
        argv = ["calibrate", str(out / "calib_stream.pnrtag"), "--mode", cal.OPTIMAL,
                "--window", str(WINDOW_PS), "--out", str(out / "calibration"), "--quiet"]
        code = cli.main(argv)
        if code:
            raise SystemExit(f"perfbench: set-up calibration exited {code}")
    else:
        tags, truth = sim.simulate_stream(spec, pulse, jitter, size["triggers"], seed)
        meta["input_bytes"] = tt.write_stream(tags, out / "stream.pnrtag")
        meta["tags"] = len(tags)
        np.savez(out / "truth.npz", n_a=truth.true_n_a, n_b=truth.true_n_b)
        if name == "decode-2arm-2m":
            cal_tags, _ = sim.simulate_stream(spec, pulse, jitter, size["calib_triggers"], calib_seed)
            for det in ("A", "B"):
                events = tt.pair_edges(cal_tags, WINDOW_PS, detector=det)
                model = cal.calibrate_events(events, cal.OPTIMAL, detector=det, window_ps=WINDOW_PS)
                model.save_json(out / f"calibration_{det}.json")
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    # flush the inputs now, so that their write-back does not overlap the timed operations
    for path in out.rglob("*"):
        if path.is_file():
            with open(path, "rb+") as f:
                os.fsync(f.fileno())


def _mu_problems(mu: float, chi2_pearson: float, dof: int, mu_expected: float, label: str) -> list:
    problems = []
    if abs(mu / mu_expected - 1.0) > MU_TOLERANCE:
        problems.append(f"{label}: mu {mu:.5f} not within {MU_TOLERANCE:.0%} of {mu_expected:.5f}")
    limit = chi2_dist.isf(CHI2_FALSE_ALARM, dof)
    if not chi2_pearson < limit:
        problems.append(f"{label}: chi2 {chi2_pearson:.2f} at ndf {dof} >= {limit:.2f}")
    return problems


def _offdiagonal(model) -> float:
    return cal.total_offdiagonal(model.crosstalk, [c.weight for c in model.components])


class StreamWorkload:
    """A workload whose operations run in this process on a stream from set-up."""

    def __init__(self, work: Path, meta: dict):
        self.meta = meta
        self.work = work
        self.stream = work / "stream.pnrtag"

    def prepare(self) -> None:
        """Untimed work before each operation."""

    def trace_op(self):
        return self.op()

    def truth(self) -> sim.TruthBlock:
        with np.load(self.work / "truth.npz") as z:
            return sim.TruthBlock(np.arange(z["n_a"].size, dtype=np.int64), z["n_a"], z["n_b"])

    def corrupt(self) -> None:
        """Overwrite records in the middle of the stream with 0xFF bytes."""
        with open(self.stream, "r+b") as f:
            f.seek(self.stream.stat().st_size // 2)
            f.write(b"\xff" * 4096)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def input_stats(self) -> dict:
        return {"tags": self.meta["tags"], "input_bytes": self.meta["input_bytes"]}

    def close(self) -> None:
        pass


class CalibWorkload(StreamWorkload):
    """Read a coherent stream, pair detector A, then ``calibrate_both``.

    Calibration does nearly all the work here; its mixture fits dominate.
    """

    def op(self):
        block = tt.read_tag_block(self.stream)
        events = tt.pair_edges(block, WINDOW_PS, detector="A")
        return events, cal.calibrate_both(events, detector="A", window_ps=WINDOW_PS)

    def check(self, out) -> list:
        _, models = out
        optimal, rising = models[cal.OPTIMAL], models[cal.RISING_ONLY]
        problems = []
        if optimal.k != rising.k:
            problems.append(f"optimal k {optimal.k} != rising-only k {rising.k}")
        off_opt, off_rise = _offdiagonal(optimal), _offdiagonal(rising)
        if not off_opt < off_rise:
            problems.append(f"optimal crosstalk {off_opt:.5f} not below rising-only {off_rise:.5f}")
        for mode, model in models.items():
            back = cal.CalibrationModel.from_dict(json.loads(json.dumps(model.to_dict())))
            same = (
                back.angle == model.angle
                and np.array_equal(back.boundaries, model.boundaries)
                and np.array_equal(back.crosstalk, model.crosstalk)
                and back.components == model.components
            )
            if not same:
                problems.append(f"{mode} model does not round-trip through to_dict/from_dict")
        return problems

    def accuracy(self, out) -> float:
        events, models = out
        records = dec.decode_events(events, models[cal.OPTIMAL])
        return dec.confusion_report(records, self.truth()).overall_accuracy


class DecodeWorkload(StreamWorkload):
    """Decode both arms of a two-arm stream with calibrations made in set-up.

    The throughput path: read, pair, decode, binary records, Poisson fit and
    joint distribution.  Calibration does no work inside the operation.
    """

    def __init__(self, work: Path, meta: dict):
        super().__init__(work, meta)
        self.models = {d: cal.CalibrationModel.load_json(work / f"calibration_{d}.json") for d in ("A", "B")}

    def op(self):
        block = tt.read_tag_block(self.stream)
        records, fits = {}, {}
        for det in ("A", "B"):
            events = tt.pair_edges(block, WINDOW_PS, detector=det)
            records[det] = dec.decode_events(events, self.models[det])
        for det in ("A", "B"):
            records[det].to_binary(self.work / f"records_{det}.pnrec")
            fits[det] = ps.fit_poisson_mu(ps.NumberDistribution.from_records(records[det]))
        jpnd = ps.build_jpnd(records["A"], records["B"])
        return records, fits, jpnd

    def check(self, out) -> list:
        records, fits, jpnd = out
        problems = []
        for det in ("A", "B"):
            fit = fits[det]
            problems += _mu_problems(fit.mu, fit.chi2_pearson, fit.dof, self.meta["mu_detected"], f"arm {det}")
        if jpnd.total != self.meta["triggers"]:
            problems.append(f"jpnd total {jpnd.total} != {self.meta['triggers']} triggers")
        for det, axis in (("A", 1), ("B", 0)):
            marginal = jpnd.matrix.sum(axis=axis)
            counts = records[det].class_counts(n_max=marginal.size - 1)
            if not np.array_equal(marginal, counts):
                problems.append(f"jpnd marginal of arm {det} differs from its class counts")
        return problems

    def accuracy(self, out) -> float:
        records, truth = out[0], self.truth()
        return float(np.mean([dec.confusion_report(records[d], truth).overall_accuracy for d in ("A", "B")]))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


class CliWorkload:
    """``pnrtiming simulate``, ``decode --truth`` and ``stats``, one after another.

    The write side: interpreter start, imports, the binary stream and the
    text sidecars.  Each command runs as its own subprocess; only the
    calibration JSON comes from set-up.
    """

    OUT_DIRS = {"simulate": "sim", "decode": "dec", "stats": "stats"}  # command -> its --out

    def __init__(self, work: Path, meta: dict):
        self.meta = meta
        self.work = work
        self.calibration = work / "calibration" / f"calibration_{cal.OPTIMAL}.json"
        self.n_ops = 0
        self.out = work / "op0"
        self.digests = None
        self.child_peak_mb = 0.0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PNR_THREADS="1")
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )

    def _argv(self, command: str) -> list:
        out = self.out
        if command == "simulate":
            return ["simulate", "--n-triggers", str(self.meta["triggers"]), "--seed", str(self.meta["seed"]),
                    "--out", str(out / "sim"), "--quiet"]
        if command == "decode":
            return ["decode", str(out / "sim" / "stream.pnrtag"), str(self.calibration),
                    "--truth", str(out / "sim" / "truth.csv"), "--out", str(out / "dec"), "--quiet"]
        return ["stats", str(out / "dec" / "records_A.pnrec"), "--out", str(out / "stats"), "--quiet"]

    def prepare(self) -> None:
        """Give each operation fresh output directories.

        Outputs are deleted with the run, not between operations, so that
        freeing their blocks does not overlap a timed operation.
        """
        self.n_ops += 1
        self.out = self.work / f"op{self.n_ops}"
        self.out.mkdir()

    def op(self):
        """Run the three commands as subprocesses; returns per-command figures."""
        runs = {}
        for command in self.OUT_DIRS:
            request = {"argv": [sys.executable, "-m", "pnrtiming.cli", *self._argv(command)], "env": self.env,
                       "cwd": str(ROOT), "log": str(self.out / f"{command}.log")}
            self.launcher.stdin.write(json.dumps(request) + "\n")
            self.launcher.stdin.flush()
            runs[command] = run = json.loads(self.launcher.stdout.readline())
            self.child_peak_mb = max(self.child_peak_mb, run["rss_mb"])
            if run["code"]:
                break
        return runs

    def trace_op(self):
        """The same commands through ``pnrtiming.cli.main`` in this process."""
        runs = {}
        for command in self.OUT_DIRS:
            runs[command] = {"code": cli.main(self._argv(command))}
            if runs[command]["code"]:
                break
        return runs

    def check(self, out) -> list:
        failed = [f"{c} exited {r['code']}" for c, r in out.items() if r["code"]]
        if failed or len(out) != len(self.OUT_DIRS):
            return failed or ["pipeline stopped early"]
        fit = json.loads((self.out / "stats" / "poisson_fit.json").read_text(encoding="utf-8"))
        problems = _mu_problems(fit["mu"], fit["chi2_pearson"], fit["dof"], self.meta["mu_detected"], "stats")
        digests = (_sha256(self.out / "sim" / "stream.pnrtag"), _sha256(self.out / "dec" / "records_A.pnrec"))
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append("stream.pnrtag or records_A.pnrec differs from the first operation's")
        return problems

    def bytes_written(self) -> dict:
        return {c: _dir_bytes(self.out / sub) for c, sub in self.OUT_DIRS.items()}

    def accuracy(self, out) -> float:
        report = json.loads((self.out / "dec" / "decode_report.json").read_text(encoding="utf-8"))
        return float(report["confusion"]["overall_accuracy"])

    def corrupt(self) -> None:
        text = self.calibration.read_text(encoding="utf-8")
        self.calibration.write_text(text[: len(text) // 2], encoding="utf-8")

    def peak_rss_mb(self) -> float:
        return self.child_peak_mb

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait(timeout=60)
        self.launcher.stdout.close()

    def input_stats(self) -> dict:
        stream = self.out / "sim" / "stream.pnrtag"
        if not stream.exists():
            return {}
        return {"tags": len(tt.read_tag_block(stream)), "input_bytes": stream.stat().st_size}


WORKLOADS = {"calib-3m": CalibWorkload, "decode-2arm-2m": DecodeWorkload, "cli-pipeline-1m": CliWorkload}


def load(name: str, work: Path):
    meta = json.loads((work / "meta.json").read_text(encoding="utf-8"))
    return WORKLOADS[name](work, meta)
