"""pnrtiming benchmark: a single-process, closed-loop batch client.

One operation runs at a time and the next starts only after the previous
one has ended and its outputs have been checked.  Inputs are generated in
set-up from ``--seed``; the timed operations only read them.

    python3 perfbench/run.py --workload calib-3m --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

With ``--trace 0`` a run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics of a separate traced pass.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit.  Full records (environment, samples, spans)
go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import ROOT_SPAN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = workloads.ROOT
STATE_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
CLI_COMMANDS = tuple(workloads.CliWorkload.OUT_DIRS)

# name -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "triggers_per_s": "1/s",
    "peak_rss_mb": "MB",
    "decode_accuracy": "ratio",
}

# name -> (unit, better); a layer a workload never calls reads 0
PER_LAYER = {
    "calibrate.calibrate_both.s": ("s", "lower"),
    "calibrate.optimize_angle.s": ("s", "lower"),
    "calibrate.fit_mixture.s": ("s", "lower"),
    "calibrate.fit_mixture.calls": ("count", "lower"),
    "calibrate.fit_mixture.iterations": ("count", "lower"),
    "calibrate.voigt_pdf.calls": ("count", "lower"),
    "calibrate.crosstalk_matrix.s": ("s", "lower"),
    "calibrate.fit_converged_ratio": ("ratio", "higher"),
    "calibrate.offdiag_optimal": ("ratio", "lower"),
    "calibrate.offdiag_rising": ("ratio", "lower"),
    "timetags.read_tag_block.s": ("s", "lower"),
    "timetags.read_tag_block.MBps": ("MB/s", "higher"),
    "timetags.pair_edges.s": ("s", "lower"),
    "timetags.pair_edges.calls": ("count", "lower"),
    "timetags.write_stream.s": ("s", "lower"),
    "timetags.tags": ("count", "higher"),
    "timetags.bytes": ("bytes", "higher"),
    "timetags.detections": ("count", "higher"),
    "timetags.orphan_edges": ("count", "lower"),
    "simulate.simulate_stream.s": ("s", "lower"),
    "simulate.truth_to_csv.s": ("s", "lower"),
    "simulate.truth_from_csv.s": ("s", "lower"),
    "decode.decode_events.s": ("s", "lower"),
    "decode.to_binary.s": ("s", "lower"),
    "decode.to_csv.s": ("s", "lower"),
    "decode.confusion_report.s": ("s", "lower"),
    "decode.out_of_range": ("count", "lower"),
    "photostat.fit_poisson_mu.s": ("s", "lower"),
    "photostat.build_jpnd.s": ("s", "lower"),
    "cli.import.s": ("s", "lower"),
    **{f"cli.{c}.{m}": (u, "lower") for c in CLI_COMMANDS
       for m, u in (("s", "s"), ("rss_mb", "MB"), ("bytes_written", "bytes"))},
    "trace.op_s": ("s", "lower"),
    "trace.untraced_op_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.glue_s": ("s", "lower"),
}

@dataclass
class Phase:
    """Operations of one measuring loop."""

    times: list = field(default_factory=list)  # seconds of every attempted operation
    ok: list = field(default_factory=list)  # True where its checks passed
    problems: list = field(default_factory=list)
    final: object = None  # outputs of the last operation, if it passed

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def op_s(self) -> float:
        good = [t for t, ok in zip(self.times, self.ok) if ok]
        return statistics.median(good or self.times)


def measure(run_op, check, prepare, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Run operations back to back until ``seconds`` have passed (at least one).

    ``prepare`` and ``check`` run before and after each operation, untimed.
    """
    phase = Phase()
    start = time.perf_counter()
    while True:
        op_id = phase.attempted
        prepare()
        gc.collect()
        out = None
        t0 = time.perf_counter()
        try:
            with tracer.operation(op_id) if tracer else nullcontext():
                out = run_op()
            dt = time.perf_counter() - t0
            problems = check(out)
        except Exception as exc:  # noqa: BLE001 - any exception is a failed operation
            dt = time.perf_counter() - t0
            problems = [f"{type(exc).__name__}: {exc}"]
        phase.times.append(dt)
        phase.ok.append(not problems)
        phase.problems += [f"op {op_id}: {p}" for p in problems]
        if time.perf_counter() - start >= seconds:
            phase.final = None if problems else out
            return phase
        del out


def _setup(name: str, seed: int, work: Path, smoke: bool) -> float:
    argv = [sys.executable, str(HERE / "gen.py"), name, str(seed), str(work)] + (["--smoke"] if smoke else [])
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True)
    return time.perf_counter() - start


def _remove(work: Path) -> None:
    """Delete a run's files and wait for the deletion to reach the disk,
    so that freeing them does not slow the next run."""
    shutil.rmtree(work, ignore_errors=True)
    if not work.parent.is_dir():  # set-up failed before it made a directory
        return
    fd = os.open(work.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _import_seconds() -> float:
    """Time to ``import pnrtiming`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import pnrtiming; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, capture_output=True, text=True)
    return float(done.stdout.strip())


def _cache_sizes() -> dict:
    """Cache sizes of CPU 0, read-only from sysfs; empty where unavailable."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level}_{kind.lower()}"] = size
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "caches": _cache_sizes(),
        "seed": seed,
        "notes": "stream reads hit a warm page cache, since set-up has just written the files; "
        "MB/s figures are file size over read time, not measured disk behaviour",
    }


def _layer_metrics(tracer: Tracer, traced: Phase, untraced: Phase, extra: dict) -> dict:
    t = tracer.summary(list(range(traced.attempted)))
    out = {}
    for name in PER_LAYER:
        if name.startswith("cli.") and name.endswith(".s") and name != "cli.import.s":
            out[name] = t.get(name[: -len(".s")] + ".incl_s", 0.0)
        else:
            out[name] = t.get(name, 0.0)
    calls = t.get("calibrate.fit_mixture.calls", 0.0)
    out["calibrate.fit_converged_ratio"] = t.get("calibrate.fit_mixture.converged", 0.0) / calls if calls else 0.0
    read_s = t.get("timetags.read_tag_block.s", 0.0)
    out["timetags.read_tag_block.MBps"] = t.get("timetags.bytes", 0.0) / read_s / 1e6 if read_s else 0.0
    out["trace.op_s"] = traced.op_s()
    out["trace.untraced_op_s"] = untraced.op_s()
    out["trace.overhead_s"] = traced.op_s() - untraced.op_s()
    out["trace.glue_s"] = t.get(f"{ROOT_SPAN}.s", 0.0)
    out.update(extra)
    return out


def _tail(samples: list) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median of {n}"
    if n > 20:
        q = int(100 * (1 - 10 / n))
        text += f", p{q} {statistics.quantiles(samples, n=100)[q - 1]:.4g}"
    else:
        text += f", too few for a tail percentile (max {max(samples):.4g})"
    return text


def bench(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False, corrupt: bool = False) -> dict:
    """One benchmark run; returns the result record (the printed JSON is a subset)."""
    work = STATE_DIR / "work" / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    wl = None
    try:
        # each set-up writes its own copy, so none overwrites files while operations run
        setups = [_setup(name, seed, work / f"setup{i}", smoke) for i in range(SETUP_REPEATS)]
        wl = workloads.load(name, work / f"setup{SETUP_REPEATS - 1}")
        if corrupt:
            wl.corrupt()
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": smoke,
                  "environment": environment(seed), "setup_s_samples": setups}
        if not trace:
            phase = measure(wl.op, wl.check, wl.prepare, seconds)
            peak_rss = wl.peak_rss_mb()
            phases = [phase]
            op_s = phase.op_s()
            metrics = {
                "setup_s": statistics.median(setups),
                "op_s": op_s,
                "triggers_per_s": wl.meta["triggers"] / op_s,
                "peak_rss_mb": peak_rss,
                "decode_accuracy": wl.accuracy(phase.final) if phase.final is not None else 0.0,
            }
            units = END_TO_END
            record["tail"] = {"setup_s": _tail(setups), "op_s": _tail(phase.times)}
        else:
            untraced = measure(wl.trace_op, wl.check, wl.prepare, seconds)
            phases = [untraced]
            extra = {"cli.import.s": _import_seconds()}
            if isinstance(wl, workloads.CliWorkload):
                # peak memory and output size of each command, from one subprocess pipeline
                sub = Phase()
                wl.prepare()
                runs = wl.op()
                problems = wl.check(runs)
                sub.times.append(sum(r["s"] for r in runs.values()))
                sub.ok.append(not problems)
                sub.problems += problems
                phases.append(sub)
                written = wl.bytes_written()
                for c in CLI_COMMANDS:
                    extra[f"cli.{c}.rss_mb"] = runs.get(c, {}).get("rss_mb", 0.0)
                    extra[f"cli.{c}.bytes_written"] = written[c]
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(wl.trace_op, wl.check, wl.prepare, seconds, tracer)
            finally:
                tracer.uninstall()
            phases.append(traced)
            metrics = _layer_metrics(tracer, traced, untraced, extra)
            units = {k: u for k, (u, _) in PER_LAYER.items()}
            record["tracing"] = tracer.dump()
        record["inputs"] = {"triggers": wl.meta["triggers"], **wl.input_stats()}
    finally:
        if wl is not None:
            wl.close()
        _remove(work)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record.update(
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
        problems=[p for ph in phases for p in ph.problems],
        op_samples=[{"s": t, "ok": ok} for ph in phases for t, ok in zip(ph.times, ph.ok)],
        result={
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        },
    )
    return record


def _print_table(record: dict) -> None:
    res = record["result"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{res['attempted']} operations, {res['failed']} failed, "
          f"error_rate {record['error_rate']:.4g} (failed/attempted)")
    for name, m in res["metrics"].items():
        note = record.get("tail", {}).get(name, "")
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']:8s} {note}")
    inputs = record["inputs"]
    print(f"  inputs: {inputs}")
    for p in record["problems"]:
        print(f"  FAILED {p}")


def _save(record: dict) -> Path:
    out = STATE_DIR / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def _run_all(args) -> int:
    """Every workload in its own interpreter, so peak RSS stays per workload."""
    results = {}
    for name in workloads.NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode or not lines:
            print(f"perfbench: {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pnrtiming benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return _run_all(args)
    record = bench(args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke)
    path = _save(record)
    _print_table(record)
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
