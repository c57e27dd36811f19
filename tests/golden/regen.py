"""The golden pipeline, and the script that rewrites its manifest.

A small fixed pipeline runs in process through ``cli.main``, at 2e4
triggers and seeds 3 and 424242: a coherent stream calibrated on detector
A, and a two-arm stream calibrated on A and on B (B at ``--window 5000``);
``calibrate --mode both``, then ``decode --truth`` and ``stats`` in both
modes, and on the two-arm stream ``jpnd`` with the rising-only records as
the split pair.  Every path on a command line is relative to the run's
directory, so the stdout summaries name no temporary directory.

``manifest.json`` holds the size and SHA-256 of every file the pipeline
writes and of every stdout summary, and the numpy major version it was
made with.  A few outputs differ in their last digits where numpy does not
dispatch its AVX-512 loops: ``without_avx512`` holds those entries as the
pipeline writes them with the AVX-512 targets turned off.  Rewrite the
manifest, on a host where numpy dispatches AVX-512, with

    PYTHONPATH=src python tests/golden/regen.py

only for an output change that is intended; list every entry that changed
in CHANGES.md, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from pnrtiming.cli import main

MANIFEST = Path(__file__).resolve().parent / "manifest.json"
SEEDS = (3, 424242)
N_TRIGGERS = 20_000
MODES = ("optimal", "rising_only")
TWO_ARM_CONFIG = {"source": {"coherent_channel": "both"}}
# the targets that CI's run without AVX-512 dispatch turns off
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def commands(seed: int) -> list[list[str]]:
    """The pipeline's command lines for one seed, in run order."""
    n = ["--n-triggers", str(N_TRIGGERS), "--seed", str(seed)]
    runs = []
    for stream, config, arms in (
        ("coherent", [], [("A", [])]),
        ("two_arm", ["--config", "two_arm.json"], [("A", []), ("B", ["--detector", "B", "--window", "5000"])]),
    ):
        home = f"s{seed}/{stream}"
        tagfile = f"{home}/stream.pnrtag"
        runs.append(["simulate", *config, *n, "--out", home])
        for arm, options in arms:
            runs.append(["calibrate", tagfile, *options, "--mode", "both", "--out", f"{home}/cal_{arm}"])
            for mode in MODES:
                out = f"{home}/{mode}_{arm}"
                calibration = f"{home}/cal_{arm}/calibration_{mode}.json"
                runs.append(["decode", tagfile, calibration, "--truth", f"{home}/truth.csv", "--out", out])
                runs.append(["stats", f"{out}/records_{arm}.pnrec", "--out", out])
        if len(arms) == 2:
            records = [f"{home}/{mode}_{arm}/records_{arm}.pnrec" for mode in MODES for arm in "AB"]
            jpnd = ["jpnd", records[0], records[1], "--split-a", records[2], "--split-b", records[3]]
            runs.append([*jpnd, "--out", f"{home}/jpnd"])
    return runs


def entry(data: bytes) -> dict:
    return {"size": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def run_pipeline(root: Path) -> dict:
    """Run the pipeline in the empty directory ``root``; returns the
    manifest's entries: one per written file, by its path under ``root``,
    and one per stdout summary, by its command line."""
    (root / "two_arm.json").write_text(json.dumps(TWO_ARM_CONFIG))
    entries = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for seed in SEEDS:
            for argv in commands(seed):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main(argv)
                if code != 0:
                    raise RuntimeError(f"{' '.join(argv)} exited {code}")
                entries["stdout of " + " ".join(argv)] = entry(stdout.getvalue().encode())
    finally:
        os.chdir(cwd)
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "two_arm.json":
            entries[path.relative_to(root).as_posix()] = entry(path.read_bytes())
    return entries


def numpy_major() -> str:
    return np.__version__.split(".")[0]


def dispatches_avx512() -> bool:
    """Whether numpy runs its AVX-512 loops here: the CPU has them and
    NPY_DISABLE_CPU_FEATURES does not turn them off."""
    return bool(np._core._multiarray_umath.__cpu_features__.get("AVX512_SKX"))


def pipeline_entries() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return run_pipeline(Path(tmp))


def regenerate() -> None:
    if not dispatches_avx512():
        raise SystemExit("regen.py: numpy does not dispatch AVX-512 here, so only one of the two variants can be made")
    entries = pipeline_entries()
    env = {**os.environ, **NO_AVX512}
    run = subprocess.run([sys.executable, __file__, "--without-avx512"], env=env, capture_output=True, check=True)
    without = json.loads(run.stdout)
    manifest = {
        "numpy_major": numpy_major(),
        "entries": entries,
        "without_avx512": {name: value for name, value in without.items() if value != entries[name]},
    }
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries, {len(manifest['without_avx512'])} of them also without AVX-512, to {MANIFEST}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--without-avx512"]:
        print(json.dumps(pipeline_entries()))
    else:
        regenerate()
