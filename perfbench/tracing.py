"""Spans and counts around calls into pnrtiming's public functions.

Used only by a traced run.  ``Tracer.install`` replaces each target function
with a wrapper, everywhere a pnrtiming module holds a reference to it, and
``uninstall`` puts the originals back.  Spans (name, start, end, parent,
op id) and counts stay in memory until the run writes them out.  A target
the package no longer has is listed in ``absent`` instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ROOT_SPAN = "op"


def _fit_counts(args, result, exc):
    report = result[1] if exc is None else getattr(exc, "report", None)
    if report is None:
        return {}
    return {
        "calibrate.fit_mixture.iterations": len(report.nll_trace) - 1,
        "calibrate.fit_mixture.converged": int(report.converged),
    }


def _offdiag_counts(args, result, exc):
    if exc is not None:
        return {}
    from pnrtiming import calibrate as cal

    return {
        f"calibrate.offdiag_{mode.split('_')[0]}": cal.total_offdiagonal(m.crosstalk, [c.weight for c in m.components])
        for mode, m in result.items()
    }


def _read_counts(args, result, exc):
    if exc is not None:
        return {}
    source = args[0]
    n_bytes = os.path.getsize(source) if isinstance(source, (str, os.PathLike)) else 0
    return {"timetags.tags": len(result), "timetags.bytes": n_bytes}


def _pair_counts(args, result, exc):
    if exc is not None:
        return {}
    return {"timetags.detections": result.n_detections, "timetags.orphan_edges": result.orphan_edges}


def _decode_counts(args, result, exc):
    if exc is not None:
        return {}
    return {"decode.out_of_range": result.diagnostics["out_of_range"]}


# (layer name, module, attribute path, record a span?, observer of each call);
# an observer maps (args, result, exception) to counts added to the operation
TARGETS = (
    ("calibrate.calibrate_both", "pnrtiming.calibrate", "calibrate_both", True, _offdiag_counts),
    ("calibrate.optimize_angle", "pnrtiming.calibrate", "optimize_angle", True, None),
    ("calibrate.fit_mixture", "pnrtiming.calibrate", "fit_mixture", True, _fit_counts),
    ("calibrate.crosstalk_matrix", "pnrtiming.calibrate", "crosstalk_matrix", True, None),
    # tens of thousands of calls per calibration: counted, not spanned
    ("calibrate.voigt_pdf", "pnrtiming.calibrate", "voigt_pdf", False, None),
    ("timetags.read_tag_block", "pnrtiming.timetags", "read_tag_block", True, _read_counts),
    ("timetags.pair_edges", "pnrtiming.timetags", "pair_edges", True, _pair_counts),
    ("timetags.write_stream", "pnrtiming.timetags", "write_stream", True, None),
    ("simulate.simulate_stream", "pnrtiming.simulate", "simulate_stream", True, None),
    ("simulate.truth_to_csv", "pnrtiming.simulate", "TruthBlock.to_csv", True, None),
    ("simulate.truth_from_csv", "pnrtiming.simulate", "TruthBlock.from_csv", True, None),
    ("decode.decode_events", "pnrtiming.decode", "decode_events", True, _decode_counts),
    ("decode.to_binary", "pnrtiming.decode", "PhotonRecordSet.to_binary", True, None),
    ("decode.to_csv", "pnrtiming.decode", "PhotonRecordSet.to_csv", True, None),
    ("decode.confusion_report", "pnrtiming.decode", "confusion_report", True, None),
    ("photostat.fit_poisson_mu", "pnrtiming.photostat", "fit_poisson_mu", True, None),
    ("photostat.build_jpnd", "pnrtiming.photostat", "build_jpnd", True, None),
    ("cli.simulate", "pnrtiming.cli", "cmd_simulate", True, None),
    ("cli.decode", "pnrtiming.cli", "cmd_decode", True, None),
    ("cli.stats", "pnrtiming.cli", "cmd_stats", True, None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: name, start, end, parent (index or None), op
        self.counts = defaultdict(Counter)  # op id -> "layer.count" -> value
        self.absent = []
        self.op = None
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "op": self.op}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self, op_id):
        """Attribute everything inside to one operation, under a root span."""
        self.op = op_id
        try:
            with self.span(ROOT_SPAN):
                yield
        finally:
            self.op = None

    def _wrap(self, name, fn, spanned, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not spanned:
                tracer.counts[tracer.op][f"{name}.calls"] += 1
                return fn(*args, **kwargs)
            result = exc = None
            try:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                if observe is not None:
                    tracer.counts[tracer.op].update(observe(args, result, exc))

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "pnrtiming" or n.startswith("pnrtiming.")]
        for name, module_name, path, spanned, observe in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(attr) if isinstance(owner, type) else None
                if raw is None:
                    self.absent.append(name)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, spanned, observe))
                else:
                    new = self._wrap(name, raw, spanned, observe)
                setattr(owner, attr, new)
                self._undo.append((owner, attr, raw))
                continue
            raw = getattr(module, attr, None)
            if raw is None:
                self.absent.append(name)
                continue
            new = self._wrap(name, raw, spanned, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, new)
                        self._undo.append((mod, key, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def self_times(self) -> list:
        """Per span: its duration minus the part of it that child spans cover."""
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s["start"]
            for start, end in sorted(children[i]):
                start, end = max(start, reach), min(end, s["end"])
                if end > start:
                    covered += end - start
                    reach = end
            out.append(s["end"] - s["start"] - covered)
        return out

    def summary(self, ops: list) -> dict:
        """Per-operation means over ``ops``: ``<layer>.s`` self seconds,
        ``<layer>.calls`` span counts, ``<layer>.incl_s`` inclusive seconds,
        and every observed count."""
        n = max(len(ops), 1)
        wanted = set(ops)
        totals = Counter()
        for s, self_s in zip(self.spans, self.self_times()):
            if s["op"] not in wanted:
                continue
            totals[f"{s['name']}.s"] += self_s
            totals[f"{s['name']}.incl_s"] += s["end"] - s["start"]
            totals[f"{s['name']}.calls"] += 1
        for op in ops:
            totals.update(self.counts.get(op, {}))
        return {k: v / n for k, v in totals.items()}

    def dump(self) -> dict:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        return {
            "absent": self.absent,
            "spans": [
                {**s, "start": s["start"] - t0, "end": s["end"] - t0, "self_s": st}
                for s, st in zip(self.spans, self.self_times())
            ],
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
        }
