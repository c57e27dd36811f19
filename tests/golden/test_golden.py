"""Golden outputs: the fixed pipeline of regen.py writes, byte for byte,
every file and stdout summary that manifest.json records."""

import json

import numpy as np
import pytest
from regen import MANIFEST, dispatches_avx512, numpy_major, run_pipeline


def test_pipeline_outputs_match_the_golden_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    if manifest["numpy_major"] != numpy_major():
        # another numpy major may draw or round differently; none has been checked
        pytest.skip(f"manifest made with numpy {manifest['numpy_major']}.x; this is numpy {np.__version__}")
    want = manifest["entries"]
    if not dispatches_avx512():
        want = {**want, **manifest["without_avx512"]}
    entries = run_pipeline(tmp_path)
    assert sorted(entries) == sorted(want)
    changed = [name for name, value in entries.items() if value != want[name]]
    assert not changed, changed
