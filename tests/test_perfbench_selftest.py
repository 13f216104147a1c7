"""The benchmark's own self-test, so renames that break its tracer or its
answer checker fail the test suite too."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest(tmp_path):
    # run on a copy, so the spans and inputs it writes stay in tmp_path
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    for rel in ("perfbench", "src"):
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=ignore)
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest passed" in proc.stdout


def test_every_patched_name_resolves():
    # the tracer swaps each (owner, name) of PATCHES in place; a name the
    # library dropped or renamed is reported here by name, before the
    # self-test meets it as a KeyError inside Tracer.install
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{name} ({layer})"
               for layer, owner, name, _ in tracing.PATCHES
               if name not in owner.__dict__]
    assert not missing, "perfbench/tracing.py patches missing names: " + \
        ", ".join(missing)
