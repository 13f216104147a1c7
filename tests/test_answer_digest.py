"""The answers of the benchmark's seed-5 request pools, pinned by one digest.

Every request of the three pools runs in process, and the exit code and
stdout of each, with the input directory stripped, go into one SHA-256.  A
change that moves any answer fails here; a change that means to move one
updates ``DIGEST`` and says why in CHANGES.md."""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# workload -> requests in its seed-5 pool at seconds=30
POOLS = {"decompose_sparse": 210, "solve_mwis": 690, "solve_cover": 1440}
DIGEST = "6aacfa99dcc3fedb4ec0f49fff3e2b0cb606339636a77d88a48dc74a0212eb97"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look the module up by name while it executes
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


def answer_digest(workdir: Path) -> str:
    workloads = _workloads()
    digest = hashlib.sha256()
    for name, size in POOLS.items():
        folder = workdir / name
        folder.mkdir()
        inputs = workloads.Inputs(str(folder))
        pool = workloads.build(name, 5, inputs, seconds=30)
        assert len(pool) == size, name
        inputs.write()
        for req in pool:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = workloads.main(req.argv)
            text = out.getvalue().replace(str(folder), "<dir>")
            digest.update(f"{name} {code} {len(text)}\n{text}".encode())
    return digest.hexdigest()


def test_seed_5_pools_answer_as_pinned(tmp_path):
    assert answer_digest(tmp_path) == DIGEST
