"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks three things and exits non-zero
if any fails:

1. every workload of BENCHMARK.json, run plain and traced at the tiny
   instance ladders, prints as its last line exactly the declared metrics,
   each with its declared unit, and no failed request;
2. deliberately wrong answers fed to the answer checker (a wrong width, an
   invalid decomposition, a wrong MWIS value, a flipped colouring or
   homomorphism verdict) are each counted as a failed, wrong request, and a
   crash or an exit code of 20 as a failed one;
3. without the ``src/`` tree beside it the benchmark exits non-zero and
   prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
problems: list[str] = []


def expect(ok: bool, what: str):
    if not ok:
        problems.append(what)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics_printed():
    for wl in SPEC["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench("--workload", wl["name"], "--seed", "1",
                         "--seconds", "0.2", "--trace", trace, "--tiny")
            where = f"{wl['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{where}: {result['attempted']} attempted, "
                   f"{result['failed']} failed")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            expect(got == want, f"{where}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            expect(all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()),
                   f"{where}: a metric value is not a number")


def wrong_answers(req, stdout):
    """Deliberately wrong variants of a correct answer to ``req``."""
    doc = json.loads(stdout)
    if req.problem is None:
        wider = dict(doc, width=doc["width"] + 1)
        empty = dict(doc, payload=f"s td 1 0 {req.h.n}\nb 1\n")
        return [wider, empty]
    if req.problem == "mwis":
        return [dict(doc, value=str(int(doc["value"].split("/")[0]) + 1))]
    key = "colorable" if req.problem == "color" else "homomorphic"
    return [dict(doc, **{key: not doc[key]})]


def check_wrong_answers_fail():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    import workloads

    for wl in SPEC["workloads"]:
        workdir = SCRATCH / wl["name"]
        workdir.mkdir(parents=True)
        inputs = workloads.Inputs(str(workdir))
        pool = workloads.build(wl["name"], 1, inputs, 0, tiny=True)
        inputs.write()
        records = []
        bad = 0
        for i, req in enumerate(pool):
            lat, code, stdout, error = run.call(workloads.main, req.argv)
            records.append((i, lat, 1.0, code, stdout, error))
            for doc in wrong_answers(req, stdout):
                records.append((i, lat, 1.0, code, json.dumps(doc), None))
                bad += 1
        records.append((0, 0.0, 1.0, None, "", "RecursionError: too deep"))
        capped = {"status": "resource-exceeded", "error": "cap", "nodes": 9}
        records.append((0, 0.0, 1.0, 20, json.dumps(capped), None))
        failures, wrong, _ = run.judge_all(workloads, pool, records)
        expect(wrong == bad, f"{wl['name']}: {wrong} of {bad} wrong answers "
                             "caught")
        expect(len(failures) == bad + 2,
               f"{wl['name']}: {len(failures)} failures, want {bad + 2}")


def check_refuses_without_sources():
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, bare / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"without src/ the benchmark exited {proc.returncode} and printed "
           f"{proc.stdout.strip()[-200:]!r}")


def main() -> int:
    try:
        check_metrics_printed()
        check_wrong_answers_fail()
        check_refuses_without_sources()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
