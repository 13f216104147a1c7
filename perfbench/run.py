"""Benchmark of the ``mmtw`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``mmtw`` is imported from its
``src/`` directory, never from an installed copy.  Each request is one
in-process call of ``mmtw.cli.main(argv)`` with stdout captured: parsing,
computing, the width check or validation, and serialising, which is what a
user of ``mmtw decompose`` / ``mmtw solve`` pays for.  The loop is closed:
one client, one thread, the next request sent when the last one returns.  It
makes PASSES whole passes over the workload's seeded request pool, which is
sized so that a pass takes at most about S / PASSES seconds on the
reference host; every run of a workload with the same S does the same work
and sends the same number of requests.  A few requests run untimed first,
as warm-up.

Request times are scaled to a reference speed.  A control, fixed
pure-Python work that does not touch ``mmtw``, is timed between requests
every CONTROL_EVERY_S, and each latency is multiplied by CONTROL_REF_S over
the median of the control times read around it.  The shared reference host
slows down and speeds up by as much as two times within seconds, and the
control follows those swings; the unscaled wall figures are in the stamp.
Set-up time is not scaled.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` the first pass runs plain (the
reference for the tracing overhead), then the layer wrappers of
``tracing.py`` are installed for the second pass and the per-layer metrics
are those of that pass.  Every answer is checked after the timed loop
(decompositions are re-validated, solver answers compared with the
exhaustive oracles); a wrong answer, an exception or an exit code of 2 or 20
counts as a failed request and the run goes on.  The line before the result
stamps the run: Python version, git revision, nproc, seed, requests, the
tail percentile, the wall figures, failures and, when traced, the overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Timed fresh imports of mmtw, half before the loop and half after the
# answer checks: the host's speed drifts over tens of seconds, and the
# median of imports made back to back followed it from run to run.
SETUP_REPEATS = 6
PASSES = 2
# Requests run untimed before the loop, so lazy first-call costs stay out.
WARMUP = 3
# The control: lookups in a dict of a few MB, timed every CONTROL_EVERY_S
# between requests.  Request times are scaled to the speed at which one run
# of the control takes CONTROL_REF_S.
CONTROL_KEYS = 1 << 16
CONTROL_STEPS = 20000
CONTROL_EVERY_S = 0.25
CONTROL_REF_S = 0.006
# Exit codes of ``mmtw`` that are answers; 2 (invalid input) and 20 (resource
# cap) are failures.
ANSWER_CODES = (0, 10)
END_TO_END = {
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "width_mean": "measure",
    "setup_s": "s",
}

# (metric, unit, kind, source).  kind "self": summed self time of a layer;
# "count": calls of a layer or a counter taken at its boundary; "ratio":
# counter / counter.  Times and counts are those of the traced pass.
PER_LAYER = [
    ("approx.balanced_split_self_s", "s", "self", "approx.balanced_split"),
    ("approx.balanced_split_calls", "count", "count", "approx.balanced_split"),
    ("approx.find_separator_self_s", "s", "self", "approx.find_separator"),
    ("approx.find_separator_calls", "count", "count", "approx.find_separator"),
    ("approx.separator_ok_ratio", "ratio", "ratio",
     ("approx.separator_ok", "approx.find_separator")),
    ("approx.closure_s", "s", "self", "approx.closure"),
    ("approx.closure_calls", "count", "count", "approx.closure"),
    ("approx.atoms_s", "s", "self", "approx.atoms"),
    ("approx.atoms_calls", "count", "count", "approx.atoms"),
    ("approx.two_sat_s", "s", "self", "approx.two_sat"),
    ("approx.two_sat_calls", "count", "count", "approx.two_sat"),
    ("approx.two_sat_sat_ratio", "ratio", "ratio",
     ("approx.two_sat_sat", "approx.two_sat")),
    ("approx.recurse_self_s", "s", "self", "approx.approx_decomposition"),
    ("measures.decide_s", "s", "self", "measures.decide"),
    ("measures.decide_calls", "count", "count", "measures.decide"),
    ("measures.value_s", "s", "self", "measures.value"),
    ("measures.value_calls", "count", "count", "measures.value"),
    ("reductions.line_square_s", "s", "self", "reductions.line_square"),
    ("reductions.line_square_calls", "count", "count", "reductions.line_square"),
    ("reductions.l2_edges", "count", "count", "reductions.l2_edges"),
    ("reductions.pullback_s", "s", "self", "reductions.pullback"),
    ("hypergraph.graph_build_s", "s", "self", "hypergraph.graph_build"),
    ("hypergraph.graph_builds", "count", "count", "hypergraph.graph_build"),
    ("hypergraph.induced_s", "s", "self", "hypergraph.induced"),
    ("hypergraph.induced_calls", "count", "count", "hypergraph.induced"),
    ("blocker.trace_s", "s", "self", "blocker.trace"),
    ("blocker.trace_calls", "count", "count", "blocker.trace"),
    ("blocker.nodes", "count", "count", "blocker.nodes"),
    ("blocker.enumerate_mis_s", "s", "self", "blocker.enumerate_mis"),
    ("blocker.enumerate_mis_calls", "count", "count", "blocker.enumerate_mis"),
    ("dp.run_dp_self_s", "s", "self", "dp.run_dp"),
    ("dp.leaf_init_s", "s", "self", "dp.leaf_init"),
    ("dp.restrict_s", "s", "self", "dp.restrict"),
    ("dp.merge_s", "s", "self", "dp.merge"),
    ("dp.merge_calls", "count", "count", "dp.merge"),
    ("dp.merge_pairs", "count", "count", "dp.merge_pairs"),
    ("dp.merge_kept_ratio", "ratio", "ratio", ("dp.merge_kept", "dp.merge_pairs")),
    ("decomposition.validate_s", "s", "self", "decomposition.validate"),
    ("decomposition.width_s", "s", "self", "decomposition.width"),
    ("formats.parse_s", "s", "self", "formats.parse"),
    ("formats.serialize_s", "s", "self", "formats.serialize"),
    ("cli.main_s", "s", "self", "cli.main"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest instance ladders (for the self-test)")
    return p.parse_args(argv)


def make_control():
    """A function that times one run of the control.  The control makes no
    containers, so it neither triggers nor pays for garbage collection."""
    rng = random.Random(0)
    table = {(i, i * 7 % 1000): i for i in range(CONTROL_KEYS)}
    keys = list(table)
    rng.shuffle(keys)
    keys = keys[:CONTROL_STEPS]

    def control():
        s = 0
        start = perf_counter()
        for k in keys:
            s += table[k]
        return perf_counter() - start

    return control


def speed(readings):
    """Factor turning a wall time into the time at the reference speed,
    from control times read around it.  Single readings swing by two times
    or more, so the median is taken."""
    return CONTROL_REF_S / statistics.median(readings)


def import_fresh():
    """Import ``mmtw`` and the benchmark's modules anew from the checkout."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("mmtw", "workloads", "tracing"):
            del sys.modules[name]
    workloads = importlib.import_module("workloads")
    mmtw_file = Path(sys.modules["mmtw"].__file__).resolve()
    if SRC.resolve() not in mmtw_file.parents:
        raise SystemExit(f"mmtw was imported from {mmtw_file}, not from {SRC}")
    return workloads


def timed_import():
    """(seconds, workloads module) of one fresh import of mmtw."""
    start = perf_counter()
    workloads = import_fresh()
    return perf_counter() - start, workloads


def call(main, argv):
    """(latency, exit code, stdout, error) of one in-process CLI call."""
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        error = None
    except Exception as exc:  # a crash fails this request; the run goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, code, out.getvalue(), error


def drive(main, pool, passes, control, records, on_request=None):
    """``passes`` whole passes over the pool, the control timed between
    requests every CONTROL_EVERY_S.

    Appends (pool index, wall latency, speed factor, code, stdout, error) to
    ``records``; a request's speed factor comes from the two control runs
    just around it and the one before and after those.  Calls
    ``on_request(index)`` before each request."""
    readings = [control()]
    windows = []     # (index of the control run before, the requests)
    waiting: list = []
    sent = len(records)
    last = perf_counter()
    for _ in range(passes):
        for i, req in enumerate(pool):
            if on_request is not None:
                on_request(sent)
            sent += 1
            waiting.append((i, *call(main, req.argv)))
            if perf_counter() - last >= CONTROL_EVERY_S:
                windows.append((len(readings) - 1, waiting))
                waiting = []
                readings.append(control())
                last = perf_counter()
    if waiting:
        windows.append((len(readings) - 1, waiting))
        readings.append(control())
    for w, requests in windows:
        factor = speed(readings[max(0, w - 1):w + 3])
        records.extend((i, latency, factor, *rest)
                       for i, latency, *rest in requests)


def judge(workloads, req, code, stdout, error):
    """(failure reason or None, wrong answer?, width of a good answer)."""
    if error is not None:
        return error, False, None
    if code not in ANSWER_CODES:
        try:
            doc = json.loads(stdout)
        except ValueError:
            doc = {}
        return f"exit {code}: {json.dumps(doc, sort_keys=True)}", False, None
    try:
        reason, width = workloads.check(req, code, stdout)
    except Exception as exc:  # an answer the checker cannot read is wrong
        reason, width = f"unreadable answer: {type(exc).__name__}: {exc}", None
    return reason, reason is not None, width


def judge_all(workloads, pool, records):
    """(failure reasons, number of wrong answers, pool index -> width of a
    good answer); each distinct answer to each distinct argv is checked
    once."""
    verdicts = {}
    failures = []
    wrong = 0
    widths = {}
    for i, _, _, code, stdout, error in records:
        key = (tuple(pool[i].argv), code, stdout, error)
        if key not in verdicts:
            verdicts[key] = judge(workloads, pool[i], code, stdout, error)
        reason, is_wrong, width = verdicts[key]
        if reason is not None:
            failures.append(f"{pool[i].label}: {reason}")
            wrong += is_wrong
        elif width is not None:
            widths[i] = width
    return failures, wrong, widths


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def tail(latencies):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, i.e. the 11th largest latency."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= 10:
        return 0.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def per_layer(tracer):
    self_times = tracer.self_times()
    counts = tracer.counts
    out = {}
    for metric, unit, kind, source in PER_LAYER:
        if kind == "self":
            value = self_times.get(source, 0.0)
        elif kind == "count":
            value = int(counts[source])
        else:
            num, den = source
            value = counts[num] / counts[den] if counts[den] else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out, self_times


def run(args) -> dict:
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    control = make_control()
    try:
        timed_import()   # untimed: first-touch memory and file caches
        setups = []
        for _ in range(SETUP_REPEATS // 2):
            seconds, workloads = timed_import()
            setups.append(seconds)
        start = perf_counter()
        inputs = workloads.Inputs(str(workdir))
        pool = workloads.build(args.workload, args.seed, inputs,
                               args.seconds / PASSES, args.tiny)
        inputs_s = perf_counter() - start
        workdir.mkdir(parents=True, exist_ok=True)
        inputs.write()
        stamp = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "git": git_revision(),
            "nproc": os.cpu_count(), "pool": len(pool),
            "setup_runs_s": setups, "inputs_s": inputs_s,
        }
        for req in pool[:WARMUP]:
            call(workloads.main, req.argv)
        gc.collect()
        records: list = []
        if args.trace:
            metrics = traced_run(args, workloads, pool, control,
                                 records, stamp)
        else:
            drive(workloads.main, pool, PASSES, control, records)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            walls = [r[1] for r in records]
            latencies = [r[1] * r[2] for r in records]
            pct, tail_s = tail(latencies)
            stamp.update(
                passes=PASSES, requests=len(records), tail_percentile=pct,
                measured_s=sum(walls),
                speed_median=statistics.median(r[2] for r in records),
                wall_req_per_s=len(records) / sum(walls),
                wall_p50_ms=1000 * statistics.median(walls),
                wall_tail_ms=1000 * tail(walls)[1])
            metrics = {
                "req_per_s": len(records) / sum(latencies),
                "req_p50_ms": 1000 * statistics.median(latencies),
                "req_tail_ms": 1000 * tail_s,
                "peak_rss_mb": rss_mb,
            }
        start = perf_counter()
        failures, wrong, widths = judge_all(workloads, pool, records)
        stamp["check_s"] = perf_counter() - start
        while len(setups) < SETUP_REPEATS:
            setups.append(timed_import()[0])
        if not args.trace:
            metrics["ok_ratio"] = 1 - len(failures) / len(records)
            metrics["width_mean"] = (statistics.fmean(widths.values())
                                     if widths else 0.0)
            metrics["setup_s"] = statistics.median(setups)
            metrics = {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in metrics.items()}
        stamp.update(failed=len(failures), wrong=wrong,
                     failures=failures[:20])
        print(json.dumps({"stamp": stamp}, sort_keys=True))
        return {"correct": wrong == 0, "attempted": len(records),
                "failed": len(failures), "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(args, workloads, pool, control, records, stamp):
    """One plain pass, then one traced pass; the per-layer metrics of the
    traced pass.  Span times are wall times, not scaled."""
    tracing = importlib.import_module("tracing")
    drive(workloads.main, pool, 1, control, records)
    tracer = tracing.Tracer()
    main = tracer.wrap("cli.main", workloads.main)

    def on_request(index):
        tracer.request = index

    tracer.install()
    try:
        drive(main, pool, 1, control, records, on_request)
    finally:
        tracer.uninstall()
    plain, traced = (sum(r[1] * r[2] for r in part)
                     for part in (records[:len(pool)], records[len(pool):]))
    metrics, self_times = per_layer(tracer)
    modules: dict = {}
    for layer, seconds in self_times.items():
        module = layer.split(".")[0]
        modules[module] = modules.get(module, 0.0) + seconds
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    tracer.dump(str(spans_path))
    stamp.update(
        passes=PASSES, requests=len(records), plain_pass_s=plain,
        traced_pass_s=traced, overhead=traced / plain - 1,
        largest_self_layer=max(self_times, key=self_times.get),
        largest_self_module=max(modules, key=modules.get),
        spans=str(spans_path.relative_to(ROOT)), span_count=len(tracer.spans))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mmtw" / "__init__.py").is_file():
        print(f"error: no mmtw sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
