"""valuesets benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {classify-q7,profile-fields,bounds-stream}
                         --seed N --seconds S --trace {0,1}

Run from the repository root; valuesets is imported from ``src``.  Sessions
(each a fresh interpreter running a fixed list of operations) follow one
another until ``S`` seconds have passed and the workload's minimum session
count is met.  Set-up is sampled in at least SETUP_SAMPLES fresh
interpreters.  Every result is checked against ``reference.json`` and the
workload's invariants; wrong or raising operations count as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
session of the workload twice in a row, untraced and then with spans around
every call into a valuesets module, until S seconds have passed, plus one
traced session of each other workload and a ``--jobs 1`` classification, so
that every per-layer metric is measured on the workload it belongs to.
Spans are written to ``bench/.work/trace/``.  The last line of output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

from session import BENCH, WORK
from workloads import WORKLOADS

SETUP_SAMPLES = 7
SESSION_TIMEOUT_S = 150
CLASSIFY, PROFILE, BOUNDS = "classify-q7", "profile-fields", "bounds-stream"


class SessionError(RuntimeError):
    """A session process failed, timed out or printed no result."""


def spawn(workload, seed, session, variant, trace=None, setup_only=False) -> dict:
    cfg = {"workload": workload, "seed": seed, "session": session, "variant": variant,
           "trace": trace, "setup_only": setup_only}
    cfg["spawned_at"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "session.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SessionError(f"{workload} session {session} ran over {SESSION_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SessionError(f"{workload} session {session} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_sessions(workload, seed, seconds, variant, trace=None, count=None) -> list:
    """Sessions 0, 1, ... until ``seconds`` have passed and the minimum count
    is met, or exactly ``count`` sessions."""
    wl = WORKLOADS[workload]
    results = []
    start = time.monotonic()
    while (len(results) < count if count is not None else
           len(results) < wl.min_sessions or time.monotonic() - start < seconds):
        results.append(spawn(workload, seed, len(results), variant, trace))
    return results


def setup_samples(workload, seed, sessions, variant) -> list[float]:
    samples = [s["setup_s"] for s in sessions]
    while len(samples) < SETUP_SAMPLES:
        samples.append(spawn(workload, seed, len(samples), variant, setup_only=True)["setup_s"])
    return samples


def percentile(latencies, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(latencies)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def end_to_end(workload, seed, seconds) -> tuple[dict, list, list]:
    wl = WORKLOADS[workload]
    variant = next(iter(wl.variants))
    sessions = run_sessions(workload, seed, seconds, variant)
    latencies = [x for s in sessions for x in s["latencies"]]
    p = wl.tail_percentile
    tail_s = percentile(latencies, p)
    metrics = {
        "setup_s": (statistics.median(setup_samples(workload, seed, sessions, variant)), "s"),
        "work_per_s": (sum(s["work"] for s in sessions) / sum(latencies), "items/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (max(s["peak_rss_mb"] for s in sessions), "MB"),
    }
    notes = [f"work unit: {wl.work_unit}",
             f"latency_tail_ms is p{p:g} of {len(latencies)} operations, "
             f"{sum(x > tail_s for x in latencies)} beyond it"]
    return metrics, sessions, notes


def merge_spans(sessions) -> dict:
    merged: dict[str, dict] = {}
    for s in sessions:
        for key, rec in s["spans"].items():
            acc = merged.setdefault(key, dict.fromkeys(rec, 0))
            for field, value in rec.items():
                acc[field] += value
    return merged


def layer_metrics(traced: dict, jobs1: dict, import_s: list, overhead: float) -> dict:
    """Per-layer metrics, each from the traced sessions of its workload."""
    spans = {w: merge_spans(sessions) for w, sessions in traced.items()}
    j1 = merge_spans([jobs1])

    def per_call(workload, key, scale):
        rec = spans[workload][key]
        return scale * rec["self_s"] / rec["calls"]

    def per_op(agg, key, scale):
        rec = agg[key]
        return scale * rec["self_s"] / rec["ops"]

    scans = {}
    for s in traced[PROFILE]:
        for c, (scanned, total) in s["scans"].items():
            acc = scans.setdefault(c, [0, 0])
            acc[0] += scanned
            acc[1] += total
    jobs2 = spans[CLASSIFY]["op:conditions.classify"]
    m = {
        "gf.field_build_ms": (per_op(spans[PROFILE], "op:gf.field_build", 1e3), "ms"),
        "gf.poly_values_ms": (per_op(spans[PROFILE], "op:gf.poly_values", 1e3), "ms"),
        "gf.dense_tables_ms": (per_op(j1, "op:gf.dense_tables", 1e3), "ms"),
    }
    for c in ("c1", "c2", "c3", "c4"):
        m[f"conditions.{c}_ms"] = (per_call(PROFILE, f"probe:conditions.{c}", 1e3), "ms")
    for c in ("c1", "c2", "c3"):
        m[f"conditions.{c}_scan_frac"] = (scans[c][0] / scans[c][1], "frac")
    m.update({
        "conditions.lemma_ms": (per_call(PROFILE, "op:conditions.lemma", 1e3), "ms"),
        "conditions.up_ms": (per_call(PROFILE, "op:conditions.up", 1e3), "ms"),
        "conditions.kernel_tables_per_s":
            (7**7 / j1["op:conditions.classify"]["self_s"], "tables/s"),
        "conditions.parallel_eff":
            (j1["op:conditions.classify"]["dur_s"] / (2 * jobs2["dur_s"] / jobs2["calls"]),
             "ratio"),
        "bounds.bk_cold_ms": (1e3 * statistics.median(
            s["first_span_s"]["bounds.triangular_B"] for s in traced[BOUNDS]), "ms"),
        "bounds.bound_report_us": (per_call(BOUNDS, "op:bounds.bound_report", 1e6), "us"),
        "bounds.construct_us": (per_call(BOUNDS, "op:bounds.construct", 1e6), "us"),
        "functable.collision_count_us":
            (per_call(BOUNDS, "op:functable.collision_count", 1e6), "us"),
        "functable.image_count_us": (per_call(BOUNDS, "op:functable.image_count", 1e6), "us"),
        "energy.energy_bounds_ms": (per_call(BOUNDS, "op:energy.energy_bounds", 1e3), "ms"),
        "energy.product_set_ms": (per_call(BOUNDS, "op:energy.product_set", 1e3), "ms"),
        "formats.load_us": (per_call(BOUNDS, "op:formats.load", 1e6), "us"),
        "formats.save_us": (per_call(BOUNDS, "op:formats.save", 1e6), "us"),
        "cli.import_s": (statistics.median(import_s), "s"),
        "cli.overhead_ms": (per_call(PROFILE, "op:cli.main", 1e3), "ms"),
        "trace.overhead_frac": (overhead, "frac"),
    })
    return m


def traced_run(workload, seed, seconds) -> tuple[dict, list, list]:
    trace_dir = WORK / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{workload}-seed{seed}.jsonl"
    path.unlink(missing_ok=True)
    variant = next(iter(WORKLOADS[workload].variants))
    # untraced and traced runs of each session alternate, so that a drift in
    # the machine's speed touches both sides of trace.overhead_frac alike
    plain, traced = [], {workload: []}
    start = time.monotonic()
    while (len(plain) < WORKLOADS[workload].min_sessions
           or time.monotonic() - start < seconds):
        plain.append(spawn(workload, seed, len(plain), variant))
        traced[workload].append(spawn(workload, seed, len(plain) - 1, variant, str(path)))
    for other, wl in WORKLOADS.items():
        if other not in traced:
            traced[other] = run_sessions(other, seed, 0, next(iter(wl.variants)), str(path),
                                         count=1)
    jobs1 = run_sessions(CLASSIFY, seed, 0, "jobs1", str(path), count=1)[0]
    untraced_s = sum(x for s in plain for x in s["latencies"])
    traced_s = sum(x for s in traced[workload] for x in s["latencies"])
    import_s = [s["import_s"] for s in plain + traced[workload]]
    metrics = layer_metrics(traced, jobs1, import_s, traced_s / untraced_s - 1)
    sessions = plain + [s for ss in traced.values() for s in ss] + [jobs1]
    return metrics, sessions, [f"spans written to {path}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = traced_run if args.trace else end_to_end
    try:
        metrics, sessions, notes = run(args.workload, args.seed, args.seconds)
    except SessionError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes + [f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted})"]:
        print(f"# {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
