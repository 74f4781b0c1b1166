"""One benchmark session in a fresh interpreter.

    python3 bench/session.py '<json config>'

The config names the workload, seed, session index and variant, the trace
file (or null), whether to stop after set-up, and ``spawned_at``: the
parent's ``time.monotonic()`` just before it started this process.  The
session imports valuesets from the ``src`` directory next to ``bench``,
builds its inputs, takes set-up time as now minus ``spawned_at`` (the
monotonic clock is system-wide on Linux), runs its operations one after
another and prints one JSON line with set-up time, latencies, failures and,
when traced, per-layer aggregates.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import sys
import time
import types
from pathlib import Path

from tracer import PROBE, Tracer, aggregate
from workloads import WORKLOADS, digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
MODULES = ("cli", "bounds", "conditions", "energy", "formats", "functable", "gf")


def import_valuesets() -> types.SimpleNamespace:
    sys.path.insert(0, str(SRC))
    import valuesets.cli  # noqa: F401  (imports every module)

    location = Path(sys.modules["valuesets"].__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"valuesets imported from {location}, not from {SRC}")
    return types.SimpleNamespace(**{m: sys.modules[f"valuesets.{m}"] for m in MODULES})


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's peak RSS."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def main(cfg: dict) -> dict:
    t0 = time.perf_counter()
    vs = import_valuesets()
    import_s = time.perf_counter() - t0

    wl = WORKLOADS[cfg["workload"]]
    ops = wl.session_ops(cfg["seed"], cfg["session"], cfg["variant"])
    for n, op in enumerate(ops):
        op["seq"] = n
    workdir = WORK / f"{wl.name}-{cfg['session']}-{cfg['variant']}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ctx = wl.prepare(vs, ops, workdir)
        setup_s = time.monotonic() - cfg["spawned_at"]
        if cfg["setup_only"]:
            return {"setup_s": setup_s, "import_s": import_s}
        return {"setup_s": setup_s, **run_ops(cfg, vs, wl, ops, ctx, import_s)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def is_correct(wl, op, raw, ref) -> bool:
    """Invariants hold and the result digest matches the pinned one; a
    result the checks cannot even read is wrong too."""
    try:
        canon, ok = wl.canon(op, raw)
        return ok and digest(canon) == ref[op["ref"]][op["i"]]
    except (KeyError, IndexError, TypeError, ValueError, AttributeError):
        return False


def run_ops(cfg, vs, wl, ops, ctx, import_s) -> dict:
    ref = json.loads((BENCH / "reference.json").read_text())
    tracer = None
    if cfg["trace"]:
        tracer = Tracer()
        tracer.instrument()
    latencies, failed, work = [], 0, 0
    scans: dict[str, list[int]] = {}
    clock = time.perf_counter
    # Keep the collector from rescanning the benchmark's own long-lived data
    # (operations, inputs, reference digests) during timed calls; the
    # program's own allocations are collected as usual.
    gc.collect()
    gc.freeze()
    for n, op in enumerate(ops):
        if tracer:
            tracer.op = n
        start = clock()
        try:
            raw = wl.execute(vs, op, ctx)
        except Exception as exc:  # a raising operation is a counted failure
            latencies.append(clock() - start)
            print(f"operation {n} ({op['kind']} {op['i']}) raised {exc!r}", file=sys.stderr)
            failed += 1
            continue
        latencies.append(clock() - start)
        work += wl.work(op)
        if not is_correct(wl, op, raw, ref):
            print(f"operation {n} ({op['kind']} {op['i']}) gave a wrong result", file=sys.stderr)
            failed += 1
        if tracer and hasattr(wl, "probe"):
            tracer.op = PROBE + n
            for c, (scanned, total) in wl.probe(vs, op, ctx).items():
                acc = scans.setdefault(c, [0, 0])
                acc[0] += scanned
                acc[1] += total
    out = {
        "import_s": import_s,
        "latencies": latencies,
        "attempted": len(ops),
        "failed": failed,
        "work": work,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer:
        first: dict[str, float] = {}
        for name, start, end, _, _ in tracer.spans:
            first.setdefault(name, end - start)
        out["spans"] = aggregate(tracer.spans)
        out["first_span_s"] = first
        out["scans"] = scans
        tracer.write(cfg["trace"], {"workload": wl.name, "session": cfg["session"],
                                    "variant": cfg["variant"]})
    return out


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    print(json.dumps(result), flush=True)
