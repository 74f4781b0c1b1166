"""Regenerate ``reference.json``: the digest of every pool entry's result.

    python3 bench/record.py

Runs every operation the generators can draw once, checks its invariants,
and pins the digest of its canonical result.  Run it only at a commit whose
results are known to be right; a benchmark run counts every operation whose
result differs from this record as failed.
"""

from __future__ import annotations

import json
import shutil
import sys

from session import BENCH, WORK, import_valuesets
from workloads import WORKLOADS, digest


def main() -> int:
    vs = import_valuesets()
    ref: dict[str, list[str]] = {}
    workdir = WORK / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bad = 0
    try:
        for wl in WORKLOADS.values():
            ops = wl.pool_ops()
            for n, op in enumerate(ops):
                op["seq"] = n
            ctx = wl.prepare(vs, ops, workdir)
            for op in ops:
                canon, ok = wl.canon(op, wl.execute(vs, op, ctx))
                if not ok:
                    print(f"{wl.name}: {op['ref']} {op['i']} breaks an invariant", file=sys.stderr)
                    bad += 1
                entries = ref.setdefault(op["ref"], [])
                if len(entries) != op["i"]:
                    raise RuntimeError(f"pool of {op['ref']} is not in index order")
                entries.append(digest(canon))
            print(f"{wl.name}: {len(ops)} pool operations recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        return 1
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
