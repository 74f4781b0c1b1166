"""Tests of the benchmark itself (not of valuesets).

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import session  # noqa: E402
from run import percentile  # noqa: E402
from tracer import PROBE, Tracer, aggregate, self_times  # noqa: E402
from workloads import (  # noqa: E402
    Q7_MASKS,
    Q7_WITNESS_INDICES,
    WORKLOADS,
    check_classify_report,
    planar_quadratic_tables,
)


def classify_report(masks=Q7_MASKS, witnesses=Q7_WITNESS_INDICES) -> dict:
    return {"result": {
        "total": 7**7,
        "masks": dict(masks),
        "witness_indices": dict(witnesses),
        "derived": {"lattice_violations": 0},
    }}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_operations(self):
        for name, wl in WORKLOADS.items():
            for variant in wl.variants:
                with self.subTest(workload=name, variant=variant):
                    a = wl.session_ops(7, 3, variant)
                    b = wl.session_ops(7, 3, variant)
                    self.assertEqual(json.dumps(a), json.dumps(b))

    def test_seed_and_session_change_the_draw(self):
        for name in ("profile-fields", "bounds-stream"):
            wl = WORKLOADS[name]
            base = wl.session_ops(7, 3)
            self.assertNotEqual(base, wl.session_ops(8, 3), name)
            self.assertNotEqual(base, wl.session_ops(7, 4), name)

    def test_composition_is_fixed(self):
        """The seed draws which pool entries, never how many of each kind."""
        for name in ("profile-fields", "bounds-stream"):
            wl = WORKLOADS[name]
            kinds = [sorted(op["kind"] for op in wl.session_ops(seed, 0)) for seed in (1, 2)]
            self.assertEqual(kinds[0], kinds[1], name)

    def test_bounds_stream_starts_with_the_cold_query(self):
        ops = WORKLOADS["bounds-stream"].session_ops(5, 0)
        self.assertEqual(ops[0]["kind"], "cold")
        self.assertGreaterEqual(len(ops), 3000)

    def test_every_drawn_operation_has_a_reference(self):
        ref = json.loads((session.BENCH / "reference.json").read_text())
        for name, wl in WORKLOADS.items():
            for variant in wl.variants:
                for op in wl.session_ops(1, 0, variant):
                    self.assertLess(op["i"], len(ref[op["ref"]]), (name, op["ref"]))


class ReferenceCheckTest(unittest.TestCase):
    def test_pinned_table_passes(self):
        self.assertTrue(check_classify_report(classify_report(), 0))

    def test_independent_planar_count(self):
        quads = planar_quadratic_tables(7)
        self.assertEqual(len(quads), 294)
        self.assertEqual(Q7_MASKS["1111"], len(quads))

    def test_mask_count_off_by_one_fails(self):
        masks = dict(Q7_MASKS)
        masks["0101"] += 1
        masks["0000"] -= 1
        self.assertFalse(check_classify_report(classify_report(masks=masks), 0))

    def test_tampered_witness_or_exit_code_fails(self):
        witnesses = dict(Q7_WITNESS_INDICES, **{"1111": 3747})
        self.assertFalse(check_classify_report(classify_report(witnesses=witnesses), 0))
        self.assertFalse(check_classify_report(classify_report(), 1))

    def test_tampered_report_counts_as_failed(self):
        """A classify report with one mask count off by one, as returned by
        cli.main, makes the session count the operation as failed."""
        report = classify_report()
        report["result"]["masks"]["1111"] += 1

        def fake_main(argv):
            print(json.dumps(report))
            return 0

        vs = types.SimpleNamespace(cli=types.SimpleNamespace(main=fake_main))
        wl = WORKLOADS["classify-q7"]
        ops = wl.session_ops(1, 0)
        out = session.run_ops({"trace": None}, vs, wl, ops, None, 0.0)
        self.assertEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 1)

    def test_real_results_pass_and_tampered_ones_fail(self):
        vs = session.import_valuesets()
        ref = json.loads((session.BENCH / "reference.json").read_text())
        wl = WORKLOADS["bounds-stream"]
        ops = [op for op in wl.session_ops(2, 0) if op["kind"] in ("lower", "bound3", "json")]
        ops = [next(op for op in ops if op["kind"] == k) for k in ("lower", "bound3", "json")]
        for n, op in enumerate(ops):
            op["seq"] = n
        workdir = session.WORK / "test"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            ctx = wl.prepare(vs, ops, workdir)
            for op in ops:
                raw = wl.execute(vs, op, ctx)
                self.assertTrue(session.is_correct(wl, op, raw, ref), op["kind"])
                wrong = copy.deepcopy(op)
                wrong["i"] = (op["i"] + 1) % len(ref[op["ref"]])
                self.assertFalse(session.is_correct(wl, wrong, raw, ref), op["kind"])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


class SpanTest(unittest.TestCase):
    def test_self_time_on_hand_built_tree(self):
        spans = [
            ["root", 0.0, 10.0, -1, 0],
            ["a", 1.0, 4.0, 0, 0],
            ["b", 3.0, 6.0, 0, 0],   # overlaps a: the union 1..6 is covered once
            ["a.child", 2.0, 3.0, 1, 0],
            ["late", 9.0, 12.0, 0, 0],  # only 9..10 lies inside root
        ]
        self.assertEqual(self_times(spans), [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_aggregate_separates_probe_calls(self):
        spans = [
            ["x", 0.0, 2.0, -1, 0],
            ["y", 0.5, 1.0, 0, 0],
            ["x", 3.0, 4.0, -1, 1],
            ["x", 5.0, 8.0, -1, PROBE + 1],
        ]
        agg = aggregate(spans)
        self.assertEqual(agg["op:x"], {"calls": 2, "self_s": 2.5, "dur_s": 3.0, "ops": 2})
        self.assertEqual(agg["op:y"]["self_s"], 0.5)
        self.assertEqual(agg["probe:x"]["calls"], 1)

    def test_wrapped_calls_nest_and_carry_the_op_id(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(x) * 2)
        tracer.op = 4
        self.assertEqual(outer(1), 4)
        (o_name, *_, o_parent, o_op), (i_name, *_, i_parent, i_op) = tracer.spans
        self.assertEqual((o_name, o_parent, o_op), ("outer", -1, 4))
        self.assertEqual((i_name, i_parent, i_op), ("inner", 0, 4))

    def test_percentile_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(percentile(xs, 90), 90)
        self.assertEqual(percentile(xs, 100), 100)
        self.assertEqual(percentile([5.0], 50), 5.0)


if __name__ == "__main__":
    unittest.main()
