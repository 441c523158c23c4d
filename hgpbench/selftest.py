"""Fast checks of the benchmark itself, on the smallest rung of each workload.

    python3 hgpbench/selftest.py

Run from the root of a checkout.  Takes well under a minute.
"""

import hashlib
import io
import itertools
import json
import os
import re
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as _fh:
    SPEC = json.load(_fh)


def smallest(workload):
    return [workloads.rung_names(workload)[0]]


def scratch_dir():
    os.makedirs(run.OUT, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.OUT)


def generated(workload, seed, rungs):
    """(ops, {file name: sha256}) of one generation into a fresh directory."""
    run.import_program()
    with scratch_dir() as tmp:
        ops = workloads.make_ops(workload, seed, tmp, rungs)
        files = {}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                files[name] = hashlib.sha256(fh.read()).hexdigest()
    return ops, files


class Reporting(unittest.TestCase):
    def report(self, result):
        out = io.StringIO()
        with scratch_dir() as tmp:
            run.report(result, out, results_dir=tmp)
        return out.getvalue()

    def test_every_end_to_end_metric_is_printed_with_its_unit(self):
        for w in workloads.WORKLOADS:
            text = self.report(run.run_workload(w, 1, 0, 0, rungs=smallest(w)))
            for name, unit in run.END_TO_END:
                pattern = rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\s"
                self.assertRegex(text, re.compile(pattern, re.M), f"{w}: {name}")
            line = json.loads(text.splitlines()[-1])
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(line["correct"], text)
            for spec in SPEC["end_to_end"]:
                self.assertEqual(line["metrics"][spec["name"]]["unit"], spec["unit"])
                self.assertGreater(line["metrics"][spec["name"]]["value"], 0)

    def test_every_per_layer_metric_is_printed_with_its_unit(self):
        names = [(spec["name"], spec["unit"]) for spec in SPEC["per_layer"]]
        self.assertEqual(names, [(n, u) for n, u, _ in tracer.metric_specs()])
        text = self.report(run.run_workload("cnz", 1, 0, 1, rungs=smallest("cnz")))
        self.assertIn("tracing overhead", text)
        line = json.loads(text.splitlines()[-1])
        self.assertTrue(line["correct"], text)
        for name, unit in names:
            self.assertEqual(line["metrics"][name]["unit"], unit)


class Failures(unittest.TestCase):
    def test_wrong_verdict_and_exception_count_without_aborting(self):
        real_make_ops = workloads.make_ops

        def make_faulty_ops(*args, **kwargs):
            ops = real_make_ops(*args, **kwargs)
            corr = sys.modules["hgpforge.correctability"]
            real = corr.is_correctable
            calls = itertools.count()

            def faulty(code, region):
                i = next(calls)
                if i == 0:
                    raise RuntimeError("injected")
                verdict = real(code, region)
                if i == 1:
                    return corr.CorrectabilityVerdict(not verdict.correctable)
                return verdict

            corr.is_correctable = faulty
            return ops

        with mock.patch.object(workloads, "make_ops", make_faulty_ops):
            result = run.run_workload("codes", 1, 0, 0, rungs=smallest("codes"))
        self.assertGreaterEqual(result["attempted"], run.MIN_OPS)
        self.assertEqual(result["failed"], 2)
        self.assertEqual(result["metrics"]["fail_ratio"]["value"], 2 / result["attempted"])
        self.assertFalse(result["correct"])
        problems = [f["problem"] for f in result["failures"]]
        self.assertIn("RuntimeError: injected", problems)


class Inputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for w in workloads.WORKLOADS:
            ops_a, files_a = generated(w, 5, smallest(w))
            ops_b, files_b = generated(w, 5, smallest(w))
            self.assertTrue(files_a, w)
            self.assertEqual(files_a, files_b, w)
            self.assertEqual([op.argv for op in ops_a], [op.argv for op in ops_b], w)

    def test_other_seed_keeps_op_counts_and_changes_inputs(self):
        for w in workloads.WORKLOADS:
            ops_a, files_a = generated(w, 5, smallest(w))
            ops_b, files_b = generated(w, 6, smallest(w))
            self.assertEqual(workloads.rung_counts(ops_a), workloads.rung_counts(ops_b), w)
            self.assertNotEqual((files_a, [op.argv for op in ops_a]),
                                (files_b, [op.argv for op in ops_b]), w)


if __name__ == "__main__":
    unittest.main()
