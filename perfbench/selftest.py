"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at self-test sizes, traced and untraced, and checks
the shape of the result line against BENCHMARK.json; feeds every
correctness check a known-bad input and expects it to object; and runs
the entry point in a directory holding only the benchmark, where it must
fail without printing a result.  Takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from types import SimpleNamespace

import common

common.import_program()

import checks  # noqa: E402
from run import WORKLOADS, run_workload  # noqa: E402

SPEC = common.load_spec()


class WorkloadShape(unittest.TestCase):
    """Every workload runs clean at small size and reports every metric."""

    def check_line(self, workload: str, trace: bool) -> None:
        report = run_workload(workload, seed=3, seconds=0.1, trace=trace, small=True)
        self.assertEqual(report.problems, [], f"{workload} trace={trace}")
        line = json.loads(common.result_line(report, trace, SPEC))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(line["correct"], True)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        section = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(line["metrics"]), [m["name"] for m in section])
        for m in section:
            got = line["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], float)
            if not trace:
                self.assertGreater(got["value"], 0.0, f"{workload} {m['name']}")

    def test_every_workload(self) -> None:
        for workload in WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    self.check_line(workload, trace)

    def test_missing_end_to_end_metric_is_an_error(self) -> None:
        report = common.Report("qa-zipf", attempted=1, metrics={"setup_s": 1.0})
        with self.assertRaises(KeyError):
            common.result_line(report, False, SPEC)


class ChecksObject(unittest.TestCase):
    """Each correctness check rejects a known-bad input."""

    def test_answer_quality(self) -> None:
        self.assertEqual(checks.reciprocal_rank(["Lyon", "in Paris"], {"Paris"}), 0.5)
        self.assertEqual(checks.reciprocal_rank(["Lyon"], {"Paris"}), 0.0)
        self.assertFalse(checks.answer_matches("", "Paris"))
        self.assertEqual(checks.mrr_floor(0.7, 0.5), [])
        self.assertTrue(checks.mrr_floor(0.4, 0.5))

    def test_answers_in_paragraphs(self) -> None:
        def result(text: str, key: tuple[int, int]) -> SimpleNamespace:
            return SimpleNamespace(
                answers=[SimpleNamespace(text=text, paragraph_key=key)],
                processed=SimpleNamespace(question=SimpleNamespace(qid=1)),
            )

        paragraphs = {(0, 0): "Nora Vance was born in Paris."}
        self.assertEqual(checks.answers_in_paragraphs([result("Paris", (0, 0))], paragraphs), [])
        self.assertTrue(checks.answers_in_paragraphs([result("Lyon", (0, 0))], paragraphs))
        self.assertTrue(checks.answers_in_paragraphs([result("Paris", (9, 9))], paragraphs))

    def test_paragraph_texts_keys(self) -> None:
        doc = SimpleNamespace(doc_id=4, text="one.\n\n\n\ntwo.")
        corpus = SimpleNamespace(collections=[SimpleNamespace(documents=[doc])])
        self.assertEqual(checks.paragraph_texts(corpus), {(4, 0): "one.", (4, 2): "two."})

    def test_reference_comparisons(self) -> None:
        import qa_workloads

        built = qa_workloads.build(1, qa_workloads.SMALL["qa-zipf"].corpus)
        stream, _ = qa_workloads.make_stream(built.corpus, 4, 4, seed=0)
        text = stream[0][1]
        got = built.pipeline.answer(text)
        self.assertEqual(checks.same_as_reference([(text, got, got)]), [])
        moved = dataclasses.replace(got, paragraph_ranks=tuple(reversed(got.paragraph_ranks)) + ((0, 0),))
        self.assertTrue(checks.same_as_reference([(text, moved, got)]))
        served = tuple((a.text, float(a.score)) for a in got.answers[:3])
        self.assertEqual(checks.served_as_reference([(text, served, got)]), [])
        self.assertTrue(checks.served_as_reference([(text, served[:-1], got)]))
        self.assertTrue(checks.served_as_reference([(text, (), got)]))

    def test_ledger(self) -> None:
        from repro.serving import ConservationLedger

        good = ConservationLedger(submitted=3, answered=3)
        self.assertEqual(checks.ledger_balanced(good, 3), [])
        self.assertTrue(checks.ledger_balanced(ConservationLedger(submitted=3, answered=2), 3))
        self.assertTrue(checks.ledger_balanced(ConservationLedger(submitted=3, answered=2, shed=1), 3))
        self.assertTrue(checks.ledger_balanced(good, 4))

    def test_simulated_cluster(self) -> None:
        from repro.workload import trec_mix_profiles

        profiles = trec_mix_profiles(8, seed=0)
        self.assertGreater(checks.capacity_bound_qps(profiles, n_nodes=4, cpu_speed=1.0), 0.0)
        self.assertEqual(checks.cpu_within_capacity([(1.0, 2.0), (2.0, 2.0)], 1.0, 3.0), [])
        self.assertTrue(checks.cpu_within_capacity([(1.0, 2.0), (2.5, 2.0)], 1.0, 3.0))
        self.assertTrue(checks.cpu_within_capacity([(1.0, 2.0), (1.5, 2.0)], 1.0, 3.0))
        floor = checks.critical_path_s(profiles[0], cpu_speed=1.0, disk_bandwidth=25e6)
        self.assertGreater(floor, profiles[0].qp_cpu_s)

        def answered(response_time: float) -> SimpleNamespace:
            return SimpleNamespace(qid=profiles[0].qid, response_time=response_time)

        self.assertEqual(checks.over_critical_path([answered(floor)], profiles, 1.0, 25e6), [])
        self.assertTrue(checks.over_critical_path([answered(0.9 * floor)], profiles, 1.0, 25e6))
        report = SimpleNamespace(n_admitted=3, n_questions=3, n_completed=2, n_lost=1, accounted=True)
        self.assertTrue(checks.all_completed(report, 3))
        self.assertTrue(checks.identical((1, 2.0), (1, 2.5), "stats"))
        self.assertEqual(checks.identical((1, 2.0), (1, 2.0), "stats"), [])


class WithoutTheProgram(unittest.TestCase):
    """With only BENCHMARK.json and the benchmark, the entry point fails."""

    def test_exits_nonzero_without_result(self) -> None:
        bare = common.CACHE_ROOT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.mkdir(parents=True)
            shutil.copy(common.BENCHMARK_JSON, bare / "BENCHMARK.json")
            shutil.copytree(
                common.ROOT / "perfbench", bare / "perfbench",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "qa-zipf",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            try:
                common.CACHE_ROOT.rmdir()
            except OSError:
                pass


if __name__ == "__main__":
    unittest.main(verbosity=2)
