"""Tests of the benchmark's own parts: corpus generator, span recorder, metric list.

    python3 -m pytest bench/test_bench.py     (or: python3 bench/test_bench.py)
"""

from __future__ import annotations

import json
import random
import sys
import time
import unittest
from pathlib import Path

import corpus
import spans

ROOT = Path(__file__).resolve().parent.parent


def decode_graph6(line: str) -> tuple[int, set[tuple[int, int]]]:
    """Minimal graph6 decoder for n <= 258047, written for this test."""
    if ord(line[0]) == 126:
        n = 0
        for ch in line[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = line[4:]
    else:
        n, body = ord(line[0]) - 63, line[1:]
    bits = [(ord(ch) - 63) >> s & 1 for ch in body for s in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    assert len(bits) - len(pairs) in range(6) and not any(bits[len(pairs):])
    return n, {p for p, b in zip(pairs, bits) if b}


class CorpusTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        args = ({(3, 10): 2, (4, 28): 1, (5, 64): 2},)
        self.assertEqual(corpus.regular_corpus(7, *args), corpus.regular_corpus(7, *args))
        self.assertNotEqual(corpus.regular_corpus(7, *args), corpus.regular_corpus(8, *args))

    def test_graphs_are_simple_and_regular(self):
        for n, d, _, edges in corpus.regular_corpus(
            3, {(d, n): 3 for d in (3, 4, 5, 7) for n in (10, 20, 40, 64)}
        ):
            self.assertEqual(len(edges), n * d // 2)
            self.assertEqual(len(set(edges)), len(edges), "double edge")
            degree = [0] * n
            for u, v in edges:
                self.assertTrue(0 <= u < v < n, f"loop or bad endpoint {(u, v)}")
                degree[u] += 1
                degree[v] += 1
            self.assertEqual(set(degree), {d})

    def test_graph6_round_trip(self):
        rng = random.Random(1)
        for n, d in ((10, 3), (62, 3), (63, 4), (64, 5)):
            edges = corpus.random_regular_edges(n, d, rng)
            self.assertEqual(decode_graph6(corpus.graph6(n, edges)), (n, set(edges)))

    def test_impossible_degree_rejected(self):
        with self.assertRaises(ValueError):
            corpus.random_regular_edges(7, 3, random.Random(0))


class SpanRecorderTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        rec = spans.SpanRecorder(op_names={"op"})
        inner = spans.wrap(rec, "inner", lambda: time.sleep(0.02))

        def op():
            time.sleep(0.01)
            inner()
            inner()

        outer = spans.wrap(rec, "outer", lambda: [spans.wrap(rec, "op", op)() for _ in range(2)])
        outer()
        totals = rec.totals()
        self.assertEqual(totals["inner"]["calls"], 4)
        self.assertGreaterEqual(totals["inner"]["s"], 0.08)
        self.assertLess(totals["op"]["s"], totals["inner"]["s"])
        self.assertAlmostEqual(sum(rec.self_times()), rec.root_time(), places=9)
        # Spans share the op id of the op span that encloses them.
        self.assertEqual(rec.ops, [1, 2, 2, 2, 3, 3, 3])

    def test_errors_are_recorded_and_raised(self):
        rec = spans.SpanRecorder()

        def boom():
            raise ValueError("x")

        with self.assertRaises(ValueError):
            spans.wrap(rec, "boom", boom)()
        self.assertEqual(rec.totals()["boom"]["error"], 1)


class BenchmarkSpecTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        sys.path.insert(0, str(ROOT / "src"))
        import run
        from indsets import harness

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            run.per_layer_spec(harness.CHECKS),
        )


if __name__ == "__main__":
    unittest.main()
