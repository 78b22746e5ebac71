"""Unit tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The self-time fold over a span tree is tested with the probe
(`cargo test --manifest-path perfbench/probe/Cargo.toml`).
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        xs = list(range(1, 21))  # 20 samples: only the median leaves 10 beyond
        self.assertEqual(run.tail_percentile(xs), (50.0, 10))
        xs = list(range(1, 1011))  # 1010 samples: p99 is rank 1000, 10 beyond
        self.assertEqual(run.tail_percentile(xs), (99.0, 1000))
        xs = list(range(1, 10011))  # p99.9 is rank 10000, 10 beyond
        self.assertEqual(run.tail_percentile(xs), (99.9, 10000))

    def test_too_few_samples(self):
        self.assertIsNone(run.tail_percentile(list(range(19))))
        self.assertEqual(run.tail_percentile(list(range(20)))[0], 50.0)

    def test_order_does_not_matter(self):
        xs = [5, 1, 4, 2, 3] * 5
        self.assertEqual(run.tail_percentile(xs), run.tail_percentile(sorted(xs)))


class FakeCommand(run.Command):
    """A child that writes progress, then dies or succeeds."""

    progress = True

    def __init__(self, ops, code):
        self.ops, self.code = ops, code

    def argv(self, repwf, threads):
        script = ("import sys\n"
                  "for k in range(1, 41):\n"
                  "    sys.stderr.write(f'\\r{k}/100 experiments')\n"
                  "print('{\"ok\": true}')\n"
                  f"sys.exit({self.code})\n")
        return [sys.executable, "-c", script]

    def check(self, doc, ctx):
        return [] if doc.get("ok") else ["bad output"]


class ErrorAccounting(unittest.TestCase):
    def test_command_dying_mid_run_fails_all_its_operations(self):
        cmds = [FakeCommand(100, 0), FakeCommand(100, 3), FakeCommand(7, 0)]
        results, digests, _ = run.run_pass(cmds, "repwf", 2)
        self.assertEqual([bool(r["errors"]) for r in results], [False, True, False])
        self.assertIn("exited 3", results[1]["errors"][0])
        # 40 of the dead command's 100 experiments had reported progress;
        # all 100 still count as failed.
        self.assertEqual(run.tally(results), (207, 100))
        self.assertEqual(len(digests), 3)
        self.assertIsNotNone(results[0]["first"])

    def test_failed_check_counts_like_a_crash(self):
        results = [{"ops": 5, "errors": []}, {"ops": 1, "errors": ["optimum 69, paper 68"]}]
        self.assertEqual(run.tally(results), (6, 1))


class Checks(unittest.TestCase):
    def test_campaign_period_below_mct_fails(self):
        cmd = run.Campaign(2, 7, "1", "5..10", 2, 10)
        doc = {"simulated": 0, "outcomes": [
            {"seed": 10, "mct": 2.0, "period": 2.0, "resolution": "exact"},
            {"seed": 11, "mct": 2.0, "period": 1.9, "resolution": "exact"}]}
        self.assertEqual(len(cmd.check(doc, {})), 1)
        doc["outcomes"][1]["period"] = 2.0 * (1 - 1e-12)
        self.assertEqual(cmd.check(doc, {}), [])

    def test_heuristic_must_not_beat_the_optimum(self):
        ctx = {}
        exact = run.MapExact("a", "strict")
        self.assertEqual(exact.check({"exact": {"feasible": True, "period": 68.0}}, ctx), [])
        self.assertEqual(len(exact.check({"exact": {"feasible": True, "period": 69.0}}, {})), 1)
        heur = run.MapHeuristic("a", "strict", 10, 1)
        self.assertEqual(heur.check({"heuristic": {"period": 70.0}}, ctx), [])
        self.assertEqual(len(heur.check({"heuristic": {"period": 60.0}}, ctx)), 1)
        self.assertAlmostEqual(ctx["gaps"][0], 100 * (70 / 68 - 1))


class Manifest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.manifest = json.load(f)
        cls.per_layer = {m["name"] for m in cls.manifest["per_layer"]}

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.manifest["workloads"]], list(run.WORKLOADS))

    def test_end_to_end_metrics_are_in_the_report(self):
        for m in self.manifest["end_to_end"]:
            unit, better, workloads = run.E2E[m["name"]]
            self.assertEqual((m["unit"], m["better"]), (unit, better), m["name"])
            self.assertEqual(workloads, run.ALL, f"{m['name']} must apply to every workload")

    def test_layer_map_names_only_existing_metrics(self):
        for layers, targets, workloads, _ in run.LAYER_MAP:
            for name in layers:
                self.assertIn(name, self.per_layer)
            for target in targets:
                self.assertIn(target, run.E2E)
                for w in workloads:
                    self.assertIn(w, run.E2E[target][2], f"{target} does not apply to {w}")

    def test_every_per_layer_metric_is_computed(self):
        layer = {"self_s": 0.0, "calls": 0}
        names = ["gen.routing", "gen.experiment", "core.batch", "gen.sampler", "core.mct",
                 "core.engine", "core.overlap_poly", "core.tpn_build", "tpn.ratio_graph",
                 "maxplus.csr_tarjan", "maxplus.howard", "core.batch.stage", "map.exact",
                 "map.anneal"]
        trace = {"passes": [{"untraced_s": 1.0, "traced_s": 1.2, "probe_s": 0.0,
                             "unattributed_s": 0.01, "counts": {},
                             "layers": {n: dict(layer) for n in names}}],
                 "busy_s": 1.0, "busy_capacity_s": 2.0, "experiment_ns": [1000] * 20}
        values = run.layer_values(trace, [1.5], [], {"parallelism": 1.5})
        self.assertEqual(self.per_layer - set(values), set())


class Seeds(unittest.TestCase):
    def test_seed_bases_are_deterministic_and_bounded(self):
        a = [run.seed_base(7, p) for p in range(50)]
        self.assertEqual(a, [run.seed_base(7, p) for p in range(50)])
        self.assertEqual(len(set(a)), 50)
        self.assertTrue(all(0 <= b < 1_000_000_000 for b in a))
        self.assertNotEqual(a, [run.seed_base(8, p) for p in range(50)])


if __name__ == "__main__":
    unittest.main()
