"""Self-test of the benchmark itself (not of the simulator).

    python3 perfbench/selftest.py

Takes about a minute: it makes two short traced runs of every workload.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

import layers
import run
import workloads

HERE = Path(__file__).resolve().parent
COUNT_SUFFIXES = (".calls", ".fock_outcomes", ".records_in", ".branches_in",
                  ".keep_ratio", ".peak_branches")


def bench(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def qubusim_namespaces() -> dict:
    """Every attribute of every loaded qubusim module and of HybridState."""
    spaces = {key: dict(vars(mod)) for key, mod in sys.modules.items()
              if key == "qubusim" or key.startswith("qubusim.")}
    spaces["HybridState"] = dict(vars(sys.modules["qubusim.state"].HybridState))
    return spaces


class TestBenchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))

    def test_op_mix_is_a_function_of_the_seed(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                ctx, _, _ = run.set_up(workload, 0)

                def describe(seed):
                    return [(op.kind, op.inputs, op.known_red) for c in (0, 1)
                            for op in workloads.make_cycle(workload, ctx, seed, c)]

                first = describe(5)
                self.assertEqual(first, describe(5))
                other = describe(6)
                self.assertEqual([d[0] for d in first], [d[0] for d in other])
                self.assertNotEqual(first, other)

    def test_traced_run_restores_every_attribute(self):
        workload = workloads.WORKLOADS["sampled-shots"]
        ctx, _, _ = run.set_up(workload, 0)
        before = qubusim_namespaces()
        op = workloads.make_cycle(workload, ctx, 0, 0)[0]
        tracer = layers.Tracer()
        tracer.install()
        try:
            self.assertIsNot(ctx["qs"].gates.coalesce, before["qubusim.gates"]["coalesce"])
            self.assertIsNone(op.check(tracer.run_op(0, op.call)))
        finally:
            tracer.uninstall()
        after = qubusim_namespaces()
        self.assertEqual(before.keys(), after.keys())
        for space, attrs in before.items():
            self.assertEqual(attrs.keys(), after[space].keys())
            for attr, obj in attrs.items():
                self.assertIs(after[space][attr], obj, f"{space}.{attr}")
        self.assertIn("gates.coalesce", {span[0] for span in tracer.spans})

    def test_traced_counts_repeat_for_one_seed(self):
        per_layer = [m["name"] for m in self.spec["per_layer"]]
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first, second = bench(name, 3, 1), bench(name, 3, 1)
                self.assertTrue(first["correct"])
                self.assertEqual(list(first["metrics"]), per_layer)
                counts = [{k: v["value"] for k, v in r["metrics"].items()
                           if k.endswith(COUNT_SUFFIXES)} for r in (first, second)]
                self.assertTrue(counts[0])
                self.assertEqual(counts[0], counts[1])

    def test_untraced_run_prints_the_end_to_end_metrics(self):
        result = bench("sampled-shots", 1, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in self.spec["end_to_end"]])
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
